import math

import numpy as np
import pytest

from hyperflow.errors import EmptyTrajectory, InsufficientFrames, PreconditionFailed
from hyperflow.flow_engine import FlowConfig, Trajectory, _heights, evolve
from hyperflow.hypersurface import inner_outer_radii
from hyperflow.reflection import Hyperplane, ReflectionStatus
from hyperflow.rigidity import (
    SYMMETRY_FRAMES,
    _direction_set,
    comes_out_of_point,
    rigidity_audit,
    tau_limit_check,
)
from hyperflow import families, reflection, rigidity, shapes
from hyperflow.sphere_ode import initial_time_estimate
from hyperflow.speeds import mean_curvature, speed_by_name
from test_reflection import full_depth_verdict

F_K = mean_curvature(1)


@pytest.fixture(scope="module")
def sphere_fam():
    return families.exponential_sphere_family(-10.0, 0.0, 0.01, n=1, resolution=256)


@pytest.fixture(scope="module")
def ellipse_fam():
    times = -6.0 + 0.01 * np.arange(601)
    return families.ellipsoid_family(times, rates=(1.0, 2.0), n=1, resolution=256)


# ---------------------------------------------------------------------------
# point-origin audit


def test_origin_times_track_radii(sphere_fam):
    radii = [0.5, 0.1, 0.01]
    rep = comes_out_of_point(sphere_fam, [0.0, 0.0], radii)
    assert rep.passed
    for r, t in zip(radii, rep.first_containment_times):
        assert t == pytest.approx(math.log(r), abs=0.011)  # frame spacing


def test_origin_times_nonincreasing_along_decreasing_radii(sphere_fam):
    rep = comes_out_of_point(sphere_fam, [0.0, 0.0], [0.8, 0.4, 0.2, 0.1])
    ts = rep.first_containment_times
    assert all(b <= a for a, b in zip(ts, ts[1:]))


def test_origin_fails_for_displaced_candidate(sphere_fam):
    rep = comes_out_of_point(sphere_fam, [1.0, 0.0], [0.5, 0.1])
    assert not rep.passed
    assert rep.first_containment_times == (None, None)


def test_origin_passes_for_nonround_family(ellipse_fam):
    # the point-origin condition admits non-spherical candidates; the flow
    # residual is what excludes them as solutions
    assert comes_out_of_point(ellipse_fam, [0.0, 0.0], [0.5, 0.1]).passed


def test_eccentric_family_fails_uniformity_but_not_origin(ellipse_fam):
    # each scale-free ratio (inradius/circumradius, min/max curvature,
    # min <x, nu>/|x|) degenerates along the family, yet it still comes out
    # of the origin
    y = np.zeros(2)
    radius, curvature, star = [], [], []
    for _, M in ellipse_fam.frames:
        rr = inner_outer_radii(M, center=y)
        radius.append(rr.rho_minus / rr.rho_plus)
        k = M.curvature_data.principal
        curvature.append(k.min() / k.max())
        x = M.vertices - y
        star.append(np.min(np.sum(x * M.curvature_data.normals, axis=1) / np.linalg.norm(x, axis=1)))
    assert min(radius) < 0.01
    assert min(curvature) < 0.01
    assert min(star) < 0.01
    assert comes_out_of_point(ellipse_fam, [0.0, 0.0], [0.5, 0.1]).passed


def test_origin_validates_inputs(sphere_fam):
    with pytest.raises(ValueError):
        comes_out_of_point(sphere_fam, [0.0, 0.0], [0.1, 0.5])
    with pytest.raises(ValueError):
        comes_out_of_point(sphere_fam, [0.0, 0.0], [0.5, -0.1])
    with pytest.raises(EmptyTrajectory):
        comes_out_of_point(Trajectory([]), [0.0, 0.0], [0.5])


@pytest.mark.parametrize("y_inf", [np.zeros(3), [math.nan, 0.0]], ids=["three components", "nan"])
def test_origin_and_audit_reject_a_centre_that_is_not_a_point(sphere_fam, y_inf):
    # these used to fail as a c_schedule broadcast error and as a trajectory
    # that does not come out of the point
    message = "^y_inf must be a finite point with 2 components"
    with pytest.raises(ValueError, match=message):
        comes_out_of_point(sphere_fam, y_inf, [0.5, 0.1])
    with pytest.raises(ValueError, match=message):
        rigidity_audit(sphere_fam, F_K, y_inf, directions=4, c_schedule=(0.4, 0.2))


@pytest.mark.parametrize("radii", [[], [0.5, math.nan], [math.nan, 0.5]])
def test_origin_rejects_empty_and_nan_radii(sphere_fam, radii):
    with pytest.raises(ValueError):
        comes_out_of_point(sphere_fam, [0.0, 0.0], radii)


# ---------------------------------------------------------------------------
# first-touch limit tables


def test_tau_table_matches_logs(sphere_fam):
    rep = tau_limit_check(sphere_fam, [1.0, 0.0], [0.5, 0.25, 0.125])
    assert rep.passed and rep.strictly_decreasing
    for c, tau in zip(rep.offsets, rep.taus):
        assert tau == pytest.approx(math.log(c), abs=1e-3)


def test_tau_directions_agree_on_spheres(sphere_fam):
    t1 = tau_limit_check(sphere_fam, [1.0, 0.0], [0.5, 0.25])
    t2 = tau_limit_check(sphere_fam, [0.0, 1.0], [0.5, 0.25])
    for a, b in zip(t1.taus, t2.taus):
        assert a == pytest.approx(b, abs=1e-6)


def test_tau_depends_on_direction_for_ellipse_family(ellipse_fam):
    tx = tau_limit_check(ellipse_fam, [1.0, 0.0], [0.1]).taus[0]
    ty = tau_limit_check(ellipse_fam, [0.0, 1.0], [0.1]).taus[0]
    assert tx == pytest.approx(math.log(0.1), abs=1e-2)       # long axis e^t
    assert ty == pytest.approx(math.log(0.1) / 2.0, abs=1e-2)  # short axis e^{2t}
    assert tx < ty  # the long axis touches first


def test_tau_never_touches_recorded(sphere_fam):
    rep = tau_limit_check(sphere_fam, [1.0, 0.0], [2.0, 0.5])
    assert rep.taus[0] is None
    assert not rep.passed


# ---------------------------------------------------------------------------
# the rigidity audit


def test_positive_control_sphere_family():
    fam = families.exponential_sphere_family(-6.0, 0.0, 0.01, n=1, resolution=256)
    report = rigidity_audit(fam, F_K, [0.0, 0.0], directions=8, c_schedule=(0.4, 0.2, 0.1))
    assert report.overall
    assert report.R_star == pytest.approx(1.0, abs=1e-3)
    for row in report.tau_table:
        assert row["tau"] == pytest.approx(math.log(row["c"]), abs=1e-3)
    assert all(r["passed"] for r in report.post_touch_verdicts)
    assert all(r["spherical"] for r in report.limit_symmetry)
    assert report.limit_symmetry[-1]["deviation"] < 1e-6


def test_negative_control_ellipse_family(ellipse_fam):
    report = rigidity_audit(ellipse_fam, F_K, [0.0, 0.0], directions=8, c_schedule=(0.4, 0.2, 0.1))
    assert not report.overall
    fails = [r for r in report.limit_symmetry if not r["spherical"]]
    assert fails, "expected sphericity failures on the eccentric frames"
    assert fails[0]["witness_direction"] is not None
    assert report.residual.overall_max > 0.1
    assert "residual" in report.narrative


def test_audit_tau_table_is_the_tau_limit_check_of_each_direction():
    # off-center family: each direction's offsets shift by V . y_inf, a height
    # that the audit takes from _heights as every other plane height
    center = np.array([0.3, 0.2])
    fam = families.exponential_sphere_family(-6.0, 0.0, 0.02, n=1, resolution=128, center=center)
    dirs = np.array([[1.0, 0.0], [0.0, 1.0], [-0.6, 0.8]])
    cs = (0.4, 0.2, 0.1)
    report = rigidity_audit(fam, F_K, center, directions=dirs, c_schedule=cs)
    assert report.overall
    for k, V in enumerate(dirs):
        rows = report.tau_table[k * len(cs):(k + 1) * len(cs)]
        taus = tau_limit_check(fam, V, [c + float(_heights(center, V)) for c in cs]).taus
        assert [row["tau"] for row in rows] == list(taus)
        assert [row["c"] for row in rows] == list(cs)


def test_audit_rejects_repeated_offsets(sphere_fam):
    with pytest.raises(ValueError):
        rigidity_audit(sphere_fam, F_K, [0.0, 0.0], directions=4, c_schedule=(0.4, 0.2, 0.2))


def test_audit_rejects_an_increasing_schedule(sphere_fam):
    # the schedule's order is the caller's; the audit does not sort it
    with pytest.raises(ValueError):
        rigidity_audit(sphere_fam, F_K, [0.0, 0.0], directions=4, c_schedule=(0.2, 0.4))


def test_audit_rejects_non_unit_directions():
    # planes sit at c + V . y_inf, which needs unit V; three times the axes
    # used to fail this family with touch times far from log c
    fam = families.exponential_sphere_family(-6.0, 0.0, 0.02, n=1, resolution=128, center=(0.3, 0.2))
    assert rigidity_audit(fam, F_K, [0.3, 0.2], directions=np.eye(2), c_schedule=(0.4, 0.2)).overall
    with pytest.raises(ValueError, match="unit"):
        rigidity_audit(fam, F_K, [0.3, 0.2], directions=3.0 * np.eye(2), c_schedule=(0.4, 0.2))


def test_audit_rejects_directions_of_the_wrong_length(sphere_fam):
    rows = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    with pytest.raises(ValueError, match="^directions have 3 components, but the surface lies in 2 dimensions$"):
        rigidity_audit(sphere_fam, F_K, [0.0, 0.0], directions=rows, c_schedule=(0.4, 0.2))


@pytest.mark.parametrize("error,typed", [(InsufficientFrames("correspondence broken"), True),
                                         (TypeError("a bug in the residual"), False)])
def test_audit_reports_typed_residual_failures_and_raises_bugs(monkeypatch, error, typed):
    def failing_residual(traj, F):
        raise error

    monkeypatch.setattr(rigidity, "flow_residual", failing_residual)
    fam = families.exponential_sphere_family(-2.0, 0.0, 0.05, n=1, resolution=64)
    audit = lambda: rigidity_audit(fam, F_K, [0.0, 0.0], directions=4, c_schedule=(0.4, 0.2))
    if typed:
        report = audit()
        assert report.residual is None
        assert f"residual unavailable ({error})" in report.narrative
    else:
        with pytest.raises(TypeError, match="a bug"):
            audit()


def test_audit_precondition_failure(ellipse_fam):
    with pytest.raises(PreconditionFailed):
        rigidity_audit(ellipse_fam, F_K, [1.0, 0.0], directions=4, c_schedule=(0.2, 0.1))


def test_audit_precondition_fails_when_the_last_frame_drifts_off_the_point():
    # 64-gons of radius e^t come out of the origin, but for t > -1 their
    # centre moves to (3 e^t, 0), and the last one does not contain the origin
    template = shapes.circle_polygon(1.0, 64)
    frames = []
    for t in np.arange(-6.0, 0.25, 0.5).tolist():
        shift = np.array([3.0 * math.exp(t), 0.0]) if t > -1.0 else np.zeros(2)
        frames.append((t, template.with_vertices(math.exp(t) * template.vertices + shift)))
    message = r"^the last frame, at t = 0\.0, does not contain the candidate point \[0\.0, 0\.0\]$"
    with pytest.raises(PreconditionFailed, match=message):
        rigidity_audit(Trajectory(frames=frames), F_K, [0.0, 0.0], directions=4, c_schedule=(0.2, 0.1))


def test_audit_rejects_offsets_beyond_inscribed_radius():
    fam = families.exponential_sphere_family(-4.0, 0.0, 0.02, n=1, resolution=128)
    with pytest.raises(ValueError):
        rigidity_audit(fam, F_K, [0.0, 0.0], directions=4, c_schedule=(1.5, 0.2))


def test_audit_soundness_contract():
    # by the moving-plane lemma, a body that reflects into itself across
    # every plane at offset >= c from y has rho_plus - rho_minus <= 2c about
    # y; a passing audit holds each frame after the touch times at the
    # smallest offset to that bound, and the vertex-radius spread it reads
    # is at most rho_plus - rho_minus
    fam = families.exponential_sphere_family(-6.0, 0.0, 0.02, n=1, resolution=128)
    report = rigidity_audit(fam, F_K, [0.0, 0.0], directions=4, c_schedule=(0.4, 0.2, 0.1))
    assert report.overall
    bound = 2.0 * 0.1
    assert all(row["spread"] <= bound for row in report.limit_symmetry)
    final = fam.frames[-1][1]
    radii = inner_outer_radii(final, center=[0.0, 0.0])
    assert report.limit_symmetry[-1]["spread"] <= radii.rho_plus - radii.rho_minus + 1e-15
    assert radii.rho_plus - radii.rho_minus <= bound
    from hyperflow.hypersurface import chebyshev_center

    r = np.linalg.norm(final.vertices - chebyshev_center(final), axis=1)
    assert r.max() - r.min() <= bound


def test_sphericity_frames_start_at_the_latest_touch_at_the_smallest_offset(sphere_fam):
    cs = (0.4, 0.2, 0.1, 0.05)
    report = rigidity_audit(sphere_fam, F_K, [0.0, 0.0], directions=16, c_schedule=cs)
    late = max(row["tau"] for row in report.tau_table if row["c"] == cs[-1])
    times = sphere_fam.times()
    first = int(np.searchsorted(times, late))
    rows = report.limit_symmetry
    assert len(rows) == SYMMETRY_FRAMES
    assert rows[0]["t"] == times[first] and times[first - 1] < late
    assert rows[-1]["t"] == times[-1]
    assert all(row["spherical"] and row["center_inside"] for row in rows)


def test_audit_on_numerically_evolved_trajectory():
    # grow a small circle two e-folds, then audit the produced trajectory
    traj = evolve(
        shapes.circle_polygon(0.05, 128), F_K, -3.0, FlowConfig(t_end=0.0, dt=5e-3, frame_interval=0.05)
    )
    report = rigidity_audit(traj, F_K, [0.0, 0.0], directions=8, c_schedule=(0.4, 0.2, 0.1))
    assert report.overall
    assert report.residual.overall_max <= 10.0 * 5e-3


def test_audit_passes_an_evolved_ellipse():
    # a 2:1 ellipse of diameter 0.04 evolved under 1/k from t = -5.1, audited
    # about its first centroid; its first frames are far from round, but the
    # frames after the touch times are round within 2 min(c)
    traj = evolve(shapes.ellipse_polygon(0.02, 0.01, 128), F_K, -5.1, FlowConfig(t_end=0.0))
    y = traj.frames[0][1].vertices.mean(axis=0)
    report = rigidity_audit(traj, F_K, y, directions=16, c_schedule=(0.4, 0.2, 0.1, 0.05))
    assert report.overall
    assert all(row["passed"] for row in report.post_touch_verdicts)
    assert max(row["spread"] for row in report.limit_symmetry) < 1e-3
    assert report.limit_symmetry[-1]["deviation"] < 1e-6


@pytest.mark.parametrize("d", [0.02, 0.04, 0.045])
def test_audit_passes_circles_that_come_out_of_a_point_near_y(d):
    # circles of radius e^t about (d, 0) audited about y = 0: the first frames
    # do not contain y, and after the touch times the spread about y is 2d,
    # within the lemma's bound of 2 min(c) = 0.1
    fam = families.exponential_sphere_family(-6.0, 0.0, 0.01, n=1, resolution=256, center=(d, 0.0))
    report = rigidity_audit(fam, F_K, [0.0, 0.0], directions=16, c_schedule=(0.4, 0.2, 0.1, 0.05))
    assert report.overall
    assert max(row["spread"] for row in report.limit_symmetry) == pytest.approx(2.0 * d, rel=1e-9)


def test_a_late_frame_without_y_is_a_failing_row():
    # circles of radius e^t about 0, except the frame at t = -1, which is
    # moved off y; the sampled frames after the touch times include it
    times = np.arange(-6.0, 0.5, 1.0)
    frames = [(float(t), shapes.circle_polygon(math.exp(t), 64, center=(1.0 if t == -1.0 else 0.0, 0.0)))
              for t in times]
    report = rigidity_audit(Trajectory(frames=frames), F_K, [0.0, 0.0], directions=4, c_schedule=(0.4, 0.2, 0.1))
    assert not report.overall
    row = next(row for row in report.limit_symmetry if row["t"] == -1.0)
    assert not row["spherical"] and not row["center_inside"]
    assert row["witness_direction"] is not None
    assert "center outside" in report.narrative


def test_narrative_reports_the_residual_when_sphericity_passes():
    # a round family audited under k^2 passes; its residual is large and is
    # reported, not gated
    fam = families.exponential_sphere_family(-6.0, 0.0, 0.02, n=1, resolution=128)
    report = rigidity_audit(fam, speed_by_name("k^alpha", 1, 2.0), [0.0, 0.0], directions=4,
                            c_schedule=(0.4, 0.2, 0.1))
    assert report.overall
    assert report.residual.overall_max > 0.1
    assert f"max flow-law residual {report.residual.overall_max:.4g}" in report.narrative


# ---------------------------------------------------------------------------
# the frame-major post-touch stage against the per-plane full-depth loop


def _oracle_monitor(traj, plane, t_start, stride):
    """Per-plane monitoring: strict start, stride with the final frame, stop at FAILS or VACUOUS."""
    frames = [(t, m) for t, m in traj.frames if t >= t_start - 1e-12]
    first = full_depth_verdict(frames[0][1], plane)
    assert first.status is ReflectionStatus.STRICT
    picked = frames[::max(1, stride)]
    if picked[-1][0] != frames[-1][0]:
        picked.append(frames[-1])
    out = [(frames[0][0], first)]
    for t, M in picked[1:]:
        verdict = full_depth_verdict(M, plane)
        out.append((t, verdict))
        if verdict.status in (ReflectionStatus.FAILS, ReflectionStatus.VACUOUS):
            break
    return out


def _oracle_entry(traj, plane, tau):
    """Probes at tau + 1, 2, 4 spacings of the frame bracket holding tau,
    then monitoring from the first strict one."""
    times = traj.times()
    j = min(max(int(np.searchsorted(times, tau)), 1), len(times) - 1)
    spacing = times[j] - times[j - 1]
    probes = []
    start_t = None
    for k in (1, 2, 4):
        t_probe, M_probe = traj.frames[int(np.argmin(np.abs(times - (tau + k * spacing))))]
        if t_probe < tau:
            continue
        verdict = full_depth_verdict(M_probe, plane)
        probes.append({"t": t_probe, "status": verdict.status.value})
        if verdict.status is ReflectionStatus.STRICT and start_t is None:
            start_t = t_probe
    if start_t is None:
        return {
            "tau": tau,
            "probes": probes,
            "passed": False,
            "failure": "no strict verdict just above the touch time",
        }
    stride = max(1, sum(t >= start_t - 1e-12 for t, _ in traj.frames) // 32)
    verdicts = _oracle_monitor(traj, plane, start_t, stride)
    t, last = verdicts[-1]
    fail_at = None
    if last.status in (ReflectionStatus.FAILS, ReflectionStatus.VACUOUS):
        fail_at = {"t": t, "status": last.status.value, "inclusion_margin": last.inclusion_margin}
    return {
        "tau": tau,
        "probes": probes,
        "strict_from": start_t,
        "monitored_frames": len(verdicts),
        "passed": fail_at is None,
        "failure": fail_at,
    }


def _oracle_post_touch_rows(traj, y_inf, directions, cs):
    y_inf = np.asarray(y_inf, dtype=float)
    rows = []
    for V in _direction_set(traj.frames[0][1].dimension, directions):
        offsets = [c + float(_heights(y_inf, V)) for c in cs]
        for c, offset, tau in zip(cs, offsets, tau_limit_check(traj, V, offsets).taus):
            if tau is not None:
                entry = _oracle_entry(traj, Hyperplane(V=V, c=offset), tau)
                rows.append({**entry, "direction": V.tolist(), "c": c})
    return rows


def _benchmark_directions(seed, count=16):
    # the seeded direction phases of the rigidity_audit benchmark workload
    phase = np.random.default_rng(seed).uniform(0.0, 2.0 * math.pi / count)
    theta = phase + 2.0 * math.pi * np.arange(count) / count
    return np.column_stack([np.cos(theta), np.sin(theta)])


C_SCHEDULE_7 = (0.4, 0.2, 0.1, 0.05)


@pytest.fixture(scope="module")
def criterion_7_fam():
    return families.exponential_sphere_family(-6.0, 0.0, 0.01, n=1, resolution=256)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_post_touch_stage_matches_per_plane_oracle_on_criterion_7(criterion_7_fam, seed):
    dirs = _benchmark_directions(seed)
    report = rigidity_audit(criterion_7_fam, F_K, [0.0, 0.0], directions=dirs, c_schedule=C_SCHEDULE_7)
    rows = _oracle_post_touch_rows(criterion_7_fam, [0.0, 0.0], dirs, C_SCHEDULE_7)
    assert len(rows) == 64
    assert list(report.post_touch_verdicts) == rows


def test_post_touch_stage_measures_few_reflected_vertices(criterion_7_fam, monkeypatch):
    # the frames are round, so the inscribed ball certifies most images
    # inside at once; only those near the surface are measured
    counts = {"reflected": 0, "measured": 0}
    least_depths, measure = reflection._least_depths, reflection.signed_interior_distance

    def count_reflected(M, reflected, bounds):
        counts["reflected"] += reflected.shape[0]
        return least_depths(M, reflected, bounds)

    def count_measured(M, points):
        counts["measured"] += points.shape[0]
        return measure(M, points)

    monkeypatch.setattr(reflection, "_least_depths", count_reflected)
    monkeypatch.setattr(reflection, "signed_interior_distance", count_measured)
    report = rigidity_audit(criterion_7_fam, F_K, [0.0, 0.0], directions=_benchmark_directions(0), c_schedule=C_SCHEDULE_7)
    assert report.overall
    assert counts["reflected"] == 203056  # every reflected vertex of the audit
    assert counts["measured"] < 0.1 * counts["reflected"]
    assert counts["measured"] == 4816  # the other 198 240 read +inf at once


@pytest.mark.parametrize("directions", [0, -2, np.zeros((0, 2))], ids=["zero", "negative", "empty rows"])
def test_audit_needs_a_direction(directions):
    # an empty set used to pass with no tau row and no post-touch row
    fam = families.exponential_sphere_family(-3.0, 0.0, 0.05, n=1, resolution=64)
    with pytest.raises(ValueError, match="^need at least 1 direction"):
        rigidity_audit(fam, F_K, [0.0, 0.0], directions=directions, c_schedule=(0.4, 0.2))


def test_post_touch_stage_matches_per_plane_oracle_off_centre():
    center = (0.3, 0.2)
    fam = families.exponential_sphere_family(-6.0, 0.0, 0.01, n=1, resolution=256, center=center)
    report = rigidity_audit(fam, F_K, center, directions=16, c_schedule=C_SCHEDULE_7)
    assert list(report.post_touch_verdicts) == _oracle_post_touch_rows(fam, center, 16, C_SCHEDULE_7)


def test_post_touch_stage_matches_per_plane_oracle_on_criterion_8(ellipse_fam):
    report = rigidity_audit(ellipse_fam, F_K, [0.0, 0.0], directions=16, c_schedule=C_SCHEDULE_7)
    rows = _oracle_post_touch_rows(ellipse_fam, [0.0, 0.0], 16, C_SCHEDULE_7)
    assert list(report.post_touch_verdicts) == rows
    # monitoring stops early on some planes, and some find no strict probe
    assert any(row["failure"] and "monitored_frames" in row for row in rows)
    assert any(row.get("strict_from") is None for row in rows)


def test_post_touch_probes_scale_with_the_spacing_around_tau():
    # concentric 128-gons of radius 1/sqrt(-2t) on a geometric time grid: near
    # the c = 0.05 touch time (tau ~ -200) the frames lie 4.4 apart against a
    # median spacing of 0.32, so probes spaced by the median would all land
    # before tau and find no frame
    times = -np.geomspace(400.0, 0.5, 301)
    fam = families.sphere_family(times, lambda t: 1.0 / math.sqrt(-2.0 * t), resolution=128)
    report = rigidity_audit(fam, F_K, [0.0, 0.0], directions=16, c_schedule=C_SCHEDULE_7)
    rows = list(report.post_touch_verdicts)
    assert len(rows) == 64
    assert all(row["probes"] and row["passed"] for row in rows)
    assert rows == _oracle_post_touch_rows(fam, [0.0, 0.0], 16, C_SCHEDULE_7)


def test_post_touch_stage_matches_per_plane_oracle_on_coarse_icosphere():
    times = -4.0 + 0.05 * np.arange(81)
    fam = families.sphere_family(times, math.exp, n=2, resolution=2)
    cs = (0.4, 0.2, 0.1)
    report = rigidity_audit(fam, speed_by_name("H", 2), np.zeros(3), directions=6, c_schedule=cs)
    rows = _oracle_post_touch_rows(fam, np.zeros(3), 6, cs)
    assert list(report.post_touch_verdicts) == rows
    assert any(row["failure"] and row["failure"]["status"] == "fails" for row in rows)


@pytest.mark.parametrize("case", ["criterion 7", "criterion 8", "coarse icosphere"])
def test_the_audit_makes_one_verdict_call_per_frame(criterion_7_fam, ellipse_fam, case, monkeypatch):
    # probes and monitoring share one walk over the frames: the planes due at
    # a frame share one call, and no plane is judged twice at a frame
    F, y, cs = F_K, np.zeros(2), C_SCHEDULE_7
    if case == "criterion 7":
        traj, directions = criterion_7_fam, _benchmark_directions(0)
    elif case == "criterion 8":
        traj, directions = ellipse_fam, 16
    else:
        traj = families.sphere_family(-4.0 + 0.05 * np.arange(81), math.exp, n=2, resolution=2)
        F, y, directions, cs = speed_by_name("H", 2), np.zeros(3), 6, (0.4, 0.2, 0.1)
    calls = []
    verdicts = reflection._verdicts

    def logged(M, planes, tol=None):
        calls.append([(id(M), plane.V.tobytes(), plane.c) for plane in planes])
        return verdicts(M, planes, tol)

    monkeypatch.setattr(reflection, "_verdicts", logged)
    rigidity_audit(traj, F, y, directions=directions, c_schedule=cs)
    checks = [check for call in calls for check in call]
    assert len(calls) == len({call[0][0] for call in calls})
    assert len(checks) == len(set(checks))


# ---------------------------------------------------------------------------
# ancient flows


def test_backward_extension_of_ancient_flow_has_no_birth_time():
    # evolved round trajectory plus the exact backward sphere extension:
    # an ancient speed admits no finite starting time
    traj = evolve(shapes.circle_polygon(1.0, 64), F_K, 0.0, FlowConfig(t_end=0.2, dt=5e-3))
    assert comes_out_of_point(
        families.exponential_sphere_family(-20.0, 0.0, 0.1, n=1, resolution=64),
        [0.0, 0.0],
        [0.5, 0.01, 1e-4],
    ).passed
    assert initial_time_estimate(F_K, 1.0, 0.0) == -math.inf
    assert traj.frames[-1][0] == pytest.approx(0.2)
