import math

import numpy as np
import pytest

from hyperflow.errors import EmptyTrajectory, NotApplicable, PreconditionFailed
from hyperflow.flow_engine import FlowConfig, Trajectory, evolve
from hyperflow.rigidity import (
    ancient_nonexistence_check,
    comes_out_of_point,
    pinching_diagnostics,
    rigidity_audit,
    tau_limit_check,
)
from hyperflow import families, shapes
from hyperflow.sphere_ode import initial_time_estimate
from hyperflow.speeds import mean_curvature, mean_curvature_power

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


def test_origin_validates_inputs(sphere_fam):
    with pytest.raises(ValueError):
        comes_out_of_point(sphere_fam, [0.0, 0.0], [0.1, 0.5])
    with pytest.raises(ValueError):
        comes_out_of_point(sphere_fam, [0.0, 0.0], [0.5, -0.1])
    with pytest.raises(EmptyTrajectory):
        comes_out_of_point(Trajectory([], 0.0, 0.0), [0.0, 0.0], [0.5])


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


def test_audit_precondition_failure(ellipse_fam):
    with pytest.raises(PreconditionFailed):
        rigidity_audit(ellipse_fam, F_K, [1.0, 0.0], directions=4, c_schedule=(0.2, 0.1))


def test_audit_rejects_offsets_beyond_inscribed_radius():
    fam = families.exponential_sphere_family(-4.0, 0.0, 0.02, n=1, resolution=128)
    with pytest.raises(ValueError):
        rigidity_audit(fam, F_K, [0.0, 0.0], directions=4, c_schedule=(1.5, 0.2))


def test_audit_soundness_contract():
    # a passing audit implies the final frame is round within the coupled
    # tolerance (5x the smallest audited offset by default), measured both
    # at the audited origin and at the searched deepest interior point
    fam = families.exponential_sphere_family(-6.0, 0.0, 0.02, n=1, resolution=128)
    report = rigidity_audit(fam, F_K, [0.0, 0.0], directions=4, c_schedule=(0.4, 0.2, 0.1))
    assert report.overall
    threshold = 5.0 * 0.1
    assert report.limit_symmetry[-1]["deviation"] < threshold
    from hyperflow.hypersurface import chebyshev_center

    final = fam.frames[-1][1]
    r = np.linalg.norm(final.vertices - chebyshev_center(final), axis=1)
    assert (r.max() - r.min()) / r.mean() < threshold


def test_audit_on_numerically_evolved_trajectory():
    # grow a small circle two e-folds, then audit the produced trajectory
    traj = evolve(
        shapes.circle_polygon(0.05, 128), F_K, -3.0, FlowConfig(t_end=0.0, dt=5e-3, frame_interval=0.05)
    )
    report = rigidity_audit(
        traj, F_K, [0.0, 0.0], directions=8, c_schedule=(0.4, 0.2, 0.1), symmetry_tol=1e-3
    )
    assert report.overall
    assert report.residual.overall_max <= 10.0 * 5e-3


# ---------------------------------------------------------------------------
# comparison argument against claimed ancient trajectories


def _clamped_parabola_family(t_lo):
    times = t_lo + 0.05 * np.arange(int(round((0.0 - t_lo) / 0.05)) + 1)
    return families.sphere_family(
        times, lambda t: max((1.0 + t / 2.0) ** 2, 2.5e-3), n=1, resolution=256
    )


def test_fake_ancient_trajectory_contradicted():
    F = mean_curvature_power(1, 0.5)  # round solutions born at finite time
    fake = _clamped_parabola_family(-3.0)
    out = ancient_nonexistence_check(F, fake)
    assert out.contradiction
    w = out.witness
    assert w["T_S"] == pytest.approx(-2.0, abs=1e-3)
    assert w["comparison_radius_final"] > w["rho_minus_final"]
    assert w["enclosure_break"] is not None


def test_honest_trajectory_consistent():
    F = mean_curvature_power(1, 0.5)
    honest = _clamped_parabola_family(-1.9)  # never claims frames at the birth time
    assert ancient_nonexistence_check(F, honest).status == "consistent"


def test_not_applicable_for_ancient_speeds(sphere_fam):
    with pytest.raises(NotApplicable):
        ancient_nonexistence_check(F_K, sphere_fam)


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


# ---------------------------------------------------------------------------
# pinching diagnostics


def test_sphere_family_ratios_are_unity(sphere_fam):
    rep = pinching_diagnostics(sphere_fam, [0.0, 0.0])
    assert rep.inf_radius_ratio == pytest.approx(1.0, abs=1e-3)
    assert rep.inf_curvature_ratio == pytest.approx(1.0, abs=1e-6)
    assert rep.inf_starshapedness == pytest.approx(1.0, abs=1e-6)
    assert rep.uniform_radius and rep.uniform_curvature and rep.uniform_starshapedness
    assert rep.origin_check is not None and rep.origin_check.passed


def test_scaled_ellipse_family_has_constant_ratios():
    times = -3.0 + 0.1 * np.arange(31)
    template = shapes.ellipse_polygon(2.0, 1.0, 256)
    frames = [(float(t), template.with_vertices(template.vertices * math.exp(t))) for t in times]
    fam = Trajectory(frames=frames, t0=float(times[0]), t1=float(times[-1]))
    rep = pinching_diagnostics(fam, [0.0, 0.0])
    # scale-invariant ratios of the fixed shape: 1/2, (b/a)^3 = 1/8, 4/5
    assert rep.inf_radius_ratio == pytest.approx(0.5, abs=2e-3)
    assert rep.inf_curvature_ratio == pytest.approx(0.125, rel=0.03)
    assert rep.inf_starshapedness == pytest.approx(0.8, rel=1e-3)
    assert rep.uniform_radius and rep.uniform_curvature and rep.uniform_starshapedness
    assert rep.origin_check is not None and rep.origin_check.passed


def test_eccentric_family_fails_uniformity_but_not_origin(ellipse_fam):
    rep = pinching_diagnostics(ellipse_fam, [0.0, 0.0])
    assert not rep.uniform_radius
    assert not rep.uniform_curvature
    assert not rep.uniform_starshapedness
    assert comes_out_of_point(ellipse_fam, [0.0, 0.0], [0.5, 0.1]).passed
