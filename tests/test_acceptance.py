"""End-to-end acceptance checks, one test per criterion, at fixed tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line per
criterion.  Heavy runs are shared through module-scoped fixtures.
"""

import math
import time

import numpy as np
import pytest

from hyperflow.cli import EXIT_AUDIT, main as cli_main
from hyperflow.flow_engine import FlowConfig, evolve, flow_residual
from hyperflow.hypersurface import (
    INSIDE_CODE,
    classify_points,
    enclosed_volume,
    inner_outer_radii,
)
from hyperflow.reflection import (
    Hyperplane,
    ReflectionStatus,
    first_touch_time,
    strict_reflection_check,
)
from hyperflow.rigidity import comes_out_of_point, rigidity_audit
from hyperflow import families, shapes
from hyperflow.sphere_ode import initial_time_estimate, is_ancient
from hyperflow.speeds import mean_curvature, mean_curvature_power
import oracles


def _report(number, text):
    print(f"\ncriterion {number}: PASS - {text}")


@pytest.fixture(scope="module")
def ellipse_flow():
    """Ellipse (2,1) under 1/k to t = 1 with frames every 0.01."""
    M0 = shapes.ellipse_polygon(2.0, 1.0, 256)
    return evolve(M0, mean_curvature(1), 0.0, FlowConfig(t_end=1.0, dt=1e-3))


@pytest.fixture(scope="module")
def nested_flows():
    cfg = FlowConfig(t_end=1.0, dt=1e-3)
    inner = evolve(shapes.circle_polygon(0.5, 256), mean_curvature(1), 0.0, cfg)
    outer = evolve(shapes.ellipse_polygon(2.0, 1.0, 256), mean_curvature(1), 0.0, cfg)
    return inner, outer


def test_criterion_1_sphere_ode_exactness_curves():
    start = time.perf_counter()
    traj = evolve(
        shapes.circle_polygon(1.0, 256), mean_curvature(1), 0.0, FlowConfig(t_end=1.0, dt=1e-3)
    )
    elapsed = time.perf_counter() - start
    radii = np.linalg.norm(traj.frames[-1][1].vertices, axis=1)
    rel_err = abs(radii.mean() - math.e) / math.e
    spread = radii.max() - radii.min()
    assert rel_err < 1e-2, f"mean radius off by {rel_err}"
    assert spread < 1e-3, f"radius spread {spread}"
    assert elapsed < 10.0, f"runtime {elapsed:.1f}s"
    _report(1, f"256-gon under 1/k: radius error {rel_err:.2e}, spread {spread:.2e}, {elapsed:.1f}s")


def test_criterion_2_sphere_ode_exactness_surfaces():
    start = time.perf_counter()
    traj = evolve(
        shapes.icosphere(1.0, 4), mean_curvature(2), 0.0, FlowConfig(t_end=0.5, dt=1e-3)
    )
    elapsed = time.perf_counter() - start
    M = traj.frames[-1][1]
    assert M.num_vertices == 2562
    radii = np.linalg.norm(M.vertices, axis=1)
    rel_err = abs(radii.mean() - math.exp(0.25)) / math.exp(0.25)
    assert rel_err < 0.02, f"mean radius off by {rel_err}"
    assert elapsed < 60.0, f"runtime {elapsed:.1f}s"
    _report(2, f"2562-vertex icosphere under 1/H: radius error {rel_err:.2e}, {elapsed:.1f}s")


def test_criterion_3_ancientness_classification():
    verdicts = [is_ancient(mean_curvature_power(2, a)).verdict for a in (0.5, 1.0, 2.0)]
    assert verdicts == ["non_ancient", "ancient", "ancient"]
    T0 = initial_time_estimate(mean_curvature_power(1, 0.5), 1.0, 0.0)
    assert T0 == pytest.approx(-2.0, abs=1e-3)
    _report(3, f"H^alpha verdicts {verdicts}, sqrt-speed birth time {T0:.6f}")


def test_criterion_4_reflection_preservation(ellipse_flow):
    plane = Hyperplane(V=np.array([1.0, 0.0]), c=0.2)
    idx = np.linspace(0, len(ellipse_flow.frames) - 1, 100).astype(int)
    assert idx[0] == 0  # includes t = 0
    statuses = []
    for i in idx:
        v = strict_reflection_check(ellipse_flow.frames[int(i)][1], plane)
        statuses.append(v.status)
    assert all(s is ReflectionStatus.STRICT for s in statuses), set(statuses)
    _report(4, "ellipse under 1/k strictly reflects at x = 0.2 on all 100 sampled frames")


def test_criterion_5_comparison_principle(nested_flows):
    inner, outer = nested_flows
    t_in = np.round(inner.times(), 9)
    t_out = np.round(outer.times(), 9)
    shared = np.intersect1d(t_in, t_out)
    assert shared.shape[0] >= 100
    idx = np.linspace(0, shared.shape[0] - 1, 100).astype(int)
    violations = 0
    for i in idx:
        t = shared[int(i)]
        Mi = inner.frames[int(np.argmin(np.abs(inner.times() - t)))][1]
        Mo = outer.frames[int(np.argmin(np.abs(outer.times() - t)))][1]
        violations += int(np.sum(classify_points(Mo, Mi.vertices) != INSIDE_CODE))
    assert violations == 0
    _report(5, "inner circle stayed inside the outer ellipse at all 100 shared times")


def test_criterion_6_roundness_improvement(ellipse_flow):
    ratios = []
    for t in (0.0, 0.5, 1.0):
        M = ellipse_flow.frames[int(np.argmin(np.abs(ellipse_flow.times() - t)))][1]
        ratios.append(inner_outer_radii(M, center=oracles.chebyshev_center(M)).ratio)
    assert ratios[0] - ratios[1] > 1e-3
    assert ratios[1] - ratios[2] > 1e-3
    _report(6, f"outer/inner radius ratio fell {ratios[0]:.4f} -> {ratios[1]:.4f} -> {ratios[2]:.4f}")


def test_criterion_7_rigidity_audit_positive_control():
    fam = families.exponential_sphere_family(-6.0, 0.0, 0.01, n=1, resolution=256)
    report = rigidity_audit(
        fam,
        mean_curvature(1),
        [0.0, 0.0],
        directions=16,
        c_schedule=(0.4, 0.2, 0.1, 0.05),
    )
    assert report.overall
    tau_err = max(abs(row["tau"] - math.log(row["c"])) for row in report.tau_table)
    assert tau_err < 1e-3
    final_dev = report.limit_symmetry[-1]["deviation"]
    assert final_dev < 1e-6
    _report(7, f"expanding sphere family passes; max tau error {tau_err:.2e}, final deviation {final_dev:.2e}")


def test_criterion_8_rigidity_audit_negative_control(tmp_path):
    times = -6.0 + 0.01 * np.arange(601)
    fam = families.ellipsoid_family(times, rates=(1.0, 2.0), n=1, resolution=256)
    F = mean_curvature(1)

    origin = comes_out_of_point(fam, [0.0, 0.0], [0.4, 0.2, 0.1, 0.05])
    assert origin.passed

    residual = flow_residual(fam, F)
    assert residual.overall_max > 0.1

    report = rigidity_audit(fam, F, [0.0, 0.0], directions=16, c_schedule=(0.4, 0.2, 0.1, 0.05))
    assert not report.overall
    fails = [r for r in report.limit_symmetry if not r["spherical"]]
    assert fails and fails[0]["witness_direction"] is not None

    exit_code = cli_main(
        [
            "rigidity-audit", "--out", str(tmp_path / "ell"),
            "--set", "family=ellipse", "--set", "t0=-6", "--set", "t_end=0",
            "--set", "frame_dt=0.01", "--set", "directions=16",
            "--set", "c_schedule=0.4,0.2,0.1,0.05",
        ]
    )
    assert exit_code == EXIT_AUDIT
    _report(
        8,
        f"eccentric family: origin ok, residual {residual.overall_max:.3f} > 0.1, "
        f"sphericity witness {fails[0]['witness_direction']}, exit code {exit_code}",
    )


def test_criterion_9_invariant_suites(ellipse_flow, nested_flows):
    # reflection involution at 1e-12
    rng = np.random.default_rng(11)
    pts = rng.normal(size=(256, 2)) * 3.0
    for _ in range(16):
        v = rng.normal(size=2)
        plane = Hyperplane(V=v / np.linalg.norm(v), c=float(rng.normal()))
        assert np.abs(plane.reflect(plane.reflect(pts)) - pts).max() < 1e-12

    # first-touch times non-decreasing in the offset
    fam = families.exponential_sphere_family(-4.0, 0.0, 0.02, n=1, resolution=128)
    taus = [first_touch_time(fam, Hyperplane(V=np.array([1.0, 0.0]), c=c)) for c in (0.05, 0.1, 0.2, 0.4)]
    assert all(b > a for a, b in zip(taus, taus[1:]))

    # expansiveness of produced trajectories on sampled frame pairs
    for traj in (ellipse_flow, *nested_flows):
        frames = traj.frames
        picks = [(0, len(frames) - 1), (0, len(frames) // 2), (len(frames) // 3, 2 * len(frames) // 3)]
        for i, j in picks:
            codes = classify_points(frames[j][1], frames[i][1].vertices)
            assert np.all(codes == INSIDE_CODE)

    # enclosed volume strictly increases along every produced trajectory
    for traj in (ellipse_flow, *nested_flows):
        vols = [enclosed_volume(m) for _, m in traj.frames]
        assert all(b > a for a, b in zip(vols, vols[1:]))

    # curvature estimator convergence under resolution doubling: the circle
    # is reproduced exactly (error at the rounding floor beats any ratio),
    # and a mildly eccentric ellipse shows the genuine second-order ratio
    for m in (64, 128):
        circle_err = np.abs(shapes.circle_polygon(1.0, m).curvature_data.principal - 1.0).max()
        assert circle_err < 1e-12
    errs = []
    for m in (64, 128):
        M = shapes.ellipse_polygon(1.2, 1.0, m)
        theta = 2.0 * np.pi * np.arange(m) / m
        exact = 1.2 / (1.2**2 * np.sin(theta) ** 2 + np.cos(theta) ** 2) ** 1.5
        errs.append(np.abs(M.curvature_data.principal[:, 0] - exact).max())
    assert errs[0] / errs[1] >= 3.0

    _report(
        9,
        f"involution, touch monotonicity, expansiveness, volume growth, "
        f"estimator convergence ratio {errs[0] / errs[1]:.2f}",
    )
