import dataclasses
import math
import re
import time
from functools import cached_property, partial

import numpy as np
import pytest

from hyperflow.errors import (
    ConeExit,
    DegenerateElement,
    EmptyTrajectory,
    InsufficientFrames,
    MeshDegeneracy,
    NonFiniteState,
    NonPositiveSpeed,
)
from hyperflow.flow_engine import (
    FlowConfig,
    Trajectory,
    _accept,
    _stage_surface,
    _substep,
    _velocity,
    evolve,
    flow_residual,
    stable_substep,
)
from hyperflow.hypersurface import (
    INSIDE_CODE,
    DiscreteHypersurface,
    classify_points,
    enclosed_volume,
)
from hyperflow import families, flow_engine, hypersurface, shapes
from hyperflow.speeds import Cone, mean_curvature
import oracles


F_K = mean_curvature(1)
F_H = mean_curvature(2)


def radii(M, center=None):
    c = np.zeros(M.vertices.shape[1]) if center is None else np.asarray(center)
    return np.linalg.norm(M.vertices - c, axis=1)


# ---------------------------------------------------------------------------
# single steps


def one_step(M, F, dt):
    """The surface after one requested step of ``evolve``."""
    return evolve(M, F, 0.0, FlowConfig(t_end=dt, dt=dt)).frames[-1][1]


def test_step_circle_matches_radius_ode():
    M = one_step(shapes.circle_polygon(1.0, 256), F_K, 0.01)
    assert np.abs(radii(M) - math.exp(0.01)).max() < 1e-4


def test_step_icosphere_matches_radius_ode():
    M = one_step(shapes.icosphere(1.0, 4), F_H, 0.01)
    assert np.abs(radii(M) - math.exp(0.005)).max() < 1e-3


@pytest.mark.parametrize("n", [1, 2])
def test_step_increases_enclosed_volume(n):
    convex = shapes.ellipse_polygon(1.5, 1.0, 128) if n == 1 else shapes.ellipsoid_mesh(1.3, 1.0, 1.1, 2)
    for F in oracles.catalog(n):
        out = one_step(convex, F, 1e-3)
        assert enclosed_volume(out) > enclosed_volume(convex)


def test_step_rejects_nonconvex_for_positive_cone():
    with pytest.raises(ConeExit):
        _velocity(oracles.peanut_polygon(128), F_K)


def test_step_and_evolve_stop_at_the_edge_floor():
    # a 64-gon with one extra vertex 1e-13 along the circle: that edge sits
    # below the floor of 1e-12 bbox diagonals, and a tiny Euler update keeps it there
    th = np.sort(np.append(2.0 * np.pi * np.arange(64) / 64, 1e-13))
    M = DiscreteHypersurface(np.column_stack([np.cos(th), np.sin(th)]))
    with pytest.raises(MeshDegeneracy, match="quality floor"):
        _accept(M, M.vertices + 1e-20 * _velocity(M, F_K)[0])
    with pytest.raises(MeshDegeneracy, match="quality floor"):
        evolve(M, F_K, 0.0, FlowConfig(t_end=0.01, dt=1e-3))


@pytest.mark.parametrize("dt", [1e-3, None], ids=["fixed dt", "cfl"])
def test_the_speed_is_evaluated_once_per_stage(monkeypatch, dt):
    # stable_substep reads the values of the step's first stage; each
    # requested step used to evaluate F once more on its start snapshot
    evaluations, stages = [], []

    def fn(lam):
        evaluations.append(lam.shape[0])
        return F_K.fn(lam)

    def counting_velocity(M, F):
        stages.append(M)
        return velocity(M, F)

    velocity = flow_engine._velocity
    monkeypatch.setattr(flow_engine, "_velocity", counting_velocity)
    evolve(shapes.circle_polygon(1.0, 64), dataclasses.replace(F_K, fn=fn), 0.0, FlowConfig(t_end=0.01, dt=dt))
    assert len(evaluations) == len(stages) > 0
    if dt is not None:
        assert len(stages) == 40  # ten RK4 steps


def test_the_stage_ceiling_bounds_the_first_step_on_the_edge_floor(monkeypatch):
    # the 1e-13 edge makes stiffness * dt about 1e23: the step splits into
    # steps of at most RKC_MAX_STAGES stages, and the first one meets the floor
    th = np.sort(np.append(2.0 * np.pi * np.arange(64) / 64, 1e-13))
    M = DiscreteHypersurface(np.column_stack([np.cos(th), np.sin(th)]))
    calls = []

    def counting_velocity(M, F):
        calls.append(M)
        return _velocity(M, F)

    monkeypatch.setattr(flow_engine, "_velocity", counting_velocity)
    with pytest.raises(MeshDegeneracy, match="quality floor"):
        evolve(M, F_K, 0.0, FlowConfig(t_end=0.01, dt=1e-3))
    assert 1 <= len(calls) <= flow_engine.RKC_MAX_STAGES


def test_the_step_guard_stops_a_runaway_step_count_at_once():
    # a 1e-10 edge sits above the floor, and dt = 1e-3 is 1.8e17 stable RK4
    # steps: about 1.9e14 RKC steps of 64 stages, whose velocity evaluations
    # are far past MAX_EVALUATIONS
    th = np.sort(np.append(2.0 * np.pi * np.arange(64) / 64, 1e-10))
    M = DiscreteHypersurface(np.column_stack([np.cos(th), np.sin(th)]))
    start = time.perf_counter()
    with pytest.raises(MeshDegeneracy, match="max step count exceeded"):
        evolve(M, F_K, 0.0, FlowConfig(t_end=0.01, dt=1e-3))
    assert time.perf_counter() - start < 1.0


def test_the_step_guard_counts_evaluations():
    # a 1e-6 edge plans 1,889,129 RKC steps of 64 stages for dt = 1e-3: fewer
    # steps than MAX_EVALUATIONS, but 1.2e8 velocity evaluations
    th = np.sort(np.append(2.0 * np.pi * np.arange(64) / 64, 1e-6))
    M = DiscreteHypersurface(np.column_stack([np.cos(th), np.sin(th)]))
    assert flow_engine._rkc_plan(1e-3 / stable_substep(M, F_K))[0] < flow_engine.MAX_EVALUATIONS
    start = time.perf_counter()
    with pytest.raises(MeshDegeneracy, match="max step count exceeded"):
        evolve(M, F_K, 0.0, FlowConfig(t_end=0.01, dt=1e-3))
    assert time.perf_counter() - start < 1.0


def test_step_rejects_nonpositive_dt():
    with pytest.raises(ValueError, match="dt must be positive"):
        FlowConfig(t_end=1.0, dt=0.0)


# ---------------------------------------------------------------------------
# trajectories


def test_evolve_circle_hits_closed_form():
    traj = evolve(shapes.circle_polygon(1.0, 64), F_K, 0.0, FlowConfig(t_end=1.0, dt=1e-2))
    r = radii(traj.frames[-1][1])
    assert abs(r.mean() - math.e) / math.e < 0.01
    assert r.max() - r.min() < 1e-3 * r.mean()


def _element_measures(M):
    """Edge lengths of a curve, face areas of a mesh."""
    if M.dimension == 1:
        return M.edge_lengths
    a, b, c = (M.vertices[M.faces[:, k]] for k in range(3))
    return 0.5 * np.linalg.norm(np.cross(b - a, c - a), axis=1)


@pytest.mark.parametrize("case", ["3:1 ellipse 128-gon, 1/k", "ellipsoid s4, 1/H"])
def test_fixed_connectivity_keeps_its_relative_resolution(case):
    # under 1/k and 1/H an arc or area element grows at rate H/F = 1, so every
    # element grows by e^t and a fixed vertex count keeps its relative
    # resolution.  In R^3 the edges shear as the surface rounds, so the
    # element is the face; its growth error falls at second order in the mesh
    # size (4.1 % at s3, 1.2 % at s4)
    M0, F, t_end, dt = {
        "3:1 ellipse 128-gon, 1/k": (shapes.ellipse_polygon(3.0, 1.0, 128), F_K, 2.0, 1e-2),
        "ellipsoid s4, 1/H": (shapes.ellipsoid_mesh(1.0, 1.3, 0.7, 4), F_H, 1.0, 5e-2),
    }[case]
    M = evolve(M0, F, 0.0, FlowConfig(t_end=t_end, dt=dt, frame_interval=t_end)).frames[-1][1]
    growth = _element_measures(M) / _element_measures(M0)
    assert np.abs(growth / math.exp(t_end) - 1.0).max() < 0.02
    assert M.edge_lengths.max() / M.edge_lengths.min() <= M0.edge_lengths.max() / M0.edge_lengths.min()


def test_frames_follow_requested_cadence():
    traj = evolve(shapes.circle_polygon(1.0, 64), F_K, 0.0, FlowConfig(t_end=0.2, dt=1e-3))
    times = traj.times()
    assert times[0] == 0.0
    assert times[-1] == pytest.approx(0.2, abs=1e-12)
    assert np.diff(times) == pytest.approx(0.01, abs=1e-9)


def test_expansiveness_on_sampled_frame_pairs():
    traj = evolve(shapes.ellipse_polygon(2.0, 1.0, 128), F_K, 0.0, FlowConfig(t_end=0.3, dt=2e-3))
    frames = traj.frames
    picks = [(0, len(frames) - 1), (0, len(frames) // 2), (len(frames) // 2, len(frames) - 1)]
    for i, j in picks:
        codes = classify_points(frames[j][1], frames[i][1].vertices)
        assert np.all(codes == INSIDE_CODE)


def test_volume_monotone_along_frames():
    traj = evolve(shapes.ellipse_polygon(2.0, 1.0, 128), F_K, 0.0, FlowConfig(t_end=0.3, dt=2e-3))
    vols = [enclosed_volume(m) for _, m in traj.frames]
    assert all(b > a for a, b in zip(vols, vols[1:]))
    assert not any(e["type"] == "volume_decrease" for e in traj.events)


def test_comparison_principle_nested_inputs():
    cfg = FlowConfig(t_end=0.3, dt=2e-3)
    inner = evolve(shapes.circle_polygon(0.5, 128), F_K, 0.0, cfg)
    outer = evolve(shapes.ellipse_polygon(2.0, 1.0, 128), F_K, 0.0, cfg)
    for (t_i, Mi), (t_o, Mo) in zip(inner.frames, outer.frames):
        assert t_i == pytest.approx(t_o, abs=1e-12)
        assert np.all(classify_points(Mo, Mi.vertices) == INSIDE_CODE)


def test_roundness_improves():
    from hyperflow.hypersurface import inner_outer_radii

    traj = evolve(shapes.ellipse_polygon(2.0, 1.0, 128), F_K, 0.0, FlowConfig(t_end=0.5, dt=2e-3))
    first, last = traj.frames[0][1], traj.frames[-1][1]
    r0 = inner_outer_radii(first, center=oracles.chebyshev_center(first)).ratio
    r1 = inner_outer_radii(last, center=oracles.chebyshev_center(last)).ratio
    assert r1 < r0 - 1e-3


def test_convergence_order_on_coarse_circle():
    # 16-gon keeps both steps inside the explicit stability region, so the
    # error tracks the one-step method's fourth order
    errs = []
    for dt in (0.05, 0.025):
        traj = evolve(shapes.circle_polygon(1.0, 16), F_K, 0.0, FlowConfig(t_end=1.0, dt=dt))
        errs.append(abs(radii(traj.frames[-1][1]).mean() - math.e))
    assert errs[0] / errs[1] >= 3.5


def test_sphere_preservation_spread():
    traj = evolve(shapes.icosphere(1.0, 3), F_H, 0.0, FlowConfig(t_end=0.1, dt=1e-3))
    for _, M in traj.frames:
        r = radii(M)
        assert r.max() - r.min() < 1e-3 * r.mean()


def test_stability_substepping_reported():
    # dt far above the parabolic bound still integrates cleanly
    M = shapes.circle_polygon(1.0, 256)
    traj = evolve(M, F_K, 0.0, FlowConfig(t_end=0.05, dt=1e-3))
    # three stable RK4 steps' worth is one 4-stage RKC step, as many
    # evaluations as one RK4 step, so no count change is logged; twice the
    # step needs more stages and is reported
    assert 1e-3 / stable_substep(M, F_K) > 2.5
    assert traj.events == []
    wide = evolve(M, F_K, 0.0, FlowConfig(t_end=4e-3, dt=2e-3))
    assert [e["type"] for e in wide.events] == ["stability_stages"]
    r = radii(traj.frames[-1][1])
    assert r.max() - r.min() < 1e-9


def _beta(s):
    # RKC's real stability boundary from numpy's Chebyshev polynomials
    w0 = 1.0 + (2.0 / 13.0) / (s * s)
    T = np.polynomial.Chebyshev.basis(s)
    return (1.0 + w0) * T.deriv(2)(w0) / T.deriv(1)(w0)


def _evaluations(M, F, dt):
    """Velocity evaluations of one requested step: 4 for one stable RK4 step,
    else s per RKC step over the fewest equal steps within the stage ceiling."""
    ratio = dt / stable_substep(M, F)
    if ratio <= 1.0:
        return 4
    need = 2.78 * ratio
    top = flow_engine.RKC_MAX_STAGES
    n = math.ceil(need / _beta(top))
    return n * min(s for s in range(2, top + 1) if need / n <= _beta(s))


def test_substepping_events_follow_every_count_change():
    # an expanding ellipse coarsens its stiffness, so the count steps down;
    # one frame per step keeps the surface of every event time
    dt = 1e-3
    cfg = FlowConfig(t_end=0.25, dt=dt, frame_interval=dt)
    traj = evolve(shapes.ellipse_polygon(2.0, 1.0, 256), F_K, 0.0, cfg)
    surfaces = dict(traj.frames)
    events = [e for e in traj.events if e["type"] == "stability_stages"]
    assert len(events) >= 3
    last = 4
    for e in events:
        m = re.fullmatch(r"requested dt (\S+) executed as (\d+) evaluations \(was (\d+)\)", e["detail"])
        new, old = int(m.group(2)), int(m.group(3))
        assert old == last and new != old
        dt_req = min(dt, 0.25 - e["t"])
        assert new == _evaluations(surfaces[e["t"]], F_K, dt_req)
        last = new


def _textbook_rk4(M, F, dt):
    x = M.vertices
    k1 = _velocity(M, F)[0]
    k2 = _velocity(M.with_vertices(x + 0.5 * dt * k1), F)[0]
    k3 = _velocity(M.with_vertices(x + 0.5 * dt * k2), F)[0]
    k4 = _velocity(M.with_vertices(x + dt * k3), F)[0]
    return x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


@pytest.mark.parametrize(
    "M,F,dt",
    [(shapes.ellipse_polygon(2.0, 1.0, 256), F_K, 1e-5), (shapes.icosphere(1.0, 2), F_H, 1e-3)],
    ids=["ellipse 256-gon, 1/k", "icosphere s2, 1/H"],
)
def test_rk4_substep_equals_the_textbook_update(M, F, dt):
    assert np.array_equal(_substep(M, F, dt, _velocity(M, F))[0].vertices, _textbook_rk4(M, F, dt))


def test_curve_errors_keep_their_types_and_messages():
    M = shapes.circle_polygon(1.0, 16)
    repeated = np.insert(M.vertices, 1, M.vertices[1], axis=0)
    with pytest.raises(DegenerateElement, match="^zero-length polygon edge$"):
        DiscreteHypersurface(repeated)
    # a stage snapshot reports the same fault as a numerical failure
    with pytest.raises(MeshDegeneracy, match="^zero-length polygon edge$"):
        _stage_surface(M, repeated)
    with pytest.raises(ValueError, match=r"^polygon must be counter-clockwise \(positive area\)$"):
        DiscreteHypersurface(M.vertices[::-1])
    with pytest.raises(MeshDegeneracy, match=r"^polygon must be counter-clockwise \(positive area\)$"):
        _stage_surface(M, M.vertices[::-1])
    nan = M.vertices.copy()
    nan[3, 0] = np.nan
    with pytest.raises(NonFiniteState, match="^non-finite vertex coordinates$"):
        _stage_surface(M, nan)
    with pytest.raises(ValueError, match="^vertices must be finite$"):
        DiscreteHypersurface(nan)
    # a spike up to (1, 3) and back down: the two edge normals there cancel
    cusp = DiscreteHypersurface([[0, 0], [2, 0], [2, 2], [1, 2], [1, 3], [1, 2.5], [0, 2]])
    with pytest.raises(MeshDegeneracy, match="^cusp vertex: adjacent edge normals cancel$"):
        _velocity(cusp, F_K)


def test_one_rk4_substep_of_a_curve_builds_four_snapshots_and_four_curvatures(monkeypatch):
    # the benchmark tracer's flow_engine.stages_per_step is curvature
    # evaluations per requested step: 4 for one RK4 step, s for an s-stage RKC step
    counts = {"construct": 0, "curvature": 0}
    init = DiscreteHypersurface.__init__
    curvature = DiscreteHypersurface.__dict__["curvature_data"].func

    def counting_init(self, *args, **kwargs):
        counts["construct"] += 1
        init(self, *args, **kwargs)

    def counting_curvature(self):
        counts["curvature"] += 1
        return curvature(self)

    prop = cached_property(counting_curvature)
    prop.__set_name__(DiscreteHypersurface, "curvature_data")
    stages = _evaluations(shapes.ellipse_polygon(2.0, 1.0, 256), F_K, 1e-3)
    assert stages > 4
    monkeypatch.setattr(DiscreteHypersurface, "__init__", counting_init)
    monkeypatch.setattr(DiscreteHypersurface, "curvature_data", prop)
    M = shapes.ellipse_polygon(2.0, 1.0, 256)
    counts.update(construct=0)
    _substep(M, F_K, 1e-5, _velocity(M, F_K))
    assert counts == {"construct": 4, "curvature": 4}

    M = shapes.ellipse_polygon(2.0, 1.0, 256)
    counts.update(construct=0, curvature=0)
    evolve(M, F_K, 0.0, FlowConfig(t_end=1e-3, dt=1e-3))
    assert counts == {"construct": stages, "curvature": stages}


def _perimeter_law_error(m, dt, t_end=0.1):
    M0 = shapes.ellipse_polygon(2.0, 1.0, m)
    t, M = evolve(M0, F_K, 0.0, FlowConfig(t_end=t_end, dt=dt, frame_interval=t_end)).frames[-1]
    return abs(M.edge_lengths.sum() / (M0.edge_lengths.sum() * math.exp(t)) - 1.0)


def test_rkc_steps_are_second_order_in_time():
    # every step here exceeds one stable RK4 step, so each is an RKC step;
    # at m = 256 the spatial error (2.9e-10) is far below the time error
    errs = [_perimeter_law_error(256, dt) for dt in (1e-3, 5e-4, 2.5e-4)]
    assert stable_substep(shapes.ellipse_polygon(2.0, 1.0, 256), F_K) < 2.5e-4
    assert errs[0] / errs[1] >= 3.0 and errs[1] / errs[2] >= 3.0


def test_curve_perimeter_law_is_fourth_order_in_space():
    # This pins the order of the perimeter functional L(t) = L(0) e^t, not of
    # the flow: vertex positions are second order in space (their distance to
    # an exact solution falls by about 4 per doubling of m), and the perimeter
    # sums that error to a higher order.
    # RKC's time error at dt = 1e-3 (1.6e-7 at m = 256 and 1.5e-7 at m = 512)
    # does not stay below the spatial error even at m = 64 (7.5e-8), let alone
    # m = 512 (1.8e-11).  The order is measured at dt = 8e-5, which every
    # resolution here takes as one stable RK4 step, so the time error is negligible.
    dt = 8e-5
    for m in (64, 128, 256):
        assert dt <= stable_substep(shapes.ellipse_polygon(2.0, 1.0, m), F_K)
    errs = [_perimeter_law_error(m, dt) for m in (64, 128, 256)]
    assert errs[0] / errs[1] >= 14.0 and errs[1] / errs[2] >= 14.0


def _surface_area(M):
    a, b, c = (M.vertices[M.faces[:, k]] for k in range(3))
    return 0.5 * float(np.linalg.norm(np.cross(b - a, c - a), axis=1).sum())


def test_mesh_flow_is_second_order_in_space():
    # under 1/H every closed surface obeys A(t) = A(0) e^t; at dt = 1e-3 each
    # level takes one stable RK4 step per requested step (s4's limit is 2.0e-3),
    # so the error is the fit's spatial error: 8.0e-3, 2.1e-3, 5.3e-4
    dt, errs = 1e-3, []
    for sub in (2, 3, 4):
        M0 = shapes.ellipsoid_mesh(1.0, 1.3, 0.7, sub)
        assert dt <= stable_substep(M0, F_H)
        traj = evolve(M0, F_H, 0.0, FlowConfig(t_end=0.1, dt=dt, frame_interval=0.1))
        assert traj.events == []
        t, M = traj.frames[-1]
        errs.append(abs(_surface_area(M) / (_surface_area(M0) * math.exp(t)) - 1.0))
    assert errs[0] / errs[1] >= 3.0 and errs[1] / errs[2] >= 3.0


def _diagonal_difference_substep(M, F):
    """The bound from a central difference along the diagonal, with step
    1e-6 max|lambda| at each vertex: three F.values calls per surface."""
    lam = M.curvature_data.principal
    scale = np.maximum(np.max(np.abs(lam), axis=1), 1e-12)
    eps = 1e-6 * scale
    up = F.values(lam + eps[:, None])
    dn = F.values(lam - eps[:, None])
    grad_sum = np.maximum((up - dn) / (2.0 * eps), 0.0)
    fval = F.values(lam)
    diffusivity = grad_sum / (fval * fval)
    h = flow_engine._local_min_edge(M)
    stiffest = float(np.max(4.0 * diffusivity / (h * h)))
    return math.inf if stiffest <= 0.0 else flow_engine._STAB_COEFF / stiffest


@pytest.mark.parametrize("M", [
    shapes.circle_polygon(1.0, 256),
    shapes.ellipse_polygon(2.0, 1.0, 256),
    shapes.icosphere(1.0, 3),
    shapes.ellipsoid_mesh(1.0, 1.3, 0.7, 3),
], ids=["circle", "ellipse", "icosphere", "ellipsoid"])
def test_stable_substep_matches_the_diagonal_difference_bound(M):
    for F in oracles.catalog(M.dimension):
        assert stable_substep(M, F) == pytest.approx(_diagonal_difference_substep(M, F), rel=1e-8), F.name


def test_stable_substep_scales_with_resolution():
    coarse = stable_substep(shapes.circle_polygon(1.0, 16), F_K)
    fine = stable_substep(shapes.circle_polygon(1.0, 64), F_K)
    assert coarse / fine == pytest.approx(16.0, rel=0.05)


# ---------------------------------------------------------------------------
# curve-stage oracles: each piece of a curve stage in its general form


def _local_min_edge_oracle(M):
    """Shortest incident edge by two np.minimum.at passes over the edge list."""
    e = M.edges
    lens = M.edge_lengths
    out = np.full(M.num_vertices, np.inf)
    np.minimum.at(out, e[:, 0], lens)
    np.minimum.at(out, e[:, 1], lens)
    return out


def _margin_oracle(lams):
    """The positive cone's margin min(lam) / max(|lam|), reduced over the last axis."""
    lams = np.atleast_2d(np.asarray(lams, dtype=float))
    scale = np.max(np.abs(lams), axis=-1)
    safe = np.where(scale > 0.0, scale, 1.0)
    out = np.min(lams, axis=-1) / safe
    return np.where(scale > 0.0, out, -1.0)


def _random_polygon(seed, m):
    rng = np.random.default_rng(seed)
    theta = np.sort(rng.uniform(0.0, 2.0 * np.pi, m))
    r = 1.0 + 0.3 * rng.uniform(size=m)
    return DiscreteHypersurface(np.column_stack([r * np.cos(theta), r * np.sin(theta)]))


def _close_pair_polygon():
    # 63 vertices spaced evenly on the unit circle, one more 1e-10 along it from the first
    theta = np.concatenate([[0.0, 1e-10], 2.0 * np.pi * np.arange(1, 63) / 63])
    return DiscreteHypersurface(np.column_stack([np.cos(theta), np.sin(theta)]))


@pytest.mark.parametrize("build", [
    *(partial(_random_polygon, seed, m) for seed, m in enumerate((5, 17, 100, 256))),
    lambda: DiscreteHypersurface([[0.0, 0.0], [1.0, 0.0], [0.3, 0.7]]),
    _close_pair_polygon,
    lambda: shapes.icosphere(1.0, 2),
], ids=["random 5-gon", "random 17-gon", "random 100-gon", "random 256-gon", "3-gon", "64-gon, close pair",
        "icosphere"])
def test_local_min_edge_equals_the_two_pass_oracle(build):
    M = build()
    got = flow_engine._local_min_edge(M)
    assert np.array_equal(got, _local_min_edge_oracle(M))
    assert got.shape == (M.num_vertices,)


MARGIN_SAMPLES = [
    0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, -5e-324, 1e-310, -1e-310, 2.2250738585072014e-308,
    -2.2250738585072014e-308, 1e-300, -1e-300, 1.0, -1.0, 3.5, -7.25, 1.7976931348623157e308,
    -1.7976931348623157e308,
]


def test_one_curvature_margin_equals_the_general_formula_bitwise():
    cone = Cone.positive()
    rng = np.random.default_rng(0)
    draws = rng.standard_normal(500) * 10.0 ** rng.uniform(-320.0, 300.0, 500)
    lams = np.concatenate([MARGIN_SAMPLES, draws])[:, None]
    with np.errstate(invalid="ignore"):
        got = cone.interior_margin(lams)
        assert np.array_equal(got, _margin_oracle(lams), equal_nan=True)
        # one tuple, and a stack of batches
        for shaped in (lams[13], lams[:518].reshape(2, -1, 1)):
            assert np.array_equal(cone.interior_margin(shaped), _margin_oracle(shaped), equal_nan=True)
    # 0, -0 and NaN lie outside; inf / inf is NaN
    assert got[:3].tolist() == [-1.0, -1.0, -1.0]
    assert np.isnan(got[3:5]).all()
    # on finite input it divides only where |lam| > 0, so it raises no floating-point error
    finite = lams[np.isfinite(lams[:, 0])]
    with np.errstate(all="raise"):
        assert np.array_equal(cone.interior_margin(finite), _margin_oracle(finite))


def _velocity_oracle(M, F):
    """The stage velocity with one pass per check."""
    data = M.curvature_data
    lam = data.principal
    margin_min = float(F.cone.interior_margin(lam).min())
    if margin_min <= flow_engine.MARGIN_HARD:
        raise ConeExit(f"curvature tuple left the admissible cone (margin {margin_min:.3e})")
    speeds = F.values(lam)
    if not np.all(np.isfinite(speeds)) or np.any(speeds <= 0.0):
        raise NonPositiveSpeed(f"{F.name} non-positive along the surface")
    return data.normals / speeds[:, None], margin_min, speeds


def _rkc_step_oracle(M, F, dt, s, start):
    """The RKC step with each stage's update written as one expression."""
    _, mu1, stages = flow_engine._rkc_coefficients(s)
    x0 = M.vertices
    f0, margin, _ = start
    prev, cur = x0, x0 + (mu1 * dt) * f0
    for mu, nu, mu_t, gamma_t in stages:
        f, m, _ = flow_engine._velocity(flow_engine._stage_surface(M, cur), F)
        margin = min(margin, m)
        prev, cur = cur, (1.0 - mu - nu) * x0 + mu * cur + nu * prev + (mu_t * dt) * f + (gamma_t * dt) * f0
    return flow_engine._accept(M, cur), margin


def _rotated_ellipses():
    """The benchmark's seed-0 curve_flow inputs: 256-gon ellipses (2, b), turned."""
    rng = np.random.default_rng(0)
    bs = 0.9 + 0.2 * (np.arange(4) + rng.uniform(size=4)) / 4
    angles = rng.uniform(0.0, 2.0 * math.pi, size=4)
    for b, angle in zip(bs, angles):
        c, s = math.cos(angle), math.sin(angle)
        yield DiscreteHypersurface(shapes.ellipse_polygon(2.0, float(b), 256).vertices @ np.array([[c, -s], [s, c]]).T)


def test_a_curve_flow_equals_the_one_built_from_the_oracle_forms(monkeypatch):
    def margin(cone, lams):
        assert cone.kind == "positive"
        return _margin_oracle(lams)

    config = FlowConfig(t_end=0.25, dt=1e-3)
    for M0 in _rotated_ellipses():
        lean = evolve(M0, F_K, 0.0, config)
        with monkeypatch.context() as patch:
            # a kernel formed at each use, the two-pass minimum, the general
            # margin, one pass per check and the one-expression update
            patch.setattr(hypersurface, "_snapshot", hypersurface._snapshot.__wrapped__)
            patch.setattr(flow_engine, "_local_min_edge", _local_min_edge_oracle)
            patch.setattr(Cone, "interior_margin", margin)
            patch.setattr(flow_engine, "_velocity", _velocity_oracle)
            patch.setattr(flow_engine, "_rkc_step", _rkc_step_oracle)
            oracle = evolve(M0, F_K, 0.0, config)
        assert len(lean.frames) == len(oracle.frames) == 26
        for (t, M), (t_o, M_o) in zip(lean.frames, oracle.frames):
            assert t == t_o
            assert np.array_equal(M.vertices, M_o.vertices)
        assert lean.events == oracle.events


def test_cone_margin_warning_event():
    # inject a near-boundary curvature tuple (inside the hard floor, below
    # the warning band) into the cached estimate and run one step
    M = shapes.icosphere(1.0, 1)
    data = M.curvature_data
    lam = data.principal.copy()
    lam[0] = (5e-4 * lam[0, 1], lam[0, 1])
    M.__dict__["curvature_data"] = type(data)(normals=data.normals, principal=lam)
    traj = evolve(M, F_H, 0.0, FlowConfig(t_end=1e-4, dt=1e-4))
    assert any(e["type"] == "cone_margin_warning" for e in traj.events)


def test_cone_exit_stops_gracefully_when_configured():
    cfg = FlowConfig(t_end=1.0, dt=1e-3, stop_on_cone_exit=False)
    traj = evolve(oracles.peanut_polygon(128), F_K, 0.0, cfg)
    # the start surface meets the cone before the step is sized, as under the CFL policy
    assert [e["type"] for e in traj.events] == ["cone_exit"]
    assert traj.t1 < 1.0


def test_cone_exit_stops_gracefully_under_the_cfl_policy():
    # the peanut leaves the cone at once: the start surface's velocity, which
    # sets the CFL step, reports it like any stage
    cfg = FlowConfig(t_end=0.1, stop_on_cone_exit=False)
    traj = evolve(oracles.peanut_polygon(128), F_K, 0.0, cfg)
    assert [e["type"] for e in traj.events] == ["cone_exit"]
    assert len(traj.frames) == 1 and traj.t1 == 0.0


def test_a_zero_curvature_start_is_the_same_cone_exit_under_both_step_policies():
    # the square's collinear vertices have k = 0 exactly: the start check
    # reports it before anything divides by the speed, whatever sizes the step
    M = shapes.square_polygon(2.0, per_side=4)
    messages = []
    for dt in (1e-3, None):
        with pytest.raises(ConeExit) as info:
            evolve(M, F_K, 0.0, FlowConfig(t_end=0.1, dt=dt))
        messages.append(str(info.value))
        traj = evolve(M, F_K, 0.0, FlowConfig(t_end=0.1, dt=dt, stop_on_cone_exit=False))
        assert [e["type"] for e in traj.events] == ["cone_exit"]
        assert len(traj.frames) == 1 and traj.t1 == 0.0
    assert messages[0] == messages[1] == "curvature tuple left the admissible cone (margin -1.000e+00)"


def test_the_public_stable_substep_makes_the_start_check():
    # it divided F's gradient by F^2 = 0 on the collinear vertices
    with pytest.raises(ConeExit, match="margin -1.000e"):
        stable_substep(shapes.square_polygon(2.0, per_side=4), F_K)


def test_the_cfl_policy_evaluates_the_start_velocity_once(monkeypatch):
    calls = []

    def counting_velocity(M, F):
        calls.append(M)
        return _velocity(M, F)

    monkeypatch.setattr(flow_engine, "_velocity", counting_velocity)
    M = shapes.circle_polygon(1.0, 16)
    evolve(M, F_K, 0.0, FlowConfig(t_end=0.02))
    # one requested RK4 step: four stages, the first of which set dt
    assert len(calls) == 4 and calls[0] is M
    # over an RKC step the CFL run equals a fixed-dt run with its step
    M = shapes.circle_polygon(1.0, 64)
    cfl = evolve(M, F_K, 0.0, FlowConfig(t_end=0.019))
    fixed = evolve(M, F_K, 0.0, FlowConfig(t_end=0.019, dt=0.019))
    assert cfl.events == fixed.events
    assert [e["detail"] for e in cfl.events] == ["requested dt 1.900e-02 executed as 5 evaluations (was 4)"]
    assert [t for t, _ in cfl.frames] == [t for t, _ in fixed.frames]
    for (_, a), (_, b) in zip(cfl.frames, fixed.frames):
        assert np.array_equal(a.vertices, b.vertices)


def test_cone_exit_raises_by_default():
    with pytest.raises(ConeExit):
        evolve(oracles.peanut_polygon(128), F_K, 0.0, FlowConfig(t_end=1.0, dt=1e-3))


def test_config_validation():
    with pytest.raises(ValueError):
        FlowConfig(t_end=1.0, cfl=0.0)
    with pytest.raises(ValueError):
        evolve(shapes.circle_polygon(1.0, 16), F_K, 2.0, FlowConfig(t_end=1.0))


@pytest.mark.parametrize("kwargs", [{"t_end": math.nan}, {"t_end": math.inf}, {"t_end": 1.0, "dt": math.nan},
                                    {"t_end": 1.0, "frame_interval": math.nan}])
def test_config_rejects_non_finite_values(kwargs):
    with pytest.raises(ValueError):
        FlowConfig(**kwargs)


@pytest.mark.parametrize("t0", [-math.inf, math.nan])
def test_evolve_rejects_a_non_finite_start_time(t0):
    # from -inf the step loop ran until the surface left the cone
    with pytest.raises(ValueError, match="^t0 must be finite$"):
        evolve(shapes.circle_polygon(1.0, 16), F_K, t0, FlowConfig(t_end=1.0))


def test_cfl_policy_runs_without_fixed_dt():
    traj = evolve(shapes.circle_polygon(1.0, 32), F_K, 0.0, FlowConfig(t_end=0.2, dt=None, cfl=0.2))
    r = radii(traj.frames[-1][1])
    assert r.mean() == pytest.approx(math.exp(0.2), rel=1e-3)


# ---------------------------------------------------------------------------
# flow residual


def test_residual_small_on_analytic_sphere_family():
    fam = families.exponential_sphere_family(0.0, 0.5, 0.01, n=1, resolution=128)
    res = flow_residual(fam, F_K)
    assert res.overall_max < 1e-4


def test_residual_large_on_ellipse_family():
    times = -1.0 + 0.01 * np.arange(101)
    fam = families.ellipsoid_family(times, rates=(1.0, 2.0), n=1, resolution=128)
    res = flow_residual(fam, F_K)
    assert res.overall_max > 0.1


def test_an_empty_trajectory_is_the_typed_error():
    # the audit, the touch time and the interpolation used to fail further
    # in, with IndexError or numpy's zero-size ValueError
    with pytest.raises(EmptyTrajectory, match="no frames"):
        Trajectory([])


def test_residual_of_evolved_trajectory_within_step_budget():
    dt = 1e-3
    traj = evolve(shapes.circle_polygon(1.0, 64), F_K, 0.0, FlowConfig(t_end=0.3, dt=dt))
    res = flow_residual(traj, F_K)
    assert res.overall_max <= 10.0 * dt


def test_residual_needs_three_frames():
    fam = families.exponential_sphere_family(0.0, 0.01, 0.01, n=1, resolution=64)
    assert len(fam.frames) == 2
    with pytest.raises(InsufficientFrames):
        flow_residual(fam, F_K)


def test_residual_needs_vertex_correspondence():
    # a hand-built trajectory whose last frame has one more vertex: that
    # frame has no vertex-by-vertex neighbour
    traj = Trajectory(frames=[(0.0, shapes.circle_polygon(1.0, 64)),
                              (0.01, shapes.circle_polygon(math.exp(0.01), 64)),
                              (0.02, shapes.circle_polygon(math.exp(0.02), 65))])
    with pytest.raises(InsufficientFrames, match="vertex correspondence broken"):
        flow_residual(traj, F_K)


# ---------------------------------------------------------------------------
# trajectory helpers


def test_interpolate_vertices_linear():
    fam = families.exponential_sphere_family(0.0, 0.1, 0.05, n=1, resolution=32)
    mid = fam.interpolate_vertices(0.025)
    want = 0.5 * (fam.frames[0][1].vertices + fam.frames[1][1].vertices)
    assert np.allclose(mid, want)


def test_support_series_monotone_for_expansion():
    fam = families.exponential_sphere_family(-1.0, 0.0, 0.05, n=1, resolution=64)
    s = fam.support_series(np.array([1.0, 0.0]))
    assert np.all(np.diff(s) > 0.0)


@pytest.fixture(scope="module")
def support_trajectories():
    # a curve family and an evolved mesh, whose frames are not round
    times = -1.0 + 0.05 * np.arange(21)
    return {
        "curve family": families.ellipsoid_family(times, rates=(1.0, 2.0), n=1, resolution=64),
        "evolved s2 mesh": evolve(
            shapes.ellipsoid_mesh(1.0, 1.2, 0.8, 2), F_H, 0.0, FlowConfig(t_end=0.02, dt=2e-3, frame_interval=4e-3)
        ),
    }


@pytest.mark.parametrize("count", [1, 3, 16])
@pytest.mark.parametrize("name", ["curve family", "evolved s2 mesh"])
def test_support_table_columns_are_the_one_direction_series(support_trajectories, name, count):
    traj = support_trajectories[name]
    d = traj.frames[0][1].dimension + 1
    rows = np.random.default_rng(count).normal(size=(count, d))
    rows /= np.linalg.norm(rows, axis=1)[:, None]
    table = traj.support_series(rows)
    assert table.shape == (len(traj.frames), count)
    for k, row in enumerate(rows):
        assert np.array_equal(table[:, k], traj.support_series(row))


def test_support_series_needs_no_vertex_correspondence():
    traj = flow_engine.Trajectory(frames=[(0.0, shapes.circle_polygon(1.0, 64)), (1.0, shapes.circle_polygon(2.0, 65))])
    assert traj.support_series(np.array([1.0, 0.0])) == pytest.approx([1.0, 2.0], abs=1e-15)
    assert traj.support_series(np.eye(2)).shape == (2, 2)
