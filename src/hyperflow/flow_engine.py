"""Explicit time integration of the outward flow with speed 1/F.

Every vertex moves along its outward normal at rate 1/F(principal
curvatures).  ``evolve`` re-estimates curvature at each stage of each
requested step: a step that one classical RK4 step takes stably is one RK4
step (fourth order); a stiffer step is one damped second-order
Runge-Kutta-Chebyshev step with as many stages as explicit stability needs.
Admissibility is monitored per stage: curvature tuples must stay inside the
speed's cone with a relative interior margin, and near-boundary frames are
logged as warning events.  The connectivity never changes, so the frames of
a run correspond vertex by vertex.  Under 1/k and 1/H every arc or area
element grows by e^t, so a fixed vertex count keeps a fixed relative
resolution as the surface expands.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    ConeExit,
    DegenerateElement,
    EmptyTrajectory,
    InsufficientFrames,
    MeshDegeneracy,
    NonFiniteState,
    NonPositiveSpeed,
)
from .hypersurface import DiscreteHypersurface, _snapshot, enclosed_volume
from .speeds import SpeedFunction, _raw_gradient

MARGIN_HARD = 1e-6  # relative cone-interior margin that aborts a step
MARGIN_WARN = 1e-3  # margin that logs a near-boundary warning event
EDGE_FLOOR_FACTOR = 1e-12  # min edge length relative to bbox diagonal
MAX_EVALUATIONS = 10_000_000  # runaway guard on velocity evaluations per evolve call


@dataclass
class FlowConfig:
    """Stepping policy for one evolution run.

    ``dt`` fixes the requested step; when None the step obeys the CFL-style
    bound dt <= cfl * h_min * F_min (so the largest vertex displacement stays
    a fraction of the shortest edge).  Curvature-dependent normal motion is
    parabolic, with the explicit diffusion limit (``stable_substep``)
    dt_rk4 <= stab * h^2 F^2 / (4 sum_j dF/dlambda_j); past it, mesh scale
    noise amplifies and destroys round solutions within a few steps.  A
    requested step within the limit is one RK4 step; a longer one is one RKC
    step whose s stages stretch the limit about 0.65 s^2 / 2.78-fold (equal
    RKC steps above RKC_MAX_STAGES stages).  Frames and cadence always follow
    the requested dt grid.  Under either policy a step's start surface passes
    the cone and speed checks before its step is sized.
    """

    t_end: float
    dt: float | None = None
    cfl: float = 0.2
    frame_interval: float = 0.01
    stop_on_cone_exit: bool = True

    def __post_init__(self):
        # written so that NaN fails every rule
        if not math.isfinite(self.t_end):
            raise ValueError("t_end must be finite")
        if not (0.0 < self.cfl <= 1.0):
            raise ValueError("cfl must lie in (0, 1]")
        if self.dt is not None and not (self.dt > 0.0):
            raise ValueError("dt must be positive")
        if not (self.frame_interval > 0.0):
            raise ValueError("frame_interval must be positive")


@dataclass
class Trajectory:
    """Time-ordered surface frames plus the event log of the run."""

    frames: list[tuple[float, DiscreteHypersurface]]
    events: list[dict] = field(default_factory=list)

    def __post_init__(self):
        if not self.frames:
            raise EmptyTrajectory("trajectory has no frames")

    @property
    def t0(self) -> float:
        return self.frames[0][0]

    @property
    def t1(self) -> float:
        return self.frames[-1][0]

    def times(self) -> np.ndarray:
        return np.array([t for t, _ in self.frames])

    def interpolate_vertices(self, t: float) -> np.ndarray:
        """Linear vertex interpolation between bracketing frames.

        The bracketing frames must correspond vertex by vertex, as every run
        of ``evolve`` does.
        """
        ts = self.times()
        t = float(np.clip(t, ts[0], ts[-1]))
        j = int(np.searchsorted(ts, t))
        if j == 0:
            return self.frames[0][1].vertices
        ta, xa, tb, xb = self.bracket(j)
        w = 0.0 if tb == ta else (t - ta) / (tb - ta)
        return (1.0 - w) * xa + w * xb

    def bracket(self, j: int) -> tuple[float, np.ndarray, float, np.ndarray]:
        """Times and vertices of frames j - 1 and j, which must correspond vertex by vertex."""
        ta, Ma = self.frames[j - 1]
        tb, Mb = self.frames[j]
        if Ma.num_vertices != Mb.num_vertices:
            raise InsufficientFrames("vertex correspondence broken across the bracket")
        return ta, Ma.vertices, tb, Mb.vertices

    def support_series(self, directions: np.ndarray) -> np.ndarray:
        """Support max_i x_i . v of every frame along each direction v.

        One direction (d,) gives (T,); rows (D, d) give (T, D) from one pass
        over the frames.  The heights are ``_heights``, so each column has
        the bits of its row's own series, and c minus a frame's support has
        the bits of the support gap that a reflection verdict reports.
        """
        v = np.asarray(directions, dtype=float)
        rows = np.atleast_2d(v)
        table = np.empty((len(self.frames), rows.shape[0]))
        for f, (_, m) in enumerate(self.frames):
            table[f] = _heights(m.vertices[:, None], rows).max(axis=0)
        return table[:, 0] if v.ndim == 1 else table


def _heights(points: np.ndarray, directions: np.ndarray) -> np.ndarray:
    """Dot products p . v over the last axis, broadcast over the leading axes.

    The package's one height rule: support series, touch-time solves,
    ``Hyperplane.signed_coordinate`` and ``reflect``, and the heights and
    tangency cosines of the reflection verdicts all take it.  The component
    products are summed in coordinate order, so an entry's bits depend on
    its own p and v only, not on the shapes passed as a matrix product's
    fused multiply-adds do, and a frame scan, the solve on its bracket and
    a verdict at the plane agree to the bit.
    """
    out = points[..., 0] * directions[..., 0]
    for k in range(1, points.shape[-1]):
        out += points[..., k] * directions[..., k]
    return out


def _stage_surface(template: DiscreteHypersurface, verts: np.ndarray) -> DiscreteHypersurface:
    try:
        return template.with_vertices(verts)
    except (ValueError, DegenerateElement) as exc:
        # the constructor rejects non-finite input too; report it as such
        if not np.all(np.isfinite(verts)):
            raise NonFiniteState("non-finite vertex coordinates") from exc
        raise MeshDegeneracy(str(exc)) from exc


def _velocity(M: DiscreteHypersurface, F: SpeedFunction) -> tuple[np.ndarray, float, np.ndarray]:
    """Outward velocity field, min cone margin and the speeds at the vertices.

    The cone is checked first, so F is evaluated only on tuples whose margin
    exceeds MARGIN_HARD, and then the speeds must be finite and positive.
    """
    data = M.curvature_data
    lam = data.principal
    margin_min = float(F.cone.interior_margin(lam).min())
    if margin_min <= MARGIN_HARD:
        raise ConeExit(
            f"curvature tuple left the admissible cone (margin {margin_min:.3e})"
        )
    speeds = F.values(lam)
    # the minimum is NaN when any speed is, so NaN fails the first test and +inf the second
    if not (float(speeds.min()) > 0.0 and speeds.max() < math.inf):
        raise NonPositiveSpeed(f"{F.name} non-positive along the surface")
    return data.normals / speeds[:, None], margin_min, speeds


def _accept(M: DiscreteHypersurface, verts: np.ndarray) -> DiscreteHypersurface:
    """The updated surface, checked against the edge-length floor."""
    out = _stage_surface(M, verts)
    if float(out.edge_lengths.min()) <= EDGE_FLOOR_FACTOR * out.bbox_diagonal:
        raise MeshDegeneracy("edge length fell below the quality floor")
    return out


def _local_min_edge(M: DiscreteHypersurface) -> np.ndarray:
    """Per-vertex length of the shortest incident edge.

    Curve vertex i lies on the edges (i - 1, i) and (i, i + 1), entries i and
    i + 1 of the padded ``length`` row of its kernel, so one ``np.minimum`` of
    two shifted slices gives every vertex.  A mesh takes ``np.minimum.at``
    over its edge list.
    """
    if M.dimension == 1:
        length = _snapshot(M).kernel.length
        return np.minimum(length[:-1], length[1:])
    e = M.edges
    lens = M.edge_lengths
    out = np.full(M.num_vertices, np.inf)
    np.minimum.at(out, e[:, 0], lens)
    np.minimum.at(out, e[:, 1], lens)
    return out


# Explicit RK4 stability coefficient against the worst-mode response 4/h^2
# of the curvature estimators (measured: polygons hit 4/h^2 exactly, the
# two-ring mesh fit stays below it), against RK4's real-axis limit.
_STAB_COEFF = 2.2
_RK4_BOUNDARY = 2.78


def stable_substep(M: DiscreteHypersurface, F: SpeedFunction) -> float:
    """Largest explicitly stable RK4 step for the current surface and speed.

    ``evolve`` takes a requested step up to this long as one RK4 step and
    sizes the RKC stages of a longer one from it.  The normal speed 1/F
    responds to a curvature perturbation with rate sum_j dF/dlambda_j / F^2,
    and the estimators amplify vertex noise by at most 4/h^2 at the shortest
    local edge h, which bounds the stiffest eigenvalue of the linearised
    update.  The gradient is F's own (closed form or central differences),
    and F is evaluated once.  A vertex where the gradient sum is not positive
    adds no stiffness; a surface with no positive sum has no limit (inf).
    On a curve the shortest incident edges come from the snapshot's kernel
    (``_local_min_edge``), which its construction formed already.  M must
    pass the start check of ``evolve`` (``_velocity``), which raises
    ConeExit or NonPositiveSpeed before F's gradient is divided by F^2.
    """
    return _stable_substep(M, F, _velocity(M, F)[2])


def _stable_substep(M: DiscreteHypersurface, F: SpeedFunction, fval: np.ndarray) -> float:
    """``stable_substep`` given F's values on M, the checked speeds of a step start."""
    lam = M.curvature_data.principal
    diffusivity = _raw_gradient(F, lam).sum(axis=-1) / (fval * fval)
    h = _local_min_edge(M)
    stiffest = float(np.max(4.0 * diffusivity / (h * h)))
    if stiffest <= 0.0:
        return math.inf
    return _STAB_COEFF / stiffest


def _substep(
    M: DiscreteHypersurface, F: SpeedFunction, dt: float, start: tuple
) -> tuple[DiscreteHypersurface, float]:
    """One classical RK4 step from the first stage ``start`` = ``_velocity(M, F)``:
    the new surface, checked against the edge floor, and its least cone margin."""
    x = M.vertices
    k1, m1, _ = start
    k2, m2, _ = _velocity(_stage_surface(M, x + 0.5 * dt * k1), F)
    k3, m3, _ = _velocity(_stage_surface(M, x + 0.5 * dt * k2), F)
    k4, m4, _ = _velocity(_stage_surface(M, x + dt * k3), F)
    new = x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return _accept(M, new), min(m1, m2, m3, m4)


# Damped second-order Runge-Kutta-Chebyshev steps (Sommeijer, Shampine &
# Verwer, "RKC: an explicit solver for parabolic PDEs", J. Comput. Appl.
# Math. 1998).  An s-stage step is stable for real stiffness * dt up to
# beta(s) ~ 0.65 s^2, taken with the same safety factor as RK4's limit.
# A step that needs more than RKC_MAX_STAGES stages splits into equal steps.
RKC_DAMPING = 2.0 / 13.0
RKC_MAX_STAGES = 64


@functools.cache
def _rkc_coefficients(s: int) -> tuple[float, float, tuple]:
    """Stability boundary beta(s), the first-stage weight and the per-stage
    (mu, nu, mu~, gamma~) of the s-stage RKC step, from the Chebyshev
    recurrences for T_j and its first two derivatives at w0 = 1 + eps/s^2."""
    w0 = 1.0 + RKC_DAMPING / (s * s)
    T, dT, d2T = [1.0, w0], [0.0, 1.0], [0.0, 0.0]
    for j in range(2, s + 1):
        T.append(2.0 * w0 * T[j - 1] - T[j - 2])
        dT.append(2.0 * T[j - 1] + 2.0 * w0 * dT[j - 1] - dT[j - 2])
        d2T.append(4.0 * dT[j - 1] + 2.0 * w0 * d2T[j - 1] - d2T[j - 2])
    w1 = dT[s] / d2T[s]
    b = [d2T[j] / (dT[j] * dT[j]) for j in range(2, s + 1)]
    b = [b[0], b[0]] + b  # b_0 = b_1 = b_2
    stages = []
    for j in range(2, s + 1):
        mu_t = 2.0 * w1 * b[j] / b[j - 1]
        stages.append((2.0 * w0 * b[j] / b[j - 1], -b[j] / b[j - 2], mu_t,
                       -(1.0 - b[j - 1] * T[j - 1]) * mu_t))
    return (1.0 + w0) / w1, b[1] * w1, tuple(stages)


def _rkc_plan(ratio: float) -> tuple[int, int]:
    """Equal RKC steps and stages per step for a step ``ratio`` times the stable
    RK4 substep: the fewest steps of at most RKC_MAX_STAGES stages, then the
    fewest stages s with beta(s) >= 2.78 * ratio per step."""
    bound = _RK4_BOUNDARY * ratio
    n = max(1, math.ceil(bound / _rkc_coefficients(RKC_MAX_STAGES)[0]))
    s = next((s for s in range(2, RKC_MAX_STAGES) if bound / n <= _rkc_coefficients(s)[0]),
             RKC_MAX_STAGES)
    return n, s


def _rkc_step(
    M: DiscreteHypersurface, F: SpeedFunction, dt: float, s: int, start: tuple
) -> tuple[DiscreteHypersurface, float]:
    """One s-stage RKC step from the first stage ``start`` = ``_velocity(M, F)``:
    the new surface, checked against the edge floor, and its least cone margin."""
    _, mu1, stages = _rkc_coefficients(s)
    x0 = M.vertices
    f0, margin, _ = start
    prev, cur = x0, x0 + (mu1 * dt) * f0
    for mu, nu, mu_t, gamma_t in stages:
        f, m, _ = _velocity(_stage_surface(M, cur), F)
        margin = min(margin, m)
        # (1 - mu - nu) x0 + mu cur + nu prev + mu~ dt f + gamma~ dt f0, summed left to right in place
        nxt = (1.0 - mu - nu) * x0
        nxt += mu * cur
        nxt += nu * prev
        nxt += (mu_t * dt) * f
        nxt += (gamma_t * dt) * f0
        prev, cur = cur, nxt
    return _accept(M, cur), margin


def evolve(
    M0: DiscreteHypersurface, F: SpeedFunction, t0: float, config: FlowConfig
) -> Trajectory:
    """Run the flow from M0 at time t0 until config.t_end.

    Each requested step first checks its start surface (cone margin, then
    finite positive speeds, in ``_velocity``), and only then evaluates the
    stiffness, sizes the step and logs a change in its evaluation count.
    Frames are stored roughly every ``frame_interval`` time units plus the
    final state.  Events record every change in the velocity evaluations per
    requested step, near-cone-boundary warnings, volume decreases and, with
    stop_on_cone_exit=False, a graceful stop at a cone exit.  Every frame
    keeps the connectivity of M0.
    """
    if not math.isfinite(t0):
        raise ValueError("t0 must be finite")
    if not (config.t_end > t0):
        raise ValueError("t_end must exceed t0")
    traj = Trajectory(frames=[(t0, M0)])
    t = t0
    M = M0
    last_frame_t = t0
    last_volume = enclosed_volume(M0)
    evaluations = 0
    last_evals = 4
    while t < config.t_end - 1e-15 * max(1.0, abs(config.t_end)):
        try:
            # the start surface is checked before its speeds size the step
            start = _velocity(M, F)
            dt = config.dt
            if dt is None:
                dt = config.cfl * float(M.edge_lengths.min()) * float(start[2].min())
            dt = min(dt, config.t_end - t)
            # one RK4 step where it is stable (four evaluations), else RKC
            ratio = dt / _stable_substep(M, F, start[2])
            n_rkc, s = _rkc_plan(ratio) if ratio > 1.0 else (1, 4)
            evals = n_rkc * s
            if evals != last_evals:
                detail = f"requested dt {dt:.3e} executed as {evals} evaluations (was {last_evals})"
                traj.events.append({"t": t, "type": "stability_stages", "detail": detail})
                last_evals = evals
            if ratio <= 1.0:
                M, margin = _substep(M, F, dt, start)
            else:
                M, margin = _rkc_step(M, F, dt / n_rkc, s, start)
            # the guard follows the first step, so a surface that starts on the
            # edge floor reports the floor, and precedes the remaining steps
            evaluations += evals
            if evaluations > MAX_EVALUATIONS:
                raise MeshDegeneracy("max step count exceeded")
            for _ in range(n_rkc - 1):
                M, m_step = _rkc_step(M, F, dt / n_rkc, s, _velocity(M, F))
                margin = min(margin, m_step)
        except ConeExit as exc:
            if config.stop_on_cone_exit:
                raise
            traj.events.append({"t": t, "type": "cone_exit", "detail": str(exc)})
            break
        t += dt
        if margin < MARGIN_WARN:
            traj.events.append(
                {"t": t, "type": "cone_margin_warning", "detail": f"margin {margin:.3e}"}
            )
        vol = enclosed_volume(M)
        if vol < last_volume - 1e-12 * abs(last_volume):
            traj.events.append(
                {"t": t, "type": "volume_decrease", "detail": f"{vol} < {last_volume}"}
            )
        last_volume = vol
        if t - last_frame_t >= config.frame_interval - 0.5 * dt or t >= config.t_end - 1e-12:
            traj.frames.append((t, M))
            last_frame_t = t
    return traj


# ---------------------------------------------------------------------------
# Residual of the flow law along a trajectory


@dataclass(frozen=True)
class FlowResidual:
    """Per-frame deviation |<dx/dt, normal> - 1/F| from the flow law."""

    times: np.ndarray
    max_abs: np.ndarray
    mean_abs: np.ndarray

    @property
    def overall_max(self) -> float:
        return float(self.max_abs.max())

    def to_json_dict(self) -> dict:
        return {
            "schema_version": 1,
            "times": self.times.tolist(),
            "max_abs": self.max_abs.tolist(),
            "mean_abs": self.mean_abs.tolist(),
            "overall_max": self.overall_max,
        }


def flow_residual(traj: Trajectory, F: SpeedFunction) -> FlowResidual:
    """Central-difference normal velocity against 1/F on interior frames.

    Each frame must correspond vertex by vertex with its neighbours; a
    trajectory whose vertex count changes between them (a hand-built one,
    say) raises InsufficientFrames.
    """
    if len(traj.frames) < 3:
        raise InsufficientFrames("need at least 3 frames for central differences")
    times, max_abs, mean_abs = [], [], []
    for k in range(1, len(traj.frames) - 1):
        tp, xp, tc, _ = traj.bracket(k)
        _, _, tn, xn = traj.bracket(k + 1)
        v = (xn - xp) / (tn - tp)
        data = traj.frames[k][1].curvature_data
        vn = np.einsum("ij,ij->i", v, data.normals)
        speeds = F.values(data.principal)
        resid = np.abs(vn - 1.0 / speeds)
        times.append(tc)
        max_abs.append(float(resid.max()))
        mean_abs.append(float(resid.mean()))
    return FlowResidual(
        times=np.array(times), max_abs=np.array(max_abs), mean_abs=np.array(mean_abs)
    )
