"""Explicit time integration of the outward flow with speed 1/F.

Every vertex moves along its outward normal at rate 1/F(principal
curvatures).  ``step`` is the contractual single forward-Euler update; the
trajectory driver defaults to classical RK4 stages (re-estimating curvature
at each stage) so that sphere radii track the scalar radius ODE at fourth
order.  Admissibility is monitored per stage: curvature tuples must stay
inside the speed's cone with a relative interior margin, and near-boundary
frames are logged as warning events.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.spatial import cKDTree

from .errors import (
    ConeExit,
    DegenerateElement,
    InsufficientFrames,
    MeshDegeneracy,
    NonFiniteState,
    NonPositiveSpeed,
)
from .hypersurface import DiscreteHypersurface, enclosed_volume
from .speeds import SpeedFunction

MARGIN_HARD = 1e-6  # relative cone-interior margin that aborts a step
MARGIN_WARN = 1e-3  # margin that logs a near-boundary warning event
EDGE_FLOOR_FACTOR = 1e-12  # min edge length relative to bbox diagonal


@dataclass
class FlowConfig:
    """Stepping policy for one evolution run.

    ``dt`` fixes the requested step; when None the step obeys the CFL-style
    bound dt <= cfl * h_min * F_min (so the largest vertex displacement stays
    a fraction of the shortest edge).  Curvature-dependent normal motion is
    parabolic, so each requested step is additionally executed as enough
    equal substeps to respect the explicit diffusion limit
    dt_sub <= stab * h^2 F^2 / (4 sum_j dF/dlambda_j); without this, mesh
    scale noise amplifies and destroys round solutions within a few steps.
    Frames and cadence always follow the requested dt grid.
    """

    t_end: float
    dt: float | None = None
    cfl: float = 0.2
    scheme: str = "rk4"
    frame_interval: float = 0.01
    remesh: bool = False
    band: tuple[float, float] | None = None
    stop_on_cone_exit: bool = True
    stability_substeps: bool = True
    max_steps: int = 10_000_000

    def __post_init__(self):
        if not (0.0 < self.cfl <= 1.0):
            raise ValueError("cfl must lie in (0, 1]")
        if self.scheme not in ("rk4", "euler"):
            raise ValueError("scheme must be 'rk4' or 'euler'")
        if self.dt is not None and self.dt <= 0.0:
            raise ValueError("dt must be positive")
        if self.frame_interval <= 0.0:
            raise ValueError("frame_interval must be positive")
        if self.remesh:
            if self.band is None:
                raise ValueError("remesh requires an edge-length band")
        if self.band is not None:
            lo, hi = self.band
            if not (0.0 < lo < hi):
                raise ValueError("band must satisfy 0 < lo < hi")


@dataclass
class Trajectory:
    """Time-ordered surface frames plus the event log of the run."""

    frames: list[tuple[float, DiscreteHypersurface]]
    t0: float
    t1: float
    events: list[dict] = field(default_factory=list)

    def times(self) -> np.ndarray:
        return np.array([t for t, _ in self.frames])

    def surfaces(self) -> list[DiscreteHypersurface]:
        return [m for _, m in self.frames]

    def frame_near(self, t: float) -> tuple[float, DiscreteHypersurface]:
        ts = self.times()
        return self.frames[int(np.argmin(np.abs(ts - t)))]

    def frames_from(self, t_start: float) -> list[tuple[float, DiscreteHypersurface]]:
        return [(t, m) for t, m in self.frames if t >= t_start - 1e-12]

    def interpolate_vertices(self, t: float) -> np.ndarray:
        """Linear vertex interpolation between bracketing frames.

        Requires stable vertex correspondence across the bracket (no remesh
        event in between).
        """
        ts = self.times()
        t = float(np.clip(t, ts[0], ts[-1]))
        j = int(np.searchsorted(ts, t))
        if j == 0:
            return self.frames[0][1].vertices
        ta, Ma = self.frames[j - 1]
        tb, Mb = self.frames[j]
        if Ma.num_vertices != Mb.num_vertices:
            raise InsufficientFrames("vertex correspondence broken across the bracket")
        w = 0.0 if tb == ta else (t - ta) / (tb - ta)
        return (1.0 - w) * Ma.vertices + w * Mb.vertices

    def support_series(self, direction: np.ndarray) -> np.ndarray:
        v = np.asarray(direction, dtype=float)
        return np.array([float(np.max(m.vertices @ v)) for _, m in self.frames])


def _stage_surface(template: DiscreteHypersurface, verts: np.ndarray) -> DiscreteHypersurface:
    if not np.all(np.isfinite(verts)):
        raise NonFiniteState("non-finite vertex coordinates")
    try:
        return template.with_vertices(verts)
    except (ValueError, DegenerateElement) as exc:
        raise MeshDegeneracy(str(exc)) from exc


def _velocity(M: DiscreteHypersurface, F: SpeedFunction) -> tuple[np.ndarray, float, float]:
    """Outward velocity field, min cone margin and min speed over vertices."""
    data = M.curvature_data
    lam = data.principal
    margins = F.cone.interior_margin(lam)
    margin_min = float(margins.min())
    if margin_min <= MARGIN_HARD:
        raise ConeExit(
            f"curvature tuple left the admissible cone (margin {margin_min:.3e})"
        )
    speeds = F.values(lam)
    if not np.all(np.isfinite(speeds)) or np.any(speeds <= 0.0):
        raise NonPositiveSpeed(f"{F.name} non-positive along the surface")
    vel = data.normals / speeds[:, None]
    return vel, margin_min, float(speeds.min())


def step(M: DiscreteHypersurface, F: SpeedFunction, dt: float) -> DiscreteHypersurface:
    """One forward-Euler update: x -> x + dt * normal / F(curvatures)."""
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    vel, _, _ = _velocity(M, F)
    out = _stage_surface(M, M.vertices + dt * vel)
    if float(out.edge_lengths.min()) <= EDGE_FLOOR_FACTOR * out.bbox_diagonal:
        raise MeshDegeneracy("edge length fell below the quality floor")
    return out


def _local_min_edge(M: DiscreteHypersurface) -> np.ndarray:
    """Per-vertex length of the shortest incident edge."""
    if M.dimension == 1:
        lens = M.edge_lengths  # edge i joins vertex i and i+1
        return np.minimum(lens, np.roll(lens, 1))
    e = M.topology.unique_edges
    lens = np.linalg.norm(M.vertices[e[:, 0]] - M.vertices[e[:, 1]], axis=1)
    out = np.full(M.num_vertices, np.inf)
    np.minimum.at(out, e[:, 0], lens)
    np.minimum.at(out, e[:, 1], lens)
    return out


# Explicit stability coefficients against the worst-mode response 4/h^2 of
# the curvature estimators (measured: polygons hit 4/h^2 exactly, the
# two-ring mesh fit stays below it).  RK4's real-axis limit is 2.78, plain
# Euler's is 2.
_STAB_COEFF = {"rk4": 2.2, "euler": 1.5}


def stable_substep(M: DiscreteHypersurface, F: SpeedFunction, scheme: str = "rk4") -> float:
    """Largest explicitly stable step for the current surface and speed.

    The normal speed 1/F responds to a curvature perturbation with rate
    sum_j dF/dlambda_j / F^2, and the estimators amplify vertex noise by at
    most 4/h^2 at the shortest local edge h, which bounds the stiffest
    eigenvalue of the linearised update.
    """
    lam = M.curvature_data.principal
    scale = np.maximum(np.max(np.abs(lam), axis=1), 1e-12)
    eps = 1e-6 * scale
    up = F.values(lam + eps[:, None])
    dn = F.values(lam - eps[:, None])
    grad_sum = np.maximum((up - dn) / (2.0 * eps), 0.0)
    fval = F.values(lam)
    diffusivity = grad_sum / (fval * fval)
    h = _local_min_edge(M)
    stiffest = float(np.max(4.0 * diffusivity / (h * h)))
    if stiffest <= 0.0:
        return math.inf
    return _STAB_COEFF[scheme] / stiffest


def _advance(
    M: DiscreteHypersurface, F: SpeedFunction, dt: float, scheme: str
) -> tuple[np.ndarray, float, float]:
    """One step of the configured scheme on raw vertices."""
    x = M.vertices
    k1, m1, s1 = _velocity(M, F)
    if scheme == "euler":
        return x + dt * k1, m1, s1
    M2 = _stage_surface(M, x + 0.5 * dt * k1)
    k2, m2, _ = _velocity(M2, F)
    M3 = _stage_surface(M, x + 0.5 * dt * k2)
    k3, m3, _ = _velocity(M3, F)
    M4 = _stage_surface(M, x + dt * k3)
    k4, m4, _ = _velocity(M4, F)
    new = x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return new, min(m1, m2, m3, m4), s1


def evolve(
    M0: DiscreteHypersurface, F: SpeedFunction, t0: float, config: FlowConfig
) -> Trajectory:
    """Run the flow from M0 at time t0 until config.t_end.

    Frames are stored roughly every ``frame_interval`` time units plus the
    final state.  Events record remeshing, near-cone-boundary warnings and,
    with stop_on_cone_exit=False, a graceful stop at a cone exit.
    """
    if config.t_end <= t0:
        raise ValueError("t_end must exceed t0")
    traj = Trajectory(frames=[(t0, M0)], t0=t0, t1=t0)
    t = t0
    M = M0
    last_frame_t = t0
    last_volume = enclosed_volume(M0)
    steps = 0
    substep_logged = False
    while t < config.t_end - 1e-15 * max(1.0, abs(config.t_end)):
        if steps >= config.max_steps:
            raise MeshDegeneracy("max step count exceeded")
        if config.dt is not None:
            dt = config.dt
        else:
            _, _, f_min = _velocity(M, F)
            dt = config.cfl * float(M.edge_lengths.min()) * f_min
        dt = min(dt, config.t_end - t)
        n_sub = 1
        if config.stability_substeps:
            dt_stable = stable_substep(M, F, config.scheme)
            n_sub = max(1, int(math.ceil(dt / dt_stable)))
            if n_sub > 1 and not substep_logged:
                traj.events.append(
                    {
                        "t": t,
                        "type": "stability_substepping",
                        "detail": f"requested dt {dt:.3e} executed as {n_sub} substeps",
                    }
                )
                substep_logged = True
        margin = math.inf
        try:
            for _ in range(n_sub):
                verts, m_sub, _ = _advance(M, F, dt / n_sub, config.scheme)
                M = _stage_surface(M, verts)
                margin = min(margin, m_sub)
                if float(M.edge_lengths.min()) <= EDGE_FLOOR_FACTOR * M.bbox_diagonal:
                    raise MeshDegeneracy("edge length fell below the quality floor")
        except ConeExit as exc:
            if config.stop_on_cone_exit:
                raise
            traj.events.append({"t": t, "type": "cone_exit", "detail": str(exc)})
            break
        t += dt
        steps += 1
        if margin < MARGIN_WARN:
            traj.events.append(
                {"t": t, "type": "cone_margin_warning", "detail": f"margin {margin:.3e}"}
            )
        if config.remesh and config.band is not None:
            lens = M.edge_lengths
            if float(lens.max()) > config.band[1] or float(lens.min()) < config.band[0]:
                M = remesh(M, config.band)
                traj.events.append(
                    {"t": t, "type": "remesh", "detail": f"{M.num_vertices} vertices"}
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
    traj.t1 = traj.frames[-1][0]
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


def _match_vertices(M_from: DiscreteHypersurface, M_ref: DiscreteHypersurface) -> np.ndarray:
    """Positions of M_from matched to M_ref's vertices.

    Identity when counts agree (frames from one run keep correspondence);
    nearest-vertex matching otherwise.
    """
    if M_from.num_vertices == M_ref.num_vertices:
        return M_from.vertices
    tree = cKDTree(M_from.vertices)
    _, idx = tree.query(M_ref.vertices)
    return M_from.vertices[idx]


def flow_residual(traj: Trajectory, F: SpeedFunction) -> FlowResidual:
    """Central-difference normal velocity against 1/F on interior frames."""
    if len(traj.frames) < 3:
        raise InsufficientFrames("need at least 3 frames for central differences")
    times, max_abs, mean_abs = [], [], []
    for k in range(1, len(traj.frames) - 1):
        tp, Mp = traj.frames[k - 1]
        tc, Mc = traj.frames[k]
        tn, Mn = traj.frames[k + 1]
        xp = _match_vertices(Mp, Mc)
        xn = _match_vertices(Mn, Mc)
        v = (xn - xp) / (tn - tp)
        data = Mc.curvature_data
        vn = np.einsum("ij,ij->i", v, data.normals)
        speeds = F.values(data.principal)
        resid = np.abs(vn - 1.0 / speeds)
        times.append(tc)
        max_abs.append(float(resid.max()))
        mean_abs.append(float(resid.mean()))
    return FlowResidual(
        times=np.array(times), max_abs=np.array(max_abs), mean_abs=np.array(mean_abs)
    )


# ---------------------------------------------------------------------------
# Remeshing


def _circumcenter_2d(a: np.ndarray, b: np.ndarray, c: np.ndarray):
    d = 2.0 * (a[0] * (b[1] - c[1]) + b[0] * (c[1] - a[1]) + c[0] * (a[1] - b[1]))
    if abs(d) < 1e-300:
        return None
    ux = (
        (a @ a) * (b[1] - c[1]) + (b @ b) * (c[1] - a[1]) + (c @ c) * (a[1] - b[1])
    ) / d
    uy = (
        (a @ a) * (c[0] - b[0]) + (b @ b) * (a[0] - c[0]) + (c @ c) * (b[0] - a[0])
    ) / d
    return np.array([ux, uy])


def _project_to_circle(p: np.ndarray, a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    center = _circumcenter_2d(a, b, c)
    if center is None:
        return p
    radial = p - center
    norm = np.linalg.norm(radial)
    if norm == 0.0:
        return p
    radius = np.linalg.norm(a - center)
    return center + radial * (radius / norm)


def _split_midpoint(verts: np.ndarray, i: int) -> np.ndarray:
    """Midpoint of edge (i, i+1) projected onto the two local circumcircles."""
    m = verts.shape[0]
    a = verts[(i - 1) % m]
    b = verts[i]
    c = verts[(i + 1) % m]
    d = verts[(i + 2) % m]
    mid = 0.5 * (b + c)
    p1 = _project_to_circle(mid, a, b, c)
    p2 = _project_to_circle(mid, b, c, d)
    return 0.5 * (p1 + p2)


def remesh(
    M: DiscreteHypersurface,
    band: tuple[float, float],
    max_volume_change: float = 1e-3,
) -> DiscreteHypersurface:
    """Bring edge lengths into the band by splitting and (curves) collapsing.

    Split midpoints are projected onto the circumcircles through neighbouring
    vertex triples, which keeps circle meshes exactly round.  Meshes support
    splitting only; a mesh whose short edges violate the band cannot be
    repaired here.  The enclosed volume must stay within ``max_volume_change``
    relative or the operation fails.
    """
    lo, hi = band
    if not (0.0 < lo < hi):
        raise ValueError("band must satisfy 0 < lo < hi")
    if hi < 2.0 * lo:
        raise ValueError("band must satisfy hi >= 2 lo so splits terminate")
    vol0 = enclosed_volume(M)
    if M.dimension == 1:
        out = _remesh_curve(M, lo, hi)
    else:
        out = _remesh_mesh(M, lo, hi)
    vol1 = enclosed_volume(out)
    if abs(vol1 - vol0) > max_volume_change * abs(vol0):
        raise MeshDegeneracy(
            f"remesh changed enclosed volume by {abs(vol1 - vol0) / abs(vol0):.3e} relative"
        )
    return out


def _remesh_curve(M: DiscreteHypersurface, lo: float, hi: float) -> DiscreteHypersurface:
    verts = M.vertices.copy()
    changed = False
    for _ in range(64):
        lens = np.linalg.norm(np.roll(verts, -1, axis=0) - verts, axis=1)
        long_edges = np.nonzero(lens > hi)[0]
        if long_edges.shape[0] == 0:
            break
        changed = True
        pieces = []
        long_set = set(long_edges.tolist())
        for i in range(verts.shape[0]):
            pieces.append(verts[i])
            if i in long_set:
                pieces.append(_split_midpoint(verts, i))
        verts = np.array(pieces)
    else:
        raise MeshDegeneracy("edge splitting did not terminate")

    for _ in range(10 * verts.shape[0]):
        lens = np.linalg.norm(np.roll(verts, -1, axis=0) - verts, axis=1)
        j = int(np.argmin(lens))
        if lens[j] >= lo:
            break
        if verts.shape[0] <= 4:
            raise MeshDegeneracy("collapse would leave fewer than 4 vertices")
        changed = True
        merged = _split_midpoint(verts, j)
        if j + 1 < verts.shape[0]:
            verts = np.vstack([verts[:j], merged[None, :], verts[j + 2 :]])
        else:  # wraparound edge (m-1, 0)
            verts = np.vstack([merged[None, :], verts[1:-1]])
    if not changed:
        return M
    return DiscreteHypersurface(verts)


def _remesh_mesh(M: DiscreteHypersurface, lo: float, hi: float) -> DiscreteHypersurface:
    verts = [v for v in M.vertices]
    faces = M.faces.copy()
    for _ in range(64):
        arr = np.array(verts)
        e = np.concatenate([faces[:, [0, 1]], faces[:, [1, 2]], faces[:, [2, 0]]])
        und = np.unique(np.sort(e, axis=1), axis=0)
        lens = np.linalg.norm(arr[und[:, 0]] - arr[und[:, 1]], axis=1)
        long_edges = und[lens > hi]
        if long_edges.shape[0] == 0:
            break
        # split an independent set per round: no two chosen edges share a face
        edge_to_faces: dict[tuple[int, int], list[int]] = {}
        for fi, (i, j, k) in enumerate(faces):
            for key in ((i, j), (j, k), (k, i)):
                edge_to_faces.setdefault(tuple(sorted(key)), []).append(fi)
        used_faces: set[int] = set()
        replacements: list[tuple[int, int]] = []
        for i, j in long_edges:
            fs = edge_to_faces[(int(i), int(j))]
            if any(f in used_faces for f in fs):
                continue
            used_faces.update(fs)
            replacements.append((int(i), int(j)))
        new_faces = faces.tolist()
        for i, j in replacements:
            mid = 0.5 * (np.array(verts[i]) + np.array(verts[j]))
            m_idx = len(verts)
            verts.append(mid)
            for fi in edge_to_faces[(min(i, j), max(i, j))]:
                tri = faces[fi].tolist()
                a, b, c = tri
                # rotate so the split edge is (a, b)
                for _r in range(3):
                    if {a, b} == {i, j}:
                        break
                    a, b, c = b, c, a
                new_faces[fi] = [a, m_idx, c]
                new_faces.append([m_idx, b, c])
        faces = np.array(new_faces, dtype=np.int64)
    else:
        raise MeshDegeneracy("edge splitting did not terminate")
    arr = np.array(verts)
    out = DiscreteHypersurface(arr, faces)
    if float(out.edge_lengths.min()) < lo:
        raise MeshDegeneracy("short edges below band; mesh collapse is not supported")
    return out
