"""Plane reflection predicates, first-touch times and sphericity certificates.

A surface "strictly reflects" at a plane when the mirror image of its far
half lands strictly inside the enclosed region and the plane normal is
nowhere tangent along the intersection.  At mesh scale both clauses are
evaluated with a tolerance band: reflected vertices inside the band are
inconclusive and produce a non-strict verdict rather than a failure, so the
discrete answer is stable under refinement.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import CenterOutside, NeverTouches, StartNotStrict
from .flow_engine import Trajectory
from .geometry import fibonacci_sphere_directions, uniform_circle_directions
from .hypersurface import (
    Containment,
    DiscreteHypersurface,
    contains_point,
    signed_interior_distance,
    surface_distance,
)

INCLUSION_BAND_FACTOR = 1e-6  # default tolerance band, relative to bbox diagonal
TANGENCY_ANGLE_TOL = 1e-3  # radians


@dataclass(frozen=True)
class Hyperplane:
    """Oriented plane { y : <y, V> = c } with unit normal V."""

    V: np.ndarray
    c: float

    def __post_init__(self):
        v = np.asarray(self.V, dtype=float)
        norm = np.linalg.norm(v)
        if norm == 0.0:
            raise ValueError("plane direction must be nonzero")
        object.__setattr__(self, "V", v / norm)
        object.__setattr__(self, "c", float(self.c))

    def signed_coordinate(self, points: np.ndarray) -> np.ndarray:
        return np.atleast_2d(points) @ self.V - self.c

    def reflect(self, points: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        s = pts @ self.V - self.c
        return pts - 2.0 * s[:, None] * self.V[None, :]


class ReflectionStatus(enum.Enum):
    STRICT = "strict"
    NONSTRICT = "nonstrict"
    FAILS = "fails"
    VACUOUS = "vacuous"


@dataclass(frozen=True)
class ReflectionVerdict:
    status: ReflectionStatus
    inclusion_margin: float
    tangency_margin: float  # min angle (radians) between V and tangent spaces at the plane
    details: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.status is ReflectionStatus.STRICT:
            if not (self.inclusion_margin > 0.0 and self.tangency_margin > 0.0):
                raise ValueError("strict verdict requires positive margins")

    def to_json_dict(self) -> dict:
        out = {
            "schema_version": 1,
            "status": self.status.value,
            "inclusion_margin": self.inclusion_margin,
            "tangency_margin": self.tangency_margin,
        }
        if self.details:
            out["details"] = {
                k: (v.tolist() if isinstance(v, np.ndarray) else v)
                for k, v in self.details.items()
            }
        return out


def strict_reflection_check(
    M: DiscreteHypersurface,
    plane: Hyperplane,
    tol: float | None = None,
    angle_tol: float = TANGENCY_ANGLE_TOL,
) -> ReflectionVerdict:
    """Classify the reflection of M at the plane.

    Vacuous when the surface misses the closed far half-space entirely.
    Otherwise every vertex beyond the plane by more than the band is
    reflected and tested against the enclosed region: all clearly inside and
    no near-tangency gives Strict; any clearly outside gives Fails with
    witnesses; anything within the band gives NonStrict.
    """
    band = tol if tol is not None else INCLUSION_BAND_FACTOR * M.bbox_diagonal
    s = plane.signed_coordinate(M.vertices)

    if float(s.max()) < -band:
        return ReflectionVerdict(
            status=ReflectionStatus.VACUOUS,
            inclusion_margin=math.inf,
            tangency_margin=math.inf,
            details={"support_gap": float(-s.max())},
        )

    # tangency candidates: vertices in the plane band plus endpoints of
    # plane-crossing edges (coarse meshes may have no vertex near the plane)
    near = np.abs(s) <= band
    near = near | _crossing_endpoints(M, s)
    if np.any(near):
        normals = M.curvature_data.normals[near]
        angles = np.arcsin(np.clip(np.abs(normals @ plane.V), 0.0, 1.0))
        tangency_margin = float(angles.min())
    else:
        tangency_margin = math.pi / 2.0

    crossers = s > band
    if not np.any(crossers):
        # touching configuration only: nothing clearly beyond the plane
        return ReflectionVerdict(
            status=ReflectionStatus.NONSTRICT,
            inclusion_margin=0.0,
            tangency_margin=tangency_margin,
            details={"note": "no vertex beyond the plane band"},
        )

    reflected = plane.reflect(M.vertices[crossers])
    depth = signed_interior_distance(M, reflected)
    inclusion_margin = float(depth.min())
    worst = int(np.argmin(depth))

    if inclusion_margin < -band:
        return ReflectionVerdict(
            status=ReflectionStatus.FAILS,
            inclusion_margin=inclusion_margin,
            tangency_margin=tangency_margin,
            details={
                "witness_reflected": reflected[worst],
                "witness_source": M.vertices[crossers][worst],
            },
        )
    if inclusion_margin > band and tangency_margin > angle_tol:
        return ReflectionVerdict(
            status=ReflectionStatus.STRICT,
            inclusion_margin=inclusion_margin,
            tangency_margin=tangency_margin,
        )
    return ReflectionVerdict(
        status=ReflectionStatus.NONSTRICT,
        inclusion_margin=inclusion_margin,
        tangency_margin=tangency_margin,
    )


def _crossing_endpoints(M: DiscreteHypersurface, s: np.ndarray) -> np.ndarray:
    mask = np.zeros(M.num_vertices, dtype=bool)
    if M.dimension == 1:
        nxt = np.roll(np.arange(M.num_vertices), -1)
        cross = s * s[nxt] < 0.0
        mask[np.nonzero(cross)[0]] = True
        mask[nxt[cross]] = True
    else:
        e = M.topology.unique_edges
        cross = s[e[:, 0]] * s[e[:, 1]] < 0.0
        mask[e[cross].ravel()] = True
    return mask


def first_touch_time(
    traj: Trajectory, plane: Hyperplane, resolution: float | None = None
) -> float:
    """Earliest time at which the trajectory's support reaches the plane.

    Scans stored frames for the first support value >= c, then bisects on
    linearly interpolated vertices between the bracketing frames.  The
    returned time is accurate to ``resolution`` (default: 1e-4 of the frame
    spacing) provided frames are dense enough that support is monotone
    across the bracket.
    """
    supports = traj.support_series(plane.V)
    c = plane.c
    hits = np.nonzero(supports >= c)[0]
    if hits.shape[0] == 0:
        raise NeverTouches(
            f"support never reaches c = {c} (max {float(supports.max()):.6g})"
        )
    j = int(hits[0])
    if j == 0:
        return traj.frames[0][0]
    ta = traj.frames[j - 1][0]
    tb = traj.frames[j][0]
    res = resolution if resolution is not None else 1e-4 * (tb - ta)

    def support_at(t: float) -> float:
        return float(np.max(traj.interpolate_vertices(t) @ plane.V))

    lo, hi = ta, tb
    while hi - lo > res:
        mid = 0.5 * (lo + hi)
        if support_at(mid) >= c:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def monitor_reflection(
    traj: Trajectory,
    plane: Hyperplane,
    t_start: float,
    stride: int = 1,
    tol: float | None = None,
    angle_tol: float = TANGENCY_ANGLE_TOL,
) -> list[tuple[float, ReflectionVerdict]]:
    """Reflection verdicts along the trajectory from t_start to the end.

    Requires a strict verdict at the starting frame; sampled frames follow
    at the given stride (the final frame is always included).  The first
    non-strict or failing frame is flagged in the verdict details so mesh
    scale violations can be triaged by margin size.
    """
    frames = traj.frames_from(t_start)
    if not frames:
        raise StartNotStrict(f"trajectory has no frames at or after t = {t_start}")
    first = strict_reflection_check(frames[0][1], plane, tol, angle_tol)
    if first.status is not ReflectionStatus.STRICT:
        raise StartNotStrict(
            f"verdict at t = {frames[0][0]} is {first.status.value}, not strict"
        )
    picked = frames[::max(1, stride)]
    if picked[-1][0] != frames[-1][0]:
        picked.append(frames[-1])
    out = [(frames[0][0], first)]
    for t, M in picked[1:]:
        out.append((t, strict_reflection_check(M, plane, tol, angle_tol)))
    return out


@dataclass(frozen=True)
class SymmetryOutcome:
    """Result of the all-planes-through-a-center reflection audit."""

    spherical: bool
    deviation: float  # (max - min) / mean of vertex radii about the center
    max_reflection_defect: float  # worst reflected-vertex distance to the surface
    witness_direction: np.ndarray | None
    directions_checked: int

    def to_json_dict(self) -> dict:
        return {
            "schema_version": 1,
            "spherical": self.spherical,
            "deviation": self.deviation,
            "max_reflection_defect": self.max_reflection_defect,
            "witness_direction": None
            if self.witness_direction is None
            else self.witness_direction.tolist(),
            "directions_checked": self.directions_checked,
        }


def _direction_set(dimension: int, directions: int | np.ndarray) -> np.ndarray:
    """Unit plane normals: a count spread evenly, or the given array."""
    if isinstance(directions, (int, np.integer)):
        if dimension == 1:
            return uniform_circle_directions(int(directions))
        return fibonacci_sphere_directions(int(directions))
    return np.atleast_2d(np.asarray(directions, dtype=float))


def symmetry_certificate(
    M: DiscreteHypersurface,
    center,
    directions: int | np.ndarray = 64,
    tol: float = 1e-6,
) -> SymmetryOutcome:
    """Certify (or refute) that M is a round sphere about the center.

    Radius deviation (max - min)/mean decides the verdict; reflection
    residuals across sampled planes through the center are reported as
    supporting evidence.  The witness for a failure points at the vertex of
    largest radius.
    """
    center = np.asarray(center, dtype=float)
    if contains_point(M, center) is not Containment.INSIDE:
        raise CenterOutside(f"center {tuple(center)} is not inside the surface")
    dirs = _direction_set(M.dimension, directions)
    radii = np.linalg.norm(M.vertices - center, axis=1)
    mean_r = float(radii.mean())
    deviation = float((radii.max() - radii.min()) / mean_r)

    defect = 0.0
    for v in dirs:
        plane = Hyperplane(V=v, c=float(v @ center))
        reflected = plane.reflect(M.vertices)
        defect = max(defect, float(surface_distance(M, reflected).max()))

    spherical = deviation < tol
    witness = None
    if not spherical:
        witness = (M.vertices[int(np.argmax(radii))] - center) / radii.max()
    return SymmetryOutcome(
        spherical=spherical,
        deviation=deviation,
        max_reflection_defect=defect,
        witness_direction=witness,
        directions_checked=dirs.shape[0],
    )
