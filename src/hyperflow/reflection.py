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
from collections.abc import Callable
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import NeverTouches, StartNotStrict
from .flow_engine import Trajectory, _heights
from .hypersurface import (
    BOUNDARY_TOL_FACTOR,
    Containment,
    DiscreteHypersurface,
    _elements,
    _pseudonormal_inside,
    contains_point,
    signed_interior_distance,
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
        if not (np.isfinite(v).all() and math.isfinite(self.c)):
            raise ValueError("plane direction and offset must be finite")
        norm = np.linalg.norm(v)
        if norm == 0.0:
            raise ValueError("plane direction must be nonzero")
        object.__setattr__(self, "V", v / norm)
        object.__setattr__(self, "c", float(self.c))

    def signed_coordinate(self, points: np.ndarray) -> np.ndarray:
        return _heights(np.atleast_2d(points), self.V) - self.c

    def reflect(self, points: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        return pts - 2.0 * self.signed_coordinate(pts)[:, None] * self.V[None, :]


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
    M: DiscreteHypersurface, plane: Hyperplane, tol: float | None = None
) -> ReflectionVerdict:
    """Classify the reflection of M at the plane.

    Vacuous when the surface misses the closed far half-space entirely.
    Otherwise every vertex beyond the plane by more than the band is
    reflected and tested against the enclosed region: all clearly inside and
    no near-tangency gives Strict; any clearly outside gives Fails with
    witnesses; anything within the band gives NonStrict.
    """
    return _verdicts(M, [plane], tol)[0]


def _verdicts(
    M: DiscreteHypersurface, planes: list[Hyperplane], tol: float | None = None
) -> list[ReflectionVerdict]:
    """``strict_reflection_check`` of M at each plane, in one pass over the planes.

    The heights s of the vertices above every plane, (planes, V), come from
    ``_heights``, so each row has the bits of its plane's
    ``signed_coordinate``.  The vacuous test, the tangency candidates, the
    crossers, their heights and images and each plane's U = 2 s_min are
    array operations on s; the tangency cosines are ``_heights`` of the
    gathered (vertex normal, plane normal) pairs.  The ``arcsin``, the least
    angles and the images run once for all the planes, and ``_judge`` reads
    each plane's depths.

    A verdict reads only the least interior depth of a plane's reflected
    vertices and the first vertex that attains it, so ``_least_depths``
    measures the vertices that can attain it and certifies the others deeper
    without measuring them; they read +inf.  U bounds each plane's least
    depth from above at no cost: images inside the inscribed ball of M and
    deeper than U by the ball's bound need no query.  That is almost every
    image of a near-round frame and fewer on an eccentric one: about a
    quarter on a 1.5 : 1 : 0.75 ellipsoid at planes parallel to its mirror
    planes.  The reflected vertices of every plane share one ball test, and
    the images the ball leaves share one ``signed_interior_distance`` call,
    which measures each point on its own.  On an embedded surface, the
    precondition of ``signed_interior_distance``, every verdict is bitwise
    the one that measuring every reflected vertex gives, and the one a call
    for its plane alone gives.
    """
    for plane in planes:
        if plane.V.shape != (M.dimension + 1,):
            raise ValueError(
                f"plane direction has {plane.V.size} components, "
                f"but the surface lies in {M.dimension + 1} dimensions"
            )
    if tol is not None and not 0.0 <= tol < math.inf:
        raise ValueError(f"tol must be finite and non-negative, got {tol}")
    if not planes:
        return []
    band = tol if tol is not None else INCLUSION_BAND_FACTOR * M.bbox_diagonal
    V = np.array([plane.V for plane in planes])
    c = np.array([plane.c for plane in planes])
    s = _heights(M.vertices, V[:, None]) - c[:, None]
    top = s.max(axis=1)  # a vacuous plane has no tangency candidate and no crosser

    # tangency candidates: vertices in the plane band plus endpoints of
    # plane-crossing edges (coarse meshes may have no vertex near the plane)
    near = np.abs(s) <= band
    a, b = M.edges.T
    with np.errstate(over="ignore"):  # far heights' products overflow to inf of the right sign
        k, e = np.divmod(np.flatnonzero(s.take(a, axis=1) * s.take(b, axis=1) < 0.0), a.shape[0])
    near[k, a[e]] = True
    near[k, b[e]] = True
    near_at, near_plane, near_vertex = _plane_rows(near)
    cos = _heights(M.curvature_data.normals.take(near_vertex, axis=0), V.take(near_plane, axis=0))
    crossers = s > band
    cross_at, cross_plane, cross_vertex = _plane_rows(crossers)
    source = M.vertices.take(cross_vertex, axis=0)
    h = s[crossers]
    reflected = source - 2.0 * h[:, None] * V.take(cross_plane, axis=0)

    tangent = near_at[1:] > near_at[:-1]
    tangency = np.full(len(planes), math.pi / 2.0)
    if tangent.any():  # |cos| >= 0, so of the clip to [0, 1] only the upper bound acts
        angles = np.arcsin(np.minimum(np.abs(cos), 1.0))
        tangency[tangent] = np.minimum.reduceat(angles, near_at[:-1][tangent])
    beyond = cross_at[1:] > cross_at[:-1]
    if beyond.any():
        bounds = 2.0 * np.minimum.reduceat(h, cross_at[:-1][beyond])
        depth = _least_depths(M, reflected, np.repeat(bounds, np.diff(cross_at)[beyond]))

    out = []
    cross_runs = zip(cross_at.tolist(), cross_at[1:].tolist())
    for top_i, tangency_i, (lo, hi) in zip(top.tolist(), tangency.tolist(), cross_runs):
        if top_i < -band:
            out.append(ReflectionVerdict(
                status=ReflectionStatus.VACUOUS,
                inclusion_margin=math.inf,
                tangency_margin=math.inf,
                details={"support_gap": -top_i},
            ))
        elif lo == hi:  # touching configuration only: nothing clearly beyond the plane
            out.append(ReflectionVerdict(
                status=ReflectionStatus.NONSTRICT,
                inclusion_margin=0.0,
                tangency_margin=tangency_i,
                details={"note": "no vertex beyond the plane band"},
            ))
        else:
            out.append(_judge(band, tangency_i, source[lo:hi], reflected[lo:hi], depth[lo:hi]))
    return out


def _plane_rows(mask: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The (plane, vertex) pairs where a (planes, V) mask holds, plane by plane in vertex order.

    Returns the offsets that bound each plane's run of pairs, planes + 1 of
    them, then the plane and the vertex of each pair.
    """
    n = mask.shape[1]
    flat = np.flatnonzero(mask)
    plane = flat // n
    return np.searchsorted(flat, np.arange(mask.shape[0] + 1) * n), plane, flat - plane * n


@lru_cache(maxsize=1)
def _inscribed_ball(M: DiscreteHypersurface) -> tuple[np.ndarray, float]:
    """A ball inside M: the vertex centroid x0 and a radius, at most 0 when there is none.

    x0 at depth d0 > 0 clears M by d0, so the open ball B(x0, d0) lies
    inside M and an image p there has depth at least d0 - |p - x0|.  The
    radius is d0 less 1e-12 of the largest coordinate, which covers the
    rounding of the depths, the reflections, the heights and |p - x0| of
    points near M.  d0 and the side of x0 are those of ``classify_points``
    and ``signed_interior_distance``, but x0 is measured against every
    element in one kernel call.  For one point deep inside, that is cheaper
    than the centroid-grid query up to several thousand elements (best of
    several on a 2-core x86 host): 0.09 against 0.36-0.40 ms on a 256-gon,
    0.5-0.8 against 0.9 ms at 1 280 triangles, 1.0 against 1.2-1.4 ms at
    5 120, and 3.5-3.8 against 1.5-2.3 ms at 20 480.  Kept for the last
    surface asked about, as ``_elements``: the planes checked at one frame
    share it.
    """
    x0 = M.vertices.mean(axis=0)
    el = _elements(M)
    dist = el.distance(np.broadcast_to(x0, el.corners[0].shape), *el.corners)
    d0 = dist.min()
    # a boundary point, or one outside, gives no ball; of the nearest
    # elements the sign reads the last, as the grid query does
    if not (d0 >= BOUNDARY_TOL_FACTOR * M.bbox_diagonal
            and _pseudonormal_inside(M, x0[None, :], np.flatnonzero(dist == d0)[-1:])[0]):
        return x0, 0.0
    return x0, float(d0) - 1e-12 * float(np.abs(M.vertices).max())


def _least_depths(M: DiscreteHypersurface, reflected: np.ndarray, bounds: np.ndarray) -> np.ndarray:
    """Interior depths of the reflected vertices, +inf where certified deeper than the least.

    ``bounds`` holds, for each image, its plane's U = 2 s_min, with s_min
    the height of the plane's crosser nearest the plane: that crosser's
    image lies 2 s_min from the crosser itself, a point of M, so the plane's
    least depth is at most U.  An image inside the ball of
    ``_inscribed_ball`` with d0 - |p - x0| > U is inside and deeper than U,
    so it reads +inf without a query.  On a near-round frame, such as those
    of an audited flow that comes out of a point, that is almost every
    image; on an eccentric surface the ball certifies fewer, and a vertex
    centroid that is not inside gives no ball.  The other images are
    measured in one ``signed_interior_distance`` call.
    """
    x0, radius = _inscribed_ball(M)
    # with no ball (radius <= 0) every image is unsure, as U > 0; a norm
    # that overflows leaves its image unsure, and the query rejects it
    with np.errstate(over="ignore"):
        unsure = radius - np.linalg.norm(reflected - x0, axis=1) <= bounds
    depth = np.full(reflected.shape[0], np.inf)
    depth[unsure] = signed_interior_distance(M, reflected[unsure])
    return depth


def _judge(band, tangency_margin, source, reflected, depth) -> ReflectionVerdict:
    """Verdict from the interior depths of the reflected vertices."""
    inclusion_margin = float(depth.min())
    if inclusion_margin < -band:
        worst = int(np.argmin(depth))
        return ReflectionVerdict(
            status=ReflectionStatus.FAILS,
            inclusion_margin=inclusion_margin,
            tangency_margin=tangency_margin,
            details={"witness_reflected": reflected[worst], "witness_source": source[worst]},
        )
    if inclusion_margin > band and tangency_margin > TANGENCY_ANGLE_TOL:
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


def first_touch_time(traj: Trajectory, plane: Hyperplane) -> float:
    """Earliest time at which the trajectory's support reaches the plane.

    Scans stored frames for the first support value >= c, then solves for
    the first crossing between the bracketing frames.  The time is exact
    for linearly interpolated frames, and it is the touch time of the flow
    provided frames are dense enough that support is monotone across the
    bracket.
    """
    supports = traj.support_series(plane.V)
    tau = _touch_time(traj, supports, plane)
    if tau is None:
        raise NeverTouches(
            f"support never reaches c = {plane.c} (max {float(supports.max()):.6g})"
        )
    return tau


def _touch_time(traj: Trajectory, supports: np.ndarray, plane: Hyperplane) -> float | None:
    """First-touch time given the trajectory's support series along plane.V.

    None when the support never reaches the plane.  Otherwise the time is a
    frame time or lies in the frame bracket where the support first reaches
    c, so it is never past the last frame.
    """
    c = plane.c
    hits = np.nonzero(supports >= c)[0]
    if hits.shape[0] == 0:
        return None
    j = int(hits[0])
    if j == 0:
        return traj.frames[0][0]
    # vertex i crosses at fraction (c - a_i) / d_i; all a_i < c since frame
    # j - 1 falls short (these heights have the support series' bits), and
    # the first vertex across sets the support
    ta, xa, tb, xb = traj.bracket(j)
    a = _heights(xa, plane.V)
    d = _heights(xb, plane.V) - a
    rising = d > 0.0
    return ta + (tb - ta) * float(np.min((c - a[rising]) / d[rising]))


def monitor_reflection(
    traj: Trajectory, plane: Hyperplane, t_start: float, stride: int = 1
) -> list[tuple[float, ReflectionVerdict]]:
    """Reflection verdicts along the trajectory from t_start to the end.

    Requires a strict verdict at the starting frame; sampled frames follow
    at the given stride (the final frame is always included).  Monitoring
    stops at the first failing or vacuous verdict, which is then the last
    one returned.  This is the frame walk of the rigidity audit for one
    plane, whose one probe is the starting frame.
    """
    times = traj.times()
    frames = np.flatnonzero(times >= t_start - 1e-12)
    if not frames.size:
        raise StartNotStrict(f"trajectory has no frames at or after t = {t_start}")
    f = int(frames[0])
    [([start], run)] = _walk(traj, [plane], [[f]], lambda _: max(1, stride))
    if not run:
        raise StartNotStrict(f"verdict at t = {traj.frames[f][0]} is {start.status.value}, not strict")
    return run


def _walk(
    traj: Trajectory, planes: list[Hyperplane], probes: list[list[int]], stride: Callable[[int], int]
) -> list[tuple[list[ReflectionVerdict], list[tuple[float, ReflectionVerdict]]]]:
    """Verdicts of each plane at its probe frames and along its monitoring run.

    ``probes[i]`` lists plane i's probe frames in ascending order; every
    probe is checked.  The first strict probe, at frame f, starts the
    plane's monitoring: the frames from f on at the stride ``stride(f)``,
    plus the last frame, up to the first failing or vacuous verdict.  The
    walk visits the frames in ascending order and the planes due at a frame
    share one ``_verdicts`` call, so each (plane, frame) pair is checked at
    most once and each frame builds its distance tables once.

    Returns, per plane, the verdicts of its probes in probe order and its
    monitoring run as (time, verdict) pairs, empty when no probe is strict.
    """
    last = len(traj.frames) - 1
    probed: list[list[ReflectionVerdict]] = [[] for _ in planes]
    runs: list[list[tuple[float, ReflectionVerdict]]] = [[] for _ in planes]
    watch: list[list[int]] = [[] for _ in planes]  # monitoring frames still to visit, descending

    def due(i: int) -> int | None:
        k = len(probed[i])
        return min(probes[i][k:k + 1] + watch[i][-1:], default=None)

    nexts = [due(i) for i in range(len(planes))]
    while any(g is not None for g in nexts):
        f = min(g for g in nexts if g is not None)
        at = [i for i, g in enumerate(nexts) if g == f]
        t = traj.frames[f][0]
        for i, verdict in zip(at, _verdicts(traj.frames[f][1], [planes[i] for i in at])):
            if watch[i] and watch[i][-1] == f:
                watch[i].pop()
                runs[i].append((t, verdict))
                if verdict.status in (ReflectionStatus.FAILS, ReflectionStatus.VACUOUS):
                    watch[i].clear()
            while len(probed[i]) < len(probes[i]) and probes[i][len(probed[i])] == f:
                probed[i].append(verdict)
                if not runs[i] and verdict.status is ReflectionStatus.STRICT:
                    runs[i].append((t, verdict))
                    picked = list(range(f, last + 1, stride(f)))
                    if picked[-1] != last:
                        picked.append(last)
                    watch[i] = picked[:0:-1]
            nexts[i] = due(i)
    return list(zip(probed, runs))


@dataclass(frozen=True)
class SymmetryOutcome:
    """Result of the sphericity certificate of one surface about a center."""

    spherical: bool
    center_inside: bool
    spread: float  # max - min of the vertex radii about the center
    deviation: float  # spread / mean of the vertex radii
    witness_direction: np.ndarray | None

    def to_json_dict(self) -> dict:
        return {
            "schema_version": 2,
            "spherical": self.spherical,
            "center_inside": self.center_inside,
            "spread": self.spread,
            "deviation": self.deviation,
            "witness_direction": None
            if self.witness_direction is None
            else self.witness_direction.tolist(),
        }


def symmetry_certificate(M: DiscreteHypersurface, center, tol: float) -> SymmetryOutcome:
    """Certify (or refute) that M is round within tol about the center.

    M is spherical when it contains the center and the spread of its vertex
    radii, max |x - center| - min |x - center|, is at most tol.  The vertices
    lie on the surface, so the spread is at most rho_plus - rho_minus of the
    surface about the center.  The witness for a failure points at the
    vertex of largest radius.
    """
    if not 0.0 < tol < math.inf:  # written so that NaN fails
        raise ValueError(f"tol must be finite and positive, got {tol}")
    center = np.asarray(center, dtype=float)
    inside = contains_point(M, center) is Containment.INSIDE
    radii = np.linalg.norm(M.vertices - center, axis=1)
    spread = float(radii.max() - radii.min())
    spherical = inside and spread <= tol
    witness = None
    if not spherical:
        witness = (M.vertices[int(np.argmax(radii))] - center) / radii.max()
    return SymmetryOutcome(
        spherical=spherical,
        center_inside=inside,
        spread=spread,
        deviation=spread / float(radii.mean()),
        witness_direction=witness,
    )
