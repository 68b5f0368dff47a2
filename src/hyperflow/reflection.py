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

import numpy as np

from . import geometry
from .errors import NeverTouches
from .flow_engine import Trajectory, _heights
from .hypersurface import (
    BOUNDARY_TOL_FACTOR,
    Containment,
    DiscreteHypersurface,
    _measure,
    _point,
    _snapshot,
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
    depth from above at no cost, and two certificates show an image deeper
    than U with no query.  The inscribed ball of M certifies almost every
    image of a near-round frame and fewer on an eccentric one: about a
    quarter on a 1.5 : 1 : 0.75 ellipsoid at planes parallel to its mirror
    planes.  On a surface that passes the convexity test, the element planes
    then certify every image the ball leaves that lies deeper than U, so
    only about a fifth of that ellipsoid's images are measured, and they
    measure most of those as well, each against its nearest element planes
    alone.  The reflected vertices of every plane share one ball test and
    one plane pass, the images measured by their planes share one
    ``_measure`` pass, and the images left share one
    ``signed_interior_distance`` call, which measures each point on its
    own.  On an embedded surface, the precondition of
    ``signed_interior_distance``, every verdict is bitwise the one that
    measuring every reflected vertex gives, and the one a call for its
    plane alone gives.
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


def _plane_depths(
    planes: tuple[np.ndarray, np.ndarray], points: np.ndarray, margin: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each point's least depth below the element planes, and the elements within ``margin`` of it.

    With lb_e(p) = n_e . a_e - slack - n_e . p, returns least(p), the min
    over e of lb_e(p), then the pairs (point, element) with lb_e(p) <=
    least(p) + margin, point by point.  On an embedded M, least is at most
    the interior depth of a point inside and at most 0 for a point outside
    (see ``_least_depths``); inside a convex M it is the depth less the
    slack.  The depths are only compared, never reported, so a matrix
    product forms them.  Blocks of points hold at most ``geometry._PAIRS``
    point-plane pairs.  A far point whose products overflow reads -inf or
    NaN, and has no pair when it reads NaN.
    """
    normals, offsets = planes
    least = np.empty(points.shape[0])
    owner, elems = [], []
    step = geometry._block(offsets.shape[0])
    with np.errstate(over="ignore", invalid="ignore"):
        for s in range(0, points.shape[0], step):
            below = points[s : s + step] @ normals.T
            np.subtract(offsets, below, out=below)
            low = np.min(below, axis=1, out=least[s : s + step])
            i, e = np.divmod(np.flatnonzero(below <= (low + margin)[:, None]), offsets.shape[0])
            owner.append(i + s)
            elems.append(e)
    return least, np.concatenate(owner), np.concatenate(elems)


def _least_depths(M: DiscreteHypersurface, reflected: np.ndarray, bounds: np.ndarray) -> np.ndarray:
    """Interior depths of the reflected vertices, +inf where certified deeper than the least.

    ``bounds`` holds, for each image, its plane's U = 2 s_min, with s_min
    the height of the plane's crosser nearest the plane: that crosser's
    image lies 2 s_min from the crosser itself, a point of M, so the plane's
    least depth is at most U.  First the inscribed ball of ``_snapshot``: an
    image p with d0 - |p - x0| > U is inside and deeper than U, and reads
    +inf with no query.  On a surface that is not convex every image the
    ball leaves is measured, in one ``signed_interior_distance`` call.

    On a convex M every image the ball leaves gets its depths below the
    element planes of ``_snapshot`` in one blocked pass, ``_plane_depths``
    with margin delta = 4 slack, and is routed by its least plane depth
    ``least``:

    - least > U: the image reads +inf.  By the pseudonormal theorem that
      ``signed_interior_distance`` rests on, a point outside an embedded M
      lies on the outer side of the plane of the element that holds its
      closest point, and a point inside is at least its offset below that
      plane away from M; so the image is inside and deeper than U.
    - tau < least <= U, with tau = ``BOUNDARY_TOL_FACTOR`` times the
      bounding-box diagonal plus delta: the image is measured against its
      candidates, the elements e with lb_e <= least + delta, in one
      ``_measure`` pass for all such images, and its depth is the least of
      those distances.
    - least <= tau, or NaN or -inf where the products overflow: the image
      goes to ``signed_interior_distance``, which rejects a far one.

    The measured depths have the bits of ``signed_interior_distance``.
    Inside a convex polytope the distance D to the boundary is the least
    distance to a face plane: the ball of radius D about p lies inside
    every plane, so inside M, and the foot of the perpendicular to the
    nearest plane lies in it, so on an element whose kernel distance is D.
    The kernel distance to any element is at least its plane distance.
    Each formula rounds by a few tens of units in the last place of the
    largest coordinate, normals included, on elements that are not slivers,
    while delta, 4e-12 of that coordinate, is about 18 000 of them.  So an
    element with lb_e > least + delta lies farther than the nearest plane's
    element by more than twice the rounding of both formulas and never
    attains the kernel minimum, and the candidates hold every element that
    does.  ``_nearest`` measures a set that holds every minimiser too, so
    both give the same least kernel distance.  Its sign needs no
    pseudonormal: the image lies deeper than the boundary band, where the
    pseudonormal test and its winding-number tie-break both read inside.
    """
    el = _snapshot(M)
    x0, radius, slack = el.ball
    # with no ball (radius <= 0) every image is unsure, as U > 0; a norm
    # that overflows leaves its image unsure, and the query rejects it
    with np.errstate(over="ignore"):
        unsure = np.flatnonzero(radius - np.linalg.norm(reflected - x0, axis=1) <= bounds)
    depth = np.full(reflected.shape[0], np.inf)
    if unsure.size and el.planes is not None:
        delta = 4.0 * slack
        points = reflected[unsure]
        least, owner, elems = _plane_depths(el.planes, points, delta)
        certified = least > bounds[unsure]
        inner = least > BOUNDARY_TOL_FACTOR * M.bbox_diagonal + delta
        measured = inner & ~certified
        if measured.any():
            take = measured[owner]  # the pairs run point by point, so each point's candidates are one run
            owner, elems = owner[take], elems[take]
            per = np.bincount(owner, minlength=unsure.size)[measured]
            depth[unsure[measured]] = _measure(el, points, owner, elems, per)[0]
        unsure = unsure[~(inner | certified)]
    if unsure.size:
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
    center = _point("center", center, M)
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
