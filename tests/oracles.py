"""Test-local oracles and fixtures: small reference versions of what the library does not offer.

``chebyshev_center``, ``touch_times`` and ``monitor`` give the tests a centre
search, a first-touch table and a one-plane monitoring run, and
``triangles_intersect`` is the scalar pair test that the paired
``geometry.triangles_intersect`` replaced; the shapes and the speed catalog
are inputs for property suites.
"""

import numpy as np
from scipy.spatial import cKDTree

from hyperflow.errors import MeshDegeneracy
from hyperflow.hypersurface import DiscreteHypersurface, signed_interior_distance
from hyperflow.reflection import Hyperplane, _touch_time, _walk
from hyperflow.shapes import icosphere
from hyperflow.speeds import (
    SpeedFunction,
    curvature_product,
    mean_curvature,
    mean_curvature_power,
    sqrt_second_symmetric,
)


def chebyshev_center(M: DiscreteHypersurface) -> np.ndarray:
    """The deepest interior point of a grid over M's bounding box, refined once about it.

    Every grid point is measured.  On meshes the grid and the vertex
    centroid are visited in descending order of their distance to the
    nearest vertex, so of equally deep points the one farthest from the
    vertices wins.
    """
    dim = M.dimension + 1
    resolution = 129 if dim == 2 else 33
    lo, hi = M.vertices.min(axis=0), M.vertices.max(axis=0)

    def search(lo_, hi_, res):
        axes = [np.linspace(lo_[i], hi_[i], res) for i in range(dim)]
        pts = np.column_stack([m.ravel() for m in np.meshgrid(*axes, indexing="ij")])
        if dim == 3:
            pts = np.vstack([pts, M.vertices.mean(axis=0)[None, :]])
            proxy, _ = cKDTree(M.vertices).query(pts)
            pts = pts[np.argsort(proxy)[::-1]]
        d = signed_interior_distance(M, pts)
        j = int(np.argmax(d))
        return pts[j] if d[j] > 0.0 else None

    best = search(lo, hi, resolution)
    if best is None:
        raise MeshDegeneracy("no interior grid point found")
    cell = (hi - lo) / (resolution - 1)
    refined = search(best - cell, best + cell, 17)
    return refined if refined is not None else best


def touch_times(traj, V, offsets) -> list:
    """First-touch time of the plane along V at each offset, None where the flow never reaches it."""
    planes = [Hyperplane(V=V, c=c) for c in offsets]
    supports = traj.support_series(planes[0].V)
    return [_touch_time(traj, supports, plane) for plane in planes]


def monitor(traj, plane, t_start, stride=1):
    """The verdict at the first frame from t_start on, and the monitoring run a strict one starts."""
    f = int(np.flatnonzero(traj.times() >= t_start - 1e-12)[0])
    [([start], run)] = _walk(traj, [plane], [[f]], lambda _: max(1, stride))
    return start, run


def triangles_intersect(t1: np.ndarray, t2: np.ndarray) -> bool:
    """Exact-ish intersection test for two triangles in space.

    Separating-plane rejection first, then mutual edge-against-triangle
    segment tests.  Intended for the few candidate pairs that survive a
    spatial prune; shared-vertex pairs should be excluded by the caller.
    """
    n1 = np.cross(t1[1] - t1[0], t1[2] - t1[0])
    d2 = (t2 - t1[0]) @ n1
    if np.all(d2 > 1e-14) or np.all(d2 < -1e-14):
        return False
    n2 = np.cross(t2[1] - t2[0], t2[2] - t2[0])
    d1 = (t1 - t2[0]) @ n2
    if np.all(d1 > 1e-14) or np.all(d1 < -1e-14):
        return False
    for tri, other in ((t1, t2), (t2, t1)):
        for i in range(3):
            if _segment_hits_triangle(other[i], other[(i + 1) % 3], tri):
                return True
    return False


def _segment_hits_triangle(p, q, tri) -> bool:
    n = np.cross(tri[1] - tri[0], tri[2] - tri[0])
    nn = float(n @ n)
    if nn == 0.0:
        return False
    dp = float((p - tri[0]) @ n)
    dq = float((q - tri[0]) @ n)
    if dp * dq > 0.0:
        return False
    denom = dp - dq
    if denom == 0.0:
        return False  # coplanar segment, treated as non-crossing at this scale
    t = dp / denom
    x = p + t * (q - p)
    # barycentric containment
    v0 = tri[1] - tri[0]
    v1 = tri[2] - tri[0]
    v2 = x - tri[0]
    d00 = float(v0 @ v0)
    d01 = float(v0 @ v1)
    d11 = float(v1 @ v1)
    d20 = float(v2 @ v0)
    d21 = float(v2 @ v1)
    den = d00 * d11 - d01 * d01
    if den == 0.0:
        return False
    v = (d11 * d20 - d01 * d21) / den
    w = (d00 * d21 - d01 * d20) / den
    return v >= -1e-12 and w >= -1e-12 and v + w <= 1.0 + 1e-12


def noisy_sphere(radius: float = 1.0, amplitude: float = 0.01, subdivisions: int = 3, seed: int = 0) -> DiscreteHypersurface:
    """Sphere with seeded uniform radial noise, for negative-control tests."""
    sphere = icosphere(1.0, subdivisions)
    rng = np.random.default_rng(seed)
    r = radius * (1.0 + amplitude * rng.uniform(-1.0, 1.0, size=sphere.num_vertices))
    return DiscreteHypersurface(sphere.vertices * r[:, None], sphere.faces)


def noisy_circle(radius: float = 1.0, amplitude: float = 0.01, count: int = 256, seed: int = 0) -> DiscreteHypersurface:
    theta = 2.0 * np.pi * np.arange(count) / count
    rng = np.random.default_rng(seed)
    r = radius * (1.0 + amplitude * rng.uniform(-1.0, 1.0, size=count))
    return DiscreteHypersurface(np.column_stack([r * np.cos(theta), r * np.sin(theta)]))


def peanut_polygon(count: int = 128) -> DiscreteHypersurface:
    """Non-convex dumbbell; its waist has negative curvature."""
    theta = 2.0 * np.pi * np.arange(count) / count
    r = 1.0 + 0.6 * np.cos(2.0 * theta)
    verts = np.column_stack([r * np.cos(theta), r * np.sin(theta)])
    return DiscreteHypersurface(verts)


def catalog(n: int) -> list[SpeedFunction]:
    """The built-in speeds at a given arity (used by property suites)."""
    speeds = [
        mean_curvature(n),
        mean_curvature_power(n, 0.5),
        mean_curvature_power(n, 2.0),
        curvature_product(n),
    ]
    if n == 2:
        speeds.append(sqrt_second_symmetric(2))
    return speeds
