"""Test-local oracles and fixtures: small reference versions of what the library does not offer.

``chebyshev_center``, ``touch_times`` and ``monitor`` give the tests a centre
search, a first-touch table and a one-plane monitoring run; the shapes and
the speed catalog are inputs for property suites.
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
