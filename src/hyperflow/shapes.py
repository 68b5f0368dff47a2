"""Built-in closed shapes: polygons on curves, icosphere-based meshes in space."""

from __future__ import annotations

import numpy as np

from .hypersurface import DiscreteHypersurface


def circle_polygon(radius: float = 1.0, count: int = 256, center=(0.0, 0.0)) -> DiscreteHypersurface:
    """Regular polygon inscribed in a circle; first vertex at angle 0."""
    if radius <= 0:
        raise ValueError("radius must be positive")
    theta = 2.0 * np.pi * np.arange(count) / count
    verts = np.column_stack([np.cos(theta), np.sin(theta)]) * radius + np.asarray(center, dtype=float)
    return DiscreteHypersurface(verts)


def ellipse_polygon(a: float, b: float, count: int = 256, center=(0.0, 0.0)) -> DiscreteHypersurface:
    """Ellipse with semi-axes (a, b), sampled at uniform parameter angles.

    Vertex 0 sits exactly at (a, 0) + center and quarter points hit the axis
    ends whenever count is a multiple of 4, so support values along the axes
    are exact.
    """
    if a <= 0 or b <= 0:
        raise ValueError("semi-axes must be positive")
    theta = 2.0 * np.pi * np.arange(count) / count
    verts = np.column_stack([a * np.cos(theta), b * np.sin(theta)]) + np.asarray(center, dtype=float)
    return DiscreteHypersurface(verts)


def square_polygon(side: float = 2.0, per_side: int = 1, center=(0.0, 0.0)) -> DiscreteHypersurface:
    """Axis-aligned square traversed counter-clockwise."""
    if side <= 0:
        raise ValueError("side must be positive")
    h = side / 2.0
    corners = np.array([[h, -h], [h, h], [-h, h], [-h, -h]])
    pts = []
    for i in range(4):
        p, q = corners[i], corners[(i + 1) % 4]
        for t in np.arange(per_side) / per_side:
            pts.append(p + t * (q - p))
    return DiscreteHypersurface(np.array(pts) + np.asarray(center, dtype=float))


def _icosahedron() -> tuple[np.ndarray, np.ndarray]:
    phi = (1.0 + np.sqrt(5.0)) / 2.0
    verts = np.array(
        [
            [-1, phi, 0], [1, phi, 0], [-1, -phi, 0], [1, -phi, 0],
            [0, -1, phi], [0, 1, phi], [0, -1, -phi], [0, 1, -phi],
            [phi, 0, -1], [phi, 0, 1], [-phi, 0, -1], [-phi, 0, 1],
        ],
        dtype=float,
    )
    verts /= np.linalg.norm(verts, axis=1)[:, None]
    faces = np.array(
        [
            [0, 11, 5], [0, 5, 1], [0, 1, 7], [0, 7, 10], [0, 10, 11],
            [1, 5, 9], [5, 11, 4], [11, 10, 2], [10, 7, 6], [7, 1, 8],
            [3, 9, 4], [3, 4, 2], [3, 2, 6], [3, 6, 8], [3, 8, 9],
            [4, 9, 5], [2, 4, 11], [6, 2, 10], [8, 6, 7], [9, 8, 1],
        ],
        dtype=np.int64,
    )
    return verts, faces


def icosphere(radius: float = 1.0, subdivisions: int = 4, center=(0.0, 0.0, 0.0)) -> DiscreteHypersurface:
    """Subdivided icosahedron projected to the sphere.

    Vertex count is 10 * 4^s + 2 (2562 at s = 4); every vertex lies exactly
    on the sphere of the requested radius.
    """
    if radius <= 0:
        raise ValueError("radius must be positive")
    verts, faces = _icosahedron()
    for _ in range(subdivisions):
        verts, faces = _subdivide_projected(verts, faces)
    verts = verts * radius + np.asarray(center, dtype=float)
    return DiscreteHypersurface(verts, faces)


def _subdivide_projected(verts: np.ndarray, faces: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    cache: dict[tuple[int, int], int] = {}
    new_verts = [v for v in verts]

    def midpoint(i: int, j: int) -> int:
        key = (i, j) if i < j else (j, i)
        if key in cache:
            return cache[key]
        m = new_verts[i] + new_verts[j]
        m /= np.linalg.norm(m)
        cache[key] = len(new_verts)
        new_verts.append(m)
        return cache[key]

    new_faces = []
    for i, j, k in faces:
        ij = midpoint(i, j)
        jk = midpoint(j, k)
        ki = midpoint(k, i)
        new_faces.extend([[i, ij, ki], [j, jk, ij], [k, ki, jk], [ij, jk, ki]])
    return np.array(new_verts), np.array(new_faces, dtype=np.int64)


def ellipsoid_mesh(a: float, b: float, c: float, subdivisions: int = 3, center=(0.0, 0.0, 0.0)) -> DiscreteHypersurface:
    """Axis-aligned ellipsoid as a scaled icosphere."""
    if min(a, b, c) <= 0:
        raise ValueError("semi-axes must be positive")
    sphere = icosphere(1.0, subdivisions)
    verts = sphere.vertices * np.array([a, b, c], dtype=float) + np.asarray(center, dtype=float)
    return DiscreteHypersurface(verts, sphere.faces)
