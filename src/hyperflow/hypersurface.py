"""Discrete closed hypersurfaces: polygons in the plane, triangle meshes in space.

A surface snapshot is immutable; evolution and remeshing build new instances.
Per-vertex principal curvatures come from the circle through three consecutive
vertices (curves) or from a quadratic height fit over the two-ring expressed in
first/second fundamental form terms (meshes), so every speed function receives
a full curvature tuple.  Containment queries use winding numbers, and distances
are exact element distances with a spatial prune on meshes.

The curve estimator reproduces circles exactly: three points of a circle
determine it.  That choice keeps round flows free of discretisation bias, at
the price that convergence-rate experiments need a surface with non-constant
curvature.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np
from scipy import sparse
from scipy.spatial import cKDTree

from . import geometry
from .errors import (
    CenterOutside,
    DegenerateElement,
    MeshDegeneracy,
    NonConvexInput,
)

BOUNDARY_TOL_FACTOR = 1e-9  # default OnBoundary band, relative to bbox diagonal


class Containment(enum.Enum):
    INSIDE = "inside"
    OUTSIDE = "outside"
    ON_BOUNDARY = "on_boundary"


INSIDE_CODE = np.int8(1)
OUTSIDE_CODE = np.int8(-1)
BOUNDARY_CODE = np.int8(0)


@dataclass(frozen=True)
class CurvatureData:
    """Outward unit normals and principal curvature tuples per vertex."""

    normals: np.ndarray  # (m, n+1)
    principal: np.ndarray  # (m, n), ascending per vertex


@dataclass(frozen=True)
class RadiiReport:
    center: np.ndarray
    rho_minus: float
    rho_plus: float

    def __post_init__(self):
        if not (0.0 < self.rho_minus <= self.rho_plus + 1e-12):
            raise ValueError(f"invalid radii pair ({self.rho_minus}, {self.rho_plus})")

    @property
    def ratio(self) -> float:
        return self.rho_plus / self.rho_minus


class _MeshTopology:
    """Connectivity derived from a face array, shared across frames.

    Construction also validates the purely topological invariants
    (closedness, orientability, sphere topology) so that moving vertices
    under a shared topology never re-pays those checks.
    """

    def __init__(self, faces: np.ndarray, num_vertices: int):
        self.faces = faces
        self.num_vertices = num_vertices
        edges = np.concatenate([faces[:, [0, 1]], faces[:, [1, 2]], faces[:, [2, 0]]])
        self.directed_edges = edges
        und = np.sort(edges, axis=1)
        self.unique_edges, counts = np.unique(und, axis=0, return_counts=True)
        self.edge_counts = counts
        if np.any(counts != 2):
            raise ValueError("mesh is not closed: some edge is not shared by two faces")
        if np.unique(edges, axis=0).shape[0] != edges.shape[0]:
            raise ValueError("inconsistent face orientation: repeated directed edge")
        if num_vertices - self.unique_edges.shape[0] + faces.shape[0] != 2:
            raise ValueError("mesh is not a topological sphere")

        ii = np.concatenate([self.unique_edges[:, 0], self.unique_edges[:, 1]])
        jj = np.concatenate([self.unique_edges[:, 1], self.unique_edges[:, 0]])
        adj = sparse.csr_matrix(
            (np.ones(ii.shape[0], dtype=np.int8), (ii, jj)),
            shape=(num_vertices, num_vertices),
        )
        self.adjacency = adj
        two = ((adj + adj @ adj) > 0).tolil()
        two.setdiag(0)
        two = two.tocsr()

        counts2 = np.diff(two.indptr)
        kmax = int(counts2.max())
        idx = np.full((num_vertices, kmax), -1, dtype=np.int64)
        for v in range(num_vertices):
            nbrs = two.indices[two.indptr[v] : two.indptr[v + 1]]
            idx[v, : nbrs.shape[0]] = nbrs
        self.two_ring = idx
        self.two_ring_mask = idx >= 0
        # padded rows point at vertex 0 so gathers stay in bounds
        self.two_ring_safe = np.where(self.two_ring_mask, idx, 0)


class DiscreteHypersurface:
    """Closed oriented polygonal curve (n = 1) or triangle mesh (n = 2).

    Construction validates closedness, element non-degeneracy and outward
    orientation (positive enclosed area/volume).  Full self-intersection
    sweeps are separate (``is_embedded``) because they are the one expensive
    check; run them on untrusted input and at audit checkpoints.
    """

    def __init__(self, vertices, faces=None, _topology: _MeshTopology | None = None):
        vertices = np.ascontiguousarray(np.asarray(vertices, dtype=float))
        if vertices.ndim != 2 or vertices.shape[1] not in (2, 3):
            raise ValueError("vertices must be (m, 2) or (m, 3)")
        if not np.all(np.isfinite(vertices)):
            raise ValueError("vertices must be finite")
        self.vertices = vertices
        self.vertices.setflags(write=False)

        if vertices.shape[1] == 2:
            if faces is not None:
                raise ValueError("plane curves use implicit cyclic connectivity")
            if vertices.shape[0] < 3:
                raise ValueError("closed curve needs at least 3 vertices")
            self.faces = None
            edge = np.roll(vertices, -1, axis=0) - vertices
            if np.any(np.linalg.norm(edge, axis=1) <= 0.0):
                raise DegenerateElement("zero-length polygon edge")
            if geometry.polygon_area(vertices) <= 0.0:
                raise ValueError("polygon must be counter-clockwise (positive area)")
        else:
            if faces is None:
                raise ValueError("a surface in space needs a triangle list")
            faces = np.ascontiguousarray(np.asarray(faces, dtype=np.int64))
            if faces.ndim != 2 or faces.shape[1] != 3:
                raise ValueError("faces must be (f, 3)")
            if faces.min() < 0 or faces.max() >= vertices.shape[0]:
                raise ValueError("face indices out of range")
            self.faces = faces
            self.faces.setflags(write=False)
            topo = _topology if _topology is not None else _MeshTopology(faces, vertices.shape[0])
            a = vertices[faces[:, 0]]
            b = vertices[faces[:, 1]]
            c = vertices[faces[:, 2]]
            areas = 0.5 * np.linalg.norm(np.cross(b - a, c - a), axis=1)
            if np.any(areas <= 0.0):
                raise DegenerateElement("zero-area triangle")
            if geometry.mesh_volume(vertices, faces) <= 0.0:
                raise ValueError("mesh must be oriented outward (positive volume)")
            self.__dict__["topology"] = topo

    # -- basic queries ------------------------------------------------------

    @property
    def dimension(self) -> int:
        return self.vertices.shape[1] - 1

    @property
    def num_vertices(self) -> int:
        return self.vertices.shape[0]

    @cached_property
    def topology(self) -> _MeshTopology:
        assert self.faces is not None
        return _MeshTopology(self.faces, self.num_vertices)

    @cached_property
    def bbox_diagonal(self) -> float:
        span = self.vertices.max(axis=0) - self.vertices.min(axis=0)
        return float(np.linalg.norm(span))

    @cached_property
    def edge_lengths(self) -> np.ndarray:
        if self.dimension == 1:
            return np.linalg.norm(np.roll(self.vertices, -1, axis=0) - self.vertices, axis=1)
        e = self.topology.unique_edges
        return np.linalg.norm(self.vertices[e[:, 0]] - self.vertices[e[:, 1]], axis=1)

    def with_vertices(self, vertices: np.ndarray) -> "DiscreteHypersurface":
        """New snapshot with moved vertices, sharing connectivity."""
        if self.dimension == 1:
            return DiscreteHypersurface(vertices)
        return DiscreteHypersurface(vertices, self.faces, _topology=self.topology)

    @cached_property
    def curvature_data(self) -> CurvatureData:
        if self.dimension == 1:
            normals, principal = _curve_curvatures(self.vertices)
        else:
            normals, principal = _mesh_curvatures(self.vertices, self.topology)
        normals.setflags(write=False)
        principal.setflags(write=False)
        return CurvatureData(normals=normals, principal=principal)


# ---------------------------------------------------------------------------
# Curvature estimation


def _curve_curvatures(verts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    prev = np.roll(verts, 1, axis=0)
    nxt = np.roll(verts, -1, axis=0)
    e_prev = verts - prev
    e_next = nxt - verts
    lp = np.linalg.norm(e_prev, axis=1)
    ln = np.linalg.norm(e_next, axis=1)
    if np.any(lp <= 0.0) or np.any(ln <= 0.0):
        raise DegenerateElement("zero-length polygon edge")
    # outward edge normals for a counter-clockwise curve: rotate tangent by -90 deg
    n_prev = np.column_stack([e_prev[:, 1], -e_prev[:, 0]]) / lp[:, None]
    n_next = np.column_stack([e_next[:, 1], -e_next[:, 0]]) / ln[:, None]
    bisector = n_prev + n_next
    norm = np.linalg.norm(bisector, axis=1)
    if np.any(norm <= 1e-14):
        raise MeshDegeneracy("cusp vertex: adjacent edge normals cancel")
    normals = bisector / norm[:, None]
    k = geometry.circumcircle_curvature(prev, verts, nxt)
    return normals, k[:, None]


def _tangent_basis(normals: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    helper = np.where(
        (np.abs(normals[:, 0]) < 0.9)[:, None],
        np.tile(np.array([1.0, 0.0, 0.0]), (normals.shape[0], 1)),
        np.tile(np.array([0.0, 1.0, 0.0]), (normals.shape[0], 1)),
    )
    e1 = np.cross(normals, helper)
    e1 /= np.linalg.norm(e1, axis=1)[:, None]
    e2 = np.cross(normals, e1)
    return e1, e2


def _accumulated_vertex_normals(verts: np.ndarray, topo: _MeshTopology) -> np.ndarray:
    faces = topo.faces
    a = verts[faces[:, 0]]
    b = verts[faces[:, 1]]
    c = verts[faces[:, 2]]
    fn = np.cross(b - a, c - a)
    area2 = np.linalg.norm(fn, axis=1)
    if np.any(area2 <= 0.0):
        raise DegenerateElement("zero-area triangle")
    fn_unit = fn / area2[:, None]

    out = np.zeros_like(verts)
    corners = (a, b, c)
    nv = verts.shape[0]
    for i in range(3):
        p = corners[i]
        q = corners[(i + 1) % 3]
        r = corners[(i + 2) % 3]
        u = q - p
        v = r - p
        cosang = np.einsum("ij,ij->i", u, v) / (
            np.linalg.norm(u, axis=1) * np.linalg.norm(v, axis=1)
        )
        ang = np.arccos(np.clip(cosang, -1.0, 1.0))
        weighted = ang[:, None] * fn_unit
        for j in range(3):
            out[:, j] += np.bincount(faces[:, i], weights=weighted[:, j], minlength=nv)
    norms = np.linalg.norm(out, axis=1)
    if np.any(norms <= 0.0):
        raise MeshDegeneracy("vertex with vanishing accumulated normal")
    return out / norms[:, None]


def _mesh_curvatures(verts: np.ndarray, topo: _MeshTopology) -> tuple[np.ndarray, np.ndarray]:
    """Two-ring quadratic height fit -> shape operator -> principal curvatures.

    The height of each two-ring neighbour over the vertex tangent plane is
    fit by w = b1 u + b2 v + b3 u^2/2 + b4 uv + b5 v^2/2; the linear terms
    absorb normal-estimate error so curvature stays second-order accurate.
    Signs follow the convention that a sphere with outward normals has
    principal curvatures +1/r.
    """
    n0 = _accumulated_vertex_normals(verts, topo)
    e1, e2 = _tangent_basis(n0)

    nbr = topo.two_ring_safe
    mask = topo.two_ring_mask
    d = (verts[nbr] - verts[:, None, :]) * mask[:, :, None]  # (V, K, 3), padded rows zeroed
    frame = np.stack([e1, e2, n0], axis=2)  # columns are the local axes
    uvw = d @ frame
    u, v, w = uvw[..., 0], uvw[..., 1], uvw[..., 2]

    cols = np.empty(u.shape + (5,))
    cols[..., 0] = u
    cols[..., 1] = v
    cols[..., 2] = 0.5 * u * u
    cols[..., 3] = u * v
    cols[..., 4] = 0.5 * v * v

    cols_t = cols.transpose(0, 2, 1)
    ata = cols_t @ cols
    atb = (cols_t @ w[..., None])[..., 0]
    # tiny Tikhonov term keeps thin-ring fits solvable
    trace = np.trace(ata, axis1=1, axis2=2)
    ata = ata + (1e-12 * np.maximum(trace, 1e-30))[:, None, None] * np.eye(5)[None, :, :]
    beta = np.linalg.solve(ata, atb[:, :, None])[:, :, 0]

    gu, gv = beta[:, 0], beta[:, 1]
    huu, huv, hvv = beta[:, 2], beta[:, 3], beta[:, 4]
    grad2 = gu * gu + gv * gv
    inv_len = 1.0 / np.sqrt(1.0 + grad2)

    # first fundamental form and its inverse
    E = 1.0 + gu * gu
    Fm = gu * gv
    G = 1.0 + gv * gv
    det_I = E * G - Fm * Fm
    # second fundamental form (heights measured along the outward normal)
    L = huu * inv_len
    M = huv * inv_len
    N = hvv * inv_len
    # shape operator S = I^-1 II; flip sign so convex -> positive
    s00 = (G * L - Fm * M) / det_I
    s01 = (G * M - Fm * N) / det_I
    s10 = (E * M - Fm * L) / det_I
    s11 = (E * N - Fm * M) / det_I
    tr = s00 + s11
    det_S = s00 * s11 - s01 * s10
    disc = np.sqrt(np.maximum(0.25 * tr * tr - det_S, 0.0))
    k1 = -(0.5 * tr + disc)
    k2 = -(0.5 * tr - disc)
    principal = np.sort(np.column_stack([k1, k2]), axis=1)

    refined = n0 - gu[:, None] * e1 - gv[:, None] * e2
    refined /= np.linalg.norm(refined, axis=1)[:, None]
    return refined, principal


# ---------------------------------------------------------------------------
# Containment and distance


def _boundary_tolerance(M: DiscreteHypersurface, tol: float | None) -> float:
    return tol if tol is not None else BOUNDARY_TOL_FACTOR * M.bbox_diagonal


def surface_distance(M: DiscreteHypersurface, points: np.ndarray) -> np.ndarray:
    """Unsigned distance from each query point to the surface."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    if M.dimension == 1:
        a = M.vertices
        b = np.roll(M.vertices, -1, axis=0)
        return geometry.point_segment_distance(points, a, b)
    return _mesh_distance(M, points)


def _mesh_distance(M: DiscreteHypersurface, points: np.ndarray) -> np.ndarray:
    faces = M.faces
    verts = M.vertices
    a = verts[faces[:, 0]]
    b = verts[faces[:, 1]]
    c = verts[faces[:, 2]]
    cent = (a + b + c) / 3.0
    reach = np.max(
        np.stack(
            [
                np.linalg.norm(a - cent, axis=1),
                np.linalg.norm(b - cent, axis=1),
                np.linalg.norm(c - cent, axis=1),
            ]
        )
    )
    tree = cKDTree(cent)
    k = min(32, faces.shape[0])
    d_cent, idx = tree.query(points, k=k)
    if k == 1:
        d_cent = d_cent[:, None]
        idx = idx[:, None]
    cand = idx
    d = geometry.point_triangle_distance(
        points[:, None, :], a[cand], b[cand], c[cand]
    )
    best = np.min(d, axis=1)
    # any triangle whose centroid is farther than the kth one is at distance
    # >= d_cent[:, -1] - reach; if our current best beats that, it is exact
    unsafe = best > d_cent[:, -1] - reach
    if np.any(unsafe):
        full = geometry.point_triangle_distance(
            points[unsafe][:, None, :], a[None, :, :], b[None, :, :], c[None, :, :]
        )
        best[unsafe] = np.min(full, axis=1)
    return best


def classify_points(M: DiscreteHypersurface, points: np.ndarray, tol: float | None = None) -> np.ndarray:
    """Vector of containment codes: +1 inside, -1 outside, 0 within tol of M."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    band = _boundary_tolerance(M, tol)
    if M.dimension == 1:
        wn = geometry.winding_number_2d(M.vertices, points)
        inside = wn != 0
        dist = surface_distance(M, points)
        near = dist < band
    else:
        w = geometry.winding_number_3d(M.vertices, M.faces, points)
        inside = np.abs(w) > 0.5
        # cheap screen before exact distances: a point farther from the
        # vertex set than the largest element extent cannot be near the mesh
        vtree = cKDTree(M.vertices)
        d_vert, _ = vtree.query(points)
        h_max = float(M.edge_lengths.max())
        maybe_near = d_vert <= band + h_max
        near = np.zeros(points.shape[0], dtype=bool)
        if np.any(maybe_near):
            near[maybe_near] = _mesh_distance(M, points[maybe_near]) < band
    out = np.where(inside, INSIDE_CODE, OUTSIDE_CODE)
    out[near] = BOUNDARY_CODE
    return out


def contains_point(M: DiscreteHypersurface, point, tol: float | None = None) -> Containment:
    """Classify one point against the closed surface."""
    code = classify_points(M, np.asarray(point, dtype=float)[None, :], tol)[0]
    if code == INSIDE_CODE:
        return Containment.INSIDE
    if code == OUTSIDE_CODE:
        return Containment.OUTSIDE
    return Containment.ON_BOUNDARY


def signed_interior_distance(M: DiscreteHypersurface, points: np.ndarray) -> np.ndarray:
    """Distance to the surface, positive inside the enclosed region."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    dist = surface_distance(M, points)
    if M.dimension == 1:
        inside = geometry.winding_number_2d(M.vertices, points) != 0
    else:
        inside = np.abs(geometry.winding_number_3d(M.vertices, M.faces, points)) > 0.5
    return np.where(inside, dist, -dist)


def enclosed_volume(M: DiscreteHypersurface) -> float:
    """Enclosed area (n = 1) or volume (n = 2), positive by orientation."""
    if M.dimension == 1:
        return geometry.polygon_area(M.vertices)
    return geometry.mesh_volume(M.vertices, M.faces)


# ---------------------------------------------------------------------------
# Radii, star-shapedness, pinching, support


def chebyshev_center(M: DiscreteHypersurface, grid: int | None = None) -> np.ndarray:
    """Interior point (approximately) maximising distance to the surface.

    Axis-aligned grid search over the bounding box, refined once around the
    best cell.  Adequate for diagnostics; not a convex-programming solve.
    """
    dim = M.dimension + 1
    resolution = grid if grid is not None else (129 if dim == 2 else 33)
    lo = M.vertices.min(axis=0)
    hi = M.vertices.max(axis=0)

    def search(lo_, hi_, res):
        axes = [np.linspace(lo_[i], hi_[i], res) for i in range(dim)]
        mesh = np.meshgrid(*axes, indexing="ij")
        pts = np.column_stack([m.ravel() for m in mesh])
        if dim == 2:
            inside = geometry.winding_number_2d(M.vertices, pts) != 0
            if not np.any(inside):
                return None, -np.inf
            pts_in = pts[inside]
            d = surface_distance(M, pts_in)
            j = int(np.argmax(d))
            return pts_in[j], float(d[j])
        # meshes: rank by cheap vertex distance, verify the leaders exactly
        vtree = cKDTree(M.vertices)
        pts = np.vstack([pts, M.vertices.mean(axis=0)[None, :]])
        proxy, _ = vtree.query(pts)
        order = np.argsort(proxy)[::-1][: max(256, res)]
        cand = pts[order]
        w = geometry.winding_number_3d(M.vertices, M.faces, cand)
        cand = cand[np.abs(w) > 0.5]
        if cand.shape[0] == 0:
            return None, -np.inf
        d = _mesh_distance(M, cand)
        j = int(np.argmax(d))
        return cand[j], float(d[j])

    best, _ = search(lo, hi, resolution)
    if best is None:
        raise MeshDegeneracy("no interior grid point found")
    cell = (hi - lo) / (resolution - 1)
    refined, _ = search(best - cell, best + cell, 17)
    return refined if refined is not None else best


def inner_outer_radii(M: DiscreteHypersurface, center=None) -> RadiiReport:
    """Inradius and circumradius about a center (searched when omitted)."""
    if center is None:
        center = chebyshev_center(M)
    center = np.asarray(center, dtype=float)
    if contains_point(M, center) is not Containment.INSIDE:
        raise CenterOutside(f"center {tuple(center)} is not inside the surface")
    rho_plus = float(np.max(np.linalg.norm(M.vertices - center, axis=1)))
    rho_minus = float(surface_distance(M, center[None, :])[0])
    return RadiiReport(center=center, rho_minus=rho_minus, rho_plus=rho_plus)


def starshapedness_ratio(M: DiscreteHypersurface, origin) -> float:
    """min over vertices of <x - origin, normal(x)> / |x - origin|."""
    origin = np.asarray(origin, dtype=float)
    if contains_point(M, origin) is not Containment.INSIDE:
        raise CenterOutside(f"origin {tuple(origin)} is not strictly inside")
    rel = M.vertices - origin
    r = np.linalg.norm(rel, axis=1)
    proj = np.einsum("ij,ij->i", rel, M.curvature_data.normals)
    return float(np.min(proj / r))


def curvature_pinching_ratio(M: DiscreteHypersurface) -> float:
    """Global min/max ratio of principal curvatures over all vertices."""
    lam = M.curvature_data.principal
    if np.any(lam <= 0.0):
        raise NonConvexInput("pinching ratio requires positive principal curvatures")
    return float(lam.min() / lam.max())


def support_max(M: DiscreteHypersurface, direction) -> float:
    """Support value max over vertices of <x, V> for a unit direction V."""
    v = np.asarray(direction, dtype=float)
    if abs(np.linalg.norm(v) - 1.0) > 1e-9:
        raise ValueError("direction must be a unit vector")
    return float(np.max(M.vertices @ v))


# ---------------------------------------------------------------------------
# Embeddedness sweep


def is_embedded(M: DiscreteHypersurface) -> bool:
    """Mesh-scale self-intersection sweep.

    Exact pair tests after adjacency and spatial pruning.  Quadratic worst
    case for polygons (fine at audit sizes); meshes prune with a centroid
    tree first.
    """
    if M.dimension == 1:
        return _polygon_embedded(M.vertices)
    return _mesh_embedded(M)


def _polygon_embedded(verts: np.ndarray) -> bool:
    m = verts.shape[0]
    a = verts
    b = np.roll(verts, -1, axis=0)
    i_idx, j_idx = np.triu_indices(m, k=2)
    adjacent = ((i_idx == 0) & (j_idx == m - 1))
    i_idx, j_idx = i_idx[~adjacent], j_idx[~adjacent]
    hits = geometry.segments_intersect(a[i_idx], b[i_idx], a[j_idx], b[j_idx])
    return not bool(np.any(hits))


def _mesh_embedded(M: DiscreteHypersurface) -> bool:
    verts = M.vertices
    faces = M.faces
    a = verts[faces[:, 0]]
    b = verts[faces[:, 1]]
    c = verts[faces[:, 2]]
    cent = (a + b + c) / 3.0
    reach = np.max(
        np.stack(
            [
                np.linalg.norm(a - cent, axis=1),
                np.linalg.norm(b - cent, axis=1),
                np.linalg.norm(c - cent, axis=1),
            ]
        ),
        axis=0,
    )
    tree = cKDTree(cent)
    pairs = tree.query_pairs(2.0 * float(reach.max()), output_type="ndarray")
    if pairs.shape[0] == 0:
        return True
    fi = faces[pairs[:, 0]]
    fj = faces[pairs[:, 1]]
    shares = np.zeros(pairs.shape[0], dtype=bool)
    for p in range(3):
        for q in range(3):
            shares |= fi[:, p] == fj[:, q]
    pairs = pairs[~shares]
    tris = verts[faces]
    for i, j in pairs:
        if geometry.triangles_intersect(tris[i], tris[j]):
            return False
    return True


def assert_embedded(M: DiscreteHypersurface) -> None:
    if not is_embedded(M):
        raise MeshDegeneracy("surface self-intersects at mesh scale")


# ---------------------------------------------------------------------------
# File formats: closed polyline text (curves), OBJ-style text (meshes)



def write_surface(M: DiscreteHypersurface, path) -> None:
    path = Path(path)
    lines = []
    if M.dimension == 1:
        for x, y in M.vertices:
            lines.append(f"{x:.17g} {y:.17g}")
    else:
        for x, y, z in M.vertices:
            lines.append(f"v {x:.17g} {y:.17g} {z:.17g}")
        for i, j, k in M.faces:
            lines.append(f"f {i + 1} {j + 1} {k + 1}")
    path.write_text("\n".join(lines) + "\n")


def read_surface(path) -> DiscreteHypersurface:
    path = Path(path)
    verts: list[list[float]] = []
    faces: list[list[int]] = []
    is_mesh = False
    for raw in path.read_text().splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if parts[0] == "v":
            is_mesh = True
            verts.append([float(p) for p in parts[1:4]])
        elif parts[0] == "f":
            is_mesh = True
            faces.append([int(p.split("/")[0]) - 1 for p in parts[1:4]])
        else:
            verts.append([float(p) for p in parts[:2]])
    if is_mesh:
        return DiscreteHypersurface(np.array(verts), np.array(faces, dtype=np.int64))
    return DiscreteHypersurface(np.array(verts))
