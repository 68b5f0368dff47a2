"""Discrete closed hypersurfaces: polygons in the plane, triangle meshes in space.

A surface snapshot is immutable; each evolution stage builds a new instance.
Each dimension has one element kernel that forms its geometry once; the
constructor validates through it and keeps the volume it measures.
``_polygon`` pads a curve's coordinate rows so that each vertex's neighbours
are slices, and gives edge lengths, normals, circumcircle curvatures and the
area.  ``_triangles`` forms a mesh's face corners, edges and cross products,
and gives the zero-area check, the volume and the face and angle-weighted
vertex normals.  Principal curvatures come from the circle
through three consecutive vertices (curves) or from the two-ring jet fit
``_mesh_jet`` (meshes): over K-major two-ring rows padded with the vertex
itself it sums twelve moments and five height moments, one block of
vertices at a time, and solves the 5x5 normal equations by an LDL^T
factorisation on (V,) arrays.  The two-ring table comes from the sorted
directed edges: each vertex's neighbours' neighbours, sorted and deduplicated
row by row.  Distances and the embeddedness
sweep share one element path: a curve's elements are its edges and a mesh's
are its triangles, each with one paired distance kernel and one paired
intersection test.  Every distance query takes its least distances from
one measuring step, ``_measure``, so one rule breaks ties: of equally near
elements, the largest index.  A query of few point-element pairs, such as
one point, measures every pair; a larger one is pruned by a uniform cell
grid over element centroids (``_Grid``, numpy only: one stable sort of the
cell keys and a start per cell).  Each point is measured against the
element whose centroid is nearest in the nearest occupied cell, then
against every element whose centroid lies within that distance plus the
element's own reach, taken from the occupied cells that ball meets, so the
work of a point follows its ball, not the whole surface.  Containment codes
and signed distances share one inside rule:
the sign of the angle-weighted pseudonormal of the closest feature, with
winding numbers only as the tie-break within the boundary band.

One memo holds what is derived from a snapshot: ``_snapshot(M)`` gives an
object whose kernel, elements, centroid grid, feature pseudonormals,
inscribed ball and element planes are each formed at their first use.  It
is kept for the last surface asked about, keyed by the immutable snapshot.
The constructor, the curvature estimate, the stable step, the distance
queries and the reflection verdicts of one snapshot share it, so each
structure is formed once per visit.  It holds one surface, not one per
snapshot: a flow forms hundreds of stages and an audit walks hundreds of
frames, and a set kept with each would stay alive with its snapshot.  It
holds arrays only; the distance kernels are looked up in ``geometry`` at
each call, so a wrapper installed there later sees them all.

The blocked fit and the shared face kernel keep a mesh stage's transient
arrays small.  A flow runs hundreds of stages, and glibc hands freed heap
memory back to the system once the top of the heap holds more than its trim
threshold, so the next stage faults the same pages in again.  With a dozen
whole-mesh (K, V) arrays per fit and the face kernel formed twice per
snapshot, 100 RK4 steps of a 2562-vertex mesh made about 470 000 minor page
faults and spent about a quarter of their wall time in system time; blocked
and shared, they make about 30 000.

The curve estimator reproduces circles exactly: three points of a circle
determine it.  That choice keeps round flows free of discretisation bias, at
the price that convergence-rate experiments need a surface with non-constant
curvature.
"""

from __future__ import annotations

import enum
import itertools
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import geometry
from .errors import CenterOutside, DegenerateElement, MeshDegeneracy

BOUNDARY_TOL_FACTOR = 1e-9  # boundary band of containment and signs, relative to bbox diagonal
_QUERY_PAIRS = 1 << 18  # worst-case point-element pairs per block of query points
_BALL_PAIRS = 1 << 13  # point-element pairs per distance-kernel call, and the most a query measures unpruned
_RING_SLOTS = 1 << 13  # two-ring slots per vertex block of the jet fit


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


def _runs(first: np.ndarray, count: np.ndarray) -> np.ndarray:
    """The integer runs first .. first + count - 1, end to end."""
    return np.arange(count.sum()) + np.repeat(first - (np.cumsum(count) - count), count)


def _edge_table(faces: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each edge of a closed triangle mesh once, with the two faces on it.

    Returns the sorted vertex pairs in lexicographic order, the two faces of
    each edge in ascending order, and per face the ids of its edges ab, bc
    and ca.  Raises ValueError when an edge is not on exactly two faces.
    """
    und = np.sort(np.concatenate([faces[:, [0, 1]], faces[:, [1, 2]], faces[:, [2, 0]]]), axis=1)
    # the key i * n + j of a pair (i, j) sorts as the pair does lexicographically
    n = int(faces.max()) + 1
    keys, inverse, counts = np.unique(und[:, 0] * n + und[:, 1], return_inverse=True, return_counts=True)
    if np.any(counts != 2):
        raise ValueError("mesh is not closed: some edge is not shared by two faces")
    edges = np.column_stack([keys // n, keys % n])
    inverse = inverse.reshape(3, faces.shape[0])
    on_edge = np.argsort(inverse.ravel(), kind="stable") % faces.shape[0]
    return edges, np.sort(on_edge.reshape(-1, 2), axis=1), inverse.T


class _MeshTopology:
    """Connectivity derived from a face array, shared across frames.

    Construction also validates the purely topological invariants
    (closedness, orientability, sphere topology) so that moving vertices
    under a shared topology never re-pays those checks.  ``two_ring`` is
    K-major, (K, V): column v lists the two-ring of vertex v in ascending
    order, padded with v itself, so a padded slot's coordinate difference is
    exactly zero and reductions over K run along contiguous rows.
    """

    def __init__(self, faces: np.ndarray, num_vertices: int):
        self.faces = faces
        self.unique_edges, self.edge_faces, self.face_edges = _edge_table(faces)
        directed = np.concatenate([faces[:, [0, 1]], faces[:, [1, 2]], faces[:, [2, 0]]])
        if np.unique(directed[:, 0] * num_vertices + directed[:, 1]).shape[0] != directed.shape[0]:
            raise ValueError("inconsistent face orientation: repeated directed edge")
        if num_vertices - self.unique_edges.shape[0] + faces.shape[0] != 2:
            raise ValueError("mesh is not a topological sphere")

        # each vertex's neighbours' neighbours, from the directed edges sorted
        # by source; on a closed mesh they hold the neighbours too.  Row v
        # of a table padded with the sentinel n lists those of v; sorted,
        # the first of each run of equal entries is kept
        n = num_vertices
        arcs = np.sort(np.concatenate([self.unique_edges @ [n, 1], self.unique_edges @ [1, n]]))
        src, dst = np.divmod(arcs, n)
        degree = np.bincount(src, minlength=n)
        hops = degree[dst]
        width = np.bincount(src, weights=hops, minlength=n).astype(np.intp)
        owner = src.repeat(hops)
        table = np.full((n, int(width.max())), n)
        table[owner, np.arange(owner.shape[0]) - (np.cumsum(width) - width)[owner]] = dst[
            _runs((np.cumsum(degree) - degree)[dst], hops)]
        table.sort(axis=1)
        keep = table != np.arange(n)[:, None]  # drop the diagonal
        keep[:, 1:] &= table[:, 1:] != table[:, :-1]
        keep &= table < n
        rows, cols = np.nonzero(keep)[0], table[keep]
        counts = np.bincount(rows, minlength=num_vertices)
        slot = np.arange(rows.shape[0]) - (np.cumsum(counts) - counts)[rows]  # place within the row
        self.two_ring = np.tile(np.arange(num_vertices), (int(counts.max()), 1))
        self.two_ring[slot, rows] = cols


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
        if not np.isfinite(vertices).all():
            raise ValueError("vertices must be finite")
        self.vertices = vertices
        self.vertices.setflags(write=False)

        if vertices.shape[1] == 2:
            if faces is not None:
                raise ValueError("plane curves use implicit cyclic connectivity")
            if vertices.shape[0] < 3:
                raise ValueError("closed curve needs at least 3 vertices")
            self.faces = None
            self.topology = None
            poly = _snapshot(self).kernel
            if poly.length.min() <= 0.0:
                raise DegenerateElement("zero-length polygon edge")
            self._volume = poly.area()
            if self._volume <= 0.0:
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
            tri = _snapshot(self).kernel
            if np.any(tri.area2 <= 0.0):
                raise DegenerateElement("zero-area triangle")
            self._volume = tri.volume()
            if self._volume <= 0.0:
                raise ValueError("mesh must be oriented outward (positive volume)")
            self.topology = topo

    # -- basic queries ------------------------------------------------------

    @property
    def dimension(self) -> int:
        return self.vertices.shape[1] - 1

    @property
    def num_vertices(self) -> int:
        return self.vertices.shape[0]

    @cached_property
    def bbox_diagonal(self) -> float:
        span = self.vertices.max(axis=0) - self.vertices.min(axis=0)
        return float(np.linalg.norm(span))

    @property
    def edges(self) -> np.ndarray:
        """Vertex index pairs, (i, i+1) in order around a curve, each mesh edge once."""
        if self.dimension == 1:
            i = np.arange(self.num_vertices + 1)
            i[-1] = 0  # pad cyclically, as _polygon does
            return np.column_stack([i[:-1], i[1:]])
        return self.topology.unique_edges

    @cached_property
    def edge_lengths(self) -> np.ndarray:
        if self.dimension == 1:
            return _snapshot(self).kernel.edge_lengths
        e = self.edges
        return np.linalg.norm(self.vertices[e[:, 0]] - self.vertices[e[:, 1]], axis=1)

    def with_vertices(self, vertices: np.ndarray) -> "DiscreteHypersurface":
        """New snapshot with moved vertices, sharing connectivity."""
        return DiscreteHypersurface(vertices, self.faces, _topology=self.topology)

    @cached_property
    def curvature_data(self) -> CurvatureData:
        if self.dimension == 1:
            poly = _snapshot(self).kernel
            normals, principal = poly.normals()[1], poly.curvature()[:, None]
        else:
            normals, principal = _mesh_curvatures(self.vertices, self.topology, _snapshot(self).kernel)
        normals.setflags(write=False)
        principal.setflags(write=False)
        return CurvatureData(normals=normals, principal=principal)


# ---------------------------------------------------------------------------
# Curve kernel


class _Polygon(NamedTuple):
    """A closed polygon's vertices with their cyclic neighbours, formed once.

    ``ext`` holds the coordinate rows x and y padded cyclically: vertex m - 1,
    the vertices 0 .. m - 1, then vertex 0.  Its slices ``[:, :-2]``,
    ``[:, 1:-1]`` and ``[:, 2:]`` are each vertex's previous, own and next
    coordinates, so one ``np.concatenate`` serves both shifts.  Column j of
    ``edge`` is ``ext[:, j + 1] - ext[:, j]``: column i + 1 is the edge
    (i, i + 1) and column 0 repeats the edge (m - 1, 0).  The arithmetic is
    per component and gives the same bits as the ``np.roll`` and
    ``np.linalg.norm`` forms kept as oracles in the tests.  The normals and
    curvatures take one coordinate row at a time and accumulate in place: at
    a few hundred vertices that is about a fifth quicker than operating on
    strided (2, m) slices with a temporary per term.
    """

    ext: np.ndarray  # (2, m + 2) padded coordinate rows
    edge: np.ndarray  # (2, m + 1) vectors between consecutive padded vertices
    length: np.ndarray  # (m + 1,) their lengths

    @property
    def edge_lengths(self) -> np.ndarray:
        """Length of each edge (i, i + 1)."""
        return self.length[1:]

    def area(self) -> float:
        """Signed enclosed area, positive for a counter-clockwise polygon."""
        x, y = self.ext[:, 1:-1]
        xn, yn = self.ext[:, 2:]
        return 0.5 * float((x * yn - xn * y).sum())

    def normals(self) -> tuple[np.ndarray, np.ndarray]:
        """Outward unit normals of the edges (i, i + 1) and of the vertices, (m, 2).

        On a counter-clockwise curve an edge's outward normal is the edge
        turned by -90 degrees, (ey, -ex) / length; -(ex / length) has the
        bits of -ex / length.  A vertex normal bisects its two edge normals.
        """
        ex, ey = self.edge
        edge_n = np.empty(self.edge.shape)
        nx, ny = edge_n
        np.divide(ey, self.length, out=nx)
        np.negative(np.divide(ex, self.length, out=ny), out=ny)
        bx = nx[:-1] + nx[1:]
        by = ny[:-1] + ny[1:]
        norm = bx * bx
        norm += by * by
        np.sqrt(norm, out=norm)
        if (norm <= 1e-14).any():
            raise MeshDegeneracy("cusp vertex: adjacent edge normals cancel")
        vertex_n = np.empty((norm.shape[0], 2))
        np.divide(bx, norm, out=vertex_n[:, 0])
        np.divide(by, norm, out=vertex_n[:, 1])
        return edge_n[:, 1:].T, vertex_n

    def curvature(self) -> np.ndarray:
        """Signed curvature 1/R of the circle through each vertex and its neighbours.

        Positive where the polygon turns counter-clockwise, 0 where the three
        points do not determine a circle.  Exact (up to rounding) whenever
        they lie on a common circle.
        """
        x, y = self.ext
        abx, aby = self.edge[:, :-1]  # previous vertex -> vertex
        cax = x[:-2] - x[2:]  # next vertex -> previous
        cay = y[:-2] - y[2:]
        cross = aby * cax
        cross -= abx * cay  # cross(ab, ac) with ac = -ca
        cross *= 2.0
        dist = cax * cax
        dist += cay * cay
        denom = self.length[:-1] * self.length[1:]
        denom *= np.sqrt(dist, out=dist)
        return np.divide(cross, denom, out=np.zeros(denom.shape), where=denom > 0.0)


def _polygon(verts: np.ndarray) -> _Polygon:
    """The curve kernel of a closed polygon with vertices (m, 2)."""
    xy = verts.T
    ext = np.concatenate([xy[:, -1:], xy, xy[:, :1]], axis=1)
    edge = ext[:, 1:] - ext[:, :-1]
    ex, ey = edge
    return _Polygon(ext, edge, np.sqrt(ex * ex + ey * ey))


# ---------------------------------------------------------------------------
# Mesh face kernel


class _Triangles(NamedTuple):
    """A triangle mesh's face corners, edges and cross products, formed once.

    ``ext`` holds each face's corners a, b, c, a, so ``edge[i] = ext[i + 1] -
    ext[i]`` is b - a, c - b or a - c, and corner i lies between ``edge[i]``
    and ``-edge[i - 1]``.  Negation is exact and lengths are taken per
    component, so the results have the bits of the oracles in the tests.
    """

    faces: np.ndarray  # (F, 3) vertex indices
    ext: np.ndarray  # (4, F, 3) corners a, b, c, a
    edge: np.ndarray  # (3, F, 3) vectors between consecutive corners
    cross: np.ndarray  # (F, 3) (b - a) x (c - a)
    area2: np.ndarray  # (F,) its length, twice the face area

    def volume(self) -> float:
        """Signed enclosed volume, the sum of a . ((b - a) x (c - a)) / 6."""
        return float(np.einsum("ij,ij->", self.ext[0], self.cross)) / 6.0

    def normals(self, num_vertices: int) -> tuple[np.ndarray, np.ndarray]:
        """Outward unit face normals, and vertex normals weighted by the face angles."""
        face_n = self.cross / self.area2[:, None]
        length = geometry._length(geometry._parts(self.edge))
        out = np.zeros((num_vertices, 3))
        for i in range(3):
            dot = np.einsum("ij,ij->i", self.edge[i], self.edge[i - 1])
            cosang = -dot / (length[i] * length[i - 1])
            weighted = np.arccos(np.clip(cosang, -1.0, 1.0))[:, None] * face_n
            for j in range(3):
                out[:, j] += np.bincount(self.faces[:, i], weights=weighted[:, j], minlength=num_vertices)
        norms = geometry._length(geometry._parts(out))
        if np.any(norms <= 0.0):
            raise MeshDegeneracy("vertex with vanishing accumulated normal")
        return face_n, out / norms[:, None]


def _triangles(verts: np.ndarray, faces: np.ndarray) -> _Triangles:
    """The face kernel of a triangle mesh with vertices (V, 3) and faces (F, 3)."""
    ext = np.take(verts, faces.T[[0, 1, 2, 0]], axis=0)
    edge = ext[1:] - ext[:-1]
    cross = np.cross(edge[2], edge[0])  # the bits of (b - a) x (c - a): factors swap
    return _Triangles(faces, ext, edge, cross, geometry._length(geometry._parts(cross)))


# ---------------------------------------------------------------------------
# Mesh curvature estimation


def _tangent_basis(normals: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Unit tangent vectors e1 = n x h / |n x h| and e2 = n x e1, as (3, V) rows.

    The helper h is the x axis, or the y axis where n is within about 26
    degrees of the x axis.
    """
    nx, ny, nz = normals.T
    x_helper = np.abs(nx) < 0.9
    # n x (1, 0, 0) = (0, nz, -ny) and n x (0, 1, 0) = (-nz, 0, nx)
    e1 = np.stack([np.where(x_helper, 0.0, -nz), np.where(x_helper, nz, 0.0), np.where(x_helper, -ny, nx)])
    ax, ay, az = e1
    e1 /= np.sqrt(ax * ax + ay * ay + az * az)
    e2 = np.stack([ny * az - nz * ay, nz * ax - nx * az, nx * ay - ny * ax])
    return e1, e2


def _solve_ldl(a: list, b: list) -> list:
    """Solve symmetric positive definite systems A x = b by A = L D L^T.

    ``a[i][j]`` (j <= i) and ``b[i]`` are arrays holding one system per
    element; the loops run over the matrix indices only.
    """
    n = len(b)
    low = [[None] * n for _ in range(n)]
    diag = []
    for j in range(n):
        ld = [low[j][k] * diag[k] for k in range(j)]  # row j of L D
        diag.append(a[j][j] - sum(ld[k] * low[j][k] for k in range(j)))
        for i in range(j + 1, n):
            low[i][j] = (a[i][j] - sum(low[i][k] * ld[k] for k in range(j))) / diag[j]
    y = []
    for i in range(n):
        y.append(b[i] - sum(low[i][k] * y[k] for k in range(i)))
    x = [None] * n
    for i in reversed(range(n)):
        x[i] = y[i] / diag[i] - sum(low[k][i] * x[k] for k in range(i + 1, n))
    return x


def _mesh_jet(
    verts: np.ndarray, topo: _MeshTopology, tri: _Triangles | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray, list]:
    """Two-ring quadratic height fit: vertex normals, tangent basis and jet.

    The height of each two-ring neighbour over the vertex tangent plane is
    fit by w = b1 u + b2 v + b3 u^2/2 + b4 uv + b5 v^2/2, the osculating jet
    of Cazals and Pouget (SGP 2003).  The normal equations depend only on the
    moments sum u^a v^b (2 <= a + b <= 4) and sum w u^a v^b (1 <= a + b <= 2)
    over the two-ring, so they are assembled from those, per vertex, and
    solved by an LDL^T factorisation on (V,) arrays.  ``tri`` is the face
    kernel of the snapshot (formed here when not given).  Returns n, e1 and e2
    as (3, V) rows and the coefficients b1 .. b5 as (V,) arrays.

    The moments are summed over blocks of B vertices holding about
    ``_RING_SLOTS`` two-ring slots and written into one (17, V) array, so
    each (K, B) temporary holds about 64 KB whatever V is.  Over the
    whole mesh they were about a dozen (K, V) arrays, 4.7 MB at 2562
    vertices, which glibc trimmed after each stage and faulted in again at
    the next, about 900 page faults per stage.  Each sum runs over K in slot
    order, u, v and w are accumulated one coordinate at a time in the order
    of ``dx * a0 + dy * a1 + dz * a2``, and each moment sums one product, so
    the bits are those of the whole-mesh fit kept as an oracle in the tests.
    """
    if tri is None:
        tri = _triangles(verts, topo.faces)
    _, n0 = tri.normals(verts.shape[0])
    e1, e2 = _tangent_basis(n0)
    n = np.ascontiguousarray(n0.T)
    frame = (e1, e2, n)
    coords = np.ascontiguousarray(verts.T)
    num_slots, num_vertices = topo.two_ring.shape
    # numpy sums a (K, 1) block pairwise instead of in slot order, so every
    # block holds two vertices or more: the last one takes a lone last vertex
    step = max(2, _RING_SLOTS // num_slots)
    bounds = [*range(0, num_vertices - 1, step), num_vertices]
    # rows: m20 m11 m02, m30 m21 m12 m03, m40 m31 m22 m13 m04, then the sums
    # of w times u, v, uu, uv and vv, where m_ab = sum of u^a v^b over the ring
    moments = np.empty((17, num_vertices))
    for cols in itertools.starmap(slice, itertools.pairwise(bounds)):
        ring = topo.two_ring[:, cols]
        diff, term, *uvw = (np.empty(ring.shape) for _ in range(5))
        for i, c in enumerate(coords):
            # differences to the two-ring, one component at a time; padded
            # slots are exactly 0
            np.subtract(np.take(c, ring, out=diff), c[cols], out=diff)
            for acc, a in zip(uvw, frame):
                if i == 0:
                    np.multiply(diff, a[0, cols], out=acc)
                else:
                    acc += np.multiply(diff, a[i, cols], out=term)
        u, v, w = uvw
        uu, uv, vv = u * u, u * v, v * v
        rows = moments[:, cols]
        for row, x in zip(rows, (uu, uv, vv)):
            x.sum(axis=0, out=row)
        products = ((uu, u), (uu, v), (u, vv), (vv, v), (uu, uu), (uu, uv), (uu, vv), (uv, vv), (vv, vv),
                    (w, u), (w, v), (w, uu), (w, uv), (w, vv))
        for row, (x, y) in zip(rows[3:], products):
            np.einsum("kv,kv->v", x, y, out=row)

    m20, m11, m02, m30, m21, m12, m03, m40, m31, m22, m13, m04, wu, wv, wuu, wuv, wvv = moments
    # normal equations of the columns (u, v, u^2/2, uv, v^2/2), lower triangle
    ata = [
        [m20],
        [m11, m02],
        [0.5 * m30, 0.5 * m21, 0.25 * m40],
        [m21, m12, 0.5 * m31, m22],
        [0.5 * m12, 0.5 * m03, 0.25 * m22, 0.5 * m13, 0.25 * m04],
    ]
    atb = [wu, wv, 0.5 * wuu, wuv, 0.5 * wvv]
    # a tiny ridge scaled by each diagonal entry keeps thin-ring fits solvable
    # and the fit covariant under scaling
    for row in ata:
        row[-1] = row[-1] * (1.0 + 1e-12)
    return n, e1, e2, _solve_ldl(ata, atb)


def _mesh_curvatures(verts: np.ndarray, topo: _MeshTopology, tri: _Triangles) -> tuple[np.ndarray, np.ndarray]:
    """Two-ring jet (``_mesh_jet``) -> shape operator -> principal curvatures.

    The linear jet terms absorb normal-estimate error so curvature stays
    second-order accurate.  Signs follow the convention that a sphere with
    outward normals has principal curvatures +1/r.
    """
    n, e1, e2, (gu, gv, huu, huv, hvv) = _mesh_jet(verts, topo, tri)
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

    rx, ry, rz = n - gu * e1 - gv * e2
    refined = np.column_stack([rx, ry, rz])
    refined /= np.sqrt(rx * rx + ry * ry + rz * rz)[:, None]
    return refined, principal


# ---------------------------------------------------------------------------
# Containment and distance


class _Grid:
    """Sites in space, the element centroids of ``_snapshot``, binned into a uniform grid of cells.

    Each site comes with its element's own reach, the largest distance from
    the centroid to a corner; ``reach`` is the largest of them and
    ``extent`` holds them in cell order, so a candidate found by its
    position there needs no lookup of its element id until it is measured.
    The cells are cubes of edge ``side`` from ``origin``, one empty layer of
    them padding the sites on every side, and linear keys number them in C
    order.  The side is at least twice ``reach``, and at least the edge of
    a cube whose volume is that of the sites' bounding box over their
    number, so the grid has O(sites) cells.  The sites of cell k are
    ``order[start[k] : start[k + 1]]``, and ``sites`` holds their
    coordinates in that order, one row per axis.  A query reaches the sites
    through the boxes of the occupied cells: the squared gap from a point to
    each box (``gap2``) finds the nearest cell and the cells that a ball
    meets, and the sites of the marked cells come out point by point
    (``in_cells``), each cell's sites one slice of ``order``.
    """

    def __init__(self, sites: np.ndarray, extent: np.ndarray):
        self.reach = reach = float(extent.max())
        n, d = sites.shape
        rows = np.ascontiguousarray(sites.T)  # reductions along rows are the quick ones
        lo, hi = rows.min(axis=1), rows.max(axis=1)
        span = (hi - lo).tolist()
        widest = max(span)
        self.side = max(2.0 * reach, widest * (math.prod(s / widest for s in span) / n) ** (1.0 / d))
        self.origin = lo - self.side  # the lower corner of cell 0
        # cell coordinates are positive, so truncation floors them
        key = ((sites - self.origin) / self.side).astype(np.intp)
        self.shape = shape = (((hi - self.origin) / self.side).astype(np.intp) + 2).tolist()
        stride = [1]
        for k in shape[:0:-1]:
            stride.insert(0, stride[0] * k)  # C order
        self.stride = np.array(stride)
        lin = key @ self.stride
        self.order = np.argsort(lin, kind="stable")
        self.sites = np.ascontiguousarray(sites[self.order].T)
        self.extent = extent[self.order]
        self.start = np.zeros(math.prod(shape) + 1, dtype=np.intp)
        np.cumsum(np.bincount(lin, minlength=self.start.shape[0] - 1), out=self.start[1:])
        for a in (self.origin, self.stride, self.order, self.sites, self.extent, self.start):
            a.setflags(write=False)

    @cached_property
    def occupied(self) -> np.ndarray:
        """Keys of the cells that hold sites, (O,)."""
        return np.flatnonzero(np.diff(self.start))

    @cached_property
    def centre(self) -> np.ndarray:
        """Centres of the occupied cells, (d, O)."""
        return self.origin[:, None] + self.side * (np.array(np.unravel_index(self.occupied, self.shape)) + 0.5)

    @cached_property
    def boxes(self) -> tuple[np.ndarray, np.ndarray]:
        """Where the sites of each occupied cell begin in cell order, and how many they are."""
        first = self.start[self.occupied]
        return first, self.start[self.occupied + 1] - first

    def sq_distances(self, points: np.ndarray, pos: np.ndarray, per: np.ndarray) -> np.ndarray:
        """Squared distances from each point to its ``per`` sites at ``pos``, summed in axis order.

        A square or sum that overflows reads inf; the callers reject such a point.
        """
        total = None
        with np.errstate(over="ignore"):
            for row, p in zip(self.sites, points.T):
                diff = np.take(row, pos)
                diff -= np.repeat(p, per)
                diff *= diff
                total = diff if total is None else np.add(total, diff, out=total)
        return total

    def gap2(self, points: np.ndarray) -> np.ndarray:
        """Squared distance from each point to the nearest point of each occupied cell.

        A square or sum that overflows reads inf, as in ``sq_distances``.
        """
        total = np.zeros((points.shape[0], self.occupied.shape[0]))
        gap = np.empty_like(total)
        with np.errstate(over="ignore"):
            for c, p in zip(self.centre, points.T):
                np.abs(np.subtract(c, p[:, None], out=gap), out=gap)
                gap -= 0.5 * self.side
                np.maximum(gap, 0.0, out=gap)
                gap *= gap
                total += gap
        return total

    def in_cells(self, hit: np.ndarray):
        """The sites of the occupied cells that ``hit`` (points, occupied) marks, point by point.

        Yields groups of consecutive points holding about ``_BALL_PAIRS``
        sites in all: a slice of the points, the sites' positions in cell
        order and the count per point.
        """
        first, sizes = self.boxes
        per = hit @ sizes
        bounds = [0, *(np.flatnonzero(np.diff(np.cumsum(per) // _BALL_PAIRS)) + 1).tolist(), hit.shape[0]]
        for rows in itertools.starmap(slice, itertools.pairwise(bounds)):
            col = np.nonzero(hit[rows])[1]
            yield rows, _runs(first[col], sizes[col]), per[rows]


def _segment_min(values: np.ndarray, pos: np.ndarray, per: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per run of ``per`` values, none of them empty, the least and the largest ``pos`` that attains it."""
    starts = np.cumsum(per)
    starts -= per
    low = np.minimum.reduceat(values, starts)
    return low, np.maximum.reduceat(np.where(values == np.repeat(low, per), pos, -1), starts)


def _measure(el: _Derived, points, owner, elems, per) -> tuple[np.ndarray, np.ndarray]:
    """Least kernel distance per run of ``per`` (point, element) pairs, and the largest element attaining it.

    The pairs run point by point, and the kernel takes ``_BALL_PAIRS`` of them at a time.
    """
    d = np.empty(elems.shape[0])
    for k in range(0, elems.shape[0], _BALL_PAIRS):
        o, e = owner[k : k + _BALL_PAIRS], elems[k : k + _BALL_PAIRS]
        d[k : k + _BALL_PAIRS] = el.distance(points[o], *(c[e] for c in el.corners))
    return _segment_min(d, elems, per)


class _Derived:
    """What is derived from snapshot M, each part formed at its first use.

    ``kernel`` is the curve or face kernel.  The elements of the distance
    queries are a curve's edges and a mesh's triangles: ``idx`` holds their
    vertex indices and ``corners`` one corner array per element vertex.
    ``grid`` bins their centroids with a cell side of at least twice the
    largest reach, for ``_close_pairs`` and the queries that ``_nearest``
    prunes.  ``feature_normals`` serve the signed distances, and ``ball``
    and ``planes`` the reflection verdicts' certificates.
    """

    def __init__(self, M: DiscreteHypersurface):
        self.M = M

    @cached_property
    def kernel(self) -> _Polygon | _Triangles:
        """The curve kernel of a polygon, the face kernel of a mesh."""
        M = self.M
        kernel = _polygon(M.vertices) if M.dimension == 1 else _triangles(M.vertices, M.faces)
        for a in kernel:
            a.setflags(write=False)  # shared by every consumer of M
        return kernel

    @cached_property
    def idx(self) -> np.ndarray:
        """Vertex indices per element."""
        idx = self.M.edges if self.M.dimension == 1 else self.M.faces
        idx.setflags(write=False)
        return idx

    @cached_property
    def corners(self) -> tuple:
        """Corner arrays, one per element vertex."""
        corners = tuple(self.M.vertices[self.idx[:, j]] for j in range(self.idx.shape[1]))
        for a in corners:
            a.setflags(write=False)
        return corners

    @cached_property
    def grid(self) -> _Grid:
        """The grid over the element centroids."""
        corners = self.corners
        cent = sum(corners[1:], corners[0]) / len(corners)
        extent = np.sqrt(np.max([np.einsum("ij,ij->i", v, v) for v in (p - cent for p in corners)], axis=0))
        return _Grid(cent, extent)

    @cached_property
    def feature_normals(self) -> np.ndarray:
        """Outward unit pseudonormals of every element feature, (elements, features, d).

        Features are numbered as in the closest-point kernels: the element
        itself, then a triangle's edges ab, bc and ca, then the corners.  A
        mesh edge's pseudonormal is the sum of its two face normals; the
        vertex normals are those of ``_Polygon.normals`` and
        ``_Triangles.normals``.
        """
        M, idx = self.M, self.idx
        if M.dimension == 1:
            element_n, vertex_n = self.kernel.normals()
            out = np.concatenate([element_n[:, None], vertex_n[idx]], axis=1)
        else:
            topo = M.topology
            element_n, vertex_n = self.kernel.normals(M.num_vertices)
            edge_n = element_n[topo.edge_faces].sum(axis=1)
            edge_n /= np.linalg.norm(edge_n, axis=1)[:, None]
            out = np.concatenate([element_n[:, None], edge_n[topo.face_edges], vertex_n[idx]], axis=1)
        out.setflags(write=False)
        return out

    @cached_property
    def ball(self) -> tuple[np.ndarray, float, float]:
        """A ball inside M and its rounding slack: centre x0, radius and slack.

        The ball is the vertex centroid x0 and a radius, at most 0 when there
        is none.  x0 at depth d0 > 0 clears M by d0, so the open ball
        B(x0, d0) lies inside M and an image p there has depth at least
        d0 - |p - x0|.  The radius is d0 less the slack, 1e-12 of the largest
        coordinate, which covers the rounding of the depths, the reflections,
        the heights and |p - x0| of points near M.  d0 and the side of x0 are
        those of ``classify_points``; a boundary point, or one outside, gives
        no ball.
        """
        M = self.M
        x0 = M.vertices.mean(axis=0)
        slack = 1e-12 * float(np.abs(M.vertices).max())
        d0, code = _distances_and_codes(M, x0[None, :])
        if code[0] != INSIDE_CODE:
            return x0, 0.0, slack
        return x0, float(d0[0]) - slack, slack

    @cached_property
    def planes(self) -> tuple[np.ndarray, np.ndarray] | None:
        """The element planes of a convex M, None when M is not convex.

        Returns the unit outward normals n_e of the elements, (E, d), and the
        offsets n_e . a_e - slack, with a_e the element's first corner and
        the slack that of ``ball``.  M is convex when every consecutive edge
        cross product of a curve is >= 0, or when for every edge of a mesh
        the centroid of its second face lies strictly on the inner side of
        its first face's plane.  One pass and no tolerance: a flat region
        that rounds to "not convex" only leaves its images to be measured,
        since the bound is sound on any embedded M.  On a surface that is not
        convex the planes' least depth is a weak bound and says nothing of
        the nearest element.
        """
        M = self.M
        if M.dimension == 1:
            ex, ey = self.kernel.edge
            convex = bool(np.all(ex[:-1] * ey[1:] - ey[:-1] * ex[1:] >= 0.0))
        else:
            tri = self.kernel
            first, second = M.topology.edge_faces.T
            centroid = sum(tri.ext[i, second] for i in range(3)) / 3.0
            convex = bool(np.all(np.einsum("ij,ij->i", centroid - tri.ext[0, first], tri.cross[first]) < 0.0))
        if not convex:
            return None
        normals = np.ascontiguousarray(self.feature_normals[:, 0])
        offsets = np.einsum("ij,ij->i", normals, self.corners[0])
        offsets -= self.ball[2]
        return normals, offsets

    # The kernels are looked up in ``geometry`` at each use, never stored: a
    # wrapper installed there after the memo was filled still sees every call.
    @property
    def distance(self) -> Callable:
        """Paired point-element distance kernel."""
        return geometry.point_segment_pair_distance if self.M.dimension == 1 else geometry.point_triangle_distance

    @property
    def closest_point(self) -> Callable:
        """Paired closest point and its feature."""
        return geometry.closest_point_segment if self.M.dimension == 1 else geometry.closest_point_triangle

    @property
    def intersect(self) -> Callable:
        """Paired element-element intersection test."""
        return geometry.segments_intersect if self.M.dimension == 1 else geometry.triangles_intersect


@lru_cache(maxsize=1)
def _snapshot(M: DiscreteHypersurface) -> _Derived:
    """What is derived from M, kept for the last surface asked about."""
    return _Derived(M)


def _inside(M: DiscreteHypersurface, points: np.ndarray) -> np.ndarray:
    """Winding-number inside test (nonzero in the plane, above 1/2 in space), the sign's tie-break."""
    if M.dimension == 1:
        return geometry.winding_number_2d(M.vertices, points) != 0
    return np.abs(geometry.winding_number_3d(M.vertices, M.faces, points)) > 0.5


def _nearest(points: np.ndarray, el: _Derived) -> tuple[np.ndarray, np.ndarray]:
    """Exact distance from each point to the surface and a nearest element.

    A query of at most ``_BALL_PAIRS`` point-element pairs measures every
    pair with no grid.  A deep point's grid query measures most elements
    anyway, so for one point that is quicker: 0.08 against 0.86 ms on a
    256-gon and 1.6 against 4.1 ms at 5 120 triangles, grid build included
    (2-core x86 host).  A larger query is pruned by the grid.  The element
    whose centroid is nearest among the sites of the occupied cell nearest
    the point gives a first distance ``bound``.  Every element at most that
    far has its centroid within ``bound`` plus its own reach, so the point
    is measured against the elements whose centroids lie in that ball, taken
    from the occupied cells that the ball meets; they hold every exact
    minimiser, whatever the first bound.  A block of points holds at most
    ``_QUERY_PAIRS`` pairs even if every ball holds every element.  The least
    distance and nearest element come from one ``_measure`` pass.  A point
    that is not finite, or whose distance overflows, raises ValueError.
    """
    if not np.isfinite(points).all():
        raise ValueError("query points must be finite")
    n, count = points.shape[0], el.idx.shape[0]
    if 0 < n * count <= _BALL_PAIRS:
        with np.errstate(over="ignore", invalid="ignore"):
            best, near = _measure(el, points, np.arange(n * count) // count, np.tile(np.arange(count), n), np.full(n, count))
        if not best.max() < np.inf:
            raise ValueError("query point too far out: its squared distance to the surface overflows")
        return best, near
    grid = el.grid
    first, sizes = grid.boxes
    best = np.empty(n)
    near = np.empty(n, dtype=np.intp)
    step = max(1, _QUERY_PAIRS // count)
    for s in range(0, n, step):
        p = points[s : s + step]
        gap = grid.gap2(p)
        cell = gap.argmin(axis=1)
        per = sizes[cell]
        pos = _runs(first[cell], per)
        low, site = _segment_min(grid.sq_distances(p, pos, per), pos, per)
        if not low.max() < np.inf:
            raise ValueError("query point too far out: its squared distance to the surface overflows")
        bound = el.distance(p, *(c[grid.order[site]] for c in el.corners))
        radius = bound + grid.reach
        slack = radius * 1e-12  # rounding margin of the balls
        radius += slack
        bound += slack
        pairs = []
        for rows, pos, per in grid.in_cells(gap <= (radius * radius)[:, None]):
            owner = np.repeat(np.arange(rows.start, rows.stop), per)
            limit = bound[owner]
            limit += grid.extent[pos]
            limit *= limit
            keep = grid.sq_distances(p[rows], pos, per) <= limit
            pairs.append((owner[keep], grid.order[pos[keep]]))
        owner, elems = (np.concatenate(x) for x in zip(*pairs))
        del pairs
        # each point's pairs are one run, in point order and never empty
        best[s : s + step], near[s : s + step] = _measure(el, p, owner, elems, np.bincount(owner, minlength=p.shape[0]))
    return best, near


def _pseudonormal_inside(M: DiscreteHypersurface, points: np.ndarray, near: np.ndarray) -> np.ndarray:
    """Whether each point lies inside M, given a nearest element ``near`` of each.

    With q the closest point and n the angle-weighted pseudonormal of the
    feature (element, edge or vertex) that holds q, the point is inside when
    (p - q) . n < 0 (Baerentzen and Aanaes, IEEE TVCG 2005).  That rule needs
    an embedded surface.  Points with |(p - q) . n| within the boundary band
    (``BOUNDARY_TOL_FACTOR`` times the bounding-box diagonal), where rounding
    could flip it, take the winding-number sign instead.  A point outside the
    vertex bounding box, which holds the enclosed region, is outside with no
    pseudonormal: far enough away, every element ties within rounding.
    """
    inside = np.zeros(points.shape[0], dtype=bool)
    boxed = np.flatnonzero(
        np.all((points >= M.vertices.min(axis=0)) & (points <= M.vertices.max(axis=0)), axis=1)
    )
    el = _snapshot(M)
    q, feature = el.closest_point(points[boxed], *(c[near[boxed]] for c in el.corners))
    offset = np.einsum("ij,ij->i", points[boxed] - q, el.feature_normals[near[boxed], feature])
    inside[boxed] = offset < 0.0
    unsure = boxed[~(np.abs(offset) > BOUNDARY_TOL_FACTOR * M.bbox_diagonal)]
    if unsure.size:
        inside[unsure] = _inside(M, points[unsure])
    return inside


def surface_distance(M: DiscreteHypersurface, points: np.ndarray) -> np.ndarray:
    """Unsigned distance from each query point to the surface, exact."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    return _nearest(points, _snapshot(M))[0]


def _distances_and_codes(M: DiscreteHypersurface, points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Exact distance to M and containment code of each point, from one ``_nearest`` pass."""
    dist, near = _nearest(points, _snapshot(M))
    off = ~(dist < BOUNDARY_TOL_FACTOR * M.bbox_diagonal)
    code = np.full(points.shape[0], BOUNDARY_CODE)
    code[off] = np.where(_pseudonormal_inside(M, points[off], near[off]), INSIDE_CODE, OUTSIDE_CODE)
    return dist, code


def classify_points(M: DiscreteHypersurface, points: np.ndarray) -> np.ndarray:
    """Vector of containment codes: +1 inside, -1 outside, 0 on the boundary.

    A point is on the boundary when its distance to M is below the fixed band
    ``BOUNDARY_TOL_FACTOR`` times the bounding-box diagonal; every other point
    takes the sign of ``signed_interior_distance``, so M must be embedded.
    """
    return _distances_and_codes(M, np.atleast_2d(np.asarray(points, dtype=float)))[1]


def contains_point(M: DiscreteHypersurface, point) -> Containment:
    """Classify one point against the closed embedded surface, as ``classify_points``."""
    code = classify_points(M, np.asarray(point, dtype=float)[None, :])[0]
    if code == INSIDE_CODE:
        return Containment.INSIDE
    if code == OUTSIDE_CODE:
        return Containment.OUTSIDE
    return Containment.ON_BOUNDARY


def signed_interior_distance(M: DiscreteHypersurface, points: np.ndarray) -> np.ndarray:
    """Distance to the surface, positive inside the enclosed region.

    The sign is that of ``_pseudonormal_inside``, so M must be embedded.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    dist, near = _nearest(points, _snapshot(M))
    return np.where(_pseudonormal_inside(M, points, near), dist, -dist)


def enclosed_volume(M: DiscreteHypersurface) -> float:
    """Enclosed area (n = 1) or volume (n = 2), positive by orientation."""
    return M._volume


# ---------------------------------------------------------------------------
# Inradius and circumradius


def _point(name: str, value, M: DiscreteHypersurface) -> np.ndarray:
    """``value`` as a point of the space that M lies in, or ValueError naming ``name``."""
    point = np.asarray(value, dtype=float)
    n = M.dimension + 1
    if point.shape != (n,) or not np.all(np.isfinite(point)):
        raise ValueError(f"{name} must be a finite point with {n} components, got {point.tolist()}")
    return point


def inner_outer_radii(M: DiscreteHypersurface, center) -> RadiiReport:
    """Inradius and circumradius about a center, which must lie inside M."""
    center = _point("center", center, M)
    dist, code = _distances_and_codes(M, center[None, :])
    if code[0] != INSIDE_CODE:
        raise CenterOutside(f"center {center.tolist()} is not inside the surface")
    rho_plus = float(np.max(np.linalg.norm(M.vertices - center, axis=1)))
    return RadiiReport(center=center, rho_minus=float(dist[0]), rho_plus=rho_plus)


# ---------------------------------------------------------------------------
# Embeddedness sweep


def _close_pairs(el: _Derived) -> np.ndarray:
    """Element pairs (i, j) whose centroids lie within twice the largest reach, each once.

    Such centroids lie in the same cell or in adjacent ones, so each
    occupied cell is paired with itself and with the forward half of its
    neighbourhood.
    """
    grid = el.grid
    offsets = np.array([np.dot(off, grid.stride) for off in itertools.product((-1, 0, 1), repeat=len(grid.shape))])
    ahead = offsets[offsets >= 0]
    a = np.repeat(grid.occupied, ahead.shape[0])
    b = (grid.occupied[:, None] + ahead).ravel()
    a_first, b_first = grid.start[a], grid.start[b]
    b_count = grid.start[b + 1] - b_first
    count = (grid.start[a + 1] - a_first) * b_count
    run = np.repeat(np.arange(count.shape[0]), count)
    k = _runs(np.zeros_like(count), count)  # place within the run
    i = a_first[run] + k // b_count[run]
    j = b_first[run] + k % b_count[run]
    d2 = sum((row[i] - row[j]) ** 2 for row in grid.sites)
    limit = 2.0 * grid.reach * (1.0 + 1e-12)
    keep = ((a != b)[run] | (i < j)) & (d2 <= limit * limit)
    return np.column_stack([grid.order[i[keep]], grid.order[j[keep]]])


def is_embedded(M: DiscreteHypersurface) -> bool:
    """Mesh-scale self-intersection sweep.

    Two elements can only meet when their centroids lie within twice the
    largest reach, so the centroid grid yields the candidate pairs
    (``_close_pairs``).  Pairs that share a vertex are dropped and the rest
    get the paired intersection test, ``_BALL_PAIRS`` at a time; the sweep
    stops at the first slice that holds a hit.
    """
    el = _snapshot(M)
    idx = el.idx
    pairs = _close_pairs(el)
    shares = np.any(idx[pairs[:, 0]][:, :, None] == idx[pairs[:, 1]][:, None, :], axis=(1, 2))
    i, j = pairs[~shares].T
    for k in range(0, i.shape[0], _BALL_PAIRS):
        p, q = i[k : k + _BALL_PAIRS], j[k : k + _BALL_PAIRS]
        if np.any(el.intersect(*(c[p] for c in el.corners), *(c[q] for c in el.corners))):
            return False
    return True


# ---------------------------------------------------------------------------
# File formats: closed polyline text (curves), OBJ-style text (meshes)


def write_surface(M: DiscreteHypersurface, path) -> None:
    # one %-format call per row kind; Python floats print as the numpy scalars did
    if M.dimension == 1:
        text = ("%.17g %.17g\n" * M.num_vertices) % tuple(M.vertices.ravel().tolist())
    else:
        text = ("v %.17g %.17g %.17g\n" * M.num_vertices) % tuple(M.vertices.ravel().tolist())
        text += ("f %d %d %d\n" * M.faces.shape[0]) % tuple((M.faces + 1).ravel().tolist())
    Path(path).write_text(text)


def read_surface(path) -> DiscreteHypersurface:
    path = Path(path)
    verts: list[list[float]] = []
    faces: list[list[int]] = []
    is_mesh = False
    for lineno, raw in enumerate(path.read_text().splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if parts[0] == "v":
            is_mesh = True
            verts.append([float(p) for p in parts[1:4]])
        elif parts[0] == "f":
            is_mesh = True
            if len(parts) != 4:
                raise ValueError(f"line {lineno}: a face needs 3 vertex indices, got {len(parts) - 1}")
            faces.append([int(p.split("/")[0]) - 1 for p in parts[1:]])
        else:
            if len(parts) != 2:
                raise ValueError(f"line {lineno}: a curve row needs 2 numbers, got {len(parts)}")
            verts.append([float(p) for p in parts])
    if is_mesh:
        return DiscreteHypersurface(np.array(verts), np.array(faces, dtype=np.int64))
    return DiscreteHypersurface(np.array(verts))
