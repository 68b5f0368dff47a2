import gc
import itertools
import subprocess
import sys
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest
from scipy.spatial import cKDTree

from hyperflow.errors import CenterOutside, DegenerateElement
from hyperflow.hypersurface import (
    BOUNDARY_CODE,
    Containment,
    DiscreteHypersurface,
    INSIDE_CODE,
    OUTSIDE_CODE,
    classify_points,
    contains_point,
    enclosed_volume,
    inner_outer_radii,
    is_embedded,
    read_surface,
    signed_interior_distance,
    surface_distance,
    write_surface,
    _close_pairs,
    _edge_table,
    _mesh_jet,
    _nearest,
    _polygon,
    _snapshot,
    _solve_ldl,
    _tangent_basis,
    _triangles,
)
from hyperflow import families, geometry, hypersurface, shapes, speeds
from hyperflow.flow_engine import FlowConfig, evolve
import oracles


def ellipse_curvature(a, b, theta):
    return a * b / (a * a * np.sin(theta) ** 2 + b * b * np.cos(theta) ** 2) ** 1.5


# ---------------------------------------------------------------------------
# roll oracles: the curve arithmetic before the cyclic-neighbour kernel


def _polygon_area(verts):
    x, y = verts[:, 0], verts[:, 1]
    xn, yn = np.roll(x, -1), np.roll(y, -1)
    return 0.5 * float(np.sum(x * yn - xn * y))


def _circumcircle_curvature(prev, cur, nxt):
    ab = cur - prev
    bc = nxt - cur
    ca = prev - nxt
    cross = ab[:, 0] * (-ca[:, 1]) - ab[:, 1] * (-ca[:, 0])  # cross(ab, ac)
    la = np.linalg.norm(ab, axis=1)
    lb = np.linalg.norm(bc, axis=1)
    lc = np.linalg.norm(ca, axis=1)
    denom = la * lb * lc
    with np.errstate(divide="ignore", invalid="ignore"):
        k = 2.0 * cross / denom
    return np.where(denom > 0.0, k, 0.0)


def _curve_normals(verts):
    edge = np.roll(verts, -1, axis=0) - verts
    length = np.linalg.norm(edge, axis=1)
    edge_normals = np.column_stack([edge[:, 1], -edge[:, 0]]) / length[:, None]
    bisector = np.roll(edge_normals, 1, axis=0) + edge_normals
    return edge_normals, bisector / np.linalg.norm(bisector, axis=1)[:, None]


def _curve_curvatures(verts):
    _, normals = _curve_normals(verts)
    k = _circumcircle_curvature(np.roll(verts, 1, axis=0), verts, np.roll(verts, -1, axis=0))
    return normals, k[:, None]


@pytest.mark.parametrize("shape", [
    "triangle", "square", "circle", "ellipse 2:1", "noisy circle", "peanut", "4096-gon", "circle at 1e6",
])
def test_curve_kernel_equals_the_roll_oracles_bitwise(shape):
    M = {
        "triangle": lambda: DiscreteHypersurface([[0.0, 0.0], [1.0, 0.0], [0.3, 0.7]]),
        "square": lambda: shapes.square_polygon(2.0, 1),
        "circle": lambda: shapes.circle_polygon(1.0, 256),
        "ellipse 2:1": lambda: shapes.ellipse_polygon(2.0, 1.0, 256),
        "noisy circle": lambda: oracles.noisy_circle(1.0, 0.05, 300, seed=3),
        "peanut": lambda: oracles.peanut_polygon(128),
        "4096-gon": lambda: shapes.circle_polygon(1.0, 4096),
        "circle at 1e6": lambda: shapes.circle_polygon(1.0, 256, center=(1e6, -1e6)),
    }[shape]()
    v = M.vertices
    normals, principal = _curve_curvatures(v)
    data = M.curvature_data
    assert np.array_equal(data.normals, normals)
    assert np.array_equal(data.principal, principal)
    # same memory layout too, so reductions downstream sum in the same order
    assert data.normals.flags.c_contiguous
    for got, want in zip(_polygon(v).normals(), _curve_normals(v)):
        assert np.array_equal(got, want)
    assert np.array_equal(M.edge_lengths, np.linalg.norm(np.roll(v, -1, axis=0) - v, axis=1))
    assert enclosed_volume(M) == _polygon_area(v)


def test_closest_segment_feature_equals_the_select_oracle():
    rng = np.random.default_rng(5)
    a, b = rng.normal(size=(2, 300, 2))
    # points beyond either end, on the segment and at both endpoints
    points = np.concatenate([a + rng.uniform(-1.0, 2.0, size=(300, 1)) * (b - a), a[:50], b[:50]])
    a, b = np.concatenate([a, a[:50], a[:50]]), np.concatenate([b, b[:50], b[:50]])
    _, feature = geometry.closest_point_segment(points, a, b)
    d = b - a
    t = np.clip(np.einsum("ij,ij->i", points - a, d) / np.einsum("ij,ij->i", d, d), 0.0, 1.0)
    oracle = np.select([t <= 0.0, t >= 1.0], [1, 2], 0)
    assert feature.dtype == oracle.dtype == np.int64
    assert np.array_equal(feature, oracle)
    assert set(np.unique(feature)) == {0, 1, 2}


# ---------------------------------------------------------------------------
# corner oracles: the mesh normals and volume before the face kernel


def _mesh_normals(verts, faces):
    """Face and angle-weighted vertex normals from six corner differences per face."""
    a = verts[faces[:, 0]]
    b = verts[faces[:, 1]]
    c = verts[faces[:, 2]]
    fn = np.cross(b - a, c - a)
    fn_unit = fn / np.linalg.norm(fn, axis=1)[:, None]
    out = np.zeros_like(verts)
    corners = (a, b, c)
    for i in range(3):
        p, q, r = corners[i], corners[(i + 1) % 3], corners[(i + 2) % 3]
        u, v = q - p, r - p
        cosang = np.einsum("ij,ij->i", u, v) / (np.linalg.norm(u, axis=1) * np.linalg.norm(v, axis=1))
        weighted = np.arccos(np.clip(cosang, -1.0, 1.0))[:, None] * fn_unit
        for j in range(3):
            out[:, j] += np.bincount(faces[:, i], weights=weighted[:, j], minlength=verts.shape[0])
    return fn_unit, out / np.linalg.norm(out, axis=1)[:, None]


def _mesh_volume(verts, faces):
    """Signed volume by the divergence theorem, sum of a . (b x c) / 6."""
    a = verts[faces[:, 0]]
    b = verts[faces[:, 1]]
    c = verts[faces[:, 2]]
    return float(np.einsum("ij,ij->", a, np.cross(b, c))) / 6.0


def _turned_ellipsoid():
    M = shapes.ellipsoid_mesh(1.5, 1.0, 0.75, 4)
    turn, _ = np.linalg.qr(np.random.default_rng(2).normal(size=(3, 3)))
    return DiscreteHypersurface(M.vertices @ turn.T + np.array([0.3, -2.0, 5.0]), M.faces)


_KERNEL_MESHES = {
    **{f"icosphere s{s}": (lambda s=s: shapes.icosphere(1.0, s)) for s in range(6)},
    "noisy sphere": lambda: oracles.noisy_sphere(),
    "rotated shifted ellipsoid s4": _turned_ellipsoid,
}


@pytest.mark.parametrize("shape", list(_KERNEL_MESHES))
def test_face_kernel_equals_the_corner_oracles(shape):
    M = _KERNEL_MESHES[shape]()
    tri = _triangles(M.vertices, M.faces)
    for got, want in zip(tri.normals(M.num_vertices), _mesh_normals(M.vertices, M.faces)):
        assert np.array_equal(got, want)
    want = _mesh_volume(M.vertices, M.faces)
    assert abs(tri.volume() - want) <= 1e-13 * abs(want)
    # the constructor keeps the volume it measured
    assert enclosed_volume(M) == tri.volume()


def test_a_mesh_snapshot_forms_its_face_cross_products_once(monkeypatch):
    M = shapes.ellipsoid_mesh(1.5, 1.0, 0.75, 2)
    calls = []
    cross = np.cross

    def counting_cross(*args, **kwargs):
        calls.append(1)
        return cross(*args, **kwargs)

    monkeypatch.setattr(np, "cross", counting_cross)
    M2 = M.with_vertices(M.vertices * 1.1)
    assert len(calls) == 1
    # the curvature fit reuses the kernel the constructor formed
    M2.curvature_data
    assert len(calls) == 1


# ---------------------------------------------------------------------------
# curvature estimation


def test_circle_curvature_is_exact(unit_circle_256):
    data = unit_circle_256.curvature_data
    assert np.abs(data.principal - 1.0).max() < 1e-3  # actually ~1e-13
    radial = unit_circle_256.vertices / np.linalg.norm(unit_circle_256.vertices, axis=1)[:, None]
    assert np.abs(data.normals - radial).max() < 1e-12


def test_sphere_mesh_curvature():
    M = shapes.icosphere(2.0, 4)
    lam = M.curvature_data.principal
    assert np.abs(lam - 0.5).max() / 0.5 < 0.02


def test_normals_point_outward_on_convex_inputs():
    for M in (shapes.ellipse_polygon(2.0, 1.0, 64), shapes.ellipsoid_mesh(1.5, 1.0, 0.8, 2)):
        data = M.curvature_data
        rel = M.vertices - M.vertices.mean(axis=0)
        assert np.all(np.einsum("ij,ij->i", rel, data.normals) > 0.0)


def test_ellipse_tip_curvature(ellipse_2_1):
    # vertex 0 sits exactly at (2, 0) where the analytic curvature is a/b^2 = 2
    k0 = ellipse_2_1.curvature_data.principal[0, 0]
    assert k0 == pytest.approx(2.0, rel=0.01)


def test_curvature_estimator_convergence_on_ellipse():
    errs = []
    for m in (64, 128):
        M = shapes.ellipse_polygon(1.2, 1.0, m)
        theta = 2.0 * np.pi * np.arange(m) / m
        exact = ellipse_curvature(1.2, 1.0, theta)
        errs.append(np.abs(M.curvature_data.principal[:, 0] - exact).max())
    assert errs[0] / errs[1] >= 3.0


def test_circle_estimator_stays_at_noise_floor_under_doubling():
    # three points of a circle determine it, so the error has no h^2 term
    for m in (64, 128):
        M = shapes.circle_polygon(1.0, m)
        assert np.abs(M.curvature_data.principal - 1.0).max() < 1e-12


# ---------------------------------------------------------------------------
# batched oracles: the mesh fit and topology before the moment form


def _two_ring_oracle(faces, num_vertices):
    """Per vertex, its two-ring in ascending order; rows padded with the vertex."""
    one = [set() for _ in range(num_vertices)]
    for tri in faces.tolist():
        for a in tri:
            one[a].update(tri)
    rings = [sorted(set().union(*(one[b] for b in one[a])) - {a}) for a in range(num_vertices)]
    width = max(len(r) for r in rings)
    return np.array([r + [a] * (width - len(r)) for a, r in enumerate(rings)])


def _edge_table_oracle(faces):
    und = np.sort(np.concatenate([faces[:, [0, 1]], faces[:, [1, 2]], faces[:, [2, 0]]]), axis=1)
    edges, inverse, counts = np.unique(und, axis=0, return_inverse=True, return_counts=True)
    assert np.all(counts == 2)
    inverse = inverse.reshape(3, faces.shape[0])
    on_edge = np.argsort(inverse.ravel(), kind="stable") % faces.shape[0]
    return edges, np.sort(on_edge.reshape(-1, 2), axis=1), inverse.T


def _tangent_basis_oracle(normals):
    helper = np.where(
        (np.abs(normals[:, 0]) < 0.9)[:, None],
        np.tile(np.array([1.0, 0.0, 0.0]), (normals.shape[0], 1)),
        np.tile(np.array([0.0, 1.0, 0.0]), (normals.shape[0], 1)),
    )
    e1 = np.cross(normals, helper)
    e1 /= np.linalg.norm(e1, axis=1)[:, None]
    return e1, np.cross(normals, e1)


def _batched_mesh_fit(M):
    """The (V, K, 5) design-tensor fit: jet coefficients (V, 5), normals, principal."""
    verts, topo = M.vertices, M.topology
    _, n0 = _mesh_normals(verts, M.faces)
    e1, e2 = _tangent_basis_oracle(n0)
    nbr = topo.two_ring.T
    mask = nbr != np.arange(M.num_vertices)[:, None]
    d = (verts[nbr] - verts[:, None, :]) * mask[:, :, None]
    uvw = d @ np.stack([e1, e2, n0], axis=2)
    u, v, w = uvw[..., 0], uvw[..., 1], uvw[..., 2]
    cols = np.stack([u, v, 0.5 * u * u, u * v, 0.5 * v * v], axis=2)
    cols_t = cols.transpose(0, 2, 1)
    ata = cols_t @ cols
    atb = (cols_t @ w[..., None])[..., 0]
    ata = ata * (1.0 + 1e-12 * np.eye(5))
    beta = np.linalg.solve(ata, atb[:, :, None])[:, :, 0]

    gu, gv, huu, huv, hvv = beta.T
    inv_len = 1.0 / np.sqrt(1.0 + gu * gu + gv * gv)
    E, Fm, G = 1.0 + gu * gu, gu * gv, 1.0 + gv * gv
    det_I = E * G - Fm * Fm
    L, Mm, N = huu * inv_len, huv * inv_len, hvv * inv_len
    s00 = (G * L - Fm * Mm) / det_I
    s01 = (G * Mm - Fm * N) / det_I
    s10 = (E * Mm - Fm * L) / det_I
    s11 = (E * N - Fm * Mm) / det_I
    tr = s00 + s11
    disc = np.sqrt(np.maximum(0.25 * tr * tr - (s00 * s11 - s01 * s10), 0.0))
    principal = np.sort(np.column_stack([-(0.5 * tr + disc), -(0.5 * tr - disc)]), axis=1)
    refined = n0 - gu[:, None] * e1 - gv[:, None] * e2
    refined /= np.linalg.norm(refined, axis=1)[:, None]
    return beta, refined, principal


_FIT_MESHES = {
    **{f"icosphere s{s}": (lambda s=s: shapes.icosphere(1.0, s)) for s in range(2, 6)},
    "ellipsoid s4": lambda: shapes.ellipsoid_mesh(1.5, 1.0, 0.75, 4),
    "noisy sphere": lambda: oracles.noisy_sphere(),
}


def _relative(got, want):
    return np.abs(got - want).max() / np.abs(want).max()


@pytest.mark.parametrize("shape", list(_FIT_MESHES))
def test_mesh_fit_equals_the_batched_oracle(shape):
    M = _FIT_MESHES[shape]()
    beta, refined, principal = _batched_mesh_fit(M)
    jet = np.column_stack(_mesh_jet(M.vertices, M.topology)[3])
    # relative to each vertex's largest coefficient: on a sphere the slopes
    # and the uv term vanish up to rounding
    assert np.all(np.abs(jet - beta).max(axis=1) <= 1e-12 * np.abs(beta).max(axis=1))
    data = M.curvature_data
    assert _relative(data.normals, refined) <= 1e-12
    assert _relative(data.principal.sum(axis=1), principal.sum(axis=1)) <= 1e-12
    assert _relative(data.principal.prod(axis=1), principal.prod(axis=1)) <= 1e-12
    # at umbilics sqrt(max(tr^2/4 - det, 0)) lifts a rounding change in its
    # argument to about 1e-8 in the principal pair
    assert np.all(np.abs(data.principal - principal) <= 1e-7 * np.abs(principal))


@pytest.mark.parametrize("level,spread", [(3, 2.33e-2), (4, 5.93e-3)])
def test_mesh_curvature_is_scale_free(level, spread):
    # the jet's ridge scales each diagonal entry of the normal equations by
    # 1 + 1e-12, so the fit commutes with scaling; a ridge of 1e-12 times the
    # trace weighed as 1/r^2 against the quadratic terms, and max |k r - 1|
    # on the s3 icosphere went from 2.3e-2 at r = 1 to 0.99 at r = 1e-6
    M = shapes.icosphere(1.0, level)
    base = M.curvature_data.principal
    assert np.abs(base - 1.0).max() == pytest.approx(spread, rel=1e-2)
    for k in range(21):
        # scaling by a power of two is exact, and so is the fit's response
        r = 2.0 ** -k
        assert np.array_equal(M.with_vertices(M.vertices * r).curvature_data.principal * r, base), k
    for r in (1e-4, 1e-5, 1e-6):
        # other scales round the coordinates; at umbilics the principal pair
        # lifts that to about 1e-8, so the sum and the spread are compared
        kr = M.with_vertices(M.vertices * r).curvature_data.principal * r
        assert _relative(kr.sum(axis=1), base.sum(axis=1)) <= 1e-12
        assert np.abs(kr - 1.0).max() == pytest.approx(np.abs(base - 1.0).max(), rel=1e-9)


def test_mesh_evolve_commutes_with_scaling_by_powers_of_two():
    # 1/H has degree -1, so 2^k times a solution solves the flow too; the
    # scaling is exact in floating point and the fit is scale-free, so the
    # frames agree bit for bit
    E = shapes.ellipsoid_mesh(1.0, 0.8, 0.6, 2)
    cfg = FlowConfig(t_end=0.05, dt=1e-3)
    base = evolve(E, speeds.mean_curvature(2), 0.0, cfg).frames
    for k in (-20, -3, 1, 4):
        frames = evolve(E.with_vertices(E.vertices * 2.0**k), speeds.mean_curvature(2), 0.0, cfg).frames
        assert [t for t, _ in frames] == [t for t, _ in base]
        assert all(np.array_equal(M.vertices, B.vertices * 2.0**k) for (_, M), (_, B) in zip(frames, base)), k


# ---------------------------------------------------------------------------
# whole-mesh oracle: the jet fit before the vertex blocks


def _whole_mesh_jet(verts, topo):
    """The fit over (K, V) arrays of the whole mesh, one moment per product array."""
    _, n0 = _triangles(verts, topo.faces).normals(verts.shape[0])
    e1, e2 = _tangent_basis(n0)
    n = np.ascontiguousarray(n0.T)
    dx, dy, dz = (c[topo.two_ring] - c for c in np.ascontiguousarray(verts.T))
    u, v, w = (dx * a[0] + dy * a[1] + dz * a[2] for a in (e1, e2, n))

    def total(x):
        return x.sum(axis=0)

    uu, uv, vv = u * u, u * v, v * v
    m20, m11, m02 = total(uu), total(uv), total(vv)
    m30, m21, m12, m03 = total(uu * u), total(uu * v), total(u * vv), total(vv * v)
    m40, m31, m22, m13, m04 = total(uu * uu), total(uu * uv), total(uu * vv), total(uv * vv), total(vv * vv)
    ata = [
        [m20],
        [m11, m02],
        [0.5 * m30, 0.5 * m21, 0.25 * m40],
        [m21, m12, 0.5 * m31, m22],
        [0.5 * m12, 0.5 * m03, 0.25 * m22, 0.5 * m13, 0.25 * m04],
    ]
    atb = [total(w * u), total(w * v), 0.5 * total(w * uu), total(w * uv), 0.5 * total(w * vv)]
    for row in ata:
        row[-1] = row[-1] * (1.0 + 1e-12)
    return n, e1, e2, _solve_ldl(ata, atb)


def _remeshed_icosphere():
    """icosphere(1, 1) re-meshed with a sphere-projected centroid in every other
    face: 82 vertices of valence 3 to 10, two-rings of K = 28 slots."""
    ico = shapes.icosphere(1.0, 1)
    a, b, c = ico.faces[::2].T
    mid = ico.vertices[a] + ico.vertices[b] + ico.vertices[c]
    m = ico.num_vertices + np.arange(a.shape[0])
    faces = np.vstack([ico.faces[1::2], np.column_stack([a, b, m]), np.column_stack([b, c, m]),
                       np.column_stack([c, a, m])])
    return DiscreteHypersurface(np.vstack([ico.vertices, mid / np.linalg.norm(mid, axis=1)[:, None]]), faces)


_BLOCKED_JET_MESHES = {
    "icosphere s2": lambda: shapes.icosphere(1.0, 2),  # fewer vertices than one block
    "icosphere s4": lambda: shapes.icosphere(1.0, 4),  # V not a multiple of the block
    "icosphere s5": lambda: shapes.icosphere(1.0, 5),
    "remeshed": _remeshed_icosphere,  # irregular, K = 28
    "noisy sphere": lambda: oracles.noisy_sphere(),
}


def _assert_jets_equal(got, want):
    for g, w in zip((*got[:3], *got[3]), (*want[:3], *want[3])):
        assert g.shape == w.shape
        assert np.array_equal(g, w)


@pytest.mark.parametrize("shape", list(_BLOCKED_JET_MESHES))
def test_blocked_jet_equals_the_whole_mesh_oracle(shape):
    M = _BLOCKED_JET_MESHES[shape]()
    num_slots, num_vertices = M.topology.two_ring.shape
    blocks = -(-num_vertices // (hypersurface._RING_SLOTS // num_slots))
    assert (blocks == 1) == (shape in ("icosphere s2", "remeshed"))
    want = _whole_mesh_jet(M.vertices, M.topology)
    _assert_jets_equal(_mesh_jet(M.vertices, M.topology, _triangles(M.vertices, M.faces)), want)
    _assert_jets_equal(_mesh_jet(M.vertices, M.topology), want)


@pytest.mark.parametrize("shape,slots", [
    ("remeshed", 1),  # blocks of two vertices
    ("noisy sphere", 1),
    ("remeshed", 100),  # blocks of three vertices, K = 28
    ("noisy sphere", 100),  # blocks of five vertices, K = 18
    ("icosphere s2", 7 * 18),  # 162 = 23 * 7 + 1: the last vertex would be a block alone
])
def test_jet_blocks_do_not_change_the_fit(shape, slots, monkeypatch):
    M = _BLOCKED_JET_MESHES[shape]()
    want = _whole_mesh_jet(M.vertices, M.topology)
    monkeypatch.setattr(hypersurface, "_RING_SLOTS", slots)
    _assert_jets_equal(_mesh_jet(M.vertices, M.topology), want)


def test_jet_memory_is_bounded_by_the_block():
    # over whole-mesh (K, V) arrays one fit at s5 peaked at 18.9 MB
    M = shapes.icosphere(1.0, 5)
    tri = _triangles(M.vertices, M.faces)
    assert _traced_peak(_mesh_jet, M.vertices, M.topology, tri) < 8 * 2**20


# ---------------------------------------------------------------------------
# face-kernel memo


def _fresh_curvature(M):
    """Normals and principal curvatures of M from a kernel formed here."""
    return hypersurface._mesh_curvatures(M.vertices, M.topology, _triangles(M.vertices, M.faces))


def test_alternating_mesh_snapshots_get_their_own_face_kernels():
    # the snapshots share one topology, so a memo keyed by anything but the
    # snapshot hands the second one the first one's normals
    M1 = shapes.ellipsoid_mesh(1.5, 1.0, 0.75, 2)
    M2 = M1.with_vertices(M1.vertices * np.array([0.8, 1.0, 1.2]))
    pts = _distance_queries(M1, seed=3)
    want = {}
    for M in (M1, M2):
        _snapshot.cache_clear()
        want[id(M)] = (*_fresh_curvature(M), _fresh(signed_interior_distance, M, pts))
    _snapshot(M2).kernel
    # each first visit fits the curvature while the memo holds the other snapshot
    for M in (M1, M2, M1, M2):
        normals, principal, signed = want[id(M)]
        assert np.array_equal(M.curvature_data.normals, normals)
        assert np.array_equal(M.curvature_data.principal, principal)
        assert np.array_equal(signed_interior_distance(M, pts), signed)
        assert _snapshot(M).kernel is _snapshot(M).kernel
        assert not _snapshot(M).kernel.cross.flags.writeable


def test_a_flow_leaves_one_face_kernel_in_the_memo():
    M0 = shapes.icosphere(1.0, 2)
    traj = evolve(M0, speeds.speed_by_name("H", 2), 0.0, FlowConfig(t_end=0.1, dt=0.01, frame_interval=0.01))
    assert len(traj.frames) == 11
    assert _snapshot.cache_info().currsize == 1
    frames = [weakref.ref(M) for _, M in traj.frames[1:]]
    del traj
    gc.collect()
    # the memo keeps at most the last snapshot formed, never a frame per step
    assert sum(ref() is not None for ref in frames) <= 1


def test_a_rejected_snapshot_does_not_poison_the_next_curvature():
    M = shapes.icosphere(1.0, 2)
    flat = M.vertices.copy()
    flat[M.faces[0, 1]] = flat[M.faces[0, 0]]  # face 0 loses its area
    with pytest.raises(DegenerateElement):
        M.with_vertices(flat)
    M2 = M.with_vertices(M.vertices * 1.5)
    want = _fresh_curvature(M2)
    assert np.array_equal(M2.curvature_data.normals, want[0])
    assert np.array_equal(M2.curvature_data.principal, want[1])


# ---------------------------------------------------------------------------
# curve-kernel memo


def _fresh_curve_curvature(M):
    """Normals and curvatures of polygon M from a kernel formed here."""
    poly = _polygon(M.vertices)
    return poly.normals()[1], poly.curvature()[:, None]


def test_alternating_curve_snapshots_get_their_own_curve_kernels():
    M1 = shapes.ellipse_polygon(2.0, 1.0, 128)
    M2 = M1.with_vertices(M1.vertices * np.array([0.8, 1.2]))
    pts = _distance_queries(M1, seed=3)
    want = {}
    for M in (M1, M2):
        _snapshot.cache_clear()
        want[id(M)] = (*_fresh_curve_curvature(M), _polygon(M.vertices).edge_lengths,
                       _fresh(signed_interior_distance, M, pts))
    _snapshot(M2).kernel
    # each first visit reads the curvature while the memo holds the other snapshot
    for M in (M1, M2, M1, M2):
        normals, principal, lengths, signed = want[id(M)]
        assert np.array_equal(M.curvature_data.normals, normals)
        assert np.array_equal(M.curvature_data.principal, principal)
        assert np.array_equal(M.edge_lengths, lengths)
        assert np.array_equal(signed_interior_distance(M, pts), signed)
        assert _snapshot(M).kernel is _snapshot(M).kernel
        assert not any(a.flags.writeable for a in _snapshot(M).kernel)


def test_a_curve_flow_leaves_one_curve_kernel_in_the_memo():
    M0 = shapes.ellipse_polygon(2.0, 1.0, 64)
    traj = evolve(M0, speeds.mean_curvature(1), 0.0, FlowConfig(t_end=0.05, dt=0.005, frame_interval=0.005))
    assert len(traj.frames) == 11
    assert _snapshot.cache_info().currsize == 1
    frames = [weakref.ref(M) for _, M in traj.frames[1:]]
    del traj
    gc.collect()
    # the memo keeps at most the last snapshot formed, never a frame per step
    assert sum(ref() is not None for ref in frames) <= 1


def test_a_rejected_curve_snapshot_does_not_poison_the_next_curvature():
    M = shapes.circle_polygon(1.0, 16)
    with pytest.raises(DegenerateElement):
        DiscreteHypersurface(np.insert(M.vertices, 1, M.vertices[1], axis=0))
    M2 = M.with_vertices(M.vertices * np.array([1.5, 1.0]))
    normals, principal = _fresh_curve_curvature(M2)
    assert np.array_equal(M2.curvature_data.normals, normals)
    assert np.array_equal(M2.curvature_data.principal, principal)


def test_building_and_reading_a_family_keeps_one_curve_kernel():
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        fam = families.exponential_sphere_family(-6.0, 0.0, 0.01, n=1, resolution=256)
        for _, M in fam.frames:
            M.curvature_data
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(fam.frames) == 601
    assert _snapshot.cache_info().currsize == 1
    # a frame keeps its 4 KB of vertices and 6 KB of normals and curvatures;
    # a kernel kept with each frame would add another 10 KB (padded rows,
    # edges and lengths)
    assert kept / len(fam.frames) < 15_000


@pytest.mark.parametrize("shape", ["icosphere s0", "icosphere s3", "ellipsoid s2", "half ball", "remeshed"])
def test_mesh_topology_equals_the_loop_and_unique_oracles(shape):
    M = {
        "icosphere s0": lambda: shapes.icosphere(1.0, 0),
        "icosphere s3": lambda: shapes.icosphere(1.0, 3),
        "ellipsoid s2": lambda: shapes.ellipsoid_mesh(1.5, 1.0, 0.75, 2),
        "half ball": _half_ball,
        # irregular valences from centroid splits
        "remeshed": _remeshed_icosphere,
    }[shape]()
    topo = M.topology
    ring = topo.two_ring
    assert ring.dtype == np.int64 and ring.flags.c_contiguous
    assert np.array_equal(ring, _two_ring_oracle(M.faces, M.num_vertices).T)
    for got, want in zip(_edge_table(M.faces), _edge_table_oracle(M.faces)):
        assert got.dtype == want.dtype and got.shape == want.shape
        assert np.array_equal(got, want)
    assert np.array_equal(topo.unique_edges, _edge_table_oracle(M.faces)[0])


def test_mesh_topology_errors_keep_their_messages():
    ico = shapes.icosphere(1.0, 0)
    with pytest.raises(ValueError, match="^mesh is not closed: some edge is not shared by two faces$"):
        DiscreteHypersurface(ico.vertices, ico.faces[1:])
    flipped = ico.faces.copy()
    flipped[0] = flipped[0, ::-1]
    with pytest.raises(ValueError, match="^inconsistent face orientation: repeated directed edge$"):
        DiscreteHypersurface(ico.vertices, flipped)
    twice = np.vstack([ico.vertices, ico.vertices + 3.0])
    with pytest.raises(ValueError, match="^mesh is not a topological sphere$"):
        DiscreteHypersurface(twice, np.vstack([ico.faces, ico.faces + 12]))


def _ellipsoid_curvatures(verts, a, b, c):
    """Exact k1 + k2 and k1 k2 at points of the ellipsoid with semi-axes a, b, c."""
    x, y, z = verts.T
    h2 = x * x / a**4 + y * y / b**4 + z * z / c**4
    abc2 = (a * b * c) ** 2
    mean_sum = (a * a + b * b + c * c - (x * x + y * y + z * z)) / (abc2 * h2**1.5)
    return mean_sum, 1.0 / (abc2 * h2 * h2)


def test_mesh_curvature_converges_on_the_ellipsoid():
    errs = []
    for s in (3, 4, 5):
        M = shapes.ellipsoid_mesh(1.5, 1.0, 0.75, s)
        lam = M.curvature_data.principal
        mean_sum, gauss = _ellipsoid_curvatures(M.vertices, 1.5, 1.0, 0.75)
        errs.append((np.abs(lam.sum(axis=1) - mean_sum).max(), np.abs(lam.prod(axis=1) - gauss).max()))
    for coarse, fine in zip(errs, errs[1:]):
        assert coarse[0] / fine[0] >= 2.5
        assert coarse[1] / fine[1] >= 2.5


def test_degenerate_edge_rejected():
    pts = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]])
    with pytest.raises(DegenerateElement):
        DiscreteHypersurface(pts)


def test_degenerate_face_rejected():
    ico = shapes.icosphere(1.0, 0)
    verts = ico.vertices.copy()
    verts[1] = verts[0]  # zero-area faces appear
    with pytest.raises(DegenerateElement):
        DiscreteHypersurface(verts, ico.faces)


def test_orientation_enforced():
    cw = shapes.circle_polygon(1.0, 16).vertices[::-1].copy()
    with pytest.raises(ValueError):
        DiscreteHypersurface(cw)
    ico = shapes.icosphere(1.0, 0)
    flipped = ico.faces[:, ::-1].copy()
    with pytest.raises(ValueError):
        DiscreteHypersurface(ico.vertices, flipped)


# ---------------------------------------------------------------------------
# containment


def test_containment_trivia(unit_circle_256):
    assert contains_point(unit_circle_256, [0.0, 0.0]) is Containment.INSIDE
    assert contains_point(unit_circle_256, [3.0, 0.0]) is Containment.OUTSIDE
    assert contains_point(unit_circle_256, [1.0, 0.0]) is Containment.ON_BOUNDARY


def _regular_polygon_inside(pts, m, radius=1.0):
    # exact membership for the regular m-gon inscribed in a circle
    ang = np.arctan2(pts[:, 1], pts[:, 0]) % (2.0 * np.pi / m)
    rho = np.linalg.norm(pts, axis=1)
    return rho * np.cos(ang - np.pi / m) < radius * np.cos(np.pi / m)


def test_winding_agrees_with_polygon_oracle(unit_circle_256):
    rng = np.random.default_rng(7)
    pts = rng.uniform(-1.5, 1.5, size=(10_000, 2))
    codes = classify_points(unit_circle_256, pts)
    oracle = _regular_polygon_inside(pts, 256)
    decided = codes != BOUNDARY_CODE
    assert np.array_equal(codes[decided] == INSIDE_CODE, oracle[decided])


def test_winding_agrees_on_affine_ellipse(ellipse_2_1):
    rng = np.random.default_rng(8)
    pts = rng.uniform(-2.5, 2.5, size=(10_000, 2))
    codes = classify_points(ellipse_2_1, pts)
    oracle = _regular_polygon_inside(pts / np.array([2.0, 1.0]), 256)
    decided = codes != BOUNDARY_CODE
    assert np.array_equal(codes[decided] == INSIDE_CODE, oracle[decided])


def test_mesh_containment_agrees_with_convex_oracle(icosphere_sub3):
    M = icosphere_sub3
    a = M.vertices[M.faces[:, 0]]
    b = M.vertices[M.faces[:, 1]]
    c = M.vertices[M.faces[:, 2]]
    normals = np.cross(b - a, c - a)
    rng = np.random.default_rng(9)
    pts = rng.uniform(-1.3, 1.3, size=(10_000, 3))
    # inside the convex polyhedron iff on the inner side of every face plane
    side = np.einsum("qj,fj->qf", pts, normals) - np.einsum("fj,fj->f", a, normals)
    oracle = np.all(side < 0.0, axis=1)
    margin = np.abs(side).min(axis=1)
    codes = classify_points(M, pts)
    decided = (codes != BOUNDARY_CODE) & (margin > 1e-9)
    assert np.array_equal(codes[decided] == INSIDE_CODE, oracle[decided])


def _curve_distance_oracle(M, points):
    # every point against every edge, with the arithmetic of the original
    # brute-force kernel
    a = M.vertices
    d = np.roll(a, -1, axis=0) - a
    dd = np.einsum("ij,ij->i", d, d)
    dd = np.where(dd > 0.0, dd, 1.0)
    ap = points[:, None, :] - a[None, :, :]
    t = np.clip(np.einsum("qij,ij->qi", ap, d) / dd[None, :], 0.0, 1.0)
    closest = a[None, :, :] + t[:, :, None] * d[None, :, :]
    return np.min(np.linalg.norm(points[:, None, :] - closest, axis=2), axis=1)


def _mesh_distance_oracle(M, points):
    a, b, c = (M.vertices[M.faces[:, j]][None, :, :] for j in range(3))
    return np.concatenate([
        np.min(geometry.point_triangle_distance(p[:, None, :], a, b, c), axis=1)
        for p in np.array_split(points, -(-points.shape[0] // 256))
    ])


def _distance_queries(M, seed):
    rng = np.random.default_rng(seed)
    dim = M.vertices.shape[1]
    lo, hi = M.vertices.min(axis=0), M.vertices.max(axis=0)
    boxed = rng.uniform(lo - 0.2, hi + 0.2, size=(400, dim))
    v = rng.normal(size=dim)
    v /= np.linalg.norm(v)
    reflected = []
    for c in (-0.3, 0.0, 0.4):
        s = M.vertices @ v - c
        reflected.append(M.vertices - 2.0 * s[:, None] * v[None, :])
    centre = M.vertices.mean(axis=0)[None, :]
    far = 50.0 * rng.normal(size=(20, dim))
    return np.vstack([boxed, *reflected, centre, far])


def _half_disc(count=200):
    th = np.linspace(0.0, np.pi, count)
    return DiscreteHypersurface(np.column_stack([np.cos(th), np.sin(th)]))


def _half_ball(lon=24, lat=12):
    # dome rings from the equator up, then the pole, then the centre of a
    # flat base fanned into long thin triangles
    phi = 0.5 * np.pi * np.arange(lat) / lat
    th = 2.0 * np.pi * np.arange(lon) / lon
    ring = np.column_stack([np.cos(th), np.sin(th), np.zeros(lon)])
    verts = np.vstack([ring * np.cos(p) + [0.0, 0.0, np.sin(p)] for p in phi] + [[[0.0, 0.0, 1.0]], [[0.0, 0.0, 0.0]]])
    pole, base = lat * lon, lat * lon + 1
    faces = [[base, (i + 1) % lon, i] for i in range(lon)]
    for k in range(lat):
        for i in range(lon):
            a, b = k * lon + i, k * lon + (i + 1) % lon
            faces += [[a, b, b + lon], [a, b + lon, a + lon]] if k + 1 < lat else [[a, b, pole]]
    return DiscreteHypersurface(verts, np.array(faces))


def _bumpy_sphere():
    # a radial graph over an icosphere stays embedded; the modulation makes
    # sharp concave and convex edges and vertices, where a face normal alone
    # gives the wrong sign
    ico = shapes.icosphere(1.0, 2)
    x, y, z = ico.vertices.T
    r = 1.0 + 0.5 * np.sin(9.0 * x) * np.sin(9.0 * y) * np.cos(9.0 * z)
    return DiscreteHypersurface(ico.vertices * r[:, None], ico.faces)


# the half disc's diameter and the half ball's base fan are elements whose
# centroids sit far from parts of them, so their centroid balls are large;
# on the bumpy sphere edge and vertex pseudonormals decide signs, and the
# mirrored shapes add vertices and edge midpoints reflected through an exact
# symmetry plane, which land on the surface up to rounding
@pytest.mark.parametrize("shape", [
    "circle", "ellipse 2:1", "square", "noisy circle", "peanut", "half disc",
    "icosphere s2", "noisy sphere", "half ball", "bumpy sphere", "circle mirrored",
    "icosphere mirrored",
])
def test_distances_equal_the_all_pairs_oracle_bitwise(shape):
    M = {
        "circle": lambda: shapes.circle_polygon(1.0, 256),
        "ellipse 2:1": lambda: shapes.ellipse_polygon(2.0, 1.0, 256),
        "square": lambda: shapes.square_polygon(2.0, 1),
        "noisy circle": lambda: oracles.noisy_circle(1.0, 0.05, 300, seed=3),
        "peanut": lambda: oracles.peanut_polygon(128),
        "half disc": _half_disc,
        "icosphere s2": lambda: shapes.icosphere(1.0, 2),
        "noisy sphere": lambda: oracles.noisy_sphere(1.0, 0.05, 2, seed=4),
        "half ball": _half_ball,
        "bumpy sphere": _bumpy_sphere,
        "circle mirrored": lambda: shapes.circle_polygon(1.0, 256),
        "icosphere mirrored": lambda: shapes.icosphere(1.0, 2),
    }[shape]()
    pts = _distance_queries(M, seed=len(shape))
    if shape.endswith("mirrored"):
        e = M.edges
        on_surface = np.vstack([M.vertices, 0.5 * (M.vertices[e[:, 0]] + M.vertices[e[:, 1]])])
        pts = np.vstack([pts, on_surface * np.r_[-1.0, np.ones(M.dimension)]])
    if M.dimension == 1:
        oracle = _curve_distance_oracle(M, pts)
        inside = geometry.winding_number_2d(M.vertices, pts) != 0
        assert np.array_equal(geometry.point_segment_distance(pts, M.vertices, np.roll(M.vertices, -1, axis=0)), oracle)
    else:
        oracle = _mesh_distance_oracle(M, pts)
        inside = np.abs(geometry.winding_number_3d(M.vertices, M.faces, pts)) > 0.5
    assert np.array_equal(surface_distance(M, pts), oracle)
    assert np.array_equal(signed_interior_distance(M, pts), np.where(inside, oracle, -oracle))
    # containment: on the boundary within the band, the winding sign elsewhere
    band = hypersurface.BOUNDARY_TOL_FACTOR * M.bbox_diagonal
    codes = np.where(oracle < band, BOUNDARY_CODE, np.where(inside, INSIDE_CODE, OUTSIDE_CODE))
    assert np.array_equal(classify_points(M, pts), codes)


def _pushed_icosphere_vertices():
    # a vertex pushed out along its normal is nearest to the vertex itself,
    # so every face around it ties exactly
    M = shapes.icosphere(1.0, 2)
    return M, M.vertices * 1.05


def _square_corner_diagonals():
    # on the outward diagonal of a corner both edges there tie exactly
    M = shapes.square_polygon(2.0, 1)
    t = np.linspace(0.01, 1.0, 25)[:, None]
    return M, np.vstack([c + t * c for c in M.vertices])


_NEAREST_CASES = {
    "circle": lambda: shapes.circle_polygon(1.0, 256),
    "ellipse 2:1": lambda: shapes.ellipse_polygon(2.0, 1.0, 256),
    "square": lambda: shapes.square_polygon(2.0, 1),
    "noisy circle": lambda: oracles.noisy_circle(1.0, 0.05, 300, seed=3),
    "peanut": lambda: oracles.peanut_polygon(128),
    "half disc": _half_disc,
    "icosphere s2": lambda: shapes.icosphere(1.0, 2),
    "noisy sphere": lambda: oracles.noisy_sphere(1.0, 0.05, 2, seed=4),
    "half ball": _half_ball,
    "bumpy sphere": _bumpy_sphere,
}


def _nearest_case(name):
    if name == "square corner diagonals":
        return _square_corner_diagonals()
    if name == "pushed icosphere vertices":
        return _pushed_icosphere_vertices()
    M = _NEAREST_CASES[name]()
    return M, _distance_queries(M, seed=len(name))


def _all_pairs_nearest(el, points):
    """Oracle: every point against every element, in blocks of points."""
    best, near = [], []
    elements = np.arange(el.idx.shape[0])
    for p in np.array_split(points, -(-points.shape[0] // 64)):
        d = el.distance(p[:, None, :], *(c[None] for c in el.corners))
        low = d.min(axis=1)
        best.append(low)
        near.append(np.where(d == low[:, None], elements, -1).max(axis=1))
    return np.concatenate(best), np.concatenate(near)


@pytest.mark.parametrize("name", [*_NEAREST_CASES, "square corner diagonals", "pushed icosphere vertices"])
def test_nearest_is_the_all_pairs_minimum_and_its_last_minimiser(name):
    M, pts = _nearest_case(name)
    el = _snapshot(M)
    best, near = _nearest(pts, el)
    want_best, want_near = _all_pairs_nearest(el, pts)
    assert np.array_equal(best, want_best)
    assert np.array_equal(near, want_near)
    if name in ("square corner diagonals", "pushed icosphere vertices"):
        d = el.distance(pts[:, None, :], *(c[None] for c in el.corners))
        assert np.all(np.count_nonzero(d == best[:, None], axis=1) >= 2)


@pytest.mark.parametrize("name", ["peanut", "half ball", "pushed icosphere vertices"])
def test_nearest_blocks_do_not_change_the_result(name, monkeypatch):
    M, pts = _nearest_case(name)
    el = _snapshot(M)
    want = _nearest(pts, el)
    # every point is its own ball query, and its pairs span kernel calls
    monkeypatch.setattr(hypersurface, "_QUERY_PAIRS", 1)
    monkeypatch.setattr(hypersurface, "_BALL_PAIRS", 3)
    got = _nearest(pts, el)
    assert np.array_equal(got[0], want[0])
    assert np.array_equal(got[1], want[1])


@pytest.mark.parametrize("name", ["256-gon", "s4 icosphere"])
def test_one_point_queries_build_no_grid(name, monkeypatch):
    # one point against every element is one kernel pass, cheaper than
    # forming the centroid grid; a query of many points is pruned by it
    M = shapes.circle_polygon(1.0, 256) if name == "256-gon" else shapes.icosphere(1.0, 4)
    grids = []
    grid_init = hypersurface._Grid.__init__

    def count_grids(self, *args):
        grids.append(args)
        grid_init(self, *args)

    monkeypatch.setattr(hypersurface._Grid, "__init__", count_grids)
    hypersurface._snapshot.cache_clear()
    centre = M.vertices.mean(axis=0)
    assert inner_outer_radii(M, centre).rho_minus > 0.99
    assert contains_point(M, centre) is Containment.INSIDE
    assert contains_point(M, 3.0 * M.vertices[0]) is Containment.OUTSIDE
    assert _snapshot(M).ball[1] > 0.99
    assert grids == []
    E = shapes.ellipsoid_mesh(1.5, 1.0, 0.75, 3)
    signed_interior_distance(E, np.random.default_rng(0).uniform(-2.0, 2.0, size=(16, 3)))
    assert len(grids) == 1


@pytest.mark.parametrize("name", ["256-gon centre", "s3 icosphere far points"])
def test_far_and_deep_points_are_measured_exactly(name):
    # points deep inside the surface or far outside it lie away from every
    # centroid: the first bound, from the nearest occupied cell, is loose,
    # and the ball it gives meets many cells
    rng = np.random.default_rng(7)
    if name == "256-gon centre":
        M = shapes.circle_polygon(1.0, 256)
        ring = M.vertices[rng.choice(256, size=40, replace=False)] * rng.uniform(0.99, 1.01, size=(40, 1))
        pts = np.vstack([ring[:20], np.zeros((1, 2)), ring[20:]])
    else:
        M = shapes.icosphere(1.0, 3)
        v = rng.normal(size=(40, 3))
        v /= np.linalg.norm(v, axis=1)[:, None]
        pts = v * rng.choice([2.0, 5.0, 40.0], size=(40, 1))
    el = _snapshot(M)
    assert pts.shape[0] * el.idx.shape[0] > hypersurface._BALL_PAIRS  # pruned by the grid
    best, near = _nearest(pts, el)
    want_best, want_near = _all_pairs_nearest(el, pts)
    assert best.tobytes() == want_best.tobytes()
    assert near.tobytes() == want_near.tobytes()


# ---------------------------------------------------------------------------
# tree oracles: the centroid kd-tree and the sparse two-ring before the cell grid


def _tree_nearest(points, el):
    """Oracle: ``_nearest`` as it ran on a kd-tree over the element centroids.

    The body is the tree version's; only the tree and the largest reach are
    built here, as its element table built them.
    """
    cent = sum(el.corners[1:], el.corners[0]) / len(el.corners)
    reach = float(np.max(np.stack([np.linalg.norm(p - cent, axis=1) for p in el.corners])))
    tree = cKDTree(cent)
    _, near = tree.query(points)
    best = el.distance(points, *(c[near] for c in el.corners))
    radius = (best + reach) * (1.0 + 1e-12)  # rounding margin for the tree
    step = max(1, (1 << 18) // el.idx.shape[0])
    for s in range(0, points.shape[0], step):
        balls = tree.query_ball_point(points[s : s + step], radius[s : s + step], return_sorted=False)
        counts = np.fromiter(map(len, balls), dtype=np.intp, count=len(balls))
        elems = np.fromiter(itertools.chain.from_iterable(balls), dtype=np.intp, count=counts.sum())
        owner = np.repeat(np.arange(s, s + len(balls)), counts)
        d = np.empty(elems.shape[0])
        for k in range(0, elems.shape[0], 1 << 13):
            o, e = owner[k : k + (1 << 13)], elems[k : k + (1 << 13)]
            d[k : k + (1 << 13)] = el.distance(points[o], *(c[e] for c in el.corners))
        # each point's pairs are one run of d, never empty
        starts = np.cumsum(counts) - counts
        best[s : s + step] = np.minimum.reduceat(d, starts)
        near[s : s + step] = np.maximum.reduceat(np.where(d == best[owner], elems, -1), starts)
    return best, near


def _around_the_grid(M, el):
    """The vertex centroid, points 1e3 bounding boxes away, and points around and past the centroid grid."""
    cent = sum(el.corners[1:], el.corners[0]) / len(el.corners)
    lo, hi = cent.min(axis=0), cent.max(axis=0)
    dim = lo.shape[0]
    rng = np.random.default_rng(dim)
    away = rng.normal(size=(16, dim))
    away *= 1e3 * M.bbox_diagonal / np.linalg.norm(away, axis=1)[:, None]
    side = el.grid.side
    # past each face of the centroids' box by a share of a cell, and past its corners
    past = []
    for f in (0.01, 0.5, 0.99, 1.0, 1.5, 3.0):
        for axis in range(dim):
            for sign in (-1.0, 1.0):
                p = rng.uniform(lo, hi, size=(4, dim))
                p[:, axis] = (hi if sign > 0 else lo)[axis] + sign * f * side
                past.append(p)
        corners = np.array(np.meshgrid(*zip(lo - f * side, hi + f * side), indexing="ij")).reshape(dim, -1).T
        past.append(corners)
    return np.vstack([M.vertices.mean(axis=0)[None, :], away, *past])


@pytest.mark.parametrize("name", [*_NEAREST_CASES, "square corner diagonals", "pushed icosphere vertices"])
def test_nearest_has_the_bits_of_the_tree_query(name):
    M, pts = _nearest_case(name)
    el = _snapshot(M)
    pts = np.vstack([pts, _around_the_grid(M, el)])
    best, near = _nearest(pts, el)
    want_best, want_near = _tree_nearest(pts, el)
    assert best.tobytes() == want_best.tobytes()
    assert near.tobytes() == want_near.tobytes()


@pytest.mark.parametrize("M", [shapes.ellipse_polygon(2.0, 1.0, 64), shapes.icosphere(1.0, 2)], ids=["curve", "mesh"])
def test_points_that_are_not_finite_or_too_far_are_a_value_error(M):
    d = M.dimension + 1
    for bad in (np.nan, np.inf, -np.inf):
        p = np.zeros((3, d))
        p[1, -1] = bad
        for query in (surface_distance, signed_interior_distance, classify_points):
            with pytest.raises(ValueError, match="must be finite"):
                query(M, p)
    # the squared distance to the nearest centroid overflows
    far = np.zeros((2, d))
    far[1, 0] = 1e155
    with pytest.raises(ValueError, match="overflows"):
        surface_distance(M, far)
    far[1, 0] = 1e150
    assert surface_distance(M, far)[1] == pytest.approx(1e150)


def test_importing_the_package_loads_no_scipy():
    src = str(Path(hypersurface.__file__).resolve().parents[1])
    code = (
        f"import sys; sys.path.insert(0, {src!r}); import hyperflow; "
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
    )
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def _sparse_two_ring(topo, num_vertices):
    """Oracle: the two-ring table as the sparse adjacency product built it."""
    from scipy import sparse

    ii = np.concatenate([topo.unique_edges[:, 0], topo.unique_edges[:, 1]])
    jj = np.concatenate([topo.unique_edges[:, 1], topo.unique_edges[:, 0]])
    adj = sparse.csr_matrix(
        (np.ones(ii.shape[0], dtype=np.int8), (ii, jj)),
        shape=(num_vertices, num_vertices),
    )
    two = (adj + adj @ adj) > 0
    two.sort_indices()
    rows = np.repeat(np.arange(num_vertices), np.diff(two.indptr))
    off = rows != two.indices  # drop the diagonal
    rows, cols = rows[off], two.indices[off]
    counts = np.bincount(rows, minlength=num_vertices)
    slot = np.arange(rows.shape[0]) - (np.cumsum(counts) - counts)[rows]  # place within the row
    two_ring = np.tile(np.arange(num_vertices), (int(counts.max()), 1))
    two_ring[slot, rows] = cols
    return two_ring


def _read_back(M, tmp_path):
    path = tmp_path / "mesh.obj"
    write_surface(M, path)
    return read_surface(path)


@pytest.mark.parametrize("shape", [*(f"icosphere s{s}" for s in range(6)), "ellipsoid s3", "read remeshed"])
def test_two_ring_is_the_sparse_product(shape, tmp_path):
    if shape == "ellipsoid s3":
        M = shapes.ellipsoid_mesh(1.5, 1.0, 0.75, 3)
    elif shape == "read remeshed":
        M = _read_back(_remeshed_icosphere(), tmp_path)
    else:
        M = shapes.icosphere(1.0, int(shape[-1]))
    got = M.topology.two_ring
    want = _sparse_two_ring(M.topology, M.num_vertices)
    assert got.dtype == want.dtype and got.flags.c_contiguous
    assert np.array_equal(got, want)


def _unequal_figure_eight():
    # the self-intersecting curve that the CLI rejects: a large counter-
    # clockwise lobe and a small clockwise one crossing at the origin
    t = 2.0 * np.pi * (np.arange(64) + 0.5) / 64
    return DiscreteHypersurface(np.column_stack([np.cos(t), np.sin(t) * np.cos(t) * (1.0 + 0.5 * np.cos(t))]))


def _pushed_through_icosphere():
    ico = shapes.icosphere(1.0, 2)
    v = ico.vertices.copy()
    v[0] = -1.8 * v[0]  # pushed through the far side
    return ico.with_vertices(v)


@pytest.mark.parametrize("name", ["ellipsoid s4", "unequal figure-eight", "pushed-through icosphere", "half ball"])
def test_close_pairs_hold_the_tree_pairs(name):
    M = {
        "ellipsoid s4": lambda: shapes.ellipsoid_mesh(1.0, 1.1, 0.9, 4),
        "unequal figure-eight": _unequal_figure_eight,
        "pushed-through icosphere": _pushed_through_icosphere,
        "half ball": _half_ball,
    }[name]()
    el = _snapshot(M)
    cent = sum(el.corners[1:], el.corners[0]) / len(el.corners)
    reach = float(np.max(np.stack([np.linalg.norm(p - cent, axis=1) for p in el.corners])))
    want = cKDTree(cent).query_pairs(2.0 * reach, output_type="ndarray")
    got = np.sort(_close_pairs(el), axis=1)
    assert np.all(got[:, 0] < got[:, 1])
    got = set(map(tuple, got.tolist()))
    assert len(got) == len(_close_pairs(el))  # each pair once
    assert set(map(tuple, np.sort(want, axis=1).tolist())) <= got


def _fresh(query, M, pts):
    """A query with the memo of query structures emptied first."""
    _snapshot.cache_clear()
    return query(M, pts)


@pytest.mark.parametrize("build", [lambda: shapes.ellipse_polygon(2.0, 1.0, 128), lambda: shapes.icosphere(1.0, 2)],
                         ids=["curve", "mesh"])
def test_alternating_surfaces_get_their_own_query_structures(build):
    # the second snapshot shares the first one's connectivity arrays, so a
    # memo keyed by anything but the snapshot hands it the wrong elements
    M1 = build()
    M2 = M1.with_vertices(M1.vertices * np.linspace(0.8, 1.2, M1.dimension + 1))
    pts = _distance_queries(M1, seed=2)
    want = {(id(M), q): _fresh(q, M, pts) for M in (M1, M2) for q in (surface_distance, signed_interior_distance)}
    assert not np.array_equal(want[id(M1), surface_distance], want[id(M2), surface_distance])
    for M in (M1, M2, M1, M2):
        for q in (signed_interior_distance, surface_distance):
            assert np.array_equal(q(M, pts), want[id(M), q])
        assert is_embedded(M)


def test_the_memo_holds_the_last_surface_only():
    traj = families.exponential_sphere_family(-6.0, 0.0, 0.01, n=1, resolution=32)
    assert len(traj.frames) == 601
    frames = [weakref.ref(M) for _, M in traj.frames]
    for _, M in traj.frames:
        signed_interior_distance(M, np.zeros((1, 2)))
    assert _snapshot.cache_info().currsize == 1
    del traj, M
    gc.collect()
    assert [ref() is not None for ref in frames] == [False] * 600 + [True]


@pytest.mark.parametrize("M", [shapes.circle_polygon(1.0, 64), shapes.icosphere(1.0, 1)], ids=["curve", "mesh"])
def test_distance_queries_keep_their_shapes(M):
    d = M.dimension + 1
    for query in (surface_distance, signed_interior_distance):
        assert query(M, np.empty((0, d))).shape == (0,)
        assert query(M, np.zeros((1, d))).shape == (1,)
        assert query(M, np.zeros(d)).shape == (1,)


def test_mesh_ball_pass_memory_stays_bounded():
    # the half ball's base fan has a large reach, so nearly every query's
    # centroid ball holds hundreds of faces; an all-faces broadcast over these
    # 3900 points peaks near 800 MiB
    M = _half_ball(32, 12)
    pts = np.random.default_rng(11).uniform([-1.2, -1.2, -0.2], [1.2, 1.2, 1.2], size=(3900, 3))
    tracemalloc.start()
    try:
        got = surface_distance(M, pts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 200 * 2**20
    assert np.array_equal(got, _mesh_distance_oracle(M, pts))


def _traced_peak(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_winding_number_blocks_are_bounded_by_pairs():
    # 256 points per block against 1280 faces held (256, 1280, 3) temporaries,
    # a 55 MB peak
    M = shapes.ellipsoid_mesh(1.0, 1.1, 0.9, 3)
    pts = np.random.default_rng(2).uniform(-1.2, 1.2, size=(300, 3))
    assert _traced_peak(geometry.winding_number_3d, M.vertices, M.faces, pts) < 16 * 2**20


def test_ball_pass_near_the_centre_stays_small():
    # near the centre each point's ball holds a large share of the 5120 faces
    M = shapes.ellipsoid_mesh(1.0, 1.1, 0.9, 4)
    rng = np.random.default_rng(3)
    v = rng.normal(size=(256, 3))
    pts = 0.2 * rng.uniform(size=(256, 1)) * v / np.linalg.norm(v, axis=1)[:, None]
    assert _traced_peak(surface_distance, M, pts) < 8 * 2**20


def test_signed_interior_distance_signs(unit_circle_256):
    d = signed_interior_distance(unit_circle_256, np.array([[0.0, 0.0], [2.0, 0.0]]))
    assert d[0] > 0.9
    assert d[1] < -0.9


# ---------------------------------------------------------------------------
# inradius and circumradius


def test_radii_circle(unit_circle_256):
    rr = inner_outer_radii(unit_circle_256, center=[0.0, 0.0])
    assert rr.rho_minus == pytest.approx(1.0, abs=1e-3)
    assert rr.rho_plus == pytest.approx(1.0, abs=1e-12)


def test_radii_ellipse(ellipse_2_1):
    rr = inner_outer_radii(ellipse_2_1, center=[0.0, 0.0])
    assert rr.rho_minus == pytest.approx(1.0, abs=1e-3)
    assert rr.rho_plus == pytest.approx(2.0, abs=1e-12)


def test_radii_square():
    rr = inner_outer_radii(shapes.square_polygon(2.0), center=[0.0, 0.0])
    assert rr.rho_minus == pytest.approx(1.0, abs=1e-12)
    assert rr.rho_plus == pytest.approx(np.sqrt(2.0), abs=1e-12)


def test_chebyshev_center_mesh():
    M = shapes.icosphere(1.0, 2, center=(1.0, 2.0, 3.0))
    assert oracles.chebyshev_center(M) == pytest.approx([1.0, 2.0, 3.0], abs=2e-2)


@pytest.mark.parametrize("shape", ["4096-gon", "square", "peanut", "icosphere s3", "ellipsoid s3"])
def test_winding_numbers_only_break_ties(shape, monkeypatch):
    M = {
        "4096-gon": lambda: shapes.circle_polygon(1.0, 4096),
        "square": lambda: shapes.square_polygon(2.0, 1),
        "peanut": lambda: oracles.peanut_polygon(128),
        "icosphere s3": lambda: shapes.icosphere(1.0, 3),
        "ellipsoid s3": lambda: shapes.ellipsoid_mesh(2.0, 1.0, 1.0, 3),
    }[shape]()
    lo, hi = M.vertices.min(axis=0), M.vertices.max(axis=0)
    e = M.edges
    pts = np.vstack([
        np.random.default_rng(5).uniform(lo - 0.2, hi + 0.2, size=(2000, M.dimension + 1)),
        M.vertices,
        0.5 * (M.vertices[e[:, 0]] + M.vertices[e[:, 1]]),
    ])
    wound = []

    def counted(kernel):
        def run(*args):
            wound.append(len(args[-1]))  # the query points come last
            return kernel(*args)
        return run

    for name in ("winding_number_2d", "winding_number_3d"):
        monkeypatch.setattr(geometry, name, counted(getattr(geometry, name)))
    codes = classify_points(M, pts)
    assert sum(wound) == 0
    assert set(np.unique(codes)) == {INSIDE_CODE, OUTSIDE_CODE, BOUNDARY_CODE}
    hypersurface._inside(M, pts[:3])  # the counter sees the tie-break's kernel
    assert wound == [3]


@pytest.mark.parametrize("surface", ["curve", "mesh"])
def test_points_beyond_the_bounding_box_are_outside(surface):
    # so far out, every element ties within rounding and a pseudonormal would
    # pick the side at random; the near point sets a box member beside them
    if surface == "curve":
        M = shapes.ellipse_polygon(2.0, 1.0, 64)
        far = np.array([[0.0, 3e100], [-1e50, 1e50], [1e20, 0.0]])
        near = np.array([[0.5, 0.0]])
    else:
        M = shapes.ellipsoid_mesh(2.0, 1.0, 1.0, 2)
        far = np.array([[0.0, 0.0, 3e100], [-1e50, 1e50, 0.0], [0.0, -1e20, 1e20]])
        near = np.array([[0.5, 0.0, 0.0]])
    assert np.all(classify_points(M, far) == OUTSIDE_CODE)
    assert np.all(signed_interior_distance(M, far) < 0.0)
    assert classify_points(M, np.vstack([far, near])).tolist() == [OUTSIDE_CODE] * 3 + [INSIDE_CODE]


def test_radii_reject_outside_center(ellipse_2_1):
    # the centre prints as plain floats, not as numpy scalars
    with pytest.raises(CenterOutside, match=r"^center \[5\.0, 0\.0\] is not inside the surface$"):
        inner_outer_radii(ellipse_2_1, center=[5.0, 0.0])


RADII_SURFACES = {
    "ellipse 2:1": lambda: shapes.ellipse_polygon(2.0, 1.0, 256),
    "L": lambda: DiscreteHypersurface([[0.0, 0.0], [2.0, 0.0], [2.0, 0.5], [0.5, 0.5], [0.5, 2.0], [0.0, 2.0]]),
    "ellipsoid s3": lambda: shapes.ellipsoid_mesh(1.5, 1.0, 0.75, 3),
    "half ball": _half_ball,
}


@pytest.mark.parametrize("name", list(RADII_SURFACES))
def test_radii_take_one_distance_pass_with_the_bits_of_two(name, monkeypatch):
    M = RADII_SURFACES[name]()
    lo, hi = M.vertices.min(axis=0), M.vertices.max(axis=0)
    e = M.edges
    centres = np.vstack([
        np.random.default_rng(2).uniform(lo - 0.2, hi + 0.2, size=(30, M.dimension + 1)),  # inside and outside
        M.vertices[:3],  # on the boundary
        0.5 * (M.vertices[e[:3, 0]] + M.vertices[e[:3, 1]]),
    ])
    passes = []

    def counted(points, el):
        passes.append(points.shape[0])
        return _nearest(points, el)

    monkeypatch.setattr(hypersurface, "_nearest", counted)
    seen = set()
    for centre in centres:
        # the oracle: containment first, then the distance
        where = contains_point(M, centre)
        seen.add(where)
        del passes[:]
        if where is not Containment.INSIDE:
            with pytest.raises(CenterOutside):
                inner_outer_radii(M, center=centre)
            assert passes == [1]
            continue
        rr = inner_outer_radii(M, center=centre)
        assert passes == [1]
        assert rr.rho_minus == surface_distance(M, centre[None, :])[0]
        assert rr.rho_plus == float(np.max(np.linalg.norm(M.vertices - centre, axis=1)))
    assert seen == set(Containment)


# the 256 grid points farthest from every vertex of these shapes all lie
# outside, so a search that measured only them would find no interior point
@pytest.mark.parametrize("shape", ["half ball", "bumpy sphere"])
def test_the_centre_search_finds_the_deepest_grid_point(shape):
    M = {"half ball": _half_ball, "bumpy sphere": _bumpy_sphere}[shape]()
    centre = oracles.chebyshev_center(M)
    rr = inner_outer_radii(M, center=centre)
    assert rr.center.tobytes() == centre.tobytes()
    if shape == "half ball":
        assert rr.rho_minus == pytest.approx(0.5, abs=0.01)


# ---------------------------------------------------------------------------
# volume and embeddedness


def test_enclosed_volume_of_round_shapes(unit_circle_256):
    assert enclosed_volume(unit_circle_256) == pytest.approx(np.pi, rel=0.02)
    M = shapes.icosphere(2.0, 3)
    assert enclosed_volume(M) == pytest.approx(4.0 / 3.0 * np.pi * 8.0, rel=0.02)


def test_embeddedness_sweep(unit_circle_256, ellipse_2_1, icosphere_sub3):
    assert is_embedded(unit_circle_256)
    assert is_embedded(ellipse_2_1)
    assert is_embedded(icosphere_sub3)


def test_self_intersection_detected():
    t = 2.0 * np.pi * np.arange(64) / 64
    eight = np.column_stack([np.cos(t), np.sin(2.0 * t) / 2.0])
    assert not is_embedded(DiscreteHypersurface(eight))
    ico = shapes.icosphere(1.0, 2)
    v = ico.vertices.copy()
    v[0] = -1.8 * v[0]  # pushed through the far side
    assert not is_embedded(ico.with_vertices(v))


def _quadratic_polygon_embedded(verts):
    # every pair of non-adjacent edges
    m = verts.shape[0]
    a = verts
    b = np.roll(verts, -1, axis=0)
    i_idx, j_idx = np.triu_indices(m, k=2)
    adjacent = (i_idx == 0) & (j_idx == m - 1)
    i_idx, j_idx = i_idx[~adjacent], j_idx[~adjacent]
    return not bool(np.any(geometry.segments_intersect(a[i_idx], b[i_idx], a[j_idx], b[j_idx])))


def test_embeddedness_agrees_with_the_quadratic_sweep():
    t = 2.0 * np.pi * np.arange(64) / 64
    polygons = [np.column_stack([np.cos(t), np.sin(2.0 * t) / 2.0])]
    rng = np.random.default_rng(11)
    for _ in range(60):
        m = int(rng.integers(4, 40))
        theta = np.sort(rng.uniform(0.0, 2.0 * np.pi, m))
        r = rng.uniform(0.2, 1.0, m)
        verts = np.column_stack([r * np.cos(theta), r * np.sin(theta)])
        # swapping two vertices of a star-shaped polygon usually crosses edges
        if rng.uniform() < 0.5:
            i, j = rng.choice(m, 2, replace=False)
            verts[[i, j]] = verts[[j, i]]
        if _polygon_area(verts) < 0.0:
            verts = verts[::-1]
        polygons.append(verts)
    verdicts = [is_embedded(DiscreteHypersurface(v)) for v in polygons]
    assert verdicts == [_quadratic_polygon_embedded(v) for v in polygons]
    assert not verdicts[0] and True in verdicts and verdicts.count(False) > 10


# ---------------------------------------------------------------------------
# snapshots and files


def test_edges_run_around_a_curve_and_list_each_mesh_edge_once(unit_circle_256, icosphere_sub3):
    e = unit_circle_256.edges
    assert np.array_equal(e, np.column_stack([np.arange(256), (np.arange(256) + 1) % 256]))
    assert np.array_equal(icosphere_sub3.edges, icosphere_sub3.topology.unique_edges)
    M = unit_circle_256
    assert np.array_equal(M.edge_lengths, np.linalg.norm(np.roll(M.vertices, -1, axis=0) - M.vertices, axis=1))


def test_with_vertices_shares_topology():
    M = shapes.icosphere(1.0, 2)
    M2 = M.with_vertices(M.vertices * 2.0)
    assert M2.topology is M.topology
    assert enclosed_volume(M2) == pytest.approx(8.0 * enclosed_volume(M))


def test_vertices_are_frozen(unit_circle_256):
    with pytest.raises(ValueError):
        unit_circle_256.vertices[0, 0] = 5.0


def test_polyline_roundtrip_is_bit_exact(tmp_path):
    M = shapes.ellipse_polygon(np.pi, np.e / 2.0, 37)
    path = tmp_path / "curve.txt"
    write_surface(M, path)
    M2 = read_surface(path)
    assert np.array_equal(M.vertices, M2.vertices)


def test_mesh_roundtrip_is_bit_exact(tmp_path):
    M = shapes.icosphere(1.234567890123456, 2)
    path = tmp_path / "mesh.obj"
    write_surface(M, path)
    M2 = read_surface(path)
    assert np.array_equal(M.vertices, M2.vertices)
    assert np.array_equal(M.faces, M2.faces)


def _write_surface_oracle(M):
    """The f-string loop over numpy scalars that ``write_surface`` replaced."""
    lines = []
    if M.dimension == 1:
        for x, y in M.vertices:
            lines.append(f"{x:.17g} {y:.17g}")
    else:
        for x, y, z in M.vertices:
            lines.append(f"v {x:.17g} {y:.17g} {z:.17g}")
        for i, j, k in M.faces:
            lines.append(f"f {i + 1} {j + 1} {k + 1}")
    return ("\n".join(lines) + "\n").encode()


@pytest.mark.parametrize("shape", ["4096-gon", "noisy circle at 1e6", "ellipsoid s4", "noisy sphere"])
def test_written_bytes_equal_the_loop_oracle(tmp_path, shape):
    M = {
        "4096-gon": lambda: shapes.circle_polygon(np.pi, 4096),
        "noisy circle at 1e6": lambda: DiscreteHypersurface(oracles.noisy_circle(1.0, 0.05, 300, seed=3).vertices + [1e6, -1e6]),
        "ellipsoid s4": lambda: shapes.ellipsoid_mesh(1.0, 1.03, 0.97, 4),
        "noisy sphere": lambda: oracles.noisy_sphere(1e-7, 0.3),
    }[shape]()
    path = tmp_path / "surface.txt"
    write_surface(M, path)
    assert path.read_bytes() == _write_surface_oracle(M)
