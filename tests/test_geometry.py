"""The paired distance kernels and the 3D winding number against their row-form oracles, bit for bit.

``geometry`` computes the segment and triangle kernels and the solid angles
of the winding number one component at a time.  The oracles below are the
earlier kernels, which did the same arithmetic on (..., d) rows with
``np.einsum``, ``np.cross``, ``np.where`` over broadcast masks and
``np.linalg.norm``.  Every closest point, feature, distance and winding
number must be equal byte for byte, signed zeros included, on random pairs
and on the degenerate ones: zero-length edges, collinear triangles, points
on corners and edges, and axis-aligned elements whose dot products are sums
of -0 products.  The paired triangle intersection test must give the verdict
of the scalar pair test in ``oracles`` on every pair it is asked about.
"""

import numpy as np
import pytest

from hyperflow import geometry, shapes
from hyperflow.hypersurface import _close_pairs, _snapshot
import oracles


def _closest_point_segment_oracle(points, seg_a, seg_b):
    d = seg_b - seg_a
    dd = np.einsum("...i,...i->...", d, d)
    dd = np.where(dd > 0.0, dd, 1.0)
    t = np.clip(np.einsum("...i,...i->...", points - seg_a, d) / dd, 0.0, 1.0)
    closest = seg_a + t[..., None] * d
    return closest, np.where(t <= 0.0, 1, np.where(t >= 1.0, 2, 0))


def _closest_point_triangle_oracle(points, a, b, c):
    ab = b - a
    ac = c - a
    ap = points - a
    d1 = np.einsum("...i,...i->...", ab, ap)
    d2 = np.einsum("...i,...i->...", ac, ap)
    bp = points - b
    d3 = np.einsum("...i,...i->...", ab, bp)
    d4 = np.einsum("...i,...i->...", ac, bp)
    cp = points - c
    d5 = np.einsum("...i,...i->...", ab, cp)
    d6 = np.einsum("...i,...i->...", ac, cp)

    va = d3 * d6 - d5 * d4
    vb = d5 * d2 - d1 * d6
    vc = d1 * d4 - d3 * d2

    eps = 1e-300
    denom_bc = np.where(np.abs((d4 - d3) + (d5 - d6)) > eps, (d4 - d3) + (d5 - d6), 1.0)
    w_bc = np.clip((d4 - d3) / denom_bc, 0.0, 1.0)
    denom = va + vb + vc
    denom = np.where(np.abs(denom) > eps, denom, 1.0)
    v_in = vb / denom
    w_in = vc / denom

    t_ab = np.clip(d1 / np.where(np.abs(d1 - d3) > eps, d1 - d3, 1.0), 0.0, 1.0)
    t_ac = np.clip(d2 / np.where(np.abs(d2 - d6) > eps, d2 - d6, 1.0), 0.0, 1.0)

    on_ab = (vc <= 0) & (d1 >= 0) & (d3 <= 0)
    on_ca = (vb <= 0) & (d2 >= 0) & (d6 <= 0)
    on_bc = (va <= 0) & ((d4 - d3) >= 0) & ((d5 - d6) >= 0)
    at_a = (d1 <= 0) & (d2 <= 0)
    at_b = (d3 >= 0) & (d4 <= d3)
    at_c = (d6 >= 0) & (d5 <= d6)
    closest = a + v_in[..., None] * ab + w_in[..., None] * ac
    closest = np.where(on_ab[..., None], a + t_ab[..., None] * ab, closest)
    closest = np.where(on_ca[..., None], a + t_ac[..., None] * ac, closest)
    closest = np.where(on_bc[..., None], b + w_bc[..., None] * (c - b), closest)
    closest = np.where(at_a[..., None], a, closest)
    closest = np.where(at_b[..., None], b, closest)
    closest = np.where(at_c[..., None], c, closest)
    feature = np.select([at_c, at_b, at_a, on_bc, on_ca, on_ab], [6, 5, 4, 2, 3, 1], 0)
    return closest, feature


def _distance(points, closest):
    return np.linalg.norm(points - closest, axis=-1)


def _segments(rng, n, d):
    """Random segments and query points, with zero-length edges and points on them."""
    a, b = rng.normal(size=(2, n, d))
    b[: n // 10] = a[: n // 10]  # zero-length edges
    points = rng.normal(size=(n, d)) * 2.0
    k = n // 5
    points[k : 2 * k] = a[k : 2 * k]  # on endpoint a
    points[2 * k : 3 * k] = b[2 * k : 3 * k]  # on endpoint b
    t = rng.uniform(-0.5, 1.5, size=(k, 1))
    points[3 * k : 4 * k] = a[3 * k : 4 * k] + t * (b[3 * k : 4 * k] - a[3 * k : 4 * k])  # on the line
    return points, a, b


def _triangles(rng, n):
    """Random triangles and query points, with collinear corners and points on them."""
    a, b, c = rng.normal(size=(3, n, 3))
    k = n // 10
    c[:k] = a[:k] + rng.uniform(-1.0, 2.0, size=(k, 1)) * (b[:k] - a[:k])  # collinear
    b[k : 2 * k] = a[k : 2 * k]  # a repeated corner
    b[2 * k : 3 * k] = c[2 * k : 3 * k] = a[2 * k : 3 * k]  # a point triangle
    points = rng.normal(size=(n, 3)) * 2.0
    for j, corner in enumerate((a, b, c)):
        rows = slice((3 + j) * k, (4 + j) * k)
        points[rows] = corner[rows]  # on a corner
    rows = slice(6 * k, 7 * k)
    s = rng.uniform(0.0, 1.0, size=(k, 1))
    points[rows] = b[rows] + s * (c[rows] - b[rows])  # on edge bc
    rows = slice(7 * k, 8 * k)
    u, v = rng.uniform(0.0, 0.5, size=(2, k, 1))
    points[rows] = a[rows] + u * (b[rows] - a[rows]) + v * (c[rows] - a[rows])  # in the face
    return points, a, b, c


def _axis_aligned(rng, n, d, corners):
    """Points and elements with coordinates in {-1, -0, +0, 1, 2}: many products are -0, many sums 0."""
    values = np.array([-1.0, -0.0, 0.0, 1.0, 2.0])
    return [values[rng.integers(0, values.shape[0], size=(n, d))] for _ in range(1 + corners)]


def _assert_same_bytes(got, want):
    # np.array_equal treats -0.0 and +0.0 as equal
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


def _assert_segment_kernels_equal(points, a, b):
    want_q, want_feature = _closest_point_segment_oracle(points, a, b)
    got_q, got_feature = geometry.closest_point_segment(points, a, b)
    _assert_same_bytes(got_q, want_q)
    assert np.array_equal(got_feature, want_feature)
    _assert_same_bytes(geometry.point_segment_pair_distance(points, a, b), _distance(points, want_q))


def _assert_triangle_kernels_equal(points, a, b, c):
    want_q, want_feature = _closest_point_triangle_oracle(points, a, b, c)
    got_q, got_feature = geometry.closest_point_triangle(points, a, b, c)
    _assert_same_bytes(got_q, want_q)
    assert np.array_equal(got_feature, want_feature)
    _assert_same_bytes(geometry.point_triangle_distance(points, a, b, c), _distance(points, want_q))


@pytest.mark.parametrize("d", [2, 3])
def test_segment_kernels_equal_the_row_oracles(d):
    rng = np.random.default_rng(10 + d)
    points, a, b = _segments(rng, 20000, d)
    _assert_segment_kernels_equal(points, a, b)
    # every point against every segment, as the all-pairs searches call it
    _assert_segment_kernels_equal(points[:150, None, :], a[None, :200], b[None, :200])
    assert set(np.unique(geometry.closest_point_segment(points, a, b)[1])) == {0, 1, 2}


def test_triangle_kernels_equal_the_row_oracles():
    rng = np.random.default_rng(7)
    points, a, b, c = _triangles(rng, 20000)
    _assert_triangle_kernels_equal(points, a, b, c)
    _assert_triangle_kernels_equal(points[:150, None, :], a[None, :200], b[None, :200], c[None, :200])
    assert set(np.unique(geometry.closest_point_triangle(points, a, b, c)[1])) == set(range(7))


@pytest.mark.parametrize("d", [2, 3])
def test_segment_kernels_keep_the_oracles_signed_zeros(d):
    # einsum's sums start at +0; a closest point a + t d with a at -0 and t
    # a zero parameter reads the sign of that zero
    points, a, b = _axis_aligned(np.random.default_rng(40 + d), 20000, d, 2)
    _assert_segment_kernels_equal(points, a, b)
    want_q = _closest_point_segment_oracle(points, a, b)[0]
    assert np.any(np.signbit(want_q) & (want_q == 0.0)) and np.any(~np.signbit(want_q) & (want_q == 0.0))


def test_triangle_kernels_keep_the_oracles_signed_zeros():
    points, a, b, c = _axis_aligned(np.random.default_rng(43), 20000, 3, 3)
    _assert_triangle_kernels_equal(points, a, b, c)
    want_q = _closest_point_triangle_oracle(points, a, b, c)[0]
    assert np.any(np.signbit(want_q) & (want_q == 0.0)) and np.any(~np.signbit(want_q) & (want_q == 0.0))


def test_kernels_take_a_single_pair():
    rng = np.random.default_rng(3)
    p, a, b, c = rng.normal(size=(4, 3))
    _assert_segment_kernels_equal(p, a, b)
    _assert_triangle_kernels_equal(p, a, b, c)


def _winding_number_3d_oracle(vertices, faces, points):
    points = np.atleast_2d(points)
    ta = vertices[faces[:, 0]]
    tb = vertices[faces[:, 1]]
    tc = vertices[faces[:, 2]]
    out = np.empty(points.shape[0], dtype=float)
    step = max(1, (1 << 16) // faces.shape[0])
    for s in range(0, points.shape[0], step):
        p = points[s : s + step]
        a = ta[None, :, :] - p[:, None, :]
        b = tb[None, :, :] - p[:, None, :]
        c = tc[None, :, :] - p[:, None, :]
        la = np.linalg.norm(a, axis=2)
        lb = np.linalg.norm(b, axis=2)
        lc = np.linalg.norm(c, axis=2)
        num = np.einsum("qij,qij->qi", a, np.cross(b, c))
        den = (
            la * lb * lc
            + np.einsum("qij,qij->qi", a, b) * lc
            + np.einsum("qij,qij->qi", b, c) * la
            + np.einsum("qij,qij->qi", c, a) * lb
        )
        omega = 2.0 * np.arctan2(num, den)
        out[s : s + step] = np.sum(omega, axis=1) / (4.0 * np.pi)
    return out


@pytest.mark.parametrize("shape", ["icosphere s2", "icosphere s3", "icosphere s4", "ellipsoid s3", "noisy sphere"])
def test_winding_number_3d_equals_the_row_oracle(shape):
    # on an edge a face's triple product is 0 and its solid angle +-2 pi by
    # the sign of that zero, so edge midpoints and vertices pin the signed zeros
    M = {
        "icosphere s2": lambda: shapes.icosphere(1.0, 2),
        "icosphere s3": lambda: shapes.icosphere(1.0, 3),
        "icosphere s4": lambda: shapes.icosphere(1.0, 4),
        "ellipsoid s3": lambda: shapes.ellipsoid_mesh(1.5, 1.0, 0.75, 3),
        "noisy sphere": lambda: oracles.noisy_sphere(1.0, 0.05, 2, seed=5),
    }[shape]()
    e = M.edges
    rng = np.random.default_rng(23)
    points = np.vstack([
        M.vertices,
        0.5 * (M.vertices[e[:, 0]] + M.vertices[e[:, 1]]),
        M.vertices[M.faces].mean(axis=1),
        rng.uniform(-1.6, 1.6, size=(200, 3)),
        np.zeros((1, 3)),
    ])
    if M.faces.shape[0] > 1000:  # keep the oracle's time small
        points = points[rng.permutation(points.shape[0])[:600]]
    got = geometry.winding_number_3d(M.vertices, M.faces, points)
    assert got.tobytes() == _winding_number_3d_oracle(M.vertices, M.faces, points).tobytes()


def _pushed_through_icosphere():
    ico = shapes.icosphere(1.0, 2)
    v = ico.vertices.copy()
    v[0] = -1.8 * v[0]  # pushed through the far side
    return ico.with_vertices(v)


def _triangle_tests_agree(t1, t2):
    """The paired test's verdicts on rows of corner triples, after checking them against the oracle's."""
    got = geometry.triangles_intersect(*t1.transpose(1, 0, 2), *t2.transpose(1, 0, 2))
    assert got.dtype == bool and got.tolist() == [oracles.triangles_intersect(p, q) for p, q in zip(t1, t2)]
    return got


@pytest.mark.parametrize("shape", ["ellipsoid s3", "ellipsoid s4", "noisy sphere s3", "pushed-through icosphere"])
def test_triangle_intersection_equals_the_pair_oracle_on_close_pairs(shape):
    # every candidate pair of the embeddedness sweep: close pairs that share no vertex
    M = {
        "ellipsoid s3": lambda: shapes.ellipsoid_mesh(1.5, 1.0, 0.75, 3),
        "ellipsoid s4": lambda: shapes.ellipsoid_mesh(1.5, 1.0, 0.75, 4),
        "noisy sphere s3": lambda: oracles.noisy_sphere(amplitude=0.05),
        "pushed-through icosphere": _pushed_through_icosphere,
    }[shape]()
    pairs = _close_pairs(_snapshot(M))
    faces = M.faces[pairs]
    pairs = pairs[~np.any(faces[:, 0, :, None] == faces[:, 1, None, :], axis=(1, 2))]
    corners = M.vertices[M.faces]
    hits = _triangle_tests_agree(corners[pairs[:, 0]], corners[pairs[:, 1]])
    assert np.any(hits) == (shape == "pushed-through icosphere")


FLAT = np.array([[0.0, 0.0, 0.0], [2.0, 0.0, 0.0], [0.0, 2.0, 0.0]])


@pytest.mark.parametrize("other,meets", [
    # an edge through the interior
    ([[0.5, 0.5, -1.0], [0.5, 0.5, 1.0], [1.5, 0.2, 1.0]], True),
    # a corner on the midpoint of edge ab, the rest off the plane
    ([[1.0, 0.0, 0.0], [1.0, -1.0, 1.0], [1.0, -1.0, -1.0]], True),
    # coplanar and overlapping: an edge in the plane crosses nothing
    ([[0.5, 0.5, 0.0], [3.0, 0.5, 0.0], [0.5, 3.0, 0.0]], False),
    # parallel 1e-15 above, inside the 1e-14 band of the plane test
    ([[0.0, 0.0, 1e-15], [2.0, 0.0, 1e-15], [0.0, 2.0, 1e-15]], False),
    # a corner 1e-15 above the interior, the others below the plane
    ([[0.5, 0.5, 1e-15], [0.5, 0.5, -1.0], [1.0, 0.5, -1.0]], True),
], ids=["piercing", "edge midpoint", "coplanar overlap", "1e-15 apart", "corner 1e-15 above"])
def test_triangle_intersection_equals_the_pair_oracle_on_hand_cases(other, meets):
    other = np.array(other)
    for t1, t2 in ((FLAT, other), (other, FLAT)):
        assert _triangle_tests_agree(t1[None], t2[None]).tolist() == [meets]
        assert geometry.triangles_intersect(*t1, *t2) == meets  # a single pair
