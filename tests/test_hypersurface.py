import numpy as np
import pytest

from hyperflow.errors import CenterOutside, DegenerateElement, NonConvexInput
from hyperflow.hypersurface import (
    BOUNDARY_CODE,
    Containment,
    DiscreteHypersurface,
    INSIDE_CODE,
    chebyshev_center,
    classify_points,
    contains_point,
    curvature_pinching_ratio,
    enclosed_volume,
    inner_outer_radii,
    is_embedded,
    read_surface,
    starshapedness_ratio,
    signed_interior_distance,
    support_max,
    write_surface,
)
from hyperflow import shapes


def ellipse_curvature(a, b, theta):
    return a * b / (a * a * np.sin(theta) ** 2 + b * b * np.cos(theta) ** 2) ** 1.5


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
    assert contains_point(unit_circle_256, [1.0, 0.0], tol=1e-9) is Containment.ON_BOUNDARY


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


def test_signed_interior_distance_signs(unit_circle_256):
    d = signed_interior_distance(unit_circle_256, np.array([[0.0, 0.0], [2.0, 0.0]]))
    assert d[0] > 0.9
    assert d[1] < -0.9


# ---------------------------------------------------------------------------
# radii, star-shapedness, pinching, support


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


def test_radii_center_searched_when_omitted():
    M = shapes.circle_polygon(1.0, 128, center=(3.0, 4.0))
    rr = inner_outer_radii(M)
    assert rr.center == pytest.approx([3.0, 4.0], abs=1e-3)
    assert rr.ratio == pytest.approx(1.0, abs=1e-2)


def test_chebyshev_center_mesh():
    M = shapes.icosphere(1.0, 2, center=(1.0, 2.0, 3.0))
    assert chebyshev_center(M) == pytest.approx([1.0, 2.0, 3.0], abs=2e-2)


def test_radii_reject_outside_center(ellipse_2_1):
    with pytest.raises(CenterOutside):
        inner_outer_radii(ellipse_2_1, center=[5.0, 0.0])


def _star_oracle_ellipse(a, b):
    theta = np.linspace(0.0, 2.0 * np.pi, 200_001)
    pos = np.column_stack([a * np.cos(theta), b * np.sin(theta)])
    nrm = np.column_stack([np.cos(theta) / a, np.sin(theta) / b])
    nrm /= np.linalg.norm(nrm, axis=1)[:, None]
    return float(np.min(np.einsum("ij,ij->i", pos, nrm) / np.linalg.norm(pos, axis=1)))


def _star_oracle_offset_circle(q):
    theta = np.linspace(0.0, 2.0 * np.pi, 200_001)
    pos = np.column_stack([np.cos(theta), np.sin(theta)])
    rel = pos - q
    return float(np.min(np.einsum("ij,ij->i", rel, pos) / np.linalg.norm(rel, axis=1)))


def test_starshapedness_circle(unit_circle_256):
    assert starshapedness_ratio(unit_circle_256, [0.0, 0.0]) == pytest.approx(1.0, abs=1e-9)


def test_starshapedness_ellipse(ellipse_2_1):
    oracle = _star_oracle_ellipse(2.0, 1.0)
    assert oracle == pytest.approx(0.8, abs=1e-6)  # analytic minimum is exactly 4/5
    got = starshapedness_ratio(ellipse_2_1, [0.0, 0.0])
    assert got == pytest.approx(oracle, rel=1e-3)


def test_starshapedness_offset_circle(unit_circle_256):
    oracle = _star_oracle_offset_circle(np.array([0.5, 0.0]))
    assert oracle == pytest.approx(np.sqrt(3.0) / 2.0, abs=1e-6)
    got = starshapedness_ratio(unit_circle_256, [0.5, 0.0])
    assert 0.0 < got < 1.0
    assert got == pytest.approx(oracle, rel=1e-3)


def test_starshapedness_rejects_outside_origin(unit_circle_256):
    with pytest.raises(CenterOutside):
        starshapedness_ratio(unit_circle_256, [2.0, 0.0])


def test_pinching_sphere():
    assert curvature_pinching_ratio(shapes.icosphere(1.0, 4)) == pytest.approx(1.0, abs=0.02)


def test_pinching_ellipses(ellipse_2_1):
    # extremes are a/b^2 and b/a^2, so the ratio is (b/a^2)/(a/b^2) = (b/a)^3
    assert curvature_pinching_ratio(ellipse_2_1) == pytest.approx(0.125, rel=0.03)
    e41 = shapes.ellipse_polygon(4.0, 1.0, 256)
    assert curvature_pinching_ratio(e41) == pytest.approx(0.015625, rel=0.05)


def test_pinching_rejects_nonconvex():
    with pytest.raises(NonConvexInput):
        curvature_pinching_ratio(shapes.peanut_polygon(128))


def test_support_examples(unit_circle_256, ellipse_2_1):
    assert support_max(unit_circle_256, [1.0, 0.0]) == pytest.approx(1.0)
    assert support_max(ellipse_2_1, [0.0, 1.0]) == pytest.approx(1.0)
    shifted = shapes.circle_polygon(1.0, 256, center=(0.3, 0.0))
    assert support_max(shifted, [1.0, 0.0]) == pytest.approx(1.3)
    with pytest.raises(ValueError):
        support_max(unit_circle_256, [2.0, 0.0])


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


# ---------------------------------------------------------------------------
# snapshots and files


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
