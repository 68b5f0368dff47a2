import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from hyperflow.errors import InsufficientFrames, NeverTouches
from hyperflow.flow_engine import FlowConfig, Trajectory, _heights, evolve
from hyperflow import hypersurface, reflection
from hyperflow.hypersurface import (
    BOUNDARY_TOL_FACTOR,
    INSIDE_CODE,
    DiscreteHypersurface,
    _distances_and_codes,
    _snapshot,
    signed_interior_distance,
    surface_distance,
)
from hyperflow.reflection import (
    INCLUSION_BAND_FACTOR,
    Hyperplane,
    ReflectionStatus,
    ReflectionVerdict,
    _judge,
    _least_depths,
    _plane_depths,
    _touch_time,
    _verdicts,
    first_touch_time,
    strict_reflection_check,
    symmetry_certificate,
)
from hyperflow import families, shapes
from hyperflow.speeds import mean_curvature
import oracles


def plane(v, c):
    return Hyperplane(V=np.asarray(v, dtype=float), c=float(c))


# ---------------------------------------------------------------------------
# reflection map


def test_reflect_formula_examples():
    assert plane([1, 0], 0.0).reflect(np.array([[1.0, 0.0]]))[0] == pytest.approx([-1.0, 0.0])
    assert plane([1, 0], 0.25).reflect(np.array([[1.0, 0.0]]))[0] == pytest.approx([-0.5, 0.0])
    assert plane([0, 1], 1.0).reflect(np.array([[1.0, 2.0]]))[0] == pytest.approx([1.0, 0.0])


coords = st.floats(min_value=-10.0, max_value=10.0)


@given(
    px=coords, py=coords,
    vx=st.floats(min_value=-1.0, max_value=1.0), vy=st.floats(min_value=-1.0, max_value=1.0),
    c=coords,
)
@example(px=0.3, py=0.7, vx=1.0, vy=1e-6, c=1.0)  # |V| - 1 = 5e-13 must still be normalised
def test_reflection_is_an_involution(px, py, vx, vy, c):
    if abs(vx) + abs(vy) < 1e-3:
        vx = 1.0
    pl = plane([vx, vy], c)
    pts = np.array([[px, py]])
    assert np.abs(pl.reflect(pl.reflect(pts)) - pts).max() < 1e-12


def test_plane_normalises_direction():
    pl = plane([3.0, 4.0], 1.0)
    assert np.linalg.norm(pl.V) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("v,c", [([math.nan, 0.0], 0.0), ([1.0, 0.0], math.inf), ([1.0, 0.0], math.nan)])
def test_plane_rejects_non_finite_input(v, c):
    with pytest.raises(ValueError):
        Hyperplane(V=v, c=c)


# ---------------------------------------------------------------------------
# strict reflection verdicts


def test_circle_cap_reflects_strictly(unit_circle_256):
    v = strict_reflection_check(unit_circle_256, plane([1, 0], 0.5))
    assert v.status is ReflectionStatus.STRICT
    assert v.inclusion_margin > 0.0
    assert v.tangency_margin > 1e-3


def test_symmetry_plane_is_nonstrict(unit_circle_256):
    v = strict_reflection_check(unit_circle_256, plane([1, 0], 0.0))
    assert v.status is ReflectionStatus.NONSTRICT
    assert abs(v.inclusion_margin) < 1e-9


def test_missing_plane_is_vacuous(unit_circle_256):
    v = strict_reflection_check(unit_circle_256, plane([1, 0], 1.5))
    assert v.status is ReflectionStatus.VACUOUS


@pytest.mark.parametrize("tol", [math.nan, math.inf, -1.0])
def test_band_must_be_finite_and_non_negative(tol):
    # a NaN band made this strict cap non-strict, a negative one made it vacuous
    M = shapes.circle_polygon(1.0, 64)
    p = plane([1, 0], 0.5)
    assert strict_reflection_check(M, p).status is ReflectionStatus.STRICT
    with pytest.raises(ValueError, match="tol must be finite and non-negative"):
        strict_reflection_check(M, p, tol=tol)
    with pytest.raises(ValueError, match="tol must be finite and non-negative"):
        _verdicts(M, [p], tol=tol)


def test_far_side_surface_fails_with_witness():
    M = shapes.circle_polygon(1.0, 256, center=(2.0, 0.0))
    v = strict_reflection_check(M, plane([1, 0], 0.5))
    assert v.status is ReflectionStatus.FAILS
    assert "witness_reflected" in v.details


def test_exactly_mirror_symmetric_polygon_is_nonstrict(ellipse_2_1):
    # uniform-angle sampling with even count maps onto itself under x -> -x,
    # so the reflection lands exactly on the surface
    v = strict_reflection_check(ellipse_2_1, plane([1, 0], 0.0))
    assert v.status is ReflectionStatus.NONSTRICT
    assert abs(v.inclusion_margin) < 1e-9


def test_ellipse_loses_strictness_at_oblique_plane():
    # reflected cap of a wide ellipse exits across a 45-degree plane
    M = shapes.ellipse_polygon(np.exp(-1.0), np.exp(-2.0), 512)
    v = strict_reflection_check(M, plane([1, 1], 0.2))
    assert v.status is ReflectionStatus.FAILS


# ---------------------------------------------------------------------------
# full-depth oracle: every reflected vertex measured


def full_depth_verdict(M, pl):
    """The verdict of one plane from the exact depth of every reflected vertex.

    The measure-everything path that ``_verdicts`` replaced with its bound
    pass: vacuous and touching planes as there, and otherwise ``_judge`` over
    ``signed_interior_distance`` of all the reflected vertices.
    """
    band = INCLUSION_BAND_FACTOR * M.bbox_diagonal
    s = pl.signed_coordinate(M.vertices)
    if float(s.max()) < -band:
        return ReflectionVerdict(
            status=ReflectionStatus.VACUOUS, inclusion_margin=math.inf, tangency_margin=math.inf,
            details={"support_gap": float(-s.max())},
        )
    edges = M.edges
    near = np.abs(s) <= band
    near[edges[s[edges[:, 0]] * s[edges[:, 1]] < 0.0].ravel()] = True
    tangency_margin = math.pi / 2.0
    if np.any(near):
        angles = np.arcsin(np.clip(np.abs(_heights(M.curvature_data.normals[near], pl.V)), 0.0, 1.0))
        tangency_margin = float(angles.min())
    crossers = s > band
    if not np.any(crossers):
        return ReflectionVerdict(
            status=ReflectionStatus.NONSTRICT, inclusion_margin=0.0, tangency_margin=tangency_margin,
            details={"note": "no vertex beyond the plane band"},
        )
    source = M.vertices[crossers]
    reflected = pl.reflect(source)
    return _judge(band, tangency_margin, source, reflected, signed_interior_distance(M, reflected))


def _assert_same_verdict(got, want):
    assert got.status is want.status
    # bitwise, so that -0.0 and 0.0 differ and inf compares
    assert np.float64(got.inclusion_margin).tobytes() == np.float64(want.inclusion_margin).tobytes()
    assert np.float64(got.tangency_margin).tobytes() == np.float64(want.tangency_margin).tobytes()
    assert got.details.keys() == want.details.keys()
    for key, value in want.details.items():
        if isinstance(value, np.ndarray):
            assert np.array_equal(got.details[key], value)
        else:
            assert got.details[key] == value


def _lopsided_circle():
    # 400 of 406 vertices crowd an arc of 0.2 radians of the unit circle, so
    # the vertex centroid lies about 0.02 inside the wall there
    crowd = np.linspace(np.pi - 0.1, np.pi + 0.1, 400)
    theta = np.concatenate([crowd, np.linspace(np.pi + 0.1, 3.0 * np.pi - 0.1, 8)[1:-1]])
    return DiscreteHypersurface(np.column_stack([np.cos(theta), np.sin(theta)]))


def _c_shape():
    # an annular sector open to the right: the vertex centroid lies in the hole
    outer = np.linspace(0.4, 2.0 * np.pi - 0.4, 160)
    inner = outer[::-1]
    return DiscreteHypersurface(np.vstack([
        np.column_stack([np.cos(outer), np.sin(outer)]),
        0.6 * np.column_stack([np.cos(inner), np.sin(inner)]),
    ]))


ORACLE_SURFACES = {
    "circle 256-gon": lambda: shapes.circle_polygon(1.0, 256),
    "2:1 ellipse": lambda: shapes.ellipse_polygon(2.0, 1.0, 256),
    "peanut": lambda: oracles.peanut_polygon(128),
    "noisy circle": lambda: oracles.noisy_circle(1.0, 0.05, 256, seed=3),
    "square": lambda: shapes.square_polygon(2.0, 8),
    "ellipsoid s3": lambda: shapes.ellipsoid_mesh(1.5, 1.0, 0.75, 3),
    "noisy sphere": lambda: oracles.noisy_sphere(1.0, 0.05, 3, seed=3),
    "icosphere s2": lambda: shapes.icosphere(1.0, 2),
    "C shape": _c_shape,  # vertex centroid outside: no inscribed ball
    "lopsided circle": _lopsided_circle,  # vertex centroid just inside the wall
}


@pytest.mark.parametrize("name", list(ORACLE_SURFACES))
def test_verdicts_equal_the_full_depth_oracle_on_random_planes(name):
    M = ORACLE_SURFACES[name]()
    rng = np.random.default_rng(7)
    V = rng.normal(size=(200, M.dimension + 1))
    V /= np.linalg.norm(V, axis=1)[:, None]
    support = (M.vertices @ V.T).max(axis=0)
    planes = [plane(v, c) for v, c in zip(V, rng.uniform(-1.2, 1.2, size=200) * support)]
    got = _verdicts(M, planes)
    statuses = set()
    for verdict, p in zip(got, planes):
        _assert_same_verdict(verdict, full_depth_verdict(M, p))
        statuses.add(verdict.status)
    assert {ReflectionStatus.STRICT, ReflectionStatus.FAILS, ReflectionStatus.VACUOUS} <= statuses


def _depths_measured(M, pl, monkeypatch):
    """``_least_depths`` for one plane, and the point count of each distance call it made."""
    sizes = []

    def spy(M, points):
        sizes.append(points.shape[0])
        return signed_interior_distance(M, points)

    monkeypatch.setattr(reflection, "signed_interior_distance", spy)
    s = pl.signed_coordinate(M.vertices)
    crossers = s > INCLUSION_BAND_FACTOR * M.bbox_diagonal
    reflected = pl.reflect(M.vertices[crossers])
    bounds = np.full(reflected.shape[0], 2.0 * s[crossers].min())
    return _least_depths(M, reflected, bounds), sizes, signed_interior_distance(M, reflected)


def _assert_exact_at_the_minimiser(depth, exact):
    certified = np.isinf(depth)
    assert np.all(exact[certified] > exact.min())
    assert np.array_equal(depth[~certified], exact[~certified])
    assert np.argmin(depth) == np.argmin(exact)


def _polygon_plane_depths(M, points):
    """min over the edges (a, b) of n . a - n . p less 1e-12 of the largest coordinate, n the outward unit normal."""
    a = M.vertices
    e = np.roll(a, -1, axis=0) - a
    length = np.sqrt(e[:, 0] * e[:, 0] + e[:, 1] * e[:, 1])
    n = np.column_stack([e[:, 1] / length, -(e[:, 0] / length)])
    offsets = np.einsum("ij,ij->i", n, a) - 1e-12 * float(np.abs(a).max())
    return (offsets - points @ n.T).min(axis=1)


@pytest.mark.parametrize("name", ["circle at (-2, 0)", "4:1 ellipse"])
def test_the_images_the_ball_leaves_are_measured_in_one_call(name, monkeypatch):
    # beyond the plane [-1, 0] at 0.5 the whole circle reflects outside
    # itself, so neither the ball nor the edge planes certify anything and
    # every image goes to the grid query; on the 4:1 ellipse the ball
    # certifies the images near the centre and the planes the deep ones it
    # leaves towards the tips, and the planes measure the 6 left
    if name == "4:1 ellipse":
        M, pl = shapes.ellipse_polygon(4.0, 1.0, 512), plane([1, 0], 2.0)
    else:
        M, pl = shapes.circle_polygon(1.0, 256, center=(-2.0, 0.0)), plane([-1, 0], 0.5)
    depth, sizes, exact = _depths_measured(M, pl, monkeypatch)
    x0, radius, _ = _snapshot(M).ball
    s = pl.signed_coordinate(M.vertices)
    crossers = s > INCLUSION_BAND_FACTOR * M.bbox_diagonal
    reflected = pl.reflect(M.vertices[crossers])
    U = 2.0 * s[crossers].min()
    by_ball = radius - np.linalg.norm(reflected - x0, axis=1) > U
    by_planes = _polygon_plane_depths(M, reflected) > U
    certified = np.isinf(depth)
    assert np.array_equal(certified, by_ball | by_planes)
    if name == "4:1 ellipse":
        assert np.count_nonzero(~certified) == 6 and sizes == []
    else:
        assert sizes == [np.count_nonzero(~certified)]
    assert (np.count_nonzero(by_ball) > 0) == (name == "4:1 ellipse")
    assert (np.count_nonzero(by_planes & ~by_ball) > 0) == (name == "4:1 ellipse")
    _assert_exact_at_the_minimiser(depth, exact)


def test_a_plane_with_no_far_vertex_measures_every_image(monkeypatch):
    # one vertex beyond the plane, whose image is nearer M than U: the ball
    # cannot certify it.  It lies 2e-4 deep, far past the boundary band, so
    # its element planes measure it and the grid query is not called
    M = shapes.circle_polygon(1.0, 256)
    depth, sizes, exact = _depths_measured(M, plane([1, 0], 0.9999), monkeypatch)
    assert depth.shape == (1,) and sizes == []
    assert depth.tobytes() == exact.tobytes()


def test_the_inscribed_ball_is_absent_or_thin_on_lopsided_shapes():
    # the oracle surfaces where the ball certifies nothing or next to nothing
    assert _snapshot(_c_shape()).ball[1] <= 0.0
    assert 0.0 < _snapshot(_lopsided_circle()).ball[1] < 0.03


# the element-plane certificate of convex surfaces

CONVEX = {
    "circle 256-gon": True,
    "2:1 ellipse": True,
    "peanut": False,
    "noisy circle": False,
    "square": True,  # eight collinear points per side: turns of exactly 0
    "ellipsoid s3": True,
    "noisy sphere": False,
    "icosphere s2": True,
    "C shape": False,
    "lopsided circle": True,
}


@pytest.mark.parametrize("name", [*ORACLE_SURFACES, "icosphere s4"])
def test_element_planes_are_kept_only_for_convex_surfaces(name):
    M = shapes.icosphere(1.0, 4) if name == "icosphere s4" else ORACLE_SURFACES[name]()
    assert (_snapshot(M).planes is not None) == CONVEX.get(name, True)


@pytest.mark.parametrize("name", ["peanut", "C shape", "noisy sphere", "ellipsoid s3"])
def test_no_plane_bound_is_formed_on_a_surface_that_is_not_convex(name, monkeypatch):
    M = ORACLE_SURFACES[name]()
    calls = []

    def spy(planes, points, margin):
        calls.append(points.shape[0])
        return _plane_depths(planes, points, margin)

    monkeypatch.setattr(reflection, "_plane_depths", spy)
    rng = np.random.default_rng(17)
    V = rng.normal(size=(40, M.dimension + 1))
    V /= np.linalg.norm(V, axis=1)[:, None]
    support = (M.vertices @ V.T).max(axis=0)
    planes = [plane(v, c) for v, c in zip(V, rng.uniform(-0.5, 0.9, size=40) * support)]
    statuses = {v.status for v in _verdicts(M, planes)}
    assert ReflectionStatus.STRICT in statuses
    assert bool(calls) == CONVEX[name]


@pytest.mark.parametrize("name", [name for name, convex in CONVEX.items() if convex])
def test_the_plane_bound_is_the_depth_inside_and_at_most_0_outside(name):
    # inside a convex polygon or polyhedron the distance to the boundary is
    # the least distance to a face plane; outside, some plane is crossed
    M = ORACLE_SURFACES[name]()
    planes = _snapshot(M).planes
    rng = np.random.default_rng(19)
    d = M.dimension + 1
    lo, hi = M.vertices.min(axis=0), M.vertices.max(axis=0)
    V = rng.normal(size=(12, d))
    V /= np.linalg.norm(V, axis=1)[:, None]
    c = rng.uniform(-0.8, 0.8, size=12) * (M.vertices @ V.T).max(axis=0)
    points = np.vstack([
        rng.uniform(lo - 0.1, hi + 0.1, size=(1500, d)),
        *(plane(v, ci).reflect(M.vertices) for v, ci in zip(V, c)),  # images, inside and outside
    ])
    exact = signed_interior_distance(M, points)
    lb = _plane_depths(planes, points, 0.0)[0]
    inside = exact > 0.0
    assert 300 < np.count_nonzero(inside) < points.shape[0] - 300
    assert np.all(lb[inside] <= exact[inside])
    assert np.all(lb[~inside] <= 0.0)
    slack = 1e-12 * float(np.abs(M.vertices).max())
    assert np.all(lb[inside] >= exact[inside] - 2.0 * slack)


def test_the_planes_leave_only_images_near_the_least_depth_on_an_ellipsoid(monkeypatch):
    # planes parallel to the mirror planes: every image lies inside, and on
    # this convex mesh only those within U of the surface are measured.  The
    # ball alone left 7 820 of the 10 572 images (74 %)
    M = shapes.ellipsoid_mesh(1.5, 1.0, 0.75, 3)
    planes = [
        plane(sign * np.eye(3)[axis], 0.9 * semi * (j + 0.5) / 10)
        for axis, semi in enumerate((1.5, 1.0, 0.75)) for sign in (1.0, -1.0) for j in range(10)
    ]
    calls = []

    def spy(M, reflected, bounds):
        depth = _least_depths(M, reflected, bounds)
        calls.append((reflected, bounds, depth))
        return depth

    monkeypatch.setattr(reflection, "_least_depths", spy)
    assert {v.status for v in _verdicts(M, planes)} <= {ReflectionStatus.STRICT, ReflectionStatus.NONSTRICT}
    [(reflected, bounds, depth)] = calls
    certified = np.isinf(depth)
    exact = signed_interior_distance(M, reflected)
    assert np.all(exact[certified] > bounds[certified])
    assert reflected.shape[0] == 10572
    assert np.count_nonzero(~certified) == 2204
    assert np.count_nonzero(~certified) < 0.3 * reflected.shape[0]


def _small_far_icosphere():
    # radius 1e-4 at (5, 5, 5): coordinates round at the scale of the
    # offset, and the slack, 1e-12 of the largest coordinate, is 5e-8 of the
    # radius
    M = shapes.icosphere(1.0, 3)
    return M.with_vertices(1e-4 * M.vertices + 5.0)


def _face_plane_depths(M, points):
    """min over the faces (a, b, c) of n . a - n . p less 1e-12 of the largest coordinate, n the outward unit normal."""
    a, b, c = (M.vertices[M.faces[:, j]] for j in range(3))
    n = np.cross(b - a, c - a)
    n /= np.linalg.norm(n, axis=1)[:, None]
    offsets = np.einsum("ij,ij->i", n, a) - 1e-12 * float(np.abs(M.vertices).max())
    return (offsets - points @ n.T).min(axis=1)


PLANE_PASS_SURFACES = {
    **{name: ORACLE_SURFACES[name] for name, convex in CONVEX.items() if convex},
    "icosphere 1e-4 at (5, 5, 5)": _small_far_icosphere,
}


@pytest.mark.parametrize("name", list(PLANE_PASS_SURFACES))
def test_the_plane_pass_measures_with_the_bits_of_the_grid_query(name, monkeypatch):
    # random planes through the body, whose images lie inside and outside;
    # planes along the axes and the diagonal, whose images on the symmetric
    # surfaces sit where planes of several elements tie within rounding (on
    # the 256-gon the pass reads other bits if it keeps only the least
    # plane); those through the centre are mirror planes, whose images land
    # within rounding of the vertices, in the boundary band.  The square's
    # collinear edges tie their planes exactly
    M = PLANE_PASS_SURFACES[name]()
    d = M.dimension + 1
    rng = np.random.default_rng(29)
    axes = np.repeat(np.vstack([np.eye(d), -np.eye(d), np.ones((1, d))]), 4, axis=0)
    V = np.vstack([axes, rng.normal(size=(30, d))])
    V /= np.linalg.norm(V, axis=1)[:, None]
    centre = 0.5 * (M.vertices.min(axis=0) + M.vertices.max(axis=0))
    fraction = np.concatenate([np.tile([0.0, 0.25, 0.5, 0.75], axes.shape[0] // 4), rng.uniform(-0.9, 0.9, size=30)])
    c = centre @ V.T + fraction * ((M.vertices - centre) @ V.T).max(axis=0)
    reflected, bounds = [], []
    for pl in (plane(v, ci) for v, ci in zip(V, c)):
        s = pl.signed_coordinate(M.vertices)
        crossers = s > INCLUSION_BAND_FACTOR * M.bbox_diagonal
        reflected.append(pl.reflect(M.vertices[crossers]))
        bounds.append(np.full(np.count_nonzero(crossers), 2.0 * s[crossers].min()))
    reflected, bounds = np.concatenate(reflected), np.concatenate(bounds)
    sizes = []

    def spy(M, points):
        sizes.append(points.shape[0])
        return signed_interior_distance(M, points)

    monkeypatch.setattr(reflection, "signed_interior_distance", spy)
    depth = _least_depths(M, reflected, bounds)
    exact = signed_interior_distance(M, reflected)
    measured = np.isfinite(depth)
    assert depth[measured].tobytes() == exact[measured].tobytes()
    # the certified set is the ball's and the planes'
    x0, radius, _ = _snapshot(M).ball
    oracle = _polygon_plane_depths if M.dimension == 1 else _face_plane_depths
    by_planes = oracle(M, reflected) > bounds
    assert np.array_equal(~measured, (radius - np.linalg.norm(reflected - x0, axis=1) > bounds) | by_planes)
    # both routes run: the planes measure the images deeper than the band
    # plus 4 slacks, the grid query the others, in the band or outside
    band = BOUNDARY_TOL_FACTOR * M.bbox_diagonal
    tau = band + 4e-12 * float(np.abs(M.vertices).max())
    assert np.any(np.abs(exact) < band) and np.any(exact < -band) and np.any(measured & (exact > tau))
    assert sizes == [np.count_nonzero(measured & (exact <= tau))]


def test_least_depths_memory_is_bounded_by_the_plane_block():
    # about 1 000 images of an s5 ellipsoid (20 480 faces) against every
    # face plane at once would hold a 160 MB product
    M = shapes.ellipsoid_mesh(1.5, 1.0, 0.75, 5)
    pl = plane([1, 0, 0], 1.2)
    s = pl.signed_coordinate(M.vertices)
    crossers = s > INCLUSION_BAND_FACTOR * M.bbox_diagonal
    reflected = pl.reflect(M.vertices[crossers])
    bounds = np.full(reflected.shape[0], 2.0 * s[crossers].min())
    assert _snapshot(M).planes is not None  # the memo is filled untraced
    signed_interior_distance(M, M.vertices[:1])
    tracemalloc.start()
    try:
        depth = _least_depths(M, reflected, bounds)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert reflected.shape[0] > 1000 and np.count_nonzero(np.isinf(depth)) > 1000
    assert peak < 4 * 2**20


# ---------------------------------------------------------------------------
# batched verdicts: one ball test and one distance query for many planes


MIXED_BATCHES = {
    # strict, symmetry-plane nonstrict, touching nonstrict, fails, vacuous
    "256-gon": (
        lambda: shapes.circle_polygon(1.0, 256),
        [([1, 0], 0.5), ([1, 0], 0.0), ([1, 0], 1.0), ([1, 0], -0.5), ([1, 0], 1.5), ([1, 1], 0.3)],
    ),
    "2:1 ellipse": (
        lambda: shapes.ellipse_polygon(2.0, 1.0, 256),
        [([1, 0], 1.0), ([1, 0], 0.0), ([1, 1], 0.2), ([0, 1], 1.5), ([1, 1], 0.5), ([1, 0], 2.0)],
    ),
    "ellipsoid mesh": (
        lambda: shapes.ellipsoid_mesh(1.5, 1.0, 0.75, 3),
        [([1, 0, 0], 0.7), ([1, 0, 0], 0.0), ([1, 1, 0], 0.3), ([0, 0, 1], 1.0), ([1, 0, 0], 1.5),
         ([0, 1, 0], -0.3), ([1, 1, 1], 0.5)],
    ),
}


@pytest.mark.parametrize("name", sorted(MIXED_BATCHES))
def test_batched_verdicts_equal_one_plane_checks(name):
    build, offsets = MIXED_BATCHES[name]
    M = build()
    planes = [plane(v, c) for v, c in offsets]
    batch = _verdicts(M, planes)
    assert {v.status for v in batch} == set(ReflectionStatus)
    for got, p in zip(batch, planes):
        _assert_same_verdict(got, strict_reflection_check(M, p))
        _assert_same_verdict(got, full_depth_verdict(M, p))


def test_batched_verdicts_check_every_direction_first(unit_circle_256):
    with pytest.raises(ValueError, match="^plane direction has 3 components, but the surface lies in 2 dimensions$"):
        _verdicts(unit_circle_256, [plane([1, 0], 0.5), plane([1, 0, 0], 0.5)])
    assert _verdicts(unit_circle_256, []) == []


# one frame-wide pass: every kind of plane in one call


FRAME_PASSES = {
    # (V, c) of a vacuous plane, a touching one with no crosser, one with the
    # whole surface beyond it (no tangency candidate), a strict one and a
    # failing one; the touching offset is the support, so a vertex lies on it
    "256-gon": (
        lambda: shapes.circle_polygon(1.0, 256),
        [([1, 0], 1.5), ([0.6, 0.8], None), ([1, 0], -1.5), ([1, 0], 0.5), ([1, 0], -0.5), ([0, 1], 0.3)],
    ),
    "ellipsoid s3": (
        lambda: shapes.ellipsoid_mesh(1.5, 1.0, 0.75, 3),
        [([1, 0, 0], 1.6), ([1, 1, 0], None), ([0, 0, 1], -1.0), ([1, 0, 0], 0.7), ([1, 1, 0], 0.3),
         ([0, 1, 0], -0.3)],
    ),
}


@pytest.mark.parametrize("name", sorted(FRAME_PASSES))
def test_one_frame_pass_equals_the_oracle_and_one_plane_calls(name):
    build, offsets = FRAME_PASSES[name]
    M = build()
    planes = []
    for v, c in offsets:
        if c is None:  # the support along V: a vertex lies on the plane
            c = float(_heights(M.vertices, plane(v, 0.0).V).max())
        planes.append(plane(v, c))
    batch = _verdicts(M, planes)
    for got, p in zip(batch, planes):
        _assert_same_verdict(got, full_depth_verdict(M, p))
        _assert_same_verdict(got, _verdicts(M, [p])[0])
    assert [v.status for v in batch[:5]] == [
        ReflectionStatus.VACUOUS, ReflectionStatus.NONSTRICT, ReflectionStatus.FAILS,
        ReflectionStatus.STRICT, ReflectionStatus.FAILS,
    ]
    assert batch[1].details == {"note": "no vertex beyond the plane band"}
    assert batch[2].tangency_margin == math.pi / 2.0  # no vertex near the plane, no edge across it
    assert batch[4].tangency_margin < math.pi / 2.0


@pytest.mark.parametrize("surface", ["curve", "mesh"])
def test_every_plane_height_has_the_bits_of_heights(surface):
    # one height rule: a vacuous verdict's support gap is c less the support
    # series, and signed_coordinate is _heights less c, to the bit; a matrix
    # product with its fused multiply-adds rounds differently
    rng = np.random.default_rng(11)
    for trial in range(40):
        if surface == "curve":
            M = oracles.noisy_circle(1.0, 0.05, int(rng.integers(3, 600)), seed=trial)
        else:
            M = oracles.noisy_sphere(1.0, 0.05, int(rng.integers(0, 4)), seed=trial)
        count = int(rng.integers(1, 40))
        V = rng.normal(size=(count, M.dimension + 1))
        V /= np.linalg.norm(V, axis=1)[:, None]
        planes = [plane(v, c) for v, c in zip(V, 1.5 + rng.uniform(size=count))]
        traj = Trajectory(frames=[(0.0, M)])
        for verdict, p in zip(_verdicts(M, planes), planes):
            assert verdict.status is ReflectionStatus.VACUOUS
            gap = p.c - traj.support_series(p.V)[0]
            assert np.float64(verdict.details["support_gap"]).tobytes() == np.float64(gap).tobytes()
            assert p.signed_coordinate(M.vertices).tobytes() == (_heights(M.vertices, p.V) - p.c).tobytes()


@pytest.mark.parametrize("c", [-1e20, -1e100])
def test_a_far_plane_fails(c):
    # every image lies far outside the surface's bounding box, where the
    # nearest elements tie within rounding: the box, not a pseudonormal, decides
    v = strict_reflection_check(shapes.ellipse_polygon(2.0, 1.0, 64), plane([1.0, 0.0], c))
    assert v.status is ReflectionStatus.FAILS
    assert v.inclusion_margin == pytest.approx(2.0 * c, rel=1e-12)


def test_a_plane_too_far_to_measure_is_a_value_error():
    # the images' squared distances to the surface overflow
    with pytest.raises(ValueError, match="overflows"):
        strict_reflection_check(shapes.ellipse_polygon(2.0, 1.0, 64), plane([1.0, 0.0], -1e160))


@pytest.mark.parametrize("name", list(ORACLE_SURFACES))
def test_the_inscribed_ball_has_the_radius_of_one_distance_pass(name):
    # x0 measured against every element gives the distance and side of the
    # grid query that classify_points makes
    M = ORACLE_SURFACES[name]()
    x0, radius, _ = _snapshot(M).ball
    dist, code = _distances_and_codes(M, M.vertices.mean(axis=0)[None, :])
    assert x0.tobytes() == M.vertices.mean(axis=0).tobytes()
    if code[0] != INSIDE_CODE:
        assert radius == 0.0
    else:
        assert radius == float(dist[0]) - 1e-12 * float(np.abs(M.vertices).max())


@pytest.mark.parametrize("ball_pairs", [None, 64])
@pytest.mark.parametrize("surface", ["curve", "mesh"])
def test_signed_distance_of_concatenated_sets_is_bitwise_per_set(surface, ball_pairs, monkeypatch):
    if ball_pairs is not None:  # small blocks split the concatenation elsewhere
        monkeypatch.setattr(hypersurface, "_BALL_PAIRS", ball_pairs)
    if surface == "curve":
        M = shapes.ellipse_polygon(2.0, 1.0, 256)
    else:
        M = shapes.ellipsoid_mesh(1.5, 1.0, 0.75, 3)
    rng = np.random.default_rng(5)
    d = M.dimension + 1
    band_points = M.vertices[::7] * (1.0 + 1e-11)
    assert np.all(surface_distance(M, band_points) < BOUNDARY_TOL_FACTOR * M.bbox_diagonal)
    sets = [
        rng.uniform(-2.2, 2.2, size=(40, d)),  # inside and outside
        plane(rng.normal(size=d), 0.3).reflect(M.vertices[::3]),  # reflected vertices
        band_points,  # within the boundary band: winding-number sign
        M.vertices[::11],  # on the surface
        rng.uniform(-0.5, 0.5, size=(1, d)),
    ]
    whole = signed_interior_distance(M, np.concatenate(sets))
    assert np.array_equal(whole, np.concatenate([signed_interior_distance(M, s) for s in sets]))


# ---------------------------------------------------------------------------
# first touch


def test_first_touch_matches_logarithm():
    fam = families.exponential_sphere_family(-6.0, 0.0, 0.01, n=1, resolution=256)
    for c in (0.5, 0.9, 0.25):
        tau = first_touch_time(fam, plane([1, 0], c))
        assert tau == pytest.approx(math.log(c), abs=1e-3)


def test_first_touch_never_touches():
    fam = families.exponential_sphere_family(-2.0, 0.0, 0.05, n=1, resolution=64)
    with pytest.raises(NeverTouches, match=r"^support never reaches c = 1.5 \(max 1\)$"):
        first_touch_time(fam, plane([1, 0], 1.5))
    assert _touch_time(fam, fam.support_series(np.array([1.0, 0.0])), plane([1, 0], 1.5)) is None


def test_first_touch_clamps_to_start_for_tiny_offsets():
    fam = families.exponential_sphere_family(-2.0, 0.0, 0.05, n=1, resolution=64)
    tau = first_touch_time(fam, plane([1, 0], 1e-3))
    assert tau == fam.t0


def _bisected_touch_time(traj, pl, resolution):
    """Oracle: bisect on interpolated support between the bracketing frames.

    Returns the midpoint of the final interval and the bracket (ta, tb).
    """
    supports = traj.support_series(pl.V)
    j = int(np.nonzero(supports >= pl.c)[0][0])
    ta, tb = traj.frames[j - 1][0], traj.frames[j][0]
    lo, hi = ta, tb
    while hi - lo > resolution * (tb - ta):
        mid = 0.5 * (lo + hi)
        if float(np.max(traj.interpolate_vertices(mid) @ pl.V)) >= pl.c:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi), ta, tb


@pytest.fixture(scope="module")
def touch_families(ellipse_2_1):
    times = -6.0 + 0.01 * np.arange(601)
    return {
        "sphere": families.exponential_sphere_family(-6.0, 0.0, 0.01, n=1, resolution=256),
        "ellipse": families.ellipsoid_family(times, rates=(1.0, 2.0), n=1, resolution=256),
        "evolved": evolve(ellipse_2_1, mean_curvature(1), 0.0, FlowConfig(t_end=0.3, dt=2e-3)),
    }


@pytest.mark.parametrize("name", ["sphere", "ellipse", "evolved"])
def test_first_touch_matches_bisection_oracle(touch_families, name):
    traj = touch_families[name]
    for v in ([1.0, 0.0], [0.0, 1.0], [0.6, 0.8], [-0.28, 0.96]):
        supports = traj.support_series(np.asarray(v))
        for f in (0.1, 0.35, 0.6, 0.85):
            pl = plane(v, supports[0] + f * (supports[-1] - supports[0]))
            tau = first_touch_time(traj, pl)
            tau_bisect, ta, tb = _bisected_touch_time(traj, pl, 1e-4)
            assert ta < tau <= tb
            assert abs(tau - tau_bisect) <= 0.5 * 1e-4 * (tb - ta)
            # exact for the interpolated frames: the support sits on the plane
            assert float(np.max(traj.interpolate_vertices(tau) @ pl.V)) == pytest.approx(pl.c, rel=1e-12)


@pytest.mark.parametrize("name", ["sphere", "ellipse", "evolved"])
def test_first_touch_stays_within_its_bracket(touch_families, name):
    # offsets one ulp above a frame's support and exactly at the next one:
    # the solve must read the heights the scan read, or one ulp between them
    # moves tau out of [ta, tb]
    traj = touch_families[name]
    times = traj.times()
    for v in np.random.default_rng(8).normal(size=(12, 2)):
        supports = traj.support_series(plane(v, 0.0).V)
        for j in np.flatnonzero(supports[:-1] < supports[1:]) + 1:
            for c in (np.nextafter(supports[j - 1], np.inf), supports[j]):
                assert times[j - 1] <= _touch_time(traj, supports, plane(v, c)) <= times[j]


def test_first_touch_needs_vertex_correspondence_across_the_bracket():
    traj = Trajectory(frames=[(0.0, shapes.circle_polygon(1.0, 64)), (1.0, shapes.circle_polygon(2.0, 65))])
    with pytest.raises(InsufficientFrames, match="^vertex correspondence broken across the bracket$"):
        first_touch_time(traj, plane([1, 0], 1.5))


def test_touch_time_nondecreasing_in_offset():
    fam = families.exponential_sphere_family(-4.0, 0.0, 0.02, n=1, resolution=128)
    offsets = [0.05, 0.1, 0.2, 0.4, 0.8]
    taus = [first_touch_time(fam, plane([1, 0], c)) for c in offsets]
    assert all(b > a for a, b in zip(taus, taus[1:]))


# ---------------------------------------------------------------------------
# monitoring


def test_monitor_ellipse_under_flow_stays_strict(ellipse_2_1):
    traj = evolve(ellipse_2_1, mean_curvature(1), 0.0, FlowConfig(t_end=0.3, dt=2e-3))
    start, out = oracles.monitor(traj, plane([1, 0], 0.2), t_start=0.0, stride=2)
    assert start.status is ReflectionStatus.STRICT
    assert all(v.status is ReflectionStatus.STRICT for _, v in out)
    assert out[-1][0] == traj.t1


def test_monitor_requires_strict_start(unit_circle_256):
    fam = families.exponential_sphere_family(-1.0, 0.0, 0.05, n=1, resolution=64)
    start, run = oracles.monitor(fam, plane([1, 0], 0.0), t_start=-1.0)  # symmetry plane
    assert start.status is ReflectionStatus.NONSTRICT
    assert run == []


def test_monitor_stops_at_the_first_failing_frame():
    circle = shapes.circle_polygon(1.0, 128)
    frames = [
        (0.0, circle),
        (1.0, shapes.circle_polygon(1.0, 128, center=(2.0, 0.0))),  # past the plane
        (2.0, shapes.circle_polygon(1.5, 128)),
    ]
    _, out = oracles.monitor(Trajectory(frames=frames), plane([1, 0], 0.5), t_start=0.0)
    assert [t for t, _ in out] == [0.0, 1.0]
    assert [v.status for _, v in out] == [ReflectionStatus.STRICT, ReflectionStatus.FAILS]


def test_monitor_growing_circle_family():
    fam = families.exponential_sphere_family(-1.0, 0.0, 0.02, n=1, resolution=128)
    tau = first_touch_time(fam, plane([1, 0], 0.6))
    start = next(t for t, _ in fam.frames if t > tau + 0.02)
    _, out = oracles.monitor(fam, plane([1, 0], 0.6), t_start=start)
    assert out and all(v.status is ReflectionStatus.STRICT for _, v in out)


# ---------------------------------------------------------------------------
# symmetry certificates


def test_icosphere_certifies_spherical(icosphere_sub3):
    out = symmetry_certificate(icosphere_sub3, [0.0, 0.0, 0.0], tol=1e-6)
    assert out.spherical and out.center_inside
    assert out.deviation < 1e-6


def test_ellipse_fails_certificate_with_axis_witness(ellipse_2_1):
    out = symmetry_certificate(ellipse_2_1, [0.0, 0.0], tol=1e-6)
    assert not out.spherical
    assert abs(out.witness_direction[0]) == pytest.approx(1.0, abs=1e-6)


def test_noisy_sphere_deviation_matches_noise_band():
    M = oracles.noisy_sphere(1.0, amplitude=0.01, subdivisions=3, seed=2)
    out = symmetry_certificate(M, [0.0, 0.0, 0.0], tol=1e-3)
    assert not out.spherical
    assert out.deviation == pytest.approx(0.02, rel=0.1)


def test_certificate_rejects_outside_center(unit_circle_256):
    # radii about (5, 0) spread over [4, 6]: within a tolerance of 10, yet the
    # center is outside, so the outcome is non-spherical rather than an error
    out = symmetry_certificate(unit_circle_256, [5.0, 0.0], tol=10.0)
    assert not out.spherical and not out.center_inside
    assert out.spread == pytest.approx(2.0)
    assert out.witness_direction[0] == pytest.approx(-1.0)
    assert out.to_json_dict()["center_inside"] is False


@pytest.mark.parametrize("tol", [math.nan, math.inf, 0.0, -1.0])
def test_certificate_tolerance_must_be_finite_and_positive(tol):
    # a NaN or negative tol made this round 64-gon non-spherical at deviation 1e-16
    M = shapes.circle_polygon(1.0, 64)
    assert symmetry_certificate(M, [0.0, 0.0], tol=1e-6).spherical
    with pytest.raises(ValueError, match="^tol must be finite and positive"):
        symmetry_certificate(M, [0.0, 0.0], tol=tol)


def test_certificate_spherical_implies_tight_radii():
    # the tolerance bounds the absolute spread of the vertex radii; deviation
    # is that spread relative to their mean
    M = shapes.circle_polygon(0.05, 256, center=(0.02, 0.0))
    tol = 0.041
    out = symmetry_certificate(M, [0.0, 0.0], tol=tol)
    assert out.spherical
    r = np.linalg.norm(M.vertices, axis=1)
    assert out.spread == r.max() - r.min() <= tol
    assert out.deviation == (r.max() - r.min()) / r.mean()
    assert not symmetry_certificate(M, [0.0, 0.0], tol=0.99 * out.spread).spherical
