import numpy as np
import pytest
from hypothesis import given, strategies as st

from hyperflow.errors import CurvatureOutsideCone, EmptySample, NonPositiveSpeed
from hyperflow.speeds import (
    Cone,
    SamplePlan,
    SpeedFunction,
    check_admissibility,
    curvature_product,
    eval_speed,
    finite_difference_gradient,
    homogeneity_degree,
    mean_curvature,
    mean_curvature_power,
    speed_by_name,
    sqrt_second_symmetric,
)
from oracles import catalog

positive_lambda = st.floats(min_value=1e-2, max_value=1e2)


def test_eval_examples():
    assert eval_speed(mean_curvature(2), (1.0, 1.0)) == 2.0
    assert eval_speed(curvature_product(2), (2.0, 3.0)) == 6.0
    assert eval_speed(mean_curvature_power(2, 2.0), (0.5, 0.5)) == 1.0


def test_eval_rejects_outside_cone():
    with pytest.raises(CurvatureOutsideCone):
        eval_speed(mean_curvature(2), (-1.0, 1.0))


def test_eval_rejects_nonpositive_value():
    F = SpeedFunction(
        name="shifted", arity=1, cone=Cone.positive(), fn=lambda lam: lam[..., 0] - 10.0
    )
    with pytest.raises(NonPositiveSpeed):
        eval_speed(F, (1.0,))


@given(a=positive_lambda, b=positive_lambda)
def test_permutation_symmetry_exact_for_builtins(a, b):
    for F in catalog(2):
        assert eval_speed(F, (a, b)) == eval_speed(F, (b, a))


@given(a=positive_lambda, b=positive_lambda, s=st.floats(min_value=0.5, max_value=8.0))
def test_declared_homogeneity_scales(a, b, s):
    for F in catalog(2):
        lhs = eval_speed(F, (s * a, s * b))
        rhs = s**F.homogeneity * eval_speed(F, (a, b))
        assert lhs == pytest.approx(rhs, rel=1e-12)


def test_gradients_match_finite_differences():
    pts = SamplePlan(seed=3, offdiagonal_per_magnitude=8).points(2, Cone.positive())
    for F in catalog(2):
        closed = F.grad(pts)
        fd = finite_difference_gradient(F.fn, pts)
        assert closed == pytest.approx(fd, rel=1e-6)


def test_batched_finite_differences_equal_the_per_row_ones():
    pts = SamplePlan(seed=1, offdiagonal_per_magnitude=8).points(2, Cone.positive())
    for F in catalog(2):
        batched = finite_difference_gradient(F.fn, pts)
        # one-row batches: a 1-D row evaluates H^2 with scalar ** 2.0, which can
        # differ from the array power in the last bit of F (2.5e-11 in the slope)
        rows = np.array([finite_difference_gradient(F.fn, lam[None, :])[0] for lam in pts])
        assert batched.shape == pts.shape
        np.testing.assert_allclose(batched, rows, rtol=1e-12, atol=0.0)


def test_builtin_catalog_is_admissible():
    for n in (1, 2):
        for F in catalog(n):
            assert check_admissibility(F).passed, F.name


def test_negated_speed_fails_positivity():
    F = SpeedFunction(
        name="-H", arity=2, cone=Cone.positive(), fn=lambda lam: -np.sum(lam, axis=-1)
    )
    report = check_admissibility(F)
    assert not report.passed
    assert all(not r.positive for r in report.rows)


def test_saddle_speed_fails_monotonicity():
    # F = l1 + l2 - l1 l2 has dF/dl1 = 1 - l2, negative whenever l2 > 1
    F = SpeedFunction(
        name="saddle",
        arity=2,
        cone=Cone.positive(),
        fn=lambda lam: lam[..., 0] + lam[..., 1] - lam[..., 0] * lam[..., 1],
    )
    g = finite_difference_gradient(F.fn, np.array([1.0, 2.0]))
    assert g[0] == pytest.approx(-1.0, abs=1e-6)
    report = check_admissibility(F)
    assert not report.passed
    assert any(not r.monotone for r in report.rows)


def test_admissibility_note_says_sampled():
    assert "sampled" in check_admissibility(mean_curvature(2)).note


def test_homogeneity_detection():
    assert homogeneity_degree(mean_curvature(2)) == pytest.approx(1.0)
    assert homogeneity_degree(curvature_product(2)) == pytest.approx(2.0)
    assert homogeneity_degree(sqrt_second_symmetric(2)) == pytest.approx(1.0)


def test_sum_of_mixed_degrees_is_not_homogeneous():
    # H + K at (1,1): ratios at scales 2 and 4 disagree
    F = SpeedFunction(
        name="H+K",
        arity=2,
        cone=Cone.positive(),
        fn=lambda lam: np.sum(lam, axis=-1) + np.prod(lam, axis=-1),
    )
    assert homogeneity_degree(F) is None


def test_declared_homogeneity_is_returned_exactly():
    for n in (1, 2):
        for F in catalog(n):
            assert homogeneity_degree(F) == F.homogeneity


def test_undeclared_homogeneity_is_probed():
    H = mean_curvature(2)
    undeclared = SpeedFunction(name="H undeclared", arity=2, cone=H.cone, fn=H.fn)
    assert homogeneity_degree(undeclared) == pytest.approx(1.0, abs=1e-12)


def test_homogeneity_probe_respects_cone():
    capped = Cone.custom(lambda lam: bool(np.all(lam > 0) and np.all(lam < 3)))
    F = SpeedFunction(name="capped-H", arity=2, cone=capped, fn=lambda lam: np.sum(lam, axis=-1))
    with pytest.raises(CurvatureOutsideCone):
        homogeneity_degree(F)


def test_empty_sample_raises():
    never = Cone.custom(lambda lam: False)
    with pytest.raises(EmptySample):
        SamplePlan().points(2, never)


def test_positive_cone_invariants():
    cone = Cone.positive()
    for lam in (1e-3, 1.0, 1e3):
        assert cone.contains(np.full(2, lam))
    assert not cone.contains(np.array([1.0, 0.0]))
    assert not cone.contains(np.array([np.inf, 1.0]))


@given(
    a=st.tuples(positive_lambda, positive_lambda),
    b=st.tuples(positive_lambda, positive_lambda),
    w=st.floats(min_value=0.0, max_value=1.0),
)
def test_positive_cone_convex_on_segments(a, b, w):
    cone = Cone.positive()
    mid = w * np.array(a) + (1.0 - w) * np.array(b)
    assert cone.contains(mid)


CONE_SAMPLES = np.array([
    [1.0, 1.0], [1.0, 100.0], [1e-300, 1.0], [-1.0, 2.0], [0.0, 1.0], [0.0, 0.0],
    [0.0, -1.0], [-2.0, -1.0], [np.inf, 1.0], [np.inf, np.inf], [-np.inf, 1.0],
    [np.nan, 1.0], [np.nan, np.nan], [0.0, np.inf],
])


@pytest.mark.parametrize("cone", [
    Cone.positive(),
    Cone.custom(lambda lam: bool(lam.sum() > 1.0)),
], ids=["positive", "custom"])
def test_cone_membership_forms_agree(cone):
    one_by_one = np.array([cone.contains(row) for row in CONE_SAMPLES])
    with np.errstate(invalid="ignore"):
        by_margin = cone.interior_margin(CONE_SAMPLES) > 0.0
    assert np.array_equal(cone.contains_many(CONE_SAMPLES), one_by_one)
    assert np.array_equal(by_margin, one_by_one)
    assert one_by_one.any() and not one_by_one.all()


def test_interior_margin_values():
    cone = Cone.positive()
    margins = cone.interior_margin(np.array([[1.0, 1.0], [1.0, 100.0], [-1.0, 2.0]]))
    assert margins[0] == pytest.approx(1.0)
    assert margins[1] == pytest.approx(0.01)
    assert margins[2] < 0.0


def test_speed_by_name():
    assert speed_by_name("k", 1).name == "k"
    assert speed_by_name("H", 2).arity == 2
    assert speed_by_name("H^alpha", 2, alpha=0.5).homogeneity == 0.5
    assert speed_by_name("K", 2).homogeneity == 2.0
    assert speed_by_name("sqrt_sigma2", 2).homogeneity == 1.0
    with pytest.raises(ValueError):
        speed_by_name("k", 2)
    with pytest.raises(ValueError):
        speed_by_name("H^alpha", 2)
    with pytest.raises(ValueError, match="takes no alpha"):
        speed_by_name("k", 1, alpha=2.0)
    with pytest.raises(ValueError):
        speed_by_name("bogus", 1)
    with pytest.raises(ValueError):
        mean_curvature_power(1, -1.0)
