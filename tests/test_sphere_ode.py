import math

import numpy as np
import pytest

from hyperflow.errors import ConeExit, IndeterminateDivergence
from hyperflow.speeds import Cone, SpeedFunction, catalog, mean_curvature, mean_curvature_power
from hyperflow.sphere_ode import (
    initial_time_estimate,
    integrate_radius,
    is_ancient,
    psi,
)


def test_psi_examples():
    assert psi(mean_curvature(2), 2.0) == pytest.approx(1.0)
    assert psi(__import__("hyperflow").curvature_product(2), 2.0) == pytest.approx(0.25)
    assert psi(mean_curvature_power(1, 2.0), 0.5) == pytest.approx(4.0)


# closed forms of the separable radius ODE for the three catalog degrees
CLOSED_FORMS = [
    (mean_curvature(1), lambda t: math.exp(t)),                # dr/dt = r
    (mean_curvature(2), lambda t: math.exp(t / 2.0)),          # dr/dt = r/2
    (mean_curvature_power(1, 0.5), lambda t: (1.0 + t / 2.0) ** 2),  # dr/dt = sqrt(r)
]


@pytest.mark.parametrize("F,exact", CLOSED_FORMS, ids=[f.name for f, _ in CLOSED_FORMS])
def test_integrate_radius_matches_closed_form(F, exact):
    dt = 1e-3
    flow = integrate_radius(F, r0=1.0, t0=0.0, t1=1.0, dt=dt)
    got = flow.samples[-1, 1]
    want = exact(1.0)
    # acceptance gate is 10*dt relative; the one-step 4th-order method does far better
    assert abs(got - want) / want < 10.0 * dt
    assert abs(got - want) / want < 1e-9


def test_radius_strictly_increasing():
    # spans kept inside the maximal existence window: super-linear degrees
    # blow up at finite time (T1 = psi(1)/((alpha-1) r0^(alpha-1)) for alpha > 1)
    for F in catalog(1):
        for r0 in (0.1, 1.0, 10.0):
            flow = integrate_radius(F, r0, 0.0, 0.04, 1e-3)
            assert np.all(np.diff(flow.samples[:, 1]) > 0.0)


def test_integration_lands_exactly_on_t1():
    flow = integrate_radius(mean_curvature(1), 1.0, 0.0, 0.0105, dt=1e-3)
    assert flow.samples[-1, 0] == pytest.approx(0.0105, abs=1e-15)


def test_cone_exit_during_integration():
    # custom cone requiring lambda > 0.5: expansion drives 1/r below it
    cone = Cone.custom(lambda lam: bool(np.all(lam > 0.5)), "lambda > 0.5")
    F = SpeedFunction(name="kc", arity=1, cone=cone, fn=lambda lam: np.sum(lam, axis=-1))
    with pytest.raises(ConeExit):
        integrate_radius(F, r0=1.0, t0=0.0, t1=2.0, dt=1e-2)


def test_ancientness_by_homogeneity():
    assert is_ancient(mean_curvature_power(2, 0.5)).verdict == "non_ancient"
    assert is_ancient(mean_curvature_power(2, 1.0)).verdict == "ancient"
    assert is_ancient(mean_curvature_power(2, 2.0)).verdict == "ancient"


def test_verdict_fields_are_consistent():
    v = is_ancient(mean_curvature(1))
    assert v.is_ancient and v.T0_estimate == -math.inf
    w = is_ancient(mean_curvature_power(1, 0.5))
    assert not w.is_ancient and math.isfinite(w.T0_estimate)
    assert w.T0_estimate == pytest.approx(-2.0)


def test_initial_time_examples():
    assert initial_time_estimate(mean_curvature_power(1, 0.5), 1.0, 0.0) == pytest.approx(-2.0, abs=1e-3)
    assert initial_time_estimate(mean_curvature(1), 1.0, 0.0) == -math.inf
    assert initial_time_estimate(mean_curvature_power(1, 2.0), 1.0, 0.0) == -math.inf


def test_ancient_iff_infinite_birth_time():
    for n in (1, 2):
        for F in catalog(n):
            verdict = is_ancient(F)
            ancient = verdict.is_ancient
            assert verdict.T0_estimate == initial_time_estimate(F, 1.0, 0.0), F.name
            for r0 in (0.1, 1.0, 10.0):
                T0 = initial_time_estimate(F, r0, 0.0)
                assert ancient == (T0 == -math.inf), (F.name, r0)


def _undeclared(name, fn):
    return SpeedFunction(name=name, arity=1, cone=Cone.positive(), fn=fn)


def test_numeric_shells_detect_power_divergence():
    # psi(r) = 1/r + 1/r^2, not homogeneous, integral diverges
    F = _undeclared("l+l2", lambda lam: lam[..., 0] + lam[..., 0] ** 2)
    v = is_ancient(F)
    assert v.verdict == "ancient"
    assert v.method == "numeric_shells"


def test_numeric_shells_detect_convergence():
    # psi(r) = r^-1/2 + r^-1/4; integral over (0,1] is 2 + 4/3
    F = _undeclared("roots", lambda lam: np.sqrt(lam[..., 0]) + lam[..., 0] ** 0.25)
    v = is_ancient(F)
    assert v.verdict == "non_ancient"
    assert v.T0_estimate == pytest.approx(-(2.0 + 4.0 / 3.0), abs=1e-3)
    T0 = initial_time_estimate(F, 1.0, 0.0)
    assert T0 == pytest.approx(-(2.0 + 4.0 / 3.0), abs=1e-3)


def test_slow_logarithmic_case_is_reported_not_guessed():
    # psi(r) ~ 1/(r log(1/r)) diverges so slowly the shell probe cannot call it
    F = _undeclared("log-damped", lambda lam: lam[..., 0] / np.log(np.e + lam[..., 0]))
    with pytest.raises(IndeterminateDivergence):
        is_ancient(F)
    with pytest.raises(IndeterminateDivergence):
        initial_time_estimate(F, 1.0, 0.0)


def test_evidence_table_shape():
    F = _undeclared("roots2", lambda lam: np.sqrt(lam[..., 0]))
    # note: sqrt is detected as homogeneous by the probe, so force the numeric
    # path with a genuinely mixed speed
    F = _undeclared("mix", lambda lam: np.sqrt(lam[..., 0]) + lam[..., 0] ** 0.25)
    v = is_ancient(F)
    rows = v.evidence
    assert len(rows) > 10
    assert rows[0]["epsilon"] == pytest.approx(0.5)
    cums = [r["cumulative"] for r in rows]
    assert all(b >= a for a, b in zip(cums, cums[1:]))
