import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import hyperflow

from hyperflow.errors import ConeExit, IndeterminateDivergence
from hyperflow.speeds import Cone, SpeedFunction, mean_curvature, mean_curvature_power
from oracles import catalog
from hyperflow.sphere_ode import (
    _shell_integrals,
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


@pytest.mark.parametrize("t0,t1", [(0.0, math.inf), (math.nan, 1.0)])
def test_integrate_radius_rejects_non_finite_times(t0, t1):
    # up to t1 = inf the loop never ran and the start sample came back alone
    with pytest.raises(ValueError, match=f"^t0 and t1 must be finite, got {t0} and {t1}$"):
        integrate_radius(mean_curvature(1), 1.0, t0, t1)


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
    cone = Cone.custom(lambda lam: bool(np.all(lam > 0.5)))
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


def test_importing_the_package_leaves_scipy_integrate_unloaded():
    # the shell integrals use a fixed Gauss-Legendre rule, so no module needs
    # scipy.integrate, and the reflection verdicts form no graph, so none
    # needs scipy.sparse.csgraph; a cold import pays for neither
    src = str(Path(hyperflow.__file__).resolve().parents[1])
    unused = ["scipy.integrate", "scipy.sparse.csgraph"]
    code = (
        f"import sys; sys.path.insert(0, {src!r}); import hyperflow; "
        f"print([m for m in {unused!r} if m in sys.modules])"
    )
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


@pytest.mark.parametrize("fn,exact", [
    # psi(r) = 1/r + 1/r^2
    (lambda lam: lam[..., 0] + lam[..., 0] ** 2, lambda a, b: math.log(b / a) + 1.0 / a - 1.0 / b),
    # psi(r) = r^-1/2 + r^-1/4
    (lambda lam: np.sqrt(lam[..., 0]) + lam[..., 0] ** 0.25,
     lambda a, b: 2.0 * (b ** 0.5 - a ** 0.5) + 4.0 / 3.0 * (b ** 0.75 - a ** 0.75)),
], ids=["l+l2", "roots"])
def test_shell_integrals_match_the_closed_forms(fn, exact):
    # on each shell [a, 2a] the 16-point Gauss-Legendre rule meets the exact
    # integral of psi to rounding
    rows = _shell_integrals(_undeclared("mixed", fn), upper=1.0)
    assert len(rows) == 40
    for row in rows:
        a = row["epsilon"]
        assert row["shell_integral"] == pytest.approx(exact(a, 2.0 * a), rel=1e-13)
