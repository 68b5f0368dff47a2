import math
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import hyperflow

from hyperflow.errors import ConeExit, IndeterminateDivergence
from hyperflow.speeds import Cone, SpeedFunction, mean_curvature, mean_curvature_power
from oracles import catalog
from hyperflow.sphere_ode import (
    _radii,
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
    # one speed per radius, whatever the array's shape
    assert psi(mean_curvature(2), np.array([[1.0, 2.0, 4.0]])).tolist() == [[2.0, 1.0, 0.5]]
    with pytest.raises(ValueError, match="^radius must be positive and finite, got 0.0$"):
        psi(mean_curvature(2), [1.0, 0.0])


EPS = np.finfo(float).eps


def _rounding_bound(F, t0, times, radii):
    """Relative radius error that rounding alone allows.

    The solve stops once t(r) meets t to 4 eps (|t(edge)| + |t| + r psi(r))
    (``_radii``'s stop rule).  Each octave's shell integral is exact to
    rounding, and the octave table sums a few of them from t0, so the table
    adds a few eps times |t0| + |t|.  A time error dt moves the radius by
    dt / (r psi(r)) relative, and the closed form rounds to a few eps as
    well.  So the relative error is at most C eps ((|t0| + |t| + 1) / (r psi(r))
    + 1); C = 16 covers the 4 of the stop rule, the table's sums and the
    closed forms' own rounding with room to spare.
    """
    slope = radii * psi(F, radii)
    return 16.0 * EPS * ((abs(t0) + np.abs(times) + 1.0) / slope + 1.0)


# closed forms of the separable radius ODE: (speed, r0, t0, t1, radius at t)
CLOSED_FORMS = [
    (mean_curvature(1), 1.0, -6.0, 1.0, np.exp),                                 # dr/dt = r
    (mean_curvature(2), 1.0, -6.0, 1.0, lambda t: np.exp(t / 2.0)),              # dr/dt = r/2 in R^3
    (mean_curvature_power(1, 0.5), 1.0, -1.9, 3.0, lambda t: (1.0 + t / 2.0) ** 2),  # dr/dt = sqrt(r)
    (mean_curvature_power(1, 2.0), 1.0, -5.0, 0.9, lambda t: 1.0 / (1.0 - t)),   # dr/dt = r^2
    (mean_curvature_power(1, 2.0), 0.25, -5.0, 3.9, lambda t: 0.25 / (1.0 - 0.25 * t)),
]
CLOSED_FORM_IDS = ["k", "H", "k^0.5", "k^2", "k^2 r0=0.25"]


@pytest.mark.parametrize("t0,t1", [(0.0, math.inf), (math.nan, 1.0)])
def test_integrate_radius_rejects_non_finite_times(t0, t1):
    # up to t1 = inf the loop never ran and the start sample came back alone
    with pytest.raises(ValueError, match=f"^t0 and t1 must be finite, got {t0} and {t1}$"):
        integrate_radius(mean_curvature(1), 1.0, t0, t1)


@pytest.mark.parametrize("F,r0,t0,t1,exact", CLOSED_FORMS, ids=CLOSED_FORM_IDS)
def test_integrate_radius_matches_closed_form(F, r0, t0, t1, exact):
    # the samples start at t0 with radius exact(t0) and run to t1
    flow = integrate_radius(F, r0=float(exact(t0)), t0=t0, t1=t1, dt=1e-3)
    times, radii = flow.samples.T
    want = exact(times)
    assert np.all(np.abs(radii / want - 1.0) <= _rounding_bound(F, t0, times, want))


@pytest.mark.parametrize("F,r0,t0,t1,exact", CLOSED_FORMS, ids=CLOSED_FORM_IDS)
def test_radii_through_a_point_match_closed_form(F, r0, t0, t1, exact):
    # the round solution with radius r0 at t = 0, asked for at times on both sides
    times = np.linspace(t0, t1, 701)
    want = exact(times)
    got = _radii(F, r0, 0.0, times)
    assert np.all(np.abs(got / want - 1.0) <= _rounding_bound(F, 0.0, times, want))


def test_radii_of_a_mixed_speed_match_its_closed_form():
    # F = k + k^3: psi(r) = 1/r + 1/r^3, so from r = 1 at t = 0 the radius r
    # is reached at t = ln r - 1/(2 r^2) + 1/2
    F = _undeclared("k+k3", lambda lam: lam[..., 0] + lam[..., 0] ** 3)
    radii = np.geomspace(1e-3, 50.0, 2001)
    times = np.log(radii) - 0.5 / radii**2 + 0.5
    got = _radii(F, 1.0, 0.0, times)
    assert np.all(np.abs(got / radii - 1.0) <= _rounding_bound(F, 0.0, times, radii))


def test_radius_strictly_increasing():
    # spans kept inside the maximal existence window: super-linear degrees
    # blow up at finite time (T1 = psi(1)/((alpha-1) r0^(alpha-1)) for alpha > 1)
    for F in catalog(1):
        for r0 in (0.1, 1.0, 10.0):
            flow = integrate_radius(F, r0, 0.0, 0.04, 1e-3)
            assert np.all(np.diff(flow.samples[:, 1]) > 0.0)


def test_integration_lands_exactly_on_t1():
    # dt is the sample spacing: samples at t0 + k dt, then t1 itself
    flow = integrate_radius(mean_curvature(1), 1.0, 0.0, 0.0105, dt=1e-3)
    assert flow.samples[-1, 0] == 0.0105
    assert flow.samples[:-1, 0].tolist() == (1e-3 * np.arange(11)).tolist()
    # a spacing that divides the span up to rounding leaves no sliver of a last gap
    flow = integrate_radius(mean_curvature(1), 1.0, 0.0, 1.0, dt=1e-3)
    assert flow.samples.shape == (1001, 2) and flow.samples[-1, 0] == 1.0


@pytest.mark.parametrize("F,t,when", [
    (mean_curvature_power(1, 0.5), -2.5, "at or before the round solution's birth time -2.0"),
    (mean_curvature_power(1, 2.0), 1.0, "at or after the round solution's blow-up time"),
], ids=["before birth", "at blow-up"])
def test_times_outside_the_lifespan_are_value_errors(F, t, when):
    # k^0.5 from r = 1 at t = 0 is born at t = -2; k^2 blows up at t = 1
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=f"^t = {t} is {when}"):
            _radii(F, 1.0, 0.0, np.array([0.0, t]))


def test_integration_up_to_the_blow_up_is_a_value_error():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="^t = 1.0 is at or after the round solution's blow-up time"):
            integrate_radius(mean_curvature_power(1, 2.0), 1.0, 0.0, 1.0)


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
