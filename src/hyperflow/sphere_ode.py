"""Round solutions of the expansion flow: the radius ODE and ancientness.

A sphere of radius r has all principal curvatures equal to 1/r, so the flow
reduces to the scalar ODE  dr/dt = 1 / psi(r)  with  psi(r) = F(1/r, ..., 1/r).
Separating variables, the time needed to grow from radius 0 to r0 is
the integral of psi over (0, r0]: the spherical solution extends infinitely
far back in time exactly when that integral diverges.  For an
alpha-homogeneous speed, psi(r) = psi(1) r^(-alpha) and the integral diverges
iff alpha >= 1; for anything else we probe the integral numerically over
geometric shells and refuse to guess when the evidence is inconclusive.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConeExit, CurvatureOutsideCone, HyperflowError, IndeterminateDivergence
from .speeds import SpeedFunction, eval_speed, homogeneity_degree

# psi is never evaluated below this radius (floating-point floor).
R_FLOOR = 1e-15
SHELL_COUNT = 40
BLOWUP_TOTAL = 1e6
# Shell-to-shell decay ratio below which the remaining tail is summed
# geometrically and the integral is declared convergent.
CONVERGENT_RATIO = 0.97
# Gauss-Legendre rule on [-1, 1] applied to each shell; psi is smooth on a
# shell, which spans a factor of 2 in radius.
GAUSS_NODES, GAUSS_WEIGHTS = np.polynomial.legendre.leggauss(16)

ANCIENT = "ancient"
NON_ANCIENT = "non_ancient"


def psi(F: SpeedFunction, r: float) -> float:
    """Speed of the round sphere of radius r: F evaluated on the diagonal."""
    if not (r > 0.0) or not math.isfinite(r):
        raise ValueError(f"radius must be positive and finite, got {r}")
    lam = np.full(F.arity, 1.0 / max(r, R_FLOOR))
    return eval_speed(F, lam)


@dataclass(frozen=True)
class SphereFlow:
    """Time-stamped radius samples of one expanding round solution."""

    samples: np.ndarray  # (k, 2) columns (t, r)

    def __post_init__(self):
        s = np.asarray(self.samples, dtype=float)
        if s.ndim != 2 or s.shape[1] != 2 or s.shape[0] < 1:
            raise ValueError("samples must be a (k, 2) array of (t, r)")
        if np.any(s[:, 1] <= 0.0):
            raise ValueError("sampled radii must be positive")
        if np.any(np.diff(s[:, 1]) <= 0.0) and s.shape[0] > 1:
            raise ValueError("radius must be strictly increasing (expansive flow)")


def integrate_radius(
    F: SpeedFunction,
    r0: float,
    t0: float,
    t1: float,
    dt: float = 1e-3,
) -> SphereFlow:
    """Integrate dr/dt = 1/psi(r) with a classical 4th-order one-step method."""
    if not (math.isfinite(t0) and math.isfinite(t1)):
        raise ValueError(f"t0 and t1 must be finite, got {t0} and {t1}")
    if not (t1 > t0):
        raise ValueError("t1 must exceed t0")
    if not (dt > 0.0):
        raise ValueError("dt must be positive")
    if not (r0 > 0.0):
        raise ValueError("r0 must be positive")

    def rate(r: float) -> float:
        try:
            return 1.0 / psi(F, r)
        except CurvatureOutsideCone as exc:
            raise ConeExit(f"sphere curvature left the cone at r = {r}") from exc

    ts = [t0]
    rs = [float(r0)]
    t, r = t0, float(r0)
    while t < t1 - 1e-15 * max(1.0, abs(t1)):
        h = min(dt, t1 - t)
        k1 = rate(r)
        k2 = rate(r + 0.5 * h * k1)
        k3 = rate(r + 0.5 * h * k2)
        k4 = rate(r + h * k3)
        r = r + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        t = t + h
        ts.append(t)
        rs.append(r)
    return SphereFlow(samples=np.column_stack([ts, rs]))


@dataclass(frozen=True)
class AncientnessVerdict:
    """Classification of the round solution's backward lifespan.

    ``T0_estimate`` is referenced to the solution with radius 1 at time 0;
    it is -inf exactly when the verdict is ancient.  ``evidence`` records the
    shell integrals (or the closed form used) so a report can show why.
    """

    verdict: str
    T0_estimate: float
    evidence: tuple[dict, ...]
    method: str

    def __post_init__(self):
        if self.verdict == NON_ANCIENT and not math.isfinite(self.T0_estimate):
            raise ValueError("non-ancient verdict requires a finite initial time")
        if self.verdict == ANCIENT and self.T0_estimate != -math.inf:
            raise ValueError("ancient verdict requires T0 = -inf")

    @property
    def is_ancient(self) -> bool:
        return self.verdict == ANCIENT

    def to_json_dict(self) -> dict:
        return {
            "schema_version": 1,
            "verdict": self.verdict,
            "T0_estimate": self.T0_estimate if math.isfinite(self.T0_estimate) else "-inf",
            "method": self.method,
            "evidence": list(self.evidence),
        }


def _shell_integrals(F: SpeedFunction, upper: float) -> list[dict]:
    """Integrals of psi over [upper 2^-k, upper 2^-(k-1)], k = 1..SHELL_COUNT."""
    rows = []
    total = 0.0
    for k in range(1, SHELL_COUNT + 1):
        lo = upper * 2.0 ** (-k)
        hi = upper * 2.0 ** (-(k - 1))
        if lo < R_FLOOR:
            break
        half = 0.5 * (hi - lo)
        values = [psi(F, r) for r in (half * GAUSS_NODES + 0.5 * (hi + lo)).tolist()]
        val = half * float(np.dot(GAUSS_WEIGHTS, values))
        total += val
        rows.append({"epsilon": lo, "shell_integral": val, "cumulative": total})
    return rows


def _shell_growth(rows: list[dict]) -> float | None:
    """Growth time read off the shell integrals: inf when they diverge.

    Divergence needs non-decaying shells and a running total past
    BLOWUP_TOTAL; convergence needs geometric decay, and the mass below the
    last shell is then bounded by the geometric tail.  None when neither
    holds.
    """
    if len(rows) >= 8:
        shells = [r["shell_integral"] for r in rows]
        total = rows[-1]["cumulative"]
        nondecreasing = all(shells[i + 1] >= shells[i] * (1.0 - 1e-6) for i in range(len(shells) - 1))
        if nondecreasing and total > BLOWUP_TOTAL:
            return math.inf
        tail_ratios = [shells[i + 1] / shells[i] for i in range(len(shells) - 9, len(shells) - 1) if shells[i] > 0]
        if tail_ratios and max(tail_ratios) < CONVERGENT_RATIO:
            q = max(tail_ratios)
            return total + shells[-1] * q / (1.0 - q)
    return None


def _growth_time(F: SpeedFunction, r0: float) -> tuple[float, str, tuple[dict, ...]]:
    """Time for the round solution to grow from radius 0 to r0.

    This is the integral of psi over (0, r0], infinite exactly when round
    solutions are ancient.  Returns (time, method, evidence).
    """
    try:
        alpha = homogeneity_degree(F)
    except HyperflowError:  # no degree known: probe the integral instead
        alpha = None
    if alpha is not None:
        psi1 = psi(F, 1.0)
        evidence = ({"homogeneity": alpha, "psi_at_1": psi1},)
        if alpha >= 1.0:
            return math.inf, "homogeneous_closed_form", evidence
        return psi1 * r0 ** (1.0 - alpha) / (1.0 - alpha), "homogeneous_closed_form", evidence
    rows = _shell_integrals(F, upper=r0)
    T = _shell_growth(rows)
    if T is None:
        raise IndeterminateDivergence(
            f"shell probe inconclusive for {F.name} on (0, {r0}] and no homogeneity known"
        )
    return T, "numeric_shells", tuple(rows)


def is_ancient(F: SpeedFunction) -> AncientnessVerdict:
    """Decide whether round solutions of F extend to time -infinity.

    Speeds with a known scaling degree use the exact rule (degree >= 1).
    Otherwise the improper integral of psi near 0 is probed over geometric
    shells; divergence is declared only when shell increments do not decay
    and the running total blows past a large threshold, convergence only
    when the increments decay geometrically.  Anything else raises
    IndeterminateDivergence rather than guessing.
    """
    T, method, evidence = _growth_time(F, 1.0)
    return AncientnessVerdict(
        verdict=ANCIENT if T == math.inf else NON_ANCIENT,
        T0_estimate=-T,
        evidence=evidence,
        method=method,
    )


def initial_time_estimate(F: SpeedFunction, r0: float, t0: float) -> float:
    """Birth time of the round solution with radius r0 at time t0.

    Finite when the growth integral converges, -inf when the solution is
    ancient; always consistent with is_ancient.
    """
    if not (r0 > 0.0):
        raise ValueError("r0 must be positive")
    return t0 - _growth_time(F, r0)[0]
