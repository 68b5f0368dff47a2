"""Round solutions of the expansion flow: the radius and ancientness.

A sphere of radius r has all principal curvatures equal to 1/r, so the flow
reduces to the scalar ODE  dr/dt = 1 / psi(r)  with  psi(r) = F(1/r, ..., 1/r).
The round solution through (t0, r0) reaches radius r at t0 plus the integral
of psi over [r0, r], taken by one Gauss-Legendre rule per octave of radius
and inverted by Newton's method.  It is ancient exactly when the integral
over (0, r0] diverges: for an alpha-homogeneous speed, psi(r) = psi(1)
r^(-alpha) and it diverges iff alpha >= 1; for anything else we probe it over
geometric shells and refuse to guess when the evidence is inconclusive.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConeExit, CurvatureOutsideCone, HyperflowError, IndeterminateDivergence
from .speeds import SpeedFunction, eval_speed, homogeneity_degree

# The shell probe stops at this radius (floating-point floor).
R_FLOOR = 1e-15
SHELL_COUNT = 40
BLOWUP_TOTAL = 1e6
# Shell-to-shell decay ratio below which the remaining tail is summed
# geometrically and the integral is declared convergent.
CONVERGENT_RATIO = 0.97
# Gauss-Legendre rule on [-1, 1] applied to each shell; psi is smooth on a
# shell, which spans at most a factor of 2 in radius.
GAUSS_NODES, GAUSS_WEIGHTS = np.polynomial.legendre.leggauss(16)

ANCIENT = "ancient"
NON_ANCIENT = "non_ancient"


def psi(F: SpeedFunction, r):
    """Speeds of the round spheres of radii r, an array: F on the diagonal."""
    r = np.asarray(r, dtype=float)
    bad = ~(np.isfinite(r) & (r > 0.0))
    if bad.any():
        raise ValueError(f"radius must be positive and finite, got {r[bad].flat[0]}")
    return eval_speed(F, np.repeat((1.0 / r)[..., None], F.arity, axis=-1))


def _shell_rule(F: SpeedFunction, lo, hi) -> np.ndarray:
    """Integrals of psi over [lo, hi] by the 16-point Gauss-Legendre rule,
    exact to rounding on a shell up to an octave wide."""
    lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    half = 0.5 * (hi - lo)
    return half * (psi(F, half[..., None] * GAUSS_NODES + (0.5 * (hi + lo))[..., None]) @ GAUSS_WEIGHTS)


def _radii(F: SpeedFunction, r0: float, t0: float, times) -> np.ndarray:
    """Radii at the given times of the round solution with radius r0 at t0.

    A table of t at the octave edges r0 2^j, one shell rule each, grows until
    it brackets every time; each radius then solves t(r) = t in its octave by
    Newton's method in u = log r, where dt/du = r psi(r) > 0.  A time at or
    before the birth time, or at or after the blow-up time, is a ValueError.
    """
    times = np.asarray(times, dtype=float)
    early, late = times.min(initial=t0), times.max(initial=t0)
    if early < t0 and early <= (birth := initial_time_estimate(F, r0, t0)):
        raise ValueError(f"t = {early} is at or before the round solution's birth time {birth}")
    edges, clock = [float(r0)], [float(t0)]
    try:
        while clock[0] > early:
            if edges[0] < 2.0 * np.finfo(float).tiny:
                raise ValueError(f"the round solution's radius at t = {early} is below the floating-point range")
            edges.insert(0, 0.5 * edges[0])
            clock.insert(0, clock[0] - float(_shell_rule(F, edges[0], edges[1])))
        while clock[-1] <= late:
            edges.append(2.0 * edges[-1])
            clock.append(clock[-1] + float(_shell_rule(F, edges[-2], edges[-1])))
            if clock[-1] == clock[-2]:  # the rest of the integral is below rounding
                raise ValueError(f"t = {late} is at or after the round solution's blow-up time {clock[-1]}")
    except CurvatureOutsideCone as exc:  # only a predicate that is no cone leaves the diagonal
        raise ConeExit(f"sphere curvature left the cone: {exc}") from exc
    edges, clock = np.array(edges), np.array(clock)
    j = np.searchsorted(clock, times, side="right") - 1
    lo, start = edges[j], clock[j]
    r = lo * np.exp2((times - start) / (clock[j + 1] - start))  # the chord between the octave's ends in u
    todo = np.arange(times.size)
    for _ in range(20):  # the catalog speeds need at most 5 steps
        x = r[todo]
        g = start[todo] + _shell_rule(F, lo[todo], x) - times[todo]
        slope = x * psi(F, x)
        # g carries the rounding of its terms, and one rounding of r moves t by slope eps
        keep = np.abs(g) > 4.0 * np.finfo(float).eps * (np.abs(start[todo]) + np.abs(times[todo]) + slope)
        if not keep.any():
            return r
        todo, x, du = todo[keep], x[keep], np.clip(-g[keep] / slope[keep], -math.log(2.0), math.log(2.0))
        r[todo] = np.clip(x * np.exp(du), lo[todo], 2.0 * lo[todo])
    raise HyperflowError(f"the radius solve did not converge at t = {times[todo[0]]}")


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
    """The round solution with radius r0 at t0, sampled at t0 + k dt and at t1."""
    if not (math.isfinite(t0) and math.isfinite(t1)):
        raise ValueError(f"t0 and t1 must be finite, got {t0} and {t1}")
    if not (t1 > t0):
        raise ValueError("t1 must exceed t0")
    if not (dt > 0.0):
        raise ValueError("dt must be positive")
    if not (r0 > 0.0):
        raise ValueError("r0 must be positive")
    # a dt that divides the span up to rounding leaves no sliver of a last gap
    times = t0 + dt * np.arange(math.ceil((t1 - t0) / dt * (1.0 - 1e-12)) + 1)
    times[-1] = t1
    return SphereFlow(samples=np.column_stack([times, _radii(F, r0, t0, times)]))


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
    """Integrals of psi over [upper 2^-k, upper 2^-(k-1)], k = 1..SHELL_COUNT, down to R_FLOOR."""
    lo = upper * 0.5 ** np.arange(1, SHELL_COUNT + 1)
    lo = lo[lo >= R_FLOOR]
    shells = _shell_rule(F, lo, 2.0 * lo).tolist()
    return [{"epsilon": a, "shell_integral": val, "cumulative": total}
            for a, val, total in zip(lo.tolist(), shells, itertools.accumulate(shells))]


def _growth_time(F: SpeedFunction, r0: float) -> tuple[float, str, tuple[dict, ...]]:
    """Time for the round solution to grow from radius 0 to r0, with the
    method and the evidence: the integral of psi over (0, r0], infinite
    exactly when round solutions are ancient.

    Without a degree the shell integrals decide.  Divergence needs
    non-decaying shells and a running total past BLOWUP_TOTAL; convergence
    needs geometric decay, and the mass below the last shell is then bounded
    by the geometric tail.  Anything else raises IndeterminateDivergence.
    """
    try:
        alpha = homogeneity_degree(F)
    except HyperflowError:  # no degree known: probe the integral instead
        alpha = None
    if alpha is not None:
        psi1 = float(psi(F, 1.0))
        evidence = ({"homogeneity": alpha, "psi_at_1": psi1},)
        if alpha >= 1.0:
            return math.inf, "homogeneous_closed_form", evidence
        return psi1 * r0 ** (1.0 - alpha) / (1.0 - alpha), "homogeneous_closed_form", evidence
    rows = _shell_integrals(F, upper=r0)
    if len(rows) >= 8:
        shells = [r["shell_integral"] for r in rows]
        total = rows[-1]["cumulative"]
        nondecreasing = all(shells[i + 1] >= shells[i] * (1.0 - 1e-6) for i in range(len(shells) - 1))
        if nondecreasing and total > BLOWUP_TOTAL:
            return math.inf, "numeric_shells", tuple(rows)
        tail_ratios = [shells[i + 1] / shells[i] for i in range(len(shells) - 9, len(shells) - 1) if shells[i] > 0]
        if tail_ratios and max(tail_ratios) < CONVERGENT_RATIO:
            q = max(tail_ratios)
            return total + shells[-1] * q / (1.0 - q), "numeric_shells", tuple(rows)
    raise IndeterminateDivergence(f"shell probe inconclusive for {F.name} on (0, {r0}] and no homogeneity known")


def is_ancient(F: SpeedFunction) -> AncientnessVerdict:
    """Decide whether round solutions of F extend to time -infinity: the exact
    rule (degree >= 1) when F has a degree, else the shell probe of
    ``_growth_time``, which raises IndeterminateDivergence rather than guess."""
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
