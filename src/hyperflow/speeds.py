"""Curvature speed functions and their admissible cones.

A speed is a positive, permutation-symmetric function F of the principal
curvatures (lambda_1, ..., lambda_n), strictly increasing in each argument,
defined on an open convex symmetric cone that contains the positive diagonal.
The flow engine moves surfaces outward with normal velocity 1/F, so every
speed here must stay positive and monotone on its cone.

Built-ins cover homogeneity degrees below, at and above one: the curvature
sum H, its powers H^alpha, the curvature product K, and sqrt(lambda_1 *
lambda_2).  Admissibility of a speed is only ever checked by sampling; the
reports say "sampled", never "proved".
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import CurvatureOutsideCone, EmptySample, NonPositiveSpeed

# Central-difference step for gradients without a closed form.
FD_RELATIVE_STEP = 1e-5
FD_ABSOLUTE_FLOOR = 1e-8

POSITIVE = "positive"
FULL = "full"
CUSTOM = "custom"


@dataclass(frozen=True)
class Cone:
    """Open symmetric cone of admissible curvature tuples.

    ``kind`` is one of ``positive`` (all entries > 0), ``full`` (everything
    except the origin) or ``custom`` (membership delegated to ``predicate``).
    """

    kind: str
    predicate: Callable[[np.ndarray], bool] | None = None
    description: str = ""

    @classmethod
    def positive(cls) -> "Cone":
        return cls(kind=POSITIVE, description="all principal curvatures positive")

    @classmethod
    def full(cls) -> "Cone":
        return cls(kind=FULL, description="any curvature tuple except the origin")

    @classmethod
    def custom(cls, predicate: Callable[[np.ndarray], bool], description: str = "") -> "Cone":
        return cls(kind=CUSTOM, predicate=predicate, description=description)

    def contains(self, lam: np.ndarray) -> bool:
        return bool(self.contains_many(lam)[0])

    def contains_many(self, lams: np.ndarray) -> np.ndarray:
        """Vectorised membership test for an (m, n) array of tuples."""
        lams = np.atleast_2d(np.asarray(lams, dtype=float))
        finite = np.all(np.isfinite(lams), axis=-1)
        if self.kind == POSITIVE:
            with np.errstate(invalid="ignore"):
                return finite & (self.interior_margin(lams) > 0.0)
        if self.kind == FULL:
            return finite & (np.max(np.abs(lams), axis=-1) > 0.0)
        if self.predicate is None:
            raise ValueError("custom cone without predicate")
        return np.array([ok and bool(self.predicate(row)) for ok, row in zip(finite, lams)], dtype=bool)

    def interior_margin(self, lams: np.ndarray) -> np.ndarray:
        """Relative depth inside the cone, positive for members.

        For the positive cone this is min(lam) / max(|lam|), which is 1 on
        the diagonal and tends to 0 at the boundary.  For n = 1 it is
        constantly 1 on members (the only boundary is the origin), so
        margin-based warnings are meaningful for n >= 2 only.  The other
        kinds report an indicator (+1 member / -1 not) since they have no
        graded distance to a boundary.
        """
        lams = np.atleast_2d(np.asarray(lams, dtype=float))
        if self.kind == POSITIVE:
            scale = np.max(np.abs(lams), axis=-1)
            safe = np.where(scale > 0.0, scale, 1.0)
            out = np.min(lams, axis=-1) / safe
            return np.where(scale > 0.0, out, -1.0)
        member = self.contains_many(lams)
        return np.where(member, 1.0, -1.0)

    def validate_samples(self, arity: int, rng_seed: int = 0) -> None:
        """Sampled sanity checks: diagonal membership, symmetry, convexity."""
        rng = np.random.default_rng(rng_seed)
        for lam in (1e-3, 1.0, 1e3):
            if not self.contains(np.full(arity, lam)):
                raise ValueError(f"cone misses positive diagonal at {lam}")
        pts = [np.full(arity, m) * rng.uniform(0.5, 2.0, size=arity) for m in (0.1, 1.0, 10.0)]
        members = [p for p in pts if self.contains(p)]
        for p in members:
            if not self.contains(p[::-1].copy()):
                raise ValueError("cone not permutation symmetric on samples")
        for i in range(len(members)):
            for j in range(i + 1, len(members)):
                mid = 0.5 * (members[i] + members[j])
                if not self.contains(mid):
                    raise ValueError("cone not convex along sampled segment")


@dataclass(frozen=True)
class SpeedFunction:
    """A curvature speed with its cone, optional gradient and homogeneity.

    ``fn`` maps arrays of shape (..., arity) to (...) so per-vertex batches
    evaluate without Python loops.  Instances are immutable and safe to share
    between concurrent evaluators.
    """

    name: str
    arity: int
    cone: Cone
    fn: Callable[[np.ndarray], np.ndarray]
    grad: Callable[[np.ndarray], np.ndarray] | None = None
    homogeneity: float | None = None

    def __call__(self, lam) -> float:
        return eval_speed(self, lam)

    def values(self, lams: np.ndarray) -> np.ndarray:
        """Batched raw evaluation (no cone or sign checks)."""
        return np.asarray(self.fn(np.asarray(lams, dtype=float)), dtype=float)

    def gradient(self, lam) -> np.ndarray:
        lam = _as_tuple(self, lam)
        if not self.cone.contains(lam):
            raise CurvatureOutsideCone(f"{tuple(lam)} outside cone of {self.name}")
        return _raw_gradient(self, lam)


def _as_tuple(F: SpeedFunction, lam) -> np.ndarray:
    lam = np.asarray(lam, dtype=float).reshape(-1)
    if lam.shape[0] != F.arity:
        raise ValueError(f"expected {F.arity} curvatures, got {lam.shape[0]}")
    return lam


def _raw_gradient(F: SpeedFunction, lam: np.ndarray) -> np.ndarray:
    """Closed-form gradient when F declares one, central differences otherwise."""
    if F.grad is not None:
        return np.asarray(F.grad(lam), dtype=float).reshape(F.arity)
    return finite_difference_gradient(F.fn, lam)


def finite_difference_gradient(fn, lam: np.ndarray) -> np.ndarray:
    """Central differences with a relative step and absolute floor."""
    lam = np.asarray(lam, dtype=float)
    g = np.empty_like(lam)
    for i in range(lam.shape[0]):
        h = max(FD_RELATIVE_STEP * abs(lam[i]), FD_ABSOLUTE_FLOOR)
        hi = lam.copy()
        lo = lam.copy()
        hi[i] += h
        lo[i] -= h
        g[i] = (float(fn(hi)) - float(fn(lo))) / (2.0 * h)
    return g


def eval_speed(F: SpeedFunction, lam) -> float:
    """Evaluate F at a curvature tuple, enforcing cone membership and sign."""
    lam = _as_tuple(F, lam)
    if not F.cone.contains(lam):
        raise CurvatureOutsideCone(f"{tuple(lam)} outside cone of {F.name}")
    v = float(F.fn(lam))
    if not math.isfinite(v) or v <= 0.0:
        raise NonPositiveSpeed(f"{F.name}{tuple(lam)} = {v}")
    return v


# ---------------------------------------------------------------------------
# Built-in catalog


def mean_curvature(n: int) -> SpeedFunction:
    """F = lambda_1 + ... + lambda_n (the curve curvature k when n = 1)."""
    name = "k" if n == 1 else "H"
    return SpeedFunction(
        name=name,
        arity=n,
        cone=Cone.positive(),
        fn=lambda lam: np.sum(lam, axis=-1),
        grad=lambda lam: np.ones_like(lam),
        homogeneity=1.0,
    )


def mean_curvature_power(n: int, alpha: float) -> SpeedFunction:
    if not (alpha > 0):
        raise ValueError("alpha must be positive")
    name = f"{'k' if n == 1 else 'H'}^{alpha:g}"

    def fn(lam):
        return np.sum(lam, axis=-1) ** alpha

    def grad(lam):
        s = np.sum(lam, axis=-1, keepdims=True)
        return alpha * s ** (alpha - 1.0) * np.ones_like(lam)

    return SpeedFunction(name=name, arity=n, cone=Cone.positive(), fn=fn, grad=grad, homogeneity=float(alpha))


def curvature_product(n: int) -> SpeedFunction:
    """F = lambda_1 * ... * lambda_n (Gauss curvature for n = 2)."""

    def grad(lam):
        prod = np.prod(lam, axis=-1, keepdims=True)
        return prod / lam  # positive cone, no zero division

    return SpeedFunction(
        name="K",
        arity=n,
        cone=Cone.positive(),
        fn=lambda lam: np.prod(lam, axis=-1),
        grad=grad,
        homogeneity=float(n),
    )


def sqrt_second_symmetric(n: int = 2) -> SpeedFunction:
    """F = sqrt(lambda_1 * lambda_2), the 1-homogeneous root of sigma_2."""
    if n != 2:
        raise ValueError("sqrt(sigma_2) speed is defined here for n = 2 only")

    def fn(lam):
        return np.sqrt(lam[..., 0] * lam[..., 1])

    def grad(lam):
        s = np.sqrt(lam[..., 0] * lam[..., 1])
        return np.stack([lam[..., 1], lam[..., 0]], axis=-1) / (2.0 * s[..., None])

    return SpeedFunction(name="sqrt_sigma2", arity=2, cone=Cone.positive(), fn=fn, grad=grad, homogeneity=1.0)


_POWER_NAMES = {"h^alpha", "k^alpha"}


def speed_by_name(name: str, n: int, alpha: float | None = None) -> SpeedFunction:
    """Resolve a catalog speed from its CLI name.

    Accepted names: "k" (n = 1 only), "H", "H^alpha" / "k^alpha" (requires
    alpha > 0), "K" (curvature product, case sensitive), "sqrt_sigma2"
    (n = 2).
    """
    stripped = name.strip()
    if stripped == "K":
        return curvature_product(n)
    key = stripped.lower()
    if key == "k":
        if n != 1:
            raise ValueError("speed 'k' is the curve curvature; use 'H' for n = 2")
        return mean_curvature(1)
    if key == "h":
        return mean_curvature(n)
    if key in _POWER_NAMES:
        if alpha is None:
            raise ValueError(f"speed '{name}' requires an alpha parameter")
        return mean_curvature_power(n, alpha)
    if key == "sqrt_sigma2":
        return sqrt_second_symmetric(n)
    raise ValueError(f"unknown speed name: {name!r}")


def catalog(n: int) -> list[SpeedFunction]:
    """The built-in speeds at a given arity (used by property suites)."""
    speeds = [
        mean_curvature(n),
        mean_curvature_power(n, 0.5),
        mean_curvature_power(n, 2.0),
        curvature_product(n),
    ]
    if n == 2:
        speeds.append(sqrt_second_symmetric(2))
    return speeds


# ---------------------------------------------------------------------------
# Sampling and admissibility


@dataclass(frozen=True)
class SamplePlan:
    """Deterministic sampling plan over a cone.

    Diagonal points at the configured magnitudes plus seeded random
    anisotropic points near each magnitude; points outside the cone are
    dropped.
    """

    diagonal_magnitudes: tuple[float, ...] = (1e-2, 1e-1, 1.0, 1e1, 1e2)
    offdiagonal_per_magnitude: int = 32
    seed: int = 0
    spread: float = 3.0

    def points(self, arity: int, cone: Cone) -> np.ndarray:
        rng = np.random.default_rng(self.seed)
        rows: list[np.ndarray] = []
        for mag in self.diagonal_magnitudes:
            diag = np.full(arity, float(mag))
            if cone.contains(diag):
                rows.append(diag)
            for _ in range(self.offdiagonal_per_magnitude):
                factors = self.spread ** rng.uniform(-1.0, 1.0, size=arity)
                pt = mag * factors
                if cone.contains(pt):
                    rows.append(pt)
        if not rows:
            raise EmptySample("sampling plan produced no cone points")
        return np.array(rows, dtype=float)


@dataclass(frozen=True)
class AdmissibilityRow:
    point: tuple[float, ...]
    value: float
    positive: bool
    gradient: tuple[float, ...]
    monotone: bool
    symmetry_residual: float

    @property
    def passed(self) -> bool:
        return self.positive and self.monotone


@dataclass(frozen=True)
class AdmissibilityReport:
    speed_name: str
    rows: tuple[AdmissibilityRow, ...]
    passed: bool
    note: str = "sampled verdict: positivity and monotonicity checked at finitely many cone points, not proved"

    def failures(self) -> list[AdmissibilityRow]:
        return [r for r in self.rows if not r.passed]

    def to_json_dict(self) -> dict:
        return {
            "schema_version": 1,
            "speed": self.speed_name,
            "passed": self.passed,
            "note": self.note,
            "rows": [
                {
                    "point": list(r.point),
                    "value": r.value,
                    "positive": r.positive,
                    "gradient": list(r.gradient),
                    "monotone": r.monotone,
                    "symmetry_residual": r.symmetry_residual,
                }
                for r in self.rows
            ],
        }


def check_admissibility(F: SpeedFunction, plan: SamplePlan | None = None) -> AdmissibilityReport:
    """Sample the cone and verify F > 0, dF/dlambda_i > 0 and symmetry.

    The report never raises on a failing speed; each sampled point carries
    its own verdicts so callers can inspect where a hypothesis breaks.
    """
    plan = plan or SamplePlan()
    pts = plan.points(F.arity, F.cone)
    rows = []
    ok = True
    for lam in pts:
        v = float(F.fn(lam))
        positive = math.isfinite(v) and v > 0.0
        g = _raw_gradient(F, lam)
        monotone = bool(np.all(np.isfinite(g)) and np.all(g > 0.0))
        residual = 0.0
        if F.arity >= 2:
            swapped = lam[::-1].copy()
            residual = abs(v - float(F.fn(swapped)))
        rows.append(
            AdmissibilityRow(
                point=tuple(float(x) for x in lam),
                value=v,
                positive=positive,
                gradient=tuple(float(x) for x in g),
                monotone=monotone,
                symmetry_residual=residual,
            )
        )
        ok = ok and positive and monotone
    return AdmissibilityReport(speed_name=F.name, rows=tuple(rows), passed=ok)


def homogeneity_degree(
    F: SpeedFunction,
    probe=None,
    scales: Sequence[float] = (2.0, 4.0),
    tol: float = 1e-6,
) -> float | None:
    """Detect a scaling degree alpha with F(s lam) = s^alpha F(lam).

    Returns None when the log-ratios disagree across the probe scales, which
    is the verdict for genuinely non-homogeneous speeds.
    """
    if probe is None:
        probe = np.full(F.arity, 1.0)
    probe = _as_tuple(F, probe)
    base = eval_speed(F, probe)
    alphas = []
    for s in scales:
        scaled = s * probe
        if not F.cone.contains(scaled):
            raise CurvatureOutsideCone(f"scaled probe {tuple(scaled)} outside cone")
        alphas.append((math.log(float(F.fn(scaled))) - math.log(base)) / math.log(s))
    if max(alphas) - min(alphas) > tol:
        return None
    return float(np.mean(alphas))
