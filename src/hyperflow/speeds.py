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
from typing import Callable

import numpy as np

from .errors import CurvatureOutsideCone, EmptySample, NonPositiveSpeed

# Central-difference step for gradients without a closed form.
FD_RELATIVE_STEP = 1e-5
FD_ABSOLUTE_FLOOR = 1e-8

POSITIVE = "positive"
CUSTOM = "custom"


@dataclass(frozen=True)
class Cone:
    """Open symmetric cone of admissible curvature tuples.

    ``kind`` is ``positive`` (all entries > 0) or ``custom`` (membership
    delegated to ``predicate``).
    """

    kind: str
    predicate: Callable[[np.ndarray], bool] | None = None

    @classmethod
    def positive(cls) -> "Cone":
        return cls(kind=POSITIVE)

    @classmethod
    def custom(cls, predicate: Callable[[np.ndarray], bool]) -> "Cone":
        return cls(kind=CUSTOM, predicate=predicate)

    def contains(self, lam: np.ndarray) -> bool:
        return bool(self.contains_many(lam)[0])

    def contains_many(self, lams: np.ndarray) -> np.ndarray:
        """Vectorised membership test for an (m, n) array of tuples."""
        lams = np.atleast_2d(np.asarray(lams, dtype=float))
        finite = np.all(np.isfinite(lams), axis=-1)
        if self.kind == POSITIVE:
            with np.errstate(invalid="ignore"):
                return finite & (self.interior_margin(lams) > 0.0)
        if self.predicate is None:
            raise ValueError("custom cone without predicate")
        return np.array([ok and bool(self.predicate(row)) for ok, row in zip(finite, lams)], dtype=bool)

    def interior_margin(self, lams: np.ndarray) -> np.ndarray:
        """Relative depth inside the cone, positive for members.

        For the positive cone this is min(lam) / max(|lam|), which is 1 on
        the diagonal and tends to 0 at the boundary.  For n = 1 it is
        constantly 1 on members (the only boundary is the origin), so
        margin-based warnings are meaningful for n >= 2 only.  A custom
        cone reports an indicator (+1 member / -1 not) since it has no
        graded distance to a boundary.  At n = 1 the positive cone's margin
        is lam / |lam| without the two reductions over a length-1 axis: +1
        and -1 for finite non-zero lam, -1 for 0 and NaN, and NaN for +-inf,
        as the general formula gives.
        """
        lams = np.atleast_2d(np.asarray(lams, dtype=float))
        if self.kind == POSITIVE and lams.shape[-1] == 1:
            lam = lams[..., 0]
            scale = np.abs(lam)
            return np.divide(lam, scale, out=np.full(lam.shape, -1.0), where=scale > 0.0)
        if self.kind == POSITIVE:
            scale = np.max(np.abs(lams), axis=-1)
            safe = np.where(scale > 0.0, scale, 1.0)
            out = np.min(lams, axis=-1) / safe
            return np.where(scale > 0.0, out, -1.0)
        member = self.contains_many(lams)
        return np.where(member, 1.0, -1.0)


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

    def values(self, lams: np.ndarray) -> np.ndarray:
        """Batched raw evaluation (no cone or sign checks)."""
        return np.asarray(self.fn(np.asarray(lams, dtype=float)), dtype=float)


def _as_tuple(F: SpeedFunction, lam) -> np.ndarray:
    lam = np.asarray(lam, dtype=float).reshape(-1)
    if lam.shape[0] != F.arity:
        raise ValueError(f"expected {F.arity} curvatures, got {lam.shape[0]}")
    return lam


def _raw_gradient(F: SpeedFunction, lam: np.ndarray) -> np.ndarray:
    """Gradients at an (..., arity) batch: the closed form when F declares one,
    central differences otherwise."""
    if F.grad is not None:
        return np.broadcast_to(np.asarray(F.grad(lam), dtype=float), lam.shape)
    return finite_difference_gradient(F.fn, lam)


def finite_difference_gradient(fn, lam: np.ndarray) -> np.ndarray:
    """Central differences at an (..., n) batch, one component at a time over
    the whole batch, with a relative step and absolute floor."""
    lam = np.asarray(lam, dtype=float)
    g = np.empty_like(lam)
    for i in range(lam.shape[-1]):
        h = np.maximum(FD_RELATIVE_STEP * np.abs(lam[..., i]), FD_ABSOLUTE_FLOOR)
        hi = lam.copy()
        lo = lam.copy()
        hi[..., i] += h
        lo[..., i] -= h
        g[..., i] = (np.asarray(fn(hi), dtype=float) - np.asarray(fn(lo), dtype=float)) / (2.0 * h)
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
        fn=lambda lam: np.add.reduce(lam, axis=-1),  # np.sum without its Python wrapper
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
    (n = 2).  Only the power speeds take alpha; any other speed given one is
    an error.
    """
    stripped = name.strip()
    key = stripped.lower()
    if key in _POWER_NAMES:
        if alpha is None:
            raise ValueError(f"speed '{name}' requires an alpha parameter")
        return mean_curvature_power(n, alpha)
    if stripped == "K":
        F = curvature_product(n)
    elif key == "k":
        if n != 1:
            raise ValueError("speed 'k' is the curve curvature; use 'H' for n = 2")
        F = mean_curvature(1)
    elif key == "h":
        F = mean_curvature(n)
    elif key == "sqrt_sigma2":
        F = sqrt_second_symmetric(n)
    else:
        raise ValueError(f"unknown speed name: {name!r}")
    if alpha is not None:
        raise ValueError(f"speed '{name}' takes no alpha parameter")
    return F


# ---------------------------------------------------------------------------
# Sampling and admissibility

_SAMPLE_MAGNITUDES = (1e-2, 1e-1, 1.0, 1e1, 1e2)
_SAMPLE_SPREAD = 3.0


@dataclass(frozen=True)
class SamplePlan:
    """Deterministic sampling plan over a cone.

    Diagonal points at the _SAMPLE_MAGNITUDES plus seeded random anisotropic
    points near each magnitude; points outside the cone are dropped.
    """

    offdiagonal_per_magnitude: int = 32
    seed: int = 0

    def points(self, arity: int, cone: Cone) -> np.ndarray:
        rng = np.random.default_rng(self.seed)
        mags = np.asarray(_SAMPLE_MAGNITUDES, dtype=float)[:, None, None]
        draws = rng.uniform(-1.0, 1.0, size=(mags.shape[0], self.offdiagonal_per_magnitude, arity))
        # per magnitude: the diagonal point, then its off-diagonal points
        rows = np.concatenate([np.repeat(mags, arity, axis=2), mags * _SAMPLE_SPREAD**draws], axis=1)
        rows = rows.reshape(-1, arity)
        rows = rows[cone.contains_many(rows)]
        if rows.shape[0] == 0:
            raise EmptySample("sampling plan produced no cone points")
        return rows


@dataclass(frozen=True)
class AdmissibilityRow:
    point: tuple[float, ...]
    value: float
    positive: bool
    gradient: tuple[float, ...]
    monotone: bool
    symmetry_residual: float


@dataclass(frozen=True)
class AdmissibilityReport:
    speed_name: str
    rows: tuple[AdmissibilityRow, ...]
    passed: bool
    note: str = "sampled verdict: positivity and monotonicity checked at finitely many cone points, not proved"

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
    values = F.values(pts)
    grads = _raw_gradient(F, pts)
    positive = np.isfinite(values) & (values > 0.0)
    monotone = np.all(np.isfinite(grads) & (grads > 0.0), axis=-1)
    residuals = np.abs(values - F.values(pts[:, ::-1])) if F.arity >= 2 else np.zeros_like(values)
    rows = tuple(
        AdmissibilityRow(
            point=tuple(lam.tolist()),
            value=float(v),
            positive=bool(p),
            gradient=tuple(g.tolist()),
            monotone=bool(m),
            symmetry_residual=float(r),
        )
        for lam, v, p, g, m, r in zip(pts, values, positive, grads, monotone, residuals)
    )
    return AdmissibilityReport(speed_name=F.name, rows=rows, passed=bool(np.all(positive & monotone)))


def homogeneity_degree(F: SpeedFunction) -> float | None:
    """The scaling degree alpha with F(s lam) = s^alpha F(lam).

    A degree that F declares is returned as is.  Otherwise it is probed at
    the unit diagonal over the scales 2 and 4, and None is returned when the
    two log-ratios disagree by more than 1e-6, which is the verdict for
    genuinely non-homogeneous speeds.
    """
    if F.homogeneity is not None:
        return float(F.homogeneity)
    probe = np.ones(F.arity)
    base = math.log(eval_speed(F, probe))
    alphas = [(math.log(eval_speed(F, s * probe)) - base) / math.log(s) for s in (2.0, 4.0)]
    if max(alphas) - min(alphas) > 1e-6:
        return None
    return float(np.mean(alphas))
