"""Analytic surface families packaged as trajectories.

These inject known closed-form shape evolutions (round spheres, ellipses
with independently scaling axes) into the audit machinery.  Frames share one
template mesh so vertex correspondence is exact across all times.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from .flow_engine import Trajectory
from .hypersurface import DiscreteHypersurface
from .shapes import circle_polygon, icosphere


def _unit_template(n: int, resolution: int) -> DiscreteHypersurface:
    if n == 1:
        return circle_polygon(1.0, resolution)
    if n == 2:
        return icosphere(1.0, resolution)
    raise ValueError("only n = 1 and n = 2 are supported")


def _scaled_family(times, n: int, resolution: int, center, scale: Callable[[float], object]) -> Trajectory:
    """One frame per time: the unit template scaled by scale(t) about the center."""
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or times.shape[0] < 2 or np.any(np.diff(times) <= 0.0):
        raise ValueError("times must be strictly increasing, with at least two of them")
    template = _unit_template(n, resolution)
    center = np.zeros(n + 1) if center is None else np.asarray(center, dtype=float)
    frames = [
        (float(t), template.with_vertices(template.vertices * scale(float(t)) + center)) for t in times
    ]
    return Trajectory(frames=frames, t0=float(times[0]), t1=float(times[-1]))


def sphere_family(
    times: Sequence[float],
    radius_fn: Callable[[float], float],
    n: int = 1,
    center=None,
    resolution: int = 256,
) -> Trajectory:
    """Round spheres with radius radius_fn(t), one frame per time."""

    def radius(t: float) -> float:
        r = float(radius_fn(t))
        if r <= 0.0:
            raise ValueError(f"radius_fn({t}) = {r} must be positive")
        return r

    return _scaled_family(times, n, resolution, center, radius)


def exponential_sphere_family(
    t0: float = -6.0,
    t1: float = 0.0,
    frame_dt: float = 0.01,
    n: int = 1,
    resolution: int = 256,
    rate: float = 1.0,
    center=None,
) -> Trajectory:
    """Spheres with radius e^(rate * t); the model expanding solution."""
    count = int(round((t1 - t0) / frame_dt))
    times = t0 + frame_dt * np.arange(count + 1)
    return sphere_family(times, lambda t: float(np.exp(rate * t)), n=n, center=center, resolution=resolution)


def ellipsoid_family(
    times: Sequence[float],
    rates: Sequence[float] = (1.0, 2.0),
    n: int = 1,
    resolution: int = 256,
    center=None,
) -> Trajectory:
    """Axis-aligned ellipsoids with semi-axes e^(rate_i * t).

    With distinct rates the family collapses to a point backward in time
    while becoming ever more eccentric, so it satisfies the point-origin
    condition yet is spherical at no time with unequal axes.  It is not a
    solution of any admissible flow; the residual audit quantifies that.
    """
    rates = np.asarray(rates, dtype=float)
    if rates.shape[0] != n + 1:
        raise ValueError(f"need {n + 1} axis rates for n = {n}")
    return _scaled_family(times, n, resolution, center, lambda t: np.exp(rates * t))
