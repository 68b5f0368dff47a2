"""Analytic surface families packaged as trajectories.

These inject known closed-form shape evolutions (round spheres, ellipses
with independently scaling axes) into the audit machinery.  Frames share one
template mesh so vertex correspondence is exact across all times.
"""

from __future__ import annotations

from typing import Sequence

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


def _scaled_family(times, scales, n: int, resolution: int, center) -> Trajectory:
    """One frame per time: the unit template scaled about the center by that time's scales entry."""
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or times.shape[0] < 2 or np.any(np.diff(times) <= 0.0):
        raise ValueError("times must be strictly increasing, with at least two of them")
    template = _unit_template(n, resolution)
    center = np.zeros(n + 1) if center is None else np.asarray(center, dtype=float)
    frames = [(float(t), template.with_vertices(template.vertices * s + center)) for t, s in zip(times, scales)]
    return Trajectory(frames=frames)


def sphere_family(
    times: Sequence[float],
    radii: Sequence[float],
    n: int = 1,
    center=None,
    resolution: int = 256,
) -> Trajectory:
    """Round spheres, one frame per time with the matching radius."""
    radii = np.asarray(radii, dtype=float)
    if radii.shape != np.shape(times) or not np.all(np.isfinite(radii) & (radii > 0.0)):
        raise ValueError("need one positive, finite radius per time")
    return _scaled_family(times, radii, n, resolution, center)


def exponential_sphere_family(
    t0: float = -6.0,
    t1: float = 0.0,
    frame_dt: float = 0.01,
    n: int = 1,
    resolution: int = 256,
    center=None,
) -> Trajectory:
    """Spheres with radius e^t; the model expanding solution."""
    if not (frame_dt > 0.0):
        raise ValueError(f"frame_dt must be positive, got {frame_dt}")
    count = int(round((t1 - t0) / frame_dt))
    times = t0 + frame_dt * np.arange(count + 1)
    return sphere_family(times, np.exp(times), n=n, center=center, resolution=resolution)


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
    return _scaled_family(times, np.exp(np.multiply.outer(times, rates)), n, resolution, center)
