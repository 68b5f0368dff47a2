"""Expand round shapes and compare against the exact round solutions.

Usage: python scripts/run_sphere_expansion.py [--fast]
"""

import argparse
import math
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from hyperflow.flow_engine import FlowConfig, evolve
from hyperflow import shapes
from hyperflow.speeds import mean_curvature, mean_curvature_power
from hyperflow.sphere_ode import integrate_radius


def run_case(label, M0, F, t_end, dt):
    start = time.perf_counter()
    traj = evolve(M0, F, 0.0, FlowConfig(t_end=t_end, dt=dt))
    elapsed = time.perf_counter() - start
    ode = integrate_radius(F, 1.0, 0.0, t_end, dt)
    exact = ode.samples[-1, 1]
    radii = np.linalg.norm(traj.frames[-1][1].vertices, axis=1)
    print(
        f"{label:28s} mesh radius {radii.mean():.8f}  ode {exact:.8f}  "
        f"rel err {abs(radii.mean() - exact) / exact:.2e}  spread {radii.max() - radii.min():.2e}  "
        f"({elapsed:.1f}s)"
    )


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--fast", action="store_true", help="coarser meshes and steps")
    args = parser.parse_args()

    res_curve = 64 if args.fast else 256
    sub_mesh = 3 if args.fast else 4
    # the reference radii are exact, so a curve's error is its RK4 time error
    # alone: 5.2e-12 relative at dt = 5e-3 and 8.7e-15 at 1e-3 under 1/k
    dt = 1e-3
    mesh_dt = 5e-3 if args.fast else dt

    print("expanding flows against the separable radius ODE")
    print(f"  curve resolution {res_curve}, mesh subdivisions {sub_mesh}, curve dt {dt}, mesh dt {mesh_dt}")
    run_case(
        f"circle, speed 1/k", shapes.circle_polygon(1.0, res_curve), mean_curvature(1), 1.0, dt
    )
    run_case(
        f"circle, speed 1/k^0.5",
        shapes.circle_polygon(1.0, res_curve),
        mean_curvature_power(1, 0.5),
        1.0,
        dt,
    )
    run_case(
        f"icosphere, speed 1/H", shapes.icosphere(1.0, sub_mesh), mean_curvature(2), 0.5, mesh_dt
    )
    print(f"closed forms: e = {math.e:.8f}, (1 + 1/2)^2 = 2.25, e^0.25 = {math.exp(0.25):.8f}")


if __name__ == "__main__":
    main()
