"""Toolkit for expanding curvature flows of closed hypersurfaces.

Surfaces move outward with normal speed 1/F for a positive, monotone,
symmetric function F of the principal curvatures.  The package simulates the
flow on discrete curves and meshes, integrates the exact round solutions,
classifies which speeds admit solutions with unbounded past, and audits
trajectories that emerge from a point with moving-plane reflection checks
and sphericity certificates.
"""

from .errors import HyperflowError
from .flow_engine import FlowConfig, Trajectory, evolve, flow_residual, remesh, step
from .hypersurface import (
    Containment,
    CurvatureData,
    DiscreteHypersurface,
    RadiiReport,
    contains_point,
    curvature_pinching_ratio,
    enclosed_volume,
    inner_outer_radii,
    read_surface,
    starshapedness_ratio,
    support_max,
    write_surface,
)
from .reflection import (
    Hyperplane,
    ReflectionStatus,
    ReflectionVerdict,
    SymmetryOutcome,
    first_touch_time,
    monitor_reflection,
    strict_reflection_check,
    symmetry_certificate,
)
from .rigidity import (
    PointOriginReport,
    RigidityAuditReport,
    ancient_nonexistence_check,
    comes_out_of_point,
    pinching_diagnostics,
    rigidity_audit,
    tau_limit_check,
)
from .speeds import (
    Cone,
    SamplePlan,
    SpeedFunction,
    check_admissibility,
    eval_speed,
    homogeneity_degree,
    mean_curvature,
    mean_curvature_power,
    curvature_product,
    speed_by_name,
    sqrt_second_symmetric,
)
from .sphere_ode import (
    AncientnessVerdict,
    SphereFlow,
    initial_time_estimate,
    integrate_radius,
    is_ancient,
    psi,
)

__version__ = "0.1.0"
