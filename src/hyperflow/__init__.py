"""Toolkit for expanding curvature flows of closed hypersurfaces.

Surfaces move outward with normal speed 1/F for a positive, monotone,
symmetric function F of the principal curvatures.  The package simulates the
flow on discrete curves and meshes, integrates the exact round solutions,
classifies which speeds admit solutions with unbounded past, and audits
trajectories that emerge from a point with moving-plane reflection checks
and sphericity certificates.
"""

from .errors import HyperflowError
from .flow_engine import FlowConfig, Trajectory, evolve, flow_residual
from .hypersurface import (
    Containment,
    CurvatureData,
    DiscreteHypersurface,
    RadiiReport,
    contains_point,
    enclosed_volume,
    inner_outer_radii,
    read_surface,
    write_surface,
)
from .reflection import (
    Hyperplane,
    ReflectionStatus,
    ReflectionVerdict,
    SymmetryOutcome,
    first_touch_time,
    strict_reflection_check,
    symmetry_certificate,
)
from .rigidity import (
    PointOriginReport,
    RigidityAuditReport,
    comes_out_of_point,
    rigidity_audit,
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
