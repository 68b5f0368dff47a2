"""Composite audits: point origins, reflection rigidity, comparison arguments.

The central audit takes a trajectory claimed to emerge from a single point
and exercises the uniqueness mechanism end to end: an inscribed radius at
the reference time bounds the plane offsets, every audited plane acquires a
first-touch time, strict reflection must hold just after each touch and
persist to the end, and the frames must certify as round about the origin
point.  A genuine flow solution emerging from a point passes; an injected
non-round family fails the certificate stage, and the flow-law residual is
reported as the explanation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    EmptyTrajectory,
    NeverTouches,
    NoFramesPastTouch,
    NonConvexInput,
    NotApplicable,
    PreconditionFailed,
)
from .flow_engine import FlowResidual, Trajectory, flow_residual
from .hypersurface import (
    curvature_pinching_ratio,
    inner_outer_radii,
    signed_interior_distance,
    starshapedness_ratio,
)
from .reflection import (
    Hyperplane,
    ReflectionStatus,
    _direction_set,
    first_touch_time,
    strict_reflection_check,
    symmetry_certificate,
)
from .sphere_ode import initial_time_estimate, integrate_radius, is_ancient
from .speeds import SpeedFunction

# Reflection is checked at tau + {1, 2, 4} frame spacings: strictness just
# after touch may need a moment to exceed the mesh tolerance band.
POST_TOUCH_OFFSETS = (1, 2, 4)


@dataclass(frozen=True)
class PointOriginReport:
    """Containment audit against shrinking balls about a candidate point.

    For each radius the recorded time is the last frame that fits inside the
    ball (equivalently: scanning backward toward the initial time, the first
    fitting frame).  On an expansive trajectory containment holds from the
    start up to that time, so along a decreasing radius list the times are
    non-increasing.
    """

    y_infinity: np.ndarray
    radii_checked: tuple[float, ...]
    first_containment_times: tuple[float | None, ...]
    passed: bool

    def to_json_dict(self) -> dict:
        return {
            "schema_version": 1,
            "y_infinity": self.y_infinity.tolist(),
            "radii_checked": list(self.radii_checked),
            "first_containment_times": [
                t if t is not None else "not_found" for t in self.first_containment_times
            ],
            "passed": self.passed,
        }


def comes_out_of_point(traj: Trajectory, y_inf, radii) -> PointOriginReport:
    """Check that the trajectory fits in every ball B_r(y_inf) near its start."""
    if not traj.frames:
        raise EmptyTrajectory("trajectory has no frames")
    y_inf = np.asarray(y_inf, dtype=float)
    radii = [float(r) for r in radii]
    if any(r <= 0.0 for r in radii):
        raise ValueError("radii must be positive")
    if any(b >= a for a, b in zip(radii, radii[1:])):
        raise ValueError("radii must be strictly decreasing")

    reach = np.array(
        [float(np.max(np.linalg.norm(m.vertices - y_inf, axis=1))) for _, m in traj.frames]
    )
    times = traj.times()
    found: list[float | None] = []
    for r in radii:
        fits = np.nonzero(reach < r)[0]
        found.append(float(times[fits[-1]]) if fits.shape[0] > 0 else None)
    passed = all(t is not None for t in found)
    return PointOriginReport(
        y_infinity=y_inf,
        radii_checked=tuple(radii),
        first_containment_times=tuple(found),
        passed=passed,
    )


@dataclass(frozen=True)
class TauLimitReport:
    direction: np.ndarray
    offsets: tuple[float, ...]
    taus: tuple[float | None, ...]
    strictly_decreasing: bool
    passed: bool

    def to_json_dict(self) -> dict:
        return {
            "schema_version": 1,
            "direction": self.direction.tolist(),
            "offsets": list(self.offsets),
            "taus": [t if t is not None else "never_touches" for t in self.taus],
            "strictly_decreasing": self.strictly_decreasing,
            "passed": self.passed,
        }


def tau_limit_check(traj: Trajectory, direction, c_schedule) -> TauLimitReport:
    """First-touch times along a decreasing offset schedule for one direction.

    On a trajectory emerging from a point the touch times must decrease
    strictly toward the initial time as the plane offset shrinks.
    """
    direction = np.asarray(direction, dtype=float)
    cs = [float(c) for c in c_schedule]
    if any(b >= a for a, b in zip(cs, cs[1:])):
        raise ValueError("c_schedule must be strictly decreasing")
    taus: list[float | None] = []
    for c in cs:
        try:
            taus.append(first_touch_time(traj, Hyperplane(V=direction, c=c)))
        except NeverTouches:
            taus.append(None)
    got = [t for t in taus if t is not None]
    decreasing = all(b < a for a, b in zip(got, got[1:]))
    return TauLimitReport(
        direction=direction,
        offsets=tuple(cs),
        taus=tuple(taus),
        strictly_decreasing=decreasing,
        passed=decreasing and len(got) == len(cs),
    )


@dataclass(frozen=True)
class RigidityAuditReport:
    """Everything the rigidity audit measured, plus the overall verdict."""

    R_star: float
    tau_table: tuple[dict, ...]
    post_touch_verdicts: tuple[dict, ...]
    limit_symmetry: tuple[dict, ...]
    residual: FlowResidual | None
    origin_report: PointOriginReport
    overall: bool
    narrative: str

    def to_json_dict(self) -> dict:
        return {
            "schema_version": 1,
            "R_star": self.R_star,
            "tau_table": list(self.tau_table),
            "post_touch_verdicts": list(self.post_touch_verdicts),
            "limit_symmetry": list(self.limit_symmetry),
            "residual": None if self.residual is None else self.residual.to_json_dict(),
            "origin": self.origin_report.to_json_dict(),
            "overall": self.overall,
            "narrative": self.narrative,
        }


def rigidity_audit(
    traj: Trajectory,
    F: SpeedFunction,
    y_inf,
    directions=16,
    c_schedule=(0.4, 0.2, 0.1, 0.05),
    symmetry_tol: float | None = None,
    monitor_stride: int | None = None,
    symmetry_frames: int = 12,
) -> RigidityAuditReport:
    """Full reflection-rigidity audit of a trajectory emerging from a point.

    All stages run even after a failure so the report carries the complete
    evidence; the overall verdict is the conjunction.  The sphericity
    tolerance defaults to 5x the smallest audited offset, tightening as the
    audited planes approach the origin.
    """
    y_inf = np.asarray(y_inf, dtype=float)
    cs = sorted((float(c) for c in c_schedule), reverse=True)
    origin_report = comes_out_of_point(traj, y_inf, cs)
    if not origin_report.passed:
        raise PreconditionFailed(
            "trajectory does not come out of the candidate point; "
            f"missing radii {[r for r, t in zip(origin_report.radii_checked, origin_report.first_containment_times) if t is None]}"
        )

    t_last, M_last = traj.frames[-1]
    R_star = inner_outer_radii(M_last, center=y_inf).rho_minus
    bad = [c for c in cs if not (0.0 < c < R_star)]
    if bad:
        raise ValueError(f"offsets {bad} outside (0, R_star = {R_star:.6g})")

    dirs = _direction_set(traj.frames[0][1].dimension, directions)
    times = traj.times()
    frame_dt = float(np.median(np.diff(times))) if times.shape[0] > 1 else 0.0

    tau_table: list[dict] = []
    post_verdicts: list[dict] = []
    reflection_ok = True
    for V in dirs:
        for c in cs:
            plane = Hyperplane(V=V, c=c + float(V @ y_inf))
            try:
                tau = first_touch_time(traj, plane)
            except NeverTouches:
                tau_table.append({"direction": V.tolist(), "c": c, "tau": "never_touches"})
                reflection_ok = False
                continue
            tau_table.append({"direction": V.tolist(), "c": c, "tau": tau})
            entry = _post_touch_entry(traj, plane, tau, frame_dt, monitor_stride)
            entry["direction"] = V.tolist()
            entry["c"] = c
            post_verdicts.append(entry)
            reflection_ok = reflection_ok and entry["passed"]

    sym_rows, symmetry_ok = _symmetry_stage(
        traj, y_inf, dirs, symmetry_frames, symmetry_tol if symmetry_tol is not None else 5.0 * min(cs)
    )

    residual = None
    residual_note = ""
    try:
        residual = flow_residual(traj, F)
        residual_note = f"max flow-law residual {residual.overall_max:.4g}"
    except Exception as exc:  # registration breaks etc.; evidence stays optional
        residual_note = f"residual unavailable ({exc})"

    overall = reflection_ok and symmetry_ok
    narrative = _narrative(
        origin_report, R_star, reflection_ok, symmetry_ok, residual, residual_note, sym_rows
    )
    return RigidityAuditReport(
        R_star=R_star,
        tau_table=tuple(tau_table),
        post_touch_verdicts=tuple(post_verdicts),
        limit_symmetry=tuple(sym_rows),
        residual=residual,
        origin_report=origin_report,
        overall=overall,
        narrative=narrative,
    )


def _post_touch_entry(
    traj: Trajectory, plane: Hyperplane, tau: float, frame_dt: float, stride: int | None
) -> dict:
    frames_after = traj.frames_from(tau)
    if not frames_after:
        raise NoFramesPastTouch(f"no frames at or after tau = {tau}")
    probe_statuses = []
    start_t = None
    for k in POST_TOUCH_OFFSETS:
        t_probe, M_probe = traj.frame_near(tau + k * frame_dt)
        if t_probe < tau:
            continue
        verdict = strict_reflection_check(M_probe, plane)
        probe_statuses.append({"t": t_probe, "status": verdict.status.value})
        if verdict.status is ReflectionStatus.STRICT and start_t is None:
            start_t = t_probe
    if start_t is None:
        return {
            "tau": tau,
            "probes": probe_statuses,
            "passed": False,
            "failure": "no strict verdict just above the touch time",
        }
    frames = traj.frames_from(start_t)
    step_by = stride if stride is not None else max(1, len(frames) // 32)
    picked = frames[::step_by]
    if picked[-1][0] != frames[-1][0]:
        picked.append(frames[-1])
    fail_at = None
    for t, M in picked:
        v = strict_reflection_check(M, plane)
        if v.status in (ReflectionStatus.FAILS, ReflectionStatus.VACUOUS):
            fail_at = {"t": t, "status": v.status.value, "inclusion_margin": v.inclusion_margin}
            break
    return {
        "tau": tau,
        "probes": probe_statuses,
        "strict_from": start_t,
        "monitored_frames": len(picked),
        "passed": fail_at is None,
        "failure": fail_at,
    }


def _symmetry_stage(traj, y_inf, dirs, frame_count, tol):
    idx = np.unique(
        np.linspace(0, len(traj.frames) - 1, min(frame_count, len(traj.frames))).astype(int)
    )
    rows = []
    ok = True
    for i in idx:
        t, M = traj.frames[int(i)]
        outcome = symmetry_certificate(M, y_inf, directions=dirs, tol=tol)
        rows.append({"t": t, **outcome.to_json_dict()})
        ok = ok and outcome.spherical
    return rows, ok


def _narrative(origin_report, R_star, reflection_ok, symmetry_ok, residual, residual_note, sym_rows):
    parts = [
        f"origin containment passed for radii {list(origin_report.radii_checked)}",
        f"inscribed radius at the reference frame R_star = {R_star:.6g}",
        "post-touch reflection: " + ("all planes strict and preserved" if reflection_ok else "FAILED"),
    ]
    if symmetry_ok:
        final_dev = sym_rows[-1]["deviation"]
        parts.append(f"sphericity certified at every sampled frame (final deviation {final_dev:.3g})")
    else:
        worst = max(sym_rows, key=lambda r: r["deviation"])
        parts.append(
            f"sphericity FAILED at t = {worst['t']:.6g} (deviation {worst['deviation']:.3g}, "
            f"witness {worst['witness_direction']})"
        )
        if residual is not None and residual.overall_max > 0.1:
            parts.append(
                f"explanation: {residual_note}; the family does not solve the flow, "
                "so non-roundness does not contradict uniqueness of round solutions"
            )
    if residual is not None and residual.overall_max <= 0.1:
        parts.append(residual_note)
    return "; ".join(parts)


# ---------------------------------------------------------------------------
# Comparison argument against claimed ancient trajectories


@dataclass(frozen=True)
class NonexistenceOutcome:
    status: str  # "consistent" or "contradiction"
    witness: dict | None

    @property
    def contradiction(self) -> bool:
        return self.status == "contradiction"

    def to_json_dict(self) -> dict:
        return {"schema_version": 1, "status": self.status, "witness": self.witness}


def ancient_nonexistence_check(F: SpeedFunction, traj: Trajectory) -> NonexistenceOutcome:
    """Comparison-sphere audit of a trajectory claimed to be ancient.

    Applies only to speeds whose round solutions are born at a finite time.
    The inradius at the final time determines a round solution and its birth
    time T_S; if the trajectory claims frames at or before T_S, the ball it
    encloses there is grown by the radius ODE and must stay inside, yet by
    construction its final radius exceeds the inradius.  Reporting that
    excess is the contradiction: no genuine solution can have such frames.
    """
    verdict = is_ancient(F)
    if verdict.is_ancient:
        raise NotApplicable(
            f"{F.name} admits ancient round solutions; the comparison argument needs a finite birth time"
        )
    if not traj.frames:
        raise EmptyTrajectory("trajectory has no frames")

    T, M_T = traj.frames[-1]
    rr_T = inner_outer_radii(M_T)
    T_S = initial_time_estimate(F, rr_T.rho_minus, T)

    early = [(t, M) for t, M in traj.frames if t <= T_S + 1e-12]
    if not early:
        return NonexistenceOutcome(
            status="consistent",
            witness={
                "note": "trajectory does not extend to the round solution's birth time",
                "T_S": T_S,
                "rho_minus_final": rr_T.rho_minus,
            },
        )

    t_b, M_b = early[-1]
    rr_b = inner_outer_radii(M_b)
    comparison = integrate_radius(F, rr_b.rho_minus, t_b, T, dt=min(1e-3, (T - t_b) / 100.0))
    r_final = comparison.radius_at(T)

    enclosure_break = None
    for t, M in traj.frames:
        if t < t_b or t > T:
            continue
        # the comparison sphere about the early center must fit inside M_t
        r_t = comparison.radius_at(t)
        d = float(signed_interior_distance(M, rr_b.center[None, :])[0])
        if d < r_t:
            enclosure_break = {"t": t, "sphere_radius": r_t, "interior_depth": d}
            break

    if r_final > rr_T.rho_minus * (1.0 + 1e-9):
        return NonexistenceOutcome(
            status="contradiction",
            witness={
                "T_S": T_S,
                "claimed_frame_time": t_b,
                "enclosed_radius_there": rr_b.rho_minus,
                "comparison_radius_final": r_final,
                "rho_minus_final": rr_T.rho_minus,
                "enclosure_break": enclosure_break,
            },
        )
    return NonexistenceOutcome(
        status="consistent",
        witness={"comparison_radius_final": r_final, "rho_minus_final": rr_T.rho_minus},
    )


# ---------------------------------------------------------------------------
# Pinching and star-shapedness diagnostics


@dataclass(frozen=True)
class PinchingReport:
    rows: tuple[dict, ...]
    inf_radius_ratio: float
    inf_curvature_ratio: float | None
    inf_starshapedness: float
    uniform_radius: bool
    uniform_curvature: bool
    uniform_starshapedness: bool
    origin_check: PointOriginReport | None

    def to_json_dict(self) -> dict:
        return {
            "schema_version": 1,
            "rows": list(self.rows),
            "infima": {
                "radius_ratio": self.inf_radius_ratio,
                "curvature_ratio": self.inf_curvature_ratio,
                "starshapedness": self.inf_starshapedness,
            },
            "uniform": {
                "radius_ratio": self.uniform_radius,
                "curvature_ratio": self.uniform_curvature,
                "starshapedness": self.uniform_starshapedness,
            },
            "origin_check": None if self.origin_check is None else self.origin_check.to_json_dict(),
        }


def pinching_diagnostics(
    traj: Trajectory, y_inf, threshold: float = 0.01
) -> PinchingReport:
    """Per-frame inradius/circumradius, curvature pinching and star-shapedness.

    Each ratio is scale free, so a uniform positive infimum along a family
    shrinking backward in time forces the family into arbitrarily small
    balls; when any ratio is uniform (> threshold) and the early frames are
    small, the point-origin audit runs as confirmation.
    """
    if not traj.frames:
        raise EmptyTrajectory("trajectory has no frames")
    y_inf = np.asarray(y_inf, dtype=float)
    rows = []
    for t, M in traj.frames:
        rr = inner_outer_radii(M, center=y_inf)
        try:
            pinch = curvature_pinching_ratio(M)
        except NonConvexInput:
            pinch = None
        star = starshapedness_ratio(M, y_inf)
        rows.append(
            {
                "t": t,
                "radius_ratio": rr.rho_minus / rr.rho_plus,
                "curvature_ratio": pinch,
                "starshapedness": star,
                "rho_plus": rr.rho_plus,
            }
        )
    inf_rr = min(r["radius_ratio"] for r in rows)
    pinches = [r["curvature_ratio"] for r in rows]
    inf_cr = None if any(p is None for p in pinches) else min(pinches)
    inf_st = min(r["starshapedness"] for r in rows)
    uniform_rr = inf_rr > threshold
    uniform_cr = inf_cr is not None and inf_cr > threshold
    uniform_st = inf_st > threshold

    origin_check = None
    shrinks = rows[0]["rho_plus"] <= 0.5 * rows[-1]["rho_plus"]
    if (uniform_rr or uniform_cr or uniform_st) and shrinks:
        r_hi = 2.0 * rows[-1]["rho_plus"]
        r_lo = 2.0 * rows[0]["rho_plus"]
        radii = np.geomspace(r_hi, r_lo, 3)
        origin_check = comes_out_of_point(traj, y_inf, radii)
    return PinchingReport(
        rows=tuple(rows),
        inf_radius_ratio=inf_rr,
        inf_curvature_ratio=inf_cr,
        inf_starshapedness=inf_st,
        uniform_radius=uniform_rr,
        uniform_curvature=uniform_cr,
        uniform_starshapedness=uniform_st,
        origin_check=origin_check,
    )
