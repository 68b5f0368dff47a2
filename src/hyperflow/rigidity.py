"""Composite audits: point origins, first-touch limits and reflection rigidity.

The central audit takes a trajectory claimed to emerge from a single point
and exercises the uniqueness mechanism end to end: an inscribed radius at
the reference time bounds the plane offsets, every audited plane acquires a
first-touch time, strict reflection must hold just after each touch and
persist to the end, and the frames after the touch times must be round about
the origin point within the bound that reflection implies.  A genuine flow
solution emerging from a point passes; an injected non-round family fails
the sphericity stage, and the flow-law residual is reported as the
explanation.  The residual is reported, not gated.

Every touch time is the solve of ``first_touch_time`` on one support table
of all directions, built in one pass over the frames.  The post-touch stage
is one walk over the frames in time order, the one ``monitor_reflection``
runs for a single plane: the probes and the monitoring of every plane share
it, the planes due at a frame share one batched reflection kernel call, and
no plane is judged twice at a frame, so each frame builds its distance
tables once.

The sphericity bound is the moving-plane lemma (Chow & Gulliver,
"Aleksandrov reflection and geometric evolution of hypersurfaces", 2001):
a body that reflects into itself across every plane at offset >= c from y
has rho_plus - rho_minus <= 2c about y.  Touch times fall as the offset
shrinks, so from the latest touch time at the smallest audited offset
c_min on, every audited plane at offset >= c_min has touched or is vacuous,
and each sampled frame from there to the end is held to 2 c_min.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CenterOutside, EmptyTrajectory, HyperflowError, PreconditionFailed
from .flow_engine import FlowResidual, Trajectory, _heights, flow_residual
from .geometry import fibonacci_sphere_directions, uniform_circle_directions
from .hypersurface import inner_outer_radii
from .reflection import Hyperplane, ReflectionStatus, _touch_time, _walk, symmetry_certificate
from .speeds import SpeedFunction

# Reflection is checked at tau + {1, 2, 4} spacings of the frame bracket that
# holds tau: strictness just after touch may need a moment to exceed the mesh
# tolerance band.
POST_TOUCH_OFFSETS = (1, 2, 4)
SYMMETRY_FRAMES = 12  # evenly spaced frames after the touch times, certified round


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
    n = traj.frames[0][1].dimension + 1
    if y_inf.shape != (n,) or not np.all(np.isfinite(y_inf)):
        raise ValueError(f"y_inf must be a finite point with {n} components, got {y_inf.tolist()}")
    radii = _radii(radii)

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


def _radii(radii) -> list[float]:
    """The radii as floats, checked to be positive and strictly decreasing."""
    radii = [float(r) for r in radii]
    # written so that NaN fails every rule
    if not radii:
        raise ValueError("radii must be a non-empty list")
    if not all(r > 0.0 for r in radii):
        raise ValueError("radii must be positive")
    if not all(b < a for a, b in zip(radii, radii[1:])):
        raise ValueError("radii must be strictly decreasing")
    return radii


def _direction_set(dimension: int, directions: int | np.ndarray) -> np.ndarray:
    """Unit plane normals: a count spread evenly, or the given unit rows.

    Given rows are checked, not normalised: planes sit at offsets
    c + v . y_inf, which only holds for unit v.
    """
    if isinstance(directions, (int, np.integer)):
        if directions < 1:
            raise ValueError(f"need at least 1 direction, got {directions}")
        if dimension == 1:
            return uniform_circle_directions(int(directions))
        return fibonacci_sphere_directions(int(directions))
    dirs = np.atleast_2d(np.asarray(directions, dtype=float))
    if dirs.shape[0] == 0:
        raise ValueError("need at least 1 direction, got none")
    if dirs.ndim != 2 or dirs.shape[1] != dimension + 1:
        raise ValueError(
            f"directions have {dirs.shape[-1]} components, but the surface lies in {dimension + 1} dimensions"
        )
    if np.any(np.abs(np.linalg.norm(dirs, axis=1) - 1.0) > 1e-9):
        raise ValueError("directions must be unit vectors")
    return dirs


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
    supports = traj.support_series(Hyperplane(V=direction, c=0.0).V)
    cs = [float(c) for c in c_schedule]
    if any(b >= a for a, b in zip(cs, cs[1:])):
        raise ValueError("c_schedule must be strictly decreasing")
    taus = [_touch_time(traj, supports, Hyperplane(V=direction, c=c)) for c in cs]
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
) -> RigidityAuditReport:
    """Full reflection-rigidity audit of a trajectory emerging from a point.

    All stages run even after a failure so the report carries the complete
    evidence; the overall verdict is the conjunction of the reflection and
    sphericity stages.  The sphericity bound is 2 min(c_schedule), by the
    moving-plane lemma.
    """
    try:  # the schedule's offsets are the radii checked
        cs = _radii(c_schedule)
    except ValueError as exc:
        raise ValueError(f"c_schedule: {exc}") from exc
    origin_report = comes_out_of_point(traj, y_inf, cs)
    y_inf = origin_report.y_infinity
    if not origin_report.passed:
        raise PreconditionFailed(
            "trajectory does not come out of the candidate point; "
            f"missing radii {[r for r, t in zip(origin_report.radii_checked, origin_report.first_containment_times) if t is None]}"
        )

    t_last, M_last = traj.frames[-1]
    try:
        R_star = inner_outer_radii(M_last, center=y_inf).rho_minus
    except CenterOutside as exc:
        raise PreconditionFailed(
            f"the last frame, at t = {t_last}, does not contain the candidate point {y_inf.tolist()}"
        ) from exc
    bad = [c for c in cs if not (0.0 < c < R_star)]
    if bad:
        raise ValueError(f"offsets {bad} outside (0, R_star = {R_star:.6g})")

    dirs = _direction_set(traj.frames[0][1].dimension, directions)
    times = traj.times()

    tau_table: list[dict] = []
    touched: list[tuple[Hyperplane, list, float, float]] = []  # (plane, direction, c, tau)
    reflection_ok = True
    # one pass over the frames gives every direction's support series
    rows = np.array([Hyperplane(V=V, c=0.0).V for V in dirs]).reshape(dirs.shape)
    supports = traj.support_series(rows)
    for V, column in zip(dirs, supports.T):
        for c in cs:
            plane = Hyperplane(V=V, c=c + float(_heights(y_inf, V)))
            tau = _touch_time(traj, column, plane)
            if tau is None:
                tau_table.append({"direction": V.tolist(), "c": c, "tau": "never_touches"})
                reflection_ok = False
                continue
            tau_table.append({"direction": V.tolist(), "c": c, "tau": tau})
            touched.append((plane, V.tolist(), c, tau))
    post_verdicts = _post_touch_stage(traj, times, touched)
    reflection_ok = reflection_ok and all(row["passed"] for row in post_verdicts)

    # every direction touches at min(c) < R_star; from the latest of those
    # touches on, each audited plane at offset >= min(c) has touched or is vacuous
    bound = 2.0 * cs[-1]
    late = max(tau for _, _, c, tau in touched if c == cs[-1])
    sym_rows, symmetry_ok = _symmetry_stage(traj, times, y_inf, late, bound)

    residual = None
    residual_note = ""
    try:
        residual = flow_residual(traj, F)
        residual_note = f"max flow-law residual {residual.overall_max:.4g}"
    except HyperflowError as exc:  # e.g. frames that do not correspond; evidence stays optional
        residual_note = f"residual unavailable ({exc})"

    overall = reflection_ok and symmetry_ok
    narrative = _narrative(
        origin_report, R_star, reflection_ok, symmetry_ok, residual, residual_note, sym_rows, bound
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


def _post_touch_stage(
    traj: Trajectory,
    times: np.ndarray,
    touched: list[tuple[Hyperplane, list, float, float]],
) -> list[dict]:
    """Post-touch rows of the touched planes, from one walk over the frames.

    Each plane is probed at the frames nearest tau + POST_TOUCH_OFFSETS
    spacings of the frame bracket that holds tau, keeping those that are not
    before tau, so a grid whose spacing varies still probes past tau.  Its
    first strict probe starts its monitoring, at a stride that samples about
    32 of the frames from there on.  ``reflection._walk`` runs the probes
    and the monitoring of every plane together: the planes due at a frame
    share one verdict kernel call there.
    """
    probes = []
    for _, _, _, tau in touched:
        j = int(np.clip(np.searchsorted(times, tau), 1, times.shape[0] - 1))
        steps = np.array(POST_TOUCH_OFFSETS) * (times[j] - times[j - 1])
        nearest = np.abs(times[None, :] - (tau + steps)[:, None]).argmin(axis=1).tolist()
        probes.append([f for f in nearest if times[f] >= tau])
    walked = _walk(traj, [plane for plane, _, _, _ in touched], probes,
                   lambda f: max(1, (times.shape[0] - f) // 32))

    rows = []
    for (_, direction, c, tau), probe_frames, (probed, run) in zip(touched, probes, walked):
        row = {
            "tau": tau,
            "probes": [{"t": traj.frames[f][0], "status": v.status.value} for f, v in zip(probe_frames, probed)],
        }
        if run:
            t, last = run[-1]
            fail_at = None
            if last.status in (ReflectionStatus.FAILS, ReflectionStatus.VACUOUS):
                fail_at = {"t": t, "status": last.status.value, "inclusion_margin": last.inclusion_margin}
            row.update(strict_from=run[0][0], monitored_frames=len(run), passed=fail_at is None, failure=fail_at)
        else:
            row.update(passed=False, failure="no strict verdict just above the touch time")
        row.update(direction=direction, c=c)
        rows.append(row)
    return rows


def _symmetry_stage(traj, times, y_inf, late, bound):
    """Certificates of up to SYMMETRY_FRAMES frames, evenly spaced from the
    first frame at or after ``late`` through the last frame."""
    first = int(np.searchsorted(times, late - 1e-12))
    last = times.shape[0] - 1
    idx = np.unique(np.linspace(first, last, min(SYMMETRY_FRAMES, last - first + 1)).astype(int))
    rows = []
    ok = True
    for i in idx:
        t, M = traj.frames[int(i)]
        outcome = symmetry_certificate(M, y_inf, tol=bound)
        rows.append({"t": t, **outcome.to_json_dict()})
        ok = ok and outcome.spherical
    return rows, ok


def _narrative(origin_report, R_star, reflection_ok, symmetry_ok, residual, residual_note, sym_rows, bound):
    parts = [
        f"origin containment passed for radii {list(origin_report.radii_checked)}",
        f"inscribed radius at the reference frame R_star = {R_star:.6g}",
        "post-touch reflection: " + ("all planes strict and preserved" if reflection_ok else "FAILED"),
    ]
    if symmetry_ok:
        final_dev = sym_rows[-1]["deviation"]
        parts.append(
            f"sphericity within bound {bound:.3g} at every sampled frame after the touch times "
            f"(final deviation {final_dev:.3g})"
        )
    else:
        worst = max((r for r in sym_rows if not r["spherical"]), key=lambda r: r["spread"])
        where = "" if worst["center_inside"] else ", center outside"
        parts.append(
            f"sphericity FAILED at t = {worst['t']:.6g} (spread {worst['spread']:.3g} against bound "
            f"{bound:.3g}{where}, witness {worst['witness_direction']})"
        )
    if not symmetry_ok and residual is not None and residual.overall_max > 0.1:
        parts.append(
            f"explanation: {residual_note}; the family does not solve the flow, "
            "so non-roundness does not contradict uniqueness of round solutions"
        )
    else:
        parts.append(residual_note)
    return "; ".join(parts)
