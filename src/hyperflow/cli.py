"""Command-line front end: reproducible runs with artifacts on disk.

Configuration is a flat key = value text file; ``--set key=value`` flags
override file keys and the fully resolved configuration is echoed into the
output directory, so re-running the echoed file reproduces the artifacts
byte for byte (a fixed seed covers the one sampled subsystem).

Exit codes: 0 pass, 1 usage/config error, 2 audit failure, 3 numerical
failure (cone exit, mesh degeneracy, failed preconditions).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from contextlib import contextmanager
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Callable

import numpy as np

from . import families, flow_engine, reflection, rigidity, shapes, sphere_ode, speeds
from .errors import (
    ConeExit,
    ConfigError,
    CurvatureOutsideCone,
    DegenerateElement,
    HyperflowError,
    IndeterminateDivergence,
    MeshDegeneracy,
    NoFramesPastTouch,
    NonFiniteState,
    NonPositiveSpeed,
    ParseError,
    PreconditionFailed,
    ValidationError,
)
from .hypersurface import (
    DiscreteHypersurface,
    enclosed_volume,
    inner_outer_radii,
    read_surface,
    write_surface,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_AUDIT = 2
EXIT_NUMERIC = 3

COMMANDS = ("simulate", "sphere-ode", "classify-speed", "reflect-audit", "rigidity-audit")


@dataclass
class RunConfig:
    """Fully resolved options for one run; unknown keys are rejected upstream."""

    command: str
    out_dir: str
    seed: int = 0
    speed: str = "k"
    alpha: float | None = None
    dimension: int = 1
    shape: str = "circle"
    radius: float = 1.0
    axes: tuple[float, ...] | None = None
    resolution: int = 256
    subdivisions: int = 4
    mesh_file: str | None = None
    t0: float = 0.0
    t_end: float = 1.0
    dt: float | None = None
    cfl: float = 0.2
    scheme: str = "rk4"
    frame_interval: float = 0.01
    remesh: bool = False
    band_lo: float | None = None
    band_hi: float | None = None
    stop_on_cone_exit: bool = True
    r0: float = 1.0
    family: str = "sphere"
    frame_dt: float = 0.01
    rates: tuple[float, ...] = (1.0, 2.0)
    directions: int = 16
    c_schedule: tuple[float, ...] = (0.4, 0.2, 0.1, 0.05)
    symmetry_tol: float | None = None
    plane_direction: tuple[float, ...] = (1.0, 0.0)
    plane_offsets: tuple[float, ...] = (0.5,)
    tol: float | None = None


_COMMON_KEYS = {"out_dir", "seed"}
_COMMAND_KEYS: dict[str, set[str]] = {
    "simulate": _COMMON_KEYS
    | {
        "speed", "alpha", "shape", "radius", "axes", "resolution", "subdivisions",
        "mesh_file", "t0", "t_end", "dt", "cfl", "scheme", "frame_interval",
        "remesh", "band_lo", "band_hi", "stop_on_cone_exit",
    },
    "sphere-ode": _COMMON_KEYS | {"speed", "alpha", "dimension", "r0", "t0", "t_end", "dt"},
    "classify-speed": _COMMON_KEYS | {"speed", "alpha", "dimension"},
    "reflect-audit": _COMMON_KEYS
    | {
        "shape", "radius", "axes", "resolution", "subdivisions", "mesh_file",
        "plane_direction", "plane_offsets", "tol",
    },
    "rigidity-audit": _COMMON_KEYS
    | {
        "family", "dimension", "t0", "t_end", "frame_dt", "resolution", "rates",
        "speed", "alpha", "directions", "c_schedule", "symmetry_tol",
    },
}

_TUPLE_KEYS = {"axes", "rates", "c_schedule", "plane_direction", "plane_offsets"}


def _parse_scalar(raw: str):
    s = raw.strip()
    if s.lower() == "true":
        return True
    if s.lower() == "false":
        return False
    if "," in s:
        return tuple(_parse_scalar(p) for p in s.split(",") if p.strip())
    try:
        return int(s)
    except ValueError:
        pass
    try:
        return float(s)
    except ValueError:
        pass
    return s


def read_config_file(path) -> dict:
    """Read a flat key = value configuration file."""
    path = Path(path)
    if not path.exists():
        raise ValidationError(f"config file does not exist: {path}")
    out: dict = {}
    for lineno, raw in enumerate(path.read_text().splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ParseError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if not key:
            raise ParseError(f"{path}:{lineno}: empty key")
        out[key] = _parse_scalar(value)
    return out


def _coerce(key: str, value):
    if key in _TUPLE_KEYS and not isinstance(value, tuple):
        value = (value,)
    if key in _TUPLE_KEYS:
        return tuple(float(v) for v in value)
    return value


def parse_config(command: str, file_values: dict, overrides: dict) -> RunConfig:
    """Merge file values and flag overrides into a validated RunConfig."""
    if command not in COMMANDS:
        raise ValidationError(f"unknown command {command!r}")
    allowed = _COMMAND_KEYS[command]
    merged = dict(file_values)
    merged.update(overrides)
    unknown = sorted(set(merged) - allowed)
    if unknown:
        raise ValidationError(f"unknown keys for {command}: {', '.join(unknown)}")
    if "out_dir" not in merged:
        raise ValidationError("out_dir is required (use --out or the out_dir key)")
    kwargs = {k: _coerce(k, v) for k, v in merged.items()}
    try:
        cfg = RunConfig(command=command, **kwargs)
    except TypeError as exc:
        raise ValidationError(str(exc)) from exc
    _validate(cfg)
    return cfg


_SHAPES = ("circle", "ellipse", "square", "icosphere", "ellipsoid", "mesh")
_AXES_COUNT = {"ellipse": 2, "ellipsoid": 3}

# Checks that only the CLI can make, keyed by the config key they read; a
# rule runs for every command that takes its key.  Value rules that a library
# constructor owns (FlowConfig, speed_by_name, integrate_radius, the shapes,
# the families, the audits) stay there, and main reports their ValueError as
# a config error.  Messages are formatted with the config's fields.
_RULES: dict[str, tuple[Callable[[RunConfig], bool], str]] = {
    "seed": (lambda c: isinstance(c.seed, int) and c.seed >= 0, "seed must be a non-negative integer"),
    # power speeds check their own alpha; the others ignore it
    "alpha": (
        lambda c: c.alpha is None or c.alpha > 0 or c.speed.strip().lower() in speeds._POWER_NAMES,
        "alpha must be > 0, got {alpha}",
    ),
    "shape": (lambda c: c.shape in _SHAPES, "unknown shape {shape!r}"),
    "axes": (
        lambda c: c.shape not in _AXES_COUNT or len(c.axes or ()) == _AXES_COUNT[c.shape],
        "shape = {shape} needs one semi-axis per coordinate in axes",
    ),
    "mesh_file": (lambda c: c.shape != "mesh" or c.mesh_file is not None, "shape = mesh requires mesh_file"),
    "subdivisions": (lambda c: 0 <= c.subdivisions <= 6, "subdivisions must lie in [0, 6]"),
    "dimension": (lambda c: c.dimension in (1, 2), "dimension must be 1 or 2"),
    # dimension keeps its default 1 for the commands that do not take it
    "resolution": (
        lambda c: c.dimension == 1 or 0 <= c.resolution <= 6,
        "with dimension = 2, resolution is the icosphere subdivision level and must lie in [0, 6]",
    ),
    "family": (lambda c: c.family in ("sphere", "ellipse"), "unknown family {family!r}"),
    "frame_dt": (lambda c: c.frame_dt > 0, "frame_dt must be positive"),
    "directions": (lambda c: c.directions >= 2, "need at least 2 directions"),
    "c_schedule": (
        lambda c: len(c.c_schedule) >= 1 and all(b < a for a, b in zip(c.c_schedule, c.c_schedule[1:])),
        "c_schedule must be a non-empty, strictly decreasing list",
    ),
    "plane_offsets": (lambda c: len(c.plane_offsets) >= 1, "at least one plane offset required"),
}


def _validate(cfg: RunConfig) -> None:
    keys = _COMMAND_KEYS[cfg.command]
    for key, (ok, message) in _RULES.items():
        if key in keys and not ok(cfg):
            raise ValidationError(message.format(**vars(cfg)))


# ---------------------------------------------------------------------------
# Artifact helpers


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)  # shortest exact round-trip, keeps the decimal point
    if isinstance(value, tuple):
        return ", ".join(_fmt(v) for v in value)
    return str(value)


def write_resolved_config(cfg: RunConfig, path: Path) -> None:
    lines = [f"# resolved configuration for '{cfg.command}'"]
    for f in fields(cfg):
        if f.name == "command":
            continue
        if f.name not in _COMMAND_KEYS[cfg.command]:
            continue
        value = getattr(cfg, f.name)
        if value is None:
            continue
        lines.append(f"{f.name} = {_fmt(value)}")
    path.write_text("\n".join(lines) + "\n")


@contextmanager
def _output_dir(cfg: RunConfig):
    """Lock the output directory and echo the resolved configuration into it."""
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    lock = out / ".lock"
    try:
        fd = os.open(lock, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        os.close(fd)
    except FileExistsError:
        raise ValidationError(f"output directory is locked by another run: {lock}")
    try:
        write_resolved_config(cfg, out / "resolved_config.cfg")
        yield out
    finally:
        lock.unlink(missing_ok=True)


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _write_csv(path: Path, header: list[str], rows: list[list[float]]) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(f"{v:.17g}" if isinstance(v, float) else str(v) for v in row))
    path.write_text("\n".join(lines) + "\n")


def _build_shape(cfg: RunConfig) -> DiscreteHypersurface:
    if cfg.shape == "circle":
        return shapes.circle_polygon(cfg.radius, cfg.resolution)
    if cfg.shape == "ellipse":
        return shapes.ellipse_polygon(*cfg.axes, cfg.resolution)
    if cfg.shape == "square":
        return shapes.square_polygon(2.0 * cfg.radius, per_side=max(1, cfg.resolution // 4))
    if cfg.shape == "icosphere":
        return shapes.icosphere(cfg.radius, cfg.subdivisions)
    if cfg.shape == "ellipsoid":
        return shapes.ellipsoid_mesh(*cfg.axes, cfg.subdivisions)
    try:
        return read_surface(cfg.mesh_file)
    except (OSError, ValueError) as exc:
        raise ValidationError(f"mesh file {cfg.mesh_file}: {exc}") from exc


def _ancientness(F: speeds.SpeedFunction) -> dict:
    try:
        return sphere_ode.is_ancient(F).to_json_dict()
    except IndeterminateDivergence as exc:
        return {"schema_version": 1, "verdict": "indeterminate", "detail": str(exc)}


# ---------------------------------------------------------------------------
# Command implementations (each returns an exit code).  A runner computes its
# results before it opens the output directory, so input that the library
# rejects leaves no directory behind.


def _run_simulate(cfg: RunConfig) -> int:
    M0 = _build_shape(cfg)
    n = M0.dimension
    F = speeds.speed_by_name(cfg.speed, n, cfg.alpha)
    band = (cfg.band_lo, cfg.band_hi) if cfg.band_lo is not None and cfg.band_hi is not None else None
    flow_cfg = flow_engine.FlowConfig(
        t_end=cfg.t_end,
        dt=cfg.dt,
        cfl=cfg.cfl,
        scheme=cfg.scheme,
        frame_interval=cfg.frame_interval,
        remesh=cfg.remesh,
        band=band,
        stop_on_cone_exit=cfg.stop_on_cone_exit,
    )
    traj = flow_engine.evolve(M0, F, cfg.t0, flow_cfg)
    with _output_dir(cfg) as out:
        frames_dir = out / "frames"
        frames_dir.mkdir(exist_ok=True)
        ext = "txt" if n == 1 else "obj"
        index_rows = []
        diag_rows = []
        for i, (t, M) in enumerate(traj.frames):
            fname = f"frame_{i:06d}.{ext}"
            write_surface(M, frames_dir / fname)
            index_rows.append({"t": t, "file": f"frames/{fname}"})
            centroid = M.vertices.mean(axis=0)
            rr = inner_outer_radii(M, center=centroid)
            lam = M.curvature_data.principal
            lens = M.edge_lengths
            diag_rows.append(
                [t, enclosed_volume(M), rr.rho_minus, rr.rho_plus,
                 float(lam.min()), float(lam.max()), float(lens.min()), float(lens.max())]
            )
        _write_json(out / "index.json", {
            "schema_version": 1,
            "speed": F.name,
            "t0": traj.t0,
            "t1": traj.t1,
            "frames": index_rows,
            "events": traj.events,
        })
        header = ["t", "volume", "rho_minus", "rho_plus", "lambda_min", "lambda_max", "h_min", "h_max"]
        _write_csv(out / "diagnostics.csv", header, diag_rows)
        _write_json(out / "diagnostics_schema.json", {
            "schema_version": 1,
            "columns": {
                "t": "frame time",
                "volume": "enclosed area (n=1) or volume (n=2)",
                "rho_minus": "inradius about the vertex centroid",
                "rho_plus": "circumradius about the vertex centroid",
                "lambda_min": "smallest principal curvature over vertices",
                "lambda_max": "largest principal curvature over vertices",
                "h_min": "shortest edge",
                "h_max": "longest edge",
            },
        })
        (out / "run.log").write_text(
            f"simulate: {len(traj.frames)} frames on [{traj.t0}, {traj.t1}], "
            f"{len(traj.events)} events\n"
        )
    return EXIT_OK


def _run_sphere_ode(cfg: RunConfig) -> int:
    F = speeds.speed_by_name(cfg.speed, cfg.dimension, cfg.alpha)
    flow = sphere_ode.integrate_radius(F, cfg.r0, cfg.t0, cfg.t_end, 1e-3 if cfg.dt is None else cfg.dt)
    verdict = _ancientness(F)
    with _output_dir(cfg) as out:
        _write_csv(out / "radius.csv", ["t", "r"], [[float(t), float(r)] for t, r in flow.samples])
        _write_json(out / "ancientness.json", verdict)
        (out / "run.log").write_text(
            f"sphere-ode: {flow.samples.shape[0]} samples, final radius {flow.samples[-1, 1]:.17g}\n"
        )
    return EXIT_OK


def _run_classify_speed(cfg: RunConfig) -> int:
    F = speeds.speed_by_name(cfg.speed, cfg.dimension, cfg.alpha)
    plan = speeds.SamplePlan(seed=cfg.seed)
    report = speeds.check_admissibility(F, plan)
    try:
        degree = speeds.homogeneity_degree(F)
    except HyperflowError:
        degree = None
    ancient = _ancientness(F)
    with _output_dir(cfg) as out:
        _write_json(out / "classification.json", {
            "schema_version": 1,
            "speed": F.name,
            "admissibility": report.to_json_dict(),
            "homogeneity": degree,
            "ancientness": ancient,
        })
    print(f"{F.name}: admissibility {'pass' if report.passed else 'FAIL'} (sampled), "
          f"ancientness {ancient['verdict']}")
    return EXIT_OK


def _run_reflect_audit(cfg: RunConfig) -> int:
    M = _build_shape(cfg)
    verdicts = []
    all_strict = True
    for c in cfg.plane_offsets:
        plane = reflection.Hyperplane(V=np.asarray(cfg.plane_direction, dtype=float), c=float(c))
        v = reflection.strict_reflection_check(M, plane, tol=cfg.tol)
        strict = v.status is reflection.ReflectionStatus.STRICT
        all_strict = all_strict and strict
        pretty_v = "(" + ", ".join(f"{x:g}" for x in plane.V) + ")"
        print(f"{'PASS' if strict else 'FAIL'} plane V={pretty_v} c={c:g}: {v.status.value} "
              f"(inclusion margin {v.inclusion_margin:.3e})")
        verdicts.append({"c": float(c), **v.to_json_dict()})
    with _output_dir(cfg) as out:
        _write_json(out / "reflect_report.json", {
            "schema_version": 1,
            "direction": list(np.asarray(cfg.plane_direction, dtype=float)),
            "verdicts": verdicts,
            "passed": all_strict,
        })
    return EXIT_OK if all_strict else EXIT_AUDIT


def _run_rigidity_audit(cfg: RunConfig) -> int:
    n = cfg.dimension
    count = int(round((cfg.t_end - cfg.t0) / cfg.frame_dt))
    times = cfg.t0 + cfg.frame_dt * np.arange(count + 1)
    if cfg.family == "sphere":
        traj = families.sphere_family(times, lambda t: math.exp(t), n=n, resolution=cfg.resolution)
    else:
        traj = families.ellipsoid_family(times, rates=cfg.rates, n=n, resolution=cfg.resolution)
    F = speeds.speed_by_name(cfg.speed, n, cfg.alpha)
    report = rigidity.rigidity_audit(
        traj,
        F,
        y_inf=np.zeros(n + 1),
        directions=cfg.directions,
        c_schedule=cfg.c_schedule,
        symmetry_tol=cfg.symmetry_tol,
    )
    with _output_dir(cfg) as out:
        _write_json(out / "rigidity_report.json", report.to_json_dict())
    print(f"rigidity audit: {'PASS' if report.overall else 'FAIL'}")
    print(report.narrative)
    return EXIT_OK if report.overall else EXIT_AUDIT


_RUNNERS = {
    "simulate": _run_simulate,
    "sphere-ode": _run_sphere_ode,
    "classify-speed": _run_classify_speed,
    "reflect-audit": _run_reflect_audit,
    "rigidity-audit": _run_rigidity_audit,
}


def run(cfg: RunConfig) -> int:
    """Execute a validated config; artifacts land in cfg.out_dir."""
    return _RUNNERS[cfg.command](cfg)


# ---------------------------------------------------------------------------
# Argument parsing


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would sys.exit(2); keep our codes
        raise ValidationError(message)


def build_parser() -> _Parser:
    parser = _Parser(prog="hyperflow", description="expanding curvature flow toolkit")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name, help=f"run the {name} command")
        p.add_argument("--config", default=None, help="flat key = value configuration file")
        p.add_argument("--out", default=None, help="output directory (overrides out_dir)")
        p.add_argument(
            "--set",
            action="append",
            default=[],
            metavar="KEY=VALUE",
            help="override one configuration key (repeatable)",
        )
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        file_values = read_config_file(args.config) if args.config else {}
        overrides: dict = {}
        for item in args.set:
            if "=" not in item:
                raise ValidationError(f"--set expects KEY=VALUE, got {item!r}")
            key, _, value = item.partition("=")
            overrides[key.strip()] = _parse_scalar(value)
        if args.out is not None:
            overrides["out_dir"] = args.out
        cfg = parse_config(args.command, file_values, overrides)
        return run(cfg)
    except (ConfigError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (
        ConeExit,
        MeshDegeneracy,
        NonFiniteState,
        DegenerateElement,
        NonPositiveSpeed,
        CurvatureOutsideCone,
        PreconditionFailed,
        NoFramesPastTouch,
    ) as exc:
        print(f"numerical failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
