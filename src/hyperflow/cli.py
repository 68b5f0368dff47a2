"""Command-line front end: reproducible runs with artifacts on disk.

Configuration is a flat key = value text file; ``--set key=value`` flags
override file keys and the fully resolved configuration is echoed into the
output directory, so re-running the echoed file reproduces the artifacts
byte for byte (a fixed seed covers the one sampled subsystem).  Each command
takes the keys of its ``_KEYS`` table (``--help`` lists them), and a
validation rule runs when the config has its key.

Exit codes: 0 pass, 1 usage/config error, 2 audit failure, 3 numerical
failure (any other toolkit error: cone exit, mesh degeneracy, failed
preconditions).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from contextlib import contextmanager
from pathlib import Path
from types import SimpleNamespace
from typing import Callable

import numpy as np

from . import families, flow_engine, reflection, rigidity, shapes, sphere_ode, speeds
from .errors import (
    ConfigError,
    DegenerateElement,
    HyperflowError,
    IndeterminateDivergence,
    ParseError,
    ValidationError,
)
from .hypersurface import (
    DiscreteHypersurface,
    enclosed_volume,
    inner_outer_radii,
    is_embedded,
    read_surface,
    write_surface,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_AUDIT = 2
EXIT_NUMERIC = 3

# Each command's keys with their defaults, in the order the resolved
# configuration echoes them after out_dir (required, no default).  None means
# unset: the key is not echoed and the library picks its own value.
_SPEED = {"speed": "k", "alpha": None}
_SHAPE = {"shape": "circle", "radius": 1.0, "axes": None, "resolution": 256, "subdivisions": 4, "mesh_file": None}
_KEYS: dict[str, dict] = {
    "simulate": {
        **_SPEED, **_SHAPE, "t0": 0.0, "t_end": 1.0, "dt": None, "cfl": 0.2,
        "frame_interval": 0.01, "stop_on_cone_exit": True,
    },
    "sphere-ode": {**_SPEED, "dimension": 1, "t0": 0.0, "t_end": 1.0, "dt": None, "r0": 1.0},
    "classify-speed": {"seed": 0, **_SPEED, "dimension": 1},
    "reflect-audit": {**_SHAPE, "plane_direction": (1.0, 0.0), "plane_offsets": (0.5,), "tol": None},
    "rigidity-audit": {
        **_SPEED, "dimension": 1, "resolution": 256, "t0": -6.0, "t_end": 1.0,
        "family": "sphere", "frame_dt": 0.01, "rates": (1.0, 2.0), "directions": 16,
        "c_schedule": (0.4, 0.2, 0.1, 0.05),
    },
}
COMMANDS = tuple(_KEYS)

_TUPLE_KEYS = {"axes", "rates", "c_schedule", "plane_direction", "plane_offsets"}
_PATH_KEYS = {"out_dir", "mesh_file"}
_NAME_KEYS = {"speed", "shape", "family"}
_BOOL_KEYS = {"stop_on_cone_exit"}
_NUMBER_KEYS = {
    "seed", "alpha", "radius", "resolution", "subdivisions", "t0", "t_end", "dt", "cfl", "frame_interval",
    "dimension", "r0", "tol", "frame_dt", "directions",
}


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
    if key not in _TUPLE_KEYS:
        return value
    entries = value if isinstance(value, tuple) else (value,)
    if any(isinstance(v, bool) or not isinstance(v, (int, float)) for v in entries):
        raise ValidationError(f"{key} must be a list of numbers, got {_fmt(value)}")
    return tuple(float(v) for v in entries)


def parse_config(command: str, file_values: dict, overrides: dict) -> SimpleNamespace:
    """Merge the command's defaults, file values and flag overrides into a validated config."""
    if command not in COMMANDS:
        raise ValidationError(f"unknown command {command!r}")
    merged = {**file_values, **overrides}
    unknown = sorted(set(merged) - set(_KEYS[command]) - {"out_dir"})
    if unknown:
        raise ValidationError(f"unknown keys for {command}: {', '.join(unknown)}")
    if "out_dir" not in merged:
        raise ValidationError("out_dir is required (use --out or the out_dir key)")
    values = {k: _coerce(k, v) for k, v in merged.items()}
    for key, value in values.items():
        entries = value if isinstance(value, tuple) else (value,)
        if not all(math.isfinite(v) for v in entries if isinstance(v, float)):
            raise ValidationError(f"{key} must be finite, got {_fmt(value)}")
        if key in _PATH_KEYS and not isinstance(value, str):
            raise ValidationError(f"{key} must be a path, got {_fmt(value)}")
        if key in _NUMBER_KEYS and (isinstance(value, bool) or not isinstance(value, (int, float))):
            raise ValidationError(f"{key} must be a number, got {_fmt(value)}")
        if key in _NAME_KEYS and not isinstance(value, str):
            raise ValidationError(f"{key} must be a name, got {_fmt(value)}")
        if key in _BOOL_KEYS and not isinstance(value, bool):
            raise ValidationError(f"{key} must be true or false, got {_fmt(value)}")
    cfg = SimpleNamespace(command=command, **{**_KEYS[command], **values})
    _validate(cfg)
    return cfg


_SHAPES = ("circle", "ellipse", "square", "icosphere", "ellipsoid", "mesh")
_AXES_COUNT = {"ellipse": 2, "ellipsoid": 3}

# Checks that only the CLI can make, keyed by the config key they read; a
# rule runs when the config has its key.  Value rules that a library
# constructor owns (FlowConfig, speed_by_name, integrate_radius, the shapes,
# the families, the audits) stay there, and main reports their ValueError as
# a config error.  Messages are formatted with the config's keys.
_RULES: dict[str, tuple[Callable[[SimpleNamespace], bool], str]] = {
    "seed": (lambda c: isinstance(c.seed, int) and c.seed >= 0, "seed must be a non-negative integer"),
    "shape": (lambda c: c.shape in _SHAPES, "unknown shape {shape!r}"),
    "axes": (
        lambda c: c.shape not in _AXES_COUNT or len(c.axes or ()) == _AXES_COUNT[c.shape],
        "shape = {shape} needs one semi-axis per coordinate in axes",
    ),
    "mesh_file": (lambda c: c.shape != "mesh" or c.mesh_file is not None, "shape = mesh requires mesh_file"),
    "subdivisions": (lambda c: 0 <= c.subdivisions <= 6, "subdivisions must lie in [0, 6]"),
    "dimension": (lambda c: c.dimension in (1, 2), "dimension must be 1 or 2"),
    # dimension counts as 1 for the commands that do not take it
    "resolution": (
        lambda c: getattr(c, "dimension", 1) == 1 or 0 <= c.resolution <= 6,
        "with dimension = 2, resolution is the icosphere subdivision level and must lie in [0, 6]",
    ),
    "family": (lambda c: c.family in ("sphere", "ellipse"), "unknown family {family!r}"),
    "frame_dt": (lambda c: c.frame_dt > 0, "frame_dt must be positive"),
    "plane_offsets": (lambda c: len(c.plane_offsets) >= 1, "at least one plane offset required"),
}


def _validate(cfg: SimpleNamespace) -> None:
    for key, (ok, message) in _RULES.items():
        if hasattr(cfg, key) and not ok(cfg):
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


def write_resolved_config(cfg: SimpleNamespace, path: Path) -> None:
    keys = ["out_dir", *_KEYS[cfg.command]]
    lines = [f"{k} = {_fmt(getattr(cfg, k))}" for k in keys if getattr(cfg, k) is not None]
    path.write_text("\n".join([f"# resolved configuration for '{cfg.command}'", *lines]) + "\n")


@contextmanager
def _output_dir(cfg: SimpleNamespace):
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


def _build_shape(cfg: SimpleNamespace) -> DiscreteHypersurface:
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
        M = read_surface(cfg.mesh_file)
    except (OSError, ValueError, DegenerateElement) as exc:
        raise ValidationError(f"mesh file {cfg.mesh_file}: {exc}") from exc
    # containment and reflection checks sign by pseudonormals, which needs an
    # embedded surface; the built-in shapes are embedded by construction
    if not is_embedded(M):
        raise ValidationError(f"mesh file {cfg.mesh_file}: the surface intersects itself")
    return M


def _ancientness(F: speeds.SpeedFunction) -> dict:
    try:
        return sphere_ode.is_ancient(F).to_json_dict()
    except IndeterminateDivergence as exc:
        return {"schema_version": 1, "verdict": "indeterminate", "detail": str(exc)}


# ---------------------------------------------------------------------------
# Command implementations (each returns an exit code).  A runner computes its
# results before it opens the output directory, so input that the library
# rejects leaves no directory behind.


def _run_simulate(cfg: SimpleNamespace) -> int:
    M0 = _build_shape(cfg)
    n = M0.dimension
    F = speeds.speed_by_name(cfg.speed, n, cfg.alpha)
    flow_cfg = flow_engine.FlowConfig(
        t_end=cfg.t_end,
        dt=cfg.dt,
        cfl=cfg.cfl,
        frame_interval=cfg.frame_interval,
        stop_on_cone_exit=cfg.stop_on_cone_exit,
    )
    traj = flow_engine.evolve(M0, F, cfg.t0, flow_cfg)
    ext = "txt" if n == 1 else "obj"
    index_rows = [{"t": t, "file": f"frames/frame_{i:06d}.{ext}"} for i, (t, _) in enumerate(traj.frames)]
    diag_rows = []
    for t, M in traj.frames:
        rr = inner_outer_radii(M, center=M.vertices.mean(axis=0))
        lam = M.curvature_data.principal
        lens = M.edge_lengths
        diag_rows.append(
            [t, enclosed_volume(M), rr.rho_minus, rr.rho_plus,
             float(lam.min()), float(lam.max()), float(lens.min()), float(lens.max())]
        )
    with _output_dir(cfg) as out:
        (out / "frames").mkdir(exist_ok=True)
        for row, (_, M) in zip(index_rows, traj.frames):
            write_surface(M, out / row["file"])
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


def _run_sphere_ode(cfg: SimpleNamespace) -> int:
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


def _run_classify_speed(cfg: SimpleNamespace) -> int:
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


def _run_reflect_audit(cfg: SimpleNamespace) -> int:
    M = _build_shape(cfg)
    planes = [
        reflection.Hyperplane(V=np.asarray(cfg.plane_direction, dtype=float), c=float(c))
        for c in cfg.plane_offsets
    ]
    verdicts = []
    all_strict = True
    for c, plane, v in zip(cfg.plane_offsets, planes, reflection._verdicts(M, planes, tol=cfg.tol)):
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


def _run_rigidity_audit(cfg: SimpleNamespace) -> int:
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


def run(cfg: SimpleNamespace) -> int:
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
    for name, keys in _KEYS.items():
        listing = "\n".join(f"  {k} = {_fmt(v)}" if v is not None else f"  {k}  (unset)" for k, v in keys.items())
        p = sub.add_parser(
            name,
            help=f"run the {name} command",
            epilog=f"configuration keys and defaults:\n  out_dir  (required; --out sets it)\n{listing}",
            formatter_class=argparse.RawDescriptionHelpFormatter,
        )
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
    except HyperflowError as exc:
        print(f"numerical failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
