import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from hyperflow.cli import (
    EXIT_AUDIT,
    EXIT_NUMERIC,
    EXIT_OK,
    EXIT_USAGE,
    main,
    parse_config,
    read_config_file,
    write_resolved_config,
)
from hyperflow.errors import ParseError, ValidationError
from hyperflow import shapes
from hyperflow.hypersurface import DiscreteHypersurface, write_surface
import oracles


def run_cli(*args):
    return main(list(args))


# ---------------------------------------------------------------------------
# configuration handling


def test_minimal_simulate_config_resolves_with_defaults(tmp_path):
    out = tmp_path / "run"
    rc = run_cli(
        "simulate", "--out", str(out),
        "--set", "speed=k", "--set", "shape=circle", "--set", "radius=1.0",
        "--set", "t_end=0.02", "--set", "dt=0.001", "--set", "resolution=32",
    )
    assert rc == EXIT_OK
    resolved = read_config_file(out / "resolved_config.cfg")
    assert resolved["speed"] == "k"
    assert resolved["frame_interval"] == 0.01  # default echoed
    assert "scheme" not in resolved and "remesh" not in resolved
    assert resolved["cfl"] == 0.2
    assert "seed" not in resolved  # no sampled subsystem in simulate


def test_alpha_must_be_positive(tmp_path):
    rc = run_cli(
        "classify-speed", "--out", str(tmp_path / "x"),
        "--set", "speed=H^alpha", "--set", "alpha=-1",
    )
    assert rc == EXIT_USAGE


def test_missing_mesh_file_is_named(tmp_path, capsys):
    rc = run_cli(
        "simulate", "--out", str(tmp_path / "x"),
        "--set", "shape=mesh", "--set", "mesh_file=/nope/missing.obj",
    )
    assert rc == EXIT_USAGE
    assert "/nope/missing.obj" in capsys.readouterr().err


def test_unknown_keys_rejected(tmp_path):
    rc = run_cli("simulate", "--out", str(tmp_path / "x"), "--set", "bogus=1")
    assert rc == EXIT_USAGE


def test_flags_override_file_keys(tmp_path):
    cfg = tmp_path / "base.cfg"
    cfg.write_text("speed = k\nr0 = 1.0\nt_end = 1.0\ndt = 0.001\n")
    out = tmp_path / "ode"
    rc = run_cli("sphere-ode", "--config", str(cfg), "--out", str(out), "--set", "t_end=0.5")
    assert rc == EXIT_OK
    assert read_config_file(out / "resolved_config.cfg")["t_end"] == 0.5


def test_malformed_config_line_raises():
    with pytest.raises(ValidationError):
        read_config_file("/nope/missing.cfg")


def test_parse_errors(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("this line has no equals sign\n")
    with pytest.raises(ParseError):
        read_config_file(bad)


def test_parse_config_requires_out_dir():
    with pytest.raises(ValidationError):
        parse_config("sphere-ode", {}, {})


# ---------------------------------------------------------------------------
# commands and artifacts


def test_sphere_ode_artifacts(tmp_path):
    out = tmp_path / "ode"
    rc = run_cli(
        "sphere-ode", "--out", str(out),
        "--set", "speed=k", "--set", "r0=1.0", "--set", "t_end=1.0", "--set", "dt=0.001",
    )
    assert rc == EXIT_OK
    rows = (out / "radius.csv").read_text().splitlines()
    assert rows[0] == "t,r"
    final_r = float(rows[-1].split(",")[1])
    assert final_r == pytest.approx(math.e, rel=1e-6)
    verdict = json.loads((out / "ancientness.json").read_text())
    assert verdict["verdict"] == "ancient"


def test_classify_speed_nonancient(tmp_path):
    out = tmp_path / "cls"
    rc = run_cli(
        "classify-speed", "--out", str(out),
        "--set", "speed=H^alpha", "--set", "alpha=0.5", "--set", "dimension=2",
    )
    assert rc == EXIT_OK
    d = json.loads((out / "classification.json").read_text())
    assert d["ancientness"]["verdict"] == "non_ancient"
    assert d["admissibility"]["passed"] is True
    assert d["homogeneity"] == pytest.approx(0.5)


def test_simulate_artifacts(tmp_path):
    out = tmp_path / "sim"
    rc = run_cli(
        "simulate", "--out", str(out),
        "--set", "speed=k", "--set", "shape=ellipse", "--set", "axes=2,1",
        "--set", "t_end=0.05", "--set", "dt=0.001", "--set", "resolution=64",
    )
    assert rc == EXIT_OK
    index = json.loads((out / "index.json").read_text())
    assert index["schema_version"] == 1
    assert len(index["frames"]) >= 5
    csv_rows = (out / "diagnostics.csv").read_text().splitlines()
    assert csv_rows[0].startswith("t,volume,rho_minus,rho_plus")
    schema = json.loads((out / "diagnostics_schema.json").read_text())
    assert set(schema["columns"]) == set(csv_rows[0].split(","))
    # every referenced frame file exists
    for row in index["frames"]:
        assert (out / row["file"]).exists()


def test_reflect_audit_pass_and_fail(tmp_path, capsys):
    rc = run_cli(
        "reflect-audit", "--out", str(tmp_path / "r1"),
        "--set", "shape=circle", "--set", "radius=1.0",
        "--set", "plane_direction=1,0", "--set", "plane_offsets=0.5,0.2",
    )
    assert rc == EXIT_OK
    assert capsys.readouterr().out.count("PASS") == 2
    rc = run_cli(
        "reflect-audit", "--out", str(tmp_path / "r2"),
        "--set", "shape=circle", "--set", "radius=1.0",
        "--set", "plane_direction=1,0", "--set", "plane_offsets=0.5,0",
    )
    assert rc == EXIT_AUDIT
    assert "FAIL" in capsys.readouterr().out


def test_rigidity_audit_family_exit_codes(tmp_path):
    common = [
        "--set", "t0=-6", "--set", "t_end=0", "--set", "frame_dt=0.02",
        "--set", "directions=8", "--set", "c_schedule=0.4,0.2,0.1",
    ]
    rc = run_cli("rigidity-audit", "--out", str(tmp_path / "sph"), "--set", "family=sphere", *common)
    assert rc == EXIT_OK
    rc = run_cli("rigidity-audit", "--out", str(tmp_path / "ell"), "--set", "family=ellipse", *common)
    assert rc == EXIT_AUDIT
    report = json.loads((tmp_path / "ell" / "rigidity_report.json").read_text())
    witnesses = [r["witness_direction"] for r in report["limit_symmetry"] if not r["spherical"]]
    assert witnesses and witnesses[0] is not None


def test_the_default_rigidity_audit_passes(tmp_path):
    # at t0 = 0 the sphere family started at radius 1 and missed the origin balls
    assert run_cli("rigidity-audit", "--out", str(tmp_path / "rig")) == EXIT_OK


def test_numeric_failure_exit_code(tmp_path):
    mesh = tmp_path / "peanut.txt"
    write_surface(oracles.peanut_polygon(64), mesh)
    rc = run_cli(
        "simulate", "--out", str(tmp_path / "x"),
        "--set", "shape=mesh", f"--set", f"mesh_file={mesh}",
        "--set", "speed=k", "--set", "t_end=0.5",
    )
    assert rc == EXIT_NUMERIC


def test_a_failing_diagnostic_is_a_numeric_failure_with_no_output(tmp_path, capsys):
    # an embedded crescent whose vertex centroid, about (0.091, 0), lies
    # outside it: the diagnostics' radii about the centroid raise CenterOutside
    outer = np.linspace(0.3, 2.0 * np.pi - 0.3, 120)
    end = np.array([np.cos(0.3), -np.sin(0.3)]) - [0.5, 0.0]
    phi = math.atan2(end[1], end[0])
    inner = np.linspace(phi, phi - 2.0 * (np.pi + phi), 80)[1:-1]  # clockwise about (0.5, 0)
    verts = np.vstack([
        np.column_stack([np.cos(outer), np.sin(outer)]),
        [0.5, 0.0] + np.linalg.norm(end) * np.column_stack([np.cos(inner), np.sin(inner)]),
    ])
    mesh = tmp_path / "crescent.txt"
    write_surface(DiscreteHypersurface(verts), mesh)
    out = tmp_path / "x"
    rc = run_cli(
        "simulate", "--out", str(out), "--set", "shape=mesh", "--set", f"mesh_file={mesh}",
        "--set", "stop_on_cone_exit=false", "--set", "t_end=0.01", "--set", "dt=0.001",
    )
    assert rc == EXIT_NUMERIC
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: CenterOutside") and err.count("\n") == 1
    assert not out.exists()


def test_output_lock(tmp_path):
    out = tmp_path / "locked"
    out.mkdir()
    (out / ".lock").touch()
    rc = run_cli("classify-speed", "--out", str(out), "--set", "speed=k")
    assert rc == EXIT_USAGE


# ---------------------------------------------------------------------------
# reproducibility


def _simulate_args(out):
    return [
        "simulate", "--out", str(out),
        "--set", "speed=k", "--set", "shape=ellipse", "--set", "axes=2,1",
        "--set", "t_end=0.03", "--set", "dt=0.001", "--set", "resolution=64",
    ]


def test_identical_configs_produce_identical_artifacts(tmp_path):
    assert run_cli(*_simulate_args(tmp_path / "a")) == EXIT_OK
    assert run_cli(*_simulate_args(tmp_path / "b")) == EXIT_OK
    for rel in ("diagnostics.csv", "index.json", "frames/frame_000000.txt"):
        assert (tmp_path / "a" / rel).read_bytes() == (tmp_path / "b" / rel).read_bytes()


SMALL_RUNS = {
    "simulate": ["speed=k", "shape=ellipse", "axes=2,1", "t_end=0.03", "dt=0.001", "resolution=64"],
    "sphere-ode": ["speed=k", "r0=1.0", "t_end=0.1"],
    "classify-speed": ["speed=H^alpha", "alpha=0.5", "dimension=2"],
    "reflect-audit": ["shape=circle", "radius=1", "plane_direction=1,0", "plane_offsets=0.5,0.2"],
    "rigidity-audit": ["family=sphere", "t0=-3", "t_end=0", "frame_dt=0.05", "directions=8",
                       "resolution=64", "c_schedule=0.4,0.2,0.1"],
}


def _artifacts(out):
    return {p.relative_to(out).as_posix(): p.read_bytes() for p in sorted(out.rglob("*")) if p.is_file()}


@pytest.mark.parametrize("command", sorted(SMALL_RUNS))
def test_resolved_config_rerun_reproduces_artifacts(tmp_path, command):
    args = [command, "--out", str(tmp_path / "a")]
    for item in SMALL_RUNS[command]:
        args += ["--set", item]
    assert run_cli(*args) == EXIT_OK
    rc = run_cli(command, "--config", str(tmp_path / "a" / "resolved_config.cfg"), "--out", str(tmp_path / "c"))
    assert rc == EXIT_OK
    first, again = _artifacts(tmp_path / "a"), _artifacts(tmp_path / "c")
    echoed = [first.pop("resolved_config.cfg"), again.pop("resolved_config.cfg")]
    assert first == again and first
    # the echoes differ only in out_dir
    lines = [[ln for ln in e.decode().splitlines() if not ln.startswith("out_dir")] for e in echoed]
    assert lines[0] == lines[1]


# every key of each command, in echo order; the unset ones get a value here
ECHOED_KEYS = {
    "simulate": ["out_dir", "speed", "alpha", "shape", "radius", "axes", "resolution", "subdivisions",
                 "mesh_file", "t0", "t_end", "dt", "cfl", "frame_interval", "stop_on_cone_exit"],
    "sphere-ode": ["out_dir", "speed", "alpha", "dimension", "t0", "t_end", "dt", "r0"],
    "classify-speed": ["out_dir", "seed", "speed", "alpha", "dimension"],
    "reflect-audit": ["out_dir", "shape", "radius", "axes", "resolution", "subdivisions", "mesh_file",
                      "plane_direction", "plane_offsets", "tol"],
    "rigidity-audit": ["out_dir", "speed", "alpha", "dimension", "resolution", "t0", "t_end", "family",
                       "frame_dt", "rates", "directions", "c_schedule"],
}
UNSET_VALUES = {"alpha": 0.5, "axes": (2.0, 1.0), "mesh_file": "m.obj", "dt": 0.001, "tol": 1e-9}


@pytest.mark.parametrize("command", sorted(ECHOED_KEYS))
def test_echoed_file_holds_exactly_the_command_keys(tmp_path, command):
    keys = ECHOED_KEYS[command]
    cfg = parse_config(command, {}, {"out_dir": str(tmp_path), **{k: v for k, v in UNSET_VALUES.items() if k in keys}})
    write_resolved_config(cfg, tmp_path / "echo.cfg")
    assert list(read_config_file(tmp_path / "echo.cfg")) == keys


@pytest.mark.parametrize("command,key", [("simulate", "r0"), ("rigidity-audit", "shape")])
def test_a_key_of_another_command_is_named(tmp_path, capsys, command, key):
    assert run_cli(command, "--out", str(tmp_path / "x"), "--set", f"{key}=1") == EXIT_USAGE
    assert key in capsys.readouterr().err


def test_the_sphericity_bound_is_not_a_key(tmp_path, capsys):
    # the audit takes the bound 2 min(c_schedule) from the lemma; the former
    # symmetry_tol key is unknown
    assert run_cli("rigidity-audit", "--out", str(tmp_path / "x"), "--set", "symmetry_tol=0.1") == EXIT_USAGE
    assert capsys.readouterr().err == "config error: unknown keys for rigidity-audit: symmetry_tol\n"
    assert not (tmp_path / "x").exists()


def test_help_lists_the_command_keys_with_defaults(capsys):
    with pytest.raises(SystemExit) as exit_info:
        run_cli("simulate", "--help")
    assert exit_info.value.code == 0
    out = capsys.readouterr().out
    assert "t_end = 1.0" in out and "frame_interval = 0.01" in out
    assert "r0" not in out


@pytest.mark.parametrize("command,key,value", [
    ("reflect-audit", "plane_direction", (math.nan, 0.0)),
    ("simulate", "t_end", math.inf),
    ("rigidity-audit", "c_schedule", (0.4, -math.inf)),
])
def test_non_finite_value_names_the_key(tmp_path, command, key, value):
    with pytest.raises(ValidationError, match=key):
        parse_config(command, {}, {"out_dir": str(tmp_path), key: value})


# ---------------------------------------------------------------------------
# rejected configurations: one case per value rule, whichever code owns it

REJECTED = [
    ("seed", "classify-speed", ["speed=k", "seed=-1"]),
    # only classify-speed samples; the other commands have no seed to set
    ("seed of simulate", "simulate", ["seed=0"]),
    ("alpha ignored by the speed", "sphere-ode", ["speed=k", "alpha=-1"]),
    ("alpha of a power speed", "classify-speed", ["speed=H^alpha", "alpha=0"]),
    ("power speed without alpha", "simulate", ["speed=H^alpha"]),
    ("t_end = t0, simulate", "simulate", ["t0=1", "t_end=1"]),
    ("t_end < t0, sphere-ode", "sphere-ode", ["t_end=-1"]),
    ("t_end = t0, rigidity-audit", "rigidity-audit", ["t0=-1", "t_end=-1"]),
    ("t_end < t0, rigidity-audit", "rigidity-audit", ["t0=0", "t_end=-1"]),
    ("dt = 0, simulate", "simulate", ["dt=0"]),
    ("dt = 0, sphere-ode", "sphere-ode", ["dt=0"]),
    ("dt < 0, sphere-ode", "sphere-ode", ["dt=-0.1"]),
    ("unknown shape", "reflect-audit", ["shape=blob"]),
    ("mesh without mesh_file", "simulate", ["shape=mesh"]),
    ("missing mesh file", "reflect-audit", ["shape=mesh", "mesh_file=/nope/missing.obj"]),
    ("circle radius", "simulate", ["shape=circle", "radius=0"]),
    ("square radius", "reflect-audit", ["shape=square", "radius=-1"]),
    ("icosphere radius", "simulate", ["shape=icosphere", "radius=0", "subdivisions=1"]),
    ("ellipse without axes", "simulate", ["shape=ellipse"]),
    ("ellipse with three axes", "simulate", ["shape=ellipse", "axes=1,2,3"]),
    ("ellipsoid with two axes", "reflect-audit", ["shape=ellipsoid", "axes=1,2"]),
    ("ellipse axis negative", "simulate", ["shape=ellipse", "axes=1,-1"]),
    ("ellipsoid axis zero", "reflect-audit", ["shape=ellipsoid", "axes=1,1,0", "subdivisions=1"]),
    ("ellipsoid axes negative", "reflect-audit", ["shape=ellipsoid", "axes=-1,-1,1", "subdivisions=1"]),
    ("circle resolution", "simulate", ["shape=circle", "resolution=2"]),
    ("subdivisions above cap", "reflect-audit", ["shape=icosphere", "subdivisions=7"]),
    ("subdivisions negative", "simulate", ["subdivisions=-1"]),
    ("cfl zero", "simulate", ["cfl=0"]),
    ("cfl above one", "simulate", ["cfl=1.5"]),
    ("frame_interval", "simulate", ["frame_interval=0"]),
    # one integrator on fixed connectivity: the scheme, remeshing and edge-length band keys are unknown
    ("scheme", "simulate", ["scheme=rk2"]),
    ("remesh without band", "simulate", ["remesh=true"]),
    ("band_lo and band_hi", "simulate", ["band_lo=0.05", "band_hi=0.2"]),
    ("r0", "sphere-ode", ["r0=0"]),
    ("dimension, sphere-ode", "sphere-ode", ["dimension=3"]),
    ("dimension, classify-speed", "classify-speed", ["dimension=0"]),
    ("dimension, rigidity-audit", "rigidity-audit", ["dimension=3"]),
    ("no plane offsets", "reflect-audit", ["plane_offsets=,"]),
    ("unknown family", "rigidity-audit", ["family=torus"]),
    ("frame_dt", "rigidity-audit", ["frame_dt=0"]),
    ("directions", "rigidity-audit", ["directions=0"]),
    ("c_schedule empty", "rigidity-audit", ["c_schedule=,"]),
    ("c_schedule not positive", "rigidity-audit", ["c_schedule=0.4,-0.1"]),
    ("c_schedule increasing", "rigidity-audit", ["c_schedule=0.1,0.2"]),
    ("ellipse family rates", "rigidity-audit", ["family=ellipse", "rates=1,2,3"]),
    # NaN fails every comparison, so it slips past a rule written as `reject if x <= 0`
    ("t_end nan", "simulate", ["t_end=nan"]),
    ("frame_interval nan", "simulate", ["frame_interval=nan"]),
    ("plane_direction nan", "reflect-audit", ["plane_direction=nan,0"]),
    ("plane_offsets inf", "reflect-audit", ["plane_offsets=inf"]),
    ("plane_offsets nan", "reflect-audit", ["plane_offsets=nan"]),
    ("tol nan", "reflect-audit", ["tol=nan"]),
    # the sphericity bound comes from c_schedule; the former symmetry_tol key is unknown whatever its value
    ("symmetry_tol nan", "rigidity-audit", ["symmetry_tol=nan"]),
    ("symmetry_tol negative", "rigidity-audit", ["t0=-3", "t_end=0", "resolution=64", "symmetry_tol=-1"]),
    ("symmetry_tol zero", "rigidity-audit", ["t0=-3", "t_end=0", "resolution=64", "symmetry_tol=0"]),
    ("tol negative", "reflect-audit", ["tol=-1"]),
    # a number where a path belongs; a later --set replaces the harness's out_dir
    ("out_dir a number", "classify-speed", ["out_dir=5", "speed=k"]),
    ("mesh_file a number", "reflect-audit", ["shape=mesh", "mesh_file=5"]),
    # a word where a number belongs
    ("tol a word", "reflect-audit", ["tol=abc"]),
    ("radius a word", "simulate", ["radius=abc"]),
    ("dt a word", "simulate", ["dt=abc"]),
    # a number where a name belongs, and a word other than true or false for a switch
    ("speed a number", "simulate", ["speed=3"]),
    ("stop_on_cone_exit a word", "simulate", ["stop_on_cone_exit=abc"]),
    # a switch where a list of numbers belongs
    ("plane_offsets a switch", "reflect-audit", ["plane_offsets=true"]),
    ("c_schedule a switch", "rigidity-audit", ["c_schedule=true"]),
]


@pytest.mark.parametrize("command,sets", [r[1:] for r in REJECTED], ids=[r[0] for r in REJECTED])
def test_rejected_config_is_a_config_error(tmp_path, capsys, command, sets):
    out = tmp_path / "out"
    args = [command, "--set", f"out_dir={out}"]
    for item in sets:
        args += ["--set", item]
    assert run_cli(*args) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("command,sets,key", [
    ("classify-speed", ["out_dir=5", "speed=k"], "out_dir"),
    ("reflect-audit", ["shape=mesh", "mesh_file=5"], "mesh_file"),
    ("rigidity-audit", ["c_schedule=0.1,0.2"], "c_schedule"),
    ("reflect-audit", ["tol=abc"], "tol"),
    ("simulate", ["radius=abc"], "radius"),
    ("simulate", ["dt=abc"], "dt"),
    ("simulate", ["speed=3"], "speed"),
    ("rigidity-audit", ["family=2"], "family"),
    ("reflect-audit", ["shape=1"], "shape"),
    ("simulate", ["stop_on_cone_exit=abc"], "stop_on_cone_exit"),
    ("simulate", ["stop_on_cone_exit=1"], "stop_on_cone_exit"),
    ("rigidity-audit", ["t0=-3", "t_end=0", "resolution=64", "symmetry_tol=-1"], "symmetry_tol"),
    ("reflect-audit", ["plane_offsets=true"], "plane_offsets"),
    ("rigidity-audit", ["c_schedule=true"], "c_schedule"),
    ("simulate", ["shape=ellipse", "axes=2,abc"], "axes"),
])
def test_config_error_names_the_key(tmp_path, capsys, command, sets, key):
    args = [command, "--set", f"out_dir={tmp_path / 'out'}"]
    for item in sets:
        args += ["--set", item]
    assert run_cli(*args) == EXIT_USAGE
    assert key in capsys.readouterr().err


def test_every_key_with_a_number_default_takes_only_numbers():
    from hyperflow import cli

    defaults = {key: value for keys in cli._KEYS.values() for key, value in keys.items()}
    numeric = {key for key, value in defaults.items() if type(value) in (int, float)}
    assert numeric <= cli._NUMBER_KEYS <= set(defaults)
    assert not cli._NUMBER_KEYS & (cli._TUPLE_KEYS | cli._PATH_KEYS)


def test_every_key_with_a_word_or_switch_default_is_typed():
    from hyperflow import cli

    defaults = {key: value for keys in cli._KEYS.values() for key, value in keys.items()}
    assert {key for key, value in defaults.items() if isinstance(value, str)} == cli._NAME_KEYS
    assert {key for key, value in defaults.items() if isinstance(value, bool)} == cli._BOOL_KEYS


# ---------------------------------------------------------------------------
# bad outside input: a one-line config error that names the file or value


def _bad_input(tmp_path, case):
    if case == "unknown speed":
        return ["classify-speed", "--set", "speed=bogus"], "bogus"
    if case == "offsets above R_star":
        return ["rigidity-audit", "--set", "t0=-6", "--set", "t_end=-3", "--set", "frame_dt=0.05",
                "--set", "c_schedule=0.4,0.2,0.1"], "R_star"
    if case == "curve plane on a surface":
        return ["reflect-audit", "--set", "shape=icosphere"], "2 components, but the surface lies in 3"
    if case == "surface plane on a curve":
        return (["reflect-audit", "--set", "shape=circle", "--set", "plane_direction=1,0,0"],
                "3 components, but the surface lies in 2")
    curves = ("clockwise polygon", "unequal figure-eight", "simulated figure-eight", "repeated curve vertex",
              "three-column curve row")
    path = tmp_path / ("bad.txt" if case in curves else "bad.obj")
    if case == "repeated curve vertex":
        write_surface(shapes.circle_polygon(1.0, 16), path)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:3] + lines[2:]) + "\n")
        return ["reflect-audit", "--set", "shape=mesh", "--set", f"mesh_file={path}"], str(path)
    if case in ("unequal figure-eight", "simulated figure-eight"):
        # a large counter-clockwise lobe and a small clockwise one: positive
        # area, but the edges cross at the origin
        t = 2.0 * np.pi * (np.arange(64) + 0.5) / 64
        lobes = np.column_stack([np.cos(t), np.sin(t) * np.cos(t) * (1.0 + 0.5 * np.cos(t))])
        write_surface(DiscreteHypersurface(lobes), path)
        if case == "simulated figure-eight":
            # with the cone check off, only the embeddedness check rejects it
            return ["simulate", "--set", "shape=mesh", "--set", f"mesh_file={path}", "--set", "t_end=0.01",
                    "--set", "stop_on_cone_exit=false"], str(path)
        return ["reflect-audit", "--set", "shape=mesh", "--set", f"mesh_file={path}"], str(path)
    if case == "three-column curve row":
        write_surface(shapes.circle_polygon(1.0, 16), path)
        path.write_text("".join(f"{line} 5\n" for line in path.read_text().splitlines()))
        return ["simulate", "--set", "shape=mesh", "--set", f"mesh_file={path}", "--set", "t_end=0.01"], f"{path}: line 1:"
    if case == "four-index face":
        path.write_text("v 0 0 0\nv 1 0 0\nv 0 1 0\nv 0 0 1\nf 1 3 2 4\nf 1 2 4\nf 2 3 4\nf 3 1 4\n")
        return ["simulate", "--set", "shape=mesh", "--set", f"mesh_file={path}", "--set", "t_end=0.01"], f"{path}: line 5:"
    if case == "short vertex line":
        path.write_text("v 0 0 0\nv 1 0\nv 0 1 0\nv 0 0 1\nf 1 3 2\nf 1 2 4\nf 2 3 4\nf 3 1 4\n")
    elif case == "zero-area triangle":
        ico = shapes.icosphere(1.0, 0)
        verts = ico.vertices.copy()
        verts[1] = verts[0]  # the faces on edge (0, 1) collapse
        path.write_text("".join(f"v {x!r} {y!r} {z!r}\n" for x, y, z in verts.tolist())
                        + "".join(f"f {a} {b} {c}\n" for a, b, c in (ico.faces + 1).tolist()))
    elif case == "clockwise polygon":
        write_surface(shapes.circle_polygon(1.0, 16), path)
        path.write_text("\n".join(reversed(path.read_text().splitlines())) + "\n")
    else:  # open mesh: a tetrahedron without its last face
        path.write_text("v 0 0 0\nv 1 0 0\nv 0 1 0\nv 0 0 1\nf 1 3 2\nf 1 2 4\nf 2 3 4\n")
    return ["simulate", "--set", "shape=mesh", "--set", f"mesh_file={path}", "--set", "t_end=0.01"], str(path)


@pytest.mark.parametrize("case", [
    "short vertex line", "clockwise polygon", "open mesh", "unknown speed", "offsets above R_star",
    "curve plane on a surface", "surface plane on a curve", "unequal figure-eight", "simulated figure-eight",
    "repeated curve vertex", "zero-area triangle", "three-column curve row", "four-index face",
])
def test_bad_input_is_a_one_line_config_error(tmp_path, capsys, case):
    args, named = _bad_input(tmp_path, case)
    out = tmp_path / "out"
    assert run_cli(args[0], "--out", str(out), *args[1:]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1
    assert named in err
    assert not out.exists()


def test_a_plane_too_far_to_measure_is_one_stderr_line(tmp_path):
    # the images' heights, norms and squared distances overflow to inf on the
    # way to the error; no RuntimeWarning may reach stderr before it
    src = str(Path(shapes.__file__).resolve().parents[1])
    out = tmp_path / "out"
    done = subprocess.run(
        [sys.executable, "-c", f"import sys; sys.path.insert(0, {src!r}); from hyperflow.cli import entrypoint; entrypoint()",
         "reflect-audit", "--out", str(out), "--set", "shape=ellipse", "--set", "axes=2,1",
         "--set", "resolution=64", "--set", "plane_offsets=-1e160"],
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == EXIT_USAGE
    assert done.stderr.startswith("config error: query point too far out") and done.stderr.count("\n") == 1
    assert not out.exists()


def test_a_fixed_step_square_run_is_a_one_line_cone_exit(tmp_path):
    # the square's collinear vertices have k = 0 exactly: with a fixed dt too,
    # the start check must report them before the stable step divides by F^2
    src = str(Path(shapes.__file__).resolve().parents[1])
    out = tmp_path / "out"
    done = subprocess.run(
        [sys.executable, "-c", f"import sys; sys.path.insert(0, {src!r}); from hyperflow.cli import entrypoint; entrypoint()",
         "simulate", "--out", str(out), "--set", "shape=square", "--set", "dt=0.001"],
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == EXIT_NUMERIC
    assert done.stderr.startswith("numerical failure: ConeExit") and done.stderr.count("\n") == 1
    assert not out.exists()


def test_values_a_shape_ignores_are_not_checked(tmp_path):
    # only the constructor that uses a value checks it
    parse_config("simulate", {}, {"out_dir": str(tmp_path), "shape": "circle", "axes": (-1.0, 1.0)})
    parse_config("simulate", {}, {"out_dir": str(tmp_path), "shape": "icosphere", "resolution": 1})


# ---------------------------------------------------------------------------
# rigidity-audit on surfaces (dimension = 2)


def test_surface_resolution_is_capped_at_the_subdivision_limit(tmp_path):
    # with dimension = 2, resolution is the icosphere subdivision level; the
    # default 256 would never finish, so this stays at the parse stage
    base = {"out_dir": str(tmp_path), "dimension": 2}
    with pytest.raises(ValidationError):
        parse_config("rigidity-audit", {}, base)
    with pytest.raises(ValidationError):
        parse_config("rigidity-audit", {}, {**base, "resolution": 7})
    assert parse_config("rigidity-audit", {}, {**base, "resolution": 6}).resolution == 6


def test_sphere_family_on_surfaces_needs_no_rates(tmp_path):
    rc = run_cli(
        "rigidity-audit", "--out", str(tmp_path / "rig"),
        "--set", "dimension=2", "--set", "resolution=2", "--set", "family=sphere", "--set", "speed=H",
        "--set", "t0=-4", "--set", "t_end=0", "--set", "frame_dt=0.05",
        "--set", "directions=6", "--set", "c_schedule=0.4,0.2,0.1",
    )
    # the audit runs to a verdict; on a 162-vertex icosphere some reflected
    # vertices land just outside the polyhedron, so reflection may fail there
    assert rc in (EXIT_OK, EXIT_AUDIT)
    report = json.loads((tmp_path / "rig" / "rigidity_report.json").read_text())
    assert all(row["spherical"] for row in report["limit_symmetry"])
