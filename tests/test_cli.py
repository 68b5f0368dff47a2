import json
import math

import pytest

from hyperflow.cli import (
    EXIT_AUDIT,
    EXIT_NUMERIC,
    EXIT_OK,
    EXIT_USAGE,
    main,
    parse_config,
    read_config_file,
)
from hyperflow.errors import ParseError, ValidationError
from hyperflow import shapes
from hyperflow.hypersurface import write_surface


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
    assert resolved["scheme"] == "rk4"  # default echoed
    assert resolved["cfl"] == 0.2
    assert resolved["seed"] == 0


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


def test_numeric_failure_exit_code(tmp_path):
    mesh = tmp_path / "peanut.txt"
    write_surface(shapes.peanut_polygon(64), mesh)
    rc = run_cli(
        "simulate", "--out", str(tmp_path / "x"),
        "--set", "shape=mesh", f"--set", f"mesh_file={mesh}",
        "--set", "speed=k", "--set", "t_end=0.5",
    )
    assert rc == EXIT_NUMERIC


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


def test_resolved_config_rerun_reproduces_artifacts(tmp_path):
    assert run_cli(*_simulate_args(tmp_path / "a")) == EXIT_OK
    rc = run_cli(
        "simulate", "--config", str(tmp_path / "a" / "resolved_config.cfg"),
        "--out", str(tmp_path / "c"),
    )
    assert rc == EXIT_OK
    assert (tmp_path / "a" / "diagnostics.csv").read_bytes() == (tmp_path / "c" / "diagnostics.csv").read_bytes()


# ---------------------------------------------------------------------------
# rejected configurations: one case per value rule, whichever code owns it

REJECTED = [
    ("seed", "classify-speed", ["speed=k", "seed=-1"]),
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
    ("scheme", "simulate", ["scheme=rk2"]),
    ("frame_interval", "simulate", ["frame_interval=0"]),
    ("remesh without band", "simulate", ["remesh=true"]),
    ("band order", "simulate", ["band_lo=2", "band_hi=1"]),
    ("r0", "sphere-ode", ["r0=0"]),
    ("dimension, sphere-ode", "sphere-ode", ["dimension=3"]),
    ("dimension, classify-speed", "classify-speed", ["dimension=0"]),
    ("dimension, rigidity-audit", "rigidity-audit", ["dimension=3"]),
    ("no plane offsets", "reflect-audit", ["plane_offsets=,"]),
    ("unknown family", "rigidity-audit", ["family=torus"]),
    ("frame_dt", "rigidity-audit", ["frame_dt=0"]),
    ("directions", "rigidity-audit", ["directions=1"]),
    ("c_schedule empty", "rigidity-audit", ["c_schedule=,"]),
    ("c_schedule not positive", "rigidity-audit", ["c_schedule=0.4,-0.1"]),
    ("c_schedule increasing", "rigidity-audit", ["c_schedule=0.1,0.2"]),
    ("ellipse family rates", "rigidity-audit", ["family=ellipse", "rates=1,2,3"]),
]


@pytest.mark.parametrize("command,sets", [r[1:] for r in REJECTED], ids=[r[0] for r in REJECTED])
def test_rejected_config_is_a_config_error(tmp_path, capsys, command, sets):
    out = tmp_path / "out"
    args = [command, "--out", str(out)]
    for item in sets:
        args += ["--set", item]
    assert run_cli(*args) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1
    assert "Traceback" not in err
    assert not out.exists()


# ---------------------------------------------------------------------------
# bad outside input: a one-line config error that names the file or value


def _bad_input(tmp_path, case):
    if case == "unknown speed":
        return ["classify-speed", "--set", "speed=bogus"], "bogus"
    if case == "offsets above R_star":
        return ["rigidity-audit", "--set", "t0=-6", "--set", "t_end=-3", "--set", "frame_dt=0.05",
                "--set", "c_schedule=0.4,0.2,0.1"], "R_star"
    path = tmp_path / ("bad.txt" if case == "clockwise polygon" else "bad.obj")
    if case == "short vertex line":
        path.write_text("v 0 0 0\nv 1 0\nv 0 1 0\nv 0 0 1\nf 1 3 2\nf 1 2 4\nf 2 3 4\nf 3 1 4\n")
    elif case == "clockwise polygon":
        write_surface(shapes.circle_polygon(1.0, 16), path)
        path.write_text("\n".join(reversed(path.read_text().splitlines())) + "\n")
    else:  # open mesh: a tetrahedron without its last face
        path.write_text("v 0 0 0\nv 1 0 0\nv 0 1 0\nv 0 0 1\nf 1 3 2\nf 1 2 4\nf 2 3 4\n")
    return ["simulate", "--set", "shape=mesh", "--set", f"mesh_file={path}", "--set", "t_end=0.01"], str(path)


@pytest.mark.parametrize("case", [
    "short vertex line", "clockwise polygon", "open mesh", "unknown speed", "offsets above R_star",
])
def test_bad_input_is_a_one_line_config_error(tmp_path, capsys, case):
    args, named = _bad_input(tmp_path, case)
    out = tmp_path / "out"
    assert run_cli(args[0], "--out", str(out), *args[1:]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1
    assert named in err
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
