"""Smoke tests: the example scripts run to the end and print their verdicts."""

import re
import subprocess
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def _run(script, *args):
    done = subprocess.run([sys.executable, str(SCRIPTS / script), *args],
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()


def test_rigidity_demo_passes_the_sphere_and_fails_the_eccentric_family():
    verdicts = [line for line in _run("run_rigidity_demo.py") if line.startswith("== ")]
    assert verdicts == [
        "== expanding sphere family r = e^t: PASS",
        "== eccentric family, axes (e^t, e^2t): FAIL",
    ]


def test_sphere_expansion_matches_the_radius_ode():
    errors = {}
    for line in _run("run_sphere_expansion.py", "--fast"):
        found = re.match(r"(.+?)\s+mesh radius .* rel err (\S+)", line)
        if found:
            errors[found.group(1)] = float(found.group(2))
    # the circle estimator is exact on circles; the icosphere's is second order
    assert errors.keys() == {"circle, speed 1/k", "circle, speed 1/k^0.5", "icosphere, speed 1/H"}
    assert errors["circle, speed 1/k"] < 1e-12
    assert errors["circle, speed 1/k^0.5"] < 1e-12
    assert errors["icosphere, speed 1/H"] < 1e-2
