"""Run-to-run spread of the end-to-end metrics, one seed per run.

    python3 perfbench/spread.py [--workloads a,b] [--seeds 0-9] [--out FILE]

Runs the command in BENCHMARK.json once per workload and seed with tracing
off, one run at a time, and prints for each metric the median and the
interquartile range as a share of the median (statistics.quantiles, n=4),
against the metric's bound.  ``--out`` keeps every result as JSON lines.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", default="0-9")
    parser.add_argument("--out", default=None)
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    log = open(args.out, "a") if args.out else None
    try:
        for workload in args.workloads.split(","):
            values: dict[str, list[float]] = {name: [] for name in bounds}
            for seed in _seeds(args.seeds):
                cmd = spec["command"] + [
                    "--workload", workload, "--seed", str(seed),
                    "--seconds", str(spec["run_seconds"]), "--trace", "0",
                ]
                proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
                lines = proc.stdout.strip().splitlines()
                if proc.returncode != 0 or not lines:
                    print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
                    return 1
                result = json.loads(lines[-1])
                if log:
                    record = {"workload": workload, "seed": seed, **result}
                    if len(lines) > 1:
                        record["run"] = json.loads(lines[-2])
                    log.write(json.dumps(record) + "\n")
                    log.flush()
                if not result["correct"] or result["failed"]:
                    print(f"{workload} seed {seed}: {result['failed']} failed ops\n{proc.stderr}", file=sys.stderr)
                for name in bounds:
                    values[name].append(result["metrics"][name]["value"])
            for name, vals in values.items():
                median = statistics.median(vals)
                q1, _, q3 = statistics.quantiles(vals, n=4)
                share = (q3 - q1) / median
                flag = "" if share < bounds[name] / 3 else "  <-- above a third of the bound"
                print(f"{workload:16s} {name:13s} median {median:12.5g}  iqr/median {share:7.4f}"
                      f"  bound {bounds[name]:.2f}{flag}")
            sys.stdout.flush()
    finally:
        if log:
            log.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
