"""Hyperflow benchmark: one workload, one seed, one process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from its
``src`` directory.  After set-up and one untimed warm-up operation:

* ``--trace 0`` repeats whole cycles of the workload's operation for about
  S seconds and reports the end-to-end metrics;
* ``--trace 1`` runs each operation of one cycle untraced and then traced,
  a fixed amount of work whose counts repeat exactly for a seed, and reports
  the per-layer metrics.

The last line of standard output is the result object; the line before it
records the environment and the sample counts.  Gates run outside the timed
sections.
"""

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"
SETUP_REPS = 5  # set-up builds per run; setup_s takes their median
HARD_STOP_S = 120.0  # start no further cycle after this, whatever --seconds says


def _read(path: str) -> str:
    try:
        with open(path) as fh:
            return fh.read()
    except OSError:
        return ""


def _cap_blas_threads() -> str:
    """Cap OpenBLAS, the only thread pool, at the cores this process may use."""
    nproc = len(os.sched_getaffinity(0))
    requested = os.environ.get("OPENBLAS_NUM_THREADS", "")
    threads = min(int(requested), nproc) if requested.isdigit() and int(requested) > 0 else nproc
    os.environ["OPENBLAS_NUM_THREADS"] = str(threads)
    return os.environ["OPENBLAS_NUM_THREADS"]


def _environment(loadavg: str, blas_threads: str) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = next(
        (line.split(":", 1)[1].strip() for line in _read("/proc/cpuinfo").splitlines()
         if line.startswith("model name")),
        platform.processor(),
    )
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "OPENBLAS_NUM_THREADS": blas_threads,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "loadavg_at_start": loadavg.strip(),
    }


def main() -> int:
    loadavg = _read("/proc/loadavg")
    blas_threads = _cap_blas_threads()
    src = ROOT / "src"
    if not (src / "hyperflow" / "__init__.py").is_file():
        print(f"benchmark: no hyperflow package under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))

    import numpy as np

    import hyperflow
    import tracer as tracing
    from workloads import WORKLOADS

    if Path(hyperflow.__file__).resolve().parent != src / "hyperflow":
        print(f"benchmark: imported hyperflow from {hyperflow.__file__}, not {src}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - _START

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    wl = WORKLOADS[args.workload]

    workdir = OUT / f"work-{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        builds = []
        for _ in range(SETUP_REPS):
            t0 = time.perf_counter()
            inputs = wl.build(args.seed, workdir)
            builds.append(time.perf_counter() - t0)
        setup_s = import_s + statistics.median(builds)

        failures: list[str] = []
        ops = 0

        def run_op(i: int, tracer=None) -> float:
            """Run, and then check, operation i; return its wall time."""
            nonlocal ops
            ops += 1
            op_args = wl.prepare(inputs, i)
            if tracer is not None:
                tracing.install(tracer)
            result = None
            t0 = time.perf_counter()
            try:
                result = wl.run(inputs, op_args)
            except Exception:  # a failed operation is counted, the run goes on
                failures.append(f"op {i}: {traceback.format_exc(limit=3)}")
            finally:
                latency = time.perf_counter() - t0
                if tracer is not None:
                    tracer.uninstall()
            if result is not None:
                try:
                    message = wl.check(inputs, i, op_args, result)
                except Exception:
                    message = traceback.format_exc(limit=3)
                if message is not None:
                    failures.append(f"op {i}: {message}")
            return latency

        # One untimed operation first: the allocator's first pass over the
        # workload's array sizes page-faults far more than later passes
        # (glibc raises its mmap threshold only after freeing big blocks).
        run_op(0)
        if args.trace:
            # Each operation of one cycle runs untraced, then traced, so that
            # the difference (the tracing overhead) sees the same machine load.
            tr = tracing.Tracer()
            untraced_s = traced_s = 0.0
            for i in range(1, wl.cycle + 1):
                untraced_s += run_op(i)
                traced_s += run_op(i, tr)
            metrics = tracing.layer_metrics(tr, wl.requested_steps())
            metrics["trace.wall_s"] = (traced_s, "s")
            metrics["trace.overhead_s"] = (traced_s - untraced_s, "s")
            tr.save(str(OUT / f"spans-{args.workload}-seed{args.seed}.npz"))
            cycles = 1
        else:
            latencies: list[float] = []
            cycle_walls: list[float] = []
            started = time.perf_counter()
            # Whole cycles until the measured time is nearest to --seconds.
            while True:
                lat = [run_op(i) for i in range(ops, ops + wl.cycle)]
                latencies += lat
                cycle_walls.append(sum(lat))
                elapsed = time.perf_counter() - started
                if elapsed + 0.5 * elapsed / len(cycle_walls) >= args.seconds or elapsed >= HARD_STOP_S:
                    break
            p50, p90 = np.percentile(np.array(latencies) * 1e3, [50, 90])
            metrics = {
                "setup_s": (setup_s, "s"),
                "wall_s": (statistics.median(cycle_walls), "s"),
                "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
                "query_ms_p50": (float(p50), "ms"),
                "query_ms_p90": (float(p90), "ms"),
            }
            cycles = len(cycle_walls)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for message in failures:
        print(f"benchmark: failed {message}", file=sys.stderr)
    print(json.dumps({
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "samples": {"ops": ops, "cycles": cycles, "ops_per_cycle": wl.cycle, "setup_builds": SETUP_REPS},
        "environment": _environment(loadavg, blas_threads),
    }))
    print(json.dumps({
        "correct": not failures,
        "attempted": ops,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
