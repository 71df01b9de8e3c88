"""Study benchmark of lmm-adjoint: one command per workload and seed.

    python3 bench/run.py --workload ode-tables --seed 0 --seconds 30 --trace 0

The load is a closed loop in this one process and thread: passes of the
workload's CLI experiments run back to back through ``lmm_adjoint.cli.main``
until ``--seconds`` have elapsed (at least one pass).  Every invocation's
artifacts are checked.  The last stdout line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics of ``BENCHMARK.json`` with ``--trace 0``, its per-layer metrics with
``--trace 1``.  A run record with the host facts the timings depend on goes
to ``.bench_runs/`` in the checkout, next to the traced run's spans.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUNS_DIR = os.path.join(ROOT, ".bench_runs")
SETUP_REPEATS = 7


def _read_cpu_stat():
    """Aggregate /proc/stat cpu jiffies (user .. steal), or None."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            fields = fh.readline().split()
    except OSError:
        return None
    return [int(v) for v in fields[1:9]]


def _steal_share(before, after):
    if before is None or after is None:
        return None
    delta = [b - a for a, b in zip(before, after)]
    return delta[7] / sum(delta) if sum(delta) > 0 else 0.0


def _commit():
    """HEAD of the checkout when it is itself a git repository, else None."""
    try:
        out = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 or lines[0] != os.path.realpath(ROOT):
        return None
    return lines[1]


def measure_setup(workload: str, seed: int, small) -> tuple[list, list]:
    """Set-up time of fresh interpreters: from launch until lmm_adjoint is
    imported and the workload's configs are parsed.

    Each interpreter then times ``small``, the small-array calibration
    (set-up is interpreter-bound whatever the workload), which gives the
    scaled time.  Returns (wall seconds, scaled seconds); one launch before
    them writes bytecode.
    """
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); import study; "
            "study.load_workload(sys.argv[2], int(sys.argv[3])); "
            "print(time.perf_counter(), study.SMALL.seconds())")
    cmd = [sys.executable, "-c", code, HERE, workload, str(seed)]
    wall, scaled = [], []
    for i in range(SETUP_REPEATS + 1):
        t0 = time.perf_counter()  # one clock for all processes on Linux
        out = subprocess.run(cmd, check=True, cwd=ROOT, capture_output=True,
                             text=True).stdout.split()
        if i:
            wall.append(float(out[0]) - t0)
            cal = float(out[1])
            scaled.append(small.scaled(wall[-1], cal, cal))
    return wall, scaled


def tail_percentile(values):
    """Highest percentile with at least ten samples beyond it, or None."""
    n = len(values)
    if n < 20:
        return None
    pct = 100 * (1 - 10 / n)
    return pct, statistics.quantiles(values, n=100)[int(pct) - 1]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        import study
    except ImportError as exc:
        print(f"bench: cannot import the program: {exc}", file=sys.stderr)
        return 2
    import layers
    from lmm_adjoint.config import ConfigError

    if args.workload not in study.WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}; known: "
              f"{sorted(study.WORKLOADS)}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    try:
        invocations = study.load_workload(args.workload, args.seed)
    except (OSError, ConfigError) as exc:
        print(f"bench: config error: {exc}", file=sys.stderr)
        return 2

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    os.makedirs(RUNS_DIR, exist_ok=True)
    tmp_root = tempfile.mkdtemp(prefix=f"{tag}-", dir=RUNS_DIR)
    cpu0, load0, t_start = _read_cpu_stat(), os.getloadavg(), time.time()
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace}
    try:
        if args.trace:
            values, attempted, failures = layers.traced_run(
                args.workload, invocations, args.seconds, tmp_root, record,
                os.path.join(RUNS_DIR, f"{tag}-spans.tsv"))
            record["computed"] = sorted(values)
        else:
            setup_wall, setup = measure_setup(args.workload, args.seed,
                                              study.SMALL)
            passes = study.run_passes(invocations, args.seconds, tmp_root,
                                      study.CALIBRATION[args.workload])
            failures = passes.failures
            attempted = len(passes.wall_s) * len(invocations)
            record.update(setup_wall_s=setup_wall, setup_scaled_s=setup,
                          pass_wall_s=passes.wall_s,
                          pass_scaled_s=passes.scaled_s,
                          calibration_s=passes.calibration_s,
                          wall_median_s=statistics.median(passes.wall_s),
                          tail=tail_percentile(passes.scaled_s))
            values = {
                "setup_s": statistics.median(setup),
                "study_s": statistics.median(passes.scaled_s),
                "peak_rss_mb": resource.getrusage(
                    resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
                "ops_ok_frac": 1.0 - len(failures) / attempted,
            }
    finally:
        shutil.rmtree(tmp_root, ignore_errors=True)

    import numpy
    record.update(
        failures=failures,
        host={"nproc": os.cpu_count(),
              "affinity": len(os.sched_getaffinity(0)),
              "loadavg_start": load0, "loadavg_end": os.getloadavg(),
              "steal_share": _steal_share(cpu0, _read_cpu_stat()),
              "blas_threads": {v: os.environ.get(v) for v in
                               ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                "MKL_NUM_THREADS")},
              "numpy": numpy.__version__,
              "python": platform.python_version(),
              "commit": _commit(),
              "wall_s": time.time() - t_start})
    with open(os.path.join(RUNS_DIR, f"{tag}.json"), "w",
              encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    for failure in failures:
        print(f"bench: failed invocation {failure}", file=sys.stderr)

    names = [m["name"] for m in declared]
    # a per-layer metric of a layer (or grid size) this workload never runs
    # reads 0; every end-to-end metric must have been measured
    missing = [] if args.trace else sorted(set(names) - set(values))
    undeclared = sorted(set(values) - set(names))
    if missing or undeclared:
        print(f"bench: metrics not measured {missing}, not declared in "
              f"BENCHMARK.json {undeclared}", file=sys.stderr)
        return 1
    metrics = {m["name"]: {"value": values.get(m["name"], 0.0),
                           "unit": m["unit"]} for m in declared}
    print(json.dumps({"run_record": os.path.relpath(
        os.path.join(RUNS_DIR, f"{tag}.json"), ROOT), "host": record["host"]}))
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
