"""Self-check of the study benchmark: one short run per workload and mode.

    python3 -m pytest bench/test_bench.py

Kept outside the tier-1 ``testpaths``; it takes about a minute.
"""

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
WORKLOADS = ("ode-tables", "relax-paper", "relax-wide")

END_TO_END = {
    "setup_s": ("s", "lower"),
    "study_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "ops_ok_frac": ("frac", "higher"),
}
PER_LAYER = {
    "tableaus.step.calls": "count",
    "tableaus.step.us_per_call": "us",
    "tableaus.step.newton_iters_per_call": "count",
    "tableaus.step.rhs_evals_per_call": "count",
    "problems.f.calls": "count",
    "problems.f_y.calls": "count",
    "ode_control.solve_forward.us_per_step": "us",
    "ode_control.solve_forward.self_us_per_step": "us",
    "ode_control.solve_adjoint_dto.us_per_step": "us",
    "ode_control.solve_adjoint_otd.us_per_step": "us",
    "relaxation.forward_step.calls": "count",
    "relaxation.adjoint_step.calls": "count",
    "relaxation.sample_shifted.calls": "count",
    "relaxation.u_store_mb": "MB",
    "control.optimize.s_per_iteration": "s",
    "control.optimize.self_s_per_iteration": "s",
    "control.J_ratio.control-jinxin": "ratio",
    "control.J_ratio.control-broadwell": "ratio",
    "experiments.ode-converge.s": "s",
    "experiments.relax-forward.s": "s",
    "experiments.relax-adjoint.s": "s",
    "experiments.control-jinxin.s": "s",
    "experiments.control-broadwell.s": "s",
    "experiments.backward_study_solution.us_per_step": "us",
    "experiments.write_csv.s": "s",
    "experiments.write_csv.mb": "MB",
    "experiments.self_s": "s",
    "experiments.artifacts_max_ulps": "ulp",
    "experiments.artifacts_files_changed": "count",
    "trace.overhead_frac": "frac",
}
PER_SIZE = re.compile(r"relaxation\.(forward|adjoint)_step\.ns_per_node_step\.nx\d+")


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _run(root, workload, trace, seconds=1):
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=root, capture_output=True, text=True, timeout=600)


def test_spec_names_every_metric_with_unit_and_direction():
    spec = _spec()
    e2e = {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]}
    assert e2e == END_TO_END
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
    layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    sized = {n for n in layer if PER_SIZE.fullmatch(n)}
    assert {n: u for n, u in layer.items() if n not in sized} == PER_LAYER
    assert all(layer[n] == "ns" for n in sized)
    assert all(m["better"] == "lower" for m in spec["per_layer"])
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


@pytest.fixture(scope="module")
def short_runs():
    """(workload, trace) -> (final JSON line, run record) of one-pass runs."""
    out = {}
    for workload in WORKLOADS:
        for trace in (0, 1):
            proc = _run(ROOT, workload, trace)
            assert proc.returncode == 0, proc.stderr
            record = os.path.join(ROOT, ".bench_runs",
                                  f"{workload}-seed3-trace{trace}.json")
            with open(record, encoding="utf-8") as fh:
                out[workload, trace] = (
                    json.loads(proc.stdout.strip().splitlines()[-1]),
                    json.load(fh))
    return out


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", (0, 1))
def test_short_run_reports_every_metric(short_runs, workload, trace):
    result, _ = short_runs[workload, trace]
    declared = _spec()["per_layer" if trace else "end_to_end"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    assert {n: m["unit"] for n, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared}


def test_every_declared_layer_metric_is_measured_somewhere(short_runs):
    seen = set()
    for workload in WORKLOADS:
        seen |= set(short_runs[workload, 1][1]["computed"])
    assert {m["name"] for m in _spec()["per_layer"]} == seen


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "ode-tables", 0)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_config_typo_exits_2(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "src"), tmp_path / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    conf = tmp_path / "bench" / "workloads" / "ode-tables" / "const-fy.conf"
    conf.write_text(conf.read_text() + "n_lsit = 40,80\n")
    proc = _run(tmp_path, "ode-tables", 0)
    assert proc.returncode == 2
    assert "n_lsit" in proc.stderr
