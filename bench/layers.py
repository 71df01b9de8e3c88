"""The traced run and the per-layer metrics it yields.

Counts are per pass; times are totals over the traced passes divided by the
work unit each metric names, scaled to the reference host speed like
``study_s``.  A layer that a workload never calls reads 0.
"""

from __future__ import annotations

import collections
import statistics
import time

import reference
import spans
import study

# Root spans, one per CLI call; their self time is what the layer spans
# under them leave over (config handling, problem set-up, tables, echo).
EXPERIMENTS = ("ode-converge", "relax-forward", "relax-adjoint",
               "control-jinxin", "control-broadwell")


def _per(num, den):
    return num / den if den else 0.0


def layer_values(tr: spans.Tracer, n_passes: int, scale: float) -> dict:
    """Per-layer metrics; ``scale`` converts wall to reference seconds."""
    def secs(idxs):
        return scale * sum(tr.spans[i].seconds for i in idxs)

    def self_secs(idxs):
        return scale * sum(tr.self_seconds(i) for i in idxs)

    v = {}
    counts = tr.counts

    steps = tr.by_name("tableaus.step")
    v["tableaus.step.calls"] = len(steps) / n_passes
    v["tableaus.step.us_per_call"] = 1e6 * _per(secs(steps), len(steps))
    v["tableaus.step.newton_iters_per_call"] = _per(
        counts["problems.f_y@tableaus.step"], len(steps))
    v["tableaus.step.rhs_evals_per_call"] = _per(
        counts["problems.f@tableaus.step"], len(steps))
    v["problems.f.calls"] = counts["problems.f"] / n_passes
    v["problems.f_y.calls"] = counts["problems.f_y"] / n_passes

    fwd = tr.by_name("ode_control.solve_forward")
    fwd_steps = sum(tr.spans[i].detail for i in fwd)
    v["ode_control.solve_forward.us_per_step"] = 1e6 * _per(secs(fwd),
                                                            fwd_steps)
    v["ode_control.solve_forward.self_us_per_step"] = 1e6 * _per(
        self_secs(fwd), fwd_steps)
    for route in ("dto", "otd"):
        idxs = tr.by_name(f"ode_control.solve_adjoint_{route}")
        v[f"ode_control.solve_adjoint_{route}.us_per_step"] = 1e6 * _per(
            secs(idxs), sum(tr.spans[i].detail for i in idxs))

    for layer in ("forward_step", "adjoint_step"):
        idxs = tr.by_name(f"relaxation.{layer}")
        v[f"relaxation.{layer}.calls"] = len(idxs) / n_passes
        by_size = collections.defaultdict(list)
        for i in idxs:
            by_size[tr.spans[i].detail].append(i)
        for m, group in by_size.items():
            v[f"relaxation.{layer}.ns_per_node_step.nx{m}"] = (
                1e9 * secs(group) / (len(group) * m))
    v["relaxation.sample_shifted.calls"] = (
        counts["relaxation.sample_shifted"] / n_passes)
    stores = [tr.spans[i].detail for i in tr.by_name("relaxation.solve_forward")]
    v["relaxation.u_store_mb"] = max(stores, default=0) / 1e6

    opt = tr.by_name("control.optimize")
    iters = sum(len(tr.spans[i].detail) - 1 for i in opt)
    v["control.optimize.s_per_iteration"] = _per(secs(opt), iters)
    v["control.optimize.self_s_per_iteration"] = _per(
        self_secs(opt), iters)
    for kind in ("control-jinxin", "control-broadwell"):
        v[f"control.J_ratio.{kind}"] = 0.0
    for i in opt:
        J = tr.spans[i].detail
        kind = tr.spans[tr.spans[i].parent].name.split(".", 1)[1]
        v[f"control.J_ratio.{kind}"] = J[-1] / J[0]

    roots = []
    for kind in EXPERIMENTS:
        idxs = tr.by_name(f"experiments.{kind}")
        roots += idxs
        v[f"experiments.{kind}.s"] = secs(idxs) / n_passes
    bss = tr.by_name("experiments.backward_study_solution")
    v["experiments.backward_study_solution.us_per_step"] = 1e6 * _per(
        secs(bss), sum(tr.spans[i].detail for i in bss))
    csv = tr.by_name("experiments.write_csv")
    v["experiments.write_csv.s"] = secs(csv) / n_passes
    v["experiments.write_csv.mb"] = sum(
        tr.spans[i].detail for i in csv) / 1e6 / n_passes
    v["experiments.self_s"] = self_secs(roots) / n_passes
    return v


def traced_run(workload, invocations, seconds, tmp_root, record, spans_path):
    """Untraced and traced passes alternate until ``seconds`` have elapsed,
    so drift in host speed cancels from ``trace.overhead_frac``.

    Returns (per-layer values, attempted, failures); pass times go into
    ``record`` and the spans to ``spans_path``.
    """
    ref = reference.Reference(workload)
    tracer = spans.Tracer()
    compared = {}

    def timed(inv, fn):
        return tracer.wrap(f"experiments.{inv.kind}", fn)

    def inspect(inv, outcome):
        if outcome.ok:
            result = ref.compare(inv, outcome.files)
            if result is not None:
                compared[inv.step.conf] = result

    calibration = study.CALIBRATION[workload]
    untraced, traced = study.Passes(), study.Passes()
    deadline = time.perf_counter() + seconds
    while not traced.wall_s or time.perf_counter() < deadline:
        untraced.extend(study.run_passes(invocations, 0, tmp_root,
                                         calibration))
        with tracer.patched():
            traced.extend(study.run_passes(invocations, 0, tmp_root,
                                           calibration, timed, inspect))
    tracer.finish()
    tracer.dump(spans_path)
    scale = statistics.median(s / w for s, w in zip(traced.scaled_s,
                                                    traced.wall_s))
    values = layer_values(tracer, len(traced.wall_s), scale)
    values["experiments.artifacts_max_ulps"] = max(
        (c[0] for c in compared.values()), default=0)
    values["experiments.artifacts_files_changed"] = sum(
        c[1] for c in compared.values())
    values["trace.overhead_frac"] = (
        statistics.median(traced.scaled_s)
        / statistics.median(untraced.scaled_s) - 1.0)
    record.update(untraced_pass_wall_s=untraced.wall_s,
                  traced_pass_wall_s=traced.wall_s,
                  untraced_pass_scaled_s=untraced.scaled_s,
                  traced_pass_scaled_s=traced.scaled_s,
                  artifacts_compared=sorted(compared))
    attempted = (len(untraced.wall_s) + len(traced.wall_s)) * len(invocations)
    return values, attempted, untraced.failures + traced.failures
