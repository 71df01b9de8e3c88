"""The argument positions that the benchmark's span tracer reads.

``bench/spans.py`` wraps the solvers and reads their arguments by position:
the grid of both relaxation steps, the forward store that
``relaxation.solve_forward`` returns (also when a descent passes it
back as ``out``), and the ``TimeGrid`` of the ODE sweeps.  One tiny run of each kind through ``cli.main`` inside
``Tracer().patched()`` notices when those positions move.
"""

import importlib.util
import pathlib
import sys

from lmm_adjoint import cli

SPANS = pathlib.Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def load_spans():
    """``bench/spans.py`` imported by path, once (its dataclass looks its
    module up in ``sys.modules``)."""
    if "bench_spans" not in sys.modules:
        spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
        module = importlib.util.module_from_spec(spec)
        sys.modules[spec.name] = module
        spec.loader.exec_module(module)
    return sys.modules["bench_spans"]


def traced_run(tmp_path, kind, body):
    """Spans of one CLI run, by name: a list of the span details."""
    conf = tmp_path / "c.conf"
    conf.write_text(f"[{kind}]\n{body}")
    tracer = load_spans().Tracer()
    with tracer.patched():
        assert cli.main([kind, "--config", str(conf),
                         "--out", str(tmp_path)]) == 0
    details = {}
    for span in tracer.spans:
        details.setdefault(span.name, []).append(span.detail)
    return details


def test_relaxation_spans_read_the_grid_and_the_store(tmp_path):
    details = traced_run(tmp_path, "relax-forward",
                         "flux = burgers\nnx = 41\nT = 0.1\nscheme = BDF2\n")
    steps = details["relaxation.forward_step"]
    assert steps and set(steps) == {40}  # n_nodes of the periodic grid
    (store,) = details["relaxation.solve_forward"]
    assert store > 0


def test_descent_spans_read_one_store_per_forward_solve(tmp_path):
    # the target solve, then one forward solve per iteration and the last
    # one; the descent passes its store back as ``out`` by keyword, so the
    # wrapper still finds the store in the result
    details = traced_run(tmp_path, "control-jinxin",
                         "nx = 41\ndt = 0.05\nT = 0.3\niterations = 3\n")
    stores = details["relaxation.solve_forward"]
    assert len(stores) == 3 + 2
    assert len(set(stores)) == 1 and stores[0] == 8 * 7 * 40


def test_ode_spans_carry_the_step_count(tmp_path):
    details = traced_run(tmp_path, "ode-converge",
                         "study = full-system\nschemes = BDF2\n"
                         "n_list = 10,20\nT = 0.5\n")
    for name in ("ode_control.solve_forward", "ode_control.solve_adjoint_dto",
                 "ode_control.solve_adjoint_otd"):
        assert details[name] == [10, 20], name
    assert len(details["tableaus.step"]) == 10 + 20  # one per forward step
