"""Outside-in layer spans for the traced benchmark run.

``Tracer.patched()`` wraps public callables of the lmm_adjoint modules by
replacing module attributes where the caller looks them up, records one span
(name, start, end, parent, detail) per call in memory, and restores every
attribute on exit.  Nothing inside ``src/`` is instrumented.
"""

from __future__ import annotations

import collections
import contextlib
import dataclasses
import functools
import os
import time

from lmm_adjoint import control, experiments, ode_control, relaxation


@dataclasses.dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1
    detail: object = None

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Span and counter store of one traced run."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts = collections.Counter()
        self._stack: list[int] = []
        self._open = collections.Counter()  # span name -> open depth

    def wrap(self, name, fn, detail=None):
        """``fn`` recorded as a span; ``detail(args, result)`` annotates it."""
        spans, stack, open_ = self.spans, self._stack, self._open

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            span = Span(name, time.perf_counter(), parent=stack[-1] if stack else -1)
            spans.append(span)
            stack.append(idx)
            open_[name] += 1
            try:
                result = fn(*args, **kwargs)
            finally:
                open_[name] -= 1
                stack.pop()
                span.end = time.perf_counter()
            if detail is not None:
                span.detail = detail(args, result)
            return result
        return wrapper

    def count(self, name, fn, inside=None):
        """``fn`` counted under ``name``; calls made while a span named
        ``inside`` is open are also counted under ``name@inside``."""
        counts, open_ = self.counts, self._open

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            if inside is not None and open_[inside]:
                counts[f"{name}@{inside}"] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _counted_problem(self, factory):
        @functools.wraps(factory)
        def wrapper(*args, **kwargs):
            prob = factory(*args, **kwargs)
            prob.f = self.count("problems.f", prob.f, inside="tableaus.step")
            prob.f_y = self.count("problems.f_y", prob.f_y,
                                  inside="tableaus.step")
            return prob
        return wrapper

    @contextlib.contextmanager
    def patched(self):
        """Install the wrappers; every attribute is restored on exit."""
        n_steps = lambda grid_pos: (lambda args, result: args[grid_pos].N)
        n_nodes = lambda args, result: args[1].n_nodes
        store_bytes = lambda args, result: (result[1].nbytes
                                            if result[1] is not None else 0)
        ode_fwd = self.wrap("ode_control.solve_forward",
                            experiments.solve_forward, n_steps(2))
        relax_fwd = self.wrap("relaxation.solve_forward",
                              relaxation.solve_forward, store_bytes)
        relax_adj = self.wrap("relaxation.solve_adjoint",
                              relaxation.solve_adjoint)
        targets = [
            (ode_control, "step", self.wrap("tableaus.step", ode_control.step)),
            (experiments, "solve_forward", ode_fwd),
            (experiments, "solve_adjoint_dto",
             self.wrap("ode_control.solve_adjoint_dto",
                       experiments.solve_adjoint_dto, n_steps(2))),
            (experiments, "solve_adjoint_otd",
             self.wrap("ode_control.solve_adjoint_otd",
                       experiments.solve_adjoint_otd, n_steps(2))),
            (experiments, "backward_study_solution",
             self.wrap("experiments.backward_study_solution",
                       experiments.backward_study_solution,
                       lambda args, result: args[1])),
            (experiments, "optimize",
             self.wrap("control.optimize", experiments.optimize,
                       lambda args, result: [r["J"] for r in result.iterations])),
            (experiments, "write_csv",
             self.wrap("experiments.write_csv", experiments.write_csv,
                       lambda args, result: os.path.getsize(args[0]))),
            (experiments, "terminal_tracking_problem",
             self._counted_problem(experiments.terminal_tracking_problem)),
            (relaxation, "forward_step",
             self.wrap("relaxation.forward_step", relaxation.forward_step,
                       n_nodes)),
            (relaxation, "adjoint_step",
             self.wrap("relaxation.adjoint_step", relaxation.adjoint_step,
                       n_nodes)),
            (relaxation.LagrangianGrid, "sample_shifted",
             self.count("relaxation.sample_shifted",
                        relaxation.LagrangianGrid.sample_shifted)),
            # experiments call rx.solve_*; control bound them by name
            (relaxation, "solve_forward", relax_fwd),
            (relaxation, "solve_adjoint", relax_adj),
            (control, "solve_forward", relax_fwd),
            (control, "solve_adjoint", relax_adj),
        ]
        saved = [(owner, attr, owner.__dict__[attr])
                 for owner, attr, _ in targets]
        try:
            for owner, attr, wrapper in targets:
                setattr(owner, attr, wrapper)
            yield self
        finally:
            for owner, attr, original in saved:
                setattr(owner, attr, original)

    # ------------------------------------------------------------ analysis

    def self_seconds(self, idx: int) -> float:
        """Span duration minus the time its direct children cover."""
        return self.spans[idx].seconds - self._child_seconds[idx]

    def finish(self):
        """Sum each span's child time once all spans are closed."""
        self._child_seconds = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent >= 0:
                self._child_seconds[span.parent] += span.seconds

    def by_name(self, name: str) -> list[int]:
        return [i for i, s in enumerate(self.spans) if s.name == name]

    def dump(self, path: str):
        """Write the spans as tab-separated name, start, end, parent."""
        t0 = self.spans[0].start if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index\tname\tstart_s\tend_s\tparent\n")
            for i, s in enumerate(self.spans):
                fh.write(f"{i}\t{s.name}\t{s.start - t0:.9f}\t"
                         f"{s.end - t0:.9f}\t{s.parent}\n")
