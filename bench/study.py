"""Workloads of the study benchmark: configs, invocations and output checks.

A workload is a fixed sequence of CLI experiments, each described by a flat
``key = value`` file in ``bench/workloads/<workload>/``.  Seed 0 runs the
files as checked in; other seeds perturb only shape parameters (Gaussian
centres and widths), so the work per pass is the same on every seed.

Importing this module imports ``lmm_adjoint`` from the checkout's ``src/``.
"""

from __future__ import annotations

import contextlib
import dataclasses
import glob
import hashlib
import io
import math
import os
import random
import sys
import tempfile
import time
import traceback

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")

# The program is single-threaded; pin BLAS/OpenMP before numpy loads so the
# closed loop runs on one thread whatever the host's core count.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

if not os.path.isdir(os.path.join(SRC, "lmm_adjoint")):
    raise ImportError(f"lmm_adjoint sources not found under {SRC}")
sys.path.insert(0, SRC)

import numpy as np  # noqa: E402

from lmm_adjoint import cli  # noqa: E402
from lmm_adjoint.config import (CONFIG_REFERENCE, Config, ConfigError,  # noqa: E402
                                load_config, serialize_config)


# Keys a seed may perturb, per experiment kind: (centre key, width key).
SHAPE_KEYS = {
    "relax-forward": ("u0_center", "u0_width"),
    "relax-adjoint": ("terminal_center", "terminal_width"),
}


class CheckFailed(Exception):
    """An invocation's artifacts break a paper-level check."""


# ------------------------------------------------------------------ checks

def read_csv(path):
    """(header, rows) with numeric cells as floats, text cells as str and
    empty cells (intentional NaN) as None."""
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n").split(",")
        rows = []
        for line in fh:
            row = []
            for cell in line.rstrip("\n").split(","):
                if cell == "":
                    row.append(None)
                    continue
                try:
                    row.append(float(cell))
                except ValueError:
                    row.append(cell)
            rows.append(row)
    return header, rows


def _column(rows, j):
    return [r[j] for r in rows]


def check_orders(thresholds):
    """Finest-pair state-error orders of the full-system table."""
    def check(tables):
        for scheme, thr in thresholds.items():
            rate = tables[f"table_full-system_{scheme}.csv"][1][-1][2]
            if not rate >= thr:
                raise CheckFailed(f"{scheme} finest-pair order {rate} < {thr}")
    return check


def check_const_fy(tables):
    """DtO and OtD columns identical; AM4 error at the finest N <= 1e-13."""
    for name, (_, rows) in tables.items():
        if _column(rows, 1) != _column(rows, 3):
            raise CheckFailed(f"{name}: DtO and OtD error columns differ")
    _, am4 = tables["table_const-fy_AM4.csv"]
    if am4[-1][0] != 640 or not am4[-1][3] <= 1e-13:
        raise CheckFailed(f"AM4 error at N=640 is {am4[-1][3]}, bound 1e-13")


def check_mass(tables):
    """Relative mass drift of the forward run <= 1e-10."""
    mass = _column(tables["forward_mass.csv"][1], 2)
    drift = max(abs(m - mass[0]) for m in mass) / abs(mass[0])
    if not drift <= 1e-10:
        raise CheckFailed(f"mass drift {drift:.3e} > 1e-10")


def check_j_ratio(kind, bound):
    """J(end)/J(0) of the descent log <= bound."""
    def check(tables):
        J = _column(tables[f"{kind}_iterations.csv"][1], 1)
        if not J[-1] / J[0] <= bound:
            raise CheckFailed(f"J(end)/J(0) = {J[-1] / J[0]:.4g} > {bound}")
    return check


def check_j_nonincreasing(kind):
    def check(tables):
        J = _column(tables[f"{kind}_iterations.csv"][1], 1)
        if any(b > a for a, b in zip(J, J[1:])):
            raise CheckFailed(f"J increases during descent: {J}")
    return check


def no_check(tables):
    pass


# --------------------------------------------------------------- workloads

@dataclasses.dataclass(frozen=True)
class Step:
    """One CLI invocation of a workload: its config file and the artifacts
    and paper-level check it must produce."""

    conf: str                  # file name under bench/workloads/<workload>/
    expected: tuple            # artifact file names the invocation must write
    check: object = no_check


def _control_files(kind):
    return tuple(f"{kind}_{name}.csv" for name in (
        "iterations", "control_final", "control_true", "state_terminal",
        "target_terminal"))


WORKLOADS = {
    "ode-tables": (
        Step("full-system.conf",
             tuple(f"table_full-system_{s}.csv" for s in ("BDF3", "BDF4", "BDF6")),
             check_orders({"BDF3": 2.9, "BDF4": 3.9, "BDF6": 5.5})),
        Step("const-fy.conf",
             tuple(f"table_const-fy_{s}.csv"
                   for s in ("ExplicitEuler", "AB3", "AM4")),
             check_const_fy),
        Step("quadratic-fy.conf",
             tuple(f"table_quadratic-fy_{s}.csv" for s in ("AM4", "BDF4"))),
    ),
    "relax-paper": (
        Step("relax-forward.conf", ("forward_t224.csv", "forward_mass.csv"),
             check_mass),
        Step("relax-adjoint.conf",
             ("adjoint_eps_study.csv",) + tuple(
                 f"adjoint_eps{e}_p0.csv" for e in ("1", "0.1", "0.01",
                                                    "0.001", "0.0001"))),
        Step("control-jinxin.conf", _control_files("control-jinxin"),
             check_j_ratio("control-jinxin", 0.05)),
        Step("control-broadwell.conf", _control_files("control-broadwell"),
             check_j_ratio("control-broadwell", 0.1)),
    ),
    "relax-wide": (
        Step("control-jinxin.conf", _control_files("control-jinxin"),
             check_j_nonincreasing("control-jinxin")),
        Step("relax-forward.conf",
             ("forward_t125.csv", "forward_t250.csv", "forward_mass.csv"),
             check_mass),
    ),
}


@dataclasses.dataclass
class Invocation:
    """A workload step with its effective (seeded) config."""

    step: Step
    cfg: Config

    @property
    def kind(self) -> str:
        return self.cfg.kind

    @property
    def text(self) -> str:
        return serialize_config(self.cfg)

    @property
    def config_sha256(self) -> str:
        return hashlib.sha256(self.text.encode()).hexdigest()


def _known_keys(kind):
    return {k for key in CONFIG_REFERENCE[kind] for k in key.split("/")}


def load_workload(name: str, seed: int) -> list[Invocation]:
    """Parse and validate a workload's configs and apply the seed.

    A key the experiment does not document, or a file without its
    ``[experiment]`` header, raises ``ConfigError`` instead of silently
    running a different workload.
    """
    out = []
    for step in WORKLOADS[name]:
        path = os.path.join(BENCH_DIR, "workloads", name, step.conf)
        cfg = load_config(path)
        if cfg.kind is None:
            raise ConfigError(f"{path}: missing [experiment] header")
        unknown = set(cfg.values) - _known_keys(cfg.kind)
        if unknown:
            raise ConfigError(f"{path}: unknown keys {sorted(unknown)}")
        if seed != 0 and cfg.kind in SHAPE_KEYS:
            rng = random.Random(f"{seed}/{name}/{step.conf}")
            centre, width = SHAPE_KEYS[cfg.kind]
            cfg.values[centre] = repr(float(cfg.values[centre])
                                      + rng.uniform(-0.5, 0.5))
            cfg.values[width] = repr(float(cfg.values[width])
                                     * rng.uniform(0.8, 1.25))
        out.append(Invocation(step, cfg))
    return out


# -------------------------------------------------------------- invocation

@dataclasses.dataclass
class Outcome:
    seconds: float
    ok: bool
    error: str = ""
    files: dict = dataclasses.field(default_factory=dict)  # name -> path


def run_invocation(inv: Invocation, out_dir: str, timed=None) -> Outcome:
    """Run one experiment through ``lmm_adjoint.cli.main`` into ``out_dir``
    and check its artifacts.  Only the CLI call is timed; ``timed`` may wrap
    the call (the traced run opens its experiment span there)."""
    conf_path = os.path.join(out_dir, "experiment.conf")
    with open(conf_path, "w", encoding="utf-8") as fh:
        fh.write(inv.text)
    art_dir = os.path.join(out_dir, "artifacts")
    argv = [inv.kind, "--config", conf_path, "--out", art_dir]
    call = cli.main if timed is None else timed(cli.main)
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            rc = call(argv)
    except Exception:  # a crash is a failed invocation, not a failed run
        return Outcome(time.perf_counter() - t0, False, traceback.format_exc())
    seconds = time.perf_counter() - t0
    if rc != 0:
        return Outcome(seconds, False, f"exit code {rc}")
    for name in inv.step.expected:
        if not os.path.isfile(os.path.join(art_dir, name)):
            return Outcome(seconds, False, f"missing artifact {name}")
    files = {os.path.basename(p): p
             for p in sorted(glob.glob(os.path.join(art_dir, "*.csv")))}
    try:
        tables = {}
        for name, path in files.items():
            header, rows = read_csv(path)
            for row in rows:
                for v in row:
                    if isinstance(v, float) and not math.isfinite(v):
                        raise CheckFailed(f"{name}: non-finite value {v}")
            tables[name] = (header, rows)
        inv.step.check(tables)
    except (CheckFailed, LookupError, ArithmeticError, TypeError) as exc:
        return Outcome(seconds, False, f"{type(exc).__name__}: {exc}", files)
    return Outcome(seconds, True, "", files)


# CPU speed on a shared host can swing by up to 2x over seconds, on wall and
# CPU time alike, and a slow phase can outlast a whole run.  Pass times are
# therefore also reported scaled to a reference host speed, measured by a
# fixed kernel of the workload's kind of work run between invocations.  The
# kernels call nothing from lmm_adjoint, so a change to the program never
# moves them.

@dataclasses.dataclass(frozen=True)
class Calibration:
    """A calibration kernel and its wall time at the reference host speed."""

    kernel: object
    ref_s: float

    def seconds(self) -> float:
        """Shortest of three back-to-back kernel runs, so that a stall of a
        few milliseconds does not read as a slow phase."""
        best = math.inf
        for _ in range(3):
            t0 = time.perf_counter()
            self.kernel()
            best = min(best, time.perf_counter() - t0)
        return best

    def scaled(self, seconds, cal_before, cal_after) -> float:
        """``seconds`` at the reference host speed, from the kernel timed
        right before and right after."""
        return seconds * self.ref_s / (0.5 * (cal_before + cal_after))


_SMALL = np.arange(640.0)
_WIDE = np.linspace(0.0, 1.0, 40960)
_WIDE_STORE = np.empty((16, 40960))


def _small_array_kernel():
    """Interpreter-bound loops over small arrays, like paper-size steps."""
    s, d = 0.0, {}
    for i in range(500):
        b = np.roll(_SMALL, i % 7)
        s += float(b[3] * 0.5 + b[5])
        d[i & 63] = d.get(i & 63, 0) + i
        s += sum(x * 0.5 for x in (1.0, 2.0, 3.0))


def _wide_array_kernel():
    """Shifts and updates of 40960-node arrays written to a store, like
    wide-grid steps."""
    a = _WIDE.copy()
    for i in range(64):
        a = 0.5 * np.roll(a, 1 + i % 3) + 0.5 * a
        _WIDE_STORE[i % 16] = a


SMALL = Calibration(_small_array_kernel, 0.006)
WIDE = Calibration(_wide_array_kernel, 0.006)
CALIBRATION = {"ode-tables": SMALL, "relax-paper": SMALL, "relax-wide": WIDE}


@dataclasses.dataclass
class Passes:
    """Wall and scaled seconds per pass, kernel times and failed
    invocations of a closed loop."""

    wall_s: list = dataclasses.field(default_factory=list)
    scaled_s: list = dataclasses.field(default_factory=list)
    calibration_s: list = dataclasses.field(default_factory=list)
    failures: list = dataclasses.field(default_factory=list)

    def extend(self, other: "Passes"):
        for f in dataclasses.fields(self):
            getattr(self, f.name).extend(getattr(other, f.name))


def run_passes(invocations, seconds, tmp_root, calibration: Calibration,
               timed=None, inspect=None) -> Passes:
    """Closed loop of whole passes until ``seconds`` have elapsed.

    The calibration kernel runs before each invocation and after the last
    one; each invocation's wall time is also recorded scaled by the kernel
    times around it.  ``timed`` wraps each CLI call; ``inspect(inv,
    outcome)`` sees each outcome while its artifacts exist.
    """
    out = Passes()
    deadline = time.perf_counter() + seconds
    while True:
        wall = scaled_total = 0.0
        cal = calibration.seconds()
        out.calibration_s.append(cal)
        for inv in invocations:
            with tempfile.TemporaryDirectory(dir=tmp_root) as tmp:
                wrap = None if timed is None else (lambda fn: timed(inv, fn))
                outcome = run_invocation(inv, tmp, wrap)
                if inspect is not None:
                    inspect(inv, outcome)
            cal_after = calibration.seconds()
            out.calibration_s.append(cal_after)
            wall += outcome.seconds
            scaled_total += calibration.scaled(outcome.seconds, cal, cal_after)
            cal = cal_after
            if not outcome.ok:
                out.failures.append(f"{inv.step.conf}: {outcome.error}")
        out.wall_s.append(wall)
        out.scaled_s.append(scaled_total)
        if time.perf_counter() >= deadline:
            return out
