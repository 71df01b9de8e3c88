"""Experiment drivers: convergence tables, relaxation runs, control loops.

Every driver returns the table rows it writes, emits deterministic CSV
artifacts (17 significant digits), and mirrors each table on stdout in
aligned columns for desk-scale comparison.

Convergence-table errors are reported under two conventions side by side:
``err_*`` is the plain max-norm deviation of the computed multipliers from
the exact solution; ``err_*_extrap`` is the deviation of the
observed-order Richardson extrapolant of consecutive-grid solutions, the
recorded reproduction attempt for published tables whose rate convention
exceeds the schemes' nominal orders.  The prescribed studies run the
generic adjoint solvers on a long-double grid so both columns stay clear of
roundoff on the finest grids.
"""

from __future__ import annotations

import itertools
import os

import numpy as np

from . import relaxation as rx
from .config import _STUDY_HORIZONS, Config, ConfigError, settings
from .control import TrackingFunctional, optimize
from .ode_control import (prescribed_trajectory, solve_adjoint_dto,
                          solve_adjoint_otd, solve_forward)
from .problems import (constant_coefficient_study, quadratic_coefficient_study,
                       terminal_tracking_problem)
from .tableaus import MultistepTableau, TimeGrid


# ---------------------------------------------------------------- utilities

_CSV_BLOCK = 4096  # rows formatted per write; bounds the text held at once


def _column(cells) -> list[str]:
    """CSV fields of one column: None and NaN cells empty, str cells as they
    are, and every other cell ``%.17g``, all in one format operation."""
    if isinstance(cells, np.ndarray):
        cells = cells.tolist()
    blank = [isinstance(c, str) or c is None or c != c for c in cells]
    nums = [c for c, b in zip(cells, blank) if not b]
    text = iter(("%.17g\n" * len(nums) % tuple(nums)).split("\n"))
    return [(c if isinstance(c, str) else "") if b else next(text)
            for c, b in zip(cells, blank)]


def write_csv(path, header, rows):
    """Write ``header`` and ``rows`` (a sequence of rows or a 2-D array).

    Numbers get 17 significant digits, None and NaN cells are left empty and
    str cells are written as they are; a row shorter than the longest of
    its block is padded with empty cells.  ``_CSV_BLOCK`` rows go out per
    write.  A block of a numeric array without NaN is formatted in one
    ``%`` operation over all its cells; every other block (row lists,
    blank cells) a column at a time by ``_column``.  Both run the same
    ``%.17g`` conversion on the same Python numbers, so the bytes agree.
    """
    numeric = (isinstance(rows, np.ndarray) and rows.ndim == 2
               and rows.shape[1] > 0 and rows.dtype.kind in "fiu")
    if numeric:
        line = ",".join(["%.17g"] * rows.shape[1]) + "\n"
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for start in range(0, len(rows), _CSV_BLOCK):
            block = rows[start:start + _CSV_BLOCK]
            if numeric and not np.isnan(block).any():
                fh.write(line * len(block) % tuple(block.ravel().tolist()))
                continue
            columns = (block.T if isinstance(block, np.ndarray)
                       else itertools.zip_longest(*block))
            fh.writelines(",".join(row) + "\n"
                          for row in zip(*map(_column, columns)))


def echo_table(title, header, rows):
    width = max(14, max(len(h) for h in header) + 2)
    print(title)
    print("  " + "".join(f"{h:>{width}}" for h in header))
    for row in rows:
        cells = []
        for v in row:
            if isinstance(v, str):
                cells.append(f"{v:>{width}}")
            elif v is None or (isinstance(v, float) and np.isnan(v)):
                cells.append(" " * width)
            elif isinstance(v, (int, np.integer)):
                cells.append(f"{v:>{width}d}")
            else:
                cells.append(f"{float(v):>{width}.6e}")
        print("  " + "".join(cells))
    print()


# ------------------------------------------------ prescribed adjoint studies

_STUDY_PROBLEMS = {"const-fy": constant_coefficient_study,
                   "quadratic-fy": quadratic_coefficient_study}


def backward_study_solution(tab: MultistepTableau, N: int, T, study,
                            route: str) -> np.ndarray:
    """Multipliers p_0..p_N for a prescribed-coefficient adjoint study.

    ``study`` is a problem factory of :mod:`lmm_adjoint.problems` taking T.
    Its exact state is prescribed on a long-double grid, and the route's
    generic solver sweeps it with the terminal history (indices N..N+s-1)
    sampled from the exact multiplier: ``route='otd'`` applies the tableau
    to the time-reversed continuous equation, ``route='dto'`` is the
    transposed recurrence.
    """
    if route not in ("dto", "otd"):
        raise ValueError(f"unknown route {route!r}")
    grid = TimeGrid(np.longdouble(T), N)
    problem = study(grid.T)
    traj = prescribed_trajectory(grid, tab.s, problem.y_exact)
    solve = solve_adjoint_dto if route == "dto" else solve_adjoint_otd
    return solve(problem, tab, grid, traj, terminal="exact").on_grid()[:, 0]


def _extrap_error(p_coarse, p_fine, exact_vals, err_coarse, err_fine):
    """Observed-order Richardson extrapolant error on the coarse nodes."""
    if err_coarse <= 0 or err_fine <= 0 or err_fine >= err_coarse:
        return np.nan
    w = err_coarse / err_fine  # 2**(observed order)
    R = (w * p_fine[::2] - p_coarse) / (w - 1.0)
    return float(np.max(np.abs(R - exact_vals)))


def _table_rows(n_list, errs, sols):
    """Convergence table (header, rows) from per-N results on ``n_list``.

    ``errs`` maps each error column to its errors, one per N; ``sols`` maps
    the columns that are extrapolated to their (solution, exact values)
    pairs, one per N.  A row holds N, the error and observed rate of each
    ``errs`` column, then the Richardson-extrapolant error and its rate of
    each ``sols`` column; extrapolants need N to double the previous N.
    """
    header = ["N"]
    for col in errs:
        header += [f"err_{col}", f"rate_{col}"]
    for col in sols:
        header += [f"err_{col}_extrap", f"rate_{col}_extrap"]
    rows = []
    xp_prev = dict.fromkeys(sols)
    for idx, N in enumerate(n_list):
        row = [N]
        for e in errs.values():
            row += [e[idx], np.log2(e[idx - 1] / e[idx]) if idx else np.nan]
        for col, pairs in sols.items():
            xp = xr = np.nan
            if idx and N == 2 * n_list[idx - 1]:
                (pc, exact), (pf, _) = pairs[idx - 1], pairs[idx]
                xp = _extrap_error(pc, pf, exact, errs[col][idx - 1],
                                   errs[col][idx])
                if xp_prev[col] and xp:
                    xr = np.log2(xp_prev[col] / xp)
            row += [xp, xr]
            xp_prev[col] = xp
        rows.append(row)
    return header, rows


def _prescribed_table(study, tab, n_list, T, routes):
    dtype = np.longdouble
    factory = _STUDY_PROBLEMS[study]
    pex = factory(dtype(T)).p_exact
    errs = {route: [] for route in routes}
    sols = {route: [] for route in routes}
    for N in n_list:
        exact = pex(np.arange(N + 1, dtype=dtype) * dtype(T) / dtype(N))
        for route in routes:
            p = backward_study_solution(tab, N, T, factory, route)
            errs[route].append(float(np.max(np.abs(p - exact))))
            sols[route].append((p, exact))
    return _table_rows(n_list, errs, sols)


def _full_system_table(tab, n_list, T):
    prob = terminal_tracking_problem(T=T)
    errs = {"y": [], "dto": [], "otd": []}
    sols = {"y": []}
    for N in n_list:
        grid = TimeGrid(T, N)
        traj = solve_forward(prob, tab, grid, init_mode="exact")
        t = np.arange(N + 1) * grid.dt
        y = traj.states[tab.s - 1:, 0]
        errs["y"].append(float(np.max(np.abs(y - 1.0 / (1.0 - t)))))
        sols["y"].append((y, 1.0 / (1.0 - np.linspace(0.0, T, N + 1))))
        # exact multiplier vanishes at the u = 0 optimum, so the reported
        # p-columns are the magnitudes produced by each route
        adj_d = solve_adjoint_dto(prob, tab, grid, traj)
        adj_o = solve_adjoint_otd(prob, tab, grid, traj, terminal="replicate")
        errs["dto"].append(float(np.max(np.abs(adj_d.on_grid()[:, 0]))))
        errs["otd"].append(float(np.max(np.abs(adj_o.on_grid()[:, 0]))))
    return _table_rows(n_list, errs, sols)


def run_ode_convergence(cfg: Config, out_dir: str, route: str | None = None
                        ) -> dict:
    """Convergence tables for the built-in adjoint studies.

    Emits one CSV per scheme named ``table_<study>_<scheme>.csv`` and mirrors
    each table on stdout.  Returns {scheme: rows}.  ``route`` (dto, otd or
    both, the default) picks the columns of the prescribed studies; the
    full-system table always reports both routes and rejects one.
    """
    s = settings(cfg, "ode-converge")
    study, n_list = s["study"], s["n_list"]
    T = _STUDY_HORIZONS[study] if s["T"] == "study" else s["T"]
    if study == "full-system" and route is not None:
        raise ConfigError("--route applies to the prescribed studies; "
                          "the full-system table reports both routes")
    routes = ("dto", "otd") if route in (None, "both") else (route,)
    if study == "full-system" and T >= 1.0:
        raise ConfigError(
            f"key 'T': full-system study needs T < 1: its exact state "
            f"1/(1-t) is infinite at t = 1 (got T = {T:g})")
    for tab in s["schemes"]:
        if study == "full-system" and not tab.is_bdf:
            raise ConfigError(
                f"key 'schemes': full-system study integrates forward; "
                f"scheme {tab.name!r} must be BDF class")
        if n_list[0] < tab.s:  # the adjoint sweeps need N >= s
            raise ConfigError(f"key 'n_list': must be at least {tab.s} for "
                              f"{tab.name}, got {n_list[0]}")
    results = {}
    for tab in s["schemes"]:
        if study == "full-system":
            header, rows = _full_system_table(tab, n_list, T)
        else:
            header, rows = _prescribed_table(study, tab, n_list, T, routes)
        path = os.path.join(out_dir, f"table_{study}_{tab.name}.csv")
        write_csv(path, header, rows)
        echo_table(f"{study} / {tab.name}", header, rows)
        results[tab.name] = rows
    return results


# ------------------------------------------------------- relaxation drivers

def _gaussian(center, width):
    return lambda x: np.exp(-((x - center) / width) ** 2)


def _domain(s):
    """The ends (x_left, x_right) of a relaxation run's domain, whose length
    must be positive and finite."""
    xl, xr = s["x_left"], s["x_right"]
    if not 0 < xr - xl < np.inf:
        raise ConfigError(f"key 'x_right': must be greater than x_left = "
                          f"{xl:g} by a finite length, got {xr:g}")
    return xl, xr


def _steps(T, dt, level=0):
    """The number of steps of size dt to the horizon T, T/dt rounded.  A
    count below one, one whose float64 forward store (n_steps + 1 levels of
    ``level`` entries) exceeds the largest array size, or one whose double
    (a nested fine grid's count) exceeds the largest index, is a config
    error."""
    n_steps = T / dt
    n_steps = round(n_steps) if n_steps < np.inf else n_steps  # T/dt = inf
    imax = np.iinfo(np.intp).max
    if n_steps < 1:
        raise ConfigError(f"key 'T': must be at least one step of dt = "
                          f"{dt:g}, got {T:g}")
    if (n_steps + 1) * level * 8 > imax:
        raise ConfigError(f"key 'dt': must be large enough for a forward "
                          f"store of T/dt = {n_steps:.3g} steps, got {dt:g}")
    if 2 * n_steps > imax:
        raise ConfigError(f"key 'T': must be at most {imax // 2:.3g} steps "
                          f"of dt = {dt:g}, got {T:g}")
    return n_steps


# Most node-steps one relaxation run may ask for: grid nodes times steps,
# summed over its sweeps and batch members.  A step costs 10 ns to 1 us per
# node, so the bound is hours to days of work; every shipped config is at
# least 1000x under it.
_MAX_NODE_STEPS = 10 ** 12


def _admit(node_steps):
    """Refuse a run whose work, counted from its settings before any
    allocation or sweep, exceeds ``_MAX_NODE_STEPS`` (a config error)."""
    if node_steps > _MAX_NODE_STEPS:
        raise ConfigError(f"key 'T': must keep the run within "
                          f"{_MAX_NODE_STEPS:.3g} node-steps (grid nodes x "
                          f"steps over its sweeps), got {node_steps:.3g}")


def run_relax_forward(cfg: Config, out_dir: str) -> list:
    """Forward relaxation run: snapshot CSVs plus a conservation log, whose
    rows (step, t, mass) it returns."""
    s = settings(cfg, "relax-forward")
    a, eps, T, flux = s["a"], s["eps"], s["T"], s["flux"]
    grid = rx.LagrangianGrid(*_domain(s), s["nx"], boundary=s["boundary"])
    dt = grid.dx / a if s["dt"] == "aligned" else s["dt"]
    if dt > grid.dx / a + 1e-12:
        raise ConfigError(f"key 'dt': dt = {dt} violates the CFL bound "
                          f"dx/a = {grid.dx / a:.6g}")
    u0_fn = _gaussian(s["u0_center"], s["u0_width"])
    tab = s["scheme"]
    x = grid.nodes()
    u0 = u0_fn(x)[None, :]
    if flux == "linear":
        model = rx.make_jin_xin(lambda u: u, lambda u: np.ones_like(u),
                                a, eps, u0=u0[0])
    else:
        model = rx.make_jin_xin(lambda u: 0.5 * u * u, lambda u: u,
                                a, eps, u0=u0[0])
    n_steps = _steps(T, dt, model.n_conserved * grid.n_nodes)
    _admit(n_steps * grid.n_nodes)
    out_times = [T if tt == "T" else tt for tt in s["output_times"]]
    out_steps = sorted({min(n_steps, max(0, int(round(tt / dt))))
                        for tt in out_times})
    fld, u_store = rx.solve_forward(model, grid, tab, u0, n_steps, dt)
    for k in out_steps:
        write_csv(os.path.join(out_dir, f"{s['run_name']}_t{k}.csv"),
                  ["x", "u"], np.column_stack([x, u_store[k, 0]]))
    mass = u_store[:, 0].sum(axis=-1) * grid.dx
    rows = [[k, k * dt, m] for k, m in enumerate(mass)]
    write_csv(os.path.join(out_dir, f"{s['run_name']}_mass.csv"),
              ["step", "t", "mass"], rows)
    drift = float(np.max(np.abs(mass - mass[0])) / max(abs(mass[0]), 1e-300))
    print(f"relax-forward: {flux} flux, {tab.name}, nx={grid.n_points}, "
          f"dt={dt:.6g}, steps={n_steps}")
    print(f"  mass drift (relative): {drift:.3e}")
    return rows


def run_relax_adjoint(cfg: Config, out_dir: str) -> list:
    """Backward-adjoint eps study (linear flux): error table + p(0) snapshots.

    Rows with eps below ``oracle_eps_max`` are measured against the
    characteristics oracle of the limiting transport equation; larger eps
    rows use a nested fine-grid self-reference (no closed form exists).  The
    reference kind is recorded per row.  Each grid runs one adjoint sweep
    batched over all eps values, plus one nested fine sweep batched over the
    self-reference eps values, so every (grid, eps) is solved once.
    """
    s = settings(cfg, "relax-adjoint")
    a, T, eps_list = s["a"], s["T"], s["eps_list"]
    oracle_max = s["oracle_eps_max"]
    xl, xr = _domain(s)
    pT_fn = _gaussian(s["terminal_center"], s["terminal_width"])
    tab = s["scheme"]
    self_ref = [b for b, eps in enumerate(eps_list) if eps >= oracle_max]

    def model_of(eps):
        # one relaxation parameter per batch member
        return rx.make_jin_xin(lambda u: u, lambda u: np.ones_like(u), a,
                               np.reshape(eps, (-1, 1, 1)))

    model = model_of(eps_list)
    fine_model = model_of([eps_list[b] for b in self_ref])
    grids = [rx.LagrangianGrid(xl, xr, nx, boundary="periodic")
             for nx in s["nx_list"]]
    steps = [_steps(T, grid.dx / a) for grid in grids]
    # per grid, a coarse sweep over every eps and a fine one (2M nodes,
    # twice the steps) over the self-reference eps
    _admit(sum(n * g.n_nodes * (len(eps_list) + 4 * len(self_ref))
               for g, n in zip(grids, steps)))
    devs = []
    for grid, n_steps in zip(grids, steps):
        references = {}
        if self_ref:
            # nested fine grid (dx and dt halve exactly) run for twice the
            # coarse step count, so both runs share the same actual horizon
            fine = rx.LagrangianGrid(xl, xr, 2 * grid.n_points - 1,
                                     boundary="periodic")
            p_fine = rx.viscous_limit_check(fine_model, fine, tab, pT_fn,
                                            2 * n_steps, fine.dx / a)[0]
            references = dict(zip(self_ref, p_fine[:, ::2]))
        p0, dev = rx.viscous_limit_check(model, grid, tab, pT_fn, n_steps,
                                         grid.dx / a, references)
        devs.append(dev)
    errs = np.transpose(devs).tolist()  # one list per eps, over the grids

    rows = []
    dt_min = grid.dx / a
    for b, eps in enumerate(eps_list):
        rates = [np.log2(e0 / e1) for e0, e1 in zip(errs[b], errs[b][1:])]
        rows.append([eps, dt_min, errs[b][-1], float(np.mean(rates)),
                     "transport-oracle" if eps < oracle_max else "self-reference"])
        write_csv(os.path.join(out_dir, f"adjoint_eps{eps:g}_p0.csv"),
                  ["x", "p"], np.column_stack([grid.nodes(), p0[b]]))
    header = ["eps", "dt_min", "l2_err_p0", "mean_rate", "reference"]
    write_csv(os.path.join(out_dir, "adjoint_eps_study.csv"), header, rows)
    echo_table(f"relax-adjoint eps study ({tab.name})", header, rows)
    return rows


# ---------------------------------------------------------- control drivers

def _box(x, lo, hi, value):
    return np.where((x >= lo) & (x <= hi), value, 0.0)


def run_control(cfg: Config, out_dir: str, kind: str) -> list:
    """Initial-data control experiments (Jin-Xin Burgers or Broadwell):
    snapshot CSVs plus the descent log, whose rows it returns."""
    s = settings(cfg, kind)
    tab = s["scheme"]
    nx, dt, eps, save_every = s["nx"], s["dt"], s["eps"], s["save_every"]

    if kind == "control-jinxin":
        grid = rx.LagrangianGrid(-3.0, 3.0, nx, boundary="periodic")
        a = grid.dx / dt  # keeps characteristic feet nodal
        x = grid.nodes()
        true_init = np.where((x >= -1.5) & (x <= -0.5), 1.5 + x, 0.0)[None, :]
        guess = _box(x, -1.5, -0.5, 0.5)[None, :]
        model = rx.make_jin_xin(lambda u: 0.5 * u * u, lambda u: u, a, eps,
                                u0=true_init[0])
        names = ("u",)
    else:
        grid = rx.LagrangianGrid(-2.5, 2.5, nx, boundary="clamp")
        x = grid.nodes()
        m0 = np.where(np.abs(x) <= 1.0, np.sin(np.pi * x), 0.0)
        true_init = np.stack([np.ones_like(x), m0])
        guess = np.stack([np.ones_like(x), np.zeros_like(x)])
        model = rx.make_broadwell(s["c"], eps)
        names = ("rho", "m")
    n_steps = _steps(s["T"], dt, model.n_conserved * grid.n_nodes)
    # the target's forward sweep, then a forward and an adjoint sweep per
    # iteration and the last iteration's forward sweep
    _admit(n_steps * grid.n_nodes * (2 * s["iterations"] + 2))

    # self-consistent target: forward-evolve the reference initial data and
    # keep only its terminal level
    target = rx.solve_forward(model, grid, tab, true_init, n_steps,
                              dt)[1][-1].copy()
    functional = TrackingFunctional(target, grid.dx)

    snaps = {}

    def cb(k, J, sigma, gnorm, control):
        if save_every and k % save_every == 0:
            snaps[k] = control.copy()

    result = optimize(model, grid, tab, functional, guess, n_steps, dt,
                      iterations=s["iterations"], sigma0=s["sigma0"],
                      bb_variant=s["bb_variant"],
                      filter_every=s["filter_every"], callback=cb)
    log_rows = [[r["k"], r["J"], r["sigma"], r["grad_inf_norm"]]
                for r in result.iterations]
    write_csv(os.path.join(out_dir, f"{kind}_iterations.csv"),
              ["k", "J", "sigma", "grad_inf_norm"], log_rows)

    def snapshot(tag, arrays):
        write_csv(os.path.join(out_dir, f"{kind}_{tag}.csv"),
                  ["x"] + list(names),
                  np.column_stack([x, *np.atleast_2d(arrays)]))

    snapshot("control_final", result.control)
    snapshot("control_true", true_init)
    snapshot("state_terminal", result.u_terminal)
    snapshot("target_terminal", target)
    for k, ctl in snaps.items():
        snapshot(f"control_k{k}", ctl)

    Js = [r["J"] for r in result.iterations]
    print(f"{kind}: {tab.name}, nx={nx}, dt={dt:.6g}, eps={eps:g}, "
          f"{s['iterations']} iterations")
    print(f"  J(0) = {Js[0]:.6e}   J(end) = {Js[-1]:.6e}   "
          f"ratio = {Js[-1] / Js[0]:.6f}")
    return log_rows
