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

import dataclasses
import itertools
import os
import sys

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


def _cell(v, number="%.17g", blank="") -> str:
    """One table cell as text: a str cell as it is, None and NaN
    ``blank``, and any other cell ``number % v``."""
    if isinstance(v, str):
        return v
    if v is None or v != v:
        return blank
    return number % v


def write_csv(path, header, rows):
    """Write ``header`` and ``rows`` (a sequence of rows or a 2-D array).

    Every cell follows one rule, ``_cell``: str cells as they are, None and
    NaN empty, numbers with 17 significant digits.  A row shorter than the
    longest of its block is padded with empty cells; ``_CSV_BLOCK`` rows go
    out per write.  A block of a numeric array without NaN is formatted in
    one ``%`` operation over all its cells, the same ``%.17g`` conversion
    of the same numbers, so the bytes agree.
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
                          for row in zip(*(map(_cell, col)
                                           for col in columns)))


def echo_table(title, header, rows):
    """Print ``rows`` under ``header`` in right-aligned columns of one
    width, at least 14 and wide enough for every cell plus a two-space
    gap.  None and NaN cells print "-", so every row splits on blanks into
    as many fields as the header (their CSV cells stay empty)."""
    rows = [[_cell(v, "%d" if isinstance(v, (int, np.integer)) else "%.6e",
                   "-") for v in row] for row in rows]
    width = 2 + max(12, *map(len, header), *(len(c) for r in rows for c in r))
    print(title)
    for row in [header] + rows:
        print("  " + "".join(f"{c:>{width}}" for c in row))
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
    traj = prescribed_trajectory(grid, tab, problem.y_exact)
    solve = solve_adjoint_dto if route == "dto" else solve_adjoint_otd
    return solve(problem, tab, grid, traj, terminal="exact").on_grid()[:, 0]


def _extrap_error(p_coarse, p_fine, exact_vals, err_coarse, err_fine):
    """Observed-order Richardson extrapolant error on the coarse nodes."""
    if err_coarse <= 0 or err_fine <= 0 or err_fine >= err_coarse:
        return np.nan
    w = err_coarse / err_fine  # 2**(observed order)
    R = (w * p_fine[::2] - p_coarse) / (w - 1.0)
    return float(np.max(np.abs(R - exact_vals)))


def _rates(errs):
    """Observed rates log2(e_{k-1}/e_k) of consecutive errors: NaN for the
    first entry and wherever either error is 0."""
    return [np.nan] + [np.log2(e0 / e1) if e0 and e1 else np.nan
                       for e0, e1 in zip(errs, errs[1:])]


def _table_rows(n_list, errs, sols):
    """Convergence table (header, rows) from per-N results on ``n_list``.

    ``errs`` maps each error column to its errors, one per N; ``sols`` maps
    the columns that are extrapolated to their (solution, exact values)
    pairs, one per N.  A row holds N, the error and observed rate of each
    ``errs`` column, then the Richardson-extrapolant error and its rate of
    each ``sols`` column; extrapolants need N to double the previous N.
    """
    header, columns = ["N"], [n_list]
    for col, e in errs.items():
        header += [f"err_{col}", f"rate_{col}"]
        columns += [e, _rates(e)]
    for col, pairs in sols.items():
        e = errs[col]
        xp = [np.nan] + [
            _extrap_error(pc, pf, exact, e0, e1) if n1 == 2 * n0 else np.nan
            for n0, n1, (pc, exact), (pf, _), e0, e1 in zip(
                n_list, n_list[1:], pairs, pairs[1:], e, e[1:])]
        header += [f"err_{col}_extrap", f"rate_{col}_extrap"]
        columns += [xp, _rates(xp)]
    return header, [list(row) for row in zip(*columns)]


def _prescribed_table(study, tab, n_list, T, routes):
    dtype = np.longdouble
    factory = _STUDY_PROBLEMS[study]
    pex = factory(dtype(T)).p_exact
    with np.errstate(over="ignore"):  # an overflow is refused below
        exacts = [pex(np.arange(N + 1, dtype=dtype) * dtype(T) / dtype(N))
                  for N in n_list]
    # NaN fails too; a multiplier past the float range writes inf errors
    if not all(np.abs(e).max() <= np.finfo(float).max for e in exacts):
        raise ConfigError(f"key 'T': must be small enough for the exact "
                          f"{study} multiplier to be finite in the table's "
                          f"float range, got {T:g}")
    errs = {route: [] for route in routes}
    sols = {route: [] for route in routes}
    for N, exact in zip(n_list, exacts):
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
        traj = solve_forward(prob, tab, grid)
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
    # every scheme sweeps every N once per route, and the full system
    # sweeps forward too; each built-in study has one state
    sweeps = 3 if study == "full-system" else len(routes)
    _admit(len(s["schemes"]) * sum(n_list) * sweeps, "n_list")
    results = {}
    for tab in s["schemes"]:
        try:
            if study == "full-system":
                header, rows = _full_system_table(tab, n_list, T)
            else:
                header, rows = _prescribed_table(study, tab, n_list, T,
                                                 routes)
        except MemoryError:
            raise ConfigError(f"key 'n_list': must be small enough for the "
                              f"study's arrays to be allocated, got "
                              f"N = {n_list[-1]}") from None
        path = os.path.join(out_dir, f"table_{study}_{tab.name}.csv")
        write_csv(path, header, rows)
        echo_table(f"{study} / {tab.name}", header, rows)
        results[tab.name] = rows
    return results


# ------------------------------------------------------- relaxation drivers

def _gaussian(center, width):
    def gaussian(x):
        with np.errstate(over="ignore"):  # a far centre's limit, 0, is right
            return np.exp(-((x - center) / width) ** 2)
    return gaussian


def _domain(s):
    """The ends (x_left, x_right) of a relaxation run's domain, whose length
    must be positive and finite."""
    xl, xr = s["x_left"], s["x_right"]
    if not 0 < xr - xl < np.inf:
        raise ConfigError(f"key 'x_right': must be greater than x_left = "
                          f"{xl:g} by a finite length, got {xr:g}")
    return xl, xr


def _steps(T, dt):
    """The number of steps of size dt to the horizon T, T/dt rounded (inf
    where T/dt overflows).  A count below one is a config error; ``_admit``
    bounds the run from above."""
    n_steps = T / dt
    if n_steps < 1:
        raise ConfigError(f"key 'T': must be at least one step of dt = "
                          f"{dt:g}, got {T:g}")
    return round(n_steps) if n_steps < np.inf else n_steps


# Most node-steps one run may ask for: grid nodes (one per ODE state) times
# steps, summed over its sweeps and batch members.  A relaxation step costs
# 10 ns to 1 us per node, so the bound is hours to days of work; every
# shipped config is at least 1000x under it.  A run within it indexes and
# sizes its arrays without overflow.
_MAX_NODE_STEPS = 10 ** 12


def _admit(node_steps, key="T"):
    """Refuse a run whose work, counted from its grid and settings before
    any array is sized or sweep runs, exceeds ``_MAX_NODE_STEPS`` (a config
    error naming ``key``): the one upper bound on a run.  A count past the
    float range reads inf."""
    if node_steps > _MAX_NODE_STEPS:
        got = node_steps if node_steps <= sys.float_info.max else np.inf
        raise ConfigError(f"key {key!r}: must keep the run within "
                          f"{_MAX_NODE_STEPS:.3g} node-steps (grid nodes x "
                          f"steps over its sweeps), got {got:.3g}")


def _jin_xin(flux, a, eps, u0, dt=None):
    """The Jin-Xin model of the named flux if a >= max|F'(u0)| (to 1e-12
    relative, as the CFL bound), else a config error naming ``a``, or where
    a = dx/dt, ``dt`` and its bound dx / max|F'(u0)|."""
    F, dF = rx.JIN_XIN_FLUXES[flux]
    mx = float(np.max(np.abs(dF(u0))))
    if a < mx * (1 - 1e-12):
        raise ConfigError(
            f"key 'a': must be at least max|F'(u0)| = {mx:.6g}, got {a:g}"
            if dt is None else f"key 'dt': must be at most dx / max|F'(u0)| "
            f"= {a * dt / mx:.6g}, got {dt:g}")
    return rx.make_jin_xin(F, dF, a, eps)


def run_relax_forward(cfg: Config, out_dir: str) -> list:
    """Forward relaxation run: snapshot CSVs plus a conservation log, whose
    rows (step, t, mass) it returns.  It prints the mass drift and the
    growth max|u(T)|/max|u0|, which a diverging run shows and its mass
    drift may not."""
    s = settings(cfg, "relax-forward")
    a, eps, T, flux = s["a"], s["eps"], s["T"], s["flux"]
    grid = rx.LagrangianGrid(*_domain(s), s["nx"], boundary=s["boundary"])
    dt = grid.dx / a if s["dt"] == "aligned" else s["dt"]
    if dt > grid.dx / a * (1 + 1e-12):
        raise ConfigError(f"key 'dt': dt = {dt} violates the CFL bound "
                          f"dx/a = {grid.dx / a:.6g}")
    n_steps = _steps(T, dt)
    _admit(n_steps * grid.n_nodes)
    u0_fn = _gaussian(s["u0_center"], s["u0_width"])
    tab = s["scheme"]
    x = grid.nodes()
    u0 = u0_fn(x)[None, :]
    model = _jin_xin(flux, a, eps, u0[0])
    out_times = [T if tt == "T" else tt for tt in s["output_times"]]
    out_steps = sorted({round(min(max(tt / dt, 0), n_steps))
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
    growth = float(np.max(np.abs(u_store[-1]))
                   / max(np.max(np.abs(u0)), 1e-300))
    print(f"relax-forward: {flux} flux, {tab.name}, nx={grid.n_points}, "
          f"dt={dt:.6g}, steps={n_steps}")
    print(f"  mass drift (relative): {drift:.3e}")
    print(f"  growth max|u(T)|/max|u0|: {growth:.3e}")
    return rows


_ORACLE_EPS_MAX = 5e-3  # eps study rows from here on are self-referenced


def _eps_sweep(model, grid, tab, p_terminal, n_steps, dt):
    """Kinetic adjoint p(0) of every eps member, shape (B, M).

    Sweeps ``terminal_multipliers`` of p_T back ``n_steps`` steps, batched
    over the members of ``model.eps`` (a float is one member), and
    contracts lambda(0) by ``gradient_from_adjoint``.  The sweep is the
    adjoint linearized at u = 0: every step reuses the one
    ``equilibrium_jac`` evaluated there, which is exact for the linear flux
    the eps study runs.
    """
    pT = np.broadcast_to(p_terminal(grid.nodes()),
                         (np.size(model.eps), 1, grid.n_nodes))
    adj = rx.AdjointField(model, grid, dt, tab,
                          rx.terminal_multipliers(model, pT))
    jac = model.equilibrium_jac(np.zeros((1, grid.n_nodes)))
    for _ in range(n_steps):
        rx.adjoint_step(model, grid, adj, jac)
    return rx.gradient_from_adjoint(model, adj.current)[..., 0, :]


def run_relax_adjoint(cfg: Config, out_dir: str) -> list:
    """Backward-adjoint eps study (linear flux): error table + p(0) snapshots.

    Each row's error is the L2 deviation sqrt(dx sum (p0 - ref)^2) of its
    p(0) from a reference chosen per grid in one place: rows with eps below
    ``_ORACLE_EPS_MAX`` read the characteristics oracle of the limiting
    transport equation -p_t - F'(0) p_x = 0 at the actual horizon; the
    other rows read a nested fine-grid self-reference (no closed form
    exists).  The reference kind is recorded per row.  Each grid runs one
    adjoint sweep batched over all eps values, plus one nested fine sweep
    batched over the self-reference eps values, so every (grid, eps) is
    solved once, and the oracle once per grid.
    """
    s = settings(cfg, "relax-adjoint")
    a, T, eps_list = s["a"], s["T"], s["eps_list"]
    xl, xr = _domain(s)
    pT_fn = _gaussian(s["terminal_center"], s["terminal_width"])
    tab = s["scheme"]
    names = {}  # the p0 snapshot name of each distinct eps
    for eps in eps_list:
        other = names.setdefault(f"{eps:g}", eps)
        if other != eps:
            raise ConfigError(f"key 'eps_list': values {other!r} and {eps!r} "
                              f"would share the snapshot "
                              f"adjoint_eps{eps:g}_p0.csv")
    self_ref = [b for b, eps in enumerate(eps_list) if eps >= _ORACLE_EPS_MAX]
    grids = [rx.LagrangianGrid(xl, xr, nx, boundary="periodic")
             for nx in s["nx_list"]]
    steps = [_steps(T, grid.dx / a) for grid in grids]
    # per grid, a coarse sweep over every eps and a fine one (2M nodes,
    # twice the steps) over the self-reference eps
    _admit(sum(n * g.n_nodes * (len(eps_list) + 4 * len(self_ref))
               for g, n in zip(grids, steps)))

    # one relaxation parameter per batch member; F' = 1 on any data, so
    # zeros check the subcharacteristic condition a >= 1
    model = _jin_xin("linear", a, np.reshape(eps_list, (-1, 1, 1)),
                     np.zeros(1))
    fine_model = dataclasses.replace(model, eps=model.eps[self_ref])
    devs = []
    for grid, n_steps in zip(grids, steps):
        # each row's reference: the transport oracle, F'(0) = 1 for the
        # linear flux, at the horizon n_steps * dt with the sweep's rounded
        # dt (n_steps * dx / a differs in the last bits)
        dt = grid.dx / a
        oracle = rx.transport_oracle(grid, pT_fn, 1.0, n_steps * dt)
        ref = np.broadcast_to(oracle, (len(eps_list), grid.n_nodes)).copy()
        if self_ref:
            # nested fine grid (dx and dt halve exactly) run for twice the
            # coarse step count, so both runs share the same actual horizon;
            # its p(0) at the coarse nodes
            fine = rx.LagrangianGrid(xl, xr, 2 * grid.n_points - 1,
                                     boundary="periodic")
            ref[self_ref] = _eps_sweep(fine_model, fine, tab, pT_fn,
                                       2 * n_steps, fine.dx / a)[:, ::2]
        p0 = _eps_sweep(model, grid, tab, pT_fn, n_steps, dt)
        devs.append(np.sqrt(grid.dx * np.sum((p0 - ref) ** 2, axis=-1)))
    errs = np.transpose(devs).tolist()  # one list per eps, over the grids

    rows = []
    for b, eps in enumerate(eps_list):
        # a rate needs two nonzero errors, else (or with one grid) it is blank
        rates = _rates(errs[b])[1:]
        mean_rate = float(np.mean(rates)) if rates else np.nan
        rows.append([eps, dt, errs[b][-1], mean_rate,
                     "self-reference" if b in self_ref else "transport-oracle"])
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

    grid = (rx.LagrangianGrid(-3.0, 3.0, nx, boundary="periodic")
            if kind == "control-jinxin"
            else rx.LagrangianGrid(-2.5, 2.5, nx, boundary="clamp"))
    n_steps = _steps(s["T"], dt)
    # the target's forward sweep, then a forward and an adjoint sweep per
    # iteration and the last iteration's forward sweep
    _admit(n_steps * grid.n_nodes * (2 * s["iterations"] + 2))
    x = grid.nodes()
    if kind == "control-jinxin":
        a = grid.dx / dt  # keeps characteristic feet nodal
        true_init = np.where((x >= -1.5) & (x <= -0.5), 1.5 + x, 0.0)[None, :]
        guess = _box(x, -1.5, -0.5, 0.5)[None, :]
        model = _jin_xin("burgers", a, eps, true_init[0], dt)
        names = ("u",)
    else:
        m0 = np.where(np.abs(x) <= 1.0, np.sin(np.pi * x), 0.0)
        true_init = np.stack([np.ones_like(x), m0])
        guess = np.stack([np.ones_like(x), np.zeros_like(x)])
        model = rx.make_broadwell(s["c"], eps)
        names = ("rho", "m")

    # self-consistent target: forward-evolve the reference initial data and
    # keep only its terminal level
    target = rx.solve_forward(model, grid, tab, true_init, n_steps,
                              dt)[1][-1].copy()
    functional = TrackingFunctional(target, grid.dx)

    snaps = {}

    def cb(k, _J, _sigma, _gnorm, control):
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
    ratio = f"   ratio = {Js[-1] / Js[0]:.6f}" if Js[0] > 0 else ""
    print(f"  J(0) = {Js[0]:.6e}   J(end) = {Js[-1]:.6e}{ratio}")
    return log_rows
