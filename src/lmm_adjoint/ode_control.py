"""Forward multistep integration of controlled ODEs and both adjoint routes.

The discretize-then-optimize (DtO) route solves the transposed recurrence of
the discrete optimality system; the optimize-then-discretize (OtD) route
applies the same tableau to the time-reversed continuous adjoint equation.
Both return multipliers in the continuous sign convention, i.e. they
approximate p with  -p' = f_y(y,u)^T p,  p(T) = j'(y(T)).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .tableaus import (ImplicitSolveError, MultistepTableau, SolverError,
                       TimeGrid, _require_linalg, bootstrap_history, step)


@dataclass
class OdeControlProblem:
    """Controlled ODE y' = f(y,u,t) with terminal cost j(y(T)) + (alpha/2) int u^2.

    ``f`` maps one state y (n,), with scalar u and t, to (n,).  ``f_y`` and
    ``f_u`` broadcast: y (..., n), u and t (...) give (..., n, n) and
    (..., n), and a result without the leading axes is a constant.  On a
    scalar state the forward Newton sweep passes ``f`` and ``f_y`` a 0-d
    NumPy scalar in the iterate's dtype (the bootstrap and adjoint sweeps
    pass arrays) and rounds any size-1 result to float64: a scalar ``f``
    must be elementwise, and an ``f_y`` that returns a scalar there, as
    ``2.0 * y`` for f_y = 2y, allocates no array per Newton iteration.  The
    exact solution ``y_exact`` (broadcast over times), where given, starts
    the forward sweep; ``y_exact`` and ``p_exact`` drive the convergence
    studies.
    """

    f: Callable
    f_y: Callable
    f_u: Callable | None = None
    terminal_cost: Callable | None = None
    terminal_cost_grad: Callable | None = None
    alpha: float = 0.0
    y0: np.ndarray | float = 0.0
    y_exact: Callable | None = None
    p_exact: Callable | None = None

    def __post_init__(self):
        if self.alpha < 0:
            raise ValueError("running-cost weight alpha must be >= 0")
        self.y0 = np.atleast_1d(np.asarray(self.y0, dtype=float))

    @property
    def dim(self) -> int:
        return self.y0.size


@dataclass
class Trajectory:
    """States and controls on indices 1-s..N (array slot i+s-1 holds index i),
    solved on ``grid`` with the scheme ``tab``."""

    grid: TimeGrid
    tab: MultistepTableau
    states: np.ndarray    # (N+s, n)
    controls: np.ndarray  # (N+s,)

    @property
    def s(self) -> int:
        return self.tab.s

    @property
    def terminal_state(self) -> np.ndarray:
        return self.states[-1]


@dataclass
class AdjointTrajectory:
    """Multipliers on indices 1-s..N in the continuous sign convention,
    computed by ``route`` "dto" or "otd" with the scheme ``tab``."""

    grid: TimeGrid
    tab: MultistepTableau
    multipliers: np.ndarray  # (N+s, n)
    route: str

    @property
    def s(self) -> int:
        return self.tab.s

    def on_grid(self) -> np.ndarray:
        """Multipliers at indices 0..N (drops the pre-initial block)."""
        return self.multipliers[self.s - 1:]


def _controls_array(controls, grid: TimeGrid, s: int) -> np.ndarray:
    n_tot = grid.N + s
    arr = np.atleast_1d(np.asarray(controls, dtype=float))
    if arr.size == 1:
        return np.full(n_tot, arr[0])
    if arr.size != n_tot:
        raise ValueError(
            f"controls must cover all {n_tot} indices 1-s..N, got {arr.size}")
    return arr.copy()


def solve_forward(problem: OdeControlProblem, tab: MultistepTableau,
                  grid: TimeGrid, controls=0.0) -> Trajectory:
    """Integrate y' = f(y,u,t) over the grid with the given tableau.

    Controls may be a scalar or an (N+s,) array aligned to indices 1-s..N.
    The start samples the problem's ``y_exact`` where it has one, else it
    runs RK4 from ``y0`` (``bootstrap_history``) on the control at the
    index nearest to each substep's t.  Each step's state and right-hand
    side go onto two lists, whose s newest entries ``step`` reads; the
    states list becomes the trajectory.  Every Newton call of a step is at
    its new time and gets the step's control, read once per step, with
    one state (n,) and scalar t.  A scalar state (n = 1) steps on Python
    floats: both lists, the Newton iteration and the finiteness check hold
    floats, ``f`` and ``f_y`` get each iterate as a 0-d NumPy scalar in its
    dtype, and any size-1 result is read back as a float64.  A larger
    state's Newton iteration solves with np.linalg in the step's dtype, so
    an implicit tableau on a long-double grid is a ValueError, raised
    before the start.  Raises
    ``SolverError`` with the offending step index on NaN/overflow, and
    re-raises an ``ImplicitSolveError`` with its step index, " at step k"
    appended to its message.
    """
    if problem.dim > 1 and tab.is_implicit:
        _require_linalg(np.result_type(grid.dt, float))
    s = tab.s
    u = _controls_array(controls, grid, s)
    dt, off = grid.dt, s - 1
    f, f_y = problem.f, problem.f_y

    def rhs_array(y, t, u_t):
        return np.atleast_1d(np.asarray(f(y, u_t, t), dtype=float))

    states, fvals = bootstrap_history(
        tab, grid, lambda y, t: rhs_array(y, t, u[int(round(t / dt)) + off]),
        problem.y0, problem.y_exact)
    # the closures below read the step's control u_new, set once per step
    if problem.dim == 1:  # step on Python floats from here on
        def scalar(fn, box=np.float64, number=(float, np.generic)):
            def call(y, t):
                r = fn(box(y) if type(y) is float else y, u_new, t)
                return float(r if isinstance(r, number)
                             else np.asarray(r).item())
            return call

        rhs, jac = scalar(f), scalar(f_y)
        states = [y.item() for y in states]
        fvals = [fy.item() for fy in fvals]
        finite, as_state = math.isfinite, float
    else:
        rhs = lambda y, t: rhs_array(y, t, u_new)
        jac = lambda y, t: f_y(y, u_new, t)  # ``step`` makes it 2-D float
        finite = lambda y: np.isfinite(y).all()
        as_state = lambda y: np.asarray(y, dtype=float)
    u_list = list(u)  # the controls as NumPy float64 scalars
    with np.errstate(over="ignore", invalid="ignore"):
        for nstep in range(grid.N):
            t_new, u_new = (nstep + 1) * dt, u_list[nstep + s]
            try:
                y_new, f_new = step(tab, states, fvals, dt, rhs, t_new, jac)
            except ImplicitSolveError as exc:
                err = ImplicitSolveError(f"{exc} at step {nstep + 1}",
                                         exc.residual, exc.iterations)
                err.step_index = nstep + 1
                raise err from None
            if not finite(y_new):
                raise SolverError(
                    f"non-finite state at step {nstep + 1} (t={t_new:.6g})",
                    step_index=nstep + 1)
            # float64 states, also where a long-double dt makes y_new wider
            states.append(as_state(y_new))
            fvals.append(f_new)
    return Trajectory(grid, tab, np.reshape(states, (grid.N + s, -1)), u)


def prescribed_trajectory(grid: TimeGrid, tab: MultistepTableau,
                          y_of_t: Callable) -> Trajectory:
    """Trajectory of the scheme ``tab`` with zero controls and states
    sampled from an analytic y(t) (study helper).

    y(t) is evaluated once, on the array of the N+s grid times i*dt,
    i = 1-s..N, built in the dtype of the grid's step, so it must broadcast
    over an array of times.  The time axis is the last one: y(t) returns
    (N+s,) values for a scalar state or (n, N+s) for n states, as
    ``np.array([y1(t), y2(t)])`` does.  The states keep the dtype that y(t)
    returns.
    """
    dt = grid.dt
    times = np.arange(1 - tab.s, grid.N + 1, dtype=np.asarray(dt).dtype) * dt
    states = np.ascontiguousarray(
        np.asarray(y_of_t(times)).reshape(-1, times.size).T)
    return Trajectory(grid, tab, states, np.zeros(times.size))


def _broadcast(name, value, shape):
    """``value``, returned by the problem's ``name``, broadcast to ``shape``."""
    try:
        return np.broadcast_to(value, shape)
    except ValueError:
        raise ValueError(f"{name} returned shape {np.shape(value)}, which "
                         f"does not broadcast to {shape}") from None


def _jacobians(problem, traj, lo, hi, dtype):
    """f_y^T at the indices lo..hi from one f_y call on their stack, in an
    array over indices 1-s..N+s-1 (index i at slot i+s-1, zeros elsewhere).

    Past N the control is u_N and the state y_exact(i*dt), or else state and
    time clamp to N (documented order loss near T for Adams tableaus).
    """
    dt, N, off, n = traj.grid.dt, traj.grid.N, traj.s - 1, problem.dim
    at = np.minimum(np.arange(lo, hi + 1), N)
    y, u, t = traj.states[at + off], traj.controls[at + off], at * dt
    if hi > N and problem.y_exact is not None:
        t = np.arange(lo, hi + 1) * dt
        y_past = np.asarray(problem.y_exact(t[N - hi:])).reshape(-1, hi - N)
        y = np.concatenate([y[:N - hi], y_past.T])
    J = np.zeros((N + 2 * traj.s - 1, n, n), dtype)
    J[lo + off:hi + 1 + off] = _broadcast("f_y", problem.f_y(y, u, t),
                                          (at.size, n, n))
    return J.transpose(0, 2, 1)


def _terminal_values(problem, traj, terminal):
    """Values seeded at indices N..N+s-1 ('exact' or 'replicate' convention)."""
    grid, s = traj.grid, traj.s
    if terminal == "exact":
        if problem.p_exact is None:
            raise ValueError("terminal='exact' requires the p_exact hook")
        return [np.atleast_1d(problem.p_exact(grid.t(grid.N + k)))
                for k in range(s)]
    if terminal == "replicate":
        if problem.terminal_cost_grad is None:
            raise ValueError("terminal='replicate' requires terminal_cost_grad")
        jy = np.atleast_1d(problem.terminal_cost_grad(traj.terminal_state))
        return [jy] * s
    raise ValueError(f"unknown terminal mode {terminal!r}")


def _require_trajectory(grid, tab, traj):
    """Refuse an adjoint grid or scheme other than the trajectory's."""
    if grid != traj.grid:
        raise ValueError(f"adjoint grid {grid} is not the trajectory's "
                         f"grid {traj.grid}")
    if tab is not traj.tab and tab != traj.tab:
        raise ValueError(f"adjoint scheme {tab.name} is not the "
                         f"trajectory's scheme {traj.tab.name}")


def _sweep_array(problem, tab, grid, traj):
    """Zero multipliers on indices 1-s..N+s-1 in the dtype of the grid's
    step and the states, which a system's sweep solves with np.linalg and
    so needs float32 or float64.  The trajectory must have been solved on
    ``grid`` with ``tab`` (see ``_require_trajectory``)."""
    _require_trajectory(grid, tab, traj)
    if grid.N < traj.s:
        raise ValueError(f"adjoint solve needs N >= s (got N={grid.N}, "
                         f"s={traj.s})")
    dtype = np.result_type(grid.dt, traj.states)
    if problem.dim > 1:
        _require_linalg(dtype)
    return np.zeros((grid.N + 2 * traj.s - 1, problem.dim), dtype)


def _sweep_matrices(tab, dt, Jt, rows, shifted):
    """Blocks of the backward recurrence for the first ``rows`` slots of Jt.

    C_jk = -a_k I + dt b_k J (the J-term skipped where b_k = 0), with J the
    row's own f_y^T, or f_y^T at j+1+k when ``shifted``, and
    D_j = I - dt b_{-1} f_y^T(j).  The exact rationals are converted to the
    dtype of ``dt`` as numerator over denominator, which for float64 gives
    the values of ``tab.a`` and ``tab.b``.
    """
    real = np.asarray(dt).dtype.type
    a, b = ([real(c.numerator) / real(c.denominator) for c in coeffs]
            for coeffs in (tab.a_exact, tab.b_exact))
    n = Jt.shape[1]
    eye = np.eye(n, dtype=Jt.dtype)
    coef = np.empty((rows, tab.s, n, n), Jt.dtype)
    for k in range(tab.s):
        coef[:, k] = -a[k] * eye
        if b[k + 1]:
            J = Jt[k + 1:k + 1 + rows] if shifted else Jt[:rows]
            coef[:, k] += dt * b[k + 1] * J
    return coef, eye - dt * b[0] * Jt[:rows]


def _backward_sweep(ext, s, top, coef, diag, floor):
    """The backward multistep recurrence of both adjoint routes.

    Row r of ``coef`` (the s blocks C_jk) and of ``diag`` (D_j) belongs to
    index j = top - r; in that order the rows fill ``ext`` with

        p_j = D_j^{-1} sum_{k >= k0} C_jk p_{j+1+k},   k0 = max(0, floor-j-1),

    so the sums read multipliers at indices >= floor only, each k-sum taken
    in order from k0.  A scalar system (n = 1) runs in plain arithmetic on
    the scalars of the array's dtype and rejects a vanishing D_j before the
    sweep; a larger one multiplies with ``@`` and solves with LAPACK.

    The scalar loop runs the interior rows, k0 = 0, on one fixed range of
    terms, and only the at most s - 1 rows above the floor compute their
    k0.  Against one loop that computes k0 on every row, the split took the
    full-system DtO/OtD sweeps of the ode-tables workload from 11.5 to
    9.3 ms and its long-double const-fy/quadratic-fy sweeps from 15.8 to
    13.8 ms; one loop over precomputed per-row starts took 12.1 and
    16.7 ms (min of 30 alternating in-process rounds, numpy 2.4, 2 vCPUs).
    """
    off, n = s - 1, ext.shape[1]
    if n == 1:
        small = np.abs(diag.reshape(-1)) < 1e-14
        if small.any():
            j = top - int(np.argmax(small))
            raise SolverError(f"(1 - dt*b_-1*f_y) vanishes at step index {j}",
                              step_index=j)
        # plain * and / on the array's scalars; j is the row's slot (its
        # index plus s - 1), and term k reads slot j + 1 + k
        p, j = ext[:, 0].tolist(), top + off
        rows = zip(coef.reshape(-1, s).tolist(), diag.reshape(-1).tolist())
        terms = range(1, s)
        for c, d in itertools.islice(rows, top - floor + 2):  # k0 = 0
            acc = c[0] * p[j + 1]
            for k in terms:
                acc += c[k] * p[j + k + 1]
            p[j] = acc / d
            j -= 1
        for c, d in rows:  # the floor rows, k0 > 0
            k0 = floor - 1 + off - j
            acc = c[k0] * p[j + k0 + 1]
            for k in range(k0 + 1, s):
                acc += c[k] * p[j + k + 1]
            p[j] = acc / d
            j -= 1
        ext[:, 0] = p
        return
    p = list(ext)
    j = top
    try:
        for c, d in zip(coef, diag):
            k0 = max(0, floor - j - 1)
            acc = c[k0] @ p[j + k0 + 1 + off]
            for k in range(k0 + 1, s):
                acc += c[k] @ p[j + k + 1 + off]
            p[j + off] = np.linalg.solve(d, acc)
            j -= 1
    except np.linalg.LinAlgError:
        raise SolverError(
            f"singular pointwise adjoint matrix at step index {j}",
            step_index=j) from None
    ext[:] = p


def _seeded_sweep(problem, traj, ext, terminal, route):
    """Adjoint of ``route`` from s terminal values seeded at N..N+s-1,
    swept below N in the sweep array ``ext``.

    OtD takes the b-terms' f_y^T at j+1+k, DtO at j.  The terminal mode
    and its hook are read before f_y is evaluated.
    """
    tab, grid, s, N = traj.tab, traj.grid, traj.s, traj.grid.N
    shifted = route == "otd"
    ext[N + s - 1:] = _terminal_values(problem, traj, terminal)
    # shifted, the last b-term k reads f_y up to index N + k
    hi = N + tab.b_terms[-1][0] if shifted and tab.b_terms else N - 1
    Jt = _jacobians(problem, traj, 1 - s, hi, ext.dtype)
    coef, diag = _sweep_matrices(tab, grid.dt, Jt, N + s - 1, shifted)
    _backward_sweep(ext, s, N - 1, coef[::-1], diag[::-1], floor=1 - s)
    return _adjoint_trajectory(traj, ext, route)


def _adjoint_trajectory(traj, ext, route):
    """Multipliers on indices 1-s..N from the extended sweep array.

    Raises ``SolverError`` at the first non-finite multiplier in sweep
    order (the highest such index); one vectorised check per sweep.
    """
    mult = ext[: traj.grid.N + traj.s]
    bad = np.flatnonzero(~np.isfinite(mult).all(axis=1))
    if bad.size:
        i = int(bad[-1]) - (traj.s - 1)
        raise SolverError(
            f"non-finite {route} multiplier at step index {i}",
            step_index=i)
    return AdjointTrajectory(traj.grid, traj.tab, mult.copy(), route)


@np.errstate(over="ignore", invalid="ignore")
def solve_adjoint_otd(problem: OdeControlProblem, tab: MultistepTableau,
                      grid: TimeGrid, traj: Trajectory,
                      terminal: str) -> AdjointTrajectory:
    """Adjoint by discretizing the continuous equation (time-reversed tableau).

    Backward recurrence, solved for p_{n-1} from the s future multipliers:

        p_{n-1} = -sum_i a_i p_{n+i}
                  + dt * sum_{i=-1}^{s-1} b_i f_y(y_{n+i},u_{n+i})^T p_{n+i}

    The s-deep terminal history at indices N..N+s-1 comes from ``p_exact``
    (``terminal='exact'``) or replicates j_y(y_N) (``'replicate'``).  Past T
    the Jacobian is taken at the exact solution when the problem has one,
    else clamped to index N.  The sweep runs in the dtype of ``grid.dt`` and
    the states, which for a system (n > 1) must be float64 or float32 (a
    ValueError).  Raises
    ``SolverError`` with the step index of the first non-finite
    multiplier.
    """
    ext = _sweep_array(problem, tab, grid, traj)
    return _seeded_sweep(problem, traj, ext, terminal, "otd")


@np.errstate(over="ignore", invalid="ignore")
def solve_adjoint_dto(problem: OdeControlProblem, tab: MultistepTableau,
                      grid: TimeGrid, traj: Trajectory,
                      terminal: str = "cost") -> AdjointTrajectory:
    """Adjoint of the discretized problem (transposed recurrence).

    Solves, right to left with p_j = 0 for j > N,

        0 = p_i + a^T(p_{i+1},..,p_{i+s})
            - dt * f_y(y_i,u_i)^T b^T(p_i,..,p_{i+s}) + d_{y_i} j(y_N)

    The terminal block i = N-s+1..N is assembled and solved as one coupled
    linear system; interior indices are pointwise implicit solves.  Output is
    sign-normalized to the continuous convention.  ``terminal='exact'``
    instead seeds indices N..N+s-1 from ``p_exact`` and sweeps every lower
    index with the interior recurrence (prescribed-trajectory studies).
    The sweep runs in the dtype of ``grid.dt`` and the states, which with
    ``terminal='cost'`` or for a system (n > 1) must be float64 or float32
    (a ValueError).  Raises
    ``SolverError`` with the step index of the first non-finite
    multiplier.

    The transposed system fixes the multiplier amplitude so that the
    b-weighted stencil combination, not the raw multiplier, approximates the
    continuous adjoint (for BDF the raw values carry a 1/b_{-1} factor).
    Stationarity residuals and cost gradients therefore always contract the
    multipliers through (B^T p); see ``optimality_residual``.
    """
    s, N, n = tab.s, grid.N, problem.dim
    ext = _sweep_array(problem, tab, grid, traj)
    if terminal == "exact":
        return _seeded_sweep(problem, traj, ext, "exact", "dto")
    if terminal != "cost":
        raise ValueError(f"unknown terminal mode {terminal!r}")
    if problem.terminal_cost_grad is None:
        raise ValueError("DtO route requires terminal_cost_grad")
    _require_linalg(ext.dtype)  # the terminal block's np.linalg.solve
    jy = np.atleast_1d(problem.terminal_cost_grad(traj.terminal_state))
    # f_y is read on the step equations 1..N and on the initial-data rows
    # i <= 0 that one of their b-terms reaches (never for BDF)
    lo = -tab.b_terms[-1][0] if tab.b_terms else 1
    Jt = _jacobians(problem, traj, lo, N, ext.dtype)
    coef, diag = _sweep_matrices(tab, grid.dt, Jt, N + s, shifted=False)
    # Terminal block: s coupled equations for p_{N-s+1..N} (coupled through
    # b^T p); row r and column c hold indices N-s+1+r and N-s+1+c, which
    # sit at slots N+r and N+c.
    M = np.zeros((s, n, s, n), ext.dtype)
    for r in range(s):
        M[r, :, r] = diag[N + r]
        for c in range(r + 1, s):
            M[r, :, c] = -coef[N + r, c - r - 1]
    rhs = np.zeros((s, n), ext.dtype)
    rhs[-1] = jy  # continuous-sign flip applied here
    try:
        sol = np.linalg.solve(M.reshape(s * n, s * n), rhs.reshape(-1))
    except np.linalg.LinAlgError:
        raise SolverError(
            "singular terminal block in the transposed adjoint system") from None
    ext[N:N + s] = sol.reshape(s, n)
    # the initial-data identities (i <= 0) carry no f-term: explicit rows
    # whose sums read the step equations j >= 1 only
    diag[:s] = np.eye(n)
    _backward_sweep(ext, s, N - s, coef[N - 1::-1], diag[N - 1::-1], floor=1)
    return _adjoint_trajectory(traj, ext, "dto")


def optimality_residual(problem: OdeControlProblem, traj: Trajectory,
                        adj: AdjointTrajectory) -> np.ndarray:
    """Stationarity residual at every index 1-s..N, one f_u call on the stack.

    OtD route: r_i = f_u(y_i,u_i)^T p_i + alpha*u_i.  DtO route uses the
    b-weighted multiplier combination (B^T p)_i in place of p_i, with p_j = 0
    outside the step equations 1..N.  The alpha term applies on the
    cost-quadrature indices 0..N only.  ``adj`` must be of the trajectory's
    grid and scheme (a ValueError, raised before f_u is called).
    """
    if problem.f_u is None:
        raise ValueError("optimality residual requires f_u")
    _require_trajectory(adj.grid, adj.tab, traj)
    grid, tab, s, (rows, n) = traj.grid, traj.tab, traj.s, traj.states.shape
    fu = _broadcast("f_u", problem.f_u(traj.states, traj.controls,
                                       grid.t(np.arange(1 - s, grid.N + 1))),
                    (rows, n))
    p = adj.multipliers
    if adj.route == "dto":
        pz = np.zeros((rows + s, n), p.dtype)  # indices 1-s..N+s
        pz[s:rows] = p[s:]
        p = sum(tab.b[k] * pz[k:k + rows] for k in range(s + 1))
    out = (fu[:, None] @ p[..., None])[:, 0, 0].astype(float)  # rowwise dot
    out[s - 1:] += problem.alpha * traj.controls[s - 1:]
    return out


def discrete_cost(problem: OdeControlProblem, traj: Trajectory) -> float:
    """j(y_N) + (alpha/2) * dt * sum_{i=0..N} u_i^2 for a solved trajectory."""
    if problem.terminal_cost is None:
        raise ValueError("discrete cost requires terminal_cost")
    val = float(problem.terminal_cost(traj.terminal_state))
    if problem.alpha:
        u_on = traj.controls[traj.s - 1:]
        val += 0.5 * problem.alpha * traj.grid.dt * float(np.sum(u_on ** 2))
    return val


def cost_gradient_dto(problem: OdeControlProblem, traj: Trajectory,
                      adj: AdjointTrajectory) -> np.ndarray:
    """Exact gradient of the discrete cost w.r.t. every control u_i.

    Equals dt times the DtO optimality residual; matches brute-force finite
    differences of ``discrete_cost`` to solver tolerance.
    """
    if adj.route != "dto":
        raise ValueError("exact discrete gradient requires the DtO adjoint")
    return traj.grid.dt * optimality_residual(problem, traj, adj)
