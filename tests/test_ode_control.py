"""Forward/adjoint solvers for controlled ODEs, both adjoint routes."""

import dataclasses
import hashlib
import itertools
import json
import pathlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lmm_adjoint as la
from lmm_adjoint import cli, experiments
from lmm_adjoint.config import load_config
from lmm_adjoint.experiments import backward_study_solution
from lmm_adjoint.ode_control import (Trajectory, _jacobians, _last_b_term,
                                     cost_gradient_dto, discrete_cost,
                                     optimality_residual, prescribed_trajectory,
                                     solve_adjoint_dto, solve_adjoint_otd,
                                     solve_forward)
from lmm_adjoint.problems import (constant_coefficient_study,
                                  quadratic_coefficient_study,
                                  terminal_tracking_problem)


def linf_state_error(traj, tab, exact):
    grid = traj.grid
    t = np.array([grid.t(i) for i in range(grid.N + 1)])
    return float(np.max(np.abs(traj.states[tab.s - 1:, 0] - exact(t))))


class TestForward:
    def test_constant_solution(self):
        prob = la.OdeControlProblem(
            f=lambda y, u, t: 0.0 * y,
            f_y=lambda y, u, t: np.array([[0.0]]),
            y0=2.5, y_exact=lambda t: 2.5)
        traj = solve_forward(prob, la.tableau("BDF3"), la.TimeGrid(1, 50))
        assert np.all(traj.states == 2.5)

    def test_blowup_quadratic_oracle(self):
        # BDF3 on y' = y^2, N = 40: frozen value from a 50-digit mpmath run
        # of the same recurrence (the published table prints 0.0720175 for
        # this cell, which is not the max-norm error of the scheme)
        prob = terminal_tracking_problem()
        tab = la.tableau("BDF3")
        traj = solve_forward(prob, tab, la.TimeGrid(0.9, 40))
        err = linf_state_error(traj, tab, lambda t: 1.0 / (1.0 - t))
        assert abs(err - 0.18060684908778) <= 1e-11

    def test_forward_orders_full_system(self):
        for name, target in (("BDF3", 3.0), ("BDF4", 4.0), ("BDF6", 6.0)):
            tab = la.tableau(name)
            prob = terminal_tracking_problem()
            errs = []
            for N in (320, 640, 1280):
                traj = solve_forward(prob, tab, la.TimeGrid(0.9, N))
                errs.append(linf_state_error(traj, tab,
                                             lambda t: 1.0 / (1.0 - t)))
            rates = [np.log2(a / b) for a, b in zip(errs, errs[1:])]
            assert rates[-1] >= target - 0.5, (name, rates)

    def test_nan_detection(self):
        prob = la.OdeControlProblem(
            f=lambda y, u, t: y * y,
            f_y=lambda y, u, t: (2 * y)[..., None],
            y0=1.0, y_exact=lambda t: 1.0 / (1.0 - t))
        with pytest.raises(la.SolverError) as err:
            solve_forward(prob, la.tableau("ExplicitEuler"),
                          la.TimeGrid(2.0, 60))
        assert err.value.step_index == 43

    @pytest.mark.parametrize("dtype, residual", [
        (float, 0.4431458287467027), (np.longdouble, 0.44315519019065697)])
    def test_newton_nonconvergence_on_full_system(self, dtype, residual):
        # BDF1 on y' = y^2 cannot follow the blow-up at t = 1 on this grid;
        # a long-double dt steps in long double and reports a float norm
        with pytest.raises(la.ImplicitSolveError) as err:
            solve_forward(terminal_tracking_problem(), la.tableau("BDF1"),
                          la.TimeGrid(dtype(0.9), 40))
        assert "t=0.8775" in str(err.value)
        assert err.value.step_index == 39  # t = 39 * 0.9/40
        assert type(err.value.residual) is float
        assert err.value.residual == residual
        assert err.value.iterations == 50

    def test_controls_callable_and_array(self):
        # a scalar control is the constant array over indices 1-s..N
        prob = terminal_tracking_problem(T=0.5)
        tab = la.tableau("BDF2")
        grid = la.TimeGrid(0.5, 20)
        t1 = solve_forward(prob, tab, grid, controls=0.1)
        t2 = solve_forward(prob, tab, grid,
                           controls=np.full(grid.N + tab.s, 0.1))
        assert np.array_equal(t1.states, t2.states)

    @pytest.mark.parametrize("dtype", [np.float64, np.longdouble])
    def test_newton_iterates_are_numpy_scalars(self, dtype):
        # the exact bootstrap passes f a (1,) array; in the Newton loop f and
        # f_y get 0-d NumPy scalars in the iterate's dtype: the predictor is
        # a stored float64 state, and on a long-double grid every later
        # iterate is a long double
        prob = terminal_tracking_problem()
        args = {"f": [], "f_y": []}

        def recorded(name):
            fn = getattr(prob, name)
            return lambda y, u, t: args[name].append(y) or fn(y, u, t)

        tab, grid = la.tableau("BDF3"), la.TimeGrid(dtype(0.9), 40)
        traj = solve_forward(dataclasses.replace(
            prob, f=recorded("f"), f_y=recorded("f_y")), tab, grid)
        boot, newton = args["f"][:tab.s], args["f"][tab.s:] + args["f_y"]
        assert all(type(y) is np.ndarray and y.shape == (1,) for y in boot)
        assert all(isinstance(y, np.generic) and y.ndim == 0 for y in newton)
        dtypes = [y.dtype for y in newton]
        assert set(dtypes) == {np.dtype(np.float64), np.dtype(dtype)}
        if dtype is np.longdouble:  # one float64 predictor per step
            assert dtypes[:len(args["f"]) - tab.s].count(np.float64) == 40
        assert np.array_equal(traj.states, solve_forward(prob, tab,
                                                         grid).states)

    @pytest.mark.parametrize("dtype", [np.float64, np.longdouble])
    def test_array_valued_scalar_f_sweeps_alike(self, dtype):
        # any size-1 result of f is read back as the same float64
        prob = terminal_tracking_problem()
        boxed = dataclasses.replace(
            prob, f=lambda y, u, t: np.atleast_1d(y ** 2 + u))
        tab, grid = la.tableau("BDF4"), la.TimeGrid(dtype(0.9), 80)
        controls = np.linspace(-0.2, 0.3, grid.N + tab.s)
        assert np.array_equal(
            solve_forward(boxed, tab, grid, controls).states,
            solve_forward(prob, tab, grid, controls).states)


class TestPrescribedTrajectory:
    @pytest.mark.parametrize("dtype", [np.float64, np.longdouble])
    @pytest.mark.parametrize("y", [lambda t: t * t, np.exp])
    def test_one_evaluation_on_the_grid_times(self, dtype, y):
        # bitwise the states of one y(t) call per index i*dt
        calls = []

        def counted(t):
            calls.append(t)
            return y(t)

        grid = la.TimeGrid(dtype(0.7), 48)
        traj = prescribed_trajectory(grid, 3, counted)
        per_index = np.array([np.atleast_1d(y(i * grid.dt))
                              for i in range(-2, 49)])
        assert len(calls) == 1
        assert traj.states.dtype == per_index.dtype == dtype
        assert np.array_equal(traj.states, per_index)

    def test_vector_state_time_axis_last(self):
        # y(t) = np.array([y1(t), y2(t)]) gives (2, N+s) on the times
        y = rotation_problem().y_exact
        grid = la.TimeGrid(0.7, 12)
        traj = prescribed_trajectory(grid, 2, y)
        per_index = np.array([np.atleast_1d(y(i * grid.dt))
                              for i in range(-1, 13)])
        assert traj.states.shape == (14, 2)
        assert traj.states.flags["C_CONTIGUOUS"]
        assert np.array_equal(traj.states, per_index)

    def test_y_must_broadcast_over_times(self):
        with pytest.raises(ValueError):
            prescribed_trajectory(la.TimeGrid(1.0, 8), 2, lambda t: 2.5)


class TestAdjointRoutes:
    def test_zero_dynamics_interpolation(self):
        # f_y = 0: p_n = p_N for every index, any tableau
        prob = la.OdeControlProblem(
            f=lambda y, u, t: y, f_y=lambda y, u, t: np.array([[0.0]]),
            terminal_cost_grad=lambda yT: np.array([1.3]), y0=1.0)
        for name in ("ExplicitEuler", "BDF4", "AM4", "AB3"):
            tab = la.tableau(name)
            grid = la.TimeGrid(1.0, 32)
            traj = prescribed_trajectory(grid, tab.s, lambda t: 0.0 * t)
            adj = solve_adjoint_otd(prob, tab, grid, traj,
                                    terminal="replicate")
            assert np.max(np.abs(adj.multipliers - 1.3)) <= 1e-13

    def test_constant_fy_routes_bit_identical(self):
        prob = constant_coefficient_study()
        for name in ("ExplicitEuler", "AB3", "AM4"):
            tab = la.tableau(name)
            grid = la.TimeGrid(1.0, 80)
            traj = prescribed_trajectory(grid, tab.s, lambda t: 0.0 * t)
            a_d = solve_adjoint_dto(prob, tab, grid, traj, terminal="exact")
            a_o = solve_adjoint_otd(prob, tab, grid, traj, terminal="exact")
            assert np.array_equal(a_d.multipliers, a_o.multipliers)

    def test_constant_fy_exact_solution(self):
        # p(t) = exp(T - t); AM4 converges at its nominal order 5
        prob = constant_coefficient_study()
        tab = la.tableau("AM4")
        errs = []
        for N in (40, 80):
            grid = la.TimeGrid(1.0, N)
            traj = prescribed_trajectory(grid, tab.s, lambda t: 0.0 * t)
            adj = solve_adjoint_otd(prob, tab, grid, traj, terminal="exact")
            t = np.array([grid.t(i) for i in range(N + 1)])
            errs.append(np.max(np.abs(adj.on_grid()[:, 0] - np.exp(1.0 - t))))
        assert errs[0] <= 1e-9
        assert np.log2(errs[0] / errs[1]) >= 4.7

    def test_bdf_routes_identical_same_terminal(self):
        # Lemma-3 property, shared terminal block: bitwise agreement
        prob = quadratic_coefficient_study()
        for name in ("ImplicitEuler", "BDF2", "BDF4", "BDF6"):
            tab = la.tableau(name)
            grid = la.TimeGrid(1.0, 64)
            traj = prescribed_trajectory(grid, tab.s, lambda t: t ** 2)
            a_d = solve_adjoint_dto(prob, tab, grid, traj, terminal="exact")
            a_o = solve_adjoint_otd(prob, tab, grid, traj, terminal="exact")
            assert np.array_equal(a_d.multipliers, a_o.multipliers)

    def test_bdf_routes_own_terminal_order_gap(self):
        # with each route's own terminal data (transposed block vs replicated
        # cost gradient) the raw trajectories differ by an O(1) amplitude
        # factor scaled by the terminal mismatch, so at the u = 0 optimum
        # (mismatch = state error = O(dt^p)) they agree at the scheme order
        prob = terminal_tracking_problem(T=0.9, alpha=1.0)
        tab = la.tableau("BDF3")
        diffs = []
        for N in (80, 160, 320):
            grid = la.TimeGrid(0.9, N)
            traj = solve_forward(prob, tab, grid, controls=0.0)
            a_d = solve_adjoint_dto(prob, tab, grid, traj, terminal="cost")
            a_o = solve_adjoint_otd(prob, tab, grid, traj,
                                    terminal="replicate")
            diffs.append(float(np.max(np.abs(a_d.on_grid() - a_o.on_grid()))))
        rates = [np.log2(a / b) for a, b in zip(diffs, diffs[1:])]
        assert min(rates) >= tab.nominal_order - 0.3

    def test_dto_amplitude_normalization(self):
        # the raw BDF multipliers carry a 1/b_-1 amplitude relative to the
        # continuous adjoint; the b-weighted combination restores it
        prob = terminal_tracking_problem(T=0.5, alpha=1.0)
        tab = la.tableau("BDF3")
        grid = la.TimeGrid(0.5, 320)
        traj = solve_forward(prob, tab, grid, controls=0.2)
        a_d = solve_adjoint_dto(prob, tab, grid, traj, terminal="cost")
        a_o = solve_adjoint_otd(prob, tab, grid, traj, terminal="replicate")
        ratio = a_d.p(0)[0] / a_o.p(0)[0]
        assert abs(ratio - 1.0 / tab.b_implicit) <= 0.05

    def test_quadratic_fy_route_orders(self):
        # raw-convention observed orders: the discrete adjoint of AM4 drops
        # to first order (Sandu-type reduction), the continuous route keeps
        # order five; the extrapolated convention reads one order higher and
        # is exercised via the experiment driver tests
        tab = la.tableau("AM4")
        T = 1.0
        pex = lambda t: np.exp((T ** 3 - t ** 3) / 3.0)
        errs = {"dto": [], "otd": []}
        for route in ("dto", "otd"):
            for N in (160, 320, 640):
                p = backward_study_solution(tab, N, T,
                                            quadratic_coefficient_study,
                                            route)
                t = np.arange(N + 1) * (np.longdouble(T) / N)
                errs[route].append(float(np.max(np.abs(p - pex(t)))))
        r_dto = np.log2(errs["dto"][-2] / errs["dto"][-1])
        r_otd = np.log2(errs["otd"][-2] / errs["otd"][-1])
        assert 0.8 <= r_dto <= 1.2
        assert 4.7 <= r_otd <= 5.3

    def test_study_engine_matches_general_solver(self):
        # the long-double study adapter agrees with the general adjoint
        # solvers on a double grid to double precision
        prob = quadratic_coefficient_study()
        T = 1.0
        for name in ("AM4", "BDF4", "ExplicitEuler"):
            tab = la.tableau(name)
            grid = la.TimeGrid(T, 48)
            traj = prescribed_trajectory(grid, tab.s, lambda t: t ** 2)
            for route, solver in (("dto", solve_adjoint_dto),
                                  ("otd", solve_adjoint_otd)):
                ref = solver(prob, tab, grid, traj, terminal="exact")
                p = backward_study_solution(tab, 48, T,
                                            quadratic_coefficient_study,
                                            route)
                dev = np.max(np.abs(ref.on_grid()[:, 0] - p))
                assert dev <= 5e-14, (name, route, dev)

    def test_singular_pointwise_solve(self):
        # 1 - dt*b_-1*f_y = 0 triggers the named error
        tab = la.tableau("ImplicitEuler")
        grid = la.TimeGrid(1.0, 10)
        prob = la.OdeControlProblem(
            f=lambda y, u, t: y,
            f_y=lambda y, u, t: np.array([[1.0 / grid.dt]]),
            terminal_cost_grad=lambda yT: np.array([1.0]), y0=1.0)
        traj = prescribed_trajectory(grid, tab.s, lambda t: 1.0 + 0 * t)
        with pytest.raises(la.SolverError):
            solve_adjoint_dto(prob, tab, grid, traj, terminal="cost")


def reference_study_solution(tab, N, T, fy, p_exact, route,
                             dtype=np.longdouble):
    """The prescribed-study recurrence as first released: a scalar loop on
    coefficients converted from the exact rationals, the coefficient
    sampled per term (OtD) or frozen at the anchor index (DtO)."""
    conv = lambda fr: dtype(fr.numerator) / dtype(fr.denominator)
    a = [conv(c) for c in tab.a_exact]
    b = [conv(c) for c in tab.b_exact]
    s = tab.s
    dt = dtype(T) / dtype(N)
    t = lambda i: dtype(i) * dt
    p = np.zeros(N + 2 * s, dtype=dtype)
    for k in range(s):
        p[N + k] = p_exact(t(N + k))
    for i in range(N - 1, -1, -1):
        acc = dtype(0)
        if route == "otd":
            for k in range(s):
                acc += (-a[k] + dt * b[k + 1] * fy(t(i + 1 + k))) * p[i + 1 + k]
            p[i] = acc / (dtype(1) - dt * b[0] * fy(t(i)))
        else:
            g = fy(t(i))
            for k in range(s):
                acc += (-a[k] + dt * b[k + 1] * g) * p[i + 1 + k]
            p[i] = acc / (dtype(1) - dt * b[0] * g)
    return p[: N + 1]


# study -> (problem factory, f_y(t), T -> p_exact), as the first release
# spelled them out
REFERENCE_STUDIES = {
    "const-fy": (constant_coefficient_study, lambda t: t * 0 + 1,
                 lambda T: (lambda t: np.exp(T - t))),
    "quadratic-fy": (quadratic_coefficient_study, lambda t: t * t,
                     lambda T: (lambda t: np.exp((T * T * T - t * t * t) / 3))),
}


class TestStudyReference:
    """The long-double studies on the generic sweeps reproduce the scalar
    study recurrence bit for bit."""

    @pytest.mark.parametrize("name", ["ExplicitEuler", "AB2", "AB3", "AM4",
                                      "AM4-270", "BDF1", "BDF2", "BDF3",
                                      "BDF4", "BDF5", "BDF6"])
    def test_generic_sweeps_match_scalar_recurrence(self, name):
        tab = la.tableau(name)
        for study, (factory, fy, p_exact) in REFERENCE_STUDIES.items():
            for T, N, route in itertools.product((1.0, 0.7), (tab.s, 48),
                                                 ("dto", "otd")):
                with np.errstate(divide="ignore", invalid="ignore"):
                    ref = reference_study_solution(
                        tab, N, T, fy, p_exact(np.longdouble(T)), route)
                if not np.isfinite(ref).all():
                    # ImplicitEuler, f_y = 1, dt = 1: 1 - dt*b_-1*f_y = 0
                    with pytest.raises(la.SolverError) as err:
                        backward_study_solution(tab, N, T, factory, route)
                    assert (f"step index {err.value.step_index}"
                            in str(err.value))
                    continue
                p = backward_study_solution(tab, N, T, factory, route)
                assert p.dtype == np.longdouble
                assert np.array_equal(p, ref), (study, T, N, route)

    def test_unknown_route(self):
        with pytest.raises(ValueError, match="unknown route"):
            backward_study_solution(la.tableau("BDF2"), 8, 1.0,
                                    constant_coefficient_study, "both")


BENCH = pathlib.Path(__file__).resolve().parents[1] / "bench"


def reference_digests(workload):
    return json.loads((BENCH / "reference" / f"{workload}.json").read_text())


def assert_config_matches_reference(workload, conf, out):
    """Every CSV of one benchmark config equals its seed-0 reference, byte
    for byte."""
    path = BENCH / "workloads" / workload / conf
    assert cli.main([load_config(path).kind, "--config", str(path),
                     "--out", str(out)]) == 0
    files = reference_digests(workload)[conf]["files"]
    written = sorted(f.name for f in out.glob("*.csv"))
    assert written == sorted(files), conf
    for fname, meta in files.items():
        digest = hashlib.sha256((out / fname).read_bytes()).hexdigest()
        assert digest == meta["sha256"], (conf, fname)


class TestStudyTableBytes:
    def test_ode_tables_match_reference_digests(self, tmp_path):
        for conf in reference_digests("ode-tables"):
            assert_config_matches_reference("ode-tables", conf, tmp_path / conf)

    @pytest.mark.parametrize("workload, conf", [
        *(("relax-paper", conf) for conf in reference_digests("relax-paper")),
        *(("relax-wide", conf) for conf in reference_digests("relax-wide"))])
    def test_relaxation_tables_match_reference_digests(self, workload, conf,
                                                       tmp_path):
        assert_config_matches_reference(workload, conf, tmp_path)


def overflowing_adjoint_problem():
    """y' = c y + u, y(0) = 0, for ImplicitEuler with dt = 1/64.

    The state stays 0, so the forward Newton solve never calls f_y.  With
    c = 64 - 2^-27, dt*c = 1 - 2^-33 exactly, so each backward step of
    either route multiplies the multiplier by exactly 2^33 and the sweep
    overflows at a known index: DtO starts from p_N = -2^33 and first
    overflows at p_{N-31} (2^(33*32)); OtD starts from p_N = j_y = -1 and
    first overflows at p_{N-32}.
    """
    c = 64.0 - 2.0 ** -27
    return la.OdeControlProblem(
        f=lambda y, u, t: c * y + u,
        f_y=lambda y, u, t: np.array([[c]]),
        f_u=lambda y, u, t: np.array([1.0]),
        terminal_cost=lambda yT: 0.5 * float((yT[0] - 1.0) ** 2),
        terminal_cost_grad=lambda yT: np.atleast_1d(yT - 1.0),
        alpha=1.0, y0=0.0, y_exact=lambda t: 0.0 * t)


class TestDtoJacobianEvaluations:
    @pytest.mark.parametrize("name", ["ImplicitEuler", "BDF3", "BDF6", "AM4"])
    def test_initial_rows_read_fy_only_for_b_terms(self, name):
        # f_y once per sweep, on the stack of the indices it reads: the step
        # equations 1..N, and the s initial-data rows (indices 1-s..0) only
        # when a nonzero b-term reads them, which BDF never has
        prob = terminal_tracking_problem(T=0.5)
        tab = la.tableau(name)
        grid = la.TimeGrid(0.5, 40)
        traj = solve_forward(prob, tab, grid, init_mode="exact")
        seen = []

        def f_y(y, u, t):
            seen.append(t)
            return prob.f_y(y, u, t)

        adj = solve_adjoint_dto(dataclasses.replace(prob, f_y=f_y), tab,
                                grid, traj)
        first = 1 if tab.is_bdf else 1 - tab.s
        assert len(seen) == 1
        assert seen[0].tolist() == [i * grid.dt
                                    for i in range(first, grid.N + 1)]
        plain = solve_adjoint_dto(prob, tab, grid, traj)
        assert np.array_equal(adj.multipliers, plain.multipliers)

    def test_per_point_fy_is_rejected(self):
        # an f_y written for one state, (1,) -> (1, 1), returns (K, 1) on
        # the stack of K states
        prob = dataclasses.replace(terminal_tracking_problem(T=0.5),
                                   f_y=lambda y, u, t: np.atleast_2d(2 * y))
        tab, grid = la.tableau("BDF2"), la.TimeGrid(0.5, 40)
        traj = solve_forward(prob, tab, grid)
        with pytest.raises(ValueError, match=r"f_y returned shape \(40, 1\)"):
            solve_adjoint_dto(prob, tab, grid, traj)

    def test_per_point_fu_is_rejected(self):
        prob = dataclasses.replace(terminal_tracking_problem(T=0.5),
                                   f_u=lambda y, u, t: 2.0 * u)
        tab, grid = la.tableau("BDF2"), la.TimeGrid(0.5, 40)
        traj = solve_forward(prob, tab, grid)
        adj = solve_adjoint_dto(prob, tab, grid, traj)
        with pytest.raises(ValueError, match=r"f_u returned shape \(42,\)"):
            optimality_residual(prob, traj, adj, tab)


def reference_jacobians(problem, traj, lo, hi, dtype):
    """``_jacobians`` as first released: one per-point f_y call per index,
    with the exact state past N, else state, control and time clamped to
    N."""
    dt, N, off = traj.grid.dt, traj.grid.N, traj.s - 1
    states, u = traj.states, traj.controls
    J = np.zeros((N + 2 * traj.s - 1, problem.dim, problem.dim), dtype)
    for i in range(lo, hi + 1):
        if i <= N:
            args = states[i + off], u[i + off], i * dt
        elif problem.y_exact is not None:
            args = np.atleast_1d(problem.y_exact(i * dt)), u[N + off], i * dt
        else:
            args = states[N + off], u[N + off], N * dt
        J[i + off] = np.atleast_2d(problem.f_y(*args))
    return J.transpose(0, 2, 1)


def coupled_fy(alpha, beta, n):
    """A state-, control- and time-dependent f_y that broadcasts: y of shape
    (..., n), u and t of shape (...)."""
    def f_y(y, u, t):
        ut = np.multiply(u, t)
        if n == 1:
            return (alpha * y + beta * ut[..., None])[..., None]
        y0, y1 = y[..., 0], y[..., 1]
        return np.stack([np.stack([alpha * y0 + ut, beta * y1], -1),
                         np.stack([y0 * y1 - ut, alpha - beta * ut * y1], -1)],
                        -2)
    return f_y


class TestBatchedJacobians:
    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(name=st.sampled_from(["ImplicitEuler", "BDF2", "BDF3", "BDF4",
                                 "BDF5", "BDF6", "AB2", "AB3", "AM4"]),
           dtype=st.sampled_from([np.float64, np.longdouble]),
           n=st.sampled_from([1, 2]), route=st.sampled_from(["dto", "otd"]),
           exact=st.booleans(), N=st.integers(6, 24),
           T=st.floats(0.25, 2.0), alpha=st.floats(-2.0, 2.0),
           beta=st.floats(-2.0, 2.0), seed=st.integers(0, 2 ** 32 - 1))
    def test_one_call_matches_per_index_reference(self, name, dtype, n, route,
                                                  exact, N, T, alpha, beta,
                                                  seed):
        tab = la.tableau(name)
        s, last_b = tab.s, _last_b_term(tab)
        grid = la.TimeGrid(dtype(T), N)
        rng = np.random.default_rng(seed)
        traj = Trajectory(grid, s, rng.uniform(-1, 1, (N + s, n)).astype(dtype),
                          rng.uniform(-1, 1, N + s))
        if n == 1:
            y_exact = lambda t: 1.0 + t * t
        else:
            y_exact = lambda t: np.array([np.cos(t), 1.0 + t * t])
        calls = []
        f_y = coupled_fy(alpha, beta, n)
        prob = la.OdeControlProblem(
            f=lambda y, u, t: y, y0=np.zeros(n),
            f_y=lambda *args: calls.append(args) or f_y(*args),
            y_exact=y_exact if exact else None)
        # the DtO and the OtD index ranges; OtD reaches past N where an
        # Adams b-term reads the Jacobian at j+1+k
        lo, hi = (-last_b, N) if route == "dto" else (1 - s, N + last_b)
        J = _jacobians(prob, traj, lo, hi, dtype)
        assert len(calls) == 1
        ref = reference_jacobians(dataclasses.replace(prob, f_y=f_y), traj,
                                  lo, hi, dtype)
        # bit for bit: equal values and signs (a long double's bytes carry
        # padding)
        assert J.dtype == ref.dtype and np.array_equal(J, ref)
        assert np.array_equal(np.signbit(J), np.signbit(ref))


class TestAdjointBlowUp:
    def test_overflow_reports_first_index_in_sweep_order(self):
        prob = overflowing_adjoint_problem()
        tab = la.tableau("ImplicitEuler")
        grid = la.TimeGrid(1.0, 64)
        traj = solve_forward(prob, tab, grid)
        assert np.all(traj.states == 0.0)
        for solver, terminal, index in ((solve_adjoint_dto, "cost", 33),
                                        (solve_adjoint_otd, "replicate", 32)):
            with pytest.raises(la.SolverError) as err:
                solver(prob, tab, grid, traj, terminal=terminal)
            assert err.value.step_index == index, solver.__name__
            assert f"step index {index}" in str(err.value)

    def test_cli_exit_code(self, tmp_path, monkeypatch, capsys):
        # the full-system table runs the DtO route first: N = 60 with
        # T = 0.9375 keeps dt = 1/64, so exit 3 at p_29
        monkeypatch.setattr(experiments, "terminal_tracking_problem",
                            lambda T: overflowing_adjoint_problem())
        conf = tmp_path / "c.conf"
        conf.write_text("[ode-converge]\nstudy = full-system\n"
                        "schemes = ImplicitEuler\nn_list = 60\nT = 0.9375\n")
        assert cli.main(["ode-converge", "--config", str(conf),
                         "--out", str(tmp_path)]) == 3
        assert "dto multiplier at step index 29" in capsys.readouterr().err

    def test_finite_sweeps_unaffected(self):
        # same dt, N = 31: the DtO multipliers p_i = -2^(33 (N - i + 1)),
        # i >= 1, and p_0 = p_1 stay finite, the largest being 2^1023
        prob = overflowing_adjoint_problem()
        tab = la.tableau("ImplicitEuler")
        grid = la.TimeGrid(31 / 64, 31)
        adj = solve_adjoint_dto(prob, tab, grid, solve_forward(prob, tab, grid))
        assert adj.p(0)[0] == adj.p(1)[0] == -(2.0 ** 1023)


def rotation_problem(omega=2.0, alpha=0.5):
    """y' = A y + B u with A the rotation generator [[0, -w], [w, 0]] and
    B = (0, 1); for u = 0, y(t) = (cos wt, sin wt).  Terminal cost
    1/2 |y(T) - (0.3, -0.2)|^2."""
    A = np.array([[0.0, -omega], [omega, 0.0]])
    B = np.array([0.0, 1.0])
    target = np.array([0.3, -0.2])
    return la.OdeControlProblem(
        f=lambda y, u, t: A @ y + B * u,
        f_y=lambda y, u, t: A,
        f_u=lambda y, u, t: B,
        terminal_cost=lambda yT: 0.5 * float(np.sum((yT - target) ** 2)),
        terminal_cost_grad=lambda yT: yT - target,
        alpha=alpha, y0=np.array([1.0, 0.0]),
        y_exact=lambda t: np.array([np.cos(omega * t), np.sin(omega * t)]))


class TestTwoStateSystem:
    """n = 2 runs the np.linalg.solve branches of the Newton step, of the
    pointwise adjoint solve and of the DtO terminal block."""

    @pytest.mark.parametrize("name", ["BDF2", "BDF3"])
    def test_forward_orders(self, name):
        prob = rotation_problem()
        tab = la.tableau(name)
        errs = []
        for N in (40, 80, 160):
            grid = la.TimeGrid(1.0, N)
            traj = solve_forward(prob, tab, grid)
            exact = np.array([prob.y_exact(grid.t(i))
                              for i in range(1 - tab.s, N + 1)])
            errs.append(float(np.max(np.abs(traj.states - exact))))
        rates = [np.log2(a / b) for a, b in zip(errs, errs[1:])]
        assert min(rates) >= tab.nominal_order - 0.2, rates

    @pytest.mark.parametrize("name", ["BDF2", "BDF3", "AM4"])
    def test_dto_gradient_matches_finite_differences(self, name):
        prob = rotation_problem()
        tab = la.tableau(name)
        N = 12
        grid = la.TimeGrid(1.0, N)
        u = 0.4 * np.sin(np.linspace(-1.0, 2.5, N + tab.s)) + 0.1
        traj = solve_forward(prob, tab, grid, controls=u)
        adj = solve_adjoint_dto(prob, tab, grid, traj)
        g = cost_gradient_dto(prob, traj, adj, tab)
        h = 1e-6
        for i in range(len(u)):
            up, um = u.copy(), u.copy()
            up[i] += h
            um[i] -= h
            jp = discrete_cost(prob, solve_forward(prob, tab, grid, up))
            jm = discrete_cost(prob, solve_forward(prob, tab, grid, um))
            fd = (jp - jm) / (2 * h)
            assert abs(g[i] - fd) <= 1e-6 * max(abs(fd), 1e-3), (i, g[i], fd)

    def test_bdf_routes_identical_same_terminal(self):
        # the pointwise n = 2 solves of both routes see the same matrices
        prob = rotation_problem()
        prob.p_exact = lambda t: np.array([np.cos(t), np.sin(t)])
        for name in ("BDF2", "BDF4"):
            tab = la.tableau(name)
            grid = la.TimeGrid(1.0, 32)
            traj = solve_forward(prob, tab, grid)
            a_d = solve_adjoint_dto(prob, tab, grid, traj, terminal="exact")
            a_o = solve_adjoint_otd(prob, tab, grid, traj, terminal="exact")
            assert np.array_equal(a_d.multipliers, a_o.multipliers)


class TestOptimalityAndGradient:
    def test_residual_zero_at_optimum(self):
        # u = 0 and p = 0 satisfy the optimality system exactly: with the
        # vanishing multiplier supplied, the residual is identically zero
        prob = terminal_tracking_problem(T=0.5, alpha=1.0)
        tab = la.tableau("BDF2")
        grid = la.TimeGrid(0.5, 40)
        traj = solve_forward(prob, tab, grid, controls=0.0)
        zero = la.AdjointTrajectory(grid, tab.s, np.zeros((grid.N + tab.s, 1)),
                                    "dto")
        res = optimality_residual(prob, traj, zero, tab)
        assert np.all(res == 0.0)
        # with the computed multiplier the residual is the discrete
        # optimality gap, which shrinks at the scheme order
        gaps = []
        for N in (40, 80):
            grid = la.TimeGrid(0.5, N)
            traj = solve_forward(prob, tab, grid, controls=0.0)
            adj = solve_adjoint_dto(prob, tab, grid, traj)
            gaps.append(np.max(np.abs(optimality_residual(prob, traj, adj,
                                                          tab))))
        assert np.log2(gaps[0] / gaps[1]) >= tab.nominal_order - 0.4

    def test_residual_direct_evaluation(self):
        # alpha = 1, p = 0, u = 1 -> residual = 1 on the quadrature range
        prob = terminal_tracking_problem(T=0.5, alpha=1.0)
        tab = la.tableau("BDF2")
        grid = la.TimeGrid(0.5, 10)
        traj = solve_forward(prob, tab, grid, controls=1.0)
        adj = la.AdjointTrajectory(grid, tab.s,
                                   np.zeros((grid.N + tab.s, 1)),
                                   "otd")
        res = optimality_residual(prob, traj, adj, tab)
        on_grid = res[tab.s - 1:]
        assert np.allclose(on_grid, 1.0)
        assert np.allclose(res[: tab.s - 1], 0.0)  # pre-initial: no cost term

    @pytest.mark.parametrize("scheme", ["BDF2", "BDF4", "AM4", "AB3"])
    @pytest.mark.parametrize("route", ["dto", "otd"])
    def test_residual_matches_per_index_reference(self, scheme, route):
        # one f_u call on the stacked trajectory against the per-index loop
        # as first released, with a state-dependent f_u (n = 2)
        prob = rotation_problem()
        B = prob.f_u(None, 0.0, 0.0)
        calls = []
        prob.f_u = lambda y, u, t: calls.append(t) or B + 0.1 * y * u[..., None]
        tab = la.tableau(scheme)
        grid = la.TimeGrid(1.0, 16)
        u = 0.4 * np.sin(np.linspace(-1.0, 2.5, grid.N + tab.s))
        traj = solve_forward(prob, tab, grid, controls=u)
        adj = (solve_adjoint_dto(prob, tab, grid, traj) if route == "dto"
               else solve_adjoint_otd(prob, tab, grid, traj, "replicate"))
        res = optimality_residual(prob, traj, adj, tab)
        assert len(calls) == 1
        ref = np.zeros(grid.N + tab.s)
        for i in range(1 - tab.s, grid.N + 1):
            fu = prob.f_u(traj.state(i), np.float64(traj.control(i)),
                          grid.t(i))
            pw = np.zeros(2)
            if route == "otd":
                pw = adj.p(i)
            else:
                for k in range(-1, tab.s):
                    if 1 <= i + k + 1 <= grid.N:
                        pw += tab.b[k + 1] * adj.p(i + k + 1)
            ref[traj.slot(i)] = float(fu @ pw) + (
                prob.alpha * traj.control(i) if i >= 0 else 0.0)
        assert np.array_equal(res, ref)

    @pytest.mark.parametrize("scheme", ["ImplicitEuler", "BDF2", "BDF3",
                                        "AM4", "AB3", "ExplicitEuler"])
    def test_gradient_matches_finite_differences(self, scheme):
        # DtO-assembled gradient of the discrete cost is exact (1e-6 rel)
        prob = terminal_tracking_problem(T=0.5, alpha=1.0)
        tab = la.tableau(scheme)
        N = 10
        grid = la.TimeGrid(0.5, N)
        u = 0.3 * np.sin(np.linspace(-1.0, 2.5, N + tab.s)) + 0.2
        traj = solve_forward(prob, tab, grid, controls=u)
        adj = solve_adjoint_dto(prob, tab, grid, traj)
        g = cost_gradient_dto(prob, traj, adj, tab)
        h = 1e-6
        for i in range(len(u)):
            up, um = u.copy(), u.copy()
            up[i] += h
            um[i] -= h
            jp = discrete_cost(prob, solve_forward(prob, tab, grid, up))
            jm = discrete_cost(prob, solve_forward(prob, tab, grid, um))
            fd = (jp - jm) / (2 * h)
            assert abs(g[i] - fd) <= 1e-6 * max(abs(fd), 1e-3), (i, g[i], fd)

    def test_terminal_block_satisfies_transposed_equation(self):
        # continuous-sign p_N solves (1 - dt b_-1 f_y) p_N = j_y(y_N)
        prob = terminal_tracking_problem(T=0.5, alpha=1.0)
        tab = la.tableau("BDF4")
        grid = la.TimeGrid(0.5, 24)
        traj = solve_forward(prob, tab, grid, controls=0.1)
        adj = solve_adjoint_dto(prob, tab, grid, traj)
        yN = traj.terminal_state
        fy = 2.0 * yN[0]
        jy = prob.terminal_cost_grad(yN)[0]
        pN = adj.p(grid.N)[0]
        assert abs((1.0 - grid.dt * tab.b_implicit * fy) * pN - jy) <= 1e-10
