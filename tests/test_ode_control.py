"""Forward/adjoint solvers for controlled ODEs, both adjoint routes."""

import collections
import dataclasses
import hashlib
import itertools
import json
import math
import operator
import pathlib
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lmm_adjoint as la
from lmm_adjoint import cli, experiments, ode_control, tableaus
from lmm_adjoint.config import load_config
from lmm_adjoint.experiments import backward_study_solution
from lmm_adjoint.ode_control import (Trajectory, _jacobians,
                                     cost_gradient_dto, discrete_cost,
                                     optimality_residual, prescribed_trajectory,
                                     solve_adjoint_dto, solve_adjoint_otd,
                                     solve_forward)
from lmm_adjoint.problems import (constant_coefficient_study,
                                  quadratic_coefficient_study,
                                  terminal_tracking_problem)
from lmm_adjoint.tableaus import SolverError, bootstrap_history, step


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
        assert str(err.value).endswith(" at step 39")
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

    def test_start_follows_the_problem(self):
        # a problem without y_exact starts by RK4 from y0, one with it
        # samples it; neither needs an option
        prob = terminal_tracking_problem(0.5)
        tab, grid = la.tableau("BDF3"), la.TimeGrid(0.5, 40)
        rhs = lambda y, t: np.atleast_1d(prob.f(y, 0.0, t))
        starts = []
        for y_exact in (None, prob.y_exact):
            traj = solve_forward(dataclasses.replace(prob, y_exact=y_exact),
                                 tab, grid)
            start, _ = bootstrap_history(tab, grid, rhs, prob.y0, y_exact)
            assert np.array_equal(traj.states[:tab.s],
                                  np.reshape(start, (tab.s, 1)))
            err = linf_state_error(traj, tab, lambda t: 1.0 / (1.0 - t))
            assert err < 1e-4
            starts.append(np.reshape(start, -1))
        rk4, exact = starts
        assert exact.tolist() == [1.0 / (1.0 + 2 * grid.dt),
                                  1.0 / (1.0 + grid.dt), 1.0]
        assert rk4[-1] == 1.0 and 0 < np.max(np.abs(rk4 - exact)) < 1e-8

    @pytest.mark.parametrize("dtype", [np.float64, np.longdouble])
    def test_newton_iterates_are_numpy_scalars(self, dtype):
        # the exact bootstrap passes f a (1,) array; in the Newton loop f and
        # f_y get 0-d NumPy scalars in the iterate's dtype: the predictor is
        # a stored float64 state, and on a long-double grid every later
        # iterate is a long double.  Every Newton call of step n gets the
        # control at index n, a NumPy float64 read from the controls array.
        prob = terminal_tracking_problem()
        args = {"f": [], "f_y": []}

        def recorded(name):
            fn = getattr(prob, name)
            return lambda y, u, t: args[name].append((y, u, t)) or fn(y, u, t)

        tab, grid = la.tableau("BDF3"), la.TimeGrid(dtype(0.9), 40)
        controls = np.linspace(-0.2, 0.3, grid.N + tab.s)
        traj = solve_forward(dataclasses.replace(
            prob, f=recorded("f"), f_y=recorded("f_y")), tab, grid, controls)
        boot, newton = args["f"][:tab.s], args["f"][tab.s:] + args["f_y"]
        assert all(type(y) is np.ndarray and y.shape == (1,)
                   for y, _, _ in boot)
        assert all(isinstance(y, np.generic) and y.ndim == 0
                   for y, _, _ in newton)
        dtypes = [y.dtype for y, _, _ in newton]
        assert set(dtypes) == {np.dtype(np.float64), np.dtype(dtype)}
        if dtype is np.longdouble:  # one float64 predictor per step
            assert dtypes[:len(args["f"]) - tab.s].count(np.float64) == 40
        steps = [int(round(t / grid.dt)) for _, _, t in newton]
        assert set(steps) == set(range(1, grid.N + 1))
        assert all(type(u) is np.float64 and u == controls[n + tab.s - 1]
                   for (_, u, _), n in zip(newton, steps))
        assert np.array_equal(traj.states, solve_forward(
            prob, tab, grid, controls).states)

    @pytest.mark.parametrize("dtype", [np.float64, np.longdouble])
    @pytest.mark.parametrize("name, fn", [
        ("f", lambda y, u, t: np.atleast_1d(y ** 2 + u)),
        ("f", lambda y, u, t: float((y ** 2 + u).item())),
        ("f_y", lambda y, u, t: np.reshape(2.0 * y, (1, 1)))],
        ids=["f-array", "f-python-float", "f_y-1x1"])
    def test_array_valued_scalar_f_sweeps_alike(self, dtype, name, fn):
        # any size-1 result of f or f_y, a NumPy or a Python scalar or an
        # array, is read back as the same float64
        prob = terminal_tracking_problem()
        boxed = dataclasses.replace(prob, **{name: fn})
        tab, grid = la.tableau("BDF4"), la.TimeGrid(dtype(0.9), 80)
        controls = np.linspace(-0.2, 0.3, grid.N + tab.s)
        assert np.array_equal(
            solve_forward(boxed, tab, grid, controls).states,
            solve_forward(prob, tab, grid, controls).states)


class TestTrackingJacobian:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(values=st.lists(st.floats(-1e300, 1e300, allow_nan=False),
                           min_size=1, max_size=8),
           dtype=st.sampled_from([np.float64, np.longdouble]),
           u=st.floats(-1, 1), t=st.floats(0, 1))
    def test_scalar_iterate_matches_the_stack(self, values, dtype, u, t):
        # the Newton sweep's 0-d iterate gets a scalar, a stack of K states
        # its (K, 1, 1) Jacobians, and both hold the same floats
        f_y = terminal_tracking_problem().f_y
        stack = np.array(values, dtype=dtype)[:, None]
        K = stack.shape[0]
        jac = f_y(stack, np.full(K, u), np.full(K, t))
        assert jac.shape == (K, 1, 1) and jac.dtype == dtype
        scalars = [f_y(y, u, t) for y in stack[:, 0]]
        assert all(type(j) is np.dtype(dtype).type for j in scalars)
        assert np.array_equal(value_bits(np.array(scalars, dtype)),
                              value_bits(jac[:, 0, 0]))


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
        traj = prescribed_trajectory(grid, la.tableau("BDF3"), counted)
        per_index = np.array([np.atleast_1d(y(i * grid.dt))
                              for i in range(-2, 49)])
        assert len(calls) == 1
        assert traj.states.dtype == per_index.dtype == dtype
        assert np.array_equal(traj.states, per_index)

    def test_vector_state_time_axis_last(self):
        # y(t) = np.array([y1(t), y2(t)]) gives (2, N+s) on the times
        y = rotation_problem().y_exact
        grid = la.TimeGrid(0.7, 12)
        traj = prescribed_trajectory(grid, la.tableau("BDF2"), y)
        per_index = np.array([np.atleast_1d(y(i * grid.dt))
                              for i in range(-1, 13)])
        assert traj.states.shape == (14, 2)
        assert traj.states.flags["C_CONTIGUOUS"]
        assert np.array_equal(traj.states, per_index)

    def test_y_must_broadcast_over_times(self):
        with pytest.raises(ValueError):
            prescribed_trajectory(la.TimeGrid(1.0, 8), la.tableau("BDF2"),
                                  lambda t: 2.5)


class TestAdjointRoutes:
    def test_zero_dynamics_interpolation(self):
        # f_y = 0: p_n = p_N for every index, any tableau
        prob = la.OdeControlProblem(
            f=lambda y, u, t: y, f_y=lambda y, u, t: np.array([[0.0]]),
            terminal_cost_grad=lambda yT: np.array([1.3]), y0=1.0)
        for name in ("ExplicitEuler", "BDF4", "AM4", "AB3"):
            tab = la.tableau(name)
            grid = la.TimeGrid(1.0, 32)
            traj = prescribed_trajectory(grid, tab, lambda t: 0.0 * t)
            adj = solve_adjoint_otd(prob, tab, grid, traj,
                                    terminal="replicate")
            assert np.max(np.abs(adj.multipliers - 1.3)) <= 1e-13

    def test_constant_fy_routes_bit_identical(self):
        prob = constant_coefficient_study()
        for name in ("ExplicitEuler", "AB3", "AM4"):
            tab = la.tableau(name)
            grid = la.TimeGrid(1.0, 80)
            traj = prescribed_trajectory(grid, tab, lambda t: 0.0 * t)
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
            traj = prescribed_trajectory(grid, tab, lambda t: 0.0 * t)
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
            traj = prescribed_trajectory(grid, tab, lambda t: t ** 2)
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
        ratio = a_d.multipliers[tab.s - 1, 0] / a_o.multipliers[tab.s - 1, 0]
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
            traj = prescribed_trajectory(grid, tab, lambda t: t ** 2)
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
        traj = prescribed_trajectory(grid, tab, lambda t: 1.0 + 0 * t)
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


def _cell_value(cell):
    """A CSV cell as float64: empty and text cells are NaN."""
    try:
        return float(cell)
    except ValueError:
        return np.nan


def reference_ulps(workload, conf, fname, path):
    """Largest distance in units in the last place between the finite
    numeric cells of the CSV at ``path`` and those recorded for it in
    ``bench/reference/<workload>.npz`` (every stride-th row, as recorded);
    None if the sampled shapes differ."""
    stride = reference_digests(workload)[conf]["files"][fname]["stride"]
    with np.load(BENCH / "reference" / f"{workload}.npz") as npz:
        ref = npz[f"{conf}/{fname}"]
    lines = path.read_text(encoding="utf-8").splitlines()[1::stride]
    cur = np.array([[_cell_value(c) for c in line.split(",")]
                    for line in lines], dtype=np.float64)
    if cur.shape != ref.shape:
        return None
    both = np.isfinite(cur) & np.isfinite(ref)
    # sign-magnitude bit patterns onto one monotone integer line
    ints = [np.where(i < 0, np.iinfo(np.int64).min - i, i).tolist()
            for i in (cur[both].view(np.int64), ref[both].view(np.int64))]
    return max((abs(x - y) for x, y in zip(*ints)), default=0)


def assert_config_matches_reference(workload, conf, out):
    """Every CSV of one benchmark config equals its seed-0 reference, byte
    for byte; a file that differs is reported with its largest ulp
    distance from the recorded numeric cells."""
    path = BENCH / "workloads" / workload / conf
    assert cli.main([load_config(path).kind, "--config", str(path),
                     "--out", str(out)]) == 0
    files = reference_digests(workload)[conf]["files"]
    written = sorted(f.name for f in out.glob("*.csv"))
    assert written == sorted(files), conf
    for fname, meta in files.items():
        digest = hashlib.sha256((out / fname).read_bytes()).hexdigest()
        if digest != meta["sha256"]:
            ulps = reference_ulps(workload, conf, fname, out / fname)
            pytest.fail(f"{conf}/{fname}: bytes differ from the reference; "
                        + ("the sampled shapes differ" if ulps is None else
                           f"numeric cells at most {ulps} ulp away"))


class TestReferenceUlps:
    def test_counts_units_in_the_last_place(self, tmp_path):
        # a run's own CSV is 0 ulp from the reference; nudging one cell
        # by two ulp, or dropping a row, is reported as such
        conf, fname = "relax-forward.conf", "forward_mass.csv"
        path = BENCH / "workloads" / "relax-paper" / conf
        assert cli.main([load_config(path).kind, "--config", str(path),
                         "--out", str(tmp_path)]) == 0
        csv = tmp_path / fname
        assert reference_ulps("relax-paper", conf, fname, csv) == 0
        lines = csv.read_text(encoding="utf-8").splitlines(keepends=True)
        cells = lines[5].rstrip("\n").split(",")
        mass = float(cells[2])
        cells[2] = "%.17g" % np.nextafter(np.nextafter(mass, np.inf), np.inf)
        csv.write_text("".join(lines[:5] + [",".join(cells) + "\n"]
                               + lines[6:]), encoding="utf-8")
        assert reference_ulps("relax-paper", conf, fname, csv) == 2
        csv.write_text("".join(lines[:-1]), encoding="utf-8")
        assert reference_ulps("relax-paper", conf, fname, csv) is None


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


class TestCriterion4Counts:
    def test_step_and_problem_calls_per_pass(self, monkeypatch, tmp_path,
                                             capsys):
        # the criterion-4 table (BDF3/4/6, N = 40..1280): one call of
        # ``ode_control.step``, looked up on the module, per forward step;
        # f and f_y as often as the layer counts of the benchmark record
        counts, inside = collections.Counter(), []

        def counting(name, fn):
            def call(*args):
                counts[name] += 1
                counts[name + "@step"] += bool(inside)
                return fn(*args)
            return call

        def counted_step(*args):
            counts["step"] += 1
            inside.append(True)
            try:
                return step(*args)
            finally:
                inside.pop()

        def counted_problem(*args, **kwargs):
            prob = terminal_tracking_problem(*args, **kwargs)
            return dataclasses.replace(prob, f=counting("f", prob.f),
                                       f_y=counting("f_y", prob.f_y))

        monkeypatch.setattr(ode_control, "step", counted_step)
        monkeypatch.setattr(experiments, "terminal_tracking_problem",
                            counted_problem)
        path = BENCH / "workloads" / "ode-tables" / "full-system.conf"
        assert cli.main(["ode-converge", "--config", str(path),
                         "--out", str(tmp_path)]) == 0
        assert counts["step"] == 3 * (40 + 80 + 160 + 320 + 640 + 1280)
        # the starts evaluate f 3 + 4 + 6 times per N, and each adjoint
        # sweep evaluates f_y once, on its stack
        assert (counts["f"], counts["f@step"]) == (23093, 23015)
        assert (counts["f_y"], counts["f_y@step"]) == (15491, 15455)


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
        traj = solve_forward(prob, tab, grid)
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

    def test_cost_terminal_on_long_double_grid_is_rejected(self):
        # np.linalg solves no long double block; the error names the dtype
        # before the sweep reads f_y, which the OtD route sweeps with
        plain = terminal_tracking_problem(T=0.5)
        tab, grid = la.tableau("BDF2"), la.TimeGrid(np.longdouble(0.5), 20)
        traj = solve_forward(plain, tab, grid)
        calls = []
        prob = dataclasses.replace(
            plain, f_y=lambda y, u, t: calls.append(t) or plain.f_y(y, u, t))
        with pytest.raises(ValueError, match=np.dtype(np.longdouble).name):
            solve_adjoint_dto(prob, tab, grid, traj, terminal="cost")
        assert calls == []
        adj = solve_adjoint_otd(prob, tab, grid, traj, terminal="replicate")
        assert calls and adj.multipliers.dtype == np.longdouble

    @pytest.mark.parametrize("route", ["dto", "otd"])
    @pytest.mark.parametrize("N, name, match", [
        (20, "BDF2", r"adjoint grid TimeGrid\(T=0\.5, N=20\) is not"),
        (40, "BDF3", "adjoint scheme BDF3 is not the trajectory's scheme "
                     "BDF2")],
        ids=["grid", "scheme"])
    def test_other_grid_or_scheme_than_the_trajectorys_is_rejected(
            self, route, N, name, match):
        # a BDF2 trajectory on N = 40, swept on another grid or with
        # another scheme: the error names which, before the terminal hook
        # or f_y is called
        plain = terminal_tracking_problem(T=0.5)
        traj = solve_forward(plain, la.tableau("BDF2"), la.TimeGrid(0.5, 40))
        calls = []
        prob = dataclasses.replace(
            plain,
            f_y=lambda y, u, t: calls.append("f_y") or plain.f_y(y, u, t),
            terminal_cost_grad=lambda y: (calls.append("grad") or
                                          plain.terminal_cost_grad(y)))
        solve, terminal = ((solve_adjoint_dto, "cost") if route == "dto"
                           else (solve_adjoint_otd, "replicate"))
        with pytest.raises(ValueError, match=match):
            solve(prob, la.tableau(name), la.TimeGrid(0.5, N), traj,
                  terminal=terminal)
        assert calls == []

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
            optimality_residual(prob, traj, adj)


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
        # the last nonzero b_k, k >= 0 (-1 for BDF)
        s, last_b = tab.s, tab.b_terms[-1][0] if tab.b_terms else -1
        grid = la.TimeGrid(dtype(T), N)
        rng = np.random.default_rng(seed)
        traj = Trajectory(grid, tab,
                          rng.uniform(-1, 1, (N + s, n)).astype(dtype),
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


def reference_scalar_forward(problem, tab, grid, u):
    """States of ``solve_forward``'s scalar path (n = 1) with the closures
    it shipped with: each call looks up the control at the nearest index
    of its t, boxes the iterate through ``np.asarray(y)[()]`` and reads the
    result back through ``np.asarray(r).item()``.  ``u`` covers indices
    1-s..N."""
    s = tab.s
    dt, off = grid.dt, s - 1
    f, f_y = problem.f, problem.f_y
    u_at = lambda t: u[int(round(t / dt)) + off]  # nearest index

    def rhs_array(y, t):
        return np.atleast_1d(np.asarray(f(y, u_at(t), t), dtype=float))

    states, fvals = bootstrap_history(tab, grid, rhs_array, problem.y0,
                                      y_exact=problem.y_exact)

    def rhs(y, t):
        return float(np.asarray(f(np.asarray(y)[()], u_at(t), t)).item())

    def jac(y, t):
        return float(np.asarray(f_y(np.asarray(y)[()], u_at(t), t)).item())

    states = [y.item() for y in states]
    fvals = [fy.item() for fy in fvals]
    with np.errstate(over="ignore", invalid="ignore"):
        for nstep in range(grid.N):
            t_new = (nstep + 1) * dt
            y_new, f_new = step(tab, states, fvals, dt, rhs, t_new, jac)
            if not math.isfinite(y_new):
                raise SolverError(f"non-finite state at step {nstep + 1}")
            states.append(float(y_new))
            fvals.append(f_new)
    return np.reshape(states, (grid.N + s, -1))


def reference_backward_sweep(ext, s, top, coef, diag, floor):
    """``_backward_sweep`` with the operator-based loop it shipped with:
    one loop for both kinds, ``operator.mul``/``truediv`` on scalars."""
    off, n = s - 1, ext.shape[1]
    if n == 1:
        small = np.abs(diag.reshape(-1)) < 1e-14
        if small.any():
            j = top - int(np.argmax(small))
            raise SolverError(f"(1 - dt*b_-1*f_y) vanishes at step index {j}",
                              step_index=j)
        vals, mul, div = ext[:, 0], operator.mul, operator.truediv
        p = vals.tolist()
        coef, diag = coef.reshape(-1, s).tolist(), diag.reshape(-1).tolist()
    else:
        vals, mul = ext, operator.matmul
        div = lambda r, d: np.linalg.solve(d, r)
        p = list(ext)
    j = top
    try:
        for c, d in zip(coef, diag):
            k0 = max(0, floor - j - 1)
            acc = mul(c[k0], p[j + k0 + 1 + off])
            for k in range(k0 + 1, s):
                acc += mul(c[k], p[j + k + 1 + off])
            p[j + off] = div(acc, d)
            j -= 1
    except np.linalg.LinAlgError:
        raise SolverError(
            f"singular pointwise adjoint matrix at step index {j}",
            step_index=j) from None
    vals[:] = p


def value_bits(a):
    """The values of a real array as int64 words: a float64 array's own
    bits, a long double's as its float64 head and its (exact) float64
    tail, which leaves out the long double's padding bytes."""
    a = np.ascontiguousarray(a)
    if a.dtype == np.float64:
        return a.view(np.int64)
    head = a.astype(np.float64)
    return np.stack([head, (a - head).astype(np.float64)]).view(np.int64)


class TestScalarSweepBits:
    """The scalar sweeps give the bits of the closures and the sweep loop
    they shipped with (kept above as reference copies)."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(name=st.sampled_from(["BDF1", "BDF2", "BDF3", "BDF4", "BDF5",
                                 "BDF6"]),
           dtype=st.sampled_from([np.float64, np.longdouble]),
           init_mode=st.sampled_from(["exact", "rk-bootstrap"]),
           N=st.integers(8, 48), T=st.floats(0.2, 0.9),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_forward_matches_reference(self, name, dtype, init_mode, N, T,
                                       seed):
        tab, grid = la.tableau(name), la.TimeGrid(dtype(T), N)
        prob = terminal_tracking_problem(T)
        if init_mode == "rk-bootstrap":  # no exact solution: the RK4 start
            prob = dataclasses.replace(prob, y_exact=None)
        u = np.random.default_rng(seed).uniform(-0.5, 0.5, N + tab.s)
        try:
            ref = reference_scalar_forward(prob, tab, grid, u)
        except SolverError as exc:  # both fail alike
            with pytest.raises(type(exc)) as err:
                solve_forward(prob, tab, grid, u)
            assert str(err.value).startswith(str(exc))
            return
        states = solve_forward(prob, tab, grid, u).states
        assert states.dtype == np.float64
        assert np.array_equal(value_bits(states), value_bits(ref))

    @staticmethod
    def assert_adjoint_matches_reference(name, dtype, route, terminal, N, T,
                                         alpha, beta, seed):
        """The route's multipliers, or its failure, on random states and
        controls are those of ``reference_backward_sweep``."""
        tab, grid = la.tableau(name), la.TimeGrid(dtype(T), N)
        rng = np.random.default_rng(seed)
        traj = Trajectory(grid, tab,
                          rng.uniform(-1, 1, (N + tab.s, 1)).astype(dtype),
                          rng.uniform(-1, 1, N + tab.s))
        prob = la.OdeControlProblem(
            f=lambda y, u, t: y, f_y=coupled_fy(alpha, beta, 1), y0=0.0,
            terminal_cost_grad=lambda yT: yT - 0.5,
            p_exact=lambda t: np.exp(np.multiply(alpha, T - t)))
        solver = solve_adjoint_dto if route == "dto" else solve_adjoint_otd

        def multipliers():
            try:
                return solver(prob, tab, grid, traj, terminal).multipliers
            except SolverError as exc:
                return type(exc), str(exc), exc.step_index

        got = multipliers()
        with mock.patch.object(ode_control, "_backward_sweep",
                               reference_backward_sweep):
            ref = multipliers()
        if isinstance(ref, tuple):
            assert got == ref
        else:
            assert got.dtype == ref.dtype
            assert np.array_equal(value_bits(got), value_bits(ref))

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(name=st.sampled_from(["ExplicitEuler", "AB2", "AB3", "AM4", "BDF2",
                                 "BDF3", "BDF4", "BDF5", "BDF6"]),
           dtype=st.sampled_from([np.float64, np.longdouble]),
           route=st.sampled_from(["dto", "otd"]),
           terminal=st.sampled_from(["exact", "replicate"]),
           data=st.data(), T=st.floats(0.25, 2.0),
           alpha=st.floats(-2.0, 2.0), beta=st.floats(-2.0, 2.0),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_adjoint_matches_reference(self, name, dtype, route, terminal,
                                       data, T, alpha, beta, seed):
        # N from s, where the DtO sweep has one interior row; the DtO
        # route's own terminal is its transposed block ("cost")
        N = data.draw(st.integers(la.tableau(name).s, 40), label="N")
        if route == "dto" and terminal == "replicate":
            terminal = "cost" if dtype is np.float64 else "exact"
        self.assert_adjoint_matches_reference(name, dtype, route, terminal,
                                              N, T, alpha, beta, seed)

    @pytest.mark.parametrize("name", sorted(
        {tab.name for tab in tableaus._REGISTRY.values()}))
    @pytest.mark.parametrize("dtype", [np.float64, np.longdouble])
    @pytest.mark.parametrize("extra", [0, 1], ids=["N=s", "N=s+1"])
    def test_shortest_sweeps_match_reference(self, name, dtype, extra):
        # the DtO sweep below its terminal block: one or two interior rows,
        # then its s - 1 floor rows; every route with every terminal mode
        # it accepts in the dtype
        N = la.tableau(name).s + extra
        cases = [("dto", "exact"), ("otd", "exact"), ("otd", "replicate")]
        if dtype is np.float64:
            cases.append(("dto", "cost"))
        for route, terminal in cases:
            self.assert_adjoint_matches_reference(
                name, dtype, route, terminal, N, 0.7, 0.8, -0.6, seed=N)


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
        # ImplicitEuler: index i sits at slot i
        assert adj.multipliers[0, 0] == adj.multipliers[1, 0] == -(2.0 ** 1023)


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
        g = cost_gradient_dto(prob, traj, adj)
        h = 1e-6
        for i in range(len(u)):
            up, um = u.copy(), u.copy()
            up[i] += h
            um[i] -= h
            jp = discrete_cost(prob, solve_forward(prob, tab, grid, up))
            jm = discrete_cost(prob, solve_forward(prob, tab, grid, um))
            fd = (jp - jm) / (2 * h)
            assert abs(g[i] - fd) <= 1e-6 * max(abs(fd), 1e-3), (i, g[i], fd)

    def test_long_double_grid_is_rejected_before_any_work(self):
        # np.linalg solves no long double: each sweep that would solve with
        # it names the dtype before it evaluates f or f_y
        plain = rotation_problem()
        calls = []
        prob = dataclasses.replace(
            plain, p_exact=lambda t: np.array([np.cos(t), np.sin(t)]),
            f=lambda y, u, t: calls.append("f") or plain.f(y, u, t),
            f_y=lambda y, u, t: calls.append("f_y") or plain.f_y(y, u, t))
        tab, grid = la.tableau("BDF2"), la.TimeGrid(np.longdouble(1.0), 20)
        traj = prescribed_trajectory(grid, tab, plain.y_exact)
        assert traj.states.dtype == np.longdouble
        sweeps = [lambda: solve_forward(prob, tab, grid),
                  lambda: solve_adjoint_otd(prob, tab, grid, traj, "exact"),
                  lambda: solve_adjoint_otd(prob, tab, grid, traj,
                                            "replicate"),
                  lambda: solve_adjoint_dto(prob, tab, grid, traj, "exact"),
                  lambda: solve_adjoint_dto(prob, tab, grid, traj, "cost")]
        for sweep in sweeps:
            with pytest.raises(ValueError, match=(
                    f"np.linalg, which does not support "
                    f"{np.dtype(np.longdouble).name}")):
                sweep()
        assert calls == []
        # an explicit tableau solves nothing and steps the system as before
        ab2 = solve_forward(prob, la.tableau("AB2"), grid)
        assert ab2.states.dtype == np.float64 and "f" in calls

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
        zero = la.AdjointTrajectory(grid, tab, np.zeros((grid.N + tab.s, 1)),
                                    "dto")
        res = optimality_residual(prob, traj, zero)
        assert np.all(res == 0.0)
        # with the computed multiplier the residual is the discrete
        # optimality gap, which shrinks at the scheme order
        gaps = []
        for N in (40, 80):
            grid = la.TimeGrid(0.5, N)
            traj = solve_forward(prob, tab, grid, controls=0.0)
            adj = solve_adjoint_dto(prob, tab, grid, traj)
            gaps.append(np.max(np.abs(optimality_residual(prob, traj, adj))))
        assert np.log2(gaps[0] / gaps[1]) >= tab.nominal_order - 0.4

    def test_residual_reads_a_time_dependent_f_u_at_each_index(self):
        # f_u = 1 + t is read at t_i for every index i = 1-s..N, negative
        # before the start: r_i = (1 + t_i) p_i, plus alpha u_i for i >= 0
        prob = la.OdeControlProblem(
            f=lambda y, u, t: -y + (1.0 + t) * u,
            f_y=lambda y, u, t: -np.ones(np.shape(y) + (1,)),
            f_u=lambda y, u, t: (1.0 + t)[..., None], alpha=0.5, y0=1.0)
        tab, grid = la.tableau("BDF3"), la.TimeGrid(0.5, 12)
        rng = np.random.default_rng(7)
        controls = rng.standard_normal(grid.N + tab.s)
        traj = solve_forward(prob, tab, grid, controls=controls)
        p = rng.standard_normal((grid.N + tab.s, 1))
        adj = la.AdjointTrajectory(grid, tab, p, "otd")
        expect = [(1.0 + i * grid.dt) * p[i + tab.s - 1, 0]
                  + (0.5 * controls[i + tab.s - 1] if i >= 0 else 0.0)
                  for i in range(1 - tab.s, grid.N + 1)]
        np.testing.assert_allclose(optimality_residual(prob, traj, adj),
                                   expect, rtol=1e-14, atol=0)

    def test_residual_direct_evaluation(self):
        # alpha = 1, p = 0, u = 1 -> residual = 1 on the quadrature range
        prob = terminal_tracking_problem(T=0.5, alpha=1.0)
        tab = la.tableau("BDF2")
        grid = la.TimeGrid(0.5, 10)
        traj = solve_forward(prob, tab, grid, controls=1.0)
        adj = la.AdjointTrajectory(grid, tab,
                                   np.zeros((grid.N + tab.s, 1)),
                                   "otd")
        res = optimality_residual(prob, traj, adj)
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
        res = optimality_residual(prob, traj, adj)
        assert len(calls) == 1
        ref = np.zeros(grid.N + tab.s)
        off = tab.s - 1  # index i sits at slot i + off
        for i in range(1 - tab.s, grid.N + 1):
            fu = prob.f_u(traj.states[i + off],
                          np.float64(traj.controls[i + off]), grid.t(i))
            pw = np.zeros(2)
            if route == "otd":
                pw = adj.multipliers[i + off]
            else:
                for k in range(-1, tab.s):
                    if 1 <= i + k + 1 <= grid.N:
                        pw += tab.b[k + 1] * adj.multipliers[i + k + 1 + off]
            ref[i + off] = float(fu @ pw) + (
                prob.alpha * traj.controls[i + off] if i >= 0 else 0.0)
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
        g = cost_gradient_dto(prob, traj, adj)
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
        pN = adj.multipliers[-1, 0]  # index N
        assert abs((1.0 - grid.dt * tab.b_implicit * fy) * pN - jy) <= 1e-10


# the registered schemes that share a step count s
SAME_STEP_COUNT = (("ImplicitEuler", "ExplicitEuler"), ("BDF2", "AB2"),
                   ("BDF3", "AB3"), ("BDF4", "AM4", "AM4-270"))
MISMATCHED_PAIRS = [pair for group in SAME_STEP_COUNT
                    for pair in itertools.permutations(group, 2)]
# each route with the terminal modes it accepts
ROUTES = ((solve_adjoint_dto, ("cost", "exact")),
          (solve_adjoint_otd, ("replicate", "exact")))


def recorded_tracking_problem(calls):
    """``terminal_tracking_problem(T=0.5)`` with p = 0 as its exact
    multiplier; each hook that an adjoint sweep or the residual calls
    appends its name to ``calls``."""
    plain = dataclasses.replace(terminal_tracking_problem(T=0.5),
                                p_exact=lambda t: np.array([0.0]))

    def recorded(name):
        hook = getattr(plain, name)
        return lambda *args: calls.append(name) or hook(*args)

    return dataclasses.replace(plain, **{
        name: recorded(name)
        for name in ("f_y", "f_u", "terminal_cost_grad", "p_exact")})


class TestTheTrajectorysScheme:
    """A trajectory records its tableau: both routes, the residual and the
    gradient refuse another scheme of the same s, and another grid, before
    any hook runs; an equal tableau built anew is the same scheme."""

    @settings(max_examples=15, deadline=None, derandomize=True)
    # T <= 0.25: AM4-270, whose b sum to 8/3, blows up before t = 0.375
    @given(N=st.integers(4, 40), T=st.floats(0.05, 0.25),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_routes_refuse_every_mismatched_pair(self, N, T, seed):
        calls = []
        prob = recorded_tracking_problem(calls)
        grid, rng = la.TimeGrid(T, N), np.random.default_rng(seed)
        for own, other in MISMATCHED_PAIRS:
            own, other = la.tableau(own), la.tableau(other)
            traj = solve_forward(prob, own, grid,
                                 rng.uniform(-0.3, 0.3, N + own.s))
            assert traj.tab is own and traj.s == own.s == other.s
            calls.clear()  # the forward Newton steps call f_y
            for solve, terminals in ROUTES:
                for terminal in terminals:
                    with pytest.raises(ValueError, match=re.escape(
                            f"adjoint scheme {other.name} is not the "
                            f"trajectory's scheme {own.name}")):
                        solve(prob, other, grid, traj, terminal)
            assert calls == []

    def test_residual_and_gradient_refuse_another_scheme_or_grid(self):
        # prescribed exact states: AM4-270 solves no forward step to t = 0.5
        calls = []
        prob = recorded_tracking_problem(calls)
        grid, elsewhere = la.TimeGrid(0.5, 40), la.TimeGrid(0.4, 40)
        for own, other in MISMATCHED_PAIRS:
            own, other = la.tableau(own), la.tableau(other)
            traj = prescribed_trajectory(grid, own, prob.y_exact)
            foreign = [(prescribed_trajectory(grid, other, prob.y_exact),
                        other, grid, f"adjoint scheme {other.name} is not "
                                     f"the trajectory's scheme {own.name}"),
                       (prescribed_trajectory(elsewhere, own, prob.y_exact),
                        own, elsewhere, f"adjoint grid {elsewhere} is not "
                                        f"the trajectory's grid {grid}")]
            adjoints = [(solve(prob, tab, at, theirs, terminals[0]), match)
                        for theirs, tab, at, match in foreign
                        for solve, terminals in ROUTES]
            calls.clear()
            for adj, match in adjoints:
                with pytest.raises(ValueError, match=re.escape(match)):
                    optimality_residual(prob, traj, adj)
                if adj.route == "dto":
                    with pytest.raises(ValueError, match=re.escape(match)):
                        cost_gradient_dto(prob, traj, adj)
            assert calls == []

    @settings(max_examples=10, deadline=None, derandomize=True)
    @given(N=st.integers(4, 40), T=st.floats(0.05, 0.25),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_an_equal_tableau_built_anew_is_accepted(self, N, T, seed):
        prob = recorded_tracking_problem([])
        grid, rng = la.TimeGrid(T, N), np.random.default_rng(seed)
        for name in itertools.chain(*SAME_STEP_COUNT):
            own = la.tableau(name)
            anew = la.MultistepTableau(own.name, own.s, own.a_exact,
                                       own.b_exact, own.nominal_order)
            assert anew is not own and anew == own
            traj = solve_forward(prob, own, grid,
                                 rng.uniform(-0.3, 0.3, N + own.s))
            for solve, terminals in ROUTES:
                for terminal in terminals:
                    adj = solve(prob, own, grid, traj, terminal)
                    again = solve(prob, anew, grid, traj, terminal)
                    assert again.tab is own
                    assert np.array_equal(value_bits(again.multipliers),
                                          value_bits(adj.multipliers))
                    res = optimality_residual(prob, traj, adj)
                    renamed = dataclasses.replace(adj, tab=anew)
                    assert np.array_equal(
                        value_bits(optimality_residual(prob, traj, renamed)),
                        value_bits(res))
                    if adj.route == "dto":
                        assert np.array_equal(
                            value_bits(cost_gradient_dto(prob, traj, renamed)),
                            value_bits(grid.dt * res))
