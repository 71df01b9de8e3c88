"""Tableau registry, recurrence step, and history bootstrap."""

import dataclasses
from fractions import Fraction
from typing import Callable

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lmm_adjoint import tableaus as tb
from lmm_adjoint.tableaus import ImplicitSolveError, MultistepTableau
from lmm_adjoint.ode_control import OdeControlProblem, solve_forward


ALL_NAMES = ["ImplicitEuler", "ExplicitEuler", "BDF2", "BDF3", "BDF4",
             "BDF5", "BDF6", "AB2", "AB3", "AM4"]

# reference coefficient table (exact rationals)
REFERENCE = {
    "ImplicitEuler": ((-1,), (1, 0)),
    "ExplicitEuler": ((-1,), (0, 1)),
    "BDF2": (("-4/3", "1/3"), ("2/3", 0, 0)),
    "BDF3": (("-18/11", "9/11", "-2/11"), ("6/11", 0, 0, 0)),
    "BDF4": (("-48/25", "36/25", "-16/25", "3/25"), ("12/25", 0, 0, 0, 0)),
    "AB2": ((-1, 0), (0, "3/2", "-1/2")),
    "AB3": ((-1, 0, 0), (0, "23/12", "-4/3", "5/12")),
    "AM4": ((-1, 0, 0, 0),
            ("251/720", "646/720", "-264/720", "106/720", "-19/720")),
}


def lagrange_bdf_oracle(s):
    """Independent BDF(s) construction: differentiate the Lagrange
    interpolant through nodes 0..s at the endpoint node s (exact rationals).

    The registry types every BDF scheme as literal rationals; this oracle
    checks all six.
    """
    nodes = list(range(s + 1))
    weights = []
    for j in nodes:
        # derivative of ell_j at x = s
        total = Fraction(0)
        for m in nodes:
            if m == j:
                continue
            prod = Fraction(1, j - m)
            for k in nodes:
                if k in (j, m):
                    continue
                prod *= Fraction(s - k, j - k)
            total += prod
        weights.append(total)
    # sum_j w_j y_j = dt f_{n+1}; normalizing by w_s gives the recurrence
    # y_{n+1} = -sum_i a_i y_{n-i} + dt beta f_{n+1}
    beta = 1 / weights[s]
    alphas = [w * beta for w in weights]
    a = tuple(alphas[s - 1 - i] for i in range(s))
    return a, beta


class TestRegistry:
    def test_consistency_identity(self):
        for name in ALL_NAMES:
            t = tb.tableau(name)
            assert abs(1.0 + sum(float(c) for c in t.a_exact)) <= 1e-14
            assert 1 + sum(t.a_exact) == 0  # exact rationals

    def test_reference_coefficients(self):
        for name, (a_ref, b_ref) in REFERENCE.items():
            t = tb.tableau(name)
            assert t.a_exact == tuple(Fraction(c) for c in a_ref)
            assert t.b_exact == tuple(Fraction(c) for c in b_ref)

    def test_class_predicates(self):
        assert tb.tableau("ImplicitEuler").is_bdf
        assert tb.tableau("ExplicitEuler").is_adams_bashforth
        for k in range(2, 7):
            t = tb.tableau(f"BDF{k}")
            assert t.is_bdf and not t.is_adams
        for nm in ("AB2", "AB3"):
            t = tb.tableau(nm)
            assert t.is_adams_bashforth and not t.is_bdf and not t.is_implicit
        am = tb.tableau("AM4")
        assert am.is_adams_moulton and am.is_implicit and not am.is_bdf

    def test_bdf56_against_lagrange_oracle(self):
        for s in (5, 6):
            t = tb.tableau(f"BDF{s}")
            a_oracle, beta = lagrange_bdf_oracle(s)
            assert t.a_exact == a_oracle
            assert t.b_exact[0] == beta
            assert all(c == 0 for c in t.b_exact[1:])

    def test_bdf1_to_4_against_lagrange_oracle(self):
        for s in range(1, 5):
            t = tb.tableau(f"BDF{s}")
            a_oracle, beta = lagrange_bdf_oracle(s)
            assert t.a_exact == a_oracle
            assert t.b_exact == (beta,) + (Fraction(0),) * s

    def test_unknown_name(self):
        with pytest.raises(tb.ConfigError):
            tb.tableau("BDF9")

    def test_am_denominator_variants(self):
        t720 = tb.tableau("AM4")
        t270 = tb.tableau("AM4-270")
        assert sum(t720.b_exact) == 1
        assert sum(t270.b_exact) == Fraction(720, 270)
        for alias in ("am4_270", "am(4)-270"):
            assert tb.tableau(alias) is t270

    def test_name_normalization(self):
        for alias in ("bdf(2)", "bdf_2", "BDF 2", "Bdf2"):
            assert tb.tableau(alias).name == "BDF2"
        # parenthesised spellings fold onto a registered name
        spellings = {"bdf(1)": "ImplicitEuler", "ab(2)": "AB2", "ab(3)": "AB3",
                     "am(4)": "AM4", "am(4)-270": "AM4-270",
                     **{f"bdf({s})": f"BDF{s}" for s in range(2, 7)}}
        for alias, name in spellings.items():
            assert tb.tableau(alias) is tb.tableau(name)


class TestStep:
    def test_implicit_euler_fixed_point(self):
        # y' = y, y0 = 1, dt = 0.1: y1 = 1/(1 - 0.1)
        t = tb.tableau("ImplicitEuler")
        y1, _ = tb.step(t, [np.array([1.0])], [np.array([1.0])], 0.1,
                        lambda y, tt: y, 0.1,
                        jac=lambda y, tt: np.array([[1.0]]))
        assert abs(y1[0] - 1.0 / 0.9) <= 1e-12

    def test_explicit_euler_zero_rhs(self):
        t = tb.tableau("ExplicitEuler")
        y1, _ = tb.step(t, [np.array([1.7])], [np.array([0.0])], 0.3,
                        lambda y, tt: 0.0 * y, 0.3)
        assert y1[0] == 1.7

    def test_bdf2_local_error_third_order(self):
        # one step from exact history on y' = -y: local error O(dt^3)
        t = tb.tableau("BDF2")
        errs = []
        for dt in (0.01, 0.005):
            states = [np.array([np.exp(-tt)]) for tt in (-dt, 0.0)]
            fvals = [-y for y in states]
            y1, _ = tb.step(t, states, fvals, dt, lambda y, tt: -y, dt,
                            jac=lambda y, tt: np.array([[-1.0]]))
            errs.append(abs(y1[0] - np.exp(-dt)))
        order = np.log2(errs[0] / errs[1])
        assert 2.7 <= order <= 3.3
        assert errs[0] < 5e-7  # LTE constant 2/9 at dt = 0.01

    def test_step_requires_warm_history(self):
        t = tb.tableau("BDF2")
        with pytest.raises(ValueError):
            tb.step(t, [np.array([1.0])], [np.array([1.0])], 0.1,
                    lambda y, tt: y, 0.1)

    @pytest.mark.parametrize("name", ["ImplicitEuler", "BDF3", "AM4"])
    def test_implicit_step_requires_jacobian(self, name):
        t = tb.tableau(name)
        ones = [np.array([1.0])] * t.s
        with pytest.raises(ValueError, match="Jacobian"):
            tb.step(t, ones, ones, 0.1, lambda y, tt: y, 0.1)

    def test_step_deterministic(self):
        t = tb.tableau("BDF3")
        vals = []
        for _ in range(2):
            states = [np.array([np.exp(tt)]) for tt in (-0.02, -0.01, 0.0)]
            y1, _ = tb.step(t, states, states, 0.01, lambda y, tt: y, 0.01,
                            jac=lambda y, tt: np.array([[1.0]]))
            vals.append(y1[0])
        assert vals[0] == vals[1]

    def test_nonconvergence_reports_residual(self):
        # absurd step size on a stiff quadratic forces Newton failure
        t = tb.tableau("ImplicitEuler")
        with pytest.raises(tb.ImplicitSolveError) as err:
            with np.errstate(over="ignore", invalid="ignore"):
                tb.step(t, [np.array([10.0])], [np.array([100.0])], 10.0,
                        lambda y, tt: y * y, 10.0,
                        jac=lambda y, tt: np.atleast_2d(2 * y))
        assert err.value.iterations is not None

    @pytest.mark.parametrize("wrap, jm", [
        (float, -3.0), (np.atleast_1d, np.array([[-3.0]])),
        (lambda v: np.array([v, v]), -3.0 * np.eye(2))])
    def test_convergence_on_the_last_newton_update(self, wrap, jm):
        # y = y_n - y with the wrong Jacobian -3: each update divides the
        # residual by 1 + 3 where 1 + 1 is right, so the residual halves.
        # From y_n = 800 the 50th update brings it below 1e-12; from 1600
        # it stays just above
        tab, calls = tb.tableau("ImplicitEuler"), []

        def rhs(y, t):
            calls.append("rhs")
            return -y

        def jac(y, t):
            calls.append("jac")
            return jm

        y, f = tb.step(tab, [wrap(800.0)], [wrap(-800.0)], 1.0, rhs, 1.0, jac)
        assert np.allclose(y, 400.0) and np.array_equal(f, -y)
        assert calls.count("jac") == 50 and calls.count("rhs") == 51
        with pytest.raises(tb.ImplicitSolveError, match=(
                r"residual 1\.364e-12 after 50 iterations")) as err:
            tb.step(tab, [wrap(1600.0)], [wrap(-1600.0)], 1.0, rhs, 1.0, jac)
        assert err.value.iterations == 50

    @pytest.mark.parametrize("name", ["BDF3", "AB3", "AM4"])
    def test_step_keeps_the_kind_of_the_history(self, name):
        # arrays in, arrays out; floats in, floats out, bitwise alike
        tab = tb.tableau(name)
        rhs_a, jac_a = (lambda y, t: -y * y + t), (lambda y, t: np.atleast_2d(-2 * y))
        rhs_f, jac_f = (lambda y, t: -y * y + t), (lambda y, t: -2 * y)
        ys = [1.0 + 0.1 * k for k in range(tab.s)]
        sa = [np.array([y]) for y in ys]
        ya, fa = tb.step(tab, sa, [rhs_a(y, 0.0) for y in sa], 0.05, rhs_a,
                         0.05, jac=jac_a)
        yf, ff = tb.step(tab, ys, [rhs_f(y, 0.0) for y in ys], 0.05, rhs_f,
                         0.05, jac=jac_f)
        assert isinstance(ya, np.ndarray) and isinstance(fa, np.ndarray)
        assert type(yf) is float and type(ff) is float
        assert ya.tolist() == [yf] and fa.tolist() == [ff]
        assert ya is not sa[-1]

    @pytest.mark.parametrize("name", ["BDF3", "AB3", "AM4"])
    def test_step_reads_the_s_newest_entries(self, name):
        # a step on a longer trajectory is bitwise the step on its s newest
        # entries, on floats and on arrays, and leaves both lists unchanged
        tab = tb.tableau(name)
        rhs = lambda y, t: -y * y + t
        jacs = (lambda y, t: -2 * y, lambda y, t: np.diag(-2 * y))
        for wrap, jac in zip((float, lambda v: np.array([v, 0.5 - v])), jacs):
            states = [wrap(1.0 + 0.1 * k) for k in range(tab.s + 3)]
            fvals = [rhs(y, 0.0) for y in states]
            kept = [(y, np.copy(y)) for y in states + fvals]
            whole = tb.step(tab, states, fvals, 0.05, rhs, 0.05, jac=jac)
            newest = tb.step(tab, states[-tab.s:], fvals[-tab.s:], 0.05, rhs,
                             0.05, jac=jac)
            for a, b in zip(whole, newest):
                assert type(a) is type(b)
                assert np.asarray(a).tobytes() == np.asarray(b).tobytes()
            assert len(states) == len(fvals) == tab.s + 3
            assert all(y is ref and np.array_equal(y, copy) for (ref, copy), y
                       in zip(kept, states + fvals))


# y_{n+1} = y_{n-1} + h f(y_{n+1}): one implicit step whose predictor, the
# newest state, differs from its explicit part c = y_{n-1}
SPLIT = tb.MultistepTableau("split", 2, (Fraction(0), Fraction(-1)),
                            (Fraction(1), Fraction(0), Fraction(0)), 1)


class TestNewtonDivision:
    def test_scalar_update_is_a_division(self):
        # y = c + h f(y) with f(y) = -4 y, h = 0.5 and c = -5: from y = 0
        # the residual is 5 and 1 - h J = 3, and one update lands on -5/3,
        # whose residual is below tol.  5/3 and 5 * (1/3) differ in the last
        # bit; the update must be the division that LAPACK's solve gives,
        # on a one-element array and on a float alike.
        # A one-element array's Jacobian may come 0-d, (1,) or (1, 1).
        res, d = 5.0, 3.0
        assert res / d != res * (1.0 / d)
        cases = [(np.atleast_1d, np.array(-4.0)),
                 (np.atleast_1d, np.array([-4.0])),
                 (np.atleast_1d, np.array([[-4.0]])), (float, -4.0)]
        outs = []
        for wrap, jm in cases:
            y, f = tb.step(SPLIT, [wrap(-5.0), wrap(0.0)], [wrap(0.0)] * 2,
                           0.5, lambda y, t: -4.0 * y, 0.0,
                           lambda y, t: jm)
            y, f = np.atleast_1d(y), np.atleast_1d(f)
            assert y[0] == 0.0 - np.linalg.solve([[d]], [res])[0]
            assert y[0] != 0.0 - res * (1.0 / d)
            assert f[0] == -4.0 * y[0]
            outs.append((y.dtype, y.tobytes(), f.dtype, f.tobytes()))
        assert len(set(outs)) == 1


class TestLinalgDtype:
    def test_long_double_system_step_is_refused_before_rhs(self):
        # y' = A y on two states, BDF2 with a long-double dt: np.linalg
        # solves no long double, so the step names the dtype before its
        # first rhs call; a float64 dt and the explicit AB2 step it
        calls = []
        A = np.array([[-1.0, 2.0], [0.0, -3.0]])

        def rhs(y, t):
            calls.append("rhs")
            return A @ y

        def jac(y, t):
            calls.append("jac")
            return A

        states = [np.array([1.0, 0.5]), np.array([0.9, 0.4])]
        fvals = [A @ y for y in states]
        with pytest.raises(ValueError, match=(
                f"np.linalg, which does not support "
                f"{np.dtype(np.longdouble).name}")):
            tb.step(tb.tableau("BDF2"), states, fvals, np.longdouble(0.1),
                    rhs, 0.1, jac)
        assert calls == []
        y, _ = tb.step(tb.tableau("BDF2"), states, fvals, 0.1, rhs, 0.1, jac)
        assert y.dtype == np.float64 and calls[:2] == ["rhs", "jac"]
        y, _ = tb.step(tb.tableau("AB2"), states, fvals, np.longdouble(0.1),
                       rhs, 0.1)
        assert y.dtype == np.longdouble


class TestOrderVerification:
    def test_observed_orders(self):
        # integrate y' = y on [0, 1] with exact-history bootstrap; every
        # consecutive-error log2 ratio above the solver-tolerance floor must
        # reach the nominal order minus 0.2 (high-order tableaus reach the
        # floor early, hence the ladder extension below N = 40)
        for name in ALL_NAMES:
            tab = tb.tableau(name)
            errs = {}
            for N in (10, 20, 40, 80, 160, 320, 640):
                grid = tb.TimeGrid(1.0, N)
                rhs = lambda y, tt: y
                jac = lambda y, tt: np.array([[1.0]])
                states, fvals = tb.bootstrap_history(tab, grid, rhs, 1.0,
                                                     y_exact=np.exp)
                y = None
                for n in range(N):
                    y, _ = tb.step(tab, states, fvals, grid.dt, rhs,
                                   grid.t(n + 1), jac=jac)
                    states.append(y)
                    fvals.append(rhs(y, grid.t(n + 1)))
                errs[N] = abs(y[0] - np.e)
            pairs = [(errs[N // 2], errs[N])
                     for N in (20, 40, 80, 160, 320, 640)]
            rates = [np.log2(e0 / e1) for e0, e1 in pairs
                     if e0 > 1e-10 and e1 > 1e-11]
            assert rates, f"{name}: no rate pair above the roundoff floor"
            # the finest clean pair carries the asymptotic order; coarser
            # pairs may under-read it slightly but must stay in range
            assert max(rates) >= tab.nominal_order - 0.2, \
                f"{name}: best rate {max(rates):.2f}"
            for r in rates:
                assert r >= tab.nominal_order - 0.75, f"{name}: rate {r:.2f}"


class TestBootstrap:
    def test_single_stage_any_mode(self):
        tab = tb.tableau("ImplicitEuler")
        grid = tb.TimeGrid(1.0, 10)
        rhs = lambda y, tt: y
        for hook in (np.exp, None):  # the exact start, then the RK4 one
            states, _ = tb.bootstrap_history(tab, grid, rhs, 1.0,
                                             y_exact=hook)
            assert len(states) == 1 and states[0][0] == 1.0

    def test_exact_mode_samples_solution(self):
        # y' = y^2, y(t) = 1/(1 - t): history entries at t = (1-s+i) dt
        tab = tb.tableau("BDF3")
        grid = tb.TimeGrid(1.0, 100)
        rhs = lambda y, tt: y * y
        states, _ = tb.bootstrap_history(tab, grid, rhs, 1.0,
                                         y_exact=lambda t: 1.0 / (1.0 - t))
        for i, y in enumerate(reversed(states)):  # newest first
            t = -i * grid.dt
            assert abs(y[0] - 1.0 / (1.0 - t)) <= 1e-14

    def test_rk_bootstrap_matches_exact_to_fourth_order(self):
        tab = tb.tableau("BDF3")
        rhs = lambda y, tt: y * y
        devs = []
        for N in (100, 200):
            grid = tb.TimeGrid(1.0, N)
            he, _ = tb.bootstrap_history(tab, grid, rhs, 1.0,
                                         y_exact=lambda t: 1.0 / (1.0 - t))
            hr, _ = tb.bootstrap_history(tab, grid, rhs, 1.0)
            dev = max(abs(a[0] - b[0]) for a, b in zip(he, hr))
            devs.append(dev)
        order = np.log2(devs[0] / devs[1])
        assert devs[0] < 1e-9
        assert order >= 3.5


# ------------------------------------------------ reference step (first form)

def reference_step(tab, states, fvals, dt, rhs, t_new, jac=None, tol=1e-12,
                   maxit=50):
    """The step as first released: f is re-evaluated at every iterate and
    each Newton system goes through np.linalg.solve.  Returns y alone."""
    states, fvals = states[::-1], fvals[::-1]  # newest first
    if not tab.is_implicit:
        y = -sum(tab.a[i] * states[i] for i in range(tab.s))
        return y + dt * sum(tab.b[k + 1] * fvals[k] for k in range(tab.s))
    b_imp = tab.b_implicit
    c = -sum(tab.a[i] * states[i] for i in range(tab.s))
    c = c + dt * sum(tab.b[k + 1] * fvals[k] for k in range(tab.s))
    y = states[0].copy()
    n = y.size
    for it in range(maxit):
        res = y - c - dt * b_imp * rhs(y, t_new)
        rnorm = float(np.max(np.abs(res)))
        if rnorm < tol:
            return y
        J = np.eye(n) - dt * b_imp * np.atleast_2d(jac(y, t_new))
        try:
            dy = np.linalg.solve(J, res)
        except np.linalg.LinAlgError:
            raise tb.ImplicitSolveError("singular", rnorm, it)
        lam = 1.0
        for _ in range(12):
            y_try = y - lam * dy
            r_try = y_try - c - dt * b_imp * rhs(y_try, t_new)
            if float(np.max(np.abs(r_try))) <= rnorm or lam < 1e-3:
                break
            lam *= 0.5
        y = y_try
    res = y - c - dt * b_imp * rhs(y, t_new)
    rnorm = float(np.max(np.abs(res)))
    if rnorm < tol:
        return y
    raise tb.ImplicitSolveError("no convergence", rnorm, maxit)


def reference_forward(problem, tab, grid, u, step=reference_step):
    """solve_forward as first released, on the reference step: the control
    lookup through the grid's properties, and f re-evaluated at each new
    state before it is appended.  The history holds float64 arrays
    throughout, also on a long-double grid."""
    s = tab.s

    def rhs(y, t):
        i = int(round(t / grid.dt))
        return np.atleast_1d(np.asarray(problem.f(y, u[i + s - 1], t),
                                        dtype=float))

    def jac(y, t):
        i = int(round(t / grid.dt))
        return problem.f_y(y, u[i + s - 1], t)

    states, fvals = tb.bootstrap_history(tab, grid, rhs, problem.y0,
                                         y_exact=problem.y_exact)
    for n in range(grid.N):
        t_new = grid.t(n + 1)
        y = step(tab, states, fvals, grid.dt, rhs, t_new, jac=jac)
        states.append(np.asarray(y, dtype=float))
        fvals.append(rhs(y, t_new))
    return np.array(states)


def started(problem, init_mode):
    """``problem`` with the start ``init_mode`` names: "exact" keeps its
    exact solution, "rk-bootstrap" drops it, so the sweep starts by RK4."""
    if init_mode == "exact":
        return problem
    return dataclasses.replace(problem, y_exact=None)


SWEEP_SCHEMES = ["ImplicitEuler", "BDF2", "BDF3", "BDF4", "BDF5", "BDF6",
                 "AM4", "AB2", "AB3"]


def smooth_scalar_problem(alpha, beta, gamma, omega, y0):
    """y' = alpha y + beta y^2 + gamma sin(omega t) + u.

    ``y_exact`` is a smooth curve through y0 for the exact bootstrap, not
    the solution."""
    return OdeControlProblem(
        f=lambda y, u, t: alpha * y + beta * y * y + gamma * np.sin(omega * t) + u,
        f_y=lambda y, u, t: (alpha + 2.0 * beta * y)[..., None],
        y0=y0, y_exact=lambda t: y0 * np.exp(alpha * t) + gamma * t)


def smooth_two_state_problem(alpha, beta, gamma, omega, y0):
    """The 2-state system y0' = alpha y0 + beta y1^2 + gamma sin(omega t) + u,
    y1' = -y0 + alpha y1 + beta y0 y1 (the array path of the step)."""
    return OdeControlProblem(
        f=lambda y, u, t: np.array([
            alpha * y[0] + beta * y[1] * y[1] + gamma * np.sin(omega * t) + u,
            -y[0] + alpha * y[1] + beta * y[0] * y[1]]),
        f_y=lambda y, u, t: np.stack([
            np.stack([np.full_like(y[..., 0], alpha), 2.0 * beta * y[..., 1]], -1),
            np.stack([-1.0 + beta * y[..., 1], alpha + beta * y[..., 0]], -1)],
            -2),
        y0=[y0, 0.5],
        y_exact=lambda t: np.array([y0 * np.cos(t), 0.5 + gamma * np.sin(t)]))


smooth_problems = dict(
    name=st.sampled_from(SWEEP_SCHEMES),
    alpha=st.floats(-2.0, 0.5), beta=st.floats(-0.5, 0.3),
    gamma=st.floats(-1.0, 1.0), omega=st.floats(0.5, 3.0),
    y0=st.floats(0.5, 1.5), u_amp=st.floats(-0.5, 0.5),
    N=st.integers(8, 48), T=st.floats(0.5, 1.0))


class TestStepEquivalence:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(init_mode=st.sampled_from(["rk-bootstrap", "exact"]),
           **smooth_problems)
    def test_forward_sweep_matches_reference(self, init_mode, name, alpha,
                                             beta, gamma, omega, y0, u_amp,
                                             N, T):
        # the scalar sweep on Python floats against the array reference
        tab = tb.tableau(name)
        prob = started(smooth_scalar_problem(alpha, beta, gamma, omega, y0),
                       init_mode)
        grid = tb.TimeGrid(T, N)
        u = u_amp * np.cos(np.linspace(-1.0, 2.0, N + tab.s))
        traj = solve_forward(prob, tab, grid, controls=u)
        assert np.array_equal(traj.states,
                              reference_forward(prob, tab, grid, u))

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(init_mode=st.sampled_from(["exact", "rk-bootstrap"]),
           **smooth_problems)
    def test_two_state_sweep_matches_reference(self, init_mode, name, alpha,
                                               beta, gamma, omega, y0, u_amp,
                                               N, T):
        tab = tb.tableau(name)
        prob = started(smooth_two_state_problem(alpha, beta, gamma, omega,
                                                y0), init_mode)
        grid = tb.TimeGrid(T, N)
        u = u_amp * np.cos(np.linspace(-1.0, 2.0, N + tab.s))
        traj = solve_forward(prob, tab, grid, controls=u)
        assert traj.states.shape == (N + tab.s, 2)
        assert np.array_equal(traj.states,
                              reference_forward(prob, tab, grid, u))

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(init_mode=st.sampled_from(["rk-bootstrap", "exact"]),
           **smooth_problems)
    def test_long_double_grid_matches_array_history(self, init_mode, name,
                                                    alpha, beta, gamma, omega,
                                                    y0, u_amp, N, T):
        # a long-double dt: each step computes in long double, and the
        # history stays float64 on the float path as on an array history
        # (the reference step's LAPACK solve takes no long double, so the
        # oracle steps an array history with ``step``)
        tab = tb.tableau(name)
        prob = started(smooth_scalar_problem(alpha, beta, gamma, omega, y0),
                       init_mode)
        grid = tb.TimeGrid(np.longdouble(T), N)
        u = u_amp * np.cos(np.linspace(-1.0, 2.0, N + tab.s))
        traj = solve_forward(prob, tab, grid, controls=u)
        assert np.array_equal(traj.states, reference_forward(
            prob, tab, grid, u,
            step=lambda *args, **kw: tb.step(*args, **kw)[0]))

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(**smooth_problems)
    def test_no_repeated_evaluation_in_a_step(self, name, alpha, beta, gamma,
                                              omega, y0, u_amp, N, T):
        # every f evaluation inside one step is at a new (y, t), and the
        # returned f is f at the returned state, so appending it needs none
        tab = tb.tableau(name)
        prob = smooth_scalar_problem(alpha, beta, gamma, omega, y0)
        grid = tb.TimeGrid(T, N)
        seen = []

        def rhs(y, t):
            seen.append((np.asarray(y).tobytes(), t))
            return np.atleast_1d(prob.f(y, u_amp, t))

        jac = lambda y, t: prob.f_y(y, u_amp, t)
        states, fvals = tb.bootstrap_history(tab, grid, rhs, y0)
        for n in range(N):
            seen.clear()
            t_new = grid.t(n + 1)
            y, f = tb.step(tab, states, fvals, grid.dt, rhs, t_new, jac=jac)
            assert len(seen) == len(set(seen)) >= 1
            assert seen[-1] == (y.tobytes(), t_new)
            assert np.array_equal(f, np.atleast_1d(prob.f(y, u_amp, t_new)))
            states.append(y)
            fvals.append(f)


# ------------------------------------- layered step (history and Newton helpers)
# ``step`` as it was written with its explicit part and Newton loop in
# helpers of their own, copied verbatim (``step`` renamed ``layered_step``):
# the oracle that the one-frame step reproduces bit for bit, call for call.

def _history_constant(tab, states, fvals, dt):
    """Explicit part of the update, -sum_i a_i y_{n-i} + dt*sum_k b_k f_{n-k},
    with y_n and f_n the last entries of ``states`` and ``fvals``.

    The a-terms are summed in index order and negated, then the b-terms are
    added; b-terms whose exact coefficient is zero are skipped.  The same
    operations serve scalars and arrays.
    """
    a, b = tab.a, tab.b
    c = a[0] * states[-1]
    for i in range(1, tab.s):
        c += a[i] * states[-1 - i]
    c = -c
    fsum = None
    for k in range(tab.s):
        if b[k + 1]:
            term = b[k + 1] * fvals[-1 - k]
            fsum = term if fsum is None else fsum + term
    if fsum is not None:
        c = c + dt * fsum
    return c


def _newton_update(h, jm, res, rnorm, it, t_new):
    """The Newton update (I - h J)^{-1} res.

    On the scalar path ``jm`` and ``res`` are scalars; otherwise ``jm`` is
    read as an (n, n) float array.  A 1x1 system is a division, bitwise
    equal to LAPACK's solve, which fails on the same exact-zero pivot.
    """
    if isinstance(res, np.ndarray):
        jm = np.atleast_2d(np.asarray(jm, dtype=float))
        if res.size > 1:
            try:
                return np.linalg.solve(np.eye(res.size) - h * jm, res)
            except np.linalg.LinAlgError:
                raise ImplicitSolveError(
                    f"singular Newton matrix at t={t_new}", rnorm, it) from None
        jm = jm[0, 0]
    d = 1.0 - h * jm
    if d == 0.0:
        raise ImplicitSolveError(f"singular Newton matrix at t={t_new}",
                                 rnorm, it)
    return res / d


def _newton_step(h, c, y, rhs, t_new, jac, tol=1e-12, maxit=50):
    """Solve y = c + h*f(y, t_new) by damped Newton (jac analytic) from the
    predictor y.

    Returns (y, f(y, t_new)) once the residual norm is below tol, within
    maxit iterations.  Every iterate's residual is the one computed when
    the iterate was accepted, so f is evaluated once per iterate and once
    per damped trial.  The iteration runs on whatever y, c and f are:
    Python floats for a scalar state, arrays otherwise.  The residual norm
    is a Python float either way: ``abs`` on floats, else the max-norm
    rounded to float (as where a long-double dt makes the residual a long
    double).
    """
    f = rhs(y, t_new)
    res = y - c - h * f
    norm = abs if type(res) is float else (lambda r: float(abs(r).max()))
    rnorm = norm(res)
    for it in range(maxit):
        if rnorm < tol:
            return y, f
        dy = _newton_update(h, jac(y, t_new), res, rnorm, it, t_new)
        # damped update: halve until the residual does not grow
        lam = 1.0
        for _ in range(12):
            y_try = y - lam * dy
            f_try = rhs(y_try, t_new)
            r_try = y_try - c - h * f_try
            r_try_norm = norm(r_try)
            if r_try_norm <= rnorm or lam < 1e-3:
                break
            lam *= 0.5
        y, f, res, rnorm = y_try, f_try, r_try, r_try_norm
    if rnorm < tol:
        return y, f
    raise ImplicitSolveError(
        f"implicit step at t={t_new} did not converge "
        f"(residual {rnorm:.3e} after {maxit} iterations)", rnorm, maxit)


def layered_step(tab: MultistepTableau, states, fvals, dt: float, rhs: Callable,
         t_new: float, jac: Callable | None = None):
    """Advance one step: returns (y_{n+1}, f(y_{n+1})).

    ``states`` and ``fvals`` are the states and right-hand sides in index
    order, oldest first; the step reads their s newest entries (ValueError
    with fewer) and changes neither.  ``rhs(y, t)`` evaluates f; ``jac(y, t)``
    its (n, n) state Jacobian, which the Newton solve of an implicit tableau
    needs (ValueError without it).  Explicit tableaus need no ``jac``: they
    evaluate one arithmetic expression and f once, at the new state.  The
    step computes in the kind of the states: on arrays it returns new
    arrays; on Python floats (a scalar state) ``rhs`` and ``jac`` take and
    return floats, and so does the step.
    """
    if min(len(states), len(fvals)) < tab.s:
        raise ValueError(f"history must hold {tab.s} entries before stepping")
    c = _history_constant(tab, states, fvals, dt)
    if not tab.is_implicit:
        return c, rhs(c, t_new)
    if jac is None:
        raise ValueError(f"implicit tableau {tab.name} needs the Jacobian jac")
    # predictor: a copy of the newest state
    y = states[-1]
    return _newton_step(dt * tab.b_implicit, c,
                        y.copy() if isinstance(y, np.ndarray) else y,
                        rhs, t_new, jac)


EQUIVALENCE_SCHEMES = ["ExplicitEuler", "AB2", "AB3", "ImplicitEuler", "BDF2",
                       "BDF3", "BDF4", "BDF5", "BDF6", "AM4"]


def bits(v):
    """Type, dtype and bits of a value, signs of zero included; a long
    double is compared through its round-trip repr, since the padding bytes
    of its storage are undefined."""
    a = np.asarray(v)
    if a.dtype == np.longdouble:
        return type(v), a.dtype, tuple(map(repr, a.reshape(-1)))
    return type(v), a.dtype, a.tobytes()


def recorded_calls(kind, alpha, beta, gamma, singular_h=None):
    """(rhs, jac, calls) of f_i = alpha y_i + beta y_i y_j + gamma t in
    ``kind`` ("float", "array1" or "array2"), j = i except on two states,
    where j is the other one; every call appends its name, the bits of y
    and t.  ``singular_h`` makes jac 1/h, so that 1 - h J can vanish."""
    calls = []

    def log(name, y, t):
        calls.append((name, bits(y), repr(t)))

    def rhs(y, t):
        log("rhs", y, t)
        partner = y[::-1] if kind == "array2" else y
        return alpha * y + beta * y * partner + gamma * t

    def jac(y, t):
        log("jac", y, t)
        if singular_h is not None:
            one = 1.0 / singular_h
            return one if kind == "float" else one * np.eye(y.size)
        if kind == "float":
            return alpha + 2.0 * beta * y
        if kind == "array1":
            return np.atleast_2d(alpha + 2.0 * beta * y)
        return np.array([[alpha + beta * y[1], beta * y[0]],
                         [beta * y[1], alpha + beta * y[0]]])
    return rhs, jac, calls


def step_outcome(stepper, tab, kind, values, dt, t_new, params, singular):
    """The result or the error of one step on fresh history, and the calls
    it made: an error's type, text, residual and iteration count."""
    if kind == "float":
        states = [float(v) for v in values]
    elif kind == "array1":
        states = [np.array([v]) for v in values]
    else:
        states = [np.array([v, 0.5 - v]) for v in values]
    rhs, jac, calls = recorded_calls(
        kind, *params, singular_h=dt * tab.b_implicit if singular else None)
    fvals = [rhs(y, 0.0) for y in states]
    calls.clear()
    with np.errstate(all="ignore"):
        try:
            out = stepper(tab, states, fvals, dt, rhs, t_new, jac)
        except (tb.ImplicitSolveError, TypeError) as err:
            out = (type(err), str(err), repr(getattr(err, "residual", None)),
                   getattr(err, "iterations", None))
        else:
            out = [bits(v) for v in out]
    return out, calls


def assert_same_step(tab, kind, values, dt, t_new, params, singular=False):
    args = (tab, kind, values, dt, t_new, params, singular)
    new, old = step_outcome(tb.step, *args), step_outcome(layered_step, *args)
    assert new[0] == old[0]
    assert new[1] == old[1]
    return new


class TestOneFrameStep:
    """``step`` against ``layered_step``: the same bits, signs of zero
    included, the same error, and the same sequence of rhs/jac calls."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(name=st.sampled_from(EQUIVALENCE_SCHEMES),
           kind=st.sampled_from(["float", "array1", "array2"]),
           long_dt=st.booleans(),
           values=st.lists(st.floats(-3.0, 3.0), min_size=6, max_size=6),
           dt=st.one_of(st.floats(1e-3, 0.2), st.floats(0.2, 20.0)),
           alpha=st.floats(-5.0, 2.0), beta=st.floats(-2.0, 2.0),
           gamma=st.floats(-1.0, 1.0), singular=st.booleans())
    def test_matches_layered_step(self, name, kind, long_dt, values, dt,
                                  alpha, beta, gamma, singular):
        tab = tb.tableau(name)
        dt = np.longdouble(dt) if long_dt else dt
        args = (tab, kind, values[:tab.s], dt, 1.0, (alpha, beta, gamma),
                singular and tab.is_implicit)
        if kind == "array2" and long_dt and tab.is_implicit:
            # LAPACK takes no long double: the layered step failed in the
            # solve, the one-frame step refuses before it calls rhs
            with pytest.raises(ValueError,
                               match=np.dtype(np.longdouble).name):
                step_outcome(tb.step, *args)
            return
        assert_same_step(*args)

    # LAPACK takes no long double, so a long-double system is refused (the
    # property test covers that) and reaches neither case
    KINDS = [("float", float), ("float", np.longdouble), ("array1", float),
             ("array1", np.longdouble), ("array2", float)]

    @pytest.mark.parametrize("kind, dtype", KINDS)
    def test_damped_retry(self, kind, dtype):
        # y' = y - y^2 + t from 1/2 with a long step: a full Newton update
        # overshoots, and a halved one is tried before the next jac call
        out, calls = assert_same_step(tb.tableau("BDF2"), kind, [0.5, 0.5],
                                      dtype(2.0), 1.0, (1.0, -1.0, 1.0))
        names = [c[0] for c in calls]
        assert ("rhs", "rhs") in zip(names, names[1:])
        assert isinstance(out, list)

    @pytest.mark.parametrize("kind, dtype", KINDS)
    def test_nonconvergence(self, kind, dtype):
        # an absurd step on y' = y + y^2 + t from 2 leaves no converging
        # iterate
        out, _ = assert_same_step(tb.tableau("ImplicitEuler"), kind, [2.0],
                                  dtype(5.0), 1.0, (1.0, 1.0, 1.0))
        assert out[0] is tb.ImplicitSolveError and out[3] == 50

    @pytest.mark.parametrize("kind", ["float", "array1", "array2"])
    def test_vanishing_newton_matrix(self, kind):
        # h = 0.5 and J = 2: 1 - h J is exactly 0 (LAPACK's singular pivot
        # on a system)
        out, calls = assert_same_step(tb.tableau("ImplicitEuler"), kind,
                                      [1.0], 0.5, 0.5, (1.0, 0.0, 0.0),
                                      singular=True)
        assert out[0] is tb.ImplicitSolveError and out[3] == 0
        assert "singular Newton matrix" in out[1]
        assert [c[0] for c in calls] == ["rhs", "jac"]
