"""Tracking functional, BB steps, TV filter, and the descent loop."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lmm_adjoint as la
from lmm_adjoint import control as ct
from lmm_adjoint import relaxation as rx
from lmm_adjoint.config import parse_config
from lmm_adjoint.experiments import run_control


def coarse_jinxin_setup(nx=40, n_steps=10, eps=1e-2, flux="burgers"):
    grid = rx.LagrangianGrid(-3.0, 3.0, nx, boundary="periodic")
    a = 1.0
    dt = grid.dx / a
    model = rx.make_jin_xin(*rx.JIN_XIN_FLUXES[flux], a, eps)
    tab = la.tableau("BDF2")
    x = grid.nodes()
    ramp = np.where((x >= -1.5) & (x <= -0.5), 1.5 + x, 0.0)[None, :]
    _, us = rx.solve_forward(model, grid, tab, ramp, n_steps, dt)
    functional = ct.TrackingFunctional(us[-1], grid.dx)
    guess = np.where((x >= -1.5) & (x <= -0.5), 0.5, 0.0)[None, :]
    return grid, model, tab, functional, guess, n_steps, dt


def total_variation(u, boundary="open"):
    """Discrete total variation; periodic boundaries include the seam jump."""
    u = np.atleast_2d(u)
    tv = float(np.sum(np.abs(np.diff(u, axis=-1))))
    if boundary == "periodic":
        tv += float(np.sum(np.abs(u[..., 0] - u[..., -1])))
    return tv


class TestFunctional:
    def test_zero_on_target(self):
        f = ct.TrackingFunctional(np.ones((1, 10)), 0.1)
        assert f(np.ones((1, 10))) == 0.0

    def test_constant_deviation(self):
        # |u - u_d| = 1 on a periodic grid covering [-3, 3]: J = 6/2 = 3
        grid = rx.LagrangianGrid(-3.0, 3.0, 61, boundary="periodic")
        f = ct.TrackingFunctional(np.zeros((1, grid.n_nodes)), grid.dx)
        J = f(np.ones((1, grid.n_nodes)))
        assert abs(J - 3.0) <= 1e-12

    def test_grid_mismatch(self):
        f = ct.TrackingFunctional(np.ones((1, 10)), 0.1)
        with pytest.raises(ValueError, match="state shape"):
            f(np.ones((1, 11)))

    def test_nonnegative_random(self):
        rng = np.random.default_rng(3)
        f = ct.TrackingFunctional(rng.standard_normal((1, 50)), 0.05)
        for _ in range(20):
            assert f(rng.standard_normal((1, 50))) >= 0.0


def reference_bb_step(du, dg, sigma, variant):
    """The BB step with NumPy's safeguard, ``np.isfinite`` and ``np.clip``
    on the float step."""
    du, dg = du.ravel(), dg.ravel()
    if variant == "bb2":
        num, den = float(du @ dg), float(dg @ dg)
    else:
        num, den = float(du @ du), float(du @ dg)
    if den == 0.0:
        return sigma
    step = num / den
    if not np.isfinite(step) or step <= 0.0:
        return sigma
    return float(np.clip(step, 1e-6, 1e2))


class TestBarzilaiBorwein:
    @staticmethod
    def _step(u_prev, g_prev, u, g, sigma=0.7, variant="bb2"):
        """``bb_step`` on the increments from (u_prev, g_prev) to (u, g)."""
        return ct.bb_step(np.asarray(u, float) - np.asarray(u_prev, float),
                          np.asarray(g, float) - np.asarray(g_prev, float),
                          sigma, variant)

    def test_identity_hessian(self):
        # quadratic J = |u|^2/2: g = u, dg = du -> sigma = 1 (both variants)
        u_prev, u = np.array([1.0, 2.0]), np.array([0.4, 1.1])
        for v in ("bb1", "bb2"):
            assert self._step(u_prev, u_prev, u, u,
                              variant=v) == pytest.approx(1.0)

    def test_double_curvature(self):
        u_prev, u = np.array([1.0, -1.0]), np.array([0.2, 0.5])
        g_prev, g = 2 * u_prev, 2 * u
        assert self._step(u_prev, g_prev, u, g,
                          variant="bb2") == pytest.approx(0.5)

    def test_zero_increment_keeps_sigma(self):
        u = np.array([1.0, 2.0])
        assert self._step(u, np.array([3.0, 4.0]), u, np.array([3.0, 4.0]),
                          sigma=0.37) == 0.37

    def test_safeguards(self):
        u_prev, u = np.array([0.0]), np.array([1.0])
        # dg tiny -> raw sigma huge -> clipped at sigma_max
        assert self._step(u_prev, np.array([0.0]), u, np.array([1e-9]),
                          sigma=0.2) == pytest.approx(1e2)
        # negative curvature -> previous sigma
        assert self._step(u_prev, np.array([0.0]), u, np.array([-1.0]),
                          sigma=0.2) == 0.2

    @pytest.mark.parametrize("dg", [
        [0.0, 0.0],                           # zero curvature
        [-1.0, -2.0],                         # negative curvature
        [np.inf, 1.0],
        [np.nan, 1.0],
        [1e-300, 0.0],                        # huge raw step: clipped
        [1e200, 1e200],                       # tiny raw step: clipped
    ])
    def test_degenerate_curvature_matches_numpy_formula(self, dg):
        du = np.array([1.0, 0.5])
        for v in ("bb1", "bb2"):
            with np.errstate(over="ignore", invalid="ignore"):
                got = ct.bb_step(du, np.array(dg), 0.3, v)
                want = reference_bb_step(du, np.array(dg), 0.3, v)
            assert type(got) is float and got.hex() == want.hex(), (v, got)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.data())
    def test_step_matches_numpy_formula(self, data):
        # sigma bit for bit as the np.isfinite / np.clip formula gave it, on
        # increments with zeros, signed zeros, subnormals, infinities, NaN
        # and huge entries, whose dots may overflow (errstate: both compute
        # the same dots, and the property is about the value)
        special = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, np.inf,
                                   -np.inf, np.nan, 1e200, -1e200, 1e-160])
        entry = st.one_of(special, st.floats(-1e3, 1e3))
        n = data.draw(st.integers(1, 4))
        du = np.array(data.draw(st.lists(entry, min_size=n, max_size=n)))
        dg = np.array(data.draw(st.lists(entry, min_size=n, max_size=n)))
        sigma = data.draw(st.floats(1e-6, 1e2))
        variant = data.draw(st.sampled_from(["bb1", "bb2"]))
        with np.errstate(over="ignore", invalid="ignore"):
            got = ct.bb_step(du, dg, sigma, variant)
            want = reference_bb_step(du, dg, sigma, variant)
        assert type(got) is float and got.hex() == float(want).hex()

    def test_first_iteration_uses_sigma0(self):
        # no increment exists at k = 0: the loop steps and logs sigma0
        grid, model, tab, functional, guess, n_steps, dt = \
            coarse_jinxin_setup()
        res = ct.optimize(model, grid, tab, functional, guess, n_steps, dt,
                          iterations=1, sigma0=0.37, bb_variant="bb2",
                          filter_every=0)
        assert res.iterations[0]["k"] == 0
        assert res.iterations[0]["sigma"] == 0.37


def reference_tv_filter(u, grid):
    """``tv_filter`` as it was written with its own neighbours: np.roll on
    periodic grids, repeated edge values on clamped ones."""
    u = np.asarray(u, dtype=float)
    if grid.boundary == "periodic":
        left = np.roll(u, 1, axis=-1)
        right = np.roll(u, -1, axis=-1)
    else:
        left = np.concatenate([u[..., :1], u[..., :-1]], axis=-1)
        right = np.concatenate([u[..., 1:], u[..., -1:]], axis=-1)
    return 0.25 * (left + 2.0 * u + right)


class TestTvFilter:
    def test_constant_unchanged(self):
        grid = rx.LagrangianGrid(0.0, 1.0, 21)
        u = np.full(grid.n_nodes, 1.7)
        assert np.allclose(ct.tv_filter(u, grid), u)

    def test_single_spike(self):
        grid = rx.LagrangianGrid(0.0, 1.0, 21)
        u = np.zeros(grid.n_nodes)
        u[10] = 1.0
        out = ct.tv_filter(u, grid)
        assert out[9] == 0.25 and out[10] == 0.5 and out[11] == 0.25
        assert total_variation(out) <= total_variation(u)
        assert abs(total_variation(u) - 2.0) <= 1e-15
        assert abs(total_variation(out) - 1.0) <= 1e-15

    def test_tv_never_increases_random_steps(self):
        # TV measured with the grid's own boundary rule (periodic includes
        # the seam jump, which the wrapping filter redistributes)
        rng = np.random.default_rng(11)
        for boundary, tv_kind in (("periodic", "periodic"), ("clamp", "open")):
            grid = rx.LagrangianGrid(0.0, 1.0, 41, boundary=boundary)
            for _ in range(100):
                edges = np.sort(rng.integers(0, grid.n_nodes, size=4))
                u = np.zeros(grid.n_nodes)
                vals = rng.uniform(-2, 2, size=5)
                idx = np.concatenate([[0], edges, [grid.n_nodes]])
                for k in range(5):
                    u[idx[k]:idx[k + 1]] = vals[k]
                assert (total_variation(ct.tv_filter(u, grid), tv_kind)
                        <= total_variation(u, tv_kind) + 1e-12)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(u=st.lists(st.floats(-1e3, 1e3, allow_nan=False), min_size=2,
                      max_size=80),
           boundary=st.sampled_from(["periodic", "clamp"]))
    def test_tv_never_increases_random_data(self, u, boundary):
        # any data, either boundary rule: the convex stencil cannot raise
        # the total variation beyond roundoff of the data's magnitude
        u = np.array(u)
        n_points = u.size + (boundary == "periodic")
        grid = rx.LagrangianGrid(0.0, 1.0, max(n_points, 3), boundary)
        u = np.resize(u, grid.n_nodes)
        tv_kind = "periodic" if boundary == "periodic" else "open"
        tol = 1e-14 * u.size * max(np.abs(u).max(), 1.0)
        assert (total_variation(ct.tv_filter(u, grid), tv_kind)
                <= total_variation(u, tv_kind) + tol)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(boundary=st.sampled_from(["periodic", "clamp"]),
           nx=st.integers(3, 40), batch=st.sampled_from([(), (2,), (2, 3)]),
           seed=st.integers(0, 3))
    def test_matches_reference_bitwise(self, boundary, nx, batch, seed):
        # batched data with stretches of +0.0 and -0.0: equal bits, signs
        # of zero included
        grid = rx.LagrangianGrid(0.0, 1.0, nx, boundary)
        M = grid.n_nodes
        u = np.random.default_rng(seed).standard_normal(batch + (M,))
        u[..., :M // 3] = 0.0
        u[..., M // 3:2 * M // 3] = -0.0
        got, expect = ct.tv_filter(u, grid), reference_tv_filter(u, grid)
        assert got.shape == expect.shape and got.dtype == np.float64
        assert np.array_equal(got.view(np.int64), expect.view(np.int64))

    def test_mass_preserving_periodic(self):
        rng = np.random.default_rng(5)
        grid = rx.LagrangianGrid(0.0, 1.0, 33)
        u = rng.standard_normal(grid.n_nodes)
        assert abs(ct.tv_filter(u, grid).sum() - u.sum()) <= 1e-12


class TestGradient:
    def test_zero_mismatch_zero_gradient(self):
        grid, model, tab, functional, guess, n_steps, dt = \
            coarse_jinxin_setup()
        # target reached exactly: terminal data vanish, so does the gradient
        mismatch = np.zeros((1, grid.n_nodes))
        lam_T = rx.terminal_multipliers(model, mismatch)
        lam0 = rx.solve_adjoint(model, grid, tab,
                                np.zeros((n_steps, 1, grid.n_nodes)), lam_T,
                                n_steps, dt)
        g = ct.gradient_from_adjoint(model, lam0, guess)
        assert np.all(g == 0.0)

    def test_linear_flux_characteristics_oracle(self):
        # F(u) = u, eps -> 0: gradient = terminal mismatch transported back
        grid = rx.LagrangianGrid(0.0, 6.0, 320, boundary="periodic")
        a = 1.0
        dt = grid.dx / a
        model = rx.make_jin_xin(*rx.JIN_XIN_FLUXES["linear"], a, 1e-10)
        tab = la.tableau("BDF2")
        n_steps = 40
        x = grid.nodes()
        mismatch = np.exp(-((x - 3.0) ** 2))[None, :]
        lam_T = rx.terminal_multipliers(model, mismatch)
        lam0 = rx.solve_adjoint(model, grid, tab,
                                np.zeros((n_steps, 1, grid.n_nodes)), lam_T,
                                n_steps, dt)
        g = ct.gradient_from_adjoint(model, lam0)[0]
        oracle = np.roll(mismatch[0], -n_steps)  # shift by a*T = n_steps dx
        assert np.sqrt(np.mean((g - oracle) ** 2)) <= 2e-3

    def test_jinxin_gradient_vs_finite_differences(self):
        # 5% relative L2 agreement on the coarse control instance
        grid, model, tab, functional, guess, n_steps, dt = \
            coarse_jinxin_setup()
        _, us = rx.solve_forward(model, grid, tab, guess, n_steps, dt)
        lam_T = rx.terminal_multipliers(
            model, functional.terminal_mismatch(us[-1]))
        lam0 = rx.solve_adjoint(model, grid, tab, us, lam_T, n_steps, dt)
        g = ct.gradient_from_adjoint(model, lam0, guess)[0]
        h = 1e-5
        fd = np.zeros(grid.n_nodes)
        for i in range(grid.n_nodes):
            up, um = guess.copy(), guess.copy()
            up[0, i] += h
            um[0, i] -= h
            _, usp = rx.solve_forward(model, grid, tab, up, n_steps, dt)
            _, usm = rx.solve_forward(model, grid, tab, um, n_steps, dt)
            fd[i] = (functional(usp[-1]) - functional(usm[-1])) / (2 * h)
        fd /= grid.dx
        rel = np.sqrt(np.sum((g - fd) ** 2) / np.sum(fd ** 2))
        assert rel <= 0.05

    def test_broadwell_gradient_vs_finite_differences(self):
        grid = rx.LagrangianGrid(-2.5, 2.5, 40, boundary="clamp")
        model = rx.make_broadwell(1.0, 1e-2)
        tab = la.tableau("BDF2")
        dt, n_steps = 0.02, 8
        x = grid.nodes()
        target0 = np.stack([1.0 + 0.1 * np.exp(-x ** 2),
                            0.2 * np.exp(-((x - 0.5) ** 2))])
        _, us_t = rx.solve_forward(model, grid, tab, target0, n_steps, dt)
        functional = ct.TrackingFunctional(us_t[-1], grid.dx)
        guess = np.stack([np.ones_like(x), np.zeros_like(x)])
        _, us = rx.solve_forward(model, grid, tab, guess, n_steps, dt)
        lam_T = rx.terminal_multipliers(
            model, functional.terminal_mismatch(us[-1]))
        lam0 = rx.solve_adjoint(model, grid, tab, us, lam_T, n_steps, dt)
        g = ct.gradient_from_adjoint(model, lam0, guess)
        h = 1e-6
        fd = np.zeros_like(g)
        for r in range(2):
            for i in range(grid.n_nodes):
                up, um = guess.copy(), guess.copy()
                up[r, i] += h
                um[r, i] -= h
                _, usp = rx.solve_forward(model, grid, tab, up, n_steps, dt)
                _, usm = rx.solve_forward(model, grid, tab, um, n_steps, dt)
                fd[r, i] = (functional(usp[-1]) - functional(usm[-1])) / (2 * h)
        fd /= grid.dx
        rel = np.sqrt(np.sum((g - fd) ** 2) / np.sum(fd ** 2))
        assert rel <= 0.05


def central_differences(grid, model, tab, functional, guess, n_steps, dt,
                        h=1e-5):
    """Central differences of J in each node of a scalar control, per dx."""
    fd = np.zeros(grid.n_nodes)
    for i in range(grid.n_nodes):
        up, um = guess.copy(), guess.copy()
        up[0, i] += h
        um[0, i] -= h
        _, usp = rx.solve_forward(model, grid, tab, up, n_steps, dt)
        _, usm = rx.solve_forward(model, grid, tab, um, n_steps, dt)
        fd[i] = (functional(usp[-1]) - functional(usm[-1])) / (2 * h)
    return fd / grid.dx


class TestJinXinGradientGap:
    """The n = 1 convention (lambda(T) = d/Nv, g = sum_j lambda^j) against
    the exact transpose (lambda(T) = Q^T d, g = sum_j lambda^j E'_j(u0)) on
    the coarse Jin-Xin instance: the gap is F'(u0)(lambda^+ - lambda^-)/a."""

    @staticmethod
    def sweeps(flux, eps):
        setup = coarse_jinxin_setup(eps=eps, flux=flux)
        grid, model, tab, functional, guess, n_steps, dt = setup
        _, us = rx.solve_forward(model, grid, tab, guess, n_steps, dt)
        d = functional.terminal_mismatch(us[-1])
        lam = rx.solve_adjoint(model, grid, tab, us,
                               rx.terminal_multipliers(model, d), n_steps, dt)
        lam_q = rx.solve_adjoint(model, grid, tab, us,
                                 np.repeat(d, 2, axis=0), n_steps, dt)
        exact = np.einsum("jm,jrm->rm", lam_q, model.equilibrium_jac(guess))
        return setup, lam, lam_q, exact

    @pytest.mark.parametrize("flux", ["burgers", "linear"])
    @pytest.mark.parametrize("eps", [0.1, 1e-2, 1e-4])
    def test_gap_is_the_dropped_term(self, flux, eps):
        setup, lam, lam_q, exact = self.sweeps(flux, eps)
        grid, model, tab, functional, guess, n_steps, dt = setup
        # the sweep is linear and Q^T d = 2 (d/2) is exact, so the two
        # multiplier fields differ by a factor 2 bit for bit
        assert np.array_equal(lam_q, 2.0 * lam)
        a = model.velocities[0]
        dF = rx.JIN_XIN_FLUXES[flux][1]
        dropped = dF(guess[0]) * (lam[0] - lam[1]) / a
        gap = exact - ct.gradient_from_adjoint(model, lam, guess)
        assert (np.max(np.abs(gap[0] - dropped))
                <= 1e-14 * np.max(np.abs(exact)))

    def test_exact_transpose_matches_linear_differences(self):
        # a linear flux makes J quadratic, so central differences are exact
        # up to rounding: the exact transpose meets them, while the n = 1
        # gradient's gap falls with eps
        gaps = []
        for eps in (0.1, 1e-2, 1e-4):
            setup, lam, _, exact = self.sweeps("linear", eps)
            _, model, _, _, guess, _, _ = setup
            fd = central_differences(*setup)
            norm = np.sqrt(np.sum(fd ** 2))
            g = ct.gradient_from_adjoint(model, lam, guess)[0]
            assert np.sqrt(np.sum((exact[0] - fd) ** 2)) <= 1e-8 * norm
            gaps.append(np.sqrt(np.sum((g - fd) ** 2)) / norm)
        assert gaps[0] > gaps[1] > gaps[2], gaps


class TestOptimize:
    def test_exits_immediately_on_zero_functional(self):
        grid, model, tab, _, _, n_steps, dt = coarse_jinxin_setup()
        x = grid.nodes()
        u0 = np.where((x >= -1.5) & (x <= -0.5), 0.5, 0.0)[None, :]
        _, us = rx.solve_forward(model, grid, tab, u0, n_steps, dt)
        functional = ct.TrackingFunctional(us[-1], grid.dx)
        res = ct.optimize(model, grid, tab, functional, u0, n_steps, dt,
                          iterations=10, sigma0=0.1, bb_variant="bb2",
                          filter_every=1)
        assert res.iterations[-1]["k"] == 0
        assert res.iterations[0]["J"] == 0.0

    def test_stops_on_a_vanishing_gradient(self):
        # a guess 1e-12 off the truth has J > 0 but a gradient far below
        # the 1e-8 stop: one log row, and the control comes back unchanged
        grid = rx.LagrangianGrid(-3.0, 3.0, 41, boundary="periodic")
        dt, n_steps = 0.05, 6
        x = grid.nodes()
        truth = np.where((x >= -1.5) & (x <= -0.5), 1.5 + x, 0.0)[None, :]
        model = rx.make_jin_xin(*rx.JIN_XIN_FLUXES["burgers"], grid.dx / dt,
                                1e-2)
        tab = la.tableau("BDF2")
        _, us = rx.solve_forward(model, grid, tab, truth, n_steps, dt)
        functional = ct.TrackingFunctional(us[-1], grid.dx)
        guess = truth + 1e-12
        res = ct.optimize(model, grid, tab, functional, guess, n_steps, dt,
                          iterations=10, sigma0=0.1, bb_variant="bb2",
                          filter_every=1)
        [row] = res.iterations
        assert row["k"] == 0 and 1e-24 < row["J"] < 1e-23
        assert 1e-12 < row["grad_inf_norm"] < 2e-12
        assert_bitwise(res.control, guess)

    def test_monotone_decrease_fixed_small_sigma(self):
        # fixed small step, no filter: J non-increasing for 20 iterations
        grid, model, tab, functional, guess, n_steps, dt = \
            coarse_jinxin_setup()
        u0 = guess.copy()
        Js = []
        for _ in range(21):
            _, us = rx.solve_forward(model, grid, tab, u0, n_steps, dt)
            Js.append(functional(us[-1]))
            lam_T = rx.terminal_multipliers(
                model, functional.terminal_mismatch(us[-1]))
            lam0 = rx.solve_adjoint(model, grid, tab, us, lam_T, n_steps, dt)
            u0 = u0 - 0.05 * ct.gradient_from_adjoint(model, lam0, u0)
        assert all(b <= a + 1e-14 for a, b in zip(Js, Js[1:]))

    def test_deterministic(self):
        grid, model, tab, functional, guess, n_steps, dt = \
            coarse_jinxin_setup()
        runs = []
        for _ in range(2):
            res = ct.optimize(model, grid, tab, functional, guess, n_steps,
                              dt, iterations=8, sigma0=0.1, bb_variant="bb2",
                              filter_every=2)
            runs.append([r["J"] for r in res.iterations])
        assert runs[0] == runs[1]

    def test_sigma_within_safeguards_long_run(self):
        grid, model, tab, functional, guess, n_steps, dt = \
            coarse_jinxin_setup()
        res = ct.optimize(model, grid, tab, functional, guess, n_steps, dt,
                          iterations=100, sigma0=0.1, bb_variant="bb2",
                          filter_every=1)
        sigmas = [r["sigma"] for r in res.iterations]
        assert all(1e-6 <= s <= 1e2 for s in sigmas)

    def test_functional_history_append_only(self):
        grid, model, tab, functional, guess, n_steps, dt = \
            coarse_jinxin_setup()
        res = ct.optimize(model, grid, tab, functional, guess, n_steps, dt,
                          iterations=5, sigma0=0.1, bb_variant="bb2",
                          filter_every=1)
        assert [r["k"] for r in res.iterations] == list(range(6))
        u_T = rx.solve_forward(model, grid, tab, guess, n_steps, dt)[1][-1]
        assert res.iterations[0]["J"] == functional(u_T)

    def test_blow_up_keeps_the_step_and_names_the_iteration(self, tmp_path):
        # a large first step drives Broadwell's rho below 0
        cfg = parse_config("[control-broadwell]\nnx = 81\niterations = 3\n"
                           "sigma0 = 10\n")
        with pytest.raises(la.SolverError,
                           match=r"at step 1 in descent iteration 1$") as err:
            run_control(cfg, str(tmp_path), "control-broadwell")
        assert err.value.step_index == 1

    def test_control_with_negative_density_fails_at_the_lift(self, tmp_path):
        # a huge first step drives the control's own rho below 0, so the
        # next forward solve fails in its lift, step 0
        cfg = parse_config("[control-broadwell]\nnx = 81\niterations = 2\n"
                           "sigma0 = 1000\n")
        with pytest.raises(la.SolverError,
                           match=r"at step 0 in descent iteration 1$") as err:
            run_control(cfg, str(tmp_path), "control-broadwell")
        assert err.value.step_index == 0


def coarse_broadwell_setup(nx=40, n_steps=8):
    grid = rx.LagrangianGrid(-2.5, 2.5, nx, boundary="clamp")
    model = rx.make_broadwell(1.0, 1e-2)
    tab = la.tableau("BDF2")
    dt = 0.02
    x = grid.nodes()
    target0 = np.stack([1.0 + 0.1 * np.exp(-x ** 2),
                        0.2 * np.exp(-((x - 0.5) ** 2))])
    _, us = rx.solve_forward(model, grid, tab, target0, n_steps, dt)
    functional = ct.TrackingFunctional(us[-1], grid.dx)
    guess = np.stack([np.ones_like(x), np.zeros_like(x)])
    return grid, model, tab, functional, guess, n_steps, dt


def assert_bitwise(actual, expected):
    actual, expected = np.asarray(actual), np.asarray(expected)
    assert actual.shape == expected.shape and actual.dtype == expected.dtype
    assert (actual.view(np.int64) == expected.view(np.int64)).all()


class TestForwardStoreReuse:
    """A descent writes every forward solve after the first into the first
    one's store (``solve_forward``'s ``out``)."""

    @pytest.mark.parametrize("setup", [coarse_jinxin_setup,
                                       coarse_broadwell_setup])
    def test_reused_store_equals_fresh_stores(self, monkeypatch, setup):
        grid, model, tab, functional, guess, n_steps, dt = setup()
        solve = ct.solve_forward
        outs, stores = [], []

        def passing(*args, **kwargs):
            outs.append(kwargs.get("out"))
            fld, store = solve(*args, **kwargs)
            stores.append(store)
            return fld, store

        def fresh(*args, out=None):
            return solve(*args)

        runs = []
        for wrapper in (passing, fresh):
            monkeypatch.setattr(ct, "solve_forward", wrapper)
            runs.append(ct.optimize(model, grid, tab, functional, guess,
                                    n_steps, dt, iterations=6, sigma0=0.1,
                                    bb_variant="bb2", filter_every=2))
        reused, baseline = runs
        assert len(stores) == 7
        assert outs[0] is None
        assert all(out is stores[0] for out in outs[1:])
        assert all(store is stores[0] for store in stores)
        assert_bitwise(reused.control, baseline.control)
        assert_bitwise(reused.u_terminal, baseline.u_terminal)
        assert len(reused.iterations) == len(baseline.iterations)
        for r, b in zip(reused.iterations, baseline.iterations):
            assert r.keys() == b.keys() and r["k"] == b["k"]
            assert_bitwise([r["J"], r["sigma"], r["grad_inf_norm"]],
                           [b["J"], b["sigma"], b["grad_inf_norm"]])

    def test_descent_holds_one_store(self, monkeypatch):
        # 400 steps on 40 nodes: a store is 125 KB, far above the sweeps'
        # rings and work buffers once the adjoint evaluates its Jacobians
        # one level per block (a full block would be twice the store)
        grid, model, tab, functional, guess, n_steps, dt = \
            coarse_jinxin_setup(n_steps=400)
        monkeypatch.setattr(rx, "_JAC_BLOCK_NODES", grid.n_nodes)
        store_bytes = 8 * (n_steps + 1) * grid.n_nodes
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            ct.optimize(model, grid, tab, functional, guess, n_steps, dt,
                        iterations=5, sigma0=0.1, bb_variant="bb2",
                        filter_every=1)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * store_bytes, peak / store_bytes
