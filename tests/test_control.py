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


def coarse_jinxin_setup(nx=40, n_steps=10, eps=1e-2):
    grid = rx.LagrangianGrid(-3.0, 3.0, nx, boundary="periodic")
    a = 1.0
    dt = grid.dx / a
    model = rx.make_jin_xin(lambda u: 0.5 * u * u, lambda u: u, a, eps)
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

    def test_first_iteration_uses_sigma0(self):
        # no increment exists at k = 0: the loop steps and logs sigma0
        grid, model, tab, functional, guess, n_steps, dt = \
            coarse_jinxin_setup()
        res = ct.optimize(model, grid, tab, functional, guess, n_steps, dt,
                          iterations=1, sigma0=0.37, bb_variant="bb2",
                          filter_every=0)
        assert res.iterations[0]["k"] == 0
        assert res.iterations[0]["sigma"] == 0.37


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
        lam0 = rx.solve_adjoint(model, grid, tab, None, lam_T, n_steps, dt)
        g = ct.gradient_from_adjoint(model, lam0, guess)
        assert np.all(g == 0.0)

    def test_linear_flux_characteristics_oracle(self):
        # F(u) = u, eps -> 0: gradient = terminal mismatch transported back
        grid = rx.LagrangianGrid(0.0, 6.0, 320, boundary="periodic")
        a = 1.0
        dt = grid.dx / a
        model = rx.make_jin_xin(lambda u: u, lambda u: np.ones_like(u),
                                a, 1e-10)
        tab = la.tableau("BDF2")
        n_steps = 40
        x = grid.nodes()
        mismatch = np.exp(-((x - 3.0) ** 2))[None, :]
        lam_T = rx.terminal_multipliers(model, mismatch)
        lam0 = rx.solve_adjoint(model, grid, tab, None, lam_T, n_steps, dt)
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
