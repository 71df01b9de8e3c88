"""Semi-Lagrangian relaxation solver: models, forward, adjoint, oracles."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lmm_adjoint as la
from lmm_adjoint import relaxation as rx


def linear_jinxin(a, eps, u0=None):
    return rx.make_jin_xin(*rx.JIN_XIN_FLUXES["linear"], a, eps, u0=u0)


def burgers_jinxin(a, eps, u0=None):
    return rx.make_jin_xin(*rx.JIN_XIN_FLUXES["burgers"], a, eps, u0=u0)


def zero_state_jac(model, grid):
    """Equilibrium Jacobian (Nv, n, M) at the state u = 0."""
    return model.equilibrium_jac(np.zeros((model.n_conserved, grid.n_nodes)))


def moment_deviation(model, u):
    """Largest deviation of the moments Q E(u) from the sampled states u."""
    return float(np.max(np.abs(model.moments(model.equilibrium(u)) - u)))


def assert_bitwise(actual, expected):
    """Equal shapes and equal float64 bit patterns: unlike
    ``np.array_equal`` this tells -0.0 from +0.0, which a CSV cell written
    with %.17g does too."""
    actual, expected = np.asarray(actual), np.asarray(expected)
    assert actual.shape == expected.shape, (actual.shape, expected.shape)
    assert actual.dtype == expected.dtype == np.float64
    same = actual.view(np.int64) == expected.view(np.int64)
    assert same.all(), f"{np.count_nonzero(~same)} entries differ in bits"


def step_forward(model, grid, fld):
    """One forward step into a fresh (n, M) array, which it returns."""
    out = np.empty((model.n_conserved, grid.n_nodes))
    return rx.forward_step(model, grid, fld, out)


class TestModels:
    def test_jinxin_linear_unit_speed(self):
        # F(u) = u, a = 1: E_1 = u, E_2 = 0
        m = linear_jinxin(1.0, 1e-2)
        u = np.linspace(-2, 2, 9)[None, :]
        E = m.equilibrium(u)
        assert np.allclose(E[0], u[0]) and np.allclose(E[1], 0.0)

    def test_zero_state_zero_equilibrium(self):
        m = burgers_jinxin(2.1, 1e-2)
        E = m.equilibrium(np.zeros((1, 5)))
        assert np.all(E == 0.0)

    def test_burgers_equilibrium_values(self):
        # F(u) = u^2/2, a = 2.1, u = 1: E_1 = 2.6/4.2, E_2 = 1.6/4.2
        m = burgers_jinxin(2.1, 1e-2)
        E = m.equilibrium(np.array([[1.0]]))
        assert abs(E[0, 0] - 2.6 / 4.2) <= 1e-15
        assert abs(E[1, 0] - 1.6 / 4.2) <= 1e-15

    def test_jinxin_invalid_speed(self):
        with pytest.raises(la.ConfigError):
            linear_jinxin(-1.0, 1e-2)
        with pytest.raises(la.ConfigError):
            linear_jinxin(1.0, 0.0)

    def test_nan_eps_rejected(self):
        # NaN <= 0 is False: the model accepts eps only where eps > 0
        for eps in (np.nan, np.array([1e-2, np.nan])):
            with pytest.raises(la.ConfigError, match="eps must be positive"):
                linear_jinxin(1.0, eps)

    def test_subcharacteristic_check(self):
        u0 = np.linspace(-1.5, 1.5, 11)
        with pytest.raises(la.ConfigError):
            burgers_jinxin(1.0, 1e-2, u0=u0)  # max|F'| = 1.5 > a
        burgers_jinxin(1.5, 1e-2, u0=u0)      # equality allowed

    @pytest.mark.parametrize("name", list(rx.JIN_XIN_FLUXES))
    def test_flux_derivative_is_complex_step_derivative(self, name):
        # F'(u) = Im F(u + ih) / h, exact to rounding for a polynomial F
        F, dF = rx.JIN_XIN_FLUXES[name]
        u = np.random.default_rng(3).standard_normal(64) * 3.0
        u[:2] = (0.0, -0.0)
        h = 1e-20
        np.testing.assert_allclose(dF(u), F(u + 1j * h).imag / h,
                                   rtol=1e-14, atol=0.0)

    def test_broadwell_rest_state(self):
        m = rx.make_broadwell(1.0, 1e-2)
        u = np.array([[1.0], [0.0]])
        E = m.equilibrium(u)
        assert np.allclose(E[:, 0], [0.5, 0.5, 0.0])
        assert np.allclose(m.moments(E), u)

    def test_broadwell_momentum_state(self):
        m = rx.make_broadwell(1.0, 1e-2)
        u = np.array([[1.0], [0.5]])
        E = m.equilibrium(u)
        assert np.allclose(E[:, 0], [0.875, 0.375, -0.125])
        assert np.allclose(m.moments(E), u)

    def test_broadwell_momentum_symmetry(self):
        m = rx.make_broadwell(1.3, 1e-2)
        E = m.equilibrium(np.array([[2.0], [0.0]]))
        assert E[0, 0] == E[1, 0]

    def test_broadwell_errors(self):
        with pytest.raises(la.ConfigError):
            rx.make_broadwell(0.0, 1e-2)
        m = rx.make_broadwell(1.0, 1e-2)
        with pytest.raises(la.SolverError) as err:
            m.equilibrium(np.array([[-1.0], [0.0]]))
        assert err.value.step_index is None  # no step: the model alone
        # rho = 1 at t = 0; the f1 bump at node 6 moves on and leaves
        # rho = -1 there, so the first forward step names itself
        grid = rx.LagrangianGrid(0.0, 1.0, 17)
        f0 = np.zeros((3, grid.n_nodes))
        f0[2] = 0.5
        f0[0, 6], f0[2, 6] = 2.0, -0.5
        fld = rx.KineticField(m, grid, grid.dx, la.tableau("BDF1"), f0)
        with pytest.raises(la.SolverError, match=r"rho <= 0 at step 1$") as err:
            rx.forward_step(m, grid, fld, out=np.empty((2, grid.n_nodes)))
        assert err.value.step_index == 1

    def test_moment_consistency_sampled(self):
        rng = np.random.default_rng(42)
        jx = burgers_jinxin(2.1, 1e-2)
        u = rng.uniform(-2, 2, size=(1, 200))
        assert moment_deviation(jx, u) <= 1e-12
        bw = rx.make_broadwell(1.0, 1e-2)
        u2 = np.stack([rng.uniform(0.5, 2.0, 200), rng.uniform(-1, 1, 200)])
        assert moment_deviation(bw, u2) <= 1e-12

    def test_broadwell_jacobian_vs_fd(self):
        m = rx.make_broadwell(1.0, 1e-2)
        u = np.array([[1.2], [0.3]])
        jac = m.equilibrium_jac(u)
        h = 1e-7
        for r in range(2):
            up, um = u.copy(), u.copy()
            up[r] += h
            um[r] -= h
            fd = (m.equilibrium(up) - m.equilibrium(um)) / (2 * h)
            assert np.max(np.abs(jac[:, r, 0] - fd[:, 0])) <= 1e-6


def stacked_equilibria(name, u, a_or_c, flux=None, dflux=None):
    """Equilibrium and Jacobian from the stacked first-release formulas."""
    if name == "jin-xin":
        a = a_or_c
        F, dF, one = flux(u[0]), dflux(u[0]), np.ones_like(u[0])
        E = np.stack([(a * u[0] + F) / (2 * a), (a * u[0] - F) / (2 * a)])
        jac = np.stack([((a * one + dF) / (2 * a))[None, :],
                        ((a * one - dF) / (2 * a))[None, :]])
        return E, jac
    c = a_or_c
    rho, m = u[0], u[1]
    F = m * m / (c * c * rho) + rho
    E = np.stack([0.5 * F + m / (2 * c), 0.5 * F - m / (2 * c),
                  0.5 * (rho - F)])
    dF_rho = 1.0 - m * m / (c * c * rho * rho)
    dF_m = 2.0 * m / (c * c * rho)
    inv2c = 1.0 / (2 * c) * np.ones_like(rho)
    jac = np.stack([np.stack([0.5 * dF_rho, 0.5 * dF_m + inv2c]),
                    np.stack([0.5 * dF_rho, 0.5 * dF_m - inv2c]),
                    np.stack([0.5 * (1.0 - dF_rho), -0.5 * dF_m])])
    return E, jac


class TestOutBuffers:
    """The out-buffer equilibria equal the stacked formulas bit for bit,
    with and without ``out``, and return ``out`` when given one."""

    @pytest.mark.parametrize("flux", ["linear", "burgers"])
    def test_jinxin(self, flux):
        rng = np.random.default_rng(7)
        u = rng.standard_normal((1, 257)) * 3.0
        u[0, :3] = (0.0, -0.0, 1e-310)
        fl, dfl = rx.JIN_XIN_FLUXES[flux]
        m = rx.make_jin_xin(fl, dfl, 2.1, 1e-2)
        self.check(m, u, *stacked_equilibria("jin-xin", u, 2.1, fl, dfl))

    def test_broadwell(self):
        rng = np.random.default_rng(8)
        u = np.stack([0.2 + rng.random(257) * 3.0,
                      rng.standard_normal(257)])
        u[1, :2] = (0.0, -0.0)
        m = rx.make_broadwell(1.3, 1e-2)
        self.check(m, u, *stacked_equilibria("broadwell", u, 1.3))

    @staticmethod
    def check(model, u, E_ref, jac_ref):
        E_out, jac_out = np.empty_like(E_ref), np.empty_like(jac_ref)
        assert model.equilibrium(u, out=E_out) is E_out
        assert model.equilibrium_jac(u, out=jac_out) is jac_out
        # np.array_equal ignores the sign of zero; compare the bits
        for got, ref in ((model.equilibrium(u), E_ref), (E_out, E_ref),
                         (model.equilibrium_jac(u), jac_ref),
                         (jac_out, jac_ref)):
            assert got.shape == ref.shape
            assert np.array_equal(got.view(np.int64), ref.view(np.int64))
        f = np.abs(E_ref) + 1.0
        assert np.array_equal(model.moments(f, out=np.empty_like(u)),
                              model.moments(f))


class TestGrid:
    def test_spacing_and_alignment(self):
        g = rx.LagrangianGrid(0.0, 6.0, 640)
        assert abs(g.dx - 6.0 / 639) <= 1e-18
        assert g.n_nodes == 639
        # aligned feet carry no interpolation weights
        assert rx.FootPlan(g, np.array([2.1, -2.1]), g.dx / 2.1,
                           1).levels[0][2] is None
        assert rx.FootPlan(g, np.array([1.0]), g.dx / 2.1,
                           1).levels[0][2] is not None

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(shift=st.one_of(
        st.floats(-1e6, 1e6, allow_nan=False),
        st.integers(-40, 40).map(lambda k: k / 2),         # halfway
        st.integers(-40, 40).flatmap(lambda k: st.sampled_from(
            [k + 1e-9, k - 1e-9, k + 0.99e-9, k - 0.99e-9]))))
    def test_foot_matches_numpy_rounding(self, shift):
        # the feet once came from np.round / np.floor; Python's round and
        # math.floor give the same node, weight and types
        k = int(np.round(shift))
        if abs(shift - k) < 1e-9:
            expect = (k, 0.0)
        else:
            expect = (int(np.floor(shift)), shift - int(np.floor(shift)))
        got = rx._foot(shift)
        assert got == expect and type(got[0]) is int
        assert type(got[1]) is type(expect[1])

    def test_sample_shifted_integral(self):
        g = rx.LagrangianGrid(0.0, 1.0, 11)
        v = np.arange(10.0)
        assert np.array_equal(g.sample_shifted(v, 2), np.roll(v, 2))
        gc = rx.LagrangianGrid(0.0, 1.0, 11, boundary="clamp")
        out = gc.sample_shifted(np.arange(11.0), 3)
        assert np.array_equal(out[:4], [0, 0, 0, 0])  # clamped at the wall

    def test_sample_shifted_fractional(self):
        g = rx.LagrangianGrid(0.0, 1.0, 11)
        v = np.arange(10.0)
        out = g.sample_shifted(v, 0.5)
        # value at x_i - 0.5 dx: average of neighbours for linear data
        assert abs(out[5] - 4.5) <= 1e-14


class TestForward:
    def test_linear_exactness(self):
        # F(u) = u, a = c, grid-aligned: Eulerian solution equals shifted
        # initial data at the nodes, for any eps with equilibrium lifting
        grid = rx.LagrangianGrid(0.0, 6.0, 640)
        a = 1.0
        dt = grid.dx / a
        model = linear_jinxin(a, 1e-12)
        x = grid.nodes()
        u0 = np.exp(-((x - 3.0) ** 2))[None, :]
        n_steps = int(round(1.0 / dt))
        _, us = rx.solve_forward(model, grid, la.tableau("BDF2"), u0,
                                 n_steps, dt)
        shift = int(round(a * n_steps * dt / grid.dx))
        assert np.max(np.abs(us[-1][0] - np.roll(u0[0], shift))) <= 1e-10

    def test_mass_conservation_burgers(self):
        grid = rx.LagrangianGrid(0.0, 6.0, 320)
        a = 2.1
        dt = grid.dx / a
        x = grid.nodes()
        u0 = np.exp(-((x - 3.0) ** 2))[None, :]
        model = burgers_jinxin(a, 1e-2, u0=u0[0])
        _, us = rx.solve_forward(model, grid, la.tableau("BDF3"), u0,
                                 int(round(1.0 / dt)), dt)
        mass = us[:, 0].sum(axis=-1) * grid.dx
        assert np.max(np.abs(mass - mass[0])) <= 1e-10 * abs(mass[0])

    def test_large_eps_pure_extrapolation(self):
        # relaxation weight -> 0: the update reduces to the multistep
        # combination of the characteristic-foot history
        grid = rx.LagrangianGrid(0.0, 1.0, 33)
        a = 1.0
        dt = grid.dx / a
        model = linear_jinxin(a, 1e30)
        x = grid.nodes()
        f0 = np.stack([np.sin(2 * np.pi * x), np.cos(2 * np.pi * x)])
        fld = rx.KineticField(model, grid, dt, la.tableau("BDF2"), f0=f0)
        step_forward(model, grid, fld)
        expect = np.stack([np.roll(f0[0], 1), np.roll(f0[1], -1)])
        assert np.max(np.abs(fld.current - expect)) <= 1e-15

    def test_batched_or_misshapen_initial_field_rejected(self):
        grid = rx.LagrangianGrid(0.0, 1.0, 17)
        model, tab = linear_jinxin(1.0, 1e-2), la.tableau("BDF2")
        M = grid.n_nodes
        for f0, match in [(np.zeros((1, 2, M)), "batch axes"),
                          (np.zeros((3, 2, M)), "batch axes"),
                          (np.zeros(M), "batch axes"),
                          (np.zeros((3, M)), "trailing shape"),
                          (np.zeros((2, M + 1)), "trailing shape")]:
            with pytest.raises(ValueError, match=match):
                rx.KineticField(model, grid, 0.05, tab, f0)
        fld = rx.KineticField(model, grid, 0.05, tab, [[0] * M, [1] * M])
        assert fld.current.dtype == np.float64

    def test_non_bdf_rejected(self):
        grid = rx.LagrangianGrid(0.0, 1.0, 17)
        model = linear_jinxin(1.0, 1e-2)
        with pytest.raises(la.ConfigError):
            rx.KineticField(model, grid, 0.05, la.tableau("AB2"),
                            np.zeros((2, grid.n_nodes)))

    def test_warm_field_steps_its_scheme(self):
        # a field built for BDF3 keeps three levels and, once warm, steps
        # BDF3 itself rather than a shallower start-up scheme
        grid = rx.LagrangianGrid(0.0, 6.0, 41)
        a = 2.1
        dt = grid.dx / a
        model = burgers_jinxin(a, 1e-2)
        tab = la.tableau("BDF3")
        x = grid.nodes()
        u0 = (0.5 + np.exp(-((x - 3.0) ** 2)))[None, :]
        fld = rx.KineticField(model, grid, dt, tab, model.equilibrium(u0))
        hist = [fld.current.copy()]  # the levels, kept apart from the ring
        for _ in range(6):
            step_forward(model, grid, fld)
            hist = [fld.current.copy()] + hist[:2]
        expect = reference_forward_step(model, grid, hist, dt, tab)[0]
        step_forward(model, grid, fld)
        assert np.array_equal(fld.current, expect)

    def test_broadwell_equilibrium_fixed_point(self):
        # rho = 1, m = 0 equilibrium data stays put (clamped boundaries)
        grid = rx.LagrangianGrid(-2.5, 2.5, 80, boundary="clamp")
        model = rx.make_broadwell(1.0, 1e-2)
        u0 = np.stack([np.ones(grid.n_nodes), np.zeros(grid.n_nodes)])
        _, us = rx.solve_forward(model, grid, la.tableau("BDF2"), u0, 20, 0.01)
        assert np.max(np.abs(us[-1] - u0)) <= 1e-10

    def test_blow_up_names_the_step(self):
        grid = rx.LagrangianGrid(0.0, 1.0, 17)
        model = linear_jinxin(1.0, 1e-2)
        u0 = np.ones((1, grid.n_nodes))
        u0[0, 4] = np.nan
        with pytest.raises(la.SolverError,
                           match=r"kinetic field at step 1\b") as err:
            rx.solve_forward(model, grid, la.tableau("BDF2"), u0, 3, 0.05)
        assert err.value.step_index == 1

    def test_linear_flux_translates_profile(self):
        # pure-transport figure configuration: the Gaussian arrives shifted
        grid = rx.LagrangianGrid(0.0, 6.0, 320)
        a = 2.1
        dt = grid.dx / a
        x = grid.nodes()
        u0 = np.exp(-((x - 3.0) ** 2))[None, :]
        model = linear_jinxin(a, 1e-2, u0=u0[0])
        n_steps = int(round(1.0 / dt))
        _, us = rx.solve_forward(model, grid, la.tableau("BDF3"), u0,
                                 n_steps, dt)
        # the macroscopic profile rides the relaxed flux speed F' = 1, not
        # the kinetic speed a; height is preserved to a few percent
        peak = x[np.argmax(us[-1][0])]
        assert abs(peak - (3.0 + n_steps * dt)) <= 3 * grid.dx
        assert abs(us[-1][0].max() - 1.0) <= 0.07

    def test_burgers_flux_steepens_profile(self):
        # nonlinear case: the right flank steepens toward a shock
        grid = rx.LagrangianGrid(0.0, 6.0, 640)
        a = 2.1
        dt = grid.dx / a
        x = grid.nodes()
        u0 = np.exp(-((x - 3.0) ** 2))[None, :]
        model = burgers_jinxin(a, 1e-2, u0=u0[0])
        n_steps = int(round(1.0 / dt))
        _, us = rx.solve_forward(model, grid, la.tableau("BDF3"), u0,
                                 n_steps, dt)
        g0 = np.max(np.abs(np.diff(u0[0]))) / grid.dx
        gT = np.max(np.abs(np.diff(us[-1][0]))) / grid.dx
        assert gT >= 1.5 * g0

    def test_interpolation_mode_runs_and_conserves(self):
        # non-aligned dt exercises linear foot interpolation; periodic sums
        # are still conserved because the interpolation weights sum to one
        grid = rx.LagrangianGrid(0.0, 6.0, 160)
        a = 2.1
        dt = 0.8 * grid.dx / a
        x = grid.nodes()
        u0 = np.exp(-((x - 3.0) ** 2))[None, :]
        model = burgers_jinxin(a, 1e-2, u0=u0[0])
        _, us = rx.solve_forward(model, grid, la.tableau("BDF2"), u0, 50, dt)
        mass = us[:, 0].sum(axis=-1) * grid.dx
        assert np.max(np.abs(mass - mass[0])) <= 1e-10 * abs(mass[0])


    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(nx=st.integers(5, 160), ratio=st.one_of(
               st.integers(1, 3).map(float),
               st.floats(0.05, 3.0, allow_nan=False)),
           order=st.integers(1, 6), eps=st.sampled_from([1e-6, 1e-2, 1.0]),
           flux=st.sampled_from(["linear", "burgers"]))
    def test_periodic_mass_conserved_to_roundoff(self, nx, ratio, order, eps,
                                                 flux):
        # aligned or fractional feet, any BDF order: every periodic level
        # keeps the initial mass up to a few ulps of the levels' magnitude
        grid = rx.LagrangianGrid(0.0, 6.0, nx)
        a = 2.1
        x = grid.nodes()
        u0 = (0.5 + np.exp(-((x - 3.0) ** 2)))[None, :]
        make = linear_jinxin if flux == "linear" else burgers_jinxin
        _, us = rx.solve_forward(make(a, eps), grid, la.tableau(f"BDF{order}"),
                                 u0, 12, ratio * grid.dx / a)
        mass = us[:, 0].sum(axis=-1)
        scale = np.abs(us).sum(axis=-1).max()
        assert np.max(np.abs(mass - mass[0])) <= 1e-14 * 12 * scale


class TestForwardStore:
    """``solve_forward(..., out=store)`` writes the conserved store into a
    caller's array, which a descent reuses across its forward solves."""

    @pytest.mark.parametrize("kind", ["jinxin", "broadwell"])
    def test_out_equals_a_fresh_store(self, kind):
        if kind == "jinxin":
            grid = rx.LagrangianGrid(0.0, 6.0, 41)
            model, dt = burgers_jinxin(2.1, 1e-2), 0.7 * grid.dx / 2.1
            x = grid.nodes()
            u0 = (0.5 + np.exp(-((x - 3.0) ** 2)))[None, :]
        else:
            grid = rx.LagrangianGrid(-2.5, 2.5, 41, boundary="clamp")
            model, dt = rx.make_broadwell(1.0, 1e-2), 0.7 * grid.dx
            x = grid.nodes()
            u0 = np.stack([1.0 + 0.3 * np.exp(-x ** 2),
                           0.2 * np.exp(-((x - 0.5) ** 2))])
        tab = la.tableau("BDF3")
        _, fresh = rx.solve_forward(model, grid, tab, u0, 9, dt)
        buf = np.full(fresh.shape, np.nan)  # stale contents are overwritten
        fld, store = rx.solve_forward(model, grid, tab, u0, 9, dt, out=buf)
        assert store is buf and fld.n == 9
        assert_bitwise(buf, fresh)

    @pytest.mark.parametrize("bad", ["levels", "dtype", "components"])
    def test_bad_out_rejected_before_any_step(self, monkeypatch, bad):
        grid = rx.LagrangianGrid(0.0, 6.0, 41)
        model = burgers_jinxin(2.1, 1e-2)
        u0 = np.ones((1, grid.n_nodes))
        shape = {"levels": (6, 1, 40), "dtype": (7, 1, 40),
                 "components": (7, 2, 40)}[bad]
        out = np.zeros(shape, np.float32 if bad == "dtype" else float)
        steps = []
        monkeypatch.setattr(rx, "forward_step", lambda *a, **k: steps.append(a))
        with pytest.raises(ValueError, match="out"):
            rx.solve_forward(model, grid, la.tableau("BDF2"), u0, 6,
                             grid.dx / 2.1, out=out)
        assert steps == []


class TestAdjoint:
    def test_equalization_one_step(self):
        # eps = 1e-8: after one backward step the per-velocity multipliers
        # collapse onto the common value
        grid = rx.LagrangianGrid(0.0, 6.0, 640)
        a = 1.0
        dt = grid.dx / a
        model = linear_jinxin(a, 1e-8)
        x = grid.nodes()
        lam_T = rx.terminal_multipliers(model,
                                        np.exp(-((x - 3.0) ** 2))[None, :])
        adj = rx.AdjointField(model, grid, dt, la.tableau("BDF2"), lam_T=lam_T)
        lam = rx.adjoint_step(model, grid, adj, zero_state_jac(model, grid))
        spread = np.max(np.abs(lam[0] - lam[1]))
        assert spread <= 1e-6 * np.max(np.abs(lam))

    def test_small_dt_interpolation_property(self):
        # eps > 0, dt -> 0: the update approaches the plain multistep
        # combination of the future multipliers at vanishing foot shifts
        # (-sum a_i lam^j(t_{n+i}, x), here the unshifted terminal level)
        grid = rx.LagrangianGrid(0.0, 1.0, 33)
        model = linear_jinxin(1.0, 1.0)
        x = grid.nodes()
        lam_T = np.stack([np.sin(2 * np.pi * x), np.cos(2 * np.pi * x)])
        devs = []
        for dt in (1e-5, 1e-7):
            adj = rx.AdjointField(model, grid, dt, la.tableau("BDF2"), lam_T)
            lam = rx.adjoint_step(model, grid, adj,
                                  zero_state_jac(model, grid))
            devs.append(np.max(np.abs(lam - lam_T)))
        assert devs[0] <= 1e-3
        assert devs[1] <= 1e-2 * devs[0] * 1.1  # deviation scales with dt

    def test_backward_transport(self):
        # small eps: p(0, x) approaches p_T(x + a T) for F(u) = u with a = 1
        grid = rx.LagrangianGrid(0.0, 6.0, 640)
        a = 1.0
        dt = grid.dx / a
        model = linear_jinxin(a, 1e-8)
        pT = lambda xx: np.exp(-((xx - 3.0) ** 2))
        n_steps = int(round(1.0 / dt))
        lam_T = rx.terminal_multipliers(model, pT(grid.nodes())[None, :])
        lam0 = rx.solve_adjoint(model, grid, la.tableau("BDF2"), None,
                                lam_T, n_steps, dt)
        ref = rx.transport_oracle(grid, pT, a, n_steps * dt)
        assert np.max(np.abs(lam0.sum(axis=0) - ref)) <= 2e-4

    def test_viscous_limit_second_order(self):
        # deep AP regime: the transport deviation decays at the BDF2 order
        a = 2.1
        model = linear_jinxin(a, 1e-10)
        pT = lambda xx: np.exp(-((xx - 3.0) ** 2))
        errs = []
        for nx in (160, 320, 640):
            grid = rx.LagrangianGrid(0.0, 6.0, nx)
            dt = grid.dx / a
            n_steps = int(round(1.0 / dt))
            errs.append(rx.viscous_limit_check(model, grid, la.tableau("BDF2"),
                                               pT, n_steps, dt)[1][0])
        rates = [np.log2(e0 / e1) for e0, e1 in zip(errs, errs[1:])]
        assert errs[-1] <= 3e-4
        assert min(rates) >= 1.8

    def test_viscous_limit_large_eps_deviates(self):
        # eps = 1: diffusion-dominated backward dynamics sit far from the
        # sharp transport solution
        grid = rx.LagrangianGrid(0.0, 6.0, 320)
        a = 2.1
        dt = grid.dx / a
        model = linear_jinxin(a, 1.0)
        pT = lambda xx: np.exp(-((xx - 3.0) ** 2))
        dev = rx.viscous_limit_check(model, grid, la.tableau("BDF2"), pT,
                                     int(round(1.0 / dt)), dt)[1][0]
        assert dev >= 0.05

    @pytest.mark.parametrize("scheme", ["BDF1", "BDF2", "BDF3"])
    def test_viscous_limit_batch_equals_members(self, scheme):
        # one sweep batched over eps gives every member the p(0) and the
        # deviation of a sweep of that member alone, bit for bit
        a, eps = 2.1, (1e-4, 1e-2, 1.0)
        grid = rx.LagrangianGrid(0.0, 6.0, 80)
        dt = grid.dx / a
        n_steps = int(round(1.0 / dt))
        tab = la.tableau(scheme)
        pT = lambda xx: np.exp(-((xx - 3.0) ** 2))
        batch = linear_jinxin(a, np.reshape(eps, (-1, 1, 1)))
        p0, dev = rx.viscous_limit_check(batch, grid, tab, pT, n_steps, dt)
        assert p0.shape == (len(eps), grid.n_nodes) and dev.shape == (len(eps),)
        for b, e in enumerate(eps):
            p_b, dev_b = rx.viscous_limit_check(linear_jinxin(a, e), grid, tab,
                                                pT, n_steps, dt)
            assert np.array_equal(p_b, p0[b:b + 1])
            assert np.array_equal(dev_b, dev[b:b + 1])

    def test_viscous_limit_references_replace_the_oracle(self):
        # a member with a reference of its own is measured against it
        a = 2.1
        grid = rx.LagrangianGrid(0.0, 6.0, 80)
        dt = grid.dx / a
        tab = la.tableau("BDF2")
        pT = lambda xx: np.exp(-((xx - 3.0) ** 2))
        model = linear_jinxin(a, np.reshape([1e-4, 1.0], (-1, 1, 1)))
        p0, dev = rx.viscous_limit_check(model, grid, tab, pT, 10, dt)
        p1, dev1 = rx.viscous_limit_check(model, grid, tab, pT, 10, dt,
                                          {1: p0[1]})
        assert np.array_equal(p1, p0)
        assert dev1[0] == dev[0] and dev1[1] == 0.0 < dev[1]

    def test_adjoint_requires_bdf(self):
        grid = rx.LagrangianGrid(0.0, 1.0, 17)
        model = linear_jinxin(1.0, 1e-2)
        for name in ("AM4", "AB2"):
            with pytest.raises(la.ConfigError):
                rx.AdjointField(model, grid, 0.05, la.tableau(name),
                                np.zeros((2, grid.n_nodes)))

    def test_viscous_limit_rejects_systems_before_sweeping(self, monkeypatch):
        # a Broadwell model must fail the scalar-model check before any step
        # runs (a sweep at the u = 0 dummy state would divide by rho = 0)
        calls = []
        monkeypatch.setattr(rx, "adjoint_step", lambda *args: calls.append(args))
        grid = rx.LagrangianGrid(-2.5, 2.5, 41, boundary="clamp")
        with pytest.raises(la.ConfigError, match="scalar"):
            rx.viscous_limit_check(rx.make_broadwell(1.0, 1e-2), grid,
                                   la.tableau("BDF2"),
                                   lambda x: np.exp(-x ** 2),
                                   int(round(0.5 / grid.dx)), grid.dx)
        assert calls == []

    def test_missing_forward_field_shape(self):
        grid = rx.LagrangianGrid(0.0, 1.0, 17)
        model = linear_jinxin(1.0, 1e-2)
        adj = rx.AdjointField(model, grid, 0.05, la.tableau("BDF2"),
                              np.zeros((2, grid.n_nodes)))
        for shape in [(2, 1, 3), (1, grid.n_nodes), (2, 2, grid.n_nodes)]:
            with pytest.raises(ValueError, match="Jacobian"):
                rx.adjoint_step(model, grid, adj, np.zeros(shape))

    def test_blow_up_names_the_step(self):
        # NaN terminal data: the first backward step cannot commit, and the
        # error says which step failed, as the forward sweep's does
        grid = rx.LagrangianGrid(0.0, 1.0, 17)
        model = linear_jinxin(1.0, 1e-2)
        lam_T = np.ones((2, grid.n_nodes))
        lam_T[0, 5] = np.nan
        with pytest.raises(la.SolverError, match=r"backward step 1\b") as err:
            rx.solve_adjoint(model, grid, la.tableau("BDF2"), None, lam_T,
                             4, 0.05)
        assert err.value.step_index == 1
        # a non-finite Jacobian shows up at the step that reads it
        x = grid.nodes()
        u_store = rx.solve_forward(model, grid, la.tableau("BDF2"),
                                   np.sin(2 * np.pi * x), 4, 0.05)[1]
        u_store[1, 0, 3] = np.inf
        burgers = burgers_jinxin(1.0, 1e-2)
        with pytest.raises(la.SolverError, match=r"backward step 3\b") as err:
            rx.solve_adjoint(burgers, grid, la.tableau("BDF2"), u_store,
                             np.ones((2, grid.n_nodes)), 4, 0.05)
        assert err.value.step_index == 3


def reference_combination(grid, speeds, history, dt, tab):
    """The history combination C = -sum_l a_l H_l(foot_l) from
    per-velocity ``sample_shifted`` calls, and h = dt b_-1, for the ramp
    entry of the history's length."""
    eff = tab if len(history) >= tab.s else la.tableau(f"bdf{len(history)}")
    C = np.zeros_like(history[0])
    for ell in range(eff.s):
        for j, vj in enumerate(speeds):
            shift = vj * (ell + 1) * dt / grid.dx
            C[j] -= eff.a[ell] * grid.sample_shifted(history[ell][j], shift)
    return C, dt * eff.b_implicit


def reference_forward_step(model, grid, history, dt, tab):
    """Forward step f = (1 - w) C + w E(Q C) and its C."""
    C, h = reference_combination(grid, model.velocities, history, dt, tab)
    w = h / (h + model.eps)
    return w * model.equilibrium(model.moments(C)) + (1.0 - w) * C, C


def reference_adjoint_step(model, grid, history, u_prev, dt, tab):
    """Adjoint step lam = eps/(eps + h) C + h/(eps + h) Q^T (J^T C), at the
    mirrored feet, and its C."""
    C, h = reference_combination(grid, -model.velocities, history, dt, tab)
    phi = np.einsum("jrm,jm->rm", model.equilibrium_jac(u_prev), C)
    return (model.eps / (model.eps + h) * C
            + h / (model.eps + h) * np.einsum("rj,rm->jm", model.q_matrix,
                                              phi)), C


def assert_steps_match_reference(model, grid, dt, tab, u0, n_steps, d=None):
    """Planned forward and adjoint steps, and their history combinations
    C, equal the references bit for bit, sign of zero included, through the
    order ramp and beyond.  The adjoint
    starts from the multipliers of ``d`` (default ``u0``), with the
    Jacobian at ``u0``."""
    fld = rx.KineticField(model, grid, dt, tab, model.equilibrium(u0))
    hist = [fld.current.copy()]
    for _ in range(n_steps):
        expect, C = reference_forward_step(model, grid, hist, dt, tab)
        step_forward(model, grid, fld)
        assert_bitwise(fld.comb, C)
        assert_bitwise(fld.current, expect)
        hist = [expect] + hist[:tab.s - 1]

    lam_T = rx.terminal_multipliers(model, u0 if d is None else d)
    adj = rx.AdjointField(model, grid, dt, tab, lam_T)
    hist = [adj.current.copy()]
    jac = model.equilibrium_jac(u0)
    for _ in range(n_steps):
        expect, C = reference_adjoint_step(model, grid, hist, u0, dt, tab)
        assert_bitwise(rx.adjoint_step(model, grid, adj, jac), expect)
        assert_bitwise(adj.comb, C)
        hist = [expect] + hist[:tab.s - 1]


# dt*a/dx: whole cells (aligned feet) or any fraction of up to three cells
foot_ratio = st.one_of(st.integers(1, 3).map(float),
                       st.floats(0.05, 3.0, allow_nan=False))


class TestFootPlan:
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(nx=st.integers(5, 90), ratio=foot_ratio, order=st.integers(1, 6))
    def test_periodic_jinxin_matches_sample_shifted(self, nx, ratio, order):
        # speeds (a, -a): feet of both signs, forward and adjoint
        grid = rx.LagrangianGrid(0.0, 6.0, nx)
        a = 2.1
        x = grid.nodes()
        u0 = (0.5 + np.exp(-((x - 3.0) ** 2)))[None, :]
        tab = la.tableau(f"BDF{order}")
        assert_steps_match_reference(burgers_jinxin(a, 1e-2), grid,
                                     ratio * grid.dx / a, tab, u0, order + 2)

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(nx=st.integers(5, 90), ratio=foot_ratio, order=st.integers(1, 6))
    def test_clamped_broadwell_matches_sample_shifted(self, nx, ratio, order):
        # speeds (c, -c, 0): the zero-speed row stays aligned while +-c
        # may be fractional, and feet past the walls are clamped
        grid = rx.LagrangianGrid(-2.5, 2.5, nx, boundary="clamp")
        c = 1.0
        x = grid.nodes()
        u0 = np.stack([1.0 + 0.3 * np.exp(-x ** 2),
                       0.2 * np.exp(-((x - 0.5) ** 2))])
        tab = la.tableau(f"BDF{order}")
        assert_steps_match_reference(rx.make_broadwell(c, 1e-2), grid,
                                     ratio * grid.dx / c, tab, u0, order + 2)

    def test_step_rejects_foreign_grid(self):
        # both steps refuse another grid and other velocities, and take a
        # model that differs from the field's in eps alone
        grid = rx.LagrangianGrid(0.0, 1.0, 17)
        model = linear_jinxin(1.0, 1e-2)
        tab, zeros = la.tableau("BDF2"), np.zeros((2, grid.n_nodes))
        fields_and_steps = (
            (rx.KineticField, step_forward),
            (rx.AdjointField, lambda m, g, adj: rx.adjoint_step(
                m, g, adj, zero_state_jac(m, g))),
        )
        for field, step in fields_and_steps:
            for m, g in ((model, rx.LagrangianGrid(0.0, 1.0, 17, "clamp")),
                         (model, rx.LagrangianGrid(0.0, 2.0, 17)),
                         (linear_jinxin(2.0, 1e-2), grid)):
                with pytest.raises(ValueError, match="grid or velocities"):
                    step(m, g, field(model, grid, 0.05, tab, zeros))
            out = step(linear_jinxin(1.0, 1.0), grid,
                       field(model, grid, 0.05, tab, zeros))
            assert out.shape[-1] == grid.n_nodes


@pytest.fixture(params=["take", "slices"])
def kernel(request, monkeypatch):
    """Force one ``FootPlan`` kernel on every level size: the feet are built
    afresh under a patched threshold and dropped again afterwards."""
    rx._feet.cache_clear()
    monkeypatch.setattr(rx, "_TAKE_MAX_ELEMENTS",
                        math.inf if request.param == "take" else 0)
    yield request.param
    rx._feet.cache_clear()


def level_data(shape, seed=0):
    """A random level whose rows hold a stretch of +0.0 and one of -0.0."""
    values = np.random.default_rng(seed).standard_normal(shape)
    M = shape[-1]
    values[..., M // 4:M // 2] = 0.0
    values[..., M // 2:3 * M // 4] = -0.0
    return values


def zero_region_case(kind, nx):
    """(model, grid, speed, u0, d): Jin-Xin Burgers (periodic) or Broadwell
    (clamped) data that is exactly zero off a box, u0 for the forward run
    and the Jacobian, d for the terminal multipliers (negative zeros)."""
    if kind == "jinxin":
        grid = rx.LagrangianGrid(0.0, 6.0, nx)
        x = grid.nodes()
        box = np.abs(x - 3.0) <= 1.0
        u0 = np.where(box, 1.0 + np.exp(-(x - 3.0) ** 2), 0.0)[None, :]
        return burgers_jinxin(2.1, 1e-2), grid, 2.1, u0, -u0
    grid = rx.LagrangianGrid(-2.5, 2.5, nx, boundary="clamp")
    x = grid.nodes()
    box = np.abs(x) <= 1.0
    m = np.where(box, np.sin(np.pi * x), 0.0)
    u0 = np.stack([1.0 + 0.3 * box, m])
    return rx.make_broadwell(1.0, 1e-2), grid, 1.0, u0, np.stack([-m, m])


class TestFootPlanKernels:
    """``FootPlan.scaled`` picks a flat ``take`` or row slices by level
    size; each kernel, forced on the same data, gives coef x
    ``sample_shifted`` bit for bit, sign of zero included."""

    @pytest.mark.parametrize("batch", [(), (2, 3)])
    @pytest.mark.parametrize("ratio", [1.0, 2.0, 0.7, 2.3])
    @pytest.mark.parametrize("boundary, nx", [
        ("periodic", 5), ("periodic", 41), ("clamp", 5), ("clamp", 41)])
    def test_scaled_matches_sample_shifted(self, kernel, boundary, nx, ratio,
                                           batch):
        # on nx = 5 the deepest feet (up to 6.9 cells) pass a whole period
        # or wall; Broadwell's zero speed stays aligned in fractional levels
        grid = rx.LagrangianGrid(-2.5, 2.5, nx, boundary)
        speeds = np.array([2.1, -2.1] if boundary == "periodic"
                          else [1.0, -1.0, 0.0])
        dt = ratio * grid.dx / speeds[0]
        tab = la.tableau("BDF3")
        plan = rx.FootPlan(grid, speeds, dt, tab.s, batch)
        assert isinstance(plan.levels[0][0], np.ndarray) == (kernel == "take")
        values = level_data(batch + (speeds.size, grid.n_nodes))
        out = np.empty_like(values)
        for ell, coef in enumerate(tab.a):
            expect = np.stack([
                coef * grid.sample_shifted(values[..., j, :],
                                           vj * (ell + 1) * dt / grid.dx)
                for j, vj in enumerate(speeds)], axis=-2)
            assert plan.scaled(ell, coef, values, out) is out
            assert_bitwise(out, expect)

    @pytest.mark.parametrize("ratio", [1.0, 0.7])
    @pytest.mark.parametrize("kind", ["jinxin", "broadwell"])
    def test_steps_match_reference_on_zero_regions(self, kernel, kind, ratio):
        model, grid, speed, u0, d = zero_region_case(kind, 33)
        assert_steps_match_reference(model, grid, ratio * grid.dx / speed,
                                     la.tableau("BDF3"), u0, 5, d)

    @pytest.mark.parametrize("above", [False, True], ids=["take", "slices"])
    @pytest.mark.parametrize("kind", ["jinxin", "broadwell"])
    @settings(max_examples=6, deadline=None, derandomize=True)
    @given(offset=st.integers(0, 64), ratio=foot_ratio,
           order=st.integers(1, 6))
    def test_steps_match_reference_across_the_threshold(self, kind, above,
                                                        offset, ratio, order):
        # levels of a few elements more or fewer than _TAKE_MAX_ELEMENTS
        Nv = 2 if kind == "jinxin" else 3
        M = rx._TAKE_MAX_ELEMENTS // Nv + (1 + offset if above else -offset)
        model, grid, speed, u0, d = zero_region_case(
            kind, M + 1 if kind == "jinxin" else M)
        assert grid.n_nodes == M
        dt = ratio * grid.dx / speed
        tab = la.tableau(f"BDF{order}")
        plan = rx.FootPlan(grid, model.velocities, dt, tab.s)
        assert isinstance(plan.levels[0][0], np.ndarray) != above
        assert_steps_match_reference(model, grid, dt, tab, u0, order + 2, d)


def terminal_batch(x, n, B):
    """Terminal data (B, n, M): a box (exact zeros), its negative (negative
    zeros) and smooth bumps, cycled over members and components."""
    mid, half = 0.5 * (x[0] + x[-1]), 0.2 * (x[-1] - x[0])
    box = np.where(np.abs(x - mid) <= half, 1.0, 0.0)
    bump = np.exp(-((x - x[len(x) // 3]) ** 2))
    shapes = [box, -box, bump, box - 0.5 * bump]
    return np.stack([np.stack([shapes[(b + r) % 4] for r in range(n)])
                     for b in range(B)])


def assert_batch_matches_members(make_model, eps, grid, tab, u_store, d,
                                 n_steps, dt):
    """One sweep batched over the members of ``eps`` and ``d`` equals the
    members' own unbatched sweeps, sign of zero included."""
    eps = np.asarray(eps, dtype=float)
    model = make_model(eps.reshape(eps.shape + (1, 1)))
    batched = rx.solve_adjoint(model, grid, tab, u_store,
                               rx.terminal_multipliers(model, d), n_steps, dt)
    members = []
    for e, d_b in zip(eps.ravel(), d.reshape((-1,) + d.shape[-2:])):
        member = make_model(float(e))
        members.append(rx.solve_adjoint(
            member, grid, tab, u_store, rx.terminal_multipliers(member, d_b),
            n_steps, dt))
    assert batched.shape == eps.shape + (model.n_velocities, grid.n_nodes)
    assert_bitwise(batched, np.reshape(members, batched.shape))


member_eps = st.lists(st.sampled_from([1e-4, 1e-2, 0.3, 1.0, 4.0]),
                      min_size=1, max_size=4)


class TestBatchedAdjoint:
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(nx=st.integers(5, 60), ratio=foot_ratio, order=st.integers(1, 6),
           flux=st.sampled_from(["linear", "burgers"]), eps=member_eps)
    def test_periodic_jinxin(self, nx, ratio, order, flux, eps):
        # speeds (a, -a): feet of both signs; the linear flux sweeps without
        # a store (one Jacobian per sweep), Burgers with one
        grid = rx.LagrangianGrid(0.0, 6.0, nx)
        a = 2.1
        dt = ratio * grid.dx / a
        tab = la.tableau(f"BDF{order}")
        n_steps = order + 3
        x = grid.nodes()
        make = linear_jinxin if flux == "linear" else burgers_jinxin
        u_store = None
        if flux == "burgers":
            u0 = (0.5 + np.exp(-((x - 3.0) ** 2)))[None, :]
            u_store = rx.solve_forward(make(a, 1e-2), grid, tab, u0,
                                       n_steps, dt)[1]
        assert_batch_matches_members(lambda e: make(a, e), eps, grid, tab,
                                     u_store, terminal_batch(x, 1, len(eps)),
                                     n_steps, dt)

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(nx=st.integers(5, 60), ratio=foot_ratio, order=st.integers(1, 6),
           eps=member_eps)
    def test_clamped_broadwell(self, nx, ratio, order, eps):
        # speeds (c, -c, 0) on a clamped grid, against a forward store
        grid = rx.LagrangianGrid(-2.5, 2.5, nx, boundary="clamp")
        c = 1.0
        dt = ratio * grid.dx / c
        tab = la.tableau(f"BDF{order}")
        n_steps = order + 2
        x = grid.nodes()
        u0 = np.stack([1.0 + 0.3 * np.exp(-x ** 2),
                       0.2 * np.exp(-((x - 0.5) ** 2))])
        u_store = rx.solve_forward(rx.make_broadwell(c, 1e-2), grid, tab, u0,
                                   n_steps, dt)[1]
        assert_batch_matches_members(lambda e: rx.make_broadwell(c, e), eps,
                                     grid, tab, u_store,
                                     terminal_batch(x, 2, len(eps)),
                                     n_steps, dt)

    @pytest.mark.parametrize("boundary", ["periodic", "clamp"])
    def test_two_batch_axes(self, boundary):
        grid = rx.LagrangianGrid(-2.5, 2.5, 33, boundary=boundary)
        x = grid.nodes()
        tab = la.tableau("BDF3")
        dt = 0.6 * grid.dx
        u0 = np.stack([1.0 + 0.3 * np.exp(-x ** 2), 0.2 * np.exp(-x ** 2)])
        u_store = rx.solve_forward(rx.make_broadwell(1.0, 1e-2), grid, tab,
                                   u0, 7, dt)[1]
        eps = np.array([[1e-3, 0.1, 2.0], [1.0, 1e-2, 0.5]])
        d = terminal_batch(x, 2, 6).reshape(2, 3, 2, -1)
        assert_batch_matches_members(lambda e: rx.make_broadwell(1.0, e),
                                     eps, grid, tab, u_store, d, 7, dt)

    def test_terminal_trailing_shape_rejected(self):
        grid = rx.LagrangianGrid(0.0, 1.0, 17)
        model = linear_jinxin(1.0, 1e-2)
        M = grid.n_nodes
        tab = la.tableau("BDF2")
        rx.AdjointField(model, grid, 0.05, tab, np.zeros((3, 2, M)))
        for shape in [(3, 2, M + 1), (2, 3, M), (3, M), (M,)]:
            with pytest.raises(ValueError):
                rx.AdjointField(model, grid, 0.05, tab, np.zeros(shape))
            with pytest.raises(ValueError):
                rx.solve_adjoint(model, grid, la.tableau("BDF2"), None,
                                 np.zeros(shape), 3, 0.05)

    def test_array_eps_must_be_positive(self):
        for eps in ([0.1, 0.0], [[1.0], [-1e-3]]):
            with pytest.raises(la.ConfigError):
                linear_jinxin(1.0, np.array(eps))


def counting_jacobian(model, calls):
    """``model`` whose ``equilibrium_jac`` appends each u's shape to calls."""
    def equilibrium_jac(u, out=None):
        calls.append(u.shape)
        return model.equilibrium_jac(u, out=out)
    return dataclasses.replace(model, equilibrium_jac=equilibrium_jac)


class TestFrozenJacobian:
    """Without a forward store the u-independent Jacobian is evaluated once
    per sweep and reused by every step."""

    def test_one_evaluation_per_sweep(self):
        grid = rx.LagrangianGrid(0.0, 6.0, 41)
        a = 2.1
        dt = 0.7 * grid.dx / a
        calls = []
        base = counting_jacobian(linear_jinxin(a, 1e-2), calls)
        x = grid.nodes()
        tab = la.tableau("BDF3")
        for batch in ((), (3,)):
            model = dataclasses.replace(
                base, eps=np.full(batch + (1, 1), 1e-2) if batch else 1e-2)
            d = np.broadcast_to(np.exp(-((x - 3.0) ** 2)), batch + (1, x.size))
            lam_T = rx.terminal_multipliers(model, d)
            calls.clear()
            lam0 = rx.solve_adjoint(model, grid, tab, None, lam_T, 12, dt)
            assert calls == [(1, grid.n_nodes)]

            # the Jacobian evaluated at u = 0 anew for every step
            adj = rx.AdjointField(model, grid, dt, tab, lam_T)
            for _ in range(12):
                rx.adjoint_step(model, grid, adj, zero_state_jac(model, grid))
            assert len(calls) == 13
            assert np.array_equal(lam0, adj.current)
            assert np.array_equal(np.signbit(lam0), np.signbit(adj.current))


def per_level_sweep(model, grid, tab, u_store, lam_T, n_steps, dt):
    """The adjoint sweep with one ``equilibrium_jac`` call per step, as
    ``solve_adjoint`` ran before it evaluated blocks of levels."""
    adj = rx.AdjointField(model, grid, dt, tab, lam_T)
    jac = np.empty((model.n_velocities, model.n_conserved, grid.n_nodes))
    for k in range(n_steps, 0, -1):          # computes level k-1
        model.equilibrium_jac(u_store[k - 1], out=jac)
        rx.adjoint_step(model, grid, adj, jac)
    return adj.current


def blocked_jacobian_case(kind, order, n_steps=11, eps=(1e-2, 0.3, 4.0)):
    """Model batched over ``eps``, grid, tableau, forward store and terminal
    multipliers (exact and negative zeros included) of a fractional-foot
    Jin-Xin Burgers (periodic) or Broadwell (clamped) sweep."""
    tab = la.tableau(f"BDF{order}")
    eps = np.reshape(eps, (-1, 1, 1))
    if kind == "jin-xin":
        grid = rx.LagrangianGrid(0.0, 6.0, 41)
        x = grid.nodes()
        u0 = (0.5 + np.exp(-((x - 3.0) ** 2)))[None, :]
        make, dt = (lambda e: burgers_jinxin(2.1, e)), 0.7 * grid.dx / 2.1
    else:
        grid = rx.LagrangianGrid(-2.5, 2.5, 33, boundary="clamp")
        x = grid.nodes()
        u0 = np.stack([1.0 + 0.3 * np.exp(-x ** 2),
                       0.2 * np.exp(-((x - 0.5) ** 2))])
        make, dt = (lambda e: rx.make_broadwell(1.0, e)), 0.6 * grid.dx
    u_store = rx.solve_forward(make(1e-2), grid, tab, u0, n_steps, dt)[1]
    model = make(eps)
    lam_T = rx.terminal_multipliers(
        model, terminal_batch(x, model.n_conserved, eps.shape[0]))
    return model, grid, tab, u_store, lam_T, dt


class TestBlockedJacobians:
    """``solve_adjoint`` evaluates the Jacobians of a block of stored levels
    in one call and steps on them: the sweep equals the per-level sweep bit
    for bit, and the block stays within ``_JAC_BLOCK_NODES``."""

    @pytest.mark.parametrize("kind", ["jin-xin", "broadwell"])
    @pytest.mark.parametrize("order", [1, 2, 3])
    def test_blocked_sweep_equals_per_level_sweep(self, kind, order,
                                                  monkeypatch):
        n_steps = 11
        model, grid, tab, u_store, lam_T, dt = blocked_jacobian_case(
            kind, order, n_steps)
        M = grid.n_nodes
        expect = per_level_sweep(model, grid, tab, u_store, lam_T, n_steps,
                                 dt)
        # blocks of 1, 2, 3, 4 and 10 levels straddle the 11 steps; 11 and
        # 12 levels make one block, M // 2 spare nodes round down, and a
        # grid wider than the block still takes one level per call
        for nodes, sizes in ((M - 1, [1] * 11), (M, [1] * 11),
                             (2 * M, [2] * 5 + [1]),
                             (3 * M + M // 2, [3, 3, 3, 2]),
                             (4 * M, [4, 4, 3]), (10 * M, [10, 1]),
                             (11 * M, [11]), (12 * M, [11])):
            monkeypatch.setattr(rx, "_JAC_BLOCK_NODES", nodes)
            calls = []
            got = rx.solve_adjoint(counting_jacobian(model, calls), grid, tab,
                                   u_store, lam_T, n_steps, dt)
            assert np.array_equal(got, expect)
            assert np.array_equal(np.signbit(got), np.signbit(expect))
            assert calls == [(model.n_conserved, K, M) for K in sizes]

    def test_jacobian_buffer_bounded_by_the_block(self, monkeypatch):
        # peak traced memory of a 200-step Broadwell sweep, in rows of M
        # doubles: the field's arrays (26 rows) and the step's temporaries
        # take under 48; a block of K levels adds its K * Nv * n Jacobian
        # rows and the model's temporaries, 2 rows per level
        grid = rx.LagrangianGrid(-2.5, 2.5, 1001, boundary="clamp")
        x = grid.nodes()
        M, n_steps = grid.n_nodes, 200
        model = rx.make_broadwell(1.0, 1e-2)
        u_store = np.empty((n_steps + 1, 2, M))
        u_store[:, 0], u_store[:, 1] = 1.0 + 0.3 * np.exp(-x ** 2), 0.1
        lam_T = rx.terminal_multipliers(model, np.ones((2, M)))
        tab, dt = la.tableau("BDF3"), 0.6 * grid.dx
        sweep = lambda: rx.solve_adjoint(model, grid, tab, u_store, lam_T,
                                         n_steps, dt)
        sweep()                               # the feet, cached untraced
        peaks = {}
        for K in (4, 16):
            monkeypatch.setattr(rx, "_JAC_BLOCK_NODES", K * M)
            peaks[K] = traced_peak_rows(sweep, M)
            assert peaks[K] <= 48 + K * (3 * 2 + 2), peaks
        # one block for the whole sweep would take 1200 Jacobian rows
        assert peaks[4] < peaks[16] < 200, peaks

    def test_short_or_misshapen_store_rejected(self, monkeypatch):
        # a store must hold n_steps levels of (n, M): a block slice would
        # silently truncate a short one, and a 1-level remainder would
        # broadcast; the sweep refuses both before it steps
        model, grid, tab, u_store, lam_T, dt = blocked_jacobian_case(
            "broadwell", 2, 6)
        steps = []
        monkeypatch.setattr(rx, "adjoint_step", lambda *a: steps.append(a))
        M = grid.n_nodes
        for store in (u_store[:5], u_store[:, :, :M - 1], u_store[:, :1],
                      u_store[:, 0], np.ones((7, 1, 2, M))):
            with pytest.raises(ValueError, match="u_store"):
                rx.solve_adjoint(model, grid, tab, store, lam_T, 6, dt)
        assert steps == []
        rx.solve_adjoint(model, grid, tab, u_store[:6], lam_T, 6, dt)
        assert len(steps) == 6


class TestFeetCache:
    """Plans of equal grid, speeds, dt, depth and batch share their feet."""

    @staticmethod
    def field(grid=None, dt=0.07, tab="BDF3", speeds=1.0, batch=(),
              kind=rx.KineticField):
        grid = grid or rx.LagrangianGrid(-2.5, 2.5, 33, boundary="clamp")
        model = rx.make_broadwell(speeds, 1e-2)
        return kind(model, grid, dt, la.tableau(tab),
                    np.zeros(batch + (3, grid.n_nodes)))

    def test_equal_keys_share_read_only_feet(self):
        for boundary in ("clamp", "periodic"):
            # equal, not identical, grids
            a, b = (self.field(rx.LagrangianGrid(-2.5, 2.5, 33, boundary))
                    for _ in range(2))
            assert a.plan.levels is b.plan.levels
            assert not np.shares_memory(a.plan._work, b.plan._work)
            for level, own in zip(a.plan.levels, a.plan._feet):
                lo, hi, weights = level
                assert weights is not None    # 0.07 / dx is fractional
                # 3 x 32 nodes: flat indices on either boundary, which the
                # plan gathers through writeable views of its own
                for arr, view in zip((lo, hi), own):
                    assert isinstance(arr, np.ndarray)
                    assert view.flags.writeable and view.base is arr.base
                for arr in (lo, hi, *weights):
                    with pytest.raises(ValueError, match="read-only"):
                        arr[(0,) * arr.ndim] = 1

    @pytest.mark.parametrize("dt", [1e-4, 4e-5], ids=["aligned", "fractional"])
    def test_wide_periodic_plan_keeps_no_index_per_node(self, dt):
        # a relax-wide level (nx = 40961) keeps slice pairs per row: the
        # cached feet hold no array that grows with the grid
        grid = rx.LagrangianGrid(-3.0, 3.0, 40961, "periodic")
        a = grid.dx / 1e-4
        fld = rx.KineticField(burgers_jinxin(a, 1e-2), grid, dt,
                              la.tableau("BDF3"), np.zeros((2, grid.n_nodes)))
        for lo, hi, weights in fld.plan.levels:
            assert isinstance(lo, tuple) and isinstance(hi, tuple)
            assert all(isinstance(w, float)
                       for row in weights or () for w in row)

    def test_any_key_change_gives_other_feet(self):
        feet = self.field().plan.levels
        grid = rx.LagrangianGrid(-2.5, 2.5, 33, boundary="clamp")
        assert self.field(grid).plan.levels is feet
        others = [
            self.field(dt=0.08),
            self.field(rx.LagrangianGrid(-2.5, 2.5, 33, "periodic")),
            self.field(rx.LagrangianGrid(-2.5, 2.5, 35, "clamp")),
            self.field(kind=rx.AdjointField),           # speeds of -v
            self.field(batch=(2,), kind=rx.AdjointField),
            self.field(tab="BDF2"),                     # depth
            self.field(speeds=1.5),
        ]
        assert all(o.plan.levels is not feet for o in others)
        assert len({id(o.plan.levels) for o in others}) == len(others)

    def test_cache_is_small(self):
        assert rx._feet.cache_info().maxsize <= 16


def traced_peak_rows(step, M, slack=0):
    """Peak bytes traced while ``step()`` runs, less ``slack`` bytes, in
    grid rows of 8 M bytes."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        step()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return (peak - base - slack) / (8 * M)


def warm_step_rows(model, grid, dt, u0, slack=0):
    """Peak rows of one warm BDF3 forward step and one warm adjoint step
    (with ``out`` and the Jacobian, as the sweeps call them), less
    ``slack`` bytes."""
    tab = la.tableau("BDF3")
    fld = rx.KineticField(model, grid, dt, tab, model.equilibrium(u0))
    adj = rx.AdjointField(model, grid, dt, tab,
                          rx.terminal_multipliers(model, u0))
    u_out = np.empty_like(u0)
    jac = model.equilibrium_jac(u0)
    for _ in range(tab.s + 1):  # fill both rings
        rx.forward_step(model, grid, fld, out=u_out)
        rx.adjoint_step(model, grid, adj, jac)
    M = grid.n_nodes
    return (traced_peak_rows(
                lambda: rx.forward_step(model, grid, fld, out=u_out), M,
                slack),
            traced_peak_rows(
                lambda: rx.adjoint_step(model, grid, adj, jac), M, slack))


# Bytes a warm step allocates whatever the grid size (array headers, ufunc
# iterators, scalars): about 1.4 KB.  On small grids that is more than a
# row, so the small-grid bounds leave 1 KB of it out; an index array that
# take copied would still show.
STEP_OVERHEAD_BYTES = 1024


class TestStepAllocations:
    """Warm steps run in their field's buffers: NumPy reports its buffers to
    tracemalloc, and what a step still allocates is the isfinite mask and,
    forward, the model's own temporaries (Burgers' 0.5*u*u takes one row);
    the adjoint step takes its Jacobian evaluated."""

    @pytest.mark.parametrize("ratio", [1.0, 0.7])
    def test_jinxin_burgers(self, ratio):
        grid = rx.LagrangianGrid(0.0, 6.0, 4098)
        a = 2.1
        x = grid.nodes()
        u0 = (0.5 + np.exp(-((x - 3.0) ** 2)))[None, :]
        fwd, bwd = warm_step_rows(burgers_jinxin(a, 1e-2), grid,
                                  ratio * grid.dx / a, u0)
        assert fwd <= 2 and bwd <= 1, (fwd, bwd)

    @pytest.mark.parametrize("ratio", [1.0, 0.7])
    def test_clamped_broadwell(self, ratio):
        grid = rx.LagrangianGrid(-2.5, 2.5, 4097, boundary="clamp")
        x = grid.nodes()
        u0 = np.stack([1.0 + 0.3 * np.exp(-x ** 2),
                       0.2 * np.exp(-((x - 0.5) ** 2))])
        fwd, bwd = warm_step_rows(rx.make_broadwell(1.0, 1e-2), grid,
                                  ratio * grid.dx, u0)
        assert fwd <= 8 and bwd <= 1, (fwd, bwd)

    @pytest.mark.parametrize("ratio", [1.0, 0.7])
    def test_jinxin_burgers_below_take_threshold(self, ratio):
        # nx = 121 and 321 gather each level with one take, through the
        # plan's writeable views of the cached indices; a copied index
        # would add Nv rows at the moment of the take
        grid = rx.LagrangianGrid(0.0, 6.0, 121)
        assert 2 * grid.n_nodes <= rx._TAKE_MAX_ELEMENTS
        a = 2.1
        x = grid.nodes()
        u0 = (0.5 + np.exp(-((x - 3.0) ** 2)))[None, :]
        fwd, bwd = warm_step_rows(burgers_jinxin(a, 1e-2), grid,
                                  ratio * grid.dx / a, u0,
                                  STEP_OVERHEAD_BYTES)
        assert fwd <= 2 and bwd <= 1, (fwd, bwd)

    @pytest.mark.parametrize("ratio", [1.0, 0.7])
    def test_clamped_broadwell_below_take_threshold(self, ratio):
        grid = rx.LagrangianGrid(-2.5, 2.5, 321, boundary="clamp")
        assert 3 * grid.n_nodes <= rx._TAKE_MAX_ELEMENTS
        x = grid.nodes()
        u0 = np.stack([1.0 + 0.3 * np.exp(-x ** 2),
                       0.2 * np.exp(-((x - 0.5) ** 2))])
        fwd, bwd = warm_step_rows(rx.make_broadwell(1.0, 1e-2), grid,
                                  ratio * grid.dx, u0, STEP_OVERHEAD_BYTES)
        assert fwd <= 8 and bwd <= 1, (fwd, bwd)

    def test_batched_adjoint_with_array_eps(self):
        # an eps of shape (B, 1, 1) multiplies through the field's
        # level-shaped weights, so a warm batched step allocates no
        # level-sized broadcast buffer: only what its isfinite check
        # allocates (the mask and the reduction over it) plus overhead
        B = 5
        grid = rx.LagrangianGrid(0.0, 6.0, 642)
        a = 2.0
        eps = np.array([1e-4, 1e-3, 1e-2, 0.1, 1.0]).reshape(B, 1, 1)
        model = linear_jinxin(a, eps)
        x = grid.nodes()
        lam_T = rx.terminal_multipliers(
            model, np.exp(-((x - 3.0) ** 2)) * np.ones((B, 1, 1)))
        tab = la.tableau("BDF3")
        adj = rx.AdjointField(model, grid, grid.dx / a, tab, lam_T)
        jac = zero_state_jac(model, grid)
        for _ in range(tab.s + 1):
            rx.adjoint_step(model, grid, adj, jac)
        M = grid.n_nodes
        check = traced_peak_rows(lambda: np.isfinite(lam_T).all(), M)
        step = traced_peak_rows(lambda: rx.adjoint_step(model, grid, adj, jac),
                                M, STEP_OVERHEAD_BYTES)
        assert step <= check < 2, (step, check)

    def test_ring_recycles_evicted_levels(self):
        # once warm, a new level lands in the array of the level it evicts
        grid = rx.LagrangianGrid(0.0, 6.0, 65)
        model = burgers_jinxin(2.1, 1e-2)
        x = grid.nodes()
        u0 = (0.5 + np.exp(-((x - 3.0) ** 2)))[None, :]
        tab = la.tableau("BDF2")
        fld = rx.KineticField(model, grid, grid.dx / 2.1, tab,
                              model.equilibrium(u0))
        step_forward(model, grid, fld)
        for _ in range(3):
            oldest = fld.history[-1]
            step_forward(model, grid, fld)
            assert fld.current is oldest and len(fld.history) == tab.s
        assert fld.n == 4
