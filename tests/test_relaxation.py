"""Semi-Lagrangian relaxation solver: models, forward, adjoint, oracles."""

import contextlib
import dataclasses
import math
import os
import pathlib
import re
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import lmm_adjoint as la
from lmm_adjoint import control as ct
from lmm_adjoint import relaxation as rx
from lmm_adjoint.config import parse_config
from lmm_adjoint.experiments import _eps_sweep, run_control, run_relax_adjoint


def linear_jinxin(a, eps):
    return rx.make_jin_xin(*rx.JIN_XIN_FLUXES["linear"], a, eps)


def burgers_jinxin(a, eps):
    return rx.make_jin_xin(*rx.JIN_XIN_FLUXES["burgers"], a, eps)


def zero_state_jac(model, grid):
    """Equilibrium Jacobian (Nv, n, M) at the state u = 0."""
    return model.equilibrium_jac(np.zeros((model.n_conserved, grid.n_nodes)))


def transport_deviation(grid, p0, pT, T):
    """Each member's L2 deviation sqrt(dx sum (p - ref)^2) of the eps
    study's p(0) (B, M) from the transport oracle at speed F'(0) = 1 (the
    linear flux) and horizon T, shape (B,)."""
    ref = rx.transport_oracle(grid, pT, 1.0, T)
    return np.sqrt(grid.dx * np.sum((p0 - ref) ** 2, axis=-1))


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

    def test_broadwell_lift_names_step_0(self):
        # initial data with rho < 0 fails in the lift f0 = E(u0), before
        # any step: the lift is step 0
        grid = rx.LagrangianGrid(0.0, 1.0, 17)
        u0 = np.stack([np.ones(grid.n_nodes), np.zeros(grid.n_nodes)])
        u0[0, 5] = -0.25
        with pytest.raises(la.SolverError, match=r"rho <= 0 at step 0$") as err:
            rx.solve_forward(rx.make_broadwell(1.0, 1e-2), grid,
                             la.tableau("BDF2"), u0, 4, grid.dx)
        assert err.value.step_index == 0

    @pytest.mark.parametrize("rho", [
        [], [np.nan], [np.nan, -1.0], [np.nan, 2.0], [-0.0, 1.0], [1.0, 2.0],
        [[1.0, np.nan], [0.5, 0.0]], [[1.0, np.nan], [0.5, 3.0]],
        np.empty((0, 4)),
    ], ids=["empty", "nan", "nan-negative", "nan-positive", "negative-zero",
            "positive", "block-zero", "block-nan", "empty-stack"])
    def test_broadwell_guard_decides_as_any(self, rho):
        # the guard refuses exactly the rho that np.any(rho <= 0) refuses:
        # NaN passes, -0.0 does not; on a level (2, M) and on a stack of
        # levels (K, 2, M), and silently
        m = rx.make_broadwell(1.0, 1e-2)
        rho = np.atleast_2d(np.array(rho, dtype=float))
        refuses = bool(np.any(rho <= 0))
        stack = np.stack([rho, np.full_like(rho, 0.5)], axis=1)  # (K, 2, M)
        for u in (stack.transpose(1, 0, 2).reshape(2, -1), stack):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                if refuses:
                    with pytest.raises(la.SolverError, match="rho <= 0"):
                        m.equilibrium(u)
                else:
                    E = m.equilibrium(u)
                    assert E.shape == u.shape[:-2] + (3, u.shape[-1])

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


class TestModelLayout:
    """A model's maps act on the trailing (n, M) axes and take any leading
    axes: on a stack of states they equal the per-slice calls bit for bit,
    sign of zero included, with and without ``out``."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(kind=st.sampled_from(["linear", "burgers", "broadwell"]),
           lead=st.lists(st.integers(1, 4), max_size=2).map(tuple),
           M=st.integers(1, 40), seed=st.integers(0, 2 ** 32 - 1),
           zeros=st.floats(0.0, 0.5))
    def test_stack_equals_slices(self, kind, lead, M, seed, zeros):
        rng = np.random.default_rng(seed)
        if kind == "broadwell":
            model = rx.make_broadwell(1.3, 1e-2)
            u = rng.standard_normal(lead + (2, M))
            u[..., 0, :] = 0.2 + 3.0 * rng.random(lead + (M,))  # rho > 0
            rows = u[..., 1, :]
        else:
            model = rx.make_jin_xin(*rx.JIN_XIN_FLUXES[kind], 2.1, 1e-2)
            u = 3.0 * rng.standard_normal(lead + (1, M))
            rows = u[..., 0, :]
        # exact zeros of either sign in the rows that may hold them
        rows[rng.random(rows.shape) < zeros] = 0.0
        rows *= np.where(rng.random(rows.shape) < 0.5, -1.0, 1.0)
        Nv, n = model.n_velocities, model.n_conserved
        for fn, shape in ((model.equilibrium, (Nv, M)),
                          (model.equilibrium_jac, (Nv, n, M))):
            out = np.empty(lead + shape)
            assert fn(u, out=out) is out
            stacked = fn(u)
            for idx in np.ndindex(lead):
                ref = fn(u[idx])
                assert_bitwise(stacked[idx], ref)
                assert_bitwise(out[idx], ref)


# entries of the contraction properties: signed zeros, subnormals,
# infinities, NaN and huge values, whose products overflow
CONTRACTION_ENTRIES = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-310, np.inf, -np.inf,
                     np.nan, 1e200, -1e200]),
    st.floats(-1e3, 1e3))


def draw_array(data, shape):
    return np.array(data.draw(st.lists(CONTRACTION_ENTRIES,
                                       min_size=math.prod(shape),
                                       max_size=math.prod(shape)))
                    ).reshape(shape)


class TestContractions:
    """The models' Q-contractions give the bits of the ``np.einsum``
    expressions of u = Q f and Q^T (J^T C), and never warn, as einsum
    does not: unbatched and batched over an array eps, and with a Jacobian
    viewed out of a planar block, as ``solve_adjoint`` hands it to the
    step."""

    @staticmethod
    def model(kind, eps):
        if kind == "broadwell":
            return rx.make_broadwell(1.3, eps)
        return rx.make_jin_xin(*rx.JIN_XIN_FLUXES[kind], 2.1, eps)

    @settings(max_examples=150, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.too_slow])
    @given(kind=st.sampled_from(["linear", "burgers", "broadwell"]),
           B=st.sampled_from([None, 1, 3]), M=st.integers(1, 6),
           planar=st.booleans(), data=st.data())
    def test_maps_equal_einsum_bits_and_stay_quiet(self, kind, B, M,
                                                   planar, data):
        lead = () if B is None else (B,)
        eps = 1e-2 if B is None else np.geomspace(1e-3, 1.0, B).reshape(
            B, 1, 1)
        model = self.model(kind, eps)
        q, Nv, n = model.q_matrix, model.n_velocities, model.n_conserved
        f = draw_array(data, (Nv, M))
        C = draw_array(data, lead + (Nv, M))
        jac = draw_array(data, (Nv, n, M))
        if planar:          # level 1 of a 3-level planar block
            block = np.zeros((Nv, n, 3, M))
            block[:, :, 1] = jac
            jac = block[:, :, 1]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            u_ref = np.einsum("rj,jm->rm", q, f)
            phi_ref = np.einsum("jrm,...jm->...rm", jac, C)
            x_ref = np.einsum("rj,...rm->...jm", q, phi_ref)
            u_out = np.empty((n, M))
            assert model.moments(f, out=u_out) is u_out
            u_new = model.moments(f)
            phi, x = np.empty(lead + (n, M)), np.empty(lead + (Nv, M))
            assert model.adjoint_source(jac, C, phi, x) is x
            if kind != "broadwell":    # Jin-Xin's moments take any lead
                assert_bitwise(model.moments(C),
                               np.einsum("rj,...jm->...rm", q, C))
        for got, ref in ((u_out, u_ref), (u_new, u_ref), (phi, phi_ref),
                         (x, x_ref)):
            assert_bitwise(got, ref)

    def test_blow_up_through_the_contractions_raises_no_warning(self):
        # inf - inf and 0 * inf inside both contractions give NaN and no
        # RuntimeWarning, so the step's guard names the failing step
        model = burgers_jinxin(2.1, 1e-2)
        f = np.array([[np.inf, 1e308, np.inf], [-np.inf, 1e308, 1.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            u = model.moments(f)
            x = model.adjoint_source(np.array([[[1.0, 2.0, 0.0]],
                                               [[1.0, 2.0, 1.0]]]),
                                     f, np.empty((1, 3)), np.empty((2, 3)))
        assert np.isnan(u[0, 0]) and np.isinf(u[0, 1:]).all()
        assert np.isnan(x[:, [0, 2]]).all() and np.isinf(x[:, 1]).all()


class TestGrid:
    def test_spacing_and_alignment(self):
        g = rx.LagrangianGrid(0.0, 6.0, 640)
        assert abs(g.dx - 6.0 / 639) <= 1e-18
        assert g.n_nodes == 639
        # aligned feet carry no interpolation weights
        bdf1 = (la.tableau("BDF1").a,)
        assert rx._feet(g, (2.1, -2.1), g.dx / 2.1, bdf1, ())[1] is None
        assert rx._feet(g, (1.0,), g.dx / 2.1, bdf1, ())[1] is not None

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


def reference_sample_shifted(grid, values, shift_cells):
    """``LagrangianGrid.sample_shifted`` as it was written before the grid
    held one index rule: np.roll on periodic grids, clipped indices on
    clamped ones.  The oracle of the feet and gather tests."""
    M = values.shape[-1]
    lo, w = rx._foot(shift_cells)
    if grid.boundary == "periodic":
        a = np.roll(values, lo, axis=-1)
        if w == 0.0:
            return a
        b = np.roll(values, lo + 1, axis=-1)
    else:
        a = values[..., np.clip(np.arange(M) - lo, 0, M - 1)]
        if w == 0.0:
            return a
        b = values[..., np.clip(np.arange(M) - lo - 1, 0, M - 1)]
    return (1.0 - w) * a + w * b


def reference_transport_oracle(grid, p_terminal, speed, T):
    """``transport_oracle`` as it was written with its own wrap and clip
    (``L`` was the grid's ``length``, x_right - x_left)."""
    x = grid.nodes() + speed * T
    if grid.boundary == "periodic":
        L = grid.x_right - grid.x_left
        x = grid.x_left + np.mod(x - grid.x_left, L)
    else:
        x = np.clip(x, grid.x_left, grid.x_right)
    return np.asarray(p_terminal(x), dtype=float)


# shifts in cells: whole cells or fractions, of both signs, up to several
# periods or walls away on the smallest grids
cell_shift = st.one_of(st.integers(-25, 25),
                       st.floats(-25.0, 25.0, allow_nan=False))
boundary_rule = st.sampled_from(["periodic", "clamp"])


class TestBoundaryRule:
    """The grid's index, slice and position forms of its boundary rule, and
    ``sample_shifted`` and ``transport_oracle`` built on them, bit for bit
    against the references above, signs of zero included."""

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(boundary=boundary_rule, nx=st.integers(3, 40), shift=cell_shift,
           batch=st.sampled_from([(), (3,), (2, 3)]))
    def test_sample_shifted_matches_reference(self, boundary, nx, shift,
                                              batch):
        grid = rx.LagrangianGrid(-2.5, 2.5, nx, boundary)
        values = level_data(batch + (grid.n_nodes,), seed=nx)
        assert_bitwise(grid.sample_shifted(values, shift),
                       reference_sample_shifted(grid, values, shift))

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(boundary=boundary_rule, nx=st.integers(3, 40),
           ks=st.lists(st.integers(-60, 60), min_size=1, max_size=4))
    def test_index_and_slice_forms_agree(self, boundary, nx, ks):
        # an array k gives the rows of its entries; each row's slice pairs
        # gather what its indices do
        grid = rx.LagrangianGrid(-2.5, 2.5, nx, boundary)
        M = grid.n_nodes
        rows = grid.upstream(np.array(ks))
        assert rows.shape == (len(ks), M)
        values = level_data((2, M), seed=nx)
        for k, row in zip(ks, rows):
            assert np.array_equal(grid.upstream(k), row)
            assert row.min() >= 0 and row.max() < M
            out = np.full_like(values, np.nan)
            for dst, src in grid.upstream_slices(k):
                out[..., dst] = values[..., src]
            assert_bitwise(out, values[..., row])

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(boundary=boundary_rule, nx=st.integers(3, 40),
           k=st.integers(-60, 60),
           cut=st.tuples(st.integers(0, 40), st.integers(0, 40)))
    def test_slices_of_a_window_read_as_the_row(self, boundary, nx, k, cut):
        # upstream_slices(k, lo, hi) write out[lo:hi] as the whole row's
        # read does, and nothing else
        grid = rx.LagrangianGrid(-2.5, 2.5, nx, boundary)
        M = grid.n_nodes
        lo, hi = sorted(min(c, M) for c in cut)
        values = level_data((2, M), seed=nx)
        out, expect = np.full_like(values, np.nan), np.full_like(values,
                                                                 np.nan)
        for dst, src in grid.upstream_slices(k, lo, hi):
            assert lo <= dst.start < dst.stop <= hi
            out[..., dst] = values[..., src]
        expect[..., lo:hi] = values[..., grid.upstream(k)[lo:hi]]
        assert_bitwise(out, expect)

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(boundary=boundary_rule, nx=st.integers(3, 40), data=st.data())
    def test_window_is_the_hull_of_what_reads_the_held_windows(
            self, boundary, nx, data):
        # per level a window and feet of 1-3 rows: the window is the hull
        # of the held windows and of every node whose foot reads one,
        # except that a periodic window crossing the seam is the whole grid
        grid = rx.LagrangianGrid(-2.5, 2.5, nx, boundary)
        M = grid.n_nodes
        n_rows = data.draw(st.integers(1, 3))
        levels = data.draw(st.lists(st.tuples(
            st.tuples(st.integers(0, M), st.integers(0, M)).map(sorted),
            st.lists(st.tuples(*[st.integers(-12, 12)] * n_rows),
                     min_size=1, max_size=2).map(tuple)),
            min_size=1, max_size=4))
        held, shifts = [tuple(w) for w, _ in levels], [f for _, f in levels]
        nodes, crossing = set(), False
        for (a, b), feet in zip(held, shifts):
            if a < b:
                nodes.update(range(a, b))
            for k in (k for foot in feet for k in foot if a < b):
                row = grid.upstream(k)
                nodes.update(np.flatnonzero((row >= a) & (row < b)).tolist())
                crossing |= a + k < 0 or b + k > M
        if boundary == "periodic" and crossing:
            expect = (0, M)
        else:
            expect = (min(nodes), max(nodes) + 1) if nodes else (0, 0)
        lo, hi, pieces = grid.window(held, tuple(shifts))
        assert (lo, hi) == expect
        assert pieces == tuple(tuple(tuple(grid.upstream_slices(k, lo, hi)
                                           for k in foot) for foot in feet)
                               for feet in shifts)

    def test_upstream_wraps_or_clamps(self):
        periodic = rx.LagrangianGrid(0.0, 1.0, 6)
        clamped = rx.LagrangianGrid(0.0, 1.0, 5, "clamp")
        assert periodic.upstream(1).tolist() == [4, 0, 1, 2, 3]
        assert periodic.upstream(-7).tolist() == [2, 3, 4, 0, 1]
        assert clamped.upstream(2).tolist() == [0, 0, 0, 1, 2]
        assert clamped.upstream(-9).tolist() == [4, 4, 4, 4, 4]

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(boundary=boundary_rule, nx=st.integers(3, 40),
           speed=st.floats(-3.0, 3.0, allow_nan=False),
           T=st.floats(0.0, 40.0, allow_nan=False))
    def test_transport_oracle_matches_reference(self, boundary, nx, speed, T):
        # the identity as terminal data compares the folded positions
        # themselves; a Gaussian those positions feed
        grid = rx.LagrangianGrid(-2.5, 3.5, nx, boundary)
        for pT in (lambda x: x, lambda x: np.exp(-(x - 0.5) ** 2)):
            assert_bitwise(rx.transport_oracle(grid, pT, speed, T),
                           reference_transport_oracle(grid, pT, speed, T))


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
        model = burgers_jinxin(a, 1e-2)
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

    def test_misshapen_initial_data_rejected_before_the_field(
            self, monkeypatch):
        grid = rx.LagrangianGrid(-2.5, 2.5, 17, boundary="clamp")
        M, tab = grid.n_nodes, la.tableau("BDF2")
        jinxin = linear_jinxin(1.0, 1e-2)
        broadwell = rx.make_broadwell(1.0, 1e-2)

        def unbuilt(*args):
            raise AssertionError("field built from misshapen u0")

        cases = [(jinxin, np.zeros((2, M)), r"\(1, 17\), got \(2, 17\)"),
                 (broadwell, np.ones((3, M)), r"\(2, 17\), got \(3, 17\)"),
                 (broadwell, np.ones(M), r"\(2, 17\), got \(1, 17\)")]
        with monkeypatch.context() as patch:
            patch.setattr(rx, "KineticField", unbuilt)
            for model, u0, shapes in cases:
                with pytest.raises(ValueError, match="u0 .*" + shapes):
                    rx.solve_forward(model, grid, tab, u0, 3, 0.05)
        # a descent's control reaches the same check
        target = ct.TrackingFunctional(np.ones((2, M)), grid.dx)
        with pytest.raises(ValueError, match="u0"):
            ct.optimize(broadwell, grid, tab, target, np.ones(M), 3, 0.05,
                        iterations=1, sigma0=0.1, bb_variant="bb2",
                        filter_every=0)
        # one (M,) row is still u0 for one conserved quantity
        u = rx.solve_forward(jinxin, grid, tab, np.zeros(M), 3, 0.05)[1]
        assert u.shape == (4, 1, M)

    def test_eps_that_grows_the_level_rejected(self):
        grid = rx.LagrangianGrid(0.0, 1.0, 4097)
        M, tab = grid.n_nodes, la.tableau("BDF2")
        pair = linear_jinxin(1.0, np.array([1e-2, 0.3]).reshape(2, 1, 1))
        with pytest.raises(ValueError, match=r"eps .*\(2, 1, 1\).*"
                                             r"\(2, 4096\)"):
            rx.solve_forward(pair, grid, tab, np.zeros(M), 3, 0.05)
        # refused before the ring is allocated: the peak stays under a row
        lam = np.zeros((3, 2, M))

        def refuse():
            with pytest.raises(ValueError, match=r"eps .*\(2, 1, 1\).*"
                                                 r"\(3, 2, 4096\)"):
                rx.AdjointField(pair, grid, 0.05, tab, lam)

        assert traced_peak_rows(refuse, M) < 1
        for model, level in [(linear_jinxin(1.0, 1e-2), (2, M)),
                             (linear_jinxin(1.0, np.array([1e-2])), (2, M)),
                             (pair, (2, 2, M))]:
            rx.AdjointField(model, grid, 0.05, tab, np.zeros(level))

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
        model = linear_jinxin(a, 1e-2)
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
        model = burgers_jinxin(a, 1e-2)
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
        model = burgers_jinxin(a, 1e-2)
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

    @pytest.mark.parametrize("kind", ["jinxin", "broadwell", "wide-box"])
    def test_out_equals_a_fresh_store(self, kind):
        # a wide box steps on windows: the store row beyond each window is
        # zero-filled, so no NaN of the stale store is left
        if kind == "jinxin":
            grid = rx.LagrangianGrid(0.0, 6.0, 41)
            model, dt = burgers_jinxin(2.1, 1e-2), 0.7 * grid.dx / 2.1
            x = grid.nodes()
            u0 = (0.5 + np.exp(-((x - 3.0) ** 2)))[None, :]
        elif kind == "wide-box":
            model, grid, _, u0, _ = zero_region_case("jinxin", 4201)
            dt = 0.7 * grid.dx / 2.1
            assert 2 * grid.n_nodes > rx._TAKE_MAX_ELEMENTS
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
        if kind == "wide-box":              # still a window of the grid
            lo, hi = fld.span[:2]
            assert fld.windows is not None and hi - lo < grid.n_nodes // 2

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
        lam0 = rx.solve_adjoint(model, grid, la.tableau("BDF2"),
                                np.zeros((n_steps, 1, grid.n_nodes)),
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
            p0 = _eps_sweep(model, grid, la.tableau("BDF2"), pT, n_steps, dt)
            errs.append(transport_deviation(grid, p0, pT, n_steps * dt)[0])
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
        n_steps = int(round(1.0 / dt))
        p0 = _eps_sweep(model, grid, la.tableau("BDF2"), pT, n_steps, dt)
        dev = transport_deviation(grid, p0, pT, n_steps * dt)[0]
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
        p0 = _eps_sweep(batch, grid, tab, pT, n_steps, dt)
        dev = transport_deviation(grid, p0, pT, n_steps * dt)
        assert p0.shape == (len(eps), grid.n_nodes) and dev.shape == (len(eps),)
        for b, e in enumerate(eps):
            p_b = _eps_sweep(linear_jinxin(a, e), grid, tab, pT, n_steps, dt)
            dev_b = transport_deviation(grid, p_b, pT, n_steps * dt)
            assert np.array_equal(p_b, p0[b:b + 1])
            assert np.array_equal(dev_b, dev[b:b + 1])

    @pytest.mark.parametrize("scheme", ["BDF2", "BDF3"])
    def test_viscous_limit_p0_is_the_gradient_of_lambda0(self, scheme):
        # the eps study contracts lambda(0) by the descent's own rule:
        # its p(0) is gradient_from_adjoint of the same sweep, bit for bit,
        # batched over eps and for each member alone
        a, eps = 2.1, (1e-4, 1e-2, 1.0)
        grid = rx.LagrangianGrid(0.0, 6.0, 80)
        dt = grid.dx / a
        n_steps = int(round(1.0 / dt))
        tab = la.tableau(scheme)
        pT = lambda xx: np.exp(-((xx - 3.0) ** 2))
        batch = linear_jinxin(a, np.reshape(eps, (-1, 1, 1)))
        members = [(batch, slice(None))] + [
            (linear_jinxin(a, e), slice(b, b + 1)) for b, e in enumerate(eps)]
        p_batch = _eps_sweep(batch, grid, tab, pT, n_steps, dt)
        for model, rows in members:
            p0 = _eps_sweep(model, grid, tab, pT, n_steps, dt)
            d = np.broadcast_to(pT(grid.nodes()),
                                (np.size(model.eps), 1, grid.n_nodes))
            lam0 = rx.solve_adjoint(model, grid, tab,
                                    np.zeros((n_steps, 1, grid.n_nodes)),
                                    rx.terminal_multipliers(model, d),
                                    n_steps, dt)
            g = rx.gradient_from_adjoint(model, lam0)
            assert g.shape == (np.size(model.eps), 1, grid.n_nodes)
            assert np.array_equal(p0, g[:, 0])
            assert np.array_equal(p0, p_batch[rows])

    def test_gradient_batch_equals_members(self):
        # leading axes of lambda(0) batch the Jacobian contraction of a
        # system: each member's gradient is its own, bit for bit
        model = rx.make_broadwell(1.0, 1e-2)
        rng = np.random.default_rng(4)
        lam0 = rng.standard_normal((2, 3, 3, 17))
        u0 = np.stack([1.0 + rng.random(17), rng.standard_normal(17)])
        g = rx.gradient_from_adjoint(model, lam0, u0)
        assert g.shape == (2, 3, 2, 17)
        for idx in np.ndindex(2, 3):
            assert np.array_equal(
                g[idx], rx.gradient_from_adjoint(model, lam0[idx], u0))

    def test_adjoint_requires_bdf(self):
        grid = rx.LagrangianGrid(0.0, 1.0, 17)
        model = linear_jinxin(1.0, 1e-2)
        for name in ("AM4", "AB2"):
            with pytest.raises(la.ConfigError):
                rx.AdjointField(model, grid, 0.05, la.tableau(name),
                                np.zeros((2, grid.n_nodes)))

    def test_missing_forward_field_shape(self):
        # a Jacobian not of shape (Nv, n, M) is refused by name and leaves
        # the ring, head and n as they were; a foreign grid is refused
        # first, whatever the Jacobian's shape
        grid = rx.LagrangianGrid(0.0, 1.0, 17)
        model = linear_jinxin(1.0, 1e-2)
        adj = rx.AdjointField(model, grid, 0.05, la.tableau("BDF2"),
                              np.ones((2, grid.n_nodes)))
        rx.adjoint_step(model, grid, adj, zero_state_jac(model, grid))
        ring, head, n = adj.ring.copy(), adj.head, adj.n
        for shape in [(2, 1, 3), (1, grid.n_nodes), (2, 2, grid.n_nodes),
                      (2, 1, grid.n_nodes + 1), (1, 2, 1, grid.n_nodes)]:
            with pytest.raises(ValueError, match=re.escape(
                    f"Jacobian must have shape (2, 1, 16), got {shape}")):
                rx.adjoint_step(model, grid, adj, np.zeros(shape))
            assert_bitwise(adj.ring, ring)
            assert (adj.head, adj.n) == (head, n)
        clamped = rx.LagrangianGrid(0.0, 1.0, 17, "clamp")
        with pytest.raises(ValueError, match="grid, velocities or eps"):
            rx.adjoint_step(model, clamped, adj,
                            zero_state_jac(model, clamped))

    def test_blow_up_names_the_step(self):
        # NaN terminal data: the first backward step cannot commit, and the
        # error says which step failed, as the forward sweep's does
        grid = rx.LagrangianGrid(0.0, 1.0, 17)
        model = linear_jinxin(1.0, 1e-2)
        lam_T = np.ones((2, grid.n_nodes))
        lam_T[0, 5] = np.nan
        with pytest.raises(la.SolverError, match=r"backward step 1\b") as err:
            rx.solve_adjoint(model, grid, la.tableau("BDF2"),
                             np.zeros((4, 1, grid.n_nodes)), lam_T, 4, 0.05)
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
    per-velocity ``reference_sample_shifted`` calls, and h = dt b_-1, for
    the ramp entry of the history's length."""
    eff = tab if len(history) >= tab.s else la.tableau(f"bdf{len(history)}")
    C = np.zeros_like(history[0])
    for ell in range(eff.s):
        for j, vj in enumerate(speeds):
            shift = vj * (ell + 1) * dt / grid.dx
            C[j] -= eff.a[ell] * reference_sample_shifted(
                grid, history[ell][j], shift)
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


def assert_steps_match_reference(model, grid, dt, tab, u0, d=None):
    """Forward and adjoint steps equal the references bit for bit (see
    ``assert_ring_matches``).  The adjoint starts from the multipliers of
    ``d`` (default ``u0``), with the Jacobian at ``u0``."""
    fld = rx.KineticField(model, grid, dt, tab, model.equilibrium(u0))
    assert_ring_matches(fld, lambda: step_forward(model, grid, fld),
                        lambda hist: reference_forward_step(model, grid, hist,
                                                            dt, tab))
    lam_T = rx.terminal_multipliers(model, u0 if d is None else d)
    adj = rx.AdjointField(model, grid, dt, tab, lam_T)
    jac = model.equilibrium_jac(u0)
    assert_ring_matches(adj, lambda: rx.adjoint_step(model, grid, adj, jac),
                        lambda hist: reference_adjoint_step(model, grid, hist,
                                                            u0, dt, tab))


def assert_ring_matches(fld, step, reference):
    """``step()`` the field 2 s + 1 times, through the order ramp and then
    from every ring head: each step's history combination C and new level
    equal ``reference(levels)``, newest first, bit for bit, sign of zero
    included.  Where the reference's model refuses the state (Broadwell's
    rho <= 0), the step must refuse it too, and the run ends there."""
    s = len(fld.ring)
    hist, heads = [fld.current.copy()], set()
    for _ in range(2 * s + 1):
        if len(hist) == s:
            heads.add(fld.head)
        try:
            expect, C = reference(hist)
        except la.SolverError:
            with pytest.raises(la.SolverError):
                step()
            break
        step()
        assert_bitwise(fld.comb, C)
        assert_bitwise(fld.current, expect)
        hist = [expect] + hist[:s - 1]
    assert heads == set(range(s)), heads


# dt*a/dx: whole cells (aligned feet) or any fraction of up to three cells
foot_ratio = st.one_of(st.integers(1, 3).map(float),
                       st.floats(0.05, 3.0, allow_nan=False))


class TestCombine:
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
                                     ratio * grid.dx / a, tab, u0)

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
                                     ratio * grid.dx / c, tab, u0)

    def test_step_rejects_foreign_grid(self):
        # both steps refuse another grid, other velocities and another eps,
        # whose relaxation weights the field formed when it was built, and
        # take an equal model built anew
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
                         (linear_jinxin(2.0, 1e-2), grid),
                         (linear_jinxin(1.0, 1.0), grid)):
                with pytest.raises(ValueError,
                                   match="grid, velocities or eps"):
                    step(m, g, field(model, grid, 0.05, tab, zeros))
            out = step(linear_jinxin(1.0, 1e-2), grid,
                       field(model, grid, 0.05, tab, zeros))
            assert out.shape[-1] == grid.n_nodes

    def test_batched_step_rejects_other_eps_members(self):
        grid = rx.LagrangianGrid(0.0, 1.0, 17)
        eps = np.array([1e-2, 1.0]).reshape(2, 1, 1)
        adj = rx.AdjointField(linear_jinxin(1.0, eps), grid, 0.05,
                              la.tableau("BDF2"),
                              np.zeros((2, 2, grid.n_nodes)))
        jac = zero_state_jac(adj.model, grid)
        for other in (eps[::-1], eps[:1], 1e-2):
            with pytest.raises(ValueError, match="eps"):
                rx.adjoint_step(linear_jinxin(1.0, other), grid, adj, jac)
        rx.adjoint_step(linear_jinxin(1.0, eps.copy()), grid, adj, jac)


# entries a test writes into a ring: non-finite ones, finite ones whose
# squares overflow the guard's dot (|x| > 1.34e154), and ordinary ones
ring_entry = st.one_of(
    st.sampled_from([np.nan, np.inf, -np.inf]),
    st.floats(1e155, 1e200).flatmap(lambda x: st.sampled_from([x, -x])),
    st.floats(-2.0, 2.0))


class TestGuard:
    """``_update``'s guard, one reduction of the new level (a dot with
    itself under a take plan, a plain sum on wider levels), refuses a level
    exactly when it holds a non-finite entry.  The property and the
    overflow test force both kernels, so both reductions guard the same
    small fields."""

    @staticmethod
    def linear_field(kind, order, boundary, nx, ratio):
        """A linear Jin-Xin field: forward, adjoint, or adjoint batched
        over two members of their own eps, with its one-step callable."""
        grid = rx.LagrangianGrid(0.0, 6.0, nx, boundary)
        a = 2.1
        dt, tab = ratio * grid.dx / a, la.tableau(f"BDF{order}")
        u0 = np.exp(-((grid.nodes() - 3.0) ** 2))[None, :]
        if kind == "forward":
            model = linear_jinxin(a, 1e-2)
            fld = rx.KineticField(model, grid, dt, tab, model.equilibrium(u0))
            return fld, lambda: step_forward(model, grid, fld)
        eps = (np.array([1e-2, 0.5]).reshape(2, 1, 1) if kind == "batched"
               else 1e-2)
        model = linear_jinxin(a, eps)
        lam_T = rx.terminal_multipliers(model, u0 * np.ones(np.shape(eps)))
        adj = rx.AdjointField(model, grid, dt, tab, lam_T)
        jac = zero_state_jac(model, grid)
        return adj, lambda: rx.adjoint_step(model, grid, adj, jac)

    # the kernel fixture patches the module once for all examples
    @settings(max_examples=60, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(kind=st.sampled_from(["forward", "adjoint", "batched"]),
           order=st.integers(1, 3),
           boundary=st.sampled_from(["periodic", "clamp"]),
           nx=st.integers(5, 40), ratio=foot_ratio, warm=st.integers(0, 6),
           entries=st.lists(st.tuples(st.integers(0, 2), st.integers(0, 10**6),
                                      ring_entry), min_size=1, max_size=4))
    def test_raises_iff_the_new_level_is_not_finite(
            self, kernel, kind, order, boundary, nx, ratio, warm, entries):
        # entries land in any slot, held levels or ramp slots not yet
        # filled, which the step reads and leaves; the new level is
        # written into its slot before the guard, so the slot tells.  The
        # step's own arithmetic may meet inf - inf, hence the errstate
        fld, step = self.linear_field(kind, order, boundary, nx, ratio)
        assert (fld.plans is not None) == (kernel == "take")
        for _ in range(warm):
            step()
        s = len(fld.ring)
        for slot, at, value in entries:
            level = fld.ring[slot % s].reshape(-1)
            level[at % level.size] = value
        head, n = fld.head, fld.n
        with np.errstate(all="ignore"):
            try:
                step()
            except la.SolverError as err:
                assert (fld.head, fld.n) == (head, n)
                assert err.step_index == n + 1
                assert re.search(rf"step {n + 1}\b", str(err))
                assert not np.isfinite(fld.ring[(head - 1) % s]).all()
                return
        assert (fld.head, fld.n) == ((head - 1) % s, n + 1)
        assert np.isfinite(fld.current).all()

    @pytest.mark.parametrize("kind", ["forward", "adjoint", "batched"])
    def test_huge_finite_level_steps_on(self, kernel, kind):
        # levels near 1e307 overflow both the dot (squares) and the sum (66
        # or more entries); the exact check passes the level, and no step
        # warns (warnings are errors here)
        fld, step = self.linear_field(kind, 3, "periodic", 33, 0.7)
        fld.ring[fld.head] = 1e307
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for n in range(1, 8):
                level = step()
                flat = fld.current.reshape(-1)
                assert fld.n == n and np.isfinite(level).all()
                assert not math.isfinite(np.vdot(flat, flat))
                assert not math.isfinite(np.einsum("i->", flat))

    @pytest.mark.skipif((os.cpu_count() or 1) < 2,
                        reason="one CPU runs no second BLAS thread")
    @pytest.mark.parametrize("nodes, steps, plan", [
        ("40960", 200, "is None"),
        ("rx._TAKE_MAX_ELEMENTS // 2", 4000, "is not None")],
        ids=["wide", "take_limit"])
    def test_guard_starts_no_blas_thread(self, nodes, steps, plan):
        # with the BLAS thread count left to its default, a threaded dot
        # leaves workers spinning for a while after each call (and after
        # start-up, hence the sleep), which bills CPU time beyond the wall
        # time.  A wide level is summed on the stepping thread; the widest
        # take-plan level is dotted, which OpenBLAS keeps on one thread up
        # to 10000 elements, so a larger take limit fails here
        script = (
            "import time\n"
            "import numpy as np\n"
            "import lmm_adjoint as la\n"
            "from lmm_adjoint import relaxation as rx\n"
            f"grid = rx.LagrangianGrid(0.0, 6.0, {nodes} + 1, 'periodic')\n"
            "model = rx.make_jin_xin(*rx.JIN_XIN_FLUXES['linear'], 2.1, 1e-2)\n"
            "u0 = np.exp(-((grid.nodes() - 3.0) ** 2))[None, :]\n"
            "fld = rx.KineticField(model, grid, grid.dx / 2.1,\n"
            "                      la.tableau('BDF3'), model.equilibrium(u0))\n"
            "out = np.empty((1, grid.n_nodes))\n"
            f"assert fld.plans {plan}\n"
            "for _ in range(10):\n"
            "    rx.forward_step(model, grid, fld, out)\n"
            "time.sleep(0.5)\n"
            "cpu, wall = time.process_time(), time.perf_counter()\n"
            f"for _ in range({steps}):\n"
            "    rx.forward_step(model, grid, fld, out)\n"
            "print(time.process_time() - cpu, time.perf_counter() - wall)\n")
        env = {key: value for key, value in os.environ.items()
               if not key.endswith("_NUM_THREADS")}
        env["PYTHONPATH"] = str(pathlib.Path(la.__file__).parents[1])
        run = subprocess.run([sys.executable, "-c", script], env=env,
                             capture_output=True, text=True, timeout=300)
        assert run.returncode == 0, run.stderr
        cpu, wall = map(float, run.stdout.split())
        assert cpu <= 1.25 * wall, (cpu, wall)


@contextlib.contextmanager
def forced_kernel(name):
    """Build fields under one gather kernel of ``_combine`` on every level
    size, "take" or "slices" (windowed where the model and data allow):
    the feet are built afresh under a patched threshold and dropped again
    afterwards."""
    rx._feet.cache_clear()
    saved = rx._TAKE_MAX_ELEMENTS
    rx._TAKE_MAX_ELEMENTS = math.inf if name == "take" else 0
    try:
        yield name
    finally:
        rx._TAKE_MAX_ELEMENTS = saved
        rx._feet.cache_clear()


@pytest.fixture(params=["take", "slices"])
def kernel(request):
    """Force one gather kernel (``forced_kernel``) for the whole test."""
    with forced_kernel(request.param):
        yield request.param


def level_data(shape, seed=0):
    """A random level whose rows hold a stretch of +0.0 and one of -0.0."""
    values = np.random.default_rng(seed).standard_normal(shape)
    M = shape[-1]
    values[..., M // 4:M // 2] = 0.0
    values[..., M // 2:3 * M // 4] = -0.0
    return values


def zero_region_case(kind, nx):
    """(model, grid, speed, u0, d): data that is exactly zero off a box, u0
    for the forward run and the Jacobian, d for the terminal multipliers
    (negative zeros).  Jin-Xin Burgers on a periodic grid, the box in the
    middle ("jinxin") or across the seam ("jinxin-seam"), or on a clamped
    grid against its left wall ("jinxin-wall"); or Broadwell (clamped)."""
    if kind.startswith("jinxin"):
        grid = rx.LagrangianGrid(0.0, 6.0, nx,
                                 "clamp" if kind == "jinxin-wall"
                                 else "periodic")
        x = grid.nodes()
        # distance from the box centre: 3, the seam at 0 = 6, or the wall
        r = {"jinxin": np.abs(x - 3.0), "jinxin-seam": np.minimum(x, 6.0 - x),
             "jinxin-wall": x}[kind]
        u0 = np.where(r <= 1.0, 1.0 + np.exp(-r ** 2), 0.0)[None, :]
        return burgers_jinxin(2.1, 1e-2), grid, 2.1, u0, -u0
    grid = rx.LagrangianGrid(-2.5, 2.5, nx, boundary="clamp")
    x = grid.nodes()
    box = np.abs(x) <= 1.0
    m = np.where(box, np.sin(np.pi * x), 0.0)
    u0 = np.stack([1.0 + 0.3 * box, m])
    return rx.make_broadwell(1.0, 1e-2), grid, 1.0, u0, np.stack([-m, m])


class TestGatherKernels:
    """``_combine`` gathers the history with one flat ``take`` from the
    ring or with row slices of its planes, by the level size; each kernel,
    forced on the same data, gives ``reference_combination`` bit for bit,
    sign of zero included."""

    @pytest.mark.parametrize("batch", [(), (2, 3)])
    @pytest.mark.parametrize("ratio", [1.0, 2.0, 0.7, 2.3])
    @pytest.mark.parametrize("boundary, nx", [
        ("periodic", 5), ("periodic", 41), ("clamp", 5), ("clamp", 41)])
    def test_combination_matches_sample_shifted(self, kernel, boundary, nx,
                                                ratio, batch):
        # on nx = 5 the deepest feet (up to 6.9 cells) pass a whole period
        # or wall; Broadwell's zero speed stays aligned in fractional levels
        grid = rx.LagrangianGrid(-2.5, 2.5, nx, boundary)
        model, speed = ((linear_jinxin(2.1, 1e-2), 2.1)
                        if boundary == "periodic"
                        else (rx.make_broadwell(1.0, 1e-2), 1.0))
        dt = ratio * grid.dx / speed
        tab = la.tableau("BDF3")
        x = grid.nodes()
        u = np.stack([1.0 + 0.3 * np.cos(x), 0.2 * np.sin(x)])
        u = u[:model.n_conserved]
        jac = model.equilibrium_jac(u)
        adj = rx.AdjointField(model, grid, dt, tab, level_data(
            batch + (model.n_velocities, grid.n_nodes)))
        assert isinstance(adj.feet[0][0], np.ndarray) == (kernel == "take")

        def reference(hist):
            # each batch member's (new level, C), stacked
            members = [reference_adjoint_step(model, grid,
                                              [h[i] for h in hist], u, dt,
                                              tab)
                       for i in np.ndindex(batch)]
            return tuple(np.reshape(part, hist[0].shape)
                         for part in zip(*members))

        assert_ring_matches(adj, lambda: rx.adjoint_step(model, grid, adj,
                                                         jac), reference)

    @pytest.mark.parametrize("ratio", [1.0, 0.7])
    @pytest.mark.parametrize("kind", ["jinxin", "jinxin-seam", "jinxin-wall",
                                      "broadwell"])
    def test_steps_match_reference_on_zero_regions(self, kernel, kind, ratio):
        # the seam and wall boxes pin the gathers' reads across the seam
        # and of the wall node, which are the slice kernel's window rules
        model, grid, speed, u0, d = zero_region_case(kind, 33)
        assert_steps_match_reference(model, grid, ratio * grid.dx / speed,
                                     la.tableau("BDF3"), u0, d)

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
        fld = rx.KineticField(model, grid, dt, tab, model.equilibrium(u0))
        assert isinstance(fld.feet[0][0], np.ndarray) != above
        assert_steps_match_reference(model, grid, dt, tab, u0, d)


def box_row(M, periodic):
    """(M,) data of +0.0 off a box that starts anywhere, a wall node
    included, and wraps across the seam of a periodic grid or stops at the
    wall of a clamped one; its entries include +-0.0 and subnormals."""
    entry = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-2.0, 2.0))
    return st.tuples(st.one_of(st.sampled_from([0, M - 1]),
                               st.integers(0, M - 1)),
                     st.lists(entry, max_size=M)).map(
        lambda box: place_box(M, periodic, *box))


def place_box(M, periodic, start, values):
    row, at = np.zeros(M), start + np.arange(len(values))
    if periodic:
        row[at % M] = values
    else:
        row[at[at < M]] = np.asarray(values)[at < M]
    return row


@st.composite
def windowed_case(draw):
    """(grid, flux, eps, tab, dt, u0, d): Jin-Xin box data on a small grid
    of either boundary, aligned or fractional feet, BDF1-6 at an eps/dt
    inside its stable range (at least 1 for BDF3-6, ROADMAP item 10), u0
    (1, M) and the terminal data d (2, 1, M) of two batch members."""
    boundary = draw(boundary_rule)
    grid = rx.LagrangianGrid(0.0, 6.0, draw(st.integers(5, 48)), boundary)
    order = draw(st.integers(1, 6))
    dt = draw(foot_ratio) * grid.dx / 2.1
    eps = dt * draw(st.floats(1.0, 10.0) if order >= 3
                    else st.floats(0.01, 10.0))
    flux = draw(st.sampled_from(sorted(rx.JIN_XIN_FLUXES)))
    row = box_row(grid.n_nodes, boundary == "periodic")
    u0 = draw(row)[None, :]
    d = np.stack([draw(row), draw(row)])[:, None, :]
    return grid, flux, eps, la.tableau(f"BDF{order}"), dt, u0, d


def traced_sweep(fld, step, n_steps):
    """``step()`` the field ``n_steps`` times; after each step its head,
    held levels (newest first) and comb, copied."""
    s, trace = len(fld.ring), []
    for _ in range(n_steps):
        step()
        trace.append([fld.head] + [fld.ring[(fld.head + ell) % s].copy()
                                   for ell in range(min(fld.n + 1, s))]
                     + [fld.comb.copy()])
    return trace


def assert_traces_equal(trace, expect):
    assert len(trace) == len(expect)
    for got, want in zip(trace, expect):
        assert got[0] == want[0] and len(got) == len(want)
        for a, b in zip(got[1:], want[1:]):
            assert_bitwise(a, b)


class TestWindows:
    """A wide field whose model keeps a zero level +0.0 computes each step
    on a window of nodes, the reach of its held levels' windows, and keeps
    every buffer +0.0 outside it.  Forced on the same data, the windowed
    slice kernel and the full-width take kernel agree bit for bit in the
    ring, in comb, in the forward store and in lambda(0)."""

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(case=windowed_case(),
           kind=st.sampled_from(["forward", "adjoint", "batched"]))
    def test_windowed_sweeps_equal_the_take_kernel(self, case, kind):
        grid, flux, eps, tab, dt, u0, d = case
        make = lambda e: rx.make_jin_xin(*rx.JIN_XIN_FLUXES[flux], 2.1, e)
        model, n_steps, M = make(eps), 2 * tab.s + 1, grid.n_nodes
        traces, stores = {}, {}
        for kernel in ("take", "slices"):
            with forced_kernel(kernel):
                fld = rx.KineticField(model, grid, dt, tab,
                                      model.equilibrium(u0))
                stale = np.full((n_steps + 1, 1, M), np.nan)
                stores[kernel] = rx.solve_forward(model, grid, tab, u0,
                                                  n_steps, dt, out=stale)[1]
            out = np.empty((1, M))
            traces[kernel] = traced_sweep(
                fld, lambda: rx.forward_step(model, grid, fld, out), n_steps)
        assert_bitwise(stores["slices"], stores["take"])
        assert_traces_equal(traces["slices"], traces["take"])
        if kind == "forward":
            return
        # the adjoint against the forward store, one eps per member batched
        u_store = stores["take"]
        adj_model = make(eps if kind == "adjoint"
                         else np.reshape([eps, 3 * eps], (2, 1, 1)))
        lam_T = rx.terminal_multipliers(adj_model,
                                        d[0] if kind == "adjoint" else d)
        jacs = [model.equilibrium_jac(u_store[k - 1])
                for k in range(n_steps, 0, -1)]
        lam0 = {}
        for kernel in ("take", "slices"):
            with forced_kernel(kernel):
                adj = rx.AdjointField(adj_model, grid, dt, tab, lam_T)
                lam0[kernel] = rx.solve_adjoint(adj_model, grid, tab, u_store,
                                                lam_T, n_steps, dt)
            levels = iter(jacs)

            def step():
                # a windowed step reads its Jacobian on its window only
                jac = next(levels).copy()
                if adj.windows is not None:
                    lo, hi = adj.span[:2]
                    jac[..., :lo] = jac[..., hi:] = np.nan
                rx.adjoint_step(adj_model, grid, adj, jac)
            traces[kernel] = traced_sweep(adj, step, n_steps)
        assert_bitwise(lam0["slices"], lam0["take"])
        assert_traces_equal(traces["slices"], traces["take"])

    def test_the_zero_probe(self):
        assert all(rx._keeps_zero(rx.make_jin_xin(F, dF, 2.1, 1e-2))
                   for F, dF in rx.JIN_XIN_FLUXES.values())
        assert not rx._keeps_zero(rx.make_broadwell(1.0, 1e-2))

    @pytest.mark.parametrize("case", [
        "broadwell", "gaussian", "negative-zeros", "seam", "take-plan"])
    def test_fields_that_run_full_width(self, case):
        # Broadwell refuses the zero probe even on multipliers that are
        # zero off a box; data without exact zeros, -0.0 off the box and a
        # periodic box across the seam span the grid from the start; a
        # take-plan level is gathered whole
        kind = {"broadwell": "broadwell", "seam": "jinxin-seam"}.get(case,
                                                                     "jinxin")
        model, grid, speed, u0, d = zero_region_case(kind, 33)
        if case == "broadwell":
            first = rx.terminal_multipliers(model, np.stack([d[1], d[1]]))
        else:
            first = model.equilibrium(u0 + (case == "gaussian"))
        if case == "negative-zeros":
            first[first == 0.0] = -0.0
        assert (first == 0.0).any() == (case != "gaussian")
        with forced_kernel("take" if case == "take-plan" else "slices"):
            for field in (rx.KineticField, rx.AdjointField):
                fld = field(model, grid, grid.dx / speed, la.tableau("BDF2"),
                            first)
                assert fld.windows is None
                assert fld.span is None if case == "take-plan" else (
                    fld.span[:2] == (0, grid.n_nodes))

    @pytest.mark.parametrize("kind, edge", [("jinxin", "seam"),
                                            ("jinxin-wall", "wall")])
    def test_windows_grow_to_the_seam_or_along_the_wall(self, kind, edge):
        # aligned BDF2 feet reach 1 and 2 cells: each step's window is the
        # last one grown by a cell each way, from the first level's grown
        # by one.  A periodic window that would cross the seam is the whole
        # grid, so the field runs full width from then on; one against a
        # clamped wall keeps its edge there and grows to the other wall
        model, grid, speed, u0, _ = zero_region_case(kind, 65)
        M = grid.n_nodes
        with forced_kernel("slices"):
            fld = rx.KineticField(model, grid, grid.dx / speed,
                                  la.tableau("BDF2"), model.equilibrium(u0))
        lo, hi = fld.windows[0]
        assert (lo == 0) == (edge == "wall") and 0 < hi < M - 8
        for n in range(1, M):
            step_forward(model, grid, fld)
            if fld.windows is None:
                break
            assert fld.span[:2] == (max(lo - n - 1, 0), min(hi + n + 1, M))
        assert fld.span[:2] == (0, M)
        if edge == "seam":                    # the next step would cross
            assert lo - n - 1 < 0 or hi + n + 1 > M
            assert lo - n >= 0 and hi + n <= M
        else:
            assert hi + n + 1 >= M > hi + n


class TestFourierOracle:
    """Linear periodic Jin-Xin, a = 2.1 and F(u) = c u with c = 1, on
    aligned feet (dt = dx/a), swept mode by mode in Fourier space through
    the order ramp and 200 steps, which cycle the ring head: an oracle
    that shares no code with the steps.  A foot one cell up- or downstream
    multiplies a mode by e^{-i phi} or e^{i phi}, phi = k dx."""

    a, M, n_steps = 2.1, 64, 200

    def case(self, eps):
        grid = rx.LagrangianGrid(0.0, 2 * np.pi, self.M + 1)
        x = grid.nodes()
        u0 = np.exp(np.cos(x)) + 0.3 * np.sin(3 * x)
        E = np.array([[(self.a + 1) / (2 * self.a)],
                      [(self.a - 1) / (2 * self.a)]])
        return linear_jinxin(self.a, eps), grid, grid.dx / self.a, x, u0, E

    @staticmethod
    def sweep(level0, tab, dt, sign, update, n_steps):
        """The modes of every level of an ``n_steps`` sweep, from
        ``level0`` (2, M): velocity j reads level l at D_j^(l+1),
        D = diag(e^{-i phi}, e^{i phi}) forward (``sign`` 1) and its mirror
        backward (-1), and ``update(C, h)`` gives the new level from
        C = -sum_l a_l D^(l+1) H_l and h = dt b_-1."""
        M = level0.shape[-1]
        phi = 2 * np.pi * np.arange(M) / M
        D = np.exp(-1j * sign * np.array([[1.0], [-1.0]]) * phi)
        hist = [np.fft.fft(level0)]
        levels = list(hist)
        for _ in range(n_steps):
            eff = tab if len(hist) >= tab.s else la.tableau(
                f"BDF{len(hist)}")
            C = -sum(a_l * D ** (ell + 1) * H
                     for ell, (a_l, H) in enumerate(zip(eff.a, hist)))
            hist = [update(C, dt * eff.b_implicit)] + hist[:tab.s - 1]
            levels.append(hist[0])
        return levels

    @pytest.mark.parametrize("eps, order", [
        (1.0, k) for k in range(1, 7)] + [(1e-2, k) for k in range(1, 6)]
        + [(1e-6, k) for k in range(1, 4)])
    def test_forward(self, eps, order):
        # f = (1 - w) C + w E (C_1 + C_2), w = h / (h + eps)
        model, grid, dt, x, u0, E = self.case(eps)
        tab = la.tableau(f"BDF{order}")

        def update(C, h):
            w = h / (h + eps)
            return (1.0 - w) * C + w * E * (C[0] + C[1])

        levels = self.sweep(E * u0, tab, dt, 1, update, self.n_steps)
        expect = np.fft.ifft([f[0] + f[1] for f in levels]).real
        u_store = rx.solve_forward(model, grid, tab, u0, self.n_steps, dt)[1]
        err = np.max(np.abs(u_store[:, 0] - expect)) / np.max(np.abs(expect))
        assert err <= 1e-12, err

    @pytest.mark.parametrize("eps", [1.0, 1e-2])
    @pytest.mark.parametrize("order", [1, 2, 3, 4])
    def test_adjoint(self, eps, order):
        # lam = keep C + relax (1, 1)^T (E . C)
        model, grid, dt, x, u0, E = self.case(eps)
        tab = la.tableau(f"BDF{order}")
        lam_T = np.stack([u0, 0.5 * np.cos(2 * x)])

        def update(C, h):
            keep, relax = eps / (eps + h), h / (eps + h)
            return keep * C + relax * (E * C).sum(axis=0)

        expect = np.fft.ifft(self.sweep(lam_T, tab, dt, -1, update,
                                        self.n_steps)[-1]).real
        lam0 = rx.solve_adjoint(model, grid, tab,
                                np.zeros((self.n_steps, 1, self.M)), lam_T,
                                self.n_steps, dt)
        err = np.max(np.abs(lam0 - expect)) / np.max(np.abs(expect))
        assert err <= 1e-12, err

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(order=st.integers(1, 6), eps_dt=st.floats(1.0, 100.0),
           c_a=st.floats(0.0, 0.9), M=st.integers(16, 96), data=st.data())
    def test_stable_range(self, order, eps_dt, c_a, M, data):
        # F(u) = c u with c/a up to 0.9 and eps/dt >= 1, where every BDF
        # up to 6 is stable (ROADMAP item 10: the worst threshold is
        # eps/dt = 0.89): both sweeps, ramp included, equal the symbol's
        tab = la.tableau(f"BDF{order}")
        n_steps = data.draw(st.integers(order, 60), label="n_steps")
        a, c = self.a, c_a * self.a
        grid = rx.LagrangianGrid(0.0, 2 * np.pi, M + 1)
        x, dt = grid.nodes(), grid.dx / a
        eps = eps_dt * dt
        model = rx.make_jin_xin(lambda u: c * u, lambda u: np.full_like(u, c),
                                a, eps)
        E = np.array([[(a + c) / (2 * a)], [(a - c) / (2 * a)]])
        u0 = np.exp(np.cos(x)) + 0.3 * np.sin(3 * x)

        def forward(C, h):
            w = h / (h + eps)
            return (1.0 - w) * C + w * E * (C[0] + C[1])

        def adjoint(C, h):
            keep, relax = eps / (eps + h), h / (eps + h)
            return keep * C + relax * (E * C).sum(axis=0)

        expect = np.fft.ifft([f[0] + f[1] for f in self.sweep(
            E * u0, tab, dt, 1, forward, n_steps)]).real
        u_store = rx.solve_forward(model, grid, tab, u0, n_steps, dt)[1]
        err = np.max(np.abs(u_store[:, 0] - expect)) / np.max(np.abs(expect))
        assert err <= 1e-12, ("forward", err)
        lam_T = np.stack([u0, 0.5 * np.cos(2 * x)])
        expect = np.fft.ifft(self.sweep(lam_T, tab, dt, -1, adjoint,
                                        n_steps)[-1]).real
        lam0 = rx.solve_adjoint(model, grid, tab, u_store, lam_T, n_steps, dt)
        err = np.max(np.abs(lam0 - expect)) / np.max(np.abs(expect))
        assert err <= 1e-12, ("adjoint", err)


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
        # speeds (a, -a): feet of both signs; the linear flux sweeps a zero
        # store (its Jacobian is the same at every u), Burgers its own
        grid = rx.LagrangianGrid(0.0, 6.0, nx)
        a = 2.1
        dt = ratio * grid.dx / a
        tab = la.tableau(f"BDF{order}")
        n_steps = order + 3
        x = grid.nodes()
        make = linear_jinxin if flux == "linear" else burgers_jinxin
        u_store = np.zeros((n_steps, 1, grid.n_nodes))
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
                rx.solve_adjoint(model, grid, la.tableau("BDF2"),
                                 np.zeros((3, 1, M)), np.zeros(shape), 3,
                                 0.05)

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
    """The eps study sweeps the adjoint linearized at u = 0: each
    ``experiments._eps_sweep`` evaluates the Jacobian once and every step
    reuses it."""

    def test_one_evaluation_per_sweep(self):
        grid = rx.LagrangianGrid(0.0, 6.0, 41)
        a = 2.1
        dt = 0.7 * grid.dx / a
        calls = []
        base = counting_jacobian(linear_jinxin(a, 1e-2), calls)
        x = grid.nodes()
        tab = la.tableau("BDF3")
        pT = lambda xx: np.exp(-((xx - 3.0) ** 2))
        for batch in ((), (3,)):
            model = dataclasses.replace(
                base, eps=np.full(batch + (1, 1), 1e-2) if batch else 1e-2)
            calls.clear()
            p0 = _eps_sweep(model, grid, tab, pT, 12, dt)
            assert calls == [(1, grid.n_nodes)]

            # the Jacobian evaluated at u = 0 anew for every step
            d = np.broadcast_to(pT(x), (np.size(model.eps), 1, x.size))
            adj = rx.AdjointField(model, grid, dt, tab,
                                  rx.terminal_multipliers(model, d))
            for _ in range(12):
                rx.adjoint_step(model, grid, adj, zero_state_jac(model, grid))
            assert len(calls) == 13
            expect = rx.gradient_from_adjoint(model, adj.current)[:, 0]
            assert np.array_equal(p0, expect)
            assert np.array_equal(np.signbit(p0), np.signbit(expect))


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
            assert calls == [(K, model.n_conserved, M) for K in sizes]

    def test_jacobian_buffer_bounded_by_the_block(self, monkeypatch):
        # peak traced memory of a 200-step Broadwell sweep, in rows of M
        # doubles: the field's arrays (35 rows) and the step's temporaries
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

    @pytest.mark.parametrize("kind", ["jin-xin", "broadwell"])
    @pytest.mark.parametrize("levels", [1, 4])
    def test_steps_take_planar_views_of_per_level_jacobians(
            self, kind, levels, monkeypatch):
        # every step reads its Jacobian out of a planar (Nv, n, K, M) block,
        # whose (K, M) planes are contiguous, and it equals the per-level
        # equilibrium_jac call at u_store[k - 1] bit for bit
        n_steps = 6
        model, grid, tab, u_store, lam_T, dt = blocked_jacobian_case(
            kind, 2, n_steps)
        Nv, n, M = model.n_velocities, model.n_conserved, grid.n_nodes
        monkeypatch.setattr(rx, "_JAC_BLOCK_NODES", levels * M)
        seen, step = [], rx.adjoint_step
        def record(model_, grid_, adj, jac):
            seen.append((jac.copy(), jac.strides))
            return step(model_, grid_, adj, jac)
        monkeypatch.setattr(rx, "adjoint_step", record)
        rx.solve_adjoint(model, grid, tab, u_store, lam_T, n_steps, dt)
        assert len(seen) == n_steps
        for (jac, strides), k in zip(seen, range(n_steps, 0, -1)):
            assert_bitwise(jac, model.equilibrium_jac(u_store[k - 1]))
            assert strides == (8 * n * levels * M, 8 * levels * M, 8)

    def test_short_or_misshapen_store_rejected(self, monkeypatch):
        # a store must hold n_steps levels of (n, M): a block slice would
        # silently truncate a short one, and a 1-level remainder would
        # broadcast; the sweep refuses both, and None, before it steps
        model, grid, tab, u_store, lam_T, dt = blocked_jacobian_case(
            "broadwell", 2, 6)
        steps = []
        monkeypatch.setattr(rx, "adjoint_step", lambda *a: steps.append(a))
        M = grid.n_nodes
        for store in (u_store[:5], u_store[:, :, :M - 1], u_store[:, :1],
                      u_store[:, 0], np.ones((7, 1, 2, M)), None):
            with pytest.raises(ValueError, match="u_store"):
                rx.solve_adjoint(model, grid, tab, store, lam_T, 6, dt)
        assert steps == []
        rx.solve_adjoint(model, grid, tab, u_store[:6], lam_T, 6, dt)
        assert len(steps) == 6


class TestFeetCache:
    """Fields of equal grid, speeds, dt, depth and batch share their feet."""

    @staticmethod
    def field(grid=None, dt=0.07, tab="BDF3", speeds=1.0, batch=(),
              kind=rx.KineticField):
        grid = grid or rx.LagrangianGrid(-2.5, 2.5, 33, boundary="clamp")
        model = rx.make_broadwell(speeds, 1e-2)
        return kind(model, grid, dt, la.tableau(tab),
                    np.zeros(batch + (3, grid.n_nodes)))

    def test_equal_keys_share_feet(self):
        for boundary in ("clamp", "periodic"):
            # equal, not identical, grids
            a, b = (self.field(rx.LagrangianGrid(-2.5, 2.5, 33, boundary))
                    for _ in range(2))
            assert a.feet is b.feet
            for name in ("ring", "comb", "gather", "E"):
                assert not np.shares_memory(getattr(a, name),
                                            getattr(b, name))
            index, weights, coefs = a.feet
            assert weights is not None        # 0.07 / dx is fractional
            # 3 x 33 or 32 nodes: flat indices on either boundary, a table
            # of both feet of the 3 levels per ring head
            level = (3, a.grid.n_nodes)
            assert [idx.shape for idx in index] == [(2, 3) + level] * 3
            assert [c.shape for c in coefs] == [(L,) + level
                                                for L in (1, 2, 3)]

    @pytest.mark.parametrize("dt", [0.1, 0.07], ids=["aligned", "fractional"])
    def test_sweeps_leave_the_feet_unchanged(self, kernel, dt):
        # the cached feet are plain arrays that every field of the key
        # gathers through: a forward and a batched adjoint sweep write none
        grid = rx.LagrangianGrid(-2.5, 2.5, 51, boundary="clamp")
        model, tab = rx.make_broadwell(grid.dx / 0.1, 1e-2), la.tableau("BDF3")
        x = grid.nodes()
        u0 = np.stack([1.0 + 0.3 * np.exp(-x ** 2), 0.1 * np.sin(x)])
        fld = rx.KineticField(model, grid, dt, tab, model.equilibrium(u0))
        adj = rx.AdjointField(model, grid, dt, tab, rx.terminal_multipliers(
            model, np.stack([u0, -u0])))
        cached = [arr for ring in (fld, adj)
                  for arr in (*ring.feet[0], ring.feet[1], *ring.feet[2])
                  if isinstance(arr, np.ndarray)]
        assert bool(cached) == (kernel == "take")
        before = [arr.copy() for arr in cached]
        jac = model.equilibrium_jac(u0)
        for _ in range(8):
            step_forward(model, grid, fld)
            rx.adjoint_step(model, grid, adj, jac)
        for arr, copy in zip(cached, before):
            assert arr.dtype == copy.dtype
            assert arr.tobytes() == copy.tobytes()

    @pytest.mark.parametrize("dt", [0.1, 0.07], ids=["aligned", "fractional"])
    def test_cached_factors_are_read_only(self, dt):
        # every field of the key multiplies by the same weights and -a: an
        # in-place write into them, directly or through a field's step
        # plan, is refused instead of corrupting every later field
        fld = self.field(dt=dt)
        index, weights, coefs = fld.feet
        factors = [*coefs] + ([weights] if weights is not None else [])
        factors += [f for plan in fld.plans for f in plan[3:] if f is not None]
        for f in factors:
            with pytest.raises(ValueError, match="read-only"):
                f *= 2.0
        # the index tables stay writeable: take copies a read-only index
        assert all(idx.flags.writeable for idx in index)

    @pytest.mark.parametrize("dt", [0.1, 0.07], ids=["aligned", "fractional"])
    def test_plans_view_the_field_buffers(self, dt):
        # plans[L-1] views the field's gather buffer and the key's weights
        # and -a for ramp entry L; both feet are views only when P = 2
        fld = self.field(dt=dt)
        index, weights, coefs = fld.feet
        assert len(fld.plans) == 3 and len(fld.slots) == 3
        for L, (at_feet, lo, hi, w, c) in enumerate(fld.plans, 1):
            assert at_feet.base is fld.gather and lo.base is fld.gather
            assert at_feet.shape[:2] == (len(index[0]), L)
            assert c is coefs[L - 1]
            assert (hi is None) == (w is None) == (weights is None)
            if w is not None:
                assert hi.base is fld.gather and w.base is weights
        for i, slot in enumerate(fld.slots):
            assert slot.base is fld.ring
            assert np.shares_memory(slot, fld.ring[i])
        wide = self.field(rx.LagrangianGrid(-2.5, 2.5, 4097, "clamp"))
        assert wide.plans is None

    @pytest.mark.parametrize("dt", [1e-4, 4e-5], ids=["aligned", "fractional"])
    def test_wide_periodic_feet_keep_no_index_per_node(self, dt):
        # a relax-wide level (nx = 40961) keeps slice pairs per row: the
        # cached feet hold no array that grows with the grid
        grid = rx.LagrangianGrid(-3.0, 3.0, 40961, "periodic")
        a = grid.dx / 1e-4
        fld = rx.KineticField(burgers_jinxin(a, 1e-2), grid, dt,
                              la.tableau("BDF3"), np.zeros((2, grid.n_nodes)))
        index, weights, coefs = fld.feet
        assert all(isinstance(rows, tuple) for level in index
                   for rows in level)
        assert all(isinstance(w, float) for level in weights or ()
                   for pair in level for w in pair)
        assert all(isinstance(c, float) for entry in coefs for c in entry)

    def test_any_key_change_gives_other_feet(self):
        feet = self.field().feet
        grid = rx.LagrangianGrid(-2.5, 2.5, 33, boundary="clamp")
        assert self.field(grid).feet is feet
        others = [
            self.field(dt=0.08),
            self.field(rx.LagrangianGrid(-2.5, 2.5, 33, "periodic")),
            self.field(rx.LagrangianGrid(-2.5, 2.5, 35, "clamp")),
            self.field(kind=rx.AdjointField),           # speeds of -v
            self.field(batch=(2,), kind=rx.AdjointField),
            self.field(tab="BDF2"),                     # depth
            self.field(speeds=1.5),
        ]
        assert all(o.feet is not feet for o in others)
        assert len({id(o.feet) for o in others}) == len(others)

    def test_cache_is_small(self):
        assert rx._feet.cache_info().maxsize <= 16

    @pytest.mark.parametrize("iterations", [1, 4])
    def test_descent_reuses_two_keys(self, tmp_path, iterations):
        # the target's forward solve shares the descent's forward key: I + 2
        # forward solves and I adjoint solves miss once per key
        rx._feet.cache_clear()
        cfg = parse_config(f"[control-jinxin]\nnx = 40\n"
                           f"iterations = {iterations}\n")
        rows = run_control(cfg, str(tmp_path), "control-jinxin")
        assert len(rows) == iterations + 1
        info = rx._feet.cache_info()
        assert (info.hits, info.misses) == (2 * iterations, 2)

    def test_eps_study_leaves_two_entries(self, tmp_path):
        # each of the study's 10 keys (a coarse and a fine sweep per grid)
        # serves one sweep: the cache keeps no more than a descent reuses
        rx._feet.cache_clear()
        run_relax_adjoint(parse_config("[relax-adjoint]\n"), str(tmp_path))
        info = rx._feet.cache_info()
        assert (info.hits, info.misses) == (0, 10) and info.currsize <= 2


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


def warm_step_rows(model, grid, dt, u0, slack=0, fields=None):
    """Peak rows of one warm BDF3 forward step and one warm adjoint step
    (with ``out`` and the Jacobian, as the sweeps call them: a level of a
    planar (Nv, n, K, M) block), less ``slack`` bytes.  The two fields are
    appended to ``fields`` if given."""
    tab = la.tableau("BDF3")
    fld = rx.KineticField(model, grid, dt, tab, model.equilibrium(u0))
    adj = rx.AdjointField(model, grid, dt, tab,
                          rx.terminal_multipliers(model, u0))
    u_out = np.empty_like(u0)
    block = model.equilibrium_jac(np.stack([u0] * 3)).transpose(1, 2, 0, 3)
    jac = np.ascontiguousarray(block)[:, :, 1]   # planar, level 1 of 3
    for _ in range(tab.s + 1):  # fill both rings
        rx.forward_step(model, grid, fld, out=u_out)
        rx.adjoint_step(model, grid, adj, jac)
    if fields is not None:
        fields += [fld, adj]
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
    """Warm steps run in their field's buffers, and their guard is a dot
    that allocates nothing: NumPy reports its buffers to tracemalloc, and
    what a step still allocates is, forward, the model's own temporaries
    (Burgers' 0.5*u*u takes one row, Broadwell's flux two) and per-call
    overhead; the adjoint step takes its Jacobian evaluated.  Each bound is
    the measured peak rounded up to the next tenth of a row (numpy 2.4,
    CPython 3.11)."""

    @pytest.mark.parametrize("ratio", [1.0, 0.7])
    def test_jinxin_burgers(self, ratio):
        grid = rx.LagrangianGrid(0.0, 6.0, 4098)
        a = 2.1
        x = grid.nodes()
        u0 = (0.5 + np.exp(-((x - 3.0) ** 2)))[None, :]
        fwd, bwd = warm_step_rows(burgers_jinxin(a, 1e-2), grid,
                                  ratio * grid.dx / a, u0)
        assert fwd <= 1.1 and bwd <= 0.1, (fwd, bwd)  # 1.02, 0.05

    @pytest.mark.parametrize("ratio", [1.0, 0.7])
    def test_windowed_jinxin_burgers(self, ratio):
        # box data on a tenth of a 40960-node grid: a warm step computes on
        # its window, so what it allocates is bounded in window rows
        # (Burgers' 0.5*u*u forward, the window's slices and per-call
        # overhead), not in grid rows
        grid = rx.LagrangianGrid(0.0, 6.0, 40961)
        a, x = 2.1, grid.nodes()
        u0 = np.where(np.abs(x - 3.0) <= 0.3, 0.5 + np.exp(-((x - 3.0) ** 2)),
                      0.0)[None, :]
        fields = []
        fwd, bwd = warm_step_rows(burgers_jinxin(a, 1e-2), grid,
                                  ratio * grid.dx / a, u0, fields=fields)
        (lo, hi), M = fields[0].span[:2], grid.n_nodes
        assert all(f.windows is not None for f in fields)
        assert fields[1].span[:2] == (lo, hi) and hi - lo < M // 8
        fwd, bwd = fwd * M / (hi - lo), bwd * M / (hi - lo)
        assert fwd <= 1.1 and bwd <= 0.2, (fwd, bwd)  # 1.07, 0.13

    @pytest.mark.parametrize("ratio", [1.0, 0.7])
    def test_clamped_broadwell(self, ratio):
        grid = rx.LagrangianGrid(-2.5, 2.5, 4097, boundary="clamp")
        x = grid.nodes()
        u0 = np.stack([1.0 + 0.3 * np.exp(-x ** 2),
                       0.2 * np.exp(-((x - 0.5) ** 2))])
        fwd, bwd = warm_step_rows(rx.make_broadwell(1.0, 1e-2), grid,
                                  ratio * grid.dx, u0)
        assert fwd <= 3.1 and bwd <= 0.1, (fwd, bwd)  # 2.02, 0.07

    @pytest.mark.parametrize("ratio", [1.0, 0.7])
    def test_jinxin_burgers_below_take_threshold(self, ratio):
        # nx = 121 and 321 gather each level with one take, straight
        # through the cached indices; a copied index would add Nv rows at
        # the moment of the take
        grid = rx.LagrangianGrid(0.0, 6.0, 121)
        assert 2 * grid.n_nodes <= rx._TAKE_MAX_ELEMENTS
        a = 2.1
        x = grid.nodes()
        u0 = (0.5 + np.exp(-((x - 3.0) ** 2)))[None, :]
        fwd, bwd = warm_step_rows(burgers_jinxin(a, 1e-2), grid,
                                  ratio * grid.dx / a, u0,
                                  STEP_OVERHEAD_BYTES)
        assert fwd <= 0.6 and bwd <= 0.7, (fwd, bwd)  # 0.58, 0.50

    @pytest.mark.parametrize("ratio", [1.0, 0.7])
    def test_clamped_broadwell_below_take_threshold(self, ratio):
        grid = rx.LagrangianGrid(-2.5, 2.5, 321, boundary="clamp")
        assert 3 * grid.n_nodes <= rx._TAKE_MAX_ELEMENTS
        x = grid.nodes()
        u0 = np.stack([1.0 + 0.3 * np.exp(-x ** 2),
                       0.2 * np.exp(-((x - 0.5) ** 2))])
        fwd, bwd = warm_step_rows(rx.make_broadwell(1.0, 1e-2), grid,
                                  ratio * grid.dx, u0, STEP_OVERHEAD_BYTES)
        assert fwd <= 2.9 and bwd <= 0.3, (fwd, bwd)  # 1.80, 0.23

    def test_batched_adjoint_with_array_eps(self):
        # an eps of shape (B, 1, 1) multiplies through the field's
        # level-shaped weights and the guard is one dot, so a warm batched
        # step allocates no level-sized buffer, less than the isfinite
        # check of one level does on its own
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
        assert step <= 0.2 < check < 2, (step, check)  # 0.10, 1.46

    def test_ring_holds_every_level(self, kernel):
        # every step, ramp included, writes its level into a slot of the
        # field's one ring array and allocates no level (2 rows) or mask
        grid = rx.LagrangianGrid(0.0, 6.0, 1025)
        model, tab = linear_jinxin(2.1, 1e-2), la.tableau("BDF3")
        x = grid.nodes()
        u0 = np.exp(-((x - 3.0) ** 2))[None, :]
        dt = 0.7 * grid.dx / 2.1
        fld = rx.KineticField(model, grid, dt, tab, model.equilibrium(u0))
        adj = rx.AdjointField(model, grid, dt, tab,
                              rx.terminal_multipliers(model, u0))
        rings = fld.ring, adj.ring
        out, jac = np.empty_like(u0), zero_state_jac(model, grid)
        M = grid.n_nodes
        for n in range(2 * tab.s + 1):
            rows = (traced_peak_rows(
                        lambda: rx.forward_step(model, grid, fld, out), M,
                        STEP_OVERHEAD_BYTES),
                    traced_peak_rows(
                        lambda: rx.adjoint_step(model, grid, adj, jac), M,
                        STEP_OVERHEAD_BYTES))
            assert max(rows) <= 0.1, (n, rows)  # 0.06, 0.08
            for f, ring in zip((fld, adj), rings):
                assert f.ring is ring and f.ring.shape == (3, 2, M)
                assert np.shares_memory(f.current, ring)
        assert fld.n == adj.n == 2 * tab.s + 1
