"""The gradient contract as a Taylor table: every gradient is exact or a
labelled approximation, told apart without a tolerance.

For a cost J and a gradient g paired with a direction d,

    r(h) = |J(u + h d) - J(u) - h <g, d>|

is O(h^2) when g is the exact derivative of J and O(h) otherwise, with the
gap <g_exact - g, d> as the O(h) constant (the Taylor test of Farrell, Ham,
Funke & Rognes 2013).  Over a ladder of h, each rung a quarter of the last,
the rates log2(r(h) / r(h/4)) / 2 tell the two apart: an exact row needs
every rate >= 1.9, an approximate row its last rate in [0.9, 1.1].

Run with ``pytest tests/test_gradient_contract.py -v -s`` to see each row's
rates and, for approximate rows, the gap constant r(h)/h.
"""

import numpy as np
import pytest

import lmm_adjoint as la
from lmm_adjoint import relaxation as rx
from lmm_adjoint.control import TrackingFunctional
from lmm_adjoint.ode_control import (cost_gradient_dto, discrete_cost,
                                     solve_adjoint_dto, solve_forward)
from lmm_adjoint.problems import terminal_tracking_problem

ODE_LADDER = 2.0 ** -np.arange(4, 15, 2)          # 2^-4, ..., 2^-14
RELAX_LADDER = 2.0 ** -np.arange(2, 17, 2)        # 2^-2, ..., 2^-16


def taylor_rates(J, gd, hs):
    """Remainders r(h) of J along its direction for every h of the ladder
    ``hs``, and the rates between neighbouring rungs."""
    J0 = J(0.0)
    r = np.array([abs(J(h) - J0 - h * gd) for h in hs])
    return r, np.log2(r[:-1] / r[1:]) / 2


def ode_dto(scheme):
    """DtO gradient of the discrete cost of the terminal tracking problem
    (T = 0.5, N = 40) at u_i = 0.3 sin(0.2 i), paired as sum g d."""
    prob = terminal_tracking_problem(T=0.5)
    tab, grid = la.tableau(scheme), la.TimeGrid(0.5, 40)
    i = np.arange(grid.N + tab.s)
    u, d = 0.3 * np.sin(0.2 * i), np.cos(0.7 * i)
    traj = solve_forward(prob, tab, grid, u)
    g = cost_gradient_dto(prob, traj, solve_adjoint_dto(prob, tab, grid, traj))
    J = lambda h: discrete_cost(prob, solve_forward(prob, tab, grid, u + h * d))
    return J, float(np.sum(g * d))


def relaxation(model, grid, scheme, u0, d, n_steps, dt):
    """Adjoint gradient of J = 1/2 dx sum u(T)^2, formed from the forward
    store through ``terminal_multipliers``, ``solve_adjoint`` and
    ``gradient_from_adjoint`` as the descent forms it, paired as
    dx sum g d."""
    tab = la.tableau(scheme)
    functional = TrackingFunctional(np.zeros_like(u0), grid.dx)
    u_store = rx.solve_forward(model, grid, tab, u0, n_steps, dt)[1]
    lam_T = rx.terminal_multipliers(
        model, functional.terminal_mismatch(u_store[-1]))
    lam0 = rx.solve_adjoint(model, grid, tab, u_store, lam_T, n_steps, dt)
    g = rx.gradient_from_adjoint(model, lam0, u0)
    J = lambda h: functional(rx.solve_forward(model, grid, tab, u0 + h * d,
                                              n_steps, dt)[1][-1])
    return J, grid.dx * float(np.sum(g * d))


def jin_xin(flux, scheme):
    """41 periodic points on [-3, 3], a = 1.5, dt = dx/a, 20 steps,
    eps = 0.1, u0 = 0.2 + 0.6 exp(-x^2), d = sin x."""
    grid = rx.LagrangianGrid(-3.0, 3.0, 41)
    x, a = grid.nodes(), 1.5
    model = rx.make_jin_xin(*rx.JIN_XIN_FLUXES[flux], a, 0.1)
    u0 = (0.2 + 0.6 * np.exp(-x ** 2))[None, :]
    return relaxation(model, grid, scheme, u0, np.sin(x)[None, :], 20,
                      grid.dx / a)


def broadwell(scheme, cfl):
    """41 periodic points on [-2.5, 2.5], c = 1, eps = 1e-2, c dt = cfl dx,
    8 steps, rho = 1 + 0.2 exp(-4x^2), m = 0.3 exp(-4x^2),
    d = (cos x, sin x)."""
    grid = rx.LagrangianGrid(-2.5, 2.5, 41)
    x = grid.nodes()
    bump = np.exp(-4 * x ** 2)
    u0 = np.stack([1.0 + 0.2 * bump, 0.3 * bump])
    return relaxation(rx.make_broadwell(1.0, 1e-2), grid, scheme, u0,
                      np.stack([np.cos(x), np.sin(x)]), 8, cfl * grid.dx)


# (row, gradient, its arguments, ladder, class).  Left out: Jin-Xin at
# eps = 1e-2 and Broadwell BDF2 on fractional feet, whose rates are still
# between 2 and 1 at the end of the ladder (1.23 for Broadwell at 2^-16).
ROWS = ([(f"ode-dto-{s}", ode_dto, (s,), ODE_LADDER, "exact")
         for s in ("BDF2", "BDF4", "AM4", "AB3")]
        + [(f"jin-xin-{f}-BDF{k}", jin_xin, (f, f"BDF{k}"), RELAX_LADDER,
            "approximate") for f in ("linear", "burgers") for k in (1, 2, 3)]
        + [("broadwell-BDF1-aligned", broadwell, ("BDF1", 1.0),
            RELAX_LADDER, "exact"),
           ("broadwell-BDF1-fractional", broadwell, ("BDF1", 0.6),
            RELAX_LADDER, "exact"),
           ("broadwell-BDF2-aligned", broadwell, ("BDF2", 1.0),
            RELAX_LADDER, "approximate")])


@pytest.mark.parametrize("gradient, args, ladder, kind",
                         [row[1:] for row in ROWS], ids=[r[0] for r in ROWS])
def test_taylor_table(gradient, args, ladder, kind):
    r, rates = taylor_rates(*gradient(*args), ladder)
    gap = r[-1] / ladder[-1]
    print(f"\nTAYLOR {kind}: rates {np.round(rates, 2).tolist()}"
          + (f", gap r(h)/h = {gap:.3e}" if kind == "approximate" else ""))
    if kind == "exact":
        assert np.all(rates >= 1.9), rates
    else:
        assert 0.9 <= rates[-1] <= 1.1, rates
