"""Built-in control problems used by the convergence studies and tests."""

from __future__ import annotations

import numpy as np

from .ode_control import OdeControlProblem


def constant_coefficient_study(T: float = 1.0) -> OdeControlProblem:
    """Adjoint study with f_y = 1: exact multiplier p(t) = exp(T - t).

    The forward dynamics f(y) = y never enter the adjoint recurrences here;
    the study prescribes the trajectory and seeds the terminal history from
    the exact multiplier (terminal value 1).
    """
    return OdeControlProblem(
        f=lambda y, u, t: y,
        f_y=lambda y, u, t: np.ones(np.shape(y) + (1,)),
        f_u=lambda y, u, t: np.array([0.0]),
        terminal_cost=lambda yT: float(yT[0]),
        terminal_cost_grad=lambda yT: np.array([1.0]),
        y0=1.0,
        y_exact=lambda t: np.exp(t),
        p_exact=lambda t: np.exp(T - t),
    )


def quadratic_coefficient_study(T: float = 1.0) -> OdeControlProblem:
    """Adjoint study with f_y(t) = y(t) = t^2: p(t) = exp((T^3 - t^3)/3).

    The state is prescribed analytically as y(t) = t^2 (f(y) = y^2/2 so that
    f_y = y), exposing the order reduction of Adams-type discrete adjoints.
    Products rather than powers round alike in every dtype, so a long-double
    T gives the long-double study values.
    """
    return OdeControlProblem(
        f=lambda y, u, t: 0.5 * y ** 2,
        f_y=lambda y, u, t: y[..., None],
        f_u=lambda y, u, t: np.array([0.0]),
        terminal_cost=lambda yT: float(yT[0]),
        terminal_cost_grad=lambda yT: np.array([1.0]),
        y0=0.0,
        y_exact=lambda t: t * t,
        p_exact=lambda t: np.exp((T * T * T - t * t * t) / 3.0),
    )


def terminal_tracking_problem(T: float = 0.9, alpha: float = 1.0) -> OdeControlProblem:
    """Full optimality system: min 1/2 (y(T) - 1/(1-T))^2 + alpha/2 int u^2
    subject to y' = y^2 + u, y(0) = 1.

    For u = 0 the exact state is y(t) = 1/(1-t) and the exact multiplier
    vanishes identically.
    """
    target = 1.0 / (1.0 - T)
    return OdeControlProblem(
        f=lambda y, u, t: y ** 2 + u,
        f_y=lambda y, u, t: (2.0 * y)[..., None],
        f_u=lambda y, u, t: np.array([1.0]),
        terminal_cost=lambda yT: 0.5 * float((yT[0] - target) ** 2),
        terminal_cost_grad=lambda yT: np.atleast_1d(yT - target),
        alpha=alpha,
        y0=1.0,
        y_exact=lambda t: 1.0 / (1.0 - t),
    )
