"""Initial-data control of relaxation systems by adjoint gradient descent.

The loop alternates a forward kinetic solve, a backward adjoint solve, a
Barzilai-Borwein step on the macroscopic initial data, and an optional
TV-reducing smoothing filter.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .relaxation import (LagrangianGrid, RelaxationModel, solve_adjoint,
                         solve_forward, terminal_multipliers)
from .tableaus import MultistepTableau


class GridMismatchError(ValueError):
    """State and target live on different grids."""


@dataclass(frozen=True)
class TrackingFunctional:
    """J = 1/2 sum_i |u_i(T) - target_i|^2 dx (midpoint-rule quadrature).

    ``target`` is (n, M); vector-valued components (Broadwell rho/m) are
    summed.  J >= 0 with equality exactly on the target.
    """

    target: np.ndarray
    dx: float

    def __post_init__(self):
        object.__setattr__(self, "target",
                           np.atleast_2d(np.asarray(self.target, dtype=float)))

    def __call__(self, u_terminal: np.ndarray) -> float:
        return 0.5 * self.dx * float(np.sum(self.terminal_mismatch(u_terminal) ** 2))

    def terminal_mismatch(self, u_terminal: np.ndarray) -> np.ndarray:
        """Pointwise deviation driving the adjoint terminal data."""
        u_terminal = np.atleast_2d(u_terminal)
        if u_terminal.shape != self.target.shape:
            raise GridMismatchError(
                f"state shape {u_terminal.shape} != target {self.target.shape}")
        return u_terminal - self.target


def gradient_from_adjoint(model: RelaxationModel, lam0: np.ndarray,
                          u0: np.ndarray | None = None) -> np.ndarray:
    """Descent direction for the macroscopic initial data from lambda(0).

    Single-moment models: p(0,.) = sum_j lambda^j(0,.).  Multi-moment models
    contract with the equilibrium Jacobian at the current initial data
    (chain rule through the equilibrium lifting f^j_0 = E_j(u_0)):
    g_r = sum_j lambda^j(0,.) dE_j/du_r(u_0).
    """
    if model.n_conserved == 1:
        return lam0.sum(axis=0, keepdims=True)
    if u0 is None:
        raise ValueError("multi-moment gradient needs the current initial data")
    jac = model.equilibrium_jac(np.atleast_2d(u0))
    return np.einsum("jm,jrm->rm", lam0, jac)


def tv_filter(u: np.ndarray, grid: LagrangianGrid) -> np.ndarray:
    """Three-point convex smoothing (u_{i-1} + 2 u_i + u_{i+1})/4.

    Periodic grids wrap; clamped grids repeat the edge value.  The stencil is
    a convex average, so discrete total variation never increases.
    """
    u = np.asarray(u, dtype=float)
    if grid.boundary == "periodic":
        left = np.roll(u, 1, axis=-1)
        right = np.roll(u, -1, axis=-1)
    else:
        left = np.concatenate([u[..., :1], u[..., :-1]], axis=-1)
        right = np.concatenate([u[..., 1:], u[..., -1:]], axis=-1)
    return 0.25 * (left + 2.0 * u + right)


@dataclass
class DescentState:
    """Barzilai-Borwein bookkeeping across iterations."""

    control: np.ndarray
    sigma: float
    k: int = 0
    prev_control: np.ndarray | None = None
    prev_gradient: np.ndarray | None = None


def bb_step(state: DescentState, gradient: np.ndarray,
            variant: str = "bb2") -> float:
    """Barzilai-Borwein step from the last (control, gradient) increment.

    bb2: <du, dg>/<dg, dg> (default, the more conservative step);
    bb1: <du, du>/<du, dg>.  Steps are safeguarded to [1e-6, 1e2];
    degenerate curvature (zero or negative denominators) keeps the previous
    step size.
    """
    if state.prev_control is None or state.prev_gradient is None:
        return state.sigma
    du = (state.control - state.prev_control).ravel()
    dg = (gradient - state.prev_gradient).ravel()
    if variant == "bb2":
        num, den = float(du @ dg), float(dg @ dg)
    elif variant == "bb1":
        num, den = float(du @ du), float(du @ dg)
    else:
        raise ValueError(f"unknown BB variant {variant!r}")
    if den == 0.0:
        return state.sigma
    sigma = num / den
    if not np.isfinite(sigma) or sigma <= 0.0:
        return state.sigma
    return float(np.clip(sigma, 1e-6, 1e2))


@dataclass
class OptimizeResult:
    state: DescentState
    control: np.ndarray          # optimized initial data (n, M)
    u_terminal: np.ndarray       # terminal state of the last forward solve
    iterations: list[dict]       # per-iteration log rows


def optimize(model: RelaxationModel, grid: LagrangianGrid,
             tab: MultistepTableau, functional: TrackingFunctional,
             initial_guess: np.ndarray, n_steps: int, dt: float,
             iterations: int, sigma0: float = 0.1,
             bb_variant: str = "bb2", filter_every: int = 1,
             callback: Callable | None = None) -> OptimizeResult:
    """Adjoint-gradient descent on the macroscopic initial data.

    Each iteration: forward solve -> evaluate J -> adjoint solve -> gradient
    -> BB step -> update -> optional TV filter (every ``filter_every``
    iterations; 0 disables).  Stops at the iteration cap, on a vanishing
    functional, or when the gradient sup-norm drops below 1e-8.
    The loop is deterministic for a fixed configuration.
    """
    u0 = np.atleast_2d(np.asarray(initial_guess, dtype=float)).copy()
    state = DescentState(control=u0, sigma=sigma0)
    log: list[dict] = []
    u_T = None
    for k in range(iterations + 1):
        u_store = solve_forward(model, grid, tab, state.control,
                                n_steps, dt)[1]
        u_T = u_store[-1].copy()
        J = functional(u_T)
        state.k = k
        if k == iterations or J == 0.0:
            log.append({"k": k, "J": J, "sigma": state.sigma,
                        "grad_inf_norm": 0.0})
            break
        mismatch = functional.terminal_mismatch(u_T)
        lam_T = terminal_multipliers(model, mismatch)
        lam0 = solve_adjoint(model, grid, tab, u_store, lam_T, n_steps, dt)
        del u_store  # dead: the next forward solve allocates a fresh store
        grad = gradient_from_adjoint(model, lam0, state.control)
        gnorm = float(np.max(np.abs(grad)))
        sigma = bb_step(state, grad, variant=bb_variant)
        log.append({"k": k, "J": J, "sigma": sigma, "grad_inf_norm": gnorm})
        if callback is not None:
            callback(k, J, sigma, gnorm, state.control)
        if gnorm < 1e-8:
            break
        new_control = state.control - sigma * grad
        if filter_every and (k + 1) % filter_every == 0:
            new_control = tv_filter(new_control, grid)
        state.prev_control = state.control
        state.prev_gradient = grad
        state.control = new_control
        state.sigma = sigma
    return OptimizeResult(state=state, control=state.control,
                          u_terminal=u_T, iterations=log)
