"""Initial-data control of relaxation systems by adjoint gradient descent.

The loop alternates a forward kinetic solve, a backward adjoint solve, a
Barzilai-Borwein step on the macroscopic initial data, and an optional
TV-reducing smoothing filter.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .relaxation import (LagrangianGrid, RelaxationModel,
                         gradient_from_adjoint, solve_adjoint, solve_forward,
                         terminal_multipliers)
from .tableaus import MultistepTableau, SolverError


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
            raise ValueError(
                f"state shape {u_terminal.shape} != target {self.target.shape}")
        return u_terminal - self.target


def tv_filter(u: np.ndarray, grid: LagrangianGrid) -> np.ndarray:
    """Three-point convex smoothing (u_{i-1} + 2 u_i + u_{i+1})/4.

    Periodic grids wrap; clamped grids repeat the edge value.  The stencil is
    a convex average, so discrete total variation never increases.
    """
    u = np.asarray(u, dtype=float)
    left, right = u[..., grid.upstream(1)], u[..., grid.upstream(-1)]
    return 0.25 * (left + 2.0 * u + right)


def bb_step(du: np.ndarray, dg: np.ndarray, sigma: float,
            variant: str) -> float:
    """Barzilai-Borwein step from the increments ``du`` of the control and
    ``dg`` of the gradient over the last iteration.

    bb2: <du, dg>/<dg, dg> (the more conservative step);
    bb1: <du, du>/<du, dg>.  Steps are safeguarded to [1e-6, 1e2];
    degenerate curvature (zero or negative denominators) keeps ``sigma``,
    the previous step size.  The step is a Python float throughout, so the
    safeguard is ``math.isfinite`` and ``min``/``max``, not NumPy calls.
    """
    du, dg = du.ravel(), dg.ravel()
    if variant == "bb2":
        num, den = float(du @ dg), float(dg @ dg)
    elif variant == "bb1":
        num, den = float(du @ du), float(du @ dg)
    else:
        raise ValueError(f"unknown BB variant {variant!r}")
    if den == 0.0:
        return sigma
    step = num / den
    if not math.isfinite(step) or step <= 0.0:
        return sigma
    return min(max(step, 1e-6), 1e2)


@dataclass
class OptimizeResult:
    control: np.ndarray          # optimized initial data (n, M)
    u_terminal: np.ndarray       # terminal state of the last forward solve
    iterations: list[dict]       # per-iteration log rows


def optimize(model: RelaxationModel, grid: LagrangianGrid,
             tab: MultistepTableau, functional: TrackingFunctional,
             initial_guess: np.ndarray, n_steps: int, dt: float,
             iterations: int, sigma0: float, bb_variant: str,
             filter_every: int,
             callback: Callable | None = None) -> OptimizeResult:
    """Adjoint-gradient descent on the macroscopic initial data.

    Each iteration: forward solve -> evaluate J -> adjoint solve -> gradient
    -> BB step (``bb_step`` with ``bb_variant``; the first iteration steps
    ``sigma0``) -> update -> optional TV filter (every ``filter_every``
    iterations; 0 disables).  Stops at the iteration cap, on a vanishing
    functional, or when the gradient sup-norm drops below 1e-8.  Every
    forward solve after the first writes into the first one's store
    (``solve_forward``'s ``out``), so a descent holds one store.  A
    ``SolverError`` of either solve gains the descent iteration k in its
    message and keeps its step index.
    The loop is deterministic for a fixed configuration.
    """
    control = np.atleast_2d(np.asarray(initial_guess, dtype=float)).copy()
    sigma = sigma0
    prev = None  # control and gradient of the previous iteration
    log: list[dict] = []
    u_store = None  # the first forward solve's store, rewritten by the rest
    try:
        for k in range(iterations + 1):
            u_store = solve_forward(model, grid, tab, control, n_steps, dt,
                                    out=u_store)[1]
            u_T = u_store[-1].copy()
            J = functional(u_T)
            if k == iterations or J == 0.0:
                log.append({"k": k, "J": J, "sigma": sigma,
                            "grad_inf_norm": 0.0})
                break
            lam_T = terminal_multipliers(model,
                                         functional.terminal_mismatch(u_T))
            lam0 = solve_adjoint(model, grid, tab, u_store, lam_T, n_steps,
                                 dt)
            grad = gradient_from_adjoint(model, lam0, control)
            gnorm = float(np.max(np.abs(grad)))
            if prev is not None:
                sigma = bb_step(control - prev[0], grad - prev[1], sigma,
                                bb_variant)
            log.append({"k": k, "J": J, "sigma": sigma,
                        "grad_inf_norm": gnorm})
            if callback is not None:
                callback(k, J, sigma, gnorm, control)
            if gnorm < 1e-8:
                break
            prev = control, grad
            control = control - sigma * grad
            if filter_every and (k + 1) % filter_every == 0:
                control = tv_filter(control, grid)
    except SolverError as exc:
        raise SolverError(f"{exc} in descent iteration {k}",
                          exc.step_index) from None
    return OptimizeResult(control=control, u_terminal=u_T, iterations=log)
