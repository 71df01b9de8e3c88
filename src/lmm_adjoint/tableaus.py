"""Linear multistep tableaus and the generic s-stage recurrence.

An s-stage scheme is described by coefficient vectors ``a`` (length s) and
``b`` (length s+1, with ``b[0]`` the coefficient of the implicit, newest
right-hand-side evaluation).  The update reads

    y_{n+1} = -sum_i a[i] * y_{n-i} + dt * ( b[0]*f(y_{n+1})
              + sum_{k>=0} b[k+1]*f(y_{n-k}) )

Coefficients are stored as exact rationals and converted to floating point
once, so consistency identities hold to the last ulp.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

import numpy as np


class ConfigError(ValueError):
    """An input value is invalid; the message names the offending key or
    value."""


class SolverError(RuntimeError):
    """The numerics failed on valid input; ``step_index`` is the step of the
    sweep that failed, where there is one."""

    def __init__(self, message, step_index=None):
        super().__init__(message)
        self.step_index = step_index


class ImplicitSolveError(SolverError):
    """Newton iteration for an implicit step did not converge."""

    def __init__(self, message, residual=None, iterations=None):
        super().__init__(message)
        self.residual = residual
        self.iterations = iterations


@dataclass(frozen=True)
class MultistepTableau:
    """Coefficient pair (a, b) plus metadata for one multistep scheme.

    ``a_exact`` has s entries (a_0, ..., a_{s-1}); ``b_exact`` has s+1
    entries (b_{-1}, b_0, ..., b_{s-1}).  Float coefficients and the scheme
    classification are derived once, at construction:

    - ``a``, ``b``: the coefficients as tuples of Python floats;
    - ``b_implicit``: the weight b_{-1} of the implicit evaluation;
    - ``is_implicit``: b_{-1} != 0;
    - ``is_bdf``: b_{-1} != 0 and b_i = 0 for all i >= 0;
    - ``is_adams``: a = (-1, 0, ..., 0);
    - ``is_adams_bashforth``: explicit Adams (b_{-1} = 0);
    - ``is_adams_moulton``: implicit Adams that is not a BDF scheme.
    """

    name: str
    s: int
    a_exact: tuple[Fraction, ...]
    b_exact: tuple[Fraction, ...]
    nominal_order: int
    a: tuple[float, ...] = field(init=False, repr=False, compare=False)
    b: tuple[float, ...] = field(init=False, repr=False, compare=False)
    b_implicit: float = field(init=False, repr=False, compare=False)
    is_implicit: bool = field(init=False, repr=False, compare=False)
    is_bdf: bool = field(init=False, repr=False, compare=False)
    is_adams: bool = field(init=False, repr=False, compare=False)
    is_adams_bashforth: bool = field(init=False, repr=False, compare=False)
    is_adams_moulton: bool = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.s < 1 or len(self.a_exact) != self.s or len(self.b_exact) != self.s + 1:
            raise ValueError(f"inconsistent tableau dimensions for {self.name!r}")
        if 1 + sum(self.a_exact) != 0:
            raise ValueError(f"tableau {self.name!r} violates 1 + sum(a) = 0")
        implicit = self.b_exact[0] != 0
        bdf = implicit and all(c == 0 for c in self.b_exact[1:])
        adams = self.a_exact[0] == -1 and all(c == 0 for c in self.a_exact[1:])
        derived = {
            "a": tuple(float(c) for c in self.a_exact),
            "b": tuple(float(c) for c in self.b_exact),
            "b_implicit": float(self.b_exact[0]),
            "is_implicit": implicit,
            "is_bdf": bdf,
            "is_adams": adams,
            "is_adams_bashforth": adams and not implicit,
            "is_adams_moulton": adams and implicit and not bdf,
        }
        for key, value in derived.items():
            object.__setattr__(self, key, value)


def _F(*vals) -> tuple[Fraction, ...]:
    return tuple(Fraction(v) for v in vals)


_AM4_B_720 = _F("251/720", "646/720", "-264/720", "106/720", "-19/720")
# Printed-table variant with denominator 270; inconsistent as an integrator,
# kept only for source-fidelity experiments (registered as "AM4-270").
_AM4_B_270 = _F("251/270", "646/270", "-264/270", "106/270", "-19/270")

_REGISTRY: dict[str, MultistepTableau] = {}


def _norm_key(name: str) -> str:
    key = name.strip().lower()
    for ch in " _()":
        key = key.replace(ch, "")
    return key


def _register(tab: MultistepTableau, *aliases: str):
    for key in (tab.name, *aliases):
        _REGISTRY[_norm_key(key)] = tab


_register(MultistepTableau("ImplicitEuler", 1, _F(-1), _F(1, 0), 1), "bdf1")
_register(MultistepTableau("ExplicitEuler", 1, _F(-1), _F(0, 1), 1), "ab1", "euler")
# BDF2..BDF6 over a common denominator d: numerators of a_0..a_{s-1}, and
# of b_-1 (every other b_i is 0)
for _s, _d, _a, _b in ((2, 3, (-4, 1), 2),
                       (3, 11, (-18, 9, -2), 6),
                       (4, 25, (-48, 36, -16, 3), 12),
                       (5, 137, (-300, 300, -200, 75, -12), 60),
                       (6, 147, (-360, 450, -400, 225, -72, 10), 60)):
    _register(MultistepTableau(f"BDF{_s}", _s,
                               tuple(Fraction(c, _d) for c in _a),
                               (Fraction(_b, _d),) + (Fraction(0),) * _s, _s))
_register(MultistepTableau("AB2", 2, _F(-1, 0), _F(0, "3/2", "-1/2"), 2))
_register(MultistepTableau("AB3", 3, _F(-1, 0, 0), _F(0, "23/12", "-4/3", "5/12"), 3))
_register(MultistepTableau("AM4", 4, _F(-1, 0, 0, 0), _AM4_B_720, 5))
_register(MultistepTableau("AM4-270", 4, _F(-1, 0, 0, 0), _AM4_B_270, 5), "am4_270")


def tableau(name: str) -> MultistepTableau:
    """Look up a scheme by name, ignoring case, blanks, underscores and
    parentheses ('BDF2', 'bdf(2)' and 'bdf_2' all work).

    "AM4" is the consistent Adams-Moulton(4) scheme (denominator 720);
    "AM4-270" (alias "am4_270") is the 270-denominator variant printed in
    some sources.
    """
    try:
        return _REGISTRY[_norm_key(name)]
    except KeyError:
        known = sorted({t.name for t in _REGISTRY.values()})
        raise ConfigError(f"unknown tableau {name!r}; known: {known}") from None


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid t_n = n*dt with N steps from 0 up to T."""

    T: float
    N: int

    def __post_init__(self):
        if not self.T > 0:
            raise ValueError("TimeGrid requires T > 0")
        if self.N < 1:
            raise ValueError("TimeGrid requires N >= 1")

    @property
    def dt(self) -> float:
        return self.T / self.N

    def t(self, n) -> float:
        """Time at (possibly negative or fractional) step index n."""
        return n * self.dt


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


def step(tab: MultistepTableau, states, fvals, dt: float, rhs: Callable,
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


def _rk4(rhs, y, t, dt):
    h = dt / 4
    for i in range(4):
        ti = t + i * h
        k1 = rhs(y, ti)
        k2 = rhs(y + 0.5 * h * k1, ti + 0.5 * h)
        k3 = rhs(y + 0.5 * h * k2, ti + 0.5 * h)
        k4 = rhs(y + h * k3, ti + h)
        y = y + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    return y


def bootstrap_history(tab: MultistepTableau, grid: TimeGrid, rhs: Callable,
                      y0, mode: str = "exact",
                      y_exact: Callable | None = None) -> tuple[list, list]:
    """The starting states and right-hand sides at indices 1-s, ..., 0.

    ``exact`` samples the supplied exact solution at t = (1-s+i)*dt;
    ``rk-bootstrap`` integrates backward from y0 with substepped RK4
    (fourth-order start, adequate through BDF4; see tests).  Returns the
    lists (states, fvals) of float64 arrays in index order, oldest first,
    as ``step`` reads them; on a long-double grid the RK4 start runs in
    long double and is rounded at the end.
    """
    s = tab.s
    if mode == "exact":
        if y_exact is None:
            raise ValueError("exact bootstrap requires a y_exact hook")
        entries = [np.atleast_1d(np.asarray(y_exact(grid.t(n)), dtype=float))
                   for n in range(1 - s, 1)]
    elif mode == "rk-bootstrap":
        entries = [None] * s
        y = np.atleast_1d(np.asarray(y0, dtype=float))
        entries[s - 1] = y
        for k in range(s - 1):
            n = -k  # integrate from t_{-k} down to t_{-k-1}
            y = _rk4(rhs, y, grid.t(n), -grid.dt)
            entries[s - 2 - k] = y
    else:
        raise ValueError(f"unknown bootstrap mode {mode!r}")
    fvals = [np.array(rhs(y, grid.t(1 - s + i)), dtype=float)
             for i, y in enumerate(entries)]
    return [np.array(y, dtype=float) for y in entries], fvals
