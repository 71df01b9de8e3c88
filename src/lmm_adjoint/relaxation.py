"""Semi-Lagrangian BDF solver for N-velocity hyperbolic relaxation systems.

Forward model per velocity j (conserved moments u = Q f):

    f^j_t + v_j f^j_x = (E_j(u) - f^j) / eps

Fields are stored in the Eulerian frame; the Lagrangian transport becomes a
per-step shift of the characteristic feet, so index arithmetic stays bounded.
Each step runs two phases: an explicit macroscopic closure for u at the new
time level (the moment constraint Q E(u) = u cancels the implicit equilibrium
term), then an explicit per-point relaxation update.

The adjoint solver marches the multipliers lambda^j backward in time with the
transpose of that local update.  Both directions start from the same
characteristic-foot history combination C and commit through the same ring:

    forward:  f   = (1 - w) C + w E(Q C)
    adjoint:  lam = (1 - w) C + w Q^T (J^T C),   w = dt b_-1 / (dt b_-1 + eps)

C holds past levels forward and future levels backward, so every step is
explicit.

Shapes: a forward level is (Nv, M) and its conserved variables are (n, M).
An adjoint level may carry leading batch axes, (..., Nv, M): every member
is swept backward against the same frozen forward state, whose Jacobian
stays (Nv, n, M), and ``RelaxationModel.eps`` may then be an array that
broadcasts against the batch, for example one eps per member with shape
(B, 1, 1).  A batched sweep equals stacking the members' own sweeps bit
for bit.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .tableaus import ConfigError, MultistepTableau, SolverError, tableau


@dataclass(frozen=True)
class RelaxationModel:
    """Discrete-velocity BGK model with conserved moments u = Q f.

    ``equilibrium(u, out=None)`` maps conserved variables (n, M) to
    (Nv, M); ``equilibrium_jac(u, out=None)`` returns the per-velocity
    Jacobians (Nv, n, M).  Both follow the NumPy ``out`` convention: given
    ``out`` they write the result into it and return it, otherwise they
    return a new array.  The steps always pass their field's work buffers.
    ``equilibrium_jac`` must also broadcast over a levels axis, elementwise
    in the trailing axes: u of shape (n, K, M) gives (Nv, n, K, M), and
    ``out`` may then be a strided view.  ``solve_adjoint`` evaluates a
    block of stored levels in one such call, so a model whose
    ``equilibrium_jac`` raises does so before the steps of its block.
    ``dflux(u)`` is the flux derivative F'(u) of a scalar (Jin-Xin) model,
    which feeds the subcharacteristic check and the transport oracle;
    systems have none and pass None.

    ``eps`` is a float, or for a batched adjoint sweep an array that
    broadcasts against the (..., Nv, M) multipliers, such as shape (B, 1, 1)
    for one relaxation parameter per member; the forward step needs a
    float.  Every entry must be positive.
    """

    velocities: np.ndarray          # (Nv,)
    q_matrix: np.ndarray            # (n, Nv)
    equilibrium: Callable
    equilibrium_jac: Callable
    dflux: Callable | None
    eps: float | np.ndarray

    def __post_init__(self):
        if not np.all(np.asarray(self.eps) > 0):  # NaN fails too
            raise ConfigError("relaxation parameter eps must be positive")

    @property
    def n_velocities(self) -> int:
        return self.velocities.size

    @property
    def n_conserved(self) -> int:
        return self.q_matrix.shape[0]

    def moments(self, f: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Conserved variables u = Q f for a stacked field (Nv, M)."""
        return np.einsum("rj,jm->rm", self.q_matrix, f, out=out)


def make_jin_xin(flux: Callable, dflux: Callable, a: float, eps: float,
                 u0: np.ndarray | None = None) -> RelaxationModel:
    """Two-velocity relaxation model with speeds (a, -a) and equilibria
    E_1 = (a u + F(u)) / 2a, E_2 = (a u - F(u)) / 2a.

    When initial data is supplied the subcharacteristic condition
    a >= max |F'(u0)| is enforced as a configuration error.
    """
    if a <= 0:
        raise ConfigError("characteristic speed a must be positive")

    def equilibrium(u, out=None):
        F = flux(u[0])
        if out is None:
            out = np.empty((2,) + np.shape(u[0]))
        np.multiply(a, u[0], out=out[0])         # (a u +- F) / 2a
        np.subtract(out[0], F, out=out[1])
        np.add(out[0], F, out=out[0])
        np.divide(out, 2 * a, out=out)
        return out

    def equilibrium_jac(u, out=None):
        dF = dflux(u[0])
        if out is None:
            out = np.empty((2, 1) + np.shape(u[0]))
        for row, sign in zip(out[:, 0], (np.add, np.subtract)):
            sign(a, dF, out=row)                 # (a +- F'(u)) / 2a
            np.divide(row, 2 * a, out=row)
        return out

    model = RelaxationModel(
        velocities=np.array([a, -a]),
        q_matrix=np.array([[1.0, 1.0]]),
        equilibrium=equilibrium,
        equilibrium_jac=equilibrium_jac,
        dflux=dflux,
        eps=eps,
    )
    if u0 is not None:
        mx = float(np.max(np.abs(dflux(np.atleast_2d(u0)[0]))))
        if a < mx - 1e-12:
            raise ConfigError(
                f"subcharacteristic condition violated: a={a} < max|F'(u0)|={mx:.6g}")
    return model


def make_broadwell(c: float, eps: float) -> RelaxationModel:
    """Three-velocity Broadwell-type model, speeds (c, -c, 0), moments
    rho = f1 + f2 + 2 f3 and m = c (f1 - f2).

    Equilibria: E_1 = F/2 + m/2c, E_2 = F/2 - m/2c, E_3 = (rho - F)/2 with
    F(rho, m) = m^2/(c^2 rho) + rho, the unique choice satisfying both
    moment constraints.  Evaluation raises ``SolverError`` when
    rho <= 0 (flux singular).
    """
    if c <= 0:
        raise ConfigError("characteristic speed c must be positive")

    def _flux(u):
        rho, m = u[0], u[1]
        if np.any(rho <= 0):
            raise SolverError("Broadwell flux undefined for rho <= 0")
        return m * m / (c * c * rho) + rho

    def equilibrium(u, out=None):
        rho, m = u[0], u[1]
        F = _flux(u)
        if out is None:
            out = np.empty((3,) + np.shape(rho))
        e1, e2, e3 = out
        np.multiply(0.5, F, out=e3)              # 0.5 F, then m / 2c in e2
        np.divide(m, 2 * c, out=e2)
        np.add(e3, e2, out=e1)
        np.subtract(e3, e2, out=e2)
        np.subtract(rho, F, out=e3)
        np.multiply(0.5, e3, out=e3)
        return out

    def equilibrium_jac(u, out=None):
        # rows (dE_j/drho, dE_j/dm) with dF/drho = 1 - m^2/(c^2 rho^2) and
        # dF/dm = 2 m/(c^2 rho), built in place in the rows of E_3
        rho, m = u[0], u[1]
        if out is None:
            out = np.empty((3, 2) + np.shape(rho))
        (j1r, j1m), (j2r, j2m), (j3r, j3m) = out
        den = c * c * rho
        np.multiply(2.0, m, out=j3m)
        np.divide(j3m, den, out=j3m)             # dF/dm
        np.multiply(den, rho, out=den)
        np.multiply(m, m, out=j3r)
        np.divide(j3r, den, out=j3r)
        np.subtract(1.0, j3r, out=j3r)           # dF/drho
        np.multiply(0.5, j3r, out=j1r)
        np.copyto(j2r, j1r)
        np.subtract(1.0, j3r, out=j3r)
        np.multiply(0.5, j3r, out=j3r)
        np.multiply(0.5, j3m, out=j1m)
        inv2c = 1.0 / (2 * c)
        np.subtract(j1m, inv2c, out=j2m)
        np.add(j1m, inv2c, out=j1m)
        np.multiply(-0.5, j3m, out=j3m)
        return out

    return RelaxationModel(
        velocities=np.array([c, -c, 0.0]),
        q_matrix=np.array([[1.0, 1.0, 2.0], [c, -c, 0.0]]),
        equilibrium=equilibrium,
        equilibrium_jac=equilibrium_jac,
        dflux=None,
        eps=eps,
    )


@dataclass(frozen=True)
class LagrangianGrid:
    """Uniform 1-D grid with inclusive endpoint convention.

    dx = (x_right - x_left)/(n_points - 1).  Periodic boundaries identify the
    last point with the first, leaving n_points - 1 unique nodes; clamped
    (zero-flux) boundaries keep all n_points nodes and clamp characteristic
    feet at the walls.
    """

    x_left: float
    x_right: float
    n_points: int
    boundary: str = "periodic"

    def __post_init__(self):
        if self.n_points < 3:
            raise ValueError("grid needs at least 3 points")
        if self.boundary not in ("periodic", "clamp"):
            raise ValueError(f"unknown boundary rule {self.boundary!r}")

    @property
    def dx(self) -> float:
        return (self.x_right - self.x_left) / (self.n_points - 1)

    @property
    def n_nodes(self) -> int:
        return self.n_points - 1 if self.boundary == "periodic" else self.n_points

    @property
    def length(self) -> float:
        return self.x_right - self.x_left

    def nodes(self) -> np.ndarray:
        return self.x_left + self.dx * np.arange(self.n_nodes)

    def sample_shifted(self, values: np.ndarray, shift_cells: float) -> np.ndarray:
        """Values of a nodal field at x_i - shift_cells*dx.

        Integral shifts are exact (roll/clamped gather); fractional shifts use
        linear interpolation, which limits the spatial accuracy to first
        order.
        """
        M = values.shape[-1]
        lo, w = _foot(shift_cells)
        if self.boundary == "periodic":
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


def _foot(shift_cells: float) -> tuple[int, float]:
    """Lower node offset and linear weight of a foot shift_cells cells upstream.

    A foot within 1e-9 cells of a node is aligned: its nearest node and
    weight 0.  Otherwise the weight lies strictly between 0 and 1.
    """
    k = int(round(shift_cells))
    if abs(shift_cells - k) < 1e-9:
        return k, 0.0
    lo = math.floor(shift_cells)
    return lo, shift_cells - lo


# Largest level, in elements (batch x Nv x M), that a FootPlan gathers with
# one flat take; wider levels are multiplied out of their row slices.
_TAKE_MAX_ELEMENTS = 8192


@functools.lru_cache(maxsize=8)
def _feet(grid: LagrangianGrid, speeds: tuple[float, ...], dt: float,
          depth: int, batch: tuple[int, ...]) -> tuple:
    """The per-level ``(lo, hi, weights)`` of a ``FootPlan``, read-only.

    Built once per key and shared by every plan with that key, so the
    solves of a descent, which all run on one grid and step, reuse them.
    The cache is small: it holds the plans of one descent, not of a study.
    """
    Nv, M = len(speeds), grid.n_nodes
    periodic = grid.boundary == "periodic"
    shape = batch + (Nv, M)
    flat = math.prod(shape) <= _TAKE_MAX_ELEMENTS
    if flat:
        # flat indices into the whole level: member, row, column
        members = np.arange(math.prod(batch)).reshape(batch + (1, 1))
        rows = M * (Nv * members + np.arange(Nv)[:, None])
        cols = np.arange(M)
    levels = []
    for ell in range(depth):
        lo, w = np.array([_foot(vj * (ell + 1) * dt / grid.dx)
                          for vj in speeds]).T
        lo = lo.astype(int)
        feet = lo, lo + (w > 0)
        weights = (1.0 - w, w) if w.any() else None
        if flat:
            feet = [_view(rows + (c % M if periodic else np.clip(c, 0, M - 1)),
                          False) for c in (cols - k[:, None] for k in feet)]
            # level-shaped, as a broadcast (Nv, 1) factor makes the ufunc
            # allocate a buffer of the level's size
            if weights:
                weights = tuple(_view(np.broadcast_to(x[:, None], shape).copy(),
                                      False) for x in weights)
        else:
            feet = [tuple(_row_pieces(kj, M, periodic) for kj in k.tolist())
                    for k in feet]
            if weights:
                weights = tuple(tuple(x.tolist()) for x in weights)
        levels.append((*feet, weights))
    return tuple(levels)


def _row_pieces(k: int, M: int, periodic: bool) -> tuple:
    """``(out, values)`` slice pairs that shift a row k nodes downstream,
    out[i] = values[i - k] with the index wrapped or clamped; a clamped
    piece reads the wall node, (..., 1), and broadcasts it."""
    k = k % M if periodic else min(max(k, -M), M)
    if k >= 0:
        pairs = ((slice(k, M), slice(0, M - k)),
                 (slice(0, k), slice(M - k, M) if periodic else slice(0, 1)))
    else:
        pairs = ((slice(0, M + k), slice(-k, M)),
                 (slice(M + k, M), slice(M - 1, M)))
    return tuple((dst, src) for dst, src in pairs if dst.start < dst.stop)


def _view(arr: np.ndarray, writeable: bool) -> np.ndarray:
    """A view of ``arr`` with its own writeable flag.  The feet are read-only
    views of writeable arrays, and a plan gathers through writeable views
    of them, because ``np.take`` copies an index array that is read-only."""
    view = arr.view()
    view.flags.writeable = writeable
    return view


def _gather(values: np.ndarray, feet, scale, out: np.ndarray) -> np.ndarray:
    """``scale`` times ``values`` (..., Nv, M) at ``feet``, into ``out``.

    Flat index feet gather the level with one ``take`` (``mode="clip"``,
    which with in-range indices gathers the same values without the
    buffering of ``mode="raise"``) and scale it in place; row-slice feet
    multiply each row's pieces straight into ``out``.  ``scale`` is a
    float, or the weights of the feet: level-shaped arrays with flat
    indices, one float per row with slices.
    """
    if isinstance(feet, np.ndarray):
        values.take(feet, out=out, mode="clip")
        out *= scale
        return out
    scales = (scale,) * len(feet) if isinstance(scale, float) else scale
    for j, (pieces, s) in enumerate(zip(feet, scales)):
        for dst, src in pieces:
            np.multiply(s, values[..., j, src], out=out[..., j, dst])
    return out


class FootPlan:
    """Characteristic feet of every (history level, velocity), found once.

    Level ``ell`` of velocity j is sampled ``speeds[j] * (ell+1) * dt / dx``
    cells upstream, with the feet from the helper that
    ``LagrangianGrid.sample_shifted`` uses.  ``scaled(ell, coef, level,
    out)`` writes ``coef`` times the sampled level into ``out``, which
    equals ``coef`` times stacking ``sample_shifted`` over the rows bit for
    bit, signs of zero included: a fractional level keeps the
    ``(1-w) a + w b`` form and gives its aligned rows ``hi = lo`` and
    ``w = 0``.  ``levels`` holds the feet, per level ``(lo, hi, weights)``.
    They are shared read-only between plans of equal grid, speeds, dt,
    depth and batch; the ``_work`` buffer is the plan's own.  Levels have
    shape ``batch + (Nv, M)``; the batch members share the feet.

    The kernel follows the level's size, batch x Nv x M elements, on
    periodic and clamped grids alike.  Up to ``_TAKE_MAX_ELEMENTS`` the feet
    are flat indices over member, row and column (wrapped with ``% M`` or
    clipped at the walls) with level-shaped weights, and one ``take``
    gathers the level.  Wider levels keep two slice pairs and one weight
    per row, no array per node, and multiply the coefficient or weight
    straight out of the level's slices.  Per level, take / slices / the
    row-by-row roll copy and multiply they replaced, aligned feet then
    fractional (2-vCPU x86 VM, numpy 2.4):

    - batch (), 238 elements: 1.7 / 6.2 / 3.6 us, 6.7 / 18 / 12 us;
    - batch (), 2556 elements: 7.2 / 11 / 8.4 us, 17 / 21 / 24 us;
    - batch (), 81920 elements: 145 / 39 / 91 us, 438 / 169 / 245 us;
    - batch 5, 12780 elements: 20 / 26 / 14 us, 54 / 54 / 52 us.

    Take and slices cross near 6000 elements at batch () and above 12000 at
    batch 3 and 5, whose strided row slices multiply slowly.  The roll
    copy still wins on aligned batched levels of 6000 to 8000 elements (the
    eps study's largest grids), by about 1 us per level: some 2 ms per
    relax-paper pass, too little for a third kernel.
    """

    def __init__(self, grid: LagrangianGrid, speeds: np.ndarray, dt: float,
                 depth: int, batch: tuple[int, ...] = ()):
        self._work = np.empty(batch + (speeds.size, grid.n_nodes))
        self.levels = _feet(grid, tuple(speeds.tolist()), dt, depth,
                            tuple(batch))
        self._feet = [tuple(_view(f, True) if isinstance(f, np.ndarray)
                            else f for f in feet)
                      for feet in self.levels]

    def scaled(self, ell: int, coef: float, values: np.ndarray,
               out: np.ndarray) -> np.ndarray:
        """``coef`` times the history level ``values`` (..., Nv, M) sampled
        at the level-``ell`` feet, written into ``out``, which it returns."""
        lo, hi, weights = self._feet[ell]
        if weights is None:
            return _gather(values, lo, coef, out)
        _gather(values, lo, weights[0], out)
        out += _gather(values, hi, weights[1], self._work)
        out *= coef
        return out


def _check_field(model: RelaxationModel, grid: LagrangianGrid, field) -> None:
    """A field's feet hold only for the grid and speeds it was built with."""
    if (grid is not field.grid and grid != field.grid) or (
            model is not field.model
            and not np.array_equal(model.velocities, field.model.velocities)):
        raise ValueError("step called with a grid or velocities other than "
                         "the field's")


def _combine(model: RelaxationModel, grid: LagrangianGrid,
             fld: _LevelRing) -> float:
    """Start of both steps: the history combination C into ``fld.comb``,

        C^j = -sum_l a_l H_l^j(foot_l^j),

    with H_l the history level l (past f forward, future lambda backward)
    at the level-l feet of the field's plan, and a the coefficients of the
    ramp entry for the history's length.  The plan writes a_0 H_0(foot_0)
    into ``comb`` and each later product into ``prod``; the sum starts as
    0 - a_0 H_0, the IEEE operation of subtracting it from a zeroed sum,
    so exact zeros keep their sign.  Returns h = dt b_-1 of that
    entry.
    """
    _check_field(model, grid, fld)
    eff = fld.ramp[len(fld.history) - 1]
    comb, plan, history = fld.comb, fld.plan, fld.history
    plan.scaled(0, eff.a[0], history[0], comb)
    np.subtract(0.0, comb, out=comb)         # 0 - x, as from a zeroed sum
    for ell in range(1, eff.s):
        comb -= plan.scaled(ell, eff.a[ell], history[ell], fld.prod)
    return fld.dt * eff.b_implicit


class _LevelRing:
    """History ring and step work buffers shared by both field kinds.

    A field steps the BDF scheme ``tab`` of s stages (any other tableau is
    a ``ConfigError``).  ``ramp`` lists BDF1, ..., BDF(s-1), ``tab``:
    a history of l levels steps ``ramp[l-1]``, so the order ramps up while
    the ring fills.  ``history[0]`` is the newest level.  Once the ring is
    full, ``slot()`` hands out the array of the oldest level, which the
    step overwrites with the new level before ``push`` moves it to the
    front; a warm field therefore allocates no level arrays.  ``plan``
    holds the characteristic feet of the field's step.  Levels have the
    shape of ``first``, (..., Nv, M), and so have the work buffers ``comb``
    (the history combination C), ``prod`` (a product temporary) and ``E``.
    Each field kind words its blow-up message in ``blowup``.
    """

    def __init__(self, model: RelaxationModel, grid: LagrangianGrid,
                 dt: float, tab: MultistepTableau, first: np.ndarray,
                 speeds: np.ndarray):
        if not tab.is_bdf:
            raise ConfigError(f"relaxation solver requires a BDF "
                                   f"tableau, got {tab.name}")
        self.model = model
        self.grid = grid
        self.dt = dt
        self.ramp = [tableau(f"bdf{k}") for k in range(1, tab.s)] + [tab]
        self.n = 0
        self.history: list[np.ndarray] = [first.copy()]
        self.plan = FootPlan(grid, speeds, dt, tab.s, first.shape[:-2])
        self.comb = np.empty(first.shape)
        self.prod = np.empty(first.shape)
        self.E = np.empty(first.shape)

    @property
    def current(self) -> np.ndarray:
        return self.history[0]

    def slot(self) -> np.ndarray:
        """Array for the next level: the oldest level's once the ring is full."""
        if len(self.history) == len(self.ramp):
            return self.history[-1]
        return np.empty_like(self.history[0])

    def push(self, level: np.ndarray):
        """Make ``level`` the newest, evicting the oldest once full.

        A non-finite level raises ``SolverError`` naming the step
        instead; the field's oldest level may then already be overwritten,
        and the field must not be stepped again.
        """
        if not np.isfinite(level).all():
            raise SolverError(self.blowup.format(self.n + 1), self.n + 1)
        if len(self.history) == len(self.ramp):
            self.history.pop()
        self.history.insert(0, level)
        self.n += 1


class KineticField(_LevelRing):
    """Per-velocity Eulerian arrays with an s-deep ring buffer of past
    levels, for the BDF scheme ``tab`` of s stages.

    ``history[0]`` is the newest level (time index ``n``).  ``plan`` holds
    the feet of the forward step, v_j (l+1) dt upstream of every node.
    """

    blowup = "non-finite kinetic field at step {}"

    def __init__(self, model: RelaxationModel, grid: LagrangianGrid,
                 dt: float, tab: MultistepTableau, f0: np.ndarray):
        f0 = np.asarray(f0, dtype=float)
        if f0.shape != (model.n_velocities, grid.n_nodes):
            raise ValueError(f"initial field must have shape "
                             f"{(model.n_velocities, grid.n_nodes)}, got {f0.shape}")
        super().__init__(model, grid, dt, tab, f0, model.velocities)


def forward_step(model: RelaxationModel, grid: LagrangianGrid,
                 fld: KineticField, out: np.ndarray) -> np.ndarray:
    """Advance the kinetic field one step of its scheme (or of its start-up
    ramp); returns u at the new level.

        f = (1 - w) C + w E(Q C),    w = h / (h + eps),  h = dt b_-1

    with C the history combination of ``_combine``.  Phase 1 computes
    u = Q C, the moment sum of the implicit update (the equilibrium term
    cancels via Q E(u) = u), into ``out`` (n, M); phase 2 is the per-point
    affine relaxation update.  The arithmetic runs in the field's work
    buffers and the new level overwrites the evicted one, so a warm field
    allocates only the model's own temporaries.  A ``SolverError``
    of the equilibrium (Broadwell's rho <= 0) gains the step's number.
    """
    h = _combine(model, grid, fld)
    w = h / (h + model.eps)
    comb, prod = fld.comb, fld.prod
    u_new = model.moments(comb, out=out)     # phase 1: macroscopic closure
    try:                                     # phase 2: relaxation update
        E = model.equilibrium(u_new, out=fld.E)
    except SolverError as exc:
        raise SolverError(f"{exc} at step {fld.n + 1}", fld.n + 1) from None
    f_new = fld.slot()
    np.multiply(w, E, out=f_new)
    np.multiply(1.0 - w, comb, out=prod)
    f_new += prod
    fld.push(f_new)
    return u_new


def solve_forward(model: RelaxationModel, grid: LagrangianGrid,
                  tab: MultistepTableau, u0: np.ndarray, n_steps: int,
                  dt: float, out: np.ndarray | None = None):
    """Run the forward solver from equilibrium-lifted macroscopic data.

    Returns (field, u_store) where u_store has shape (n_steps+1, n, M); the
    full in-memory store backs the adjoint solver.  ``out`` follows the
    NumPy convention: given a float64 array of that shape, the store is
    written into it and returned, so a caller that solves repeatedly can
    reuse one store; any other ``out`` is a ValueError raised before the
    first step.  A store that cannot be allocated is a ``ConfigError``
    naming dt.
    """
    shape = (n_steps + 1, model.n_conserved, grid.n_nodes)
    if out is not None and (out.shape != shape or out.dtype != np.float64):
        raise ValueError(f"out must be a float64 store of shape {shape}, "
                         f"got {out.dtype} {out.shape}")
    u0 = np.atleast_2d(np.asarray(u0, dtype=float))
    f0 = model.equilibrium(u0)
    fld = KineticField(model, grid, dt, tab, f0)
    try:
        u_store = np.empty(shape) if out is None else out
    except MemoryError:
        raise ConfigError(
            f"key 'dt': must be large enough for the forward store of "
            f"{n_steps} steps ({8 * math.prod(shape):.3g} bytes) to be "
            f"allocated, got {dt:g}") from None
    model.moments(f0, out=u_store[0])
    for k in range(n_steps):
        forward_step(model, grid, fld, out=u_store[k + 1])
    return fld, u_store


class AdjointField(_LevelRing):
    """Backward multipliers lambda^j with an s-deep future-time buffer, for
    the BDF scheme ``tab`` of s stages.

    ``history[i]`` holds the level at t_{n+i}.  The buffer starts with the
    terminal data alone and ramps the BDF order up as levels accumulate,
    mirroring the forward start-up (a constant-extension seeding of all s
    slots degrades the backward sweep to first order; see tests).  ``plan``
    holds the feet of the backward step, v_j (i+1) dt downstream of every
    node.  ``lam_T`` is (..., Nv, M): leading axes batch independent
    multiplier fields over one frozen forward state.  ``phi`` (..., n, M)
    holds the step's J^T C.  ``weights[l-1]`` holds the step's factors
    (eps/(eps+h), h/(eps+h)) of ramp entry l, h = dt b_-1: floats for a
    float eps, level-shaped arrays for an array eps, which multiply a
    level without the buffer NumPy allocates to broadcast a (B, 1, 1)
    factor.
    """

    blowup = "non-finite adjoint field at backward step {}"

    def __init__(self, model: RelaxationModel, grid: LagrangianGrid,
                 dt: float, tab: MultistepTableau, lam_T: np.ndarray):
        lam_T = np.asarray(lam_T, dtype=float)
        if lam_T.shape[-2:] != (model.n_velocities, grid.n_nodes):
            raise ValueError(f"terminal data must have trailing shape "
                             f"{(model.n_velocities, grid.n_nodes)}, "
                             f"got {lam_T.shape}")
        super().__init__(model, grid, dt, tab, lam_T, -model.velocities)
        self.phi = np.empty(lam_T.shape[:-2]
                            + (model.n_conserved, grid.n_nodes))
        eps = model.eps
        self.weights = []
        for eff in self.ramp:
            h = dt * eff.b_implicit                  # as _combine forms it
            pair = eps / (eps + h), h / (eps + h)
            if isinstance(eps, np.ndarray):
                pair = tuple(np.broadcast_to(c, lam_T.shape).copy()
                             for c in pair)
            self.weights.append(pair)


def adjoint_step(model: RelaxationModel, grid: LagrangianGrid,
                 adj: AdjointField, jac: np.ndarray) -> np.ndarray:
    """One explicit backward step of the field's scheme (or of its start-up
    ramp): multipliers at t_{n-1} from up to s future levels.

    The transpose of the forward step's local relaxation update:

        lam = eps/(eps + h) C + h/(eps + h) Q^T (J^T C),    h = dt b_-1

    with C the history combination of ``_combine`` over the future levels,
    sampled at the mirrored feet x + v_j (i+1) dt, and ``jac`` (Nv, n, M)
    the equilibrium Jacobian dE_j/du_r at the frozen forward state
    u(t_{n-1}).  C holds future-time values only, so no implicit solve is
    needed.  Every batch member of the field (leading axes of its levels)
    uses the same ``jac``; ``model.eps`` may broadcast against the batch.

    The arithmetic runs in the field's work buffers.  The returned array is
    the field's newest level, a ring slot: it stays valid until the field
    has been stepped s more times, then holds a newer level.
    """
    shape = (model.n_velocities, model.n_conserved, grid.n_nodes)
    if jac.shape != shape:
        raise ValueError(f"equilibrium Jacobian must have shape {shape}, "
                         f"got {jac.shape}")
    _combine(model, grid, adj)
    keep, relax = adj.weights[len(adj.history) - 1]  # _combine's ramp entry
    comb = adj.comb
    phi = np.einsum("jrm,...jm->...rm", jac, comb, out=adj.phi)
    lam_new = adj.slot()
    np.multiply(keep, comb, out=lam_new)
    qphi = np.einsum("rj,...rm->...jm", model.q_matrix, phi, out=adj.E)
    np.multiply(relax, qphi, out=qphi)
    lam_new += qphi
    adj.push(lam_new)
    return lam_new


def terminal_multipliers(model: RelaxationModel, p_terminal: np.ndarray) -> np.ndarray:
    """Spread terminal adjoint data over the velocities.

    For single-moment models the rescaled convention lambda^j(T) = p_T / Nv
    is used (so p = sum_j lambda^j matches the macroscopic multiplier).  For
    multi-moment models the data (one row per conserved component) is
    contracted with the moment-map columns: lambda^j(T) = sum_r Q_rj d_r.
    Data of shape (..., n, M) gives multipliers of shape (..., Nv, M).
    """
    p_terminal = np.atleast_2d(np.asarray(p_terminal, dtype=float))
    if model.n_conserved == 1:
        return np.repeat(p_terminal, model.n_velocities, axis=-2) / model.n_velocities
    return np.einsum("rj,...rm->...jm", model.q_matrix, p_terminal)


# Largest Jacobian block of solve_adjoint, in grid nodes: one
# equilibrium_jac call covers max(1, _JAC_BLOCK_NODES // M) stored levels.
_JAC_BLOCK_NODES = 65536


def solve_adjoint(model: RelaxationModel, grid: LagrangianGrid,
                  tab: MultistepTableau, u_store: np.ndarray | None,
                  lam_T: np.ndarray, n_steps: int, dt: float) -> np.ndarray:
    """March the adjoint from t = T back to t = 0 and return lambda(0).

    ``u_store`` is the forward conserved-variable store (level k = time t_k),
    with at least ``n_steps`` levels of shape (n, M); the step computing
    level k-1 takes the equilibrium Jacobian at u_store[k-1].  The Jacobians
    are evaluated a block of levels at a time, newest block first, in one
    ``equilibrium_jac`` call of shape (n, K, M) per block, K levels of at
    most ``_JAC_BLOCK_NODES`` nodes in all (one level on wider grids).
    Pass None only when the Jacobian does not depend on u (linear flux): it
    is then evaluated once, at u = 0, and every step reuses it.  ``lam_T``
    (..., Nv, M) may carry batch axes, which the returned lambda(0) keeps.
    """
    adj = AdjointField(model, grid, dt, tab, lam_T)
    shape = (model.n_conserved, grid.n_nodes)
    if u_store is None:
        jac = np.empty((model.n_velocities,) + shape)
        model.equilibrium_jac(np.zeros(shape), out=jac)
        for _ in range(n_steps):
            adjoint_step(model, grid, adj, jac)
        return adj.current
    if u_store.shape[1:] != shape or u_store.shape[0] < n_steps:
        raise ValueError(f"u_store must hold at least {n_steps} levels of "
                         f"shape {shape}, got {u_store.shape}")
    K = max(1, _JAC_BLOCK_NODES // grid.n_nodes)
    jacs = np.empty((min(K, n_steps), model.n_velocities) + shape)
    for k in range(n_steps, 0, -K):          # levels lo, ..., k-1
        lo = max(k - K, 0)
        block = jacs[:k - lo]                # block[i]: level lo + i
        model.equilibrium_jac(u_store[lo:k].transpose(1, 0, 2),
                              out=block.transpose(1, 2, 0, 3))
        for jac in block[::-1]:
            adjoint_step(model, grid, adj, jac)
    return adj.current


def transport_oracle(grid: LagrangianGrid, p_terminal: Callable,
                     speed: float, T: float) -> np.ndarray:
    """Characteristics solution of -p_t - c p_x = 0: p(0, x) = p_T(x + c T).

    ``p_terminal`` is evaluated analytically at the shifted positions with
    periodic wrapping of the argument, so no grid interpolation enters.
    """
    x = grid.nodes() + speed * T
    if grid.boundary == "periodic":
        L = grid.length
        x = grid.x_left + np.mod(x - grid.x_left, L)
    else:
        x = np.clip(x, grid.x_left, grid.x_right)
    return np.asarray(p_terminal(x), dtype=float)


def viscous_limit_check(model: RelaxationModel, grid: LagrangianGrid,
                        tab: MultistepTableau, p_terminal: Callable,
                        n_steps: int, dt: float,
                        references: dict | None = None
                        ) -> tuple[np.ndarray, np.ndarray]:
    """Kinetic adjoint p(0) of every eps member and its L2 transport deviation.

    Runs one backward sweep of ``n_steps`` steps from lambda^j(T) = p_T/Nv,
    batched over the members of ``model.eps`` (a float is one member), and
    returns p = sum_j lambda^j at t = 0, shape (B, M), with each member's
    deviation sqrt(dx sum (p - ref)^2), shape (B,).  The reference is the
    characteristics solution of the limiting equation -p_t - F'(0) p_x = 0
    at the actual horizon ``n_steps * dt``; ``references`` maps member
    indices to an (M,) reference that replaces it for those members.  The
    relaxation Jacobian is taken at u = 0, which is exact for a linear flux.
    Expected magnitude O(eps) + O(dt^order).
    """
    if model.n_conserved != 1:
        raise ConfigError("viscous-limit check defined for scalar models")
    pT = np.broadcast_to(p_terminal(grid.nodes()),
                         (np.size(model.eps), 1, grid.n_nodes))
    lam_T = terminal_multipliers(model, pT)
    p0 = solve_adjoint(model, grid, tab, None, lam_T, n_steps, dt).sum(axis=-2)
    speed = float(model.dflux(np.zeros(1))[0])
    ref = np.empty_like(p0)
    ref[:] = transport_oracle(grid, p_terminal, speed, n_steps * dt)
    for b, r in (references or {}).items():
        ref[b] = r
    return p0, np.sqrt(grid.dx * np.sum((p0 - ref) ** 2, axis=-1))
