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
characteristic-foot history combination C and end in the same update,
keep C + relax x, written into the same ring:

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

Wide levels (more than ``_TAKE_MAX_ELEMENTS`` elements) are computed on a
window of nodes where the model allows it.  The scheme inherits the finite
propagation speed of the system: a step reads each history level only at
its feet, a few cells away, so a level that is exactly +0.0 off a window
gives a new level that is +0.0 off the window grown by the feet's reach.
A wide field whose model maps a zero level to +0.0 (``moments`` and
``equilibrium`` probed once on zeros: both Jin-Xin fluxes do, Broadwell
refuses rho = 0) keeps one node window per ring slot, starting from the
span of its first level's entries that are not +0.0 (-0.0, NaN and inf
count as data), and runs every step, the model maps and the guard on the
window that ``LagrangianGrid.window`` finds; every buffer stays exactly
+0.0 outside it, so the results are those of the full grid bit for bit.
The adjoint step maps C = 0 to 0 when the Jacobian is finite at every
finite state, as both Jin-Xin Jacobians are.
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

    ``equilibrium(u, out=None)`` maps conserved variables (..., n, M) to
    (..., Nv, M); ``equilibrium_jac(u, out=None)`` returns the per-velocity
    Jacobians (..., Nv, n, M).  Both act node by node and take any leading
    axes, as the fields do; ``solve_adjoint`` evaluates a block of stored
    levels (K, n, M) in one call, so a model whose ``equilibrium_jac``
    raises does so before the steps of its block.  Both follow the NumPy
    ``out`` convention: given ``out`` they write the result into it and
    return it, otherwise they return a new array.  Every field is read by
    the solver; what one study needs, such as F', stays in its driver.

    The model also supplies the two Q-contractions of the steps, so the
    step code has one path for every model:

    - ``moments(f, out=None)``, u = Q f of a level (Nv, M), which
      ``forward_step`` takes of the history combination;
    - ``adjoint_source(jac, C, phi, out)``, Q^T (J^T C) of multipliers C
      (..., Nv, M) and a Jacobian ``jac`` (Nv, n, M) shared by the batch,
      which ``adjoint_step`` takes: J^T C goes into ``phi`` (..., n, M) and
      Q^T of it into ``out`` (..., Nv, M), which it returns.

    Each is summed as ``np.einsum`` sums it, from 0 in index order, so the
    maps of ``make_jin_xin`` and ``make_broadwell`` give einsum's bits.

    ``eps`` is a float, or for a batched adjoint sweep an array that
    broadcasts against the (..., Nv, M) multipliers, such as shape (B, 1, 1)
    for one relaxation parameter per member; the forward step needs a
    float.  Every entry must be positive.
    """

    velocities: np.ndarray          # (Nv,)
    q_matrix: np.ndarray            # (n, Nv)
    equilibrium: Callable
    equilibrium_jac: Callable
    moments: Callable
    adjoint_source: Callable
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


# 0-d float64 operands: ufuncs skip converting them
_HALF, _ZERO = np.array(0.5), np.array(0.0)


def _burgers_flux(u):
    """0.5*u*u, multiplied in that order into one new level row (float64)."""
    t = np.multiply(_HALF, u)
    t *= u
    return t


# Scalar fluxes of the Jin-Xin model by name: (F, F') for ``make_jin_xin``
JIN_XIN_FLUXES = {
    "linear": (lambda u: u, lambda u: np.ones_like(u)),
    "burgers": (_burgers_flux, lambda u: u),
}


def make_jin_xin(flux: Callable, dflux: Callable, a: float,
                 eps: float) -> RelaxationModel:
    """Two-velocity relaxation model with speeds (a, -a) and equilibria
    E_1 = (a u + F(u)) / 2a, E_2 = (a u - F(u)) / 2a.

    The factory only builds: the subcharacteristic condition
    a >= max |F'(u)| on the data a run steps is the caller's to check.  The
    maps hold a and 2a as 0-d float64 arrays, which no call converts; not
    being NEP 50 weak scalars, they make the maps compute in float64.

    Q = [1, 1] makes both contractions plain.  ``moments`` is one
    ``np.add.reduce`` over the velocities started from 0, under an
    ``np.errstate`` that keeps it as quiet as einsum on inf - inf and
    overflow.  ``adjoint_source`` sums phi = J^T C with one einsum, from 0,
    and copies phi onto both velocities: Q^T phi = 0 + 1 phi is phi bit for
    bit, since a round-to-nearest sum started from +0 is never -0.  phi
    stays one einsum: a ufunc product and sum, buffer-free and quiet, ran
    the eps study and control-jinxin slower.
    """
    if a <= 0:
        raise ConfigError("characteristic speed a must be positive")
    a64, two_a = np.array(a, dtype=float), np.array(2 * a, dtype=float)

    def equilibrium(u, out=None):
        row = u[..., 0, :]
        F = flux(row)
        if out is None:
            out = np.empty(u.shape[:-2] + (2,) + u.shape[-1:])
        e1, e2 = out[..., 0, :], out[..., 1, :]
        np.multiply(a64, row, e1)                # (a u +- F) / 2a
        np.subtract(e1, F, e2)
        np.add(e1, F, e1)
        np.divide(out, two_a, out)
        return out

    def equilibrium_jac(u, out=None):
        dF = dflux(u[..., 0, :])
        if out is None:
            out = np.empty(u.shape[:-2] + (2, 1) + u.shape[-1:])
        for j, sign in enumerate((np.add, np.subtract)):
            row = out[..., j, 0, :]
            sign(a64, dF, row)                   # (a +- F'(u)) / 2a
            np.divide(row, two_a, row)
        return out

    @np.errstate(over="ignore", invalid="ignore")
    def moments(f, out=None):                    # 0 + f_1 + f_2
        return np.add.reduce(f, -2, None, out, True, _ZERO)

    def adjoint_source(jac, C, phi, out):
        np.einsum("jrm,...jm->...rm", jac, C, out=phi)
        np.copyto(out, phi)                      # Q^T phi
        return out

    return RelaxationModel(
        velocities=np.array([a, -a]),
        q_matrix=np.array([[1.0, 1.0]]),
        equilibrium=equilibrium,
        equilibrium_jac=equilibrium_jac,
        moments=moments,
        adjoint_source=adjoint_source,
        eps=eps,
    )


def make_broadwell(c: float, eps: float) -> RelaxationModel:
    """Three-velocity Broadwell-type model, speeds (c, -c, 0), moments
    rho = f1 + f2 + 2 f3 and m = c (f1 - f2).

    Equilibria: E_1 = F/2 + m/2c, E_2 = F/2 - m/2c, E_3 = (rho - F)/2 with
    F(rho, m) = m^2/(c^2 rho) + rho.  E_1 + E_2 + 2 E_3 = rho and
    c (E_1 - E_2) = m hold for every F, so the moment constraints do not
    fix it; this F makes the resting equilibrium E_3 = -m^2/(2 c^2 rho)
    negative wherever m != 0 (ROADMAP item 16).  Evaluation raises
    ``SolverError`` when rho <= 0 (flux singular).  The maps compute in
    float64: they hold 0.5, c^2 and 2c as 0-d float64 arrays.  Both
    contractions are ``np.einsum`` calls with Q.
    """
    if c <= 0:
        raise ConfigError("characteristic speed c must be positive")
    c2, two_c = np.array(c * c, dtype=float), np.array(2 * c, dtype=float)
    q = np.array([[1.0, 1.0, 2.0], [c, -c, 0.0]])

    def _flux(rho, m):
        if np.fmin.reduce(rho, axis=None, initial=np.inf) <= 0:  # NaN passes
            raise SolverError("Broadwell flux undefined for rho <= 0")
        F = np.multiply(m, m)
        np.divide(F, np.multiply(c2, rho), F)
        return np.add(F, rho, F)

    def equilibrium(u, out=None):
        rho, m = u[..., 0, :], u[..., 1, :]
        F = _flux(rho, m)
        if out is None:
            out = np.empty(u.shape[:-2] + (3,) + u.shape[-1:])
        e1, e2, e3 = out[..., 0, :], out[..., 1, :], out[..., 2, :]
        np.multiply(_HALF, F, e3)                # 0.5 F, then m / 2c in e2
        np.divide(m, two_c, e2)
        np.add(e3, e2, e1)
        np.subtract(e3, e2, e2)
        np.subtract(rho, F, e3)
        np.multiply(_HALF, e3, e3)
        return out

    def equilibrium_jac(u, out=None):
        # rows (dE_j/drho, dE_j/dm) with dF/drho = 1 - m^2/(c^2 rho^2) and
        # dF/dm = 2 m/(c^2 rho), built in place in the rows of E_3
        rho, m = u[..., 0, :], u[..., 1, :]
        if out is None:
            out = np.empty(u.shape[:-2] + (3, 2) + u.shape[-1:])
        (j1r, j1m), (j2r, j2m), (j3r, j3m) = (
            (out[..., j, 0, :], out[..., j, 1, :]) for j in range(3))
        den = np.multiply(c2, rho)
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

    def moments(f, out=None):
        return np.einsum("rj,jm->rm", q, f, out=out)

    def adjoint_source(jac, C, phi, out):
        np.einsum("jrm,...jm->...rm", jac, C, out=phi)
        return np.einsum("rj,...rm->...jm", q, phi, out=out)

    return RelaxationModel(
        velocities=np.array([c, -c, 0.0]),
        q_matrix=q,
        equilibrium=equilibrium,
        equilibrium_jac=equilibrium_jac,
        moments=moments,
        adjoint_source=adjoint_source,
        eps=eps,
    )


@dataclass(frozen=True)
class LagrangianGrid:
    """Uniform 1-D grid with inclusive endpoint convention.

    dx = (x_right - x_left)/(n_points - 1).  Periodic boundaries identify the
    last point with the first, leaving n_points - 1 unique nodes; clamped
    (zero-flux) boundaries keep all n_points nodes and clamp characteristic
    feet at the walls.  Only the grid reads its boundary rule, which it
    gives as indices (``upstream``), slices, the windows they reach
    (``window``) and positions (``fold``).
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

    def nodes(self) -> np.ndarray:
        return self.x_left + self.dx * np.arange(self.n_nodes)

    def upstream(self, k) -> np.ndarray:
        """The node each node reads k cells upstream, i - k, wrapped on a
        periodic grid and clamped at the walls of a clamped one.  ``k`` is
        an integer, giving (M,) indices, or an integer array, giving one
        row of them per entry, ``k.shape + (M,)``."""
        M = self.n_nodes
        i = np.arange(M) - np.asarray(k)[..., None]
        return i % M if self.boundary == "periodic" else np.clip(i, 0, M - 1)

    def upstream_slices(self, k: int, lo: int = 0,
                        hi: int | None = None) -> tuple:
        """``upstream(k)`` as ``(out, values)`` slice pairs of one row,
        out[i] = values[upstream(k)[i]], that write out[lo:hi] (the whole
        row by default); a clamped piece reads the wall node, (..., 1), and
        broadcasts it."""
        M, periodic = self.n_nodes, self.boundary == "periodic"
        hi = M if hi is None else hi
        if 0 <= lo - k and hi - k <= M:      # reads neither seam nor wall
            return ((slice(lo, hi), slice(lo - k, hi - k)),) if lo < hi else ()
        k = k % M if periodic else min(max(k, -M), M)
        # runs (start, stop) of out read at i + shift, or at one wall node
        if k >= 0:
            runs = ((k, M, -k, None),
                    (0, k, M - k, None) if periodic else (0, k, 0, slice(0, 1)))
        else:
            runs = ((0, M + k, -k, None), (M + k, M, 0, slice(M - 1, M)))
        pairs = []
        for start, stop, shift, wall in runs:
            a, b = max(start, lo), min(stop, hi)
            if a < b:
                pairs.append((slice(a, b), wall or slice(a + shift, b + shift)))
        return tuple(pairs)

    def window(self, held, shifts) -> tuple:
        """The nodes [lo, hi) that read a held window, with their slices.

        ``held[l]`` is the window (lo, hi) of level l, outside which the
        level is exactly +0.0 (empty if lo >= hi), and ``shifts[l]`` the
        level's feet, each a tuple of cells upstream k, one per row.  The
        window is the hull of the held windows and of every node whose foot
        reads one: on a clamped grid, clipped at the walls, a foot past a
        wall reads the wall node; on a periodic grid, a window that would
        cross the seam is the whole grid.  So windows only grow.  Returns
        ``(lo, hi, pieces)``, pieces[l][p][j] the ``upstream_slices`` of
        shifts[l][p][j] that write out[lo:hi], for every level of
        ``shifts``; (0, 0, ...) if no held window holds a node.
        """
        M, periodic = self.n_nodes, self.boundary == "periodic"
        lo, hi = M, 0
        for (a, b), feet in zip(held, shifts):
            if a >= b:
                continue
            lo, hi = min(lo, a), max(hi, b)
            for k in (k for foot in feet for k in foot):
                if periodic:                 # nodes a + k, ..., b + k - 1
                    c, d = a + k, b + k
                    if c < 0 or d > M:
                        c, d = 0, M
                else:                        # and those reading a wall node
                    c = 0 if a == 0 else max(a + k, 0)
                    d = M if b == M else min(b + k, M)
                if c < d:
                    lo, hi = min(lo, c), max(hi, d)
        if lo >= hi:
            lo = hi = 0
        cut = self.upstream_slices
        return lo, hi, tuple([tuple([tuple([cut(k, lo, hi) for k in foot])
                                     for foot in feet]) for feet in shifts])

    def fold(self, x: np.ndarray) -> np.ndarray:
        """Positions ``x`` brought into the domain: wrapped into
        [x_left, x_right) on a periodic grid, clamped to the walls of a
        clamped one."""
        if self.boundary == "periodic":
            return self.x_left + np.mod(x - self.x_left,
                                        self.x_right - self.x_left)
        return np.clip(x, self.x_left, self.x_right)

    def sample_shifted(self, values: np.ndarray, shift_cells: float) -> np.ndarray:
        """Values of a nodal field at x_i - shift_cells*dx.

        Integral shifts are exact (an ``upstream`` gather); fractional
        shifts use linear interpolation, which limits the spatial accuracy
        to first order.
        """
        lo, w = _foot(shift_cells)
        a = values[..., self.upstream(lo)]
        if w == 0.0:
            return a
        return (1.0 - w) * a + w * values[..., self.upstream(lo + 1)]


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


# Largest level, in elements (batch x Nv x M), that the steps gather with
# one flat take; wider levels are multiplied out of their row slices.  Per
# level, take / slices, aligned feet then fractional (2-vCPU x86 VM,
# numpy 2.4):
# - batch (), 238 elements: 1.7 / 6.2 us, 6.7 / 18 us;
# - batch (), 2556 elements: 7.2 / 11 us, 17 / 21 us;
# - batch (), 81920 elements: 145 / 39 us, 438 / 169 us;
# - batch 5, 12780 elements: 20 / 26 us, 54 / 54 us.
# Take and slices cross near 6000 elements at batch () and above 12000 at
# batch 3 and 5, whose strided row slices multiply slowly.  At most 10000:
# OpenBLAS threads ``_update``'s dot of a larger take-plan level.
_TAKE_MAX_ELEMENTS = 8192


def _keeps_zero(model: RelaxationModel) -> bool:
    """Whether the model maps a zero level to +0.0: its ``moments`` and its
    ``equilibrium`` of them, probed on one node of zeros.  Both Jin-Xin
    fluxes do; Broadwell refuses rho = 0."""
    try:
        u = model.moments(np.zeros((model.n_velocities, 1)))
        E = model.equilibrium(u)
    except SolverError:
        return False
    return not (u.view(np.int64).any() or E.view(np.int64).any())


def _support(level: np.ndarray) -> tuple[int, int]:
    """The nodes [lo, hi) spanning every entry of a level that is not +0.0
    (-0.0, NaN and inf count), (0, 0) for a level of +0.0 only."""
    bits = level.reshape(-1, level.shape[-1]).view(np.int64)
    nodes = np.flatnonzero(bits.any(axis=0))
    return (int(nodes[0]), int(nodes[-1]) + 1) if nodes.size else (0, 0)


@functools.lru_cache(maxsize=2)
def _feet(grid: LagrangianGrid, speeds: tuple[float, ...], dt: float,
          ramp: tuple, batch: tuple[int, ...]) -> tuple:
    """Feet of every (history level, velocity) and the coefficients -a of
    every ramp entry (``ramp`` holds their a; s = len(ramp)), found once.

    Level ``ell`` of velocity j is sampled ``speeds[j] * (ell+1) * dt / dx``
    cells upstream, at the feet of ``LagrangianGrid.sample_shifted``: node
    lo or, if any foot is fractional, P = 2 feet (lo, hi) with weights
    (1 - w, w), an aligned row reading lo twice with weights (1, 0).
    Returns ``(index, weights, coefs)`` for levels ``batch + (Nv, M)``,
    weights None if all feet are aligned.  Levels of up to
    ``_TAKE_MAX_ELEMENTS`` get per ring head flat indices into the ring,
    (P, s) + level shape, weights of that shape and, per ramp entry of L
    levels, -a of shape (L,) + level shape; wider ones get per level each
    foot's shift k per row (``LagrangianGrid.window`` turns them into
    slices), one weight per row and -a as floats, no array per node,
    shared by every field of the key (weights, -a read-only).
    The cache keeps the two most recent keys: a descent of I iterations
    reuses its forward and adjoint keys (2I hits, 2 misses), while the eps
    study's keys serve one sweep each, so more entries would only keep its
    index tables resident.
    """
    Nv, M, s = len(speeds), grid.n_nodes, len(ramp)
    shape = batch + (Nv, M)
    lo, w = np.array([[_foot(vj * (ell + 1) * dt / grid.dx) for vj in speeds]
                      for ell in range(s)]).transpose(2, 0, 1)
    lo = lo.astype(int)
    feet = (lo, lo + (w > 0)) if w.any() else (lo,)     # each (s, Nv)
    weights = np.stack((1.0 - w, w)) if w.any() else None
    if math.prod(shape) > _TAKE_MAX_ELEMENTS:
        index = tuple(tuple(tuple(k[ell].tolist()) for k in feet)
                      for ell in range(s))
        if weights is not None:
            weights = tuple(tuple(map(tuple, weights[:, ell].tolist()))
                            for ell in range(s))
        return index, weights, tuple(tuple(-c for c in a) for a in ramp)
    # flat index of each (member, row)'s first node in a level, plus the
    # ring slot (head + ell) % s of level ell in whole levels
    lift = (1,) * len(batch)
    rows = M * np.arange(math.prod(shape[:-1])).reshape(shape[:-1] + (1,))
    base = np.stack([rows + grid.upstream(k).reshape((s,) + lift + (Nv, M))
                     for k in feet])
    ell = np.arange(s).reshape((s,) + lift + (1, 1))
    index = tuple(base + math.prod(shape) * ((head + ell) % s)
                  for head in range(s))
    # level-shaped factors: a broadcast factor makes the ufunc allocate a
    # buffer of the level's size
    if weights is not None:
        weights = np.broadcast_to(weights.reshape(2, s, *lift, Nv, 1),
                                  base.shape).copy()
    coefs = tuple(np.broadcast_to(np.negative(a).reshape(-1, *lift, 1, 1),
                                  (len(a),) + shape).copy() for a in ramp)
    for table in coefs + ((weights,) if weights is not None else ()):
        table.setflags(write=False)      # take would copy a read-only index
    return index, weights, coefs


def _combine(model: RelaxationModel, grid: LagrangianGrid,
             fld: _LevelRing) -> tuple:
    """Start of both steps: the history combination C into ``fld.comb``,

        C^j = -sum_l a_l H_l^j(foot_l^j),

    with H_l the history level l (past f forward, future lambda backward)
    at the field's level-l feet, and a the coefficients of the ramp entry
    for the L levels held.  Small levels go into ``fld.gather`` with one
    ``take`` from the ring (``mode="clip"`` skips the buffering of
    ``mode="raise"``; unfilled ramp slots are read, then left), times the
    weights; each pair is summed, times -a, and the levels summed from 0,
    in the prebuilt views of ``fld.plans[L-1]``.  Wide levels run these
    steps plane by plane out of the row slices of ``fld.span``, on its
    window only, aligned feet times -a at once, adding into ``comb``: both
    run the IEEE operations of 0 - a_0 H_0 - ..., so exact zeros keep
    their sign.  Returns the ramp entry's (keep, relax).
    """
    # a field's feet and weights hold only for what it was built with
    same = model is fld.model or (
        np.array_equal(model.velocities, fld.model.velocities)
        and np.array_equal(model.eps, fld.model.eps))
    if not same or (grid is not fld.grid and grid != fld.grid):
        raise ValueError("step called with a grid, velocities or eps other "
                         "than the field's")
    ring, head, buf, s = fld.ring, fld.head, fld.gather, len(fld.ring)
    L = min(fld.n + 1, s)
    index, weights, coefs = fld.feet
    if fld.plans:
        at_feet, lo, hi, w, c = fld.plans[L - 1]
        ring.take(index[head], out=buf, mode="clip")
        if hi is not None:
            np.multiply(at_feet, w, out=at_feet)
            np.add(lo, hi, out=lo)
        np.multiply(lo, c, out=lo)
        np.add.reduce(lo, axis=0, out=fld.comb, initial=0.0)
        return fld.weights[L - 1]
    lo, hi, levels = fld.span
    comb = fld.comb[..., lo:hi]
    for ell, (feet, c) in enumerate(zip(levels, coefs[L - 1])):
        plane, out = ring[(head + ell) % s], buf[0, 0, ..., lo:hi]
        for p, rows in enumerate(feet):
            scales = weights[ell][p] if weights else (c,) * len(rows)
            for j, (pieces, x) in enumerate(zip(rows, scales)):
                for dst, src in pieces:
                    np.multiply(x, plane[..., j, src],
                                out=buf[p, 0, ..., j, dst])
        if weights:
            out += buf[1, 0, ..., lo:hi]
            out *= c
        np.add(comb if ell else 0.0, out, out=comb)
    return fld.weights[L - 1]


def _guard_total(new: np.ndarray, take: bool):
    """The new level's guard reduction, non-finite if the level is:
    ``np.vdot`` of a take-plan level with itself (BLAS, 0.57 us at 238
    elements against einsum's 1.8), else an ``einsum`` sum over every axis
    of the wide level's window, which starts no BLAS thread and copies no
    strided window (12 us at 81922 elements against ``np.add.reduce``'s
    22).  Neither warns of overflow."""
    if take:
        return np.vdot(new, new)
    return np.einsum(new, range(new.ndim), ())


def _update(fld: _LevelRing, keep, relax, x: np.ndarray) -> np.ndarray:
    """End of both steps: the new level keep C + relax x (C in ``fld.comb``,
    ``x`` the model's map of C in the field's ``E`` buffer, scaled in place)
    into ring slot head - 1, free in the ramp and then the oldest level's,
    which becomes the head and is returned.  A wide level is computed on
    the window of ``fld.span`` only (``x`` is that window), and a windowed
    field then finds the next step's span.  A non-finite level raises
    ``SolverError`` naming the step, leaving head and n; the oldest level
    may be overwritten: do not step the field again.  The guard is one
    reduction (``_guard_total``), which a NaN or inf makes non-finite; only
    then (or on overflow) the exact isfinite check runs.
    """
    slot = (fld.head - 1) % len(fld.slots)
    new = level = fld.slots[slot]
    comb, windows = fld.comb, fld.windows
    if windows is not None:
        lo, hi = fld.span[:2]
        new, comb = level[..., lo:hi], comb[..., lo:hi]
        if keep.ndim:                        # level-shaped weights
            keep, relax = keep[..., lo:hi], relax[..., lo:hi]
    np.multiply(keep, comb, new)
    np.multiply(relax, x, x)
    new += x
    total = _guard_total(new, fld.plans is not None)
    if not math.isfinite(total) and not np.isfinite(new).all():
        raise SolverError(fld.blowup.format(fld.n + 1), fld.n + 1)
    fld.head = slot
    fld.n += 1
    if windows is not None:
        windows[slot] = lo, hi
        fld.reach()
    return level


class _LevelRing:
    """History ring and step work buffers shared by both field kinds.

    A field steps the BDF scheme ``tab`` of s stages (any other tableau is a
    ``ConfigError``).  Its ramp is BDF1, ..., BDF(s-1), ``tab``: L levels
    step ramp entry L, so the order ramps up while the ring fills.  ``ring``
    (s, ..., Nv, M) holds levels of the shape of ``first``, the newest in
    slot ``head`` and level l in slot (head + l) % s; ``slots`` views each
    slot, and ``feet`` holds the step's feet and -a (``_feet``).  The work
    buffers are ``comb`` (the history combination C), ``E`` and ``gather``,
    the levels at their P feet, (P, s) + level shape, (P, 1) for wide
    levels, which ``_combine`` gathers one by one.  ``plans[L-1]`` holds
    ramp entry L's views gather[:, :L], gather[0, :L], gather[1, :L] and
    weights[:, :L] (None when P = 1) and its -a, wide levels None.
    ``weights[L-1]`` holds the update's (keep, relax) of ramp entry L: relax
    = h/(h + eps) and the field kind's ``_keep(h, eps)``, h = dt b_-1, as
    0-d float64 arrays, which no step converts, for a float eps, or as
    level-shaped arrays, which multiply a level without the buffer NumPy
    allocates to broadcast a (B, 1, 1) factor; an eps that would grow the
    level is a ValueError.  Each field kind words its blow-up message in
    ``blowup``.

    A wide field steps on ``span``, (lo, hi, slices): the next step's node
    window and each foot's row slices into it (``reach``).  ``windows``
    holds per slot a window (lo, hi) outside which its level is exactly
    +0.0, for a model that maps a zero level to +0.0 (``_keeps_zero``):
    the first level's span of entries other than +0.0, (0, 0) for the
    unfilled slots, then each step's window.  Windows only grow, so a
    reused slot's old window lies within the new one, and the ring and
    ``comb`` of a wide field start zeroed: both stay +0.0 outside the
    window.  Once a window covers the grid, ``windows`` is None and the
    field runs full width, as other wide fields do from the start; take
    plans have no span.
    """

    def __init__(self, model: RelaxationModel, grid: LagrangianGrid,
                 dt: float, tab: MultistepTableau, first: np.ndarray,
                 speeds: np.ndarray):
        first = np.asarray(first, dtype=float)
        shape = (model.n_velocities, grid.n_nodes)
        if first.shape[-2:] != shape:
            raise ValueError(f"{type(self).__name__} levels must have "
                             f"trailing shape {shape}, got {first.shape}")
        if not tab.is_bdf:
            raise ConfigError(f"relaxation solver requires a BDF "
                                   f"tableau, got {tab.name}")
        eps = np.shape(model.eps)
        if len(eps) > first.ndim or any(
                e not in (1, n) for e, n in zip(eps[::-1], first.shape[::-1])):
            raise ValueError(f"eps of shape {eps} must broadcast to the "
                             f"{type(self).__name__} levels' shape "
                             f"{first.shape} without growing it")
        self.model, self.grid = model, grid
        ramp = [tableau(f"bdf{k}") for k in range(1, tab.s)] + [tab]
        self.n = self.head = 0
        self.ring = np.empty((tab.s,) + first.shape)
        self.ring[0] = first
        self.feet = _feet(grid, tuple(speeds.tolist()), dt,
                          tuple(eff.a for eff in ramp), first.shape[:-2])
        self.slots = tuple(self.ring)
        index, weights, coefs = self.feet  # per-head tables or level feet
        flat, pairs = isinstance(index[0], np.ndarray), weights is not None
        self.comb = (np.empty if flat else np.zeros)(first.shape)
        g = self.gather = np.empty((len(index[0]), tab.s if flat else 1)
                                   + first.shape)
        self.E = np.empty(first.shape)
        self.plans = [(g[:, :L], g[0, :L], g[1, :L] if pairs else None,
                       weights[:, :L] if pairs else None, coefs[L - 1])
                      for L in range(1, tab.s + 1)] if flat else None
        # a wide field computes each step on a window of nodes: the whole
        # grid, or where a model that keeps zero levels zero can read data
        self.windows = self.span = None
        if not flat:
            self.ring[1:] = 0.0
            if _keeps_zero(model):
                self.windows = [(0, 0)] * tab.s
                self.windows[0] = _support(self.ring[0])
            self.reach()
        # formed after the buffers: formed before them, the weights of an
        # eps study raised its peak RSS by 0.2 MB (heap order)
        self.weights = []
        for eff in ramp:
            h = dt * eff.b_implicit
            pair = self._keep(h, model.eps), h / (h + model.eps)
            self.weights.append(tuple(
                np.broadcast_to(c, first.shape).copy()
                if isinstance(model.eps, np.ndarray) else np.array(c)
                for c in pair))

    def reach(self):
        """The next step's window and slices into ``span``, from the
        windows of the held levels (``LagrangianGrid.window``); a window
        that covers the grid ends the field's windowing."""
        s, M = len(self.slots), self.grid.n_nodes
        held = ([(0, M)] if self.windows is None else
                [self.windows[(self.head + ell) % s] for ell in range(s)])
        self.span = self.grid.window(held, self.feet[0])
        if self.span[:2] == (0, M):
            self.windows = None

    @property
    def current(self) -> np.ndarray:
        return self.ring[self.head]


class KineticField(_LevelRing):
    """Per-velocity Eulerian arrays with an s-deep ring of past levels
    (level l at time index n - l), for the BDF scheme ``tab`` of s stages.

    ``feet`` holds the feet of the forward step, v_j (l+1) dt upstream of
    every node.  ``f0`` is one level, (Nv, M), without batch axes.
    """

    blowup = "non-finite kinetic field at step {}"
    _keep = staticmethod(lambda h, eps: 1.0 - h / (h + eps))

    def __init__(self, model: RelaxationModel, grid: LagrangianGrid,
                 dt: float, tab: MultistepTableau, f0: np.ndarray):
        if np.ndim(f0) != 2:
            raise ValueError(f"initial field must have no batch axes, got "
                             f"shape {np.shape(f0)}")
        super().__init__(model, grid, dt, tab, f0, model.velocities)


def forward_step(model: RelaxationModel, grid: LagrangianGrid,
                 fld: KineticField, out: np.ndarray) -> np.ndarray:
    """Advance the kinetic field one step of its scheme (or of its start-up
    ramp); returns u at the new level.

        f = (1 - w) C + w E(Q C),    w = h / (h + eps),  h = dt b_-1

    with C the history combination of ``_combine``.  Phase 1 computes
    u = Q C, the moment sum of the implicit update (the equilibrium term
    cancels via Q E(u) = u), into ``out`` (n, M) with the model's
    ``moments``; phase 2 is the per-point relaxation update ``_update``.
    A windowed field runs both phases on the step's window and writes +0.0
    into the row of ``out`` beyond it.  The arithmetic runs in the field's
    work buffers and the new level overwrites the evicted one, so a warm
    field allocates only the model's own temporaries.  A ``SolverError`` of
    the equilibrium (Broadwell's rho <= 0) gains the step's number.
    """
    keep, relax = _combine(model, grid, fld)
    comb, E, u_new = fld.comb, fld.E, out
    if fld.windows is not None:              # the step's window
        lo, hi = fld.span[:2]
        out[..., :lo] = out[..., hi:] = 0.0
        comb, E, u_new = comb[..., lo:hi], E[..., lo:hi], out[..., lo:hi]
    model.moments(comb, out=u_new)           # phase 1: macroscopic closure
    try:                                     # phase 2: relaxation update
        E = model.equilibrium(u_new, out=E)
    except SolverError as exc:
        raise SolverError(f"{exc} at step {fld.n + 1}", fld.n + 1) from None
    _update(fld, keep, relax, E)
    return out


def solve_forward(model: RelaxationModel, grid: LagrangianGrid,
                  tab: MultistepTableau, u0: np.ndarray, n_steps: int,
                  dt: float, out: np.ndarray | None = None):
    """Run the forward solver from equilibrium-lifted macroscopic data
    ``u0``, (n, M) or, for n = 1, (M,); any other shape is a ValueError.

    Returns (field, u_store) where u_store has shape (n_steps+1, n, M); the
    full in-memory store backs the adjoint solver.  ``out`` follows the
    NumPy convention: given a float64 array of that shape, the store is
    written into it and returned, so a caller that solves repeatedly can
    reuse one store; any other ``out`` is a ValueError raised before the
    first step.  A store that cannot be allocated is a ``ConfigError``
    naming dt.  The steps raise no overflow warning: the guard refuses a
    non-finite level as ``SolverError``.
    """
    shape = (n_steps + 1, model.n_conserved, grid.n_nodes)
    if out is not None and (out.shape != shape or out.dtype != np.float64):
        raise ValueError(f"out must be a float64 store of shape {shape}, "
                         f"got {out.dtype} {out.shape}")
    u0 = np.atleast_2d(np.asarray(u0, dtype=float))
    if u0.shape != shape[1:]:
        raise ValueError(f"u0 must have shape {shape[1:]}, got {u0.shape}")
    try:                                     # the lift is step 0
        f0 = model.equilibrium(u0)
    except SolverError as exc:
        raise SolverError(f"{exc} at step 0", 0) from None
    fld = KineticField(model, grid, dt, tab, f0)
    try:
        u_store = np.empty(shape) if out is None else out
    except MemoryError:
        raise ConfigError(
            f"key 'dt': must be large enough for the forward store of "
            f"{n_steps} steps ({8 * math.prod(shape):.3g} bytes) to be "
            f"allocated, got {dt:g}") from None
    model.moments(f0, out=u_store[0])
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(n_steps):
            forward_step(model, grid, fld, out=u_store[k + 1])
    return fld, u_store


class AdjointField(_LevelRing):
    """Backward multipliers lambda^j with an s-deep future-time buffer, for
    the BDF scheme ``tab`` of s stages.

    Level i of the ring holds t_{n+i}.  The buffer starts with the
    terminal data alone and ramps the BDF order up as levels accumulate,
    mirroring the forward start-up (a constant-extension seeding of all s
    slots degrades the backward sweep to first order; see tests).  ``feet``
    holds the feet of the backward step, v_j (i+1) dt downstream of every
    node.  ``lam_T`` is (..., Nv, M): leading axes batch independent
    multiplier fields over one frozen forward state.  ``jac_shape`` is the
    (Nv, n, M) of the Jacobian a step takes, and ``phi`` (..., n, M) holds
    the step's J^T C.
    """

    blowup = "non-finite adjoint field at backward step {}"
    _keep = staticmethod(lambda h, eps: eps / (eps + h))

    def __init__(self, model: RelaxationModel, grid: LagrangianGrid,
                 dt: float, tab: MultistepTableau, lam_T: np.ndarray):
        super().__init__(model, grid, dt, tab, lam_T, -model.velocities)
        self.jac_shape = (model.n_velocities, model.n_conserved, grid.n_nodes)
        self.phi = np.empty(self.current.shape[:-2] + self.jac_shape[1:])


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
    ``jac`` may be any strided view, such as a level of ``solve_adjoint``'s
    planar block.  A grid or model not the field's, then a ``jac`` not of
    ``adj.jac_shape``, is a ValueError that leaves the ring, head and n as
    they were.

    Q^T (J^T C) is the model's ``adjoint_source``, with J^T C in the
    field's ``phi`` and the result in its ``E`` buffer, which ``_update``
    scales in place.  The arithmetic runs in the field's work buffers.  The returned array is
    the field's newest level, a ring slot: it stays valid until the field
    has been stepped s more times, then holds a newer level.
    """
    keep, relax = _combine(model, grid, adj)
    if jac.shape != adj.jac_shape:
        raise ValueError(f"equilibrium Jacobian must have shape "
                         f"{adj.jac_shape}, got {jac.shape}")
    comb, phi, E = adj.comb, adj.phi, adj.E
    if adj.windows is not None:              # the step's window
        lo, hi = adj.span[:2]
        jac, comb, phi, E = (jac[..., lo:hi], comb[..., lo:hi],
                             phi[..., lo:hi], E[..., lo:hi])
    x = model.adjoint_source(jac, comb, phi, E)
    return _update(adj, keep, relax, x)


def terminal_multipliers(model: RelaxationModel, p_terminal: np.ndarray) -> np.ndarray:
    """Spread terminal adjoint data d (..., n, M) over the velocities at T,
    shape (..., Nv, M); ``gradient_from_adjoint`` is the transpose at t = 0.

    For n > 1 the pair is the exact transpose of u = Q f at T and of the
    lifting f_j(0) = E_j(u0): lambda^j(T) = sum_r Q_rj d_r here, and
    g_r = sum_j lambda^j(0) dE_j/du_r(u0) there.  For n = 1 it is the
    rescaled lambda^j(T) = d/Nv with g = sum_j lambda^j(0), a consistent
    approximation that drops F'(u0)(lambda^+ - lambda^-)/a on Jin-Xin
    (lambda^+- the multipliers of the speeds +-a).
    """
    p_terminal = np.atleast_2d(np.asarray(p_terminal, dtype=float))
    if model.n_conserved == 1:
        return np.repeat(p_terminal, model.n_velocities, axis=-2) / model.n_velocities
    return np.einsum("rj,...rm->...jm", model.q_matrix, p_terminal)


def gradient_from_adjoint(model: RelaxationModel, lam0: np.ndarray,
                          u0: np.ndarray | None = None) -> np.ndarray:
    """Gradient of the macroscopic initial data from lambda(0) (..., Nv, M),
    shape (..., n, M): the transpose of ``terminal_multipliers``, which
    states the convention.  For n > 1 it needs the initial data ``u0``."""
    if model.n_conserved == 1:
        return lam0.sum(axis=-2, keepdims=True)
    if u0 is None:
        raise ValueError("multi-moment gradient needs the current initial data")
    jac = model.equilibrium_jac(np.atleast_2d(u0))
    return np.einsum("...jm,jrm->...rm", lam0, jac)


# Largest Jacobian block of solve_adjoint, in grid nodes: one
# equilibrium_jac call covers max(1, _JAC_BLOCK_NODES // M) stored levels.
# With planar blocks, relax-paper's descents take one block per sweep
# (Jin-Xin 60 x 119 nodes, Broadwell 15 x 320).  In process, against this
# value (2-vCPU VM, median over alternating runs): 4096 nodes, two blocks
# per sweep, control-jinxin 48.4 against 47.0 ms and control-broadwell
# 68.5 against 65.3 ms (slower in 8 of 10 pairs); one level per block
# 59.0 against 48.2 ms and 91.2 against 68.1 ms (5 of 6).
_JAC_BLOCK_NODES = 65536


def solve_adjoint(model: RelaxationModel, grid: LagrangianGrid,
                  tab: MultistepTableau, u_store: np.ndarray,
                  lam_T: np.ndarray, n_steps: int, dt: float) -> np.ndarray:
    """March the adjoint from t = T back to t = 0 and return lambda(0).

    ``u_store`` is the forward conserved-variable store (level k = time t_k),
    with at least ``n_steps`` levels of shape (n, M); anything else, None
    included, is a ValueError.  The step computing level k-1 takes the
    equilibrium Jacobian at u_store[k-1].  The Jacobians are evaluated a
    block of levels at a time, newest block first, in one
    ``equilibrium_jac`` call on the store's rows (K, n, M) per block, K
    levels of at most ``_JAC_BLOCK_NODES`` nodes in all (one level on wider
    grids).  A block is planar: a (Nv, n, K, M) buffer viewed as
    (K, Nv, n, M), so the model's in-place ufuncs write each dE_j/du_r as
    one contiguous (K, M) plane, and each step reads its level as an
    (Nv, n, M) view.  A windowed field (see the module notes) takes one
    level per block, evaluated on its step's window only; the step reads
    no Jacobian entry outside it, and maps C = +0.0 there to +0.0 given a
    Jacobian that is finite at every finite state, as both Jin-Xin
    Jacobians are.  ``lam_T`` (..., Nv, M) may carry batch axes, which
    the returned lambda(0) keeps.
    """
    adj = AdjointField(model, grid, dt, tab, lam_T)
    shape, got = (model.n_conserved, grid.n_nodes), np.shape(u_store)
    if got[1:] != shape or got[0] < n_steps:
        raise ValueError(f"u_store must hold at least {n_steps} levels of "
                         f"shape {shape}, got shape {got}")
    # a windowed field takes each level's Jacobian on its step's window
    K = (1 if adj.windows is not None
         else max(1, _JAC_BLOCK_NODES // grid.n_nodes))
    planes = np.empty((model.n_velocities, model.n_conserved, min(K, n_steps),
                       grid.n_nodes))
    jacs = planes.transpose(2, 0, 1, 3)      # (K, Nv, n, M), planar
    for k in range(n_steps, 0, -K):          # levels lo, ..., k-1
        lo = max(k - K, 0)
        cols = slice(*adj.span[:2]) if adj.span is not None else slice(None)
        model.equilibrium_jac(u_store[lo:k, :, cols],
                              out=jacs[:k - lo, ..., cols])
        for jac in jacs[:k - lo][::-1]:      # jacs[i]: level lo + i
            adjoint_step(model, grid, adj, jac)
    return adj.current


def transport_oracle(grid: LagrangianGrid, p_terminal: Callable,
                     speed: float, T: float) -> np.ndarray:
    """Characteristics solution of -p_t - c p_x = 0: p(0, x) = p_T(x + c T).

    ``p_terminal`` is evaluated analytically at the shifted positions,
    folded into the domain by the grid, so no grid interpolation enters.
    """
    x = grid.fold(grid.nodes() + speed * T)
    return np.asarray(p_terminal(x), dtype=float)

