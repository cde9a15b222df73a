"""Batch MAP estimation over the space-time grid.

Gauss-Newton with step halving on top of a banded normal-equations solver.

Linearization has one batched path for every factor.  A factor family is
a `graph.Family`: either a prior kind, which `graph.build_prior_factors`
emits already stacked (unary, spatial, temporal and cell), or a measurement
group, which `sensors.group_measurements` stacks once per Gauss-Newton run
by (sensor kind, binding shape).  Each has (m, B) `nodes`, stacked
`weights` and a batched `evaluate` that always returns the errors with
their Jacobians; the cost is read off the same linearization.  Every pair
of slots in a family has one fixed node offset, so each family costs one
batched kernel call and one scatter of whole 24x24 blocks into the normal
equations.

Stencil layout.  The GP prior couples a node only to its 8 lattice
neighbours, so the normal equations and the covariance blocks share one
layout: per node (time-major, k*N + n), its diagonal block (slot 0) and its
blocks with the 4 neighbours that follow it in time-major order (slots 1-4,
`FORWARD`).  Slots with no neighbour, at the grid's edges, hold zeros.

Ordering and band.  The factorization permutes the nodes so the sweep runs
along the longer grid axis (along time when N == K).  Stencil neighbours
are then at most b positions apart, b = min(N, K) + 1 when both axes have
two knots or more, 1 along a single row or column and 0 for one node, so
the matrix has 24*(b + 1) - 1 sub-diagonals and one LAPACK banded Cholesky
(`dpbtrf`, solved by `dpbtrs`) costs time linear in the longer axis.  The
stencil reaches the band block by block: each stored stencil block has a
band block column, an offset below the diagonal and a flag for a transposed
read (`_BandLayout`, O(NK) ints).  The block columns, stored by matrix
column with one zero block to spare, are LAPACK's band storage through one
strided view (`_skewed`): assembly scatters into them and copies the view
out, and the factor is un-skewed through it once for the selected inverse.
A failed pivot is mapped back through the ordering to its time-major node.

Selected inverse.  The covariance's band is closed under the Takahashi
recursion (Takahashi, Fagan & Chin 1973; Rue & Held 2005): sweeping block
columns backwards, each column's band blocks depend only on later columns'.
Of the band only the stencil layout is kept; it holds every node pair the
interpolator reads.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np
from numpy.lib.stride_tricks import as_strided
from scipy.linalg.lapack import dpbtrf, dpbtrs

from .graph import FactorSet, Grid
from .sensors import group_measurements
from .prior import (ChartRangeError, PriorParams,
                    decode_with_jacobians_batch)

BLOCK = 24
# (dn, dk) of the forward stencil neighbours, in slot order 1..4
FORWARD = ((1, 0), (-1, 1), (0, 1), (1, 1))
SLOTS = 1 + len(FORWARD)


class NotPositiveDefiniteError(RuntimeError):
    """Normal equations lost positive definiteness during factorization."""

    def __init__(self, node: int, detail: str = ""):
        self.node = node
        msg = f"system not positive definite at block row {node}"
        if detail:
            msg += f" ({detail})"
        super().__init__(msg)


def stencil_slot(N: int, i, j):
    """Slot of node j in node i's stencil row: 0 when j == i, else 1-4 by
    (dn, dk) as in `FORWARD`.  j must be i or one of its forward neighbours;
    works elementwise on index arrays."""
    dk = j // N - i // N
    dn = j % N - i % N
    return (j != i) * (1 + dk * (dn + 2))


@dataclass
class BlockBandedSystem:
    """Symmetric block matrix H in the stencil layout, the right-hand side
    and the cost it was linearized at.  `blocks[k, n, s]` is H[node,
    neighbour] for node (n, k) and the neighbour in slot s (itself for
    s = 0); each coupling is stored once."""

    N: int
    K: int
    blocks: np.ndarray
    rhs: np.ndarray
    cost: float = 0.0

    @staticmethod
    def zeros(N: int, K: int) -> "BlockBandedSystem":
        return BlockBandedSystem(N, K, np.zeros((K, N, SLOTS, BLOCK, BLOCK)),
                                 np.zeros((K, N, BLOCK)))

    @property
    def diag(self) -> np.ndarray:
        return self.blocks[:, :, 0]

    @property
    def offdiag(self) -> np.ndarray:
        return self.blocks[:, :, 1:]

    @property
    def dim(self) -> int:
        return BLOCK * self.N * self.K

    def rhs_flat(self) -> np.ndarray:
        return self.rhs.reshape(-1)


# ---------------------------------------------------------------------------
# linearization


def _scatter_family(system: BlockBandedSystem, nodes: np.ndarray,
                    jacs: Sequence[np.ndarray], weights: np.ndarray,
                    errors: np.ndarray):
    """Accumulate J^T W J and -J^T W e for one family of same-shape factors.

    `nodes[i]` is the (B,) flat-index array of the i-th slot, `jacs[i]` the
    matching (B, m, 24) Jacobian stack.  Every slot pair of a family has one
    fixed node offset and each item targets a distinct block, so each pair
    is one fancy-indexed add of whole 24x24 blocks.  Of the two orderings of
    a node pair only the one whose second node follows the first is stored.
    """
    blocks = system.blocks.reshape(-1, SLOTS, BLOCK, BLOCK)
    rhs = system.rhs.reshape(-1, BLOCK)
    wj = [weights @ J for J in jacs]
    we = weights @ errors[..., None]
    for ni, Ji in zip(nodes, jacs):
        jt = np.swapaxes(Ji, -1, -2)
        rhs[ni] -= (jt @ we)[..., 0]
        for nj, WJj in zip(nodes, wj):
            if nj[0] >= ni[0]:
                blocks[ni, stencil_slot(system.N, ni, nj)] += jt @ WJj


def _family_geom(factors: FactorSet):
    """Every factor family (`graph.Family`): the non-empty prior families
    and the measurement groups.  Each has (m, B) `nodes`, (B, d, d)
    `weights` and `evaluate(state_arrays)`, which returns the errors and
    the m per-slot Jacobian stacks.

    Everything here is state independent, so the Gauss-Newton loop builds it
    once and reuses it for every linearization.
    """
    return factors.prior_families() + group_measurements(factors.measurement)


def evaluate_cost(factors: FactorSet, grid: Grid) -> float:
    """Sum of squared Mahalanobis errors over all factors at the given states."""
    return linearize(factors, grid).cost


def linearize(factors: FactorSet, grid: Grid) -> BlockBandedSystem:
    """Assemble sum(J^T W J), rhs = -sum(J^T W e) and the cost sum(e^T W e)
    at the grid's states.

    One batched kernel call and one scatter per factor family.  A
    chart-range failure is re-raised with the offending factor's nodes
    identified.
    """
    return _linearize(_family_geom(factors), grid)


def _linearize(geom, grid: Grid) -> BlockBandedSystem:
    system = BlockBandedSystem.zeros(grid.N, grid.K)
    sa = grid.states
    for fam in geom:
        try:
            e, *jacs = fam.evaluate(sa)
        except ChartRangeError as ex:
            item = fam.nodes[:, ex.index % fam.nodes.shape[1]].tolist()
            raise ChartRangeError(
                ex.angle, ex.index,
                f"while linearizing {fam.kind} factor at nodes {item}") from ex
        _scatter_family(system, fam.nodes, jacs, fam.weights, e)
        system.cost += float(np.sum(e[..., None, :] @ fam.weights
                                    @ e[..., None]))
    return system


# ---------------------------------------------------------------------------
# banded Cholesky, solves, selected inverse


def sweep_order(N: int, K: int) -> np.ndarray:
    """Time-major node at each position of the banded ordering: the sweep
    runs along the longer grid axis (along time when N == K)."""
    nodes = np.arange(N * K).reshape(K, N)
    return (nodes.T if N > K else nodes).reshape(-1)


@dataclass
class _BandLayout:
    """The block map from the stencil layout to LAPACK's lower band storage,
    ab[r, c] = A[c + r, c] for the permuted matrix A.

    Band blocks live in block columns stored by matrix column,
    `cols[P, a, 24d + e] = A[24(P + d) + e, 24P + a]` for d = 0..b + 1, from
    which `_skewed` reads ab.  Stencil block H[u, v] sits in block column
    min(p, q) at offset |p - q|, p and q the band positions of u and v; it
    is A's lower block there, and so read transposed, when p >= q."""

    order: np.ndarray  # (NK,) time-major node at each band position
    width: int         # block bandwidth b
    # (transposed, flat stencil blocks u * SLOTS + s, band index) of the
    # plain blocks, then of the transposed ones; the band index reads block
    # columns viewed as (NK, 24, blocks, 24)
    parts: tuple


def _band_layout(N: int, K: int) -> _BandLayout:
    order = sweep_order(N, K)
    pos = np.argsort(order)
    k, n = np.divmod(np.arange(N * K), N)
    # every node u, stencil slot s and the neighbour v in it
    dn, dk = np.array(((0, 0),) + FORWARD).T[:, :, None]
    s, u = np.nonzero((n + dn >= 0) & (n + dn < N) & (k + dk < K))
    v = u + dk[s, 0] * N + dn[s, 0]
    p, q = pos[u], pos[v]
    col, off = np.minimum(p, q), np.abs(p - q)
    parts = tuple((t, u[m] * SLOTS + s[m], (col[m], slice(None), off[m]))
                  for t, m in ((False, p < q), (True, p >= q)))
    return _BandLayout(order, int(np.max(off)), parts)


def _skewed(cols: np.ndarray) -> np.ndarray:
    """ab.T as a view of block columns `cols` (NK, 24, W): row 24P + a is
    column a of block column P read from its row a on, W - 24 entries.  The
    last block of each row, a zero block, keeps every read inside its row."""
    st = cols.strides
    return as_strided(cols, cols.shape[:2] + (cols.shape[2] - BLOCK,),
                      (st[0], st[1] + st[2], st[2]))


@dataclass
class BandedFactorization:
    """`band` is `dpbtrf`'s lower Cholesky factor of the permuted system, in
    LAPACK band storage.  `L` and `X` are its block columns, read from one
    un-skew: the (NK, 24, 24) diagonal blocks and the (NK, 24b, 24) panels
    below them, in band order."""

    N: int
    K: int
    band: np.ndarray
    layout: _BandLayout

    @functools.cached_property
    def _cols(self) -> np.ndarray:
        cols = np.zeros((self.N * self.K, BLOCK, len(self.band) + BLOCK))
        _skewed(cols)[...] = self.band.T.reshape(len(cols), BLOCK, -1)
        return cols

    @property
    def L(self) -> np.ndarray:
        return np.ascontiguousarray(np.swapaxes(self._cols[..., :BLOCK], 1, 2))

    @property
    def X(self) -> np.ndarray:
        return np.ascontiguousarray(
            np.swapaxes(self._cols[..., BLOCK:-BLOCK], 1, 2))


def assemble_band(system: BlockBandedSystem,
                  layout: Optional[_BandLayout] = None) -> np.ndarray:
    """The permuted system in LAPACK lower band storage, (kd+1, 24NK) in
    Fortran order: one scatter of the plain stencil blocks and one of the
    transposed into zeroed block columns, copied out through `_skewed`."""
    lay = layout or _band_layout(system.N, system.K)
    cols = np.zeros((system.N * system.K, BLOCK, BLOCK * (lay.width + 2)))
    band = cols.reshape(len(cols), BLOCK, -1, BLOCK)
    blocks = system.blocks.reshape(-1, BLOCK, BLOCK)
    for t, st, idx in lay.parts:
        band[idx] = (np.swapaxes(blocks, 1, 2) if t else blocks)[st]
    ab = _skewed(cols)
    return ab.reshape(-1, ab.shape[2]).T


def factorize(system: BlockBandedSystem) -> BandedFactorization:
    """Banded Cholesky of the normal equations in the sweep order.  A failed
    pivot names the time-major node it falls in."""
    lay = _band_layout(system.N, system.K)
    ab, info = dpbtrf(assemble_band(system, lay), lower=1, overwrite_ab=1)
    if info > 0:
        node = int(lay.order[(info - 1) // BLOCK])
        raise NotPositiveDefiniteError(
            node, "failed pivot in the banded Cholesky factorization")
    if info < 0:
        raise ValueError(f"illegal value in Cholesky argument {-info}")
    return BandedFactorization(system.N, system.K, ab, lay)


def solve_factorized(fact: BandedFactorization, rhs: np.ndarray) -> np.ndarray:
    """Solve H x = rhs for a time-major right-hand side of 24NK entries;
    returns the flat time-major solution."""
    order = fact.layout.order
    r = np.asarray(rhs, dtype=float).reshape(-1, BLOCK)[order]
    x, info = dpbtrs(fact.band, r.reshape(-1, 1), lower=1)
    if info != 0:
        raise ValueError(f"illegal value in banded solve argument {-info}")
    out = np.empty_like(r)
    out[order] = x.reshape(-1, BLOCK)
    return out.reshape(-1)


@dataclass
class CornerCovariances:
    """Posterior covariance blocks in the stencil layout: node marginals
    `sig_diag` (K, N, 24, 24) and forward-neighbour blocks `sig_off`
    (K, N, 4, 24, 24), every node pair the interpolator binds together."""

    N: int
    K: int
    sig_diag: np.ndarray
    sig_off: np.ndarray

    @property
    def node_marginals(self) -> np.ndarray:
        return self.sig_diag.reshape(self.N * self.K, BLOCK, BLOCK)

    def joint(self, nodes) -> np.ndarray:
        """Joint covariance of a set of nodes that are pairwise stencil
        neighbours, its blocks in the order of the ids: (24m, 24m) for m
        node ids, or (B, 24m, 24m) for an (m, B) array of B such sets.  The
        node marginals are one gather and the blocks of every pair of
        positions another, each pair reading its stencil slot; the result
        is symmetric because the stored marginals are."""
        nodes = np.asarray(nodes)
        m, N = len(nodes), self.N
        a, b = np.triu_indices(m, 1)
        lo, hi = np.sort([nodes[a], nodes[b]], axis=0)
        dk, dn = hi // N - lo // N, hi % N - lo % N
        bad = ~(((dk == 0) & (dn == 1)) | ((dk == 1) & (abs(dn) <= 1)))
        if bad.any():
            i, j = np.stack([lo, hi], -1)[bad][0]
            raise ValueError(f"nodes {i},{j} are not stencil neighbours")
        off = self.sig_off.reshape(-1, SLOTS - 1, BLOCK, BLOCK)[
            lo, stencil_slot(N, lo, hi) - 1]
        flip = nodes[a] > nodes[b]
        if flip.any():
            off = np.where(flip[..., None, None], np.swapaxes(off, -1, -2), off)
        out = np.empty(nodes.shape[1:] + (m, BLOCK, m, BLOCK))
        pairs = np.moveaxis(out, (-4, -2), (0, 1))  # a view indexed [a, b]
        pairs[np.arange(m), np.arange(m)] = self.node_marginals[nodes]
        pairs[a, b] = off
        pairs[b, a] = np.swapaxes(off, -1, -2)
        return out.reshape(nodes.shape[1:] + (BLOCK * m, BLOCK * m))


def corner_covariances(fact: BandedFactorization) -> CornerCovariances:
    """Band of the inverse by the blocked Takahashi recursion, returned in
    the stencil layout.

    With H = L L^T, Sigma L = L^-T gives, for block column P with diagonal
    block L_P and panel X_P below it (the band rows of the next b columns),
        Sigma[P+1:P+b+1, P] = -Sigma[P+1:P+b+1, P+1:P+b+1] X_P L_P^-1
        Sigma[P, P]         = L_P^-T L_P^-1 - Sigma[P+1:P+b+1, P]^T X_P L_P^-1
    The window over columns P..P+b slides one block up the diagonal of a
    buffer twice its size, so step P+1's window holds step P's trailing
    blocks in place; it is copied back to the far corner every b+2 steps.
    Diagonal-block inverses are batched up front, so the loop runs only
    NumPy products, never alternating BLAS libraries; its window product
    runs per 24-row block, small enough to stay on the calling thread
    rather than wait on BLAS workers the factorization's library holds.
    """
    N, K = fact.N, fact.K
    nb = N * K
    lay = fact.layout
    b = lay.width
    w = BLOCK * (b + 1)
    l_inv = np.linalg.inv(fact.L)
    xl = fact.X @ l_inv
    ltl = np.swapaxes(l_inv, 1, 2) @ l_inv
    # band block columns by matrix column, as `_BandLayout` keeps them
    cols = np.empty((nb, BLOCK, w))
    buf = np.zeros((2 * w, 2 * w))
    o = w + BLOCK
    for p in range(nb - 1, -1, -1):
        o -= BLOCK
        if o < 0:
            buf[w + BLOCK:, w + BLOCK:] = buf[:w - BLOCK, :w - BLOCK]
            o = w
        win = buf[o:o + w, o:o + w]
        col = -(win[BLOCK:, BLOCK:].reshape(b, BLOCK, w - BLOCK) @ xl[p])
        col = col.reshape(w - BLOCK, BLOCK)
        diag = ltl[p] - col.T @ xl[p]
        win[BLOCK:, :BLOCK] = col
        win[:BLOCK, BLOCK:] = col.T
        win[:BLOCK, :BLOCK] = 0.5 * (diag + diag.T)
        cols[p] = win[:BLOCK]
    band = cols.reshape(nb, BLOCK, b + 1, BLOCK)
    sig = np.zeros((nb * SLOTS, BLOCK, BLOCK))
    for t, st, idx in lay.parts:
        sig[st] = np.swapaxes(band[idx], 1, 2) if t else band[idx]
    sig = sig.reshape(K, N, SLOTS, BLOCK, BLOCK)
    return CornerCovariances(N, K, sig[:, :, 0], sig[:, :, 1:])


# ---------------------------------------------------------------------------
# Gauss-Newton


@dataclass
class SolverOptions:
    """`tol` bounds the Gauss-Newton decrement at which the iteration stops,
    in chi-square units of the cost (see `gauss_newton`): every node of the
    returned state is within sqrt(tol) posterior standard deviations of the
    next Gauss-Newton iterate."""

    max_iters: int = 50
    tol: float = 1e-8
    max_step_halvings: int = 8

    def __post_init__(self):
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if not self.tol > 0:
            raise ValueError("tol must be > 0")


@dataclass
class ConvergenceReport:
    converged: bool
    iterations: int
    initial_cost: float
    final_cost: float
    cost_trace: List[float]
    update_norms: List[float]   # max |delta| of each iteration's step
    decrements: List[float]     # its Gauss-Newton decrement delta . rhs
    halvings: List[int]
    message: str
    time_linearize: float = 0.0
    time_factorize: float = 0.0
    time_solve: float = 0.0
    time_covariance: float = 0.0
    time_total: float = 0.0


class Posterior:
    """Converged states plus the covariance blocks queries need.

    Covariance extraction is deferred until first access when the posterior
    is built from a factorization; `report.time_covariance` is filled in at
    that point.  A posterior reconstructed from serialized blocks carries
    them directly.
    """

    def __init__(self, grid: Grid, params: PriorParams,
                 cov: Optional["CornerCovariances"], report: ConvergenceReport,
                 factorization: Optional[BandedFactorization] = None):
        if cov is None and factorization is None:
            raise ValueError("need covariance blocks or a factorization")
        self.grid = grid
        self.params = params
        self.report = report
        self._cov = cov
        self._fact = factorization

    @property
    def cov(self) -> "CornerCovariances":
        if self._cov is None:
            t = time.perf_counter()
            self._cov = corner_covariances(self._fact)
            self._fact = None
            self.report.time_covariance = time.perf_counter() - t
        return self._cov

    @property
    def node_marginals(self) -> np.ndarray:
        return self.cov.node_marginals


def apply_update(grid: Grid, delta: np.ndarray) -> Grid:
    """The grid retracted by the flat (24NK,) step, each node's 24-block
    added in that node's own chart."""
    sa = grid.states
    z = sa.chart_origin() + np.asarray(delta, dtype=float).reshape(
        grid.n_nodes, BLOCK)
    return Grid(grid.s_knots.copy(), grid.t_knots.copy(),
                decode_with_jacobians_batch(z, sa.R, sa.t, want_jac=False)[0])


def gauss_newton(grid: Grid, factors: FactorSet, params: PriorParams,
                 opts: Optional[SolverOptions] = None) -> Posterior:
    """Iterate linearize/solve/retract until the Gauss-Newton decrement
    falls below `opts.tol`.

    The cost is sum(e^T W e), so the decrement delta^T H delta = delta . rhs,
    free from the solve, is the cost decrease the linear model predicts for
    the step, in chi-square units (Newton's decrement; Boyd & Vandenberghe,
    Convex Optimization, 9.5.1).  H is the posterior information and no
    node's marginal Mahalanobis norm exceeds the joint one, so when it is
    below tol the step moves every node by less than sqrt(tol) posterior
    standard deviations.  A step with delta . rhs < 0 is no descent
    direction and never counts as converged.

    Convergence is declared before applying the final step, so the
    returned covariance is evaluated at exactly the reported states.  When the
    iteration cap is hit or halving fails, the last factorization is still
    used for the covariance and the report flags the non-convergence; a
    non-positive-definite system raises instead.
    """
    opts = opts or SolverOptions()
    t0 = time.perf_counter()
    grid = grid.copy()
    geom = _family_geom(factors)
    trace: List[float] = []
    norms: List[float] = []
    decrements: List[float] = []
    halvings: List[int] = []
    tl = tf = ts = 0.0
    converged = False
    message = "iteration limit reached"
    system = None
    cost = None

    for iterations in range(1, opts.max_iters + 1):
        if system is None:
            t = time.perf_counter()
            system = _linearize(geom, grid)
            tl += time.perf_counter() - t
            cost = system.cost
            trace.append(cost)
        t = time.perf_counter()
        fact = factorize(system)
        tf += time.perf_counter() - t
        t = time.perf_counter()
        delta = solve_factorized(fact, system.rhs_flat())
        ts += time.perf_counter() - t
        norms.append(float(np.max(np.abs(delta))) if delta.size else 0.0)
        # elementwise: a BLAS dot this long (24NK >= 1e4 at long_rod's
        # 41x11) wakes numpy's BLAS threads, which then spin against the
        # next linearization on a small machine
        decrement = float(np.sum(delta * system.rhs_flat()))
        decrements.append(decrement)
        if 0.0 <= decrement < opts.tol:
            converged = True
            message = "Gauss-Newton decrement below tol"
            break

        # an accepted trial's linearization is the next iteration's system,
        # so acceptance tests cost no extra factor sweeps
        scale = 1.0
        accepted = False
        nh = 0
        for nh in range(opts.max_step_halvings + 1):
            trial = apply_update(grid, scale * delta)
            t = time.perf_counter()
            trial_system = _linearize(geom, trial)
            tl += time.perf_counter() - t
            if trial_system.cost <= cost * (1.0 + 1e-12) + 1e-300:
                accepted = True
                break
            scale *= 0.5
        halvings.append(nh)
        if not accepted:
            message = (f"step halving exhausted after {opts.max_step_halvings}"
                       f" halvings at iteration {iterations}")
            break
        grid = trial
        system = trial_system
        cost = system.cost
        trace.append(cost)

    report = ConvergenceReport(
        converged=converged, iterations=iterations,
        initial_cost=trace[0], final_cost=trace[-1], cost_trace=trace,
        update_norms=norms, decrements=decrements, halvings=halvings,
        message=message,
        time_linearize=tl, time_factorize=tf, time_solve=ts,
        time_covariance=0.0, time_total=time.perf_counter() - t0)
    return Posterior(grid, params, None, report, factorization=fact)
