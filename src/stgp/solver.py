"""Batch MAP estimation over the space-time grid.

Gauss-Newton with step halving on top of a banded normal-equations solver.

Linearization has one batched path for every factor.  A factor family is
a `graph.Family`: either a prior kind, which `graph.build_prior_factors`
emits already stacked (unary, spatial, temporal and cell), or a measurement
group, which `sensors.group_measurements` stacks once per Gauss-Newton run
by (sensor kind, binding shape).  Each has (m, B) `nodes`, stacked
`weights` and a batched `evaluate` that always returns the errors with
their Jacobians; the cost is read off the same linearization.  Each family
costs one batched kernel call, however many of its factors share a node
set.  Every pair of slots in a family has one fixed node offset, so its
scatter adds whole 24x24 blocks into the normal equations with one
fancy-indexed add per slot pair and round: round r holds the r-th factor on
each node set, and no add within a round hits one block twice.

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
(`dpbtrf`, solved by `dpbtrs`) costs time linear in the longer axis.  One
strided view of LAPACK's lower band storage (`_block_view`) reads it as
block columns, ab[24d + e - a, 24P + a] = A[24(P + d) + e, 24P + a] for
d = 0..b, and both directions go through it: assembly writes the stencil
blocks straight into the array `dpbtrf` factors in place, and the selected
inverse reads the factor's block columns from it, so an estimate holds one
band at a time.  Each stored stencil block has a band block column, an
offset below the diagonal and a flag for a transposed read (`_BandLayout`,
O(NK) ints).  A failed pivot is mapped back through the ordering to its
time-major node.

Selected inverse.  The covariance's band is closed under the Takahashi
recursion (Takahashi, Fagan & Chin 1973; Rue & Held 2005): sweeping block
columns backwards, each column's band blocks depend only on later columns'.
Of the band only the stencil layout is kept; it holds every node pair the
interpolator reads.
"""

from __future__ import annotations

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
# a Gauss-Newton step is halved at most this often before the run stops
MAX_STEP_HALVINGS = 8


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


def _rounds(first: np.ndarray) -> list:
    """Item selectors of a family's scatter rounds, `first` its items' first
    nodes: round r holds the r-th occurrence of each first node, in item
    order.  With no repeat that is one `slice(None)`, so the round copies
    nothing."""
    order = np.argsort(first, kind="stable")
    ranked = first[order]
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order)) - np.searchsorted(ranked, ranked)
    if not rank.any():
        return [slice(None)]
    return [np.flatnonzero(rank == r) for r in range(rank.max() + 1)]


def _scatter_family(system: BlockBandedSystem, nodes: np.ndarray,
                    jacs: Sequence[np.ndarray], weights: np.ndarray,
                    errors: np.ndarray):
    """Accumulate J^T W J and -J^T W e for one family of same-shape factors.

    `nodes[i]` is the (B,) flat-index array of the i-th slot, `jacs[i]` the
    matching (B, m, 24) Jacobian stack.  Every slot pair of a family has one
    fixed node offset, so an item's first node names its node set, and items
    with distinct first nodes target distinct blocks.  Items that share a
    node set go in separate rounds (`_rounds`), and each round adds every
    slot pair with one fancy-indexed add of whole 24x24 blocks.  The rounds
    run outermost, so the family adds the same sums in the same order as
    its rounds would as separate families.  Of the two orderings of a node
    pair only the one whose second node follows the first is stored.
    """
    blocks = system.blocks.reshape(-1, SLOTS, BLOCK, BLOCK)
    rhs = system.rhs.reshape(-1, BLOCK)
    wj = [weights @ J for J in jacs]
    we = weights @ errors[..., None]
    for r in _rounds(nodes[0]):
        rnodes, rwj, rwe = nodes[:, r], [w[r] for w in wj], we[r]
        for ni, Ji in zip(rnodes, jacs):
            jt = np.swapaxes(Ji[r], -1, -2)
            rhs[ni] -= (jt @ rwe)[..., 0]
            for nj, WJj in zip(rnodes, rwj):
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
    """The block map from the stencil layout to LAPACK's lower band storage
    of the permuted matrix A, read as block columns through `_block_view`.

    Stencil block H[u, v] sits in block column min(p, q) at offset |p - q|,
    p and q the band positions of u and v; it is A's lower block there, and
    so read transposed, when p >= q (every diagonal block).  The blocks are
    sorted by (column, transposed): column P's plain blocks are
    `bounds[2P]:bounds[2P + 1]` and its transposed ones run on to
    `bounds[2P + 2]`."""

    order: np.ndarray       # (NK,) time-major node at each band position
    width: int              # block bandwidth b
    column: np.ndarray      # band block column of each stored stencil block
    offset: np.ndarray      # its offset d below the diagonal
    target: np.ndarray      # its flat stencil block u * SLOTS + s
    transposed: np.ndarray  # whether it is read transposed (p >= q)
    bounds: np.ndarray      # (2NK + 1,) as above


def _band_layout(N: int, K: int) -> _BandLayout:
    order = sweep_order(N, K)
    pos = np.argsort(order)
    k, n = np.divmod(np.arange(N * K), N)
    # every node u, stencil slot s and the neighbour v in it
    dn, dk = np.array(((0, 0),) + FORWARD).T[:, :, None]
    s, u = np.nonzero((n + dn >= 0) & (n + dn < N) & (k + dk < K))
    v = u + dk[s, 0] * N + dn[s, 0]
    p, q = pos[u], pos[v]
    col, flip = np.minimum(p, q), p >= q
    key = 2 * col + flip
    m = np.argsort(key, kind="stable")
    off = np.abs(p - q)
    return _BandLayout(order, int(np.max(off)), col[m], off[m],
                       (u * SLOTS + s)[m], flip[m],
                       np.searchsorted(key[m], np.arange(2 * N * K + 1)))


def _block_view(ab: np.ndarray, width: int) -> np.ndarray:
    """LAPACK lower band storage `ab` ((kd + 1, 24NK) in Fortran order,
    ab[r, c] = A[c + r, c]) as block columns: view[P, a, d, e] =
    ab[24d + e - a, 24P + a] = A[24(P + d) + e, 24P + a] for d = 0..width.

    Each entry of a column block d >= 1 and each diagonal-block entry with
    e >= a is one band entry.  The entries with e < a alias the far end of
    the previous matrix column, so a diagonal block is written on and below
    A's diagonal only and read through `np.tril`."""
    if not ab.flags.f_contiguous:
        raise ValueError("band storage must be in Fortran order")
    w, it = ab.shape[0], ab.itemsize
    return as_strided(ab, (ab.shape[1] // BLOCK, BLOCK, width + 1, BLOCK),
                      (BLOCK * w * it, (w - 1) * it, BLOCK * it, it))


@dataclass
class BandedFactorization:
    """`band` is `dpbtrf`'s lower Cholesky factor of the permuted system, in
    LAPACK band storage.  `L` and `X` read its block columns through
    `_block_view`, in band order: `L` the (NK, 24, 24) diagonal blocks,
    a fresh lower-triangular array, and `X` the (NK, 24b, 24) panels below
    them, a read-only view of `band` itself."""

    N: int
    K: int
    band: np.ndarray
    layout: _BandLayout

    @property
    def L(self) -> np.ndarray:
        view = _block_view(self.band, self.layout.width)
        return np.tril(np.swapaxes(view[:, :, 0], 1, 2))

    @property
    def X(self) -> np.ndarray:
        view = _block_view(self.band, self.layout.width)
        panels = np.moveaxis(view[:, :, 1:], 1, 3)  # [P, d, e, a]
        out = panels.reshape(len(view), -1, BLOCK)  # d and e merge: a view
        out.flags.writeable = False
        return out


def assemble_band(system: BlockBandedSystem,
                  layout: Optional[_BandLayout] = None) -> np.ndarray:
    """The permuted system in LAPACK lower band storage, (kd+1, 24NK) in
    Fortran order, zeros past the matrix's last row: the plain and the
    transposed off-diagonal stencil blocks each go in with one fancy write
    through `_block_view`, and the diagonal blocks, on and below the
    diagonal only, with a third."""
    lay = layout or _band_layout(system.N, system.K)
    nb = system.N * system.K
    ab = np.zeros((BLOCK * nb, BLOCK * (lay.width + 1))).T
    view = _block_view(ab, lay.width)
    blocks = system.blocks.reshape(-1, BLOCK, BLOCK)
    for t in (False, True):
        m = (lay.transposed == t) & (lay.offset > 0)
        part = blocks[lay.target[m]]
        view[lay.column[m], :, lay.offset[m]] = \
            np.swapaxes(part, 1, 2) if t else part
    a, e = np.triu_indices(BLOCK)  # view[P, a, 0, e] = A[24P + e, 24P + a]
    view[:, a, 0, e] = blocks[SLOTS * lay.order[:, None], e, a]
    return ab


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

    def _pairs(self, nodes: np.ndarray):
        """(a, b, Sigma_ab) for every pair of positions a < b of `nodes`,
        m ids or an (m, B) array of B such sets, each pair reading its
        stencil slot; ValueError when two ids are not stencil neighbours."""
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
        return a, b, off

    def joint(self, nodes) -> np.ndarray:
        """Joint covariance of a set of nodes that are pairwise stencil
        neighbours, its blocks in the order of the ids: (24m, 24m) for m
        node ids, or (B, 24m, 24m) for an (m, B) array of B such sets.  The
        node marginals are one gather and the blocks of every pair of
        positions another; the result is symmetric because the stored
        marginals are.  Queries use `push`; this stays because the frozen
        bench/pipeline.py times it."""
        nodes = np.asarray(nodes)
        m = len(nodes)
        a, b, off = self._pairs(nodes)
        out = np.empty(nodes.shape[1:] + (m, BLOCK, m, BLOCK))
        pairs = np.moveaxis(out, (-4, -2), (0, 1))  # a view indexed [a, b]
        pairs[np.arange(m), np.arange(m)] = self.node_marginals[nodes]
        pairs[a, b] = off
        pairs[b, a] = np.swapaxes(off, -1, -2)
        return out.reshape(nodes.shape[1:] + (BLOCK * m, BLOCK * m))

    def push(self, nodes, jacs: Sequence[np.ndarray]) -> np.ndarray:
        """The joint covariance of B node sets pushed through their maps,
        sum over a, b of J_a Sigma_ab J_b^T, without forming the joint.
        `nodes` is (m, B) as for `joint`, `jacs` the m (B, d, 24) maps.
        Each corner a adds J_a (Sigma_aa J_a^T / 2 + sum over b > a of
        Sigma_ab J_b^T), and the total plus its transpose is the result,
        symmetric to the bit: 14 products of 24x24 stacks at four nodes."""
        nodes = np.asarray(nodes)
        a, b, off = self._pairs(nodes)
        jt = [np.swapaxes(j, -1, -2) for j in jacs]
        half = 0.0
        for i, sig in enumerate(self.node_marginals[nodes]):
            inner = 0.5 * sig @ jt[i]
            for k in np.flatnonzero(a == i):
                inner = inner + off[k] @ jt[b[k]]
            half = half + jacs[i] @ inner
        return half + np.swapaxes(half, -1, -2)


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
    Each step reads X_P from the factor's band through `_block_view` and
    writes column P's stencil blocks straight into the result, so no band
    of the factor or of Sigma is copied.  Diagonal-block inverses are
    batched up front, so the loop runs only NumPy products, never
    alternating BLAS libraries; its window product runs per 24-row block,
    small enough to stay on the calling thread rather than wait on BLAS
    workers the factorization's library holds.
    """
    N, K = fact.N, fact.K
    nb = N * K
    lay = fact.layout
    b = lay.width
    w = BLOCK * (b + 1)
    l_inv = np.linalg.inv(fact.L)
    ltl = np.swapaxes(l_inv, 1, 2) @ l_inv
    X = fact.X
    off, tgt, bounds = lay.offset, lay.target, lay.bounds.tolist()
    sig = np.zeros((nb * SLOTS, BLOCK, BLOCK))
    sig_t = np.swapaxes(sig, 1, 2)
    buf = np.zeros((2 * w, 2 * w))
    o = w + BLOCK
    for p in range(nb - 1, -1, -1):
        o -= BLOCK
        if o < 0:
            buf[w + BLOCK:, w + BLOCK:] = buf[:w - BLOCK, :w - BLOCK]
            o = w
        win = buf[o:o + w, o:o + w]
        xl = X[p] @ l_inv[p]
        col = -(win[BLOCK:, BLOCK:].reshape(b, BLOCK, w - BLOCK) @ xl)
        col = col.reshape(w - BLOCK, BLOCK)
        diag = ltl[p] - col.T @ xl
        win[BLOCK:, :BLOCK] = col
        win[:BLOCK, BLOCK:] = col.T
        win[:BLOCK, :BLOCK] = 0.5 * (diag + diag.T)
        # Sigma[P + d, P]; a plain stencil block is its exact transpose
        blocks = win[:, :BLOCK].reshape(b + 1, BLOCK, BLOCK)
        i, j, k = bounds[2 * p:2 * p + 3]
        sig_t[tgt[i:j]] = blocks[off[i:j]]
        sig[tgt[j:k]] = blocks[off[j:k]]
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
    t = time.perf_counter()
    system = _linearize(geom, grid)
    tl += time.perf_counter() - t
    cost = system.cost
    trace.append(cost)

    for iterations in range(1, opts.max_iters + 1):
        t = time.perf_counter()
        fact = None  # the previous band goes before the next is built
        fact = factorize(system)
        tf += time.perf_counter() - t
        # of the system only its cost is read after the step
        rhs, system = system.rhs_flat(), None
        t = time.perf_counter()
        delta = solve_factorized(fact, rhs)
        ts += time.perf_counter() - t
        norms.append(float(np.max(np.abs(delta))) if delta.size else 0.0)
        # elementwise: a BLAS dot this long (24NK >= 1e4 at long_rod's
        # 41x11) wakes numpy's BLAS threads, which then spin against the
        # next linearization on a small machine
        decrement = float(np.sum(delta * rhs))
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
        for nh in range(MAX_STEP_HALVINGS + 1):
            system = None  # a rejected trial's system goes before the next
            trial = apply_update(grid, scale * delta)
            t = time.perf_counter()
            system = _linearize(geom, trial)
            tl += time.perf_counter() - t
            if system.cost <= cost * (1.0 + 1e-12) + 1e-300:
                accepted = True
                break
            scale *= 0.5
        halvings.append(nh)
        if not accepted:
            message = (f"step halving exhausted after {MAX_STEP_HALVINGS}"
                       f" halvings at iteration {iterations}")
            break
        grid = trial
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
