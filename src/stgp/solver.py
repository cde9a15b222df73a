"""Batch MAP estimation over the space-time grid.

Gauss-Newton with step halving on top of a banded normal-equations solver.

Linearization has one batched path for every factor.  A factor family is
either a prior family, which `graph.build_prior_factors` emits already
stacked (unary, spatial, temporal and cell), or a measurement group, which
`sensors.group_measurements` stacks once per Gauss-Newton run by (sensor
kind, binding shape).  Both expose (m, B) `nodes`, stacked `weights` and a
batched `evaluate`.  Every pair of slots in a family has one fixed node
offset, so each family costs one batched kernel call and one scatter of
whole 24x24 blocks into the normal equations.

Stencil layout.  The GP prior couples a node only to its 8 lattice
neighbours, so the normal equations and the covariance blocks share one
layout: per node (time-major, k*N + n), its diagonal block (slot 0) and its
blocks with the 4 neighbours that follow it in time-major order (slots 1-4,
`FORWARD`).  Slots with no neighbour, at the grid's edges, hold zeros.

Ordering and band.  The factorization permutes the nodes so the sweep runs
along the longer grid axis (along time when N == K), where stencil
neighbours are at most b = min(N, K) + 1 positions apart: the matrix has
24*(b + 1) - 1 sub-diagonals, and one LAPACK banded Cholesky (`dpbtrf`,
solved by `dpbtrs`) costs time linear in the longer axis.  A failed pivot
is mapped back through the ordering to its time-major node.

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
from scipy.linalg.lapack import dpbtrf, dpbtrs

from .graph import FactorSet, Grid
from .sensors import group_measurements
from .prior import ChartRangeError, PriorParams, chart_decode_batch

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
    """Every factor family: the non-empty prior families and the measurement
    groups.  Each has (m, B) `nodes`, (B, d, d) `weights` and
    `evaluate(state_arrays, want_jac)`, which returns the errors and the m
    per-slot Jacobian stacks.

    Everything here is state independent, so the Gauss-Newton loop builds it
    once and reuses it for every linearization and cost evaluation.
    """
    return factors.prior_families() + group_measurements(factors.measurement)


def _quad_cost(weights: np.ndarray, errors: np.ndarray) -> float:
    return float(np.sum(errors[..., None, :] @ weights @ errors[..., None]))


def _family_terms(geom, grid: Grid, want_jac: bool):
    """(nodes, jacobians, weights, errors) of each family at the grid's
    states.  A chart-range failure is re-raised with the offending factor's
    nodes identified."""
    sa = grid.state_arrays()
    for fam in geom:
        try:
            e, *jacs = fam.evaluate(sa, want_jac)
        except ChartRangeError as ex:
            item = fam.nodes[:, ex.index % fam.nodes.shape[1]].tolist()
            raise ChartRangeError(
                ex.angle, ex.index,
                f"while linearizing {fam.kind} factor at nodes {item}") from ex
        yield fam.nodes, jacs, fam.weights, e


def evaluate_cost(factors: FactorSet, grid: Grid) -> float:
    """Sum of squared Mahalanobis errors over all factors at the given states."""
    return _evaluate_cost(_family_geom(factors), grid)


def _evaluate_cost(geom, grid: Grid) -> float:
    return sum(_quad_cost(w, e)
               for _, _, w, e in _family_terms(geom, grid, False))


def linearize(factors: FactorSet, grid: Grid) -> BlockBandedSystem:
    """Assemble sum(J^T W J) and rhs = -sum(J^T W e) at the grid's states.

    One batched kernel call and one scatter per factor family.  A
    chart-range failure is re-raised with the offending factor identified.
    """
    return _linearize(_family_geom(factors), grid)


def _linearize(geom, grid: Grid) -> BlockBandedSystem:
    system = BlockBandedSystem.zeros(grid.N, grid.K)
    for nodes, jacs, w, e in _family_terms(geom, grid, True):
        _scatter_family(system, nodes, jacs, w, e)
        system.cost += _quad_cost(w, e)
    return system


# ---------------------------------------------------------------------------
# banded Cholesky, solves, selected inverse


def sweep_order(N: int, K: int) -> np.ndarray:
    """Time-major node at each position of the banded ordering: the sweep
    runs along the longer grid axis (along time when N == K)."""
    nodes = np.arange(N * K).reshape(K, N)
    return (nodes.T if N > K else nodes).reshape(-1)


def _block_elements(block: np.ndarray, trans: np.ndarray) -> np.ndarray:
    """Flat element indices of the 24x24 blocks `block` of a block stack,
    each read transposed where `trans`."""
    e, a = np.ogrid[:BLOCK, :BLOCK]
    within = np.where(trans[:, None, None], a * BLOCK + e, e * BLOCK + a)
    return block[:, None, None] * BLOCK * BLOCK + within


@dataclass(frozen=True)
class _BandLayout:
    """Gather indices between the stencil layout and LAPACK's lower band
    storage, ab[r, c] = A[c + r, c] for the permuted matrix A, indexed as
    the C-order (n, kd+1) array `ab.T`.  Band block (c, d) is A's block
    (c + d, c); stencil block (u, s) is H[u, v], v the slot's neighbour."""

    order: np.ndarray       # (NK,) time-major node at each band position
    width: int              # block bandwidth b
    to_band: np.ndarray     # (n, kd+1): system blocks -> ab.T
    from_band: np.ndarray   # (NK, b+1, 24, 24): ab.T -> band block columns
    to_stencil: np.ndarray  # (K, N, SLOTS, 24, 24): band blocks -> stencil


@functools.lru_cache(maxsize=4)
def _band_layout(N: int, K: int) -> _BandLayout:
    nb = N * K
    order = sweep_order(N, K)
    pos = np.argsort(order)
    k, n = np.divmod(np.arange(nb), N)
    # every node u, stencil slot s and the neighbour v in it
    dn, dk = np.array(((0, 0),) + FORWARD).T[:, :, None]
    s, u = np.nonzero((n + dn >= 0) & (n + dn < N) & (k + dk < K))
    v = u + dk[s, 0] * N + dn[s, 0]
    p, q = pos[u], pos[v]
    b = int(np.max(np.abs(p - q)))
    kd = BLOCK * (b + 1) - 1
    band_block = np.minimum(p, q) * (b + 1) + np.abs(p - q)
    stencil_block = u * SLOTS + s
    # A's block (max, min) is H[u, v] when v comes first, else its transpose
    trans = q > p

    # band blocks -> stencil elements; missing band blocks read the stencil
    # slot a grid edge leaves empty (slot 1 of the last node has no n + 1)
    n_band = nb * (b + 1)
    zero = (nb * SLOTS - SLOTS + 1) * BLOCK * BLOCK
    band_src = np.full((n_band + 1, BLOCK, BLOCK), zero, dtype=np.intp)
    band_src[band_block] = _block_elements(stencil_block, trans)
    c, a, r = np.ogrid[:nb, :BLOCK, :kd + 1]
    d, e = np.divmod(a + r, BLOCK)
    to_band = band_src[np.where(d <= b, c * (b + 1) + d, n_band), e, a]

    # ab.T -> band block columns: entries above the diagonal and rows past
    # the matrix read ab.T's last element, which lies below A's last row:
    # the assembly put a zero there and LAPACK never references it
    c, d, e, a = np.ogrid[:nb, :b + 1, :BLOCK, :BLOCK]
    r = BLOCK * d + e - a
    from_band = np.where((r >= 0) & (c + d < nb), (BLOCK * c + a) * (kd + 1)
                         + r, BLOCK * nb * (kd + 1) - 1)

    # band block columns -> stencil; empty slots read a trailing zero block
    stencil_src = np.full((nb * SLOTS, BLOCK, BLOCK), n_band * BLOCK * BLOCK
                          + np.arange(BLOCK * BLOCK).reshape(BLOCK, BLOCK))
    stencil_src[stencil_block] = _block_elements(band_block, trans)

    def frozen(x):
        x = np.ascontiguousarray(x, dtype=np.intp)
        x.flags.writeable = False
        return x

    return _BandLayout(frozen(order), b,
                       frozen(to_band.reshape(BLOCK * nb, kd + 1)),
                       frozen(from_band),
                       frozen(stencil_src.reshape(K, N, SLOTS, BLOCK, BLOCK)))


@dataclass
class BandedFactorization:
    """`band` is `dpbtrf`'s lower Cholesky factor of the permuted system, in
    LAPACK band storage.  `L` and `X` are its block columns, gathered on
    access: the (NK, 24, 24) diagonal blocks and the (NK, 24b, 24) panels
    below them, in band order."""

    N: int
    K: int
    band: np.ndarray

    @property
    def L(self) -> np.ndarray:
        idx = _band_layout(self.N, self.K).from_band[:, 0]
        return np.take(self.band.T, idx)

    @property
    def X(self) -> np.ndarray:
        lay = _band_layout(self.N, self.K)
        panels = np.take(self.band.T, lay.from_band[:, 1:])
        return panels.reshape(self.N * self.K, BLOCK * lay.width, BLOCK)


def assemble_band(system: BlockBandedSystem) -> np.ndarray:
    """The permuted system in LAPACK lower band storage, (kd+1, 24NK) in
    Fortran order."""
    lay = _band_layout(system.N, system.K)
    return np.take(system.blocks, lay.to_band).T


def factorize(system: BlockBandedSystem) -> BandedFactorization:
    """Banded Cholesky of the normal equations in the sweep order.  A failed
    pivot names the time-major node it falls in."""
    ab, info = dpbtrf(assemble_band(system), lower=1, overwrite_ab=1)
    if info > 0:
        node = int(_band_layout(system.N, system.K).order[(info - 1) // BLOCK])
        raise NotPositiveDefiniteError(
            node, "failed pivot in the banded Cholesky factorization")
    if info < 0:
        raise ValueError(f"illegal value in Cholesky argument {-info}")
    return BandedFactorization(system.N, system.K, ab)


def solve_factorized(fact: BandedFactorization, rhs: np.ndarray) -> np.ndarray:
    """Solve H x = rhs for a time-major right-hand side of 24NK entries;
    returns the flat time-major solution."""
    order = _band_layout(fact.N, fact.K).order
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

    def pair_block(self, i: int, j: int) -> np.ndarray:
        """Sigma_ij for i == j or stencil neighbours i and j."""
        lo, hi = min(i, j), max(i, j)
        (kl, nl), (kh, nh) = divmod(lo, self.N), divmod(hi, self.N)
        if kh - kl > 1 or abs(nh - nl) > 1:
            raise ValueError(f"nodes {i},{j} are not stencil neighbours")
        if lo == hi:
            return self.sig_diag[kl, nl]
        block = self.sig_off[kl, nl, stencil_slot(self.N, lo, hi) - 1]
        return block if i == lo else block.T

    def joint(self, nodes: Sequence[int]) -> np.ndarray:
        m = len(nodes)
        out = np.empty((BLOCK * m, BLOCK * m))
        for a, i in enumerate(nodes):
            for b, j in enumerate(nodes):
                out[BLOCK * a:BLOCK * a + BLOCK,
                    BLOCK * b:BLOCK * b + BLOCK] = self.pair_block(i, j)
        return 0.5 * (out + out.T)

    def cell_joint(self, n: int, k: int) -> np.ndarray:
        """96x96 joint of cell (n,k)'s corners in (00, 10, 01, 11) order,
        subscripts being (spatial, temporal) offsets."""
        c00 = k * self.N + n
        return self.joint([c00, c00 + 1, c00 + self.N, c00 + self.N + 1])


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
    lay = _band_layout(N, K)
    b = lay.width
    w = BLOCK * (b + 1)
    l_inv = np.linalg.inv(fact.L)
    xl = fact.X @ l_inv
    ltl = np.swapaxes(l_inv, 1, 2) @ l_inv
    # band block columns, plus a trailing zero column for empty stencil slots
    cols = np.empty((nb + 1, w, BLOCK))
    cols[nb] = 0.0
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
        cols[p] = win[:, :BLOCK]
    sig = np.take(cols, lay.to_stencil)
    return CornerCovariances(N, K, sig[:, :, 0], sig[:, :, 1:])


# ---------------------------------------------------------------------------
# Gauss-Newton


@dataclass
class SolverOptions:
    max_iters: int = 50
    tol: float = 1e-8
    max_step_halvings: int = 8


@dataclass
class ConvergenceReport:
    converged: bool
    iterations: int
    initial_cost: float
    final_cost: float
    cost_trace: List[float]
    update_norms: List[float]
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
                chart_decode_batch(z, sa.R, sa.t))


def gauss_newton(grid: Grid, factors: FactorSet, params: PriorParams,
                 opts: Optional[SolverOptions] = None) -> Posterior:
    """Iterate linearize/solve/retract until the update stalls.

    Convergence is declared before applying a sub-tolerance step, so the
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
    halvings: List[int] = []
    tl = tf = ts = 0.0
    converged = False
    message = "iteration limit reached"
    iterations = 0
    fact = None
    system = None
    cost = None

    for _ in range(opts.max_iters):
        iterations += 1
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
        step = float(np.max(np.abs(delta))) if delta.size else 0.0
        norms.append(step)
        if step < opts.tol:
            converged = True
            message = "update norm below tolerance"
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

    if fact is None:
        system = _linearize(geom, grid)
        cost = system.cost
        trace.append(cost)
        fact = factorize(system)

    report = ConvergenceReport(
        converged=converged, iterations=iterations,
        initial_cost=trace[0], final_cost=trace[-1], cost_trace=trace,
        update_norms=norms, halvings=halvings, message=message,
        time_linearize=tl, time_factorize=tf, time_solve=ts,
        time_covariance=0.0, time_total=time.perf_counter() - t0)
    return Posterior(grid, params, None, report, factorization=fact)
