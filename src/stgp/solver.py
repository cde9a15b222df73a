"""Batch MAP estimation over the space-time grid.

Gauss-Newton with step halving on top of a block-banded normal-equations
solver.

Linearization has one batched path for every factor.  A factor family is
either a prior family, which `graph.build_prior_factors` emits already
stacked (unary, spatial, temporal and cell), or a measurement group, which
`sensors.group_measurements` stacks once per Gauss-Newton run by (sensor
kind, binding shape).  Both expose (m, B) `nodes`, stacked `weights` and a
batched `evaluate`.  Every pair of slots in a family has one fixed time-row
offset, so each family costs one batched kernel call and one scatter of
whole 24x24 blocks into the normal equations.

The normal equations are stored as K superblocks of size 24N (one per time
row); the prior couples only adjacent time rows, so the superblock matrix
is block tridiagonal and a forward Cholesky sweep factorizes it in time linear
in K.  The same factorization yields the selected inverse (all node marginals
plus every block coupling adjacent time rows), which is exactly the set of
covariance blocks the interpolation layer needs.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np
from scipy.linalg import solve_triangular
from scipy.linalg.blas import dsyrk, dtrmm
from scipy.linalg.lapack import dpotrf, dpotri, dtrtri

from .graph import FactorSet, Grid
from .sensors import group_measurements
from .prior import ChartRangeError, PriorParams, retract_all

BLOCK = 24


class NotPositiveDefiniteError(RuntimeError):
    """Normal equations lost positive definiteness during factorization."""

    def __init__(self, node: int, detail: str = ""):
        self.node = node
        msg = f"system not positive definite at block row {node}"
        if detail:
            msg += f" ({detail})"
        super().__init__(msg)


@dataclass
class BlockBandedSystem:
    """Symmetric block matrix with 24x24 blocks, nonzero only between nodes of
    the same or adjacent time rows, plus the right-hand side.

    Blocks are stored individually: `diag[k, i, j]` couples nodes i and j of
    time row k, `offdiag[k, i, j]` couples node i of row k with node j of row
    k+1.  That keeps factor scatters contiguous; the factorization marshals
    one 24N x 24N superblock per row on demand.  Within-row contributions must
    be added for both orderings of a node pair; cross-row contributions once
    per pair, in either orientation.
    """

    N: int
    K: int
    diag: np.ndarray
    offdiag: np.ndarray
    rhs: np.ndarray
    touched_blocks: int = 0
    cost: float = 0.0

    @staticmethod
    def zeros(N: int, K: int) -> "BlockBandedSystem":
        return BlockBandedSystem(
            N, K, np.zeros((K, N, N, BLOCK, BLOCK)),
            np.zeros((max(K - 1, 0), N, N, BLOCK, BLOCK)),
            np.zeros((K, N, BLOCK)))

    @property
    def n_nodes(self) -> int:
        return self.N * self.K

    @property
    def dim(self) -> int:
        return BLOCK * self.n_nodes

    def _split(self, i: int):
        return i % self.N, i // self.N

    def add_block(self, i: int, j: int, block: np.ndarray):
        ni, ki = self._split(i)
        nj, kj = self._split(j)
        if abs(ni - nj) > 1 or abs(ki - kj) > 1:
            raise ValueError(f"nodes {i},{j} outside the banded pattern")
        if ki == kj:
            self.diag[ki, ni, nj] += block
        elif kj == ki + 1:
            self.offdiag[ki, ni, nj] += block
        else:
            self.offdiag[kj, nj, ni] += block.T

    def add_rhs(self, i: int, vec: np.ndarray):
        ni, ki = self._split(i)
        self.rhs[ki, ni] += vec

    def rhs_flat(self) -> np.ndarray:
        return self.rhs.reshape(-1)

    def diag_superblock(self, k: int) -> np.ndarray:
        """Time row k as one fresh 24N x 24N Fortran-order matrix.

        Transposing block and lane axes before the (copying) reshape lands the
        scalar transpose in C order, so its `.T` view is the superblock itself
        in Fortran order, ready for in-place LAPACK without a second copy.
        """
        w = BLOCK * self.N
        return self.diag[k].transpose(1, 3, 0, 2).reshape(w, w).T

    def offdiag_superblock(self, k: int) -> np.ndarray:
        """Coupling of rows k and k+1 as a fresh Fortran-order matrix."""
        w = BLOCK * self.N
        return self.offdiag[k].transpose(1, 3, 0, 2).reshape(w, w).T

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """H @ x over the banded block storage."""
        xr = np.asarray(x, dtype=float).reshape(self.K, self.N, BLOCK)
        y = np.empty_like(xr)
        for k in range(self.K):
            v = np.einsum("ijab,jb->ia", self.diag[k], xr[k])
            if k + 1 < self.K:
                v += np.einsum("ijab,jb->ia", self.offdiag[k], xr[k + 1])
            if k > 0:
                v += np.einsum("jiba,jb->ia", self.offdiag[k - 1], xr[k - 1])
            y[k] = v
        return y.reshape(np.shape(x))

    def dense(self) -> np.ndarray:
        """Materialize the full matrix (tests only)."""
        w = BLOCK * self.N
        H = np.zeros((self.dim, self.dim))
        for k in range(self.K):
            H[k * w:(k + 1) * w, k * w:(k + 1) * w] = self.diag_superblock(k)
            if k + 1 < self.K:
                off = self.offdiag_superblock(k)
                H[k * w:(k + 1) * w, (k + 1) * w:(k + 2) * w] = off
                H[(k + 1) * w:(k + 2) * w, k * w:(k + 1) * w] = off.T
        return H


# ---------------------------------------------------------------------------
# linearization


def _scatter_family(system: BlockBandedSystem, nodes: np.ndarray,
                    jacs: Sequence[np.ndarray], weights: np.ndarray,
                    errors: np.ndarray):
    """Accumulate J^T W J and -J^T W e for one family of same-shape factors.

    `nodes[i]` is the (B,) flat-index array of the i-th slot, `jacs[i]` the
    matching (B, m, 24) Jacobian stack.  Every slot pair of a family has one
    fixed time-row offset and each item targets a distinct block, so each
    pair is one fancy-indexed add of whole 24x24 blocks.  Cross-row pairs
    are added only in the lower-to-higher orientation and the within-row
    double loop covers both orderings, keeping the diagonal superblocks
    symmetric.
    """
    wj = [weights @ J for J in jacs]
    we = weights @ errors[..., None]
    rows = [divmod(nd, system.N) for nd in nodes]
    for (ki, ni), Ji in zip(rows, jacs):
        jt = np.swapaxes(Ji, -1, -2)
        system.rhs[ki, ni] -= (jt @ we)[..., 0]
        for (kj, nj), WJj in zip(rows, wj):
            dk = kj[0] - ki[0]
            if dk >= 0:
                target = system.diag if dk == 0 else system.offdiag
                target[ki, ni, nj] += jt @ WJj


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
# block-banded Cholesky, solves, selected inverse


@dataclass
class BandedFactorization:
    N: int
    K: int
    L: List[np.ndarray]
    X: List[np.ndarray]
    touched_blocks: int = 0


def _tril_inv(L: np.ndarray, out: Optional[np.ndarray] = None,
              cut: int = 96) -> np.ndarray:
    """Inverse of a lower-triangular matrix.

    Recursing on halves keeps nearly all work in triangular matrix products,
    which run much closer to peak than the reference inversion.  The strict
    upper triangle of the input is ignored and the result's is exactly zero.
    An `out` buffer may be reused across calls: the recursion rewrites every
    lower-triangle entry and never touches the strict upper triangle, so a
    buffer that starts zero stays valid.
    """
    n = L.shape[0]
    if out is None:
        out = np.zeros((n, n))
    if n <= cut:
        inv, info = dtrtri(L, lower=1)
        if info != 0:
            raise ValueError(f"singular triangular block (info={info})")
        out[:] = np.tril(inv)
        return out
    h = (n + 1) // 2
    top = _tril_inv(L[:h, :h], out[:h, :h], cut)
    bot = _tril_inv(L[h:, h:], out[h:, h:], cut)
    mid = dtrmm(1.0, top, L[h:, :h], side=1, lower=1)
    out[h:, :h] = -dtrmm(1.0, bot, mid, side=0, lower=1)
    return out


def factorize(system: BlockBandedSystem) -> BandedFactorization:
    """Forward block-Cholesky over time-row superblocks.

    Touches only blocks inside the band; the counter tallies 24x24 blocks
    visited so tests can assert the O(K N^2) bound.  A failed pivot names the
    first non-positive-definite block row.

    The cross-row superblock is block tridiagonal (a node couples only to the
    same and spatially adjacent nodes of the next row), so applying the
    explicit triangular inverse panel by panel skips its exact zeros; that
    beats a full-width triangular solve by a wide margin.
    """
    N, K = system.N, system.K
    w = BLOCK * N
    Ls: List[np.ndarray] = []
    Xs: List[np.ndarray] = []
    touched = 0
    li_buf = np.zeros((w, w)) if K > 1 else None
    off = system.offdiag
    C = system.diag_superblock(0)
    for k in range(K):
        # in-place unclean potrf: only the lower triangle of Lk is meaningful,
        # and every downstream consumer reads only that triangle
        Lk, info = dpotrf(C, lower=1, clean=0, overwrite_a=1)
        if info != 0:
            if info > 0:
                node = k * N + (info - 1) // BLOCK
                raise NotPositiveDefiniteError(
                    node, f"failed pivot during time-row {k} factorization")
            raise ValueError(f"illegal value in Cholesky argument {-info}")
        touched += N * (N + 1) // 2
        Ls.append(Lk)
        if k + 1 < K:
            Li = _tril_inv(Lk, li_buf)
            Xk = np.zeros((w, w), order="F")
            for j in range(N):
                lo, hi = max(0, j - 1), min(N, j + 2)
                r0 = BLOCK * lo
                Xk[r0:, BLOCK * j:BLOCK * (j + 1)] = \
                    Li[r0:, r0:BLOCK * hi] @ \
                    off[k, lo:hi, j].reshape((hi - lo) * BLOCK, BLOCK)
            C = dsyrk(-1.0, Xk, beta=1.0, c=system.diag_superblock(k + 1),
                      trans=1, lower=1, overwrite_c=1)
            Xs.append(Xk)
            touched += 2 * N * N
    fact = BandedFactorization(N, K, Ls, Xs, touched)
    system.touched_blocks += touched
    return fact


def solve_factorized(fact: BandedFactorization, rhs: np.ndarray) -> np.ndarray:
    """Solve H x = rhs for a (K, 24N) or flat (24NK,) right-hand side."""
    N, K = fact.N, fact.K
    r = np.asarray(rhs, dtype=float).reshape(K, BLOCK * N)
    ys = []
    for k in range(K):
        v = r[k] if k == 0 else r[k] - fact.X[k - 1].T @ ys[k - 1]
        ys.append(solve_triangular(fact.L[k], v, lower=True,
                                   check_finite=False))
    xs = [np.empty(0)] * K
    xs[K - 1] = solve_triangular(fact.L[K - 1], ys[K - 1], trans="T",
                                 lower=True, check_finite=False)
    for k in range(K - 2, -1, -1):
        xs[k] = solve_triangular(fact.L[k], ys[k] - fact.X[k] @ xs[k + 1],
                                 trans="T", lower=True, check_finite=False)
    return np.concatenate(xs)


def solve_block_banded(system: BlockBandedSystem) -> np.ndarray:
    """Factorize and solve in one call; returns the flat update vector."""
    return solve_factorized(factorize(system), system.rhs_flat())


def _sym_from_tril(a: np.ndarray) -> np.ndarray:
    low = np.tril(a)
    return low + low.T - np.diag(np.diag(a))


@dataclass
class CornerCovariances:
    """Selected inverse of the normal equations: every node marginal plus all
    covariance blocks between nodes of the same or adjacent time rows, which
    covers every cell-corner joint the interpolator can request."""

    N: int
    K: int
    sig_diag: np.ndarray
    sig_off: np.ndarray

    @property
    def node_marginals(self) -> np.ndarray:
        out = np.empty((self.N * self.K, BLOCK, BLOCK))
        for k in range(self.K):
            for n in range(self.N):
                a = BLOCK * n
                out[k * self.N + n] = self.sig_diag[k, a:a + BLOCK, a:a + BLOCK]
        return out

    def pair_block(self, i: int, j: int) -> np.ndarray:
        """Sigma_ij for nodes on the same or adjacent time rows."""
        ni, ki = i % self.N, i // self.N
        nj, kj = j % self.N, j // self.N
        a, b = BLOCK * ni, BLOCK * nj
        if ki == kj:
            return self.sig_diag[ki, a:a + BLOCK, b:b + BLOCK]
        if kj == ki + 1:
            return self.sig_off[ki, a:a + BLOCK, b:b + BLOCK]
        if ki == kj + 1:
            return self.sig_off[kj, b:b + BLOCK, a:a + BLOCK].T
        raise ValueError(f"nodes {i},{j} not within adjacent time rows")

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
    """Selected inverse via the backward recursion on the block-tridiagonal
    superblock factorization."""
    N, K = fact.N, fact.K
    w = BLOCK * N
    sig_diag = np.empty((K, w, w))
    sig_off = np.empty((max(K - 1, 0), w, w))
    cinv_last, info = dpotri(fact.L[K - 1], lower=1)
    if info != 0:
        raise ValueError(f"triangular inversion failed with info={info}")
    sig_diag[K - 1] = _sym_from_tril(cinv_last)
    for k in range(K - 2, -1, -1):
        wk = solve_triangular(fact.L[k], fact.X[k], trans="T", lower=True,
                              check_finite=False)
        sig_off[k] = -(wk @ sig_diag[k + 1])
        cinv, info = dpotri(fact.L[k], lower=1)
        if info != 0:
            raise ValueError(f"triangular inversion failed with info={info}")
        sk = _sym_from_tril(cinv) - sig_off[k] @ wk.T
        sig_diag[k] = 0.5 * (sk + sk.T)
    return CornerCovariances(N, K, sig_diag, sig_off)


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
    delta = np.asarray(delta, dtype=float).reshape(grid.n_nodes, BLOCK)
    return Grid(grid.s_knots.copy(), grid.t_knots.copy(),
                retract_all(grid.states, delta))


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
