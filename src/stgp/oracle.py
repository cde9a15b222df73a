"""Dense reference constructions used by the test suite.

Everything here is assembled from the lifted form of the prior: stack every
node chart into one long vector (time-major, k*N + n), write the joint as
x = A(v + w) with a block lower-triangular A, and form the covariance A Q A^T
directly.
None of the factor, solver, or query code paths are reused, so agreement
between the two routes is a meaningful cross-check.  Costs are cubic in N*K;
keep grids small.  Production code must never import this module.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np
from scipy.linalg import solve_triangular

from .prior import (PriorParams, q_binary_s_inv, q_binary_t_inv,
                    q_quaternary_inv)

MAX_NODES = 64

KNOT_MATCH_TOL = 1e-12

_I6 = np.eye(6)


def _m2(d: float) -> np.ndarray:
    return np.array([[1.0, float(d)], [0.0, 1.0]])


def _positive(d: float, name: str) -> float:
    d = float(d)
    if d <= 0:
        raise ValueError(f"{name} must be > 0 (degenerate factor)")
    return d


def k_matrix(d: float) -> np.ndarray:
    """Covariance of (level, derivative) accumulated over a step of length d
    when unit white noise drives the derivative."""
    d = float(d)
    if d < 0:
        raise ValueError("step must be >= 0")
    return np.array([[d ** 3 / 3.0, d ** 2 / 2.0], [d ** 2 / 2.0, d]])


def phi_cell(ds: float, dt: float) -> np.ndarray:
    """Transition across a full cell diagonal, Kronecker form; equals
    phi_t(dt) @ phi_s(ds), and phi_s(ds) at dt = 0."""
    return np.kron(_m2(dt), np.kron(_m2(ds), _I6))


def q_binary_s(ds: float, params: PriorParams) -> np.ndarray:
    ds = _positive(ds, "ds")
    return np.kron(np.eye(2), np.kron(k_matrix(ds), params.qs_psd))


def q_binary_t(dt: float, params: PriorParams) -> np.ndarray:
    dt = _positive(dt, "dt")
    return np.kron(k_matrix(dt), np.kron(np.eye(2), params.qt_psd))


def q_quaternary(ds: float, dt: float, params: PriorParams) -> np.ndarray:
    ds = _positive(ds, "ds")
    dt = _positive(dt, "dt")
    return np.kron(k_matrix(dt), np.kron(k_matrix(ds), params.qst_psd))


def _prep(s_knots, t_knots) -> Tuple[np.ndarray, np.ndarray, int, int]:
    s = np.asarray(s_knots, dtype=float).reshape(-1)
    t = np.asarray(t_knots, dtype=float).reshape(-1)
    N, K = len(s), len(t)
    if N * K > MAX_NODES:
        raise ValueError(f"dense reference limited to {MAX_NODES} nodes, got {N * K}")
    return s, t, N, K


def lifted_transition(s_knots, t_knots) -> np.ndarray:
    """A with block (i,j) = phi_cell(s_i - s_j, t_i - t_j) whenever node i sits
    at or past node j in both grid directions, zero otherwise.  Block lower
    triangular in the time-major flat order."""
    s, t, N, K = _prep(s_knots, t_knots)
    M = N * K
    A = np.zeros((24 * M, 24 * M))
    for kj in range(K):
        for nj in range(N):
            j = kj * N + nj
            for ki in range(kj, K):
                for ni in range(nj, N):
                    i = ki * N + ni
                    A[24 * i:24 * i + 24, 24 * j:24 * j + 24] = phi_cell(
                        s[ni] - s[nj], t[ki] - t[kj])
    return A


def _noise_blocks(s_knots, t_knots, params: PriorParams,
                  inverse: bool) -> List[np.ndarray]:
    s, t, N, K = _prep(s_knots, t_knots)
    qs = q_binary_s_inv if inverse else q_binary_s
    qt = q_binary_t_inv if inverse else q_binary_t
    qst = q_quaternary_inv if inverse else q_quaternary
    blocks = []
    for k in range(K):
        for n in range(N):
            if n == 0 and k == 0:
                blocks.append(np.linalg.inv(params.p0) if inverse else params.p0)
            elif k == 0:
                blocks.append(qs(s[n] - s[n - 1], params))
            elif n == 0:
                blocks.append(qt(t[k] - t[k - 1], params))
            else:
                blocks.append(qst(s[n] - s[n - 1], t[k] - t[k - 1], params))
    return blocks


def lifted_noise(s_knots, t_knots, params: PriorParams) -> np.ndarray:
    import scipy.linalg
    return scipy.linalg.block_diag(*_noise_blocks(s_knots, t_knots, params, False))


def dense_prior_covariance(s_knots, t_knots, params: PriorParams) -> np.ndarray:
    A = lifted_transition(s_knots, t_knots)
    Q = lifted_noise(s_knots, t_knots, params)
    P = A @ Q @ A.T
    return 0.5 * (P + P.T)


def dense_prior_precision(s_knots, t_knots, params: PriorParams) -> np.ndarray:
    """A^-T Q^-1 A^-1 with A inverted numerically (triangular solves), noise
    blocks inverted via their closed forms."""
    import scipy.linalg
    A = lifted_transition(s_knots, t_knots)
    Qinv = scipy.linalg.block_diag(*_noise_blocks(s_knots, t_knots, params, True))
    Ainv = solve_triangular(A, np.eye(A.shape[0]), lower=True)
    H = Ainv.T @ Qinv @ Ainv
    return 0.5 * (H + H.T)


def _locate(knots: np.ndarray, u: float) -> Tuple[bool, int]:
    """(on_knot, index): index of the matching knot, or of the cell whose
    left edge precedes u."""
    hits = np.nonzero(np.abs(knots - u) <= KNOT_MATCH_TOL * max(1.0, np.max(np.abs(knots))))[0]
    if hits.size:
        return True, int(hits[0])
    if u < knots[0] or u > knots[-1]:
        raise ValueError(f"query {u} outside knot hull [{knots[0]}, {knots[-1]}]")
    idx = int(np.searchsorted(knots, u, side="right") - 1)
    return False, min(idx, len(knots) - 2)


def dense_condition_query(s_knots, t_knots, params: PriorParams, s: float,
                          t: float):
    """Insert (s,t) as a real node into a refined grid, build the dense prior
    there, and condition the query chart on the bracketing original nodes.

    Returns (W, residual_cov, corners) where corners is the list of original
    (n, k) pairs the weights act on, ordered (00, 10, 01, 11) by (spatial,
    temporal) offset; W is 24 x 24*len(corners).
    """
    s_arr, t_arr, N, K = _prep(s_knots, t_knots)
    s_on, si = _locate(s_arr, s)
    t_on, ti = _locate(t_arr, t)

    s_ref = s_arr if s_on else np.sort(np.append(s_arr, s))
    t_ref = t_arr if t_on else np.sort(np.append(t_arr, t))
    P = dense_prior_covariance(s_ref, t_ref, params)
    Nr = len(s_ref)

    def ref_flat(sv: float, tv: float) -> int:
        n = int(np.argmin(np.abs(s_ref - sv)))
        k = int(np.argmin(np.abs(t_ref - tv)))
        return k * Nr + n

    if s_on and t_on:
        corners = [(si, ti)]
    elif s_on:
        corners = [(si, ti), (si, ti + 1)]
    elif t_on:
        corners = [(si, ti), (si + 1, ti)]
    else:
        corners = [(si, ti), (si + 1, ti), (si, ti + 1), (si + 1, ti + 1)]

    q = ref_flat(s, t)
    c_ids = [ref_flat(s_arr[n], t_arr[k]) for (n, k) in corners]
    qi = np.arange(24 * q, 24 * q + 24)
    ci = np.concatenate([np.arange(24 * c, 24 * c + 24) for c in c_ids])
    Pqc = P[np.ix_(qi, ci)]
    Pcc = P[np.ix_(ci, ci)]
    W = np.linalg.solve(Pcc.T, Pqc.T).T
    resid = P[np.ix_(qi, qi)] - W @ Pcc @ W.T
    return W, 0.5 * (resid + resid.T), corners
