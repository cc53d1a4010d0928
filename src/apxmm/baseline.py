"""Randomized outer-product low-rank multiplication, the comparison method.

Writes A @ B = sum_k (col_k of A)(row_k of B) and Monte-Carlo samples c of
the n outer products with probability proportional to the norm product
||A^(k)|| ||B_(k)||, rescaling each accepted term by 1/(c p_k) so the sum is
unbiased. Indices are drawn by rejection sampling and with replacement.
The column and row norms are the one pass numpy makes over the factors
before the GEMM, and the finiteness check: their sum is finite only when
every entry is (and no norm overflows).
"""

from __future__ import annotations

import math
import time

import numpy as np

from .core import _coerce_pair, as_matrix
from .report import ApproxReport

__all__ = ["randomized_outer_product_multiply"]


# rows of a factor squared at a time by _norms
_ROWS = 64


def _norms(X: np.ndarray, axis: int) -> np.ndarray:
    """np.linalg.norm(X, axis=axis) bit for bit, without its n x n array of
    squares: a C-order X is squared _ROWS rows at a time, in the order
    linalg.norm sums them (each row's squares as one reduction for axis=1,
    a running sum down the rows for axis=0). Other layouts call linalg.norm.
    """
    if not X.flags.c_contiguous:
        return np.linalg.norm(X, axis=axis)
    out = np.empty(X.shape[0]) if axis == 1 else None
    for lo in range(0, X.shape[0], _ROWS):
        rows = X[lo:lo + _ROWS]
        sq = (rows.conj() * rows).real
        if axis == 1:
            np.add.reduce(sq, axis=1, out=out[lo:lo + _ROWS])
        else:
            if out is not None:
                sq[0] += out  # continue the running sum of the rows above
            out = np.add.reduce(sq, axis=0)
    return np.sqrt(out)


def _scaled(X: np.ndarray) -> np.ndarray:
    """A validated X divided by its largest |entry|, if that is nonzero."""
    X = as_matrix(X)
    return X / (np.abs(X).max() or 1.0)


def randomized_outer_product_multiply(A, B, c: int, seed):
    """Unbiased c-sample outer-product estimate of A @ B.

    p_k is proportional to ||A column k|| * ||B row k||; a candidate k
    (uniform) is accepted when U * max_j p_j < p_k, with U uniform on [0, 1).
    Each loop draws k first, then U. The c accepted terms are summed as one
    GEMM of the rescaled sampled columns with the sampled rows.
    Zero-probability indices are never accepted; if every p_k is zero the
    product is identically zero and there is nothing to sample, so that
    degenerate input is rejected.

    The weights are np.linalg.norm's bit for bit (_norms). Only when their
    sum is not finite are the factors checked (as_matrix raises for a NaN or
    an inf) and the weights recomputed from each factor over its largest
    |entry|, which leaves p unchanged and keeps finite factors whose norms
    overflow from stalling the sampler.
    """
    A, B = _coerce_pair(A, B)
    if c < 1:
        raise ValueError("c must be >= 1")
    n = A.shape[1]

    t0 = time.perf_counter()
    with np.errstate(over="ignore", invalid="ignore"):  # handled below
        weights = _norms(A, axis=0) * _norms(B, axis=1)
    total = float(weights.sum())
    if not math.isfinite(total):
        weights = _norms(_scaled(A), axis=0) * _norms(_scaled(B), axis=1)
        total = float(weights.sum())
    if total == 0.0:
        raise ValueError("all column/row norm products are zero; nothing to sample")
    p = weights / total
    pmax = float(p.max())

    rng = np.random.default_rng(seed)
    idx = []
    while len(idx) < c:
        k = int(rng.integers(0, n))
        u = float(rng.uniform())
        if u * pmax < p[k]:
            idx.append(k)
    idx = np.array(idx)
    M = (A[:, idx] / (c * p[idx])) @ B[idx]
    wall = time.perf_counter() - t0

    # a sampled product drops no decomposition residue: no norm to report
    return M, ApproxReport(method="lowrank", order=0, k=c, norm_da=None,
                           norm_db=None, wall_time=wall)
