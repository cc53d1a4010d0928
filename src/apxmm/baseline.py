"""Randomized outer-product low-rank multiplication, the comparison method.

Writes A @ B = sum_k (col_k of A)(row_k of B) and Monte-Carlo samples c of
the n outer products with probability proportional to the norm product
||A^(k)|| ||B_(k)||, rescaling each accepted term by 1/(c p_k) so the sum is
unbiased. Indices are drawn by rejection sampling and with replacement.
The column and row norms are the one pass numpy makes over the factors
before the GEMM. They give ||A|| and ||B||, which are the finiteness check
and the scale check (core._band_exponents).
"""

from __future__ import annotations

import time

import numpy as np

from .core import _band_exponents, _checked_total, _coerce_pair, _rescaled
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


def randomized_outer_product_multiply(A, B, c: int, seed):
    """Unbiased c-sample outer-product estimate of A @ B.

    p_k is proportional to ||A column k|| * ||B row k||; a candidate k
    (uniform) is accepted when U * max_j p_j < p_k, with U uniform on [0, 1).
    Each loop draws k first, then U. The c accepted terms are summed as one
    GEMM of the rescaled sampled columns with the sampled rows.
    Zero-probability indices are never accepted; if every p_k is zero the
    product is identically zero and there is nothing to sample, so that
    degenerate input is rejected.

    The weights are np.linalg.norm's bit for bit (_norms). ||A|| and ||B||,
    the norms of the column and row norms, are the finiteness check
    (core._checked_total), and one out of core._BAND reruns the product
    scaled (core._rescaled), which leaves p unchanged.
    """
    A, B = _coerce_pair(A, B)
    if c < 1:
        raise ValueError("c must be >= 1")
    n = A.shape[1]

    t0 = time.perf_counter()
    with np.errstate(over="ignore", invalid="ignore"):  # handled below
        cols, rows = _norms(A, axis=0), _norms(B, axis=1)
        norm_a, norm_b = np.linalg.norm(cols), np.linalg.norm(rows)
    exponents = _band_exponents(A, B, _checked_total(A, norm_a), _checked_total(B, norm_b))
    if exponents:
        return _rescaled(randomized_outer_product_multiply, exponents, A, B, t0, c, seed)
    weights = cols * rows
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
