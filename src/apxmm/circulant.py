"""Circulant decomposition of a square matrix and the truncated product.

Any n x n matrix splits uniquely as A = sum_k R_k D^k with R_k circulant and
D = diag(omega^q), omega = exp(2i*pi/n). The components are orthogonal under
the Frobenius inner product, so keeping the largest few is an L2-optimal
truncation within this family. For a real A, components k and n-k are
conjugate with bitwise equal magnitudes, and the lower index wins a tie at
the cut. A circulant is diagonal in the Fourier basis, so the kept sum is
Ahat = W* P W with P a sparse matrix of k nonzeros per row: each product is
two FFT passes around one sparse-dense product with P, and
circulant_materialize densifies the same operator. Passes over n^2 >=
core.GRAIN entries run in blocks on every CPU (core.for_blocks).

Sign conventions, with W(p,q) = exp(-2i*pi*p*q/n)/sqrt(n) and
(C^k z)_i = z_{(i-k) mod n}: R_k = W* diag(fft(columns[k])) W and
W D^k = C^k W. Products and materialize share P, so the test that pins the
signs compares materialize with the cycle-averaging circulant_component.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace

import numpy as np
import scipy.fft
import scipy.sparse

from .core import (
    CHUNKS,
    _sparse_rows_times,
    as_matrix,
    as_pair,
    cycle_reorder,
    for_blocks,
    pass_workers,
    unitary_dft,
)
from .report import estimated_report

__all__ = [
    "CirculantSpectrum",
    "circulant_decompose",
    "circulant_component",
    "circulant_select",
    "circulant_materialize",
    "circulant_first_order_multiply",
    "top_indices",
]

# rows of the spectrum rescaled and measured together in circulant_decompose
_BLOCK_ROWS = 16


@dataclass
class CirculantSpectrum:
    """Component data of the split A = sum_k R_k D^k.

    columns[k] is the first column of the circulant R_k (length n, complex);
    magnitudes[k] = ||columns[k]||_2, so n * magnitudes[k]^2 is the squared
    Frobenius weight of component k. selected lists the component indices a
    truncation keeps, ascending.
    """

    n: int
    columns: np.ndarray
    magnitudes: np.ndarray
    selected: list[int]

    def __post_init__(self):
        if self.columns.shape != (self.n, self.n):
            raise ValueError("columns must be n x n (row k = first column of R_k)")
        if self.magnitudes.shape != (self.n,):
            raise ValueError("need one magnitude per component")
        if any(not 0 <= k < self.n for k in self.selected):
            raise ValueError("selected index out of range")


def top_indices(weights, k: int) -> list[int]:
    """Indices of the k largest weights, ties to the lower index, ascending."""
    weights = np.asarray(weights)
    if not 0 <= k <= weights.size:
        raise ValueError(f"k={k} out of range [0, {weights.size}]")
    # stable sort on -w keeps the earlier index first among ties
    order = np.argsort(-weights, kind="stable")[:k]
    return sorted(int(i) for i in order)


def circulant_decompose(A) -> CirculantSpectrum:
    """Split A into its n circulant components via one FFT pass, O(n^2 log n).

    Row j of the cycle reordering holds cycle j of A, which is the j-th
    first-column entry of every R_k modulated by omega^{k.}; one forward
    unitary DFT along each row (the contiguous axis) plus a 1/sqrt(n) rescale
    yields all first columns at once, as columns of the spectrum T (columns
    is the view T.T: row k is R_k's first column). For a real A, T is exactly
    conjugate-symmetric, so components k and n-k tie bitwise and
    circulant_select keeps the lower index of a pair its cut splits. The
    magnitudes sum fixed row blocks in a fixed order at any thread count.
    """
    T = unitary_dft(cycle_reorder(A), "forward", axis=1)
    n = T.shape[0]
    blocks = -(-n // _BLOCK_ROWS)
    partial = np.empty((blocks, n))

    def rescale(lo, hi):
        # rescale each block of rows in cache and sum its |T|^2 down the columns
        for b in range(lo, hi):
            rows = T[b * _BLOCK_ROWS:(b + 1) * _BLOCK_ROWS]
            rows /= math.sqrt(n)
            partial[b] = (rows.real**2 + rows.imag**2).sum(axis=0)

    for_blocks(rescale, blocks, n * n)
    return CirculantSpectrum(n=n, columns=T.T, magnitudes=np.sqrt(partial.sum(axis=0)),
                             selected=list(range(n)))


def circulant_component(A, k: int) -> np.ndarray:
    """First column of R_k alone, by cycle averaging instead of the FFT.

    Entry j is the mean over cycle j of A D^{-k}; the phase multiply is
    entrywise on columns, never a matrix product. O(n^2) per component, and
    an independent route to the same numbers circulant_decompose produces.
    """
    A = as_matrix(A)
    n = A.shape[0]
    if A.shape[1] != n:
        raise ValueError(f"square matrix required, got {A.shape}")
    if not 0 <= k < n:
        raise ValueError(f"component index {k} out of range [0, {n})")
    phase = np.exp(-2j * np.pi * k * np.arange(n) / n)
    return cycle_reorder(A * phase[None, :]).mean(axis=1)


def circulant_select(spectrum: CirculantSpectrum, k: int) -> CirculantSpectrum:
    """Copy of the spectrum keeping the k largest-magnitude components."""
    return replace(spectrum, selected=top_indices(spectrum.magnitudes, k))


def circulant_materialize(spectrum: CirculantSpectrum) -> np.ndarray:
    """Dense sum_{k in selected} R_k D^k = W* P W, complex output.

    The dense form of the operator the products apply: P of _fourier_operator
    densified, then one transform along each axis, O(n^2 log n).
    """
    workers = pass_workers(spectrum.n ** 2)
    PW = scipy.fft.fft(_fourier_operator(spectrum).toarray(), axis=1, norm="ortho",
                       overwrite_x=True, workers=workers)
    return scipy.fft.ifft(PW, axis=0, norm="ortho", overwrite_x=True, workers=workers)


def _residual_norm(A_norm_sq: float, spectrum: CirculantSpectrum) -> float:
    """||A - sum_{k in selected} R_k D^k||_F via component orthogonality."""
    kept = spectrum.n * sum(float(spectrum.magnitudes[k]) ** 2 for k in spectrum.selected)
    return math.sqrt(max(0.0, A_norm_sq - kept))


def _fourier_operator(spectrum: CirculantSpectrum) -> scipy.sparse.csr_array:
    """P with sum_{t in selected} R_t D^t = W* P W, k nonzeros per row.

    R_t D^t = W* diag(L_t) W D^t = W* diag(L_t) C^t W with L_t the
    unnormalized FFT of R_t's first column, so P[i, (i-t) mod n] = L_t[i].
    Each row stores its entries in ascending t, the summation order.
    """
    n, sel = spectrum.n, np.asarray(spectrum.selected, dtype=np.intp)
    L = scipy.fft.fft(spectrum.columns[sel], axis=1)
    cols = (np.arange(n)[:, None] - sel[None, :]) % n
    return scipy.sparse.csr_array((L.T.ravel(), cols.ravel(), sel.size * np.arange(n + 1)),
                                  shape=(n, n))


def circulant_first_order_multiply(A, B, k: int, order: int):
    """Approximate A @ B keeping the k largest circulant components of each.

    order 0 computes Ahat @ B = W* P_a W B with the sparse P_a of
    _fourier_operator (the left factor is the only one truncated); order 1
    adds the correction dA @ Bhat = dA W* P_b W from the dense Ahat, one
    block of rows of dA = A - Ahat at a time. Both cost
    O(k n^2 + n^2 log n). The result is complex for real inputs; take the
    real part at the caller if wanted. Deterministic, no randomness involved,
    and bit-identical however many threads the n^2 passes run on.
    """
    A, B = as_pair(A, B)
    n = A.shape[0]
    if A.shape[1] != n or B.shape != (n, n):
        raise ValueError(f"two square n x n matrices required, got {A.shape} x {B.shape}")
    if not 0 <= k <= n:
        raise ValueError(f"k={k} out of range [0, {n}]")
    if order not in (0, 1):
        raise ValueError("order must be 0 or 1")

    t0 = time.perf_counter()
    spec_a = circulant_select(circulant_decompose(A), k)
    spec_b = circulant_select(circulant_decompose(B), k)
    norm_a = float(np.linalg.norm(A))
    norm_b = float(np.linalg.norm(B))
    norm_da = _residual_norm(norm_a**2, spec_a)
    norm_db = _residual_norm(norm_b**2, spec_b)

    # Ahat B = W* (P_a (W B)) and dA Bhat = ((dA W*) P_b) W; scipy's transforms
    # take real input at about half cost and may overwrite the intermediates
    workers = pass_workers(n * n)
    PWB = _sparse_rows_times(_fourier_operator(spec_a),
                             scipy.fft.fft(B, axis=0, norm="ortho", workers=workers))
    M = scipy.fft.ifft(PWB, axis=0, norm="ortho", overwrite_x=True, workers=workers)
    if order == 1:
        dA = circulant_materialize(spec_a)
        P_b = _fourier_operator(spec_b)

        def correct(lo, hi):
            # every step acts on whole rows: dA = A - Ahat overwrites Ahat
            # and is transformed in place, one block of rows at a time
            rows = np.subtract(A[lo:hi], dA[lo:hi], out=dA[lo:hi])
            G = scipy.fft.ifft(rows, axis=1, norm="ortho", overwrite_x=True) @ P_b
            M[lo:hi] += scipy.fft.fft(G, axis=1, norm="ortho", overwrite_x=True)

        for_blocks(correct, n, n * n, CHUNKS)
    wall = time.perf_counter() - t0
    return M, estimated_report("cd", order, k, M, n, norm_a, norm_b,
                               norm_da, norm_db, wall)
