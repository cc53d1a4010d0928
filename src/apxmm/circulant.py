"""Circulant decomposition of a square matrix and the truncated product.

Any n x n matrix splits uniquely as A = sum_t R_t D^t with R_t circulant and
D = diag(omega^q), omega = exp(2i*pi/n). The components are orthogonal under
the Frobenius inner product, so keeping the largest few is an L2-optimal
truncation within this family. For a real A, R_{n-t} is the conjugate of
R_t: the spectrum of a real matrix stores only the half t <= n/2, the
selection keeps conjugate pairs whole, and every kept sum is real. A
circulant is diagonal in the Fourier basis, so the kept sum is
Ahat = W* P W with P a sparse matrix of k nonzeros per row: each product is
two FFT passes around one sparse-dense product with P, fused per slab of
the dense operand under the one slab rule (core.for_sub_blocks).
circulant_materialize builds the same sum densely from the spectrum, the
way circulant_decompose took it apart: one inverse FFT along the rows of
the kept spectrum columns gives the cycle reordering of the sum, and the
inverse column roll of core.cycle_reorder turns that back into the matrix,
in place. That is O(n^2 log n), one n x n array and no matrix product. For
real inputs the passes run in real arithmetic on half the rows (rfft,
irfft, hfft). Passes over n^2 >= core.GRAIN entries run in blocks on every
CPU (core.for_blocks).

Sign conventions, with W(p,q) = exp(-2i*pi*p*q/n)/sqrt(n) and
(C^t z)_i = z_{(i-t) mod n}: R_t = W* diag(fft(column(t))) W and
W D^t = C^t W. The tests pin materialize against R_t built by averaging
the cycles of A D^{-t}, with no FFT and no column roll, and the products,
which apply P, against materialize.
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
    SUM_ROWS,
    _band_exponents,
    _checked_total,
    _coerce_pair,
    _count,
    _rescaled,
    _roll_columns,
    cycle_reorder,
    for_blocks,
    for_sub_blocks,
    pass_workers,
)
from .report import _fro, _square_sum, estimated_report

__all__ = [
    "CirculantSpectrum",
    "circulant_decompose",
    "circulant_select",
    "circulant_materialize",
    "circulant_first_order_multiply",
]


@dataclass
class CirculantSpectrum:
    """Component data of the split A = sum_t R_t D^t.

    column(t) is the first column of the circulant R_t (length n, complex).
    For a complex A, columns holds all n of them, row t for R_t. For a real
    A (half=True) R_{n-t} is the conjugate of R_t, so columns holds only the
    n//2 + 1 rows t <= n/2, and column(t) reads a t > n/2 as the conjugate
    of row n - t. magnitudes[t] = ||column(t)||_2 for all n components (the
    mirrored ones bitwise equal), so n * magnitudes[t]^2 is the squared
    Frobenius weight of component t. selected lists the component indices a
    truncation keeps, ascending.
    """

    n: int
    columns: np.ndarray
    magnitudes: np.ndarray
    selected: list[int]
    half: bool

    def __post_init__(self):
        rows = self.n // 2 + 1 if self.half else self.n
        if self.columns.shape != (rows, self.n):
            raise ValueError(f"columns must be {rows} x n (row t = first column of R_t)")
        if self.magnitudes.shape != (self.n,):
            raise ValueError("need one magnitude per component")
        if any(not 0 <= k < self.n for k in self.selected):
            raise ValueError("selected index out of range")

    def column(self, t):
        """First column of R_t; an index array gives one row per index."""
        t = np.asarray(t)
        if np.any((t < 0) | (t >= self.n)):
            raise ValueError(f"component index out of range [0, {self.n})")
        if not self.half:
            return self.columns[t]
        mirrored = t > self.n // 2
        rows = self.columns[np.where(mirrored, self.n - t, t)]
        return np.where(mirrored[..., None], rows.conj(), rows)


def circulant_decompose(A) -> CirculantSpectrum:
    """Split A into its n circulant components via one FFT pass, O(n^2 log n).

    Row j of the cycle reordering holds cycle j of A, which is the j-th
    first-column entry of every R_t modulated by omega^{t.}; one forward DFT
    along each row (the contiguous axis) with the 1/n scale folded in yields
    all first columns at once, as columns of the spectrum T (columns is the
    view T.T). A real A takes scipy's rfft, which computes and stores only
    the n//2 + 1 components t <= n/2 (a half spectrum); the rest are their
    conjugates. The magnitudes sum fixed row blocks in a fixed order at any
    thread count. An in-band building block: the magnitudes sum unscaled
    squares, and the product reruns when ||A|| leaves core._BAND.
    """
    C = cycle_reorder(A)
    n = C.shape[0]
    half = not np.iscomplexobj(C)
    T = (scipy.fft.rfft if half else scipy.fft.fft)(C, axis=1, norm="forward",
                                                   workers=pass_workers(n * n))
    del C
    blocks = -(-n // SUM_ROWS)
    partial = np.empty((blocks, T.shape[1]))

    def measure(lo, hi):
        # sum |T|^2 down the columns, one cached block of rows at a time
        with np.errstate(over="ignore"):  # out of band: the product reruns
            for b in range(lo, hi):
                rows = T[b * SUM_ROWS:(b + 1) * SUM_ROWS]
                partial[b] = (rows.real**2 + rows.imag**2).sum(axis=0)

    for_blocks(measure, blocks, n * n)
    magnitudes = np.sqrt(partial.sum(axis=0))
    if half:  # component n - t mirrors t
        magnitudes = np.concatenate((magnitudes, magnitudes[n - T.shape[1]:0:-1]))
    return CirculantSpectrum(n=n, columns=T.T, magnitudes=magnitudes,
                             selected=list(range(n)), half=half)


def circulant_select(spectrum: CirculantSpectrum, k: int) -> CirculantSpectrum:
    """Copy of the spectrum keeping the k largest-magnitude components.

    Ties go to the lower index. A half spectrum keeps whole conjugate pairs
    (t, n - t), so the kept sum of a real matrix is real: a pair ranks as
    one unit at its lower index, and when the k-th component taken is half
    of a pair its conjugate is kept too (k + 1 in all).
    """
    n = spectrum.n
    k = _count(k, "k")
    if not 0 <= k <= n:
        raise ValueError(f"k={k} out of range [0, {n}]")
    t = np.arange(n)
    unit = np.minimum(t, n - t) if spectrum.half else t
    order = np.lexsort((t, unit, -spectrum.magnitudes))[:k]
    kept = {int(i) for i in order}
    if spectrum.half and k:
        kept.add(int(-order[-1] % n))
    return replace(spectrum, selected=sorted(kept))


def circulant_materialize(spectrum: CirculantSpectrum) -> np.ndarray:
    """Dense sum_{t in selected} R_t D^t, O(n^2 log n) and no matrix product.

    Row j of the sum's cycle reordering is sum_{t in selected} column(t)[j]
    omega^{ti}: one unscaled inverse FFT of the kept spectrum columns along
    each row, run in row slabs (core.for_sub_blocks) into the one n x n
    output, whose column i is then rolled back by i in place (the inverse
    of core.cycle_reorder, in column slabs). The only other memory is each
    slab's transform and each block's roll buffer. The sum is real when the
    spectrum is half and the selection closed under t -> n - t (always so
    after circulant_select); it is then float64, and irfft reads only the
    kept t <= n/2. Otherwise the output is complex, through ifft.
    """
    n = spectrum.n
    kept = set(spectrum.selected)
    real = spectrum.half and all(-t % n in kept for t in kept)
    sel = np.array([t for t in spectrum.selected if not real or t <= n // 2], dtype=np.intp)
    K = spectrum.column(sel)
    inverse = scipy.fft.irfft if real else scipy.fft.ifft
    out = np.empty((n, n), np.float64 if real else np.complex128)

    def synthesize(lo, hi):
        T = np.zeros((hi - lo, n // 2 + 1 if real else n), np.complex128)
        T[:, sel] = K[:, lo:hi].T
        out[lo:hi] = inverse(T, n, axis=1, norm="forward", overwrite_x=True)

    for_sub_blocks(synthesize, n, n * n, CHUNKS)
    return _roll_columns(out, -1)


def _norms(spectrum: CirculantSpectrum) -> tuple[float, float]:
    """||A||_F and ||A - sum_{t in selected} R_t D^t||_F.

    The components are orthogonal with weights n * magnitudes[t]^2, so
    ||A||^2 sums every weight and the residue's squared norm those of the
    components the selection drops: a complete selection reports exactly 0.
    """
    dropped = np.ones(spectrum.n, dtype=bool)
    dropped[spectrum.selected] = False
    with np.errstate(over="ignore"):  # out of band: the product reruns
        weights = spectrum.n * spectrum.magnitudes**2
    return math.sqrt(weights.sum()), math.sqrt(weights[dropped].sum())


def _fourier_operator(spectrum: CirculantSpectrum, rows: int,
                      cols: int) -> scipy.sparse.csr_array:
    """Rows < rows and columns < cols of P, sum_{t in selected} R_t D^t = W* P W,
    the form in which the product applies the kept sum.

    R_t D^t = W* diag(L_t) W D^t = W* diag(L_t) C^t W with L_t the
    unnormalized FFT of R_t's first column, so P[i, (i-t) mod n] = L_t[i]:
    k nonzeros per full row. Each row stores its entries in ascending t,
    the summation order.
    """
    n, sel = spectrum.n, np.asarray(spectrum.selected, dtype=np.intp)
    L = scipy.fft.fft(spectrum.column(sel), axis=1)[:, :rows]
    idx = (np.arange(rows)[:, None] - sel[None, :]) % n
    inside = idx < cols
    indptr = np.concatenate(([0], np.cumsum(np.count_nonzero(inside, axis=1))))
    return scipy.sparse.csr_array((L.T[inside], idx[inside], indptr), shape=(rows, cols))


def circulant_first_order_multiply(A, B, k: int, order: int):
    """Approximate A @ B keeping the k largest circulant components of each.

    order 0 computes Ahat @ B = W* P_a W B with the sparse P_a of
    _fourier_operator, one slab of at most core.SUB_ROWS columns of B at a
    time. Only A is decomposed: B is read once before its column FFTs, by
    one pooled sum of its squares that gives ||B||. The error is exactly
    dA B, so the report's norm_db is 0.0 and its estimates read ||B|| in
    place of ||dB||: posterior ||dA|| ||B|| / (sqrt(n) ||M||), a-priori
    ||dA|| / ||A||. order 1 decomposes B too and adds the correction
    dA @ Bhat = dA W* P_b W from the dense Ahat, one slab of rows of
    dA = A - Ahat at a time, and reports the first-order estimates. Both
    cost O(k n^2 + n^2 log n). For real A and
    B every kept sum is real (whole conjugate pairs, see circulant_select)
    and so are M and dA: the product forms only the rows i <= n/2 of
    P_a W B and ends in irfft, the correction only the columns j <= n/2 of
    dA W* P_b and ends in hfft, and M is float64. Otherwise M is complex.
    report.k is the budget k; a real factor keeps k + 1 components when its
    cut falls inside a pair, and
    len(circulant_select(circulant_decompose(A), k).selected) gives the
    count kept. Deterministic, no randomness involved, and bit-identical
    however many threads the n^2 passes run on. Each factor's NaN/inf check
    is the first pass that reads it: the cycle gather of its decomposition
    (core.cycle_reorder), or at order 0 B's sum of squares; a norm out of
    core._BAND reruns the product scaled (core._rescaled).
    """
    A, B = _coerce_pair(A, B)
    k = _count(k, "k")
    n = A.shape[0]
    if A.shape[1] != n or B.shape != (n, n):
        raise ValueError(f"two square n x n matrices required, got {A.shape} x {B.shape}")
    if not 0 <= k <= n:
        raise ValueError(f"k={k} out of range [0, {n}]")
    if order not in (0, 1):
        raise ValueError("order must be 0 or 1")
    if order == 0:
        # B's one pass before its column FFTs, and its finiteness check
        norm_b = math.sqrt(_checked_total(B, _square_sum(B)))

    t0 = time.perf_counter()
    spec_a = circulant_select(circulant_decompose(A), k)
    norm_a, norm_da = _norms(spec_a)
    if order == 1:
        spec_b = circulant_select(circulant_decompose(B), k)
        norm_b, norm_db = _norms(spec_b)
    exponents = _band_exponents(A, B, norm_a, norm_b)
    if exponents:
        return _rescaled(circulant_first_order_multiply, exponents, A, B, t0, k, order)

    # Ahat B = W* (P_a (W B)) and dA Bhat = ((dA W*) P_b) W; scipy's transforms
    # take real input at about half cost and may overwrite the intermediates
    real = spec_a.half and not np.iscomplexobj(B)
    half = n // 2 + 1 if real else n
    P_a = _fourier_operator(spec_a, half, n)
    inverse = scipy.fft.irfft if real else scipy.fft.ifft
    M = np.empty((n, n), np.float64 if real else np.complex128)

    def apply(lo, hi):
        # every step acts on whole columns of B, a few columns at a time
        WB = scipy.fft.fft(B[:, lo:hi], axis=0, norm="ortho")
        M[:, lo:hi] = inverse(P_a @ WB, n, axis=0, norm="ortho", overwrite_x=True)

    for_sub_blocks(apply, n, n * n, CHUNKS)
    if order == 1:
        # P_b is all the correction reads of B's spectrum: free it before
        # materialize allocates Ahat
        P_b = _fourier_operator(spec_b, n, half)
        del spec_b
        dA = circulant_materialize(spec_a)
        forward = scipy.fft.hfft if real else scipy.fft.fft

        def correct(lo, hi):
            # every step acts on whole rows: dA = A - Ahat overwrites Ahat
            # and is transformed in place, a few rows at a time
            rows = np.subtract(A[lo:hi], dA[lo:hi], out=dA[lo:hi])
            G = scipy.fft.ifft(rows, axis=1, norm="ortho", overwrite_x=True) @ P_b
            M[lo:hi] += forward(G, n, axis=1, norm="ortho", overwrite_x=True)

        for_sub_blocks(correct, n, n * n, CHUNKS)
    wall = time.perf_counter() - t0
    # at order 0, AB - M = dA B exactly: B is not truncated, so its residue
    # is 0 and the estimates read ||B|| where the first order's read ||dB||
    report = estimated_report("cd", order, k, _fro(M), n, norm_a, norm_b,
                              norm_da, norm_db if order else norm_b, wall)
    return M, report if order else replace(report, norm_db=0.0)
