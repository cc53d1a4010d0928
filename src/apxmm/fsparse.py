"""Row-wise Fourier sparsification and the sparsified approximate product.

Transforming the pair as Atil = A W* and Btil = W B leaves the product
unchanged (Atil Btil = A B by unitarity) but concentrates smooth rows into a
few Fourier coefficients. Keeping the top-k entries per transformed row gives
sparse factors whose product costs O(k n^2) instead of O(n^3); the
first-order form corrects with the exact Btil against the truncation error
of Atil. The selections run in pieces of at most core.SUB_ROWS rows, and
the CSR products in slabs of the dense operand (core.for_sub_blocks, the one
rule cd follows too), on every CPU above core.GRAIN entries, bit-identical
to one thread.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .core import (
    NOT_FINITE,
    _coerce,
    _coerce_pair,
    as_matrix,
    for_sub_blocks,
    unitary_dft,
)
from .report import _fro, estimated_report

__all__ = [
    "SparseRowMatrix",
    "topk_sparsify",
    "sparse_dense_multiply",
    "fft_sparse_first_order_multiply",
]

# blocks per worker of topk_sparsify and of the CSR products: each block
# makes a dozen numpy or scipy calls per piece, so fewer blocks than
# core.CHUNKS spend less on per-call overhead
_CHUNKS = 16


@dataclass(eq=False)
class SparseRowMatrix:
    """Row-sparse matrix held as one CSR array.

    Column indices are strictly increasing within a row and the stored values
    are exactly the source entries at those positions (no rescaling).
    """

    csr: sp.csr_array

    def __post_init__(self):
        if not isinstance(self.csr, sp.csr_array):
            raise TypeError("csr must be a scipy.sparse.csr_array")
        rows, cols = self.positions()
        if cols.size and (cols.min() < 0 or cols.max() >= self.csr.shape[1]):
            raise ValueError(f"column index out of range for {self.csr.shape[1]} columns")
        # the row-major offsets increase strictly exactly when every row's
        # columns do
        if np.any(np.diff(rows * self.csr.shape[1] + cols) <= 0):
            raise ValueError("row columns not strictly increasing")

    @property
    def nnz(self) -> int:
        return int(self.csr.nnz)

    def positions(self) -> tuple[np.ndarray, np.ndarray]:
        """Row and column index of every stored entry, in storage order."""
        rows = np.repeat(np.arange(self.csr.shape[0], dtype=np.int64),
                         np.diff(self.csr.indptr))
        return rows, self.csr.indices

    def to_dense(self) -> np.ndarray:
        out = np.zeros(self.csr.shape, dtype=self.csr.dtype)
        out[self.positions()] = self.csr.data
        return out


def topk_sparsify(M, k: int) -> SparseRowMatrix:
    """Keep the k largest-modulus entries of each row, zeroing the rest.

    Ties are broken toward the lower column index. k above the column count
    is clamped. One partial sort selects every row of a piece of at most
    core.SUB_ROWS rows at once (core.for_sub_blocks), so its moduli and sort
    indices stay that small even on one thread; only rows with a tie at the
    cut are redone. Deterministic, and row by row, so the pieces of a large
    M select exactly what one call over M would.
    Non-finite entries raise as_matrix's ValueError; each block reads them
    off the moduli it sorts, so M takes no separate isfinite pass.
    """
    M = _coerce(M)
    if not np.isscalar(k):
        raise TypeError("k must be one budget shared by every row")
    if k < 0:
        raise ValueError("k must be >= 0")
    rows, cols = M.shape
    k = min(int(k), cols)
    keep = np.empty((rows, k), dtype=np.intp)
    vals = np.empty((rows, k), dtype=np.complex128)

    def block(lo, hi):
        mag = np.abs(M[lo:hi])
        # the max propagates NaN and inf; a finite entry's modulus can still
        # overflow (|1e308 + 1e308j|), so the entries themselves decide
        if not np.isfinite(mag.max()) and not np.isfinite(M[lo:hi]).all():
            raise ValueError(NOT_FINITE)
        kb = np.argpartition(mag, cols - k, axis=1)[:, cols - k:]
        cut = np.take_along_axis(mag, kb[:, :1], axis=1)
        # rows with a tie at the cut take every entry above it and then the
        # lowest columns among those equal to it
        tied = np.flatnonzero(np.count_nonzero(mag >= cut, axis=1) > k)
        above, at_cut = mag[tied] > cut[tied], mag[tied] == cut[tied]
        room = k - np.count_nonzero(above, axis=1)
        pick = above | (at_cut & (np.cumsum(at_cut, axis=1) <= room[:, None]))
        kb[tied] = np.nonzero(pick)[1].reshape(-1, k)
        kb.sort(axis=1)
        keep[lo:hi] = kb
        vals[lo:hi] = np.take_along_axis(M[lo:hi], kb, axis=1)

    if k > 0:
        for_sub_blocks(block, rows, M.size, _CHUNKS)
    else:
        as_matrix(M)  # no block runs to check the entries
    csr = sp.csr_array((vals.ravel(), keep.ravel(), np.arange(rows + 1) * k),
                       shape=(rows, cols))
    return SparseRowMatrix(csr)


def sparse_dense_multiply(S: SparseRowMatrix, B, side: str = "left") -> np.ndarray:
    """S @ B (side="left") or B @ S (side="right"), O(nnz * dense width).

    One scipy call per slab of B (its columns on the left, its rows on the
    right) into one C-order result, under core.for_sub_blocks with _CHUNKS
    blocks per worker; each entry is summed in the same order as by one call
    over all of B. Never densifies S.
    """
    B = as_matrix(B)
    rows, cols = S.csr.shape
    if side not in ("left", "right"):
        raise ValueError(f"unknown side {side!r}")
    if side == "left" and cols != B.shape[0]:
        raise ValueError(f"dimension mismatch: ({rows},{cols}) x {B.shape}")
    if side == "right" and B.shape[1] != rows:
        raise ValueError(f"dimension mismatch: {B.shape} x ({rows},{cols})")
    left = side == "left"
    out = np.empty((rows, B.shape[1]) if left else (B.shape[0], cols),
                   np.result_type(S.csr.dtype, B.dtype))

    def slab(lo, hi):
        if left:
            out[:, lo:hi] = S.csr @ B[:, lo:hi]
        else:
            out[lo:hi] = B[lo:hi] @ S.csr

    for_sub_blocks(slab, B.shape[1] if left else B.shape[0], out.size, _CHUNKS)
    return out


def _zero_kept(X: np.ndarray, S: SparseRowMatrix) -> np.ndarray:
    """X with the entries S keeps set to zero, in place: X - dense(S) bit for
    bit when S holds X's own entries."""
    X[S.positions()] = 0.0
    return X


def _kept_norm(S: SparseRowMatrix) -> float:
    """||dense(S)||_F from the stored values, summed by numpy, not BLAS."""
    parts = S.csr.data.view(np.float64)  # |z|^2 as the squares of its two parts
    return math.sqrt(np.einsum("i,i->", parts, parts))


def fft_sparse_first_order_multiply(A, B, k: int, order: int,
                                    sparsify_b: str = "rows"):
    """Approximate A @ B through top-k sparsified Fourier transforms.

    Forms Atil = A W* and Btil = W B, sparsifies both to k entries per row
    (sparsify_b="cols" switches B's truncation to per-column), then evaluates

      order 0: SA @ SB                    (one sparse-sparse product)
      order 1: SA @ Btil + dAt @ SB       (dAt = Atil - dense(SA))

    The residues are Atil and Btil with the kept entries zeroed in place.
    dBt is measured and dropped as soon as SA @ Btil is formed, so the
    first order holds dAt, M and the correction (three n x n complex
    arrays), not Btil as a fourth. The result is complex; residual norms in
    the report are those of the transformed factors, which equal the
    untransformed ones by unitarity. So do ||A|| and ||B|| of the a-priori
    estimate: the kept entries and the residue split each transformed
    factor, ||Atil||^2 = ||SA||^2 + ||dAt||^2, so neither operand is read
    again for its norm.

    Every pass over n^2 >= core.GRAIN entries runs as contiguous blocks on
    every CPU: the two transforms, both top-k selections, SA @ Btil,
    dAt @ SB and the norms of dBt, dAt and M (report._fro, which calls no
    BLAS there, so dAt @ SB does not start beside a spinning BLAS worker).
    Both CSR products take slabs of at most core.SUB_ROWS columns of Btil
    or rows of dAt even on one thread, the rule cd's products follow. The
    O(k n) scatter that zeroes the kept entries and the norms of the kept
    entries stay on the calling thread. Each entry is computed as one call
    over the whole array computes it, so M and the report are bit-identical
    at any thread count.

    The operands take no up-front finiteness pass: a NaN or an inf in A
    makes its whole row of Atil non-finite, and one in B its whole column
    of Btil, so the top-k selection of either transform raises
    core.NOT_FINITE, with rows or cols truncation and at k = 0 alike.
    """
    A, B = _coerce_pair(A, B)
    if sparsify_b not in ("rows", "cols"):
        raise ValueError(f"unknown sparsify_b {sparsify_b!r}")
    # k entries of each row of Atil and of each row (or column) of Btil
    limit = A.shape[1] if sparsify_b == "cols" else min(A.shape[1], B.shape[1])
    if not 0 <= k <= limit:
        raise ValueError(f"k={k} out of range [0, {limit}]")
    if order not in (0, 1):
        raise ValueError("order must be 0 or 1")

    t0 = time.perf_counter()
    Atil = unitary_dft(A, "inverse", axis=1)
    Btil = unitary_dft(B, "forward", axis=0)
    SA = topk_sparsify(Atil, k)
    if sparsify_b == "rows":
        SB = topk_sparsify(Btil, k)
    else:
        SB = SparseRowMatrix(topk_sparsify(Btil.T, k).csr.T.tocsr())

    if order == 0:
        prod = SA.csr @ SB.csr
        prod.sort_indices()
        M = SparseRowMatrix(prod).to_dense()
    else:
        M = sparse_dense_multiply(SA, Btil, "left")
    norm_db = _fro(_zero_kept(Btil, SB))
    del Btil  # before dAt @ SB allocates its result
    dAt = _zero_kept(Atil, SA)
    if order == 1:
        M += sparse_dense_multiply(SB, dAt, "right")
    norm_da = _fro(dAt)
    norm_a = math.hypot(_kept_norm(SA), norm_da)
    norm_b = math.hypot(_kept_norm(SB), norm_db)
    wall = time.perf_counter() - t0
    return M, estimated_report("sfft", order, k, _fro(M), A.shape[1], norm_a,
                               norm_b, norm_da, norm_db, wall)
