"""Row-wise Fourier sparsification and the sparsified approximate product.

Transforming the pair as Atil = A W* and Btil = W B leaves the product
unchanged (Atil Btil = A B by unitarity) but concentrates smooth rows into a
few Fourier coefficients. Keeping the top-k entries per transformed row gives
sparse factors whose product costs O(k n^2) instead of O(n^3); the
first-order form corrects with the exact Btil against the truncation error
of Atil. The selections run in pieces of at most core.SUB_ROWS rows, and
the CSR products in slabs of the dense operand (core.for_sub_blocks, the one
rule cd follows too), on every CPU above core.GRAIN entries, bit-identical
to one thread. The first order holds two n x n complex arrays and one
block: it writes SA @ Btil into Btil one block of columns at a time, 64
columns wide where the product runs on one thread and as wide as the pool
needs where it does not.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from . import core
from .core import (
    NOT_FINITE,
    _band_exponents,
    _coerce,
    _coerce_pair,
    _rescaled,
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


def _block_width(other: int, length: int) -> int:
    """Width of the blocks an M of other x length entries is formed in:
    columns of sfft's SA @ Btil (other = M's rows, length = its columns) or
    rows of its dAt @ SB (the reverse). Where the whole product runs on the
    calling thread (core.pass_workers of M's entries is 1), a block is
    core.SUB_ROWS wide, the slab sparse_dense_multiply cuts anyway, so no
    block is as large as M. Otherwise it is the fewest whose result reaches
    core.GRAIN entries, so each block's product runs on the pool as the
    whole product would, and at least core.SUB_ROWS. Read when called, like
    every pass size."""
    if core.pass_workers(other * length) == 1:
        return core.SUB_ROWS
    return max(core.SUB_ROWS, -(-core.GRAIN // other))


def _kept_norm(S: SparseRowMatrix) -> float:
    """||dense(S)||_F from the stored values, summed by numpy, not BLAS."""
    parts = S.csr.data.view(np.float64)  # |z|^2 as the squares of its two parts
    with np.errstate(over="ignore"):  # out of band: the product reruns
        return math.sqrt(np.einsum("i,i->", parts, parts))


def fft_sparse_first_order_multiply(A, B, k: int, order: int,
                                    sparsify_b: str = "rows"):
    """Approximate A @ B through top-k sparsified Fourier transforms.

    Forms Atil = A W* and Btil = W B, sparsifies both to k entries per row
    (sparsify_b="cols" switches B's truncation to per-column), then evaluates

      order 0: SA @ SB                    (one sparse-sparse product)
      order 1: SA @ Btil + dAt @ SB       (dAt = Atil - dense(SA))

    The residues are Atil and Btil with the kept entries zeroed in place.
    Their norms come first, and with the kept entries' they give ||A|| and
    ||B||: a norm out of core._BAND reruns the product scaled
    (core._rescaled). Order 1 then writes SB's entries back into
    Btil and forms SA @ Btil one block of columns at a time, each copied
    into the columns of Btil it was read from, so M is Btil itself when
    m = n (otherwise one fresh M). dAt @ SB is added into M one block of
    rows at a time. Each block is one sparse_dense_multiply call of
    _block_width columns or rows: core.SUB_ROWS where M's product runs on
    the calling thread, else the fewest that run on the pool. So the first
    order holds two n x n complex arrays (Atil turning into dAt, Btil into
    M) and one block, a 64-wide one below core.GRAIN entries; order 0
    drops Btil before its product. The result is complex;
    residual norms in the report are those of the transformed factors,
    which equal the untransformed ones by unitarity. So do ||A|| and ||B||
    of the a-priori estimate: the kept entries and the residue split each
    transformed factor, ||Atil||^2 = ||SA||^2 + ||dAt||^2, so neither
    operand is read again for its norm.

    Every pass over n^2 >= core.GRAIN entries runs as contiguous blocks on
    every CPU: the two transforms, both top-k selections, SA @ Btil,
    dAt @ SB and the norms of dBt, dAt and M (report._fro, which calls no
    BLAS there, so dAt @ SB does not start beside a spinning BLAS worker).
    Within a block, both CSR products take slabs of at most core.SUB_ROWS
    columns of Btil or rows of dAt even on one thread, the rule cd's
    products follow. The block loops, the O(k n) scatters that zero and
    restore the kept entries and the norms of the kept entries stay on the
    calling thread. Each entry is computed as one call over the whole array
    computes it, so M and the report are bit-identical at any thread count
    and block width.

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
    norm_db = _fro(_zero_kept(Btil, SB))
    dAt = _zero_kept(Atil, SA)
    norm_da = _fro(dAt)
    norm_a = math.hypot(_kept_norm(SA), norm_da)
    norm_b = math.hypot(_kept_norm(SB), norm_db)
    exponents = _band_exponents(A, B, norm_a, norm_b)
    if exponents:
        return _rescaled(fft_sparse_first_order_multiply, exponents, A, B, t0, k,
                         order, sparsify_b)

    rows, cols = A.shape[0], B.shape[1]
    if order == 0:
        del Btil
        prod = SA.csr @ SB.csr
        prod.sort_indices()
        M = SparseRowMatrix(prod).to_dense()
    else:
        Btil[SB.positions()] = SB.csr.data  # Btil again
        # column block j of M = SA @ Btil reads column block j of Btil only
        M = Btil if Btil.shape[0] == rows else np.empty((rows, cols), np.complex128)
        width = _block_width(rows, cols)
        for lo in range(0, cols, width):
            M[:, lo:lo + width] = sparse_dense_multiply(SA, Btil[:, lo:lo + width])
        del Btil
        width = _block_width(cols, rows)
        for lo in range(0, rows, width):
            M[lo:lo + width] += sparse_dense_multiply(SB, dAt[lo:lo + width], "right")
    wall = time.perf_counter() - t0
    return M, estimated_report("sfft", order, k, _fro(M), A.shape[1], norm_a,
                               norm_b, norm_da, norm_db, wall)
