"""Row-wise Fourier sparsification and the sparsified approximate product.

Transforming the pair as Atil = A W* and Btil = W B leaves the product
unchanged (Atil Btil = A B by unitarity) but concentrates smooth rows into a
few Fourier coefficients. Keeping the top-k entries per transformed row gives
sparse factors whose product costs O(k n^2) instead of O(n^3); the
first-order form corrects with the exact Btil against the truncation error
of Atil. The selections run in pieces of at most core.SUB_ROWS rows, and
the CSR products in slabs of the dense operand (core.for_sub_blocks, the one
rule cd follows too), on every CPU above core.GRAIN entries, bit-identical
to one thread. Each row of a real A's A W* is conjugate-symmetric, so the
product holds only its first p // 2 + 1 columns, from one real-input
transform, selects SA and sums ||dAt|| on them with topk_sparsify's own
rule, and rebuilds dAt one block of rows at a time. So the first order
holds one n x n complex array (Btil, into which it writes SA @ Btil one
block of columns at a time, 64 columns wide where the product runs on one
thread and as wide as the pool needs where it does not), one
n x (p // 2 + 1) array and a block of dAt; a complex A's transform is
whole and turns into dAt in place.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np
import scipy.fft
import scipy.sparse as sp

from . import core
from .core import (
    NOT_FINITE,
    _band_exponents,
    _coerce,
    _coerce_pair,
    _count,
    _rescaled,
    as_matrix,
    for_blocks,
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

    k is one integer budget shared by every row (core._count); above the
    column count it is clamped. Ties are broken toward the lower column
    index. Each piece of at most core.SUB_ROWS rows (core.for_sub_blocks)
    selects by threshold: one partition of its moduli gives each row's
    k-th largest modulus, the cut, and one mask of the moduli at or above
    it lists every candidate in row-major order, so each row's columns come
    out ascending with no sort. A row with more than k candidates has a
    tie at the cut. Only then does the lower-column rule run, and only on
    the candidate list: a row keeps every candidate above its cut, then the
    first k - above equal to it. Every temporary stays one piece in size
    even on one thread. Deterministic, and row by row, so the pieces of a
    large M select exactly what one call over M would.
    Non-finite entries raise as_matrix's ValueError; each block reads them
    off the moduli it selects on, so M takes no separate isfinite pass.
    """
    M = _coerce(M)
    k = _count(k, "k")
    if k < 0:
        raise ValueError("k must be >= 0")
    k = min(k, M.shape[1])
    if k == 0:
        as_matrix(M)  # no block runs to check the entries
    return _topk_rows(M, M.shape[1], k)[0]


def _topk_rows(R: np.ndarray, cols: int, k: int,
               residue: bool = False) -> tuple[SparseRowMatrix, float | None]:
    """(topk_sparsify(T, k), ||T - dense(S)||_F if residue else None) for the
    m x cols matrix T whose first h = R.shape[1] columns are R's and whose
    column j >= h is the conjugate of column cols - j: T is R when h = cols,
    a real A's A W* when R is its half spectrum (_inverse_rows).

    The one selection rule, topk_sparsify's, for 0 <= k <= cols. Each piece
    takes R's moduli, its finiteness check, mirrors them to T's cols
    columns in cache (|conj z| = |z| bit for bit) and selects on them; a
    kept column j >= h takes the conjugate of R's entry cols - j, so S holds
    T's own entries. With residue, the kept moduli are then zeroed and each
    row sums the squares of the rest. The row sums add in one fixed order,
    so the norm does not depend on the piece boundaries. The pieces run
    when k > 0 or residue is asked for; otherwise nothing reads R.
    """
    rows, h = R.shape
    keep = np.empty((rows, k), dtype=np.intp)
    vals = np.empty((rows, k), dtype=np.complex128)
    sums = np.empty(rows)

    def block(lo, hi):
        X = R[lo:hi]
        # in X's layout, as np.abs(X) would be: an F-order piece of
        # (W B).T selects fastest at n = 2048 on F-order moduli
        mag = np.empty_like(X, np.float64, shape=(hi - lo, cols))
        half = np.abs(X, out=mag[:, :h])
        # the max propagates NaN and inf; a finite entry's modulus can still
        # overflow (|1e308 + 1e308j|), so the entries themselves decide
        if not np.isfinite(half.max()) and not np.isfinite(X).all():
            raise ValueError(NOT_FINITE)
        mag[:, h:] = mag[:, cols - h:0:-1]
        if k:
            # a copy, so the partitioned moduli are freed at once
            cut = np.partition(mag, cols - k, axis=1)[:, cols - k].copy()
            # every row has at least k candidates, the k largest among them
            flat = np.flatnonzero(mag >= cut[:, None])
            if flat.size > (hi - lo) * k:
                row = flat // cols
                at = np.take(mag, flat) == cut[row]
                counts = np.bincount(row, minlength=hi - lo)
                # the running count of candidates at the cut that row r may
                # reach: those of the rows before it, plus its k - above
                seen = np.cumsum(at)
                limit = seen[np.cumsum(counts) - 1] + k - counts
                flat = flat[~at | (seen <= limit[row])]
            kb = (flat % cols).reshape(-1, k)
            keep[lo:hi] = kb
            mirrored = kb >= h
            kept = np.take_along_axis(X, np.where(mirrored, cols - kb, kb), axis=1)
            vals[lo:hi] = np.conjugate(kept, out=kept, where=mirrored)
            if residue:
                np.put_along_axis(mag, kb, 0.0, axis=1)
        if residue:
            with np.errstate(over="ignore"):  # out of band: the product reruns
                sums[lo:hi] = np.square(mag, out=mag).sum(axis=1)

    if k or residue:
        for_sub_blocks(block, rows, rows * cols, _CHUNKS)
    csr = sp.csr_array((vals.ravel(), keep.ravel(), np.arange(rows + 1) * k),
                       shape=(rows, cols))
    if not residue:
        return SparseRowMatrix(csr), None
    with np.errstate(over="ignore"):
        return SparseRowMatrix(csr), math.sqrt(sums.sum())


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


def _inverse_rows(A: np.ndarray) -> np.ndarray:
    """R, the columns of Atil = A W* that sfft stores: all p of them for a
    complex A (unitary_dft), the first p // 2 + 1 for a real A.

    Each row of a real A's Atil is conjugate-symmetric bit for bit:
    unitary_dft computes the first p // 2 + 1 columns with scipy's
    real-input transform and writes column j > p // 2 as the conjugate of
    column p - j. ihfft is that transform on its own. Its real-valued
    columns, 0 and (for an even p) p / 2, carry +0.0 imaginary parts where
    unitary_dft's conjugation leaves -0.0, so those are set; R then equals
    the same columns of unitary_dft(A, "inverse", axis=1) bit for bit. One
    scipy call on pass_workers(A.size) threads, as unitary_dft's.
    """
    if np.iscomplexobj(A):
        return unitary_dft(A, "inverse", axis=1)
    p = A.shape[1]
    R = scipy.fft.ihfft(A, axis=1, norm="ortho", workers=core.pass_workers(A.size))
    R.imag[:, 0] = -0.0
    if p % 2 == 0:
        R.imag[:, -1] = -0.0
    return R


def _residue_rows(out: np.ndarray, R: np.ndarray, kept: np.ndarray, lo: int) -> None:
    """Rows lo to lo + len(out) of dAt = Atil - dense(SA) written into out:
    R's columns, the conjugates they mirror (_topk_rows) and zeros at
    kept, SA's columns of each row, so bit for bit the rows of Atil with
    the kept entries zeroed. out may be those rows of R itself when R is
    all of Atil, which then turn into dAt in place (numpy skips a copy of
    an array onto itself). Split over out's rows on the pool
    (core.for_blocks) from core.GRAIN entries on."""
    h, cols = R.shape[1], out.shape[1]

    def fill(a, b):
        rows, src = out[a:b], R[lo + a:lo + b]
        rows[:, :h] = src
        np.conjugate(src[:, cols - h:0:-1], out=rows[:, h:])
        np.put_along_axis(rows, kept[lo + a:lo + b], 0.0, axis=1)

    for_blocks(fill, len(out), out.size)


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

    A real A's Atil is held as R, its first p // 2 + 1 columns, from one
    real-input transform (_inverse_rows); every row of Atil is
    conjugate-symmetric, so R determines it bit for bit. A complex A's R is
    all of Atil. SA and ||dAt|| come from R one piece of rows at a time
    (_topk_rows, topk_sparsify's selection on the mirrored moduli), and dAt
    is never held whole. Btil's residue is Btil with the kept entries
    zeroed in place. With the kept entries' norms, the residue norms give
    ||A|| and ||B||: a norm out of core._BAND reruns the product scaled
    (core._rescaled). Order 1 then writes SB's entries back into Btil and
    forms SA @ Btil one block of columns at a time, each copied into the
    columns of Btil it was read from, so M is Btil itself when m = n
    (otherwise one fresh M). dAt @ SB is added into M one block of rows at
    a time, each block of dAt rebuilt from R into one reused buffer
    (_residue_rows). Each block is one sparse_dense_multiply call of
    _block_width columns or rows: core.SUB_ROWS where M's product runs on
    the calling thread, else the fewest that run on the pool. So the first
    order of a real A holds one n x n complex array (Btil, turning into M),
    the n x (p // 2 + 1) R, the dAt buffer and one block's product; a
    complex A's R is n x n. Order 0 drops Btil and R before its product.
    The result is complex; residual norms in the report are those of the
    transformed factors, which equal the untransformed ones by unitarity.
    So do ||A|| and ||B|| of the a-priori estimate: the kept entries and
    the residue split each transformed factor,
    ||Atil||^2 = ||SA||^2 + ||dAt||^2, so neither operand is read again
    for its norm.

    Every pass over n^2 >= core.GRAIN entries runs as contiguous blocks on
    every CPU: the two transforms, both top-k selections (with ||dAt||),
    SA @ Btil, the rebuilt dAt blocks, dAt @ SB and the norms of dBt and M
    (report._fro, which calls no BLAS there, so dAt @ SB does not start
    beside a spinning BLAS worker). Within a block, both CSR products take
    slabs of at most core.SUB_ROWS columns of Btil or rows of dAt even on
    one thread, the rule cd's products follow. The block loops, the O(k n)
    scatters that zero and restore B's kept entries and the norms of the
    kept entries stay on the calling thread. Each entry is computed as one
    call over the whole array computes it, so M and the report are
    bit-identical at any thread count and block width, and M equals the
    product of the full transforms bit for bit.

    The operands take no up-front finiteness pass: a NaN or an inf in A
    makes its whole row of R non-finite, and one in B its whole column
    of Btil, so the selection of either transform raises core.NOT_FINITE,
    with rows or cols truncation and at k = 0 alike.
    """
    A, B = _coerce_pair(A, B)
    k = _count(k, "k")
    if sparsify_b not in ("rows", "cols"):
        raise ValueError(f"unknown sparsify_b {sparsify_b!r}")
    # k entries of each row of Atil and of each row (or column) of Btil
    limit = A.shape[1] if sparsify_b == "cols" else min(A.shape[1], B.shape[1])
    if not 0 <= k <= limit:
        raise ValueError(f"k={k} out of range [0, {limit}]")
    if order not in (0, 1):
        raise ValueError("order must be 0 or 1")

    t0 = time.perf_counter()
    R = _inverse_rows(A)
    Btil = unitary_dft(B, "forward", axis=0)
    SA, norm_da = _topk_rows(R, A.shape[1], k, residue=True)
    if sparsify_b == "rows":
        SB = topk_sparsify(Btil, k)
    else:
        SB = SparseRowMatrix(topk_sparsify(Btil.T, k).csr.T.tocsr())
    norm_db = _fro(_zero_kept(Btil, SB))
    norm_a = math.hypot(_kept_norm(SA), norm_da)
    norm_b = math.hypot(_kept_norm(SB), norm_db)
    exponents = _band_exponents(A, B, norm_a, norm_b)
    if exponents:
        return _rescaled(fft_sparse_first_order_multiply, exponents, A, B, t0, k,
                         order, sparsify_b)

    rows, cols = A.shape[0], B.shape[1]
    if order == 0:
        del Btil, R
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
        kept = SA.csr.indices.reshape(rows, k)
        # a real A's blocks of dAt are rebuilt in one buffer; a complex A's
        # R is Atil, whose rows turn into dAt in place
        half = R.shape[1] < A.shape[1]
        dAt = np.empty((min(width, rows), A.shape[1]), np.complex128) if half else R
        for lo in range(0, rows, width):
            block = dAt[:rows - lo] if half else dAt[lo:lo + width]
            _residue_rows(block, R, kept, lo)
            if lo + width >= rows:
                # R is read: a block of all rows (n = 1024 on the pool) then
                # holds no more than the whole dAt did
                del R
            M[lo:lo + width] += sparse_dense_multiply(SB, block, "right")
    wall = time.perf_counter() - t0
    return M, estimated_report("sfft", order, k, _fro(M), A.shape[1], norm_a,
                               norm_b, norm_da, norm_db, wall)
