"""Dense-matrix primitives shared by every approximation method.

Input validation, an arbitrary-length unitary DFT, cycle reordering of a
square matrix, the relative error of a product against a reference, and the
one slab rule (for_sub_blocks) of every sparse-dense product in cd and sfft.

Validation: the first pass that reads every entry of a factor is its NaN/inf
check. A norm or a sum of squares is finite only when every entry is
(_checked_total), and the cycle gather and sfft's top-k selection check the
slabs they read. Only code that makes no such pass calls as_matrix up front.
Norms are summed from unscaled squares. A product whose factor norms leave
_BAND, where such sums may overflow or underflow, runs once more on factors
scaled exactly by powers of two and scales M and its norms back
(_band_exponents, _rescaled): this module alone decides scale.

Threading: a pass over GRAIN or more array entries is cut into contiguous
index blocks that run on one private thread pool with one thread per CPU in
the process's affinity mask (WORKERS). Each block computes whole rows, whole
columns (a slab of a sparse product or of the column roll) or whole entries
exactly as one call over the full array would, so the output is
bit-identical to a single thread; unitary_dft hands the same WORKERS to
scipy.fft, which splits by whole 1-D transforms. Smaller passes run on the
calling thread. No setting changes this rule. The column roll (column i
rolled by i: cycle_reorder, and its inverse in circulant_materialize) takes
each block SUB_ROWS columns at a time through one buffer per block of
n + SUB_ROWS - 1 rows, so every slab is read and written in cache; the
gather checks finiteness on those buffers, so it is the one check of a
matrix it is given.
"""

from __future__ import annotations

import functools
import math
import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import replace

import numpy as np
import scipy.fft
from numpy.lib.stride_tricks import as_strided

__all__ = [
    "as_matrix",
    "unitary_dft",
    "cycle_reorder",
    "relative_error",
]

# CPUs this process may run on: the threads a split pass uses
WORKERS = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
           else os.cpu_count() or 1)
# passes over fewer entries run on the calling thread; at n = 512 the
# hand-off to the pool costs more than the split saves
GRAIN = 1 << 20
# blocks per worker of a product pass: many small blocks keep each block's
# temporaries a small fraction of one n x n array
CHUNKS = 64
# the widest slab of the dense operand one CSR product call takes (rows of B
# in B @ S, columns of X in S @ X): scipy copies its dense operand, and on a
# few rows or columns the copy and the result stay in cache; also the most
# rows one top-k selection call sorts
SUB_ROWS = 64
# rows per block of a fixed-order sum (circulant magnitudes, report._fro):
# each block's partial sum and the order they add in do not depend on the
# worker count
SUM_ROWS = 16
NOT_FINITE = "matrix entries must be finite (no NaN/Inf)"


def pass_workers(entries: int) -> int:
    """Threads a pass over ``entries`` array entries runs on."""
    return WORKERS if entries >= GRAIN else 1


@functools.cache
def _pool() -> ThreadPoolExecutor:
    return ThreadPoolExecutor(max(1, WORKERS - 1), thread_name_prefix="apxmm")


if hasattr(os, "register_at_fork"):
    # a forked child has none of the parent's pool threads: start a new pool
    os.register_at_fork(after_in_child=_pool.cache_clear)


def for_blocks(fn, length: int, entries: int, chunks: int = 1) -> None:
    """Call fn(lo, hi) on contiguous blocks [lo, hi) that cover range(length).

    A pass over ``entries`` >= GRAIN array entries is cut into ``chunks``
    blocks per worker, at most one per index. The calling thread and
    WORKERS - 1 pool threads take blocks in order until none is left, so the
    caller alone can always finish the pass; a smaller pass is one block on
    the calling thread. Blocks must write disjoint outputs and must not call
    a public apxmm function: the benchmark's tracer wraps those and keeps one
    span stack per process. Returns once every block has finished, raising
    the first error of a block.
    """
    workers = min(length, pass_workers(entries))
    if workers <= 1:
        fn(0, length)
        return
    parts = min(length, chunks * workers)
    bounds = [length * i // parts for i in range(parts + 1)]
    blocks = iter(zip(bounds, bounds[1:]))
    lock = threading.Lock()

    def drain():
        while True:
            with lock:
                block = next(blocks, None)
            if block is None:
                return
            fn(*block)

    helpers = [_pool().submit(drain) for _ in range(workers - 1)]
    try:
        drain()
    finally:
        wait(helpers)
    for helper in helpers:
        helper.result()


def for_sub_blocks(fn, length: int, entries: int, chunks: int = 1) -> None:
    """for_blocks(..., chunks), each block handed to fn(lo, hi) in pieces of
    at most SUB_ROWS indices: the rule for every step that includes a CSR
    product, with the dense operand cut along its free axis (the rows of B
    in B @ S, the columns of X in S @ X), and for sfft's top-k selections
    and circulant_materialize's row transforms, whose row temporaries then
    stay SUB_ROWS rows even on one thread. The pieces of one block run in
    order on its thread.

    A split pass is first cut into chunks * WORKERS blocks, and SUB_ROWS
    only caps a block, so a slab is min(SUB_ROWS, length / (chunks *
    WORKERS)) wide: on 2 CPUs cd (CHUNKS = 64) runs 128 slabs, 8 wide at
    length 1024 and 16 at 2048, and sfft (16 blocks per worker) 32 and 64
    wide. A pass on the calling thread is one block, cut into SUB_ROWS-wide
    slabs."""

    def block(lo, hi):
        for i in range(lo, hi, SUB_ROWS):
            fn(i, min(i + SUB_ROWS, hi))

    for_blocks(block, length, entries, chunks)


def _coerce(a) -> np.ndarray:
    """``a`` as a non-empty 2-D float64/complex128 ndarray; entries unchecked."""
    m = np.asarray(a)
    if m.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got ndim={m.ndim}")
    if m.size == 0:
        raise ValueError("empty matrix")
    return m.astype(np.complex128 if np.iscomplexobj(m) else np.float64, copy=False)


def as_matrix(a) -> np.ndarray:
    """Validate and coerce ``a`` to a 2-D float64/complex128 ndarray.

    Raises ValueError for non-2-D input or non-finite entries. This is the
    construction gate for the dense-matrix values used across the package.
    """
    m = _coerce(a)
    finite = []  # one flag per row block: the thread count cannot change the result
    for_blocks(lambda lo, hi: finite.append(np.isfinite(m[lo:hi]).all()),
               m.shape[0], m.size, CHUNKS)
    if not all(finite):
        raise ValueError(NOT_FINITE)
    return m


def _coerce_pair(A, B) -> tuple[np.ndarray, np.ndarray]:
    """The two factors of a product A @ B through _coerce, entries
    unchecked; the inner dimensions must agree."""
    A, B = _coerce(A), _coerce(B)
    if A.shape[1] != B.shape[0]:
        raise ValueError(f"dimension mismatch: {A.shape} x {B.shape}")
    return A, B


def _checked_total(X: np.ndarray, total: float) -> float:
    """``total``, the result of a pass that read every entry of X (a norm or
    a sum of squares), once X's entries are known finite.

    A finite total means finite entries, so X then takes no isfinite pass.
    Only a total that is not finite runs as_matrix(X), which raises for a
    NaN or an inf and passes finite entries whose total overflowed. It calls
    a public function, so it runs on the calling thread, never in a block.
    """
    if not math.isfinite(total):
        as_matrix(X)
    return total


def unitary_dft(x, direction: str = "forward", axis: int = -1) -> np.ndarray:
    """Unitary DFT along ``axis``: forward applies W, inverse applies W*.

    W(p,q) = (1/sqrt(n)) * exp(-2i*pi*p*q/n), so the transform preserves the
    2-norm in both directions and works for any length n (mixed-radix FFT
    with a Bluestein fallback underneath; O(n log n) for all n, including
    primes).

    One scipy.fft call on pass_workers(x.size) threads, bit-identical at any
    count. Real input takes scipy's real-input path: no complex copy of the
    input, and an output that is exactly rfft's plus its conjugate mirror,
    so conjugate-symmetric bit for bit. It costs about as much as a complex
    transform, not half the arithmetic, but an rfft followed by a numpy
    mirror is no faster, so the transform stays one call.
    """
    x = np.asarray(x)
    if x.ndim == 0 or x.shape[axis] < 1:
        raise ValueError("transform length must be >= 1")
    if direction not in ("forward", "inverse"):
        raise ValueError(f"unknown direction {direction!r}")
    fft = scipy.fft.fft if direction == "forward" else scipy.fft.ifft
    return fft(x, axis=axis, norm="ortho", workers=pass_workers(x.size))


def _roll_columns(X: np.ndarray, sign: int) -> np.ndarray:
    """Column i of the square X rolled by sign * i: Y[r, i] = X[(r + sign*i) % n, i].

    One column slab of at most SUB_ROWS columns at a time: the slab's rows,
    rolled by sign times its first column, are copied into an
    (n + SUB_ROWS - 1) x SUB_ROWS buffer, in which the rest of each column's
    roll is one strided view, copied out in rows of SUB_ROWS contiguous
    entries. for_blocks splits the columns into one block per worker, and
    each block allocates one buffer. sign = 1 (the cycle gather) returns a
    new array and raises ValueError(NOT_FINITE) if a buffer holds a NaN or
    an inf; sign = -1 (its inverse) rolls X in place and returns it. A pure
    copy, so bit-identical at any thread count.
    """
    n = X.shape[0]
    out = np.empty((n, n), X.dtype) if sign == 1 else X
    rows = n + SUB_ROWS - 1

    def block(lo, hi):
        buf = np.empty((rows, SUB_ROWS), X.dtype)
        s0, s1 = buf.strides
        for c0 in range(lo, hi, SUB_ROWS):
            c1 = min(c0 + SUB_ROWS, hi)
            width = c1 - c0
            # buf[q, d] = X[(q + start) % n, c0 + d], so that
            # Y[r, c0 + d] = buf[r + sign*d + skip, d]
            skip = 0 if sign == 1 else width - 1
            start = (sign * c0 - skip) % n
            buf[:n - start, :width] = X[start:, c0:c1]
            buf[n - start:n + width - 1, :width] = X[:start + width - 1, c0:c1]
            if sign == 1 and not np.isfinite(buf[:n, :width]).all():
                raise ValueError(NOT_FINITE)
            out[:, c0:c1] = as_strided(buf[skip:], (n, width), (s0, s1 + sign * s0),
                                       writeable=False)

    for_blocks(block, n, n * n)
    return out


def cycle_reorder(A) -> np.ndarray:
    """Arrange the n cycles of a square matrix into rows.

    Row j of the result is the diagonal of Lambda_j in the split
    A = sum_j C^j Lambda_j into cycle components, so
    result[j, i] = A[(i + j) % n, i], where C is the cyclic shift with
    C[i, (i-1) % n] = 1. Cycle j is the entry set {A(i, (i-j) mod n)}; the
    n cycles partition the n^2 entries.

    Column i of A rolled by i (_roll_columns), one column slab at a time
    through a buffer that stays in cache, into a fresh C-ordered array; no
    index arrays and no n x n temporary. Raises ValueError for a non-square
    or non-2-D input, and for a NaN or an inf, which each slab's buffer is
    checked for: the gather is the finiteness check, so A is read once.
    """
    A = _coerce(A)
    if A.shape[1] != A.shape[0]:
        raise ValueError(f"square matrix required, got {A.shape}")
    return _roll_columns(A, 1)


def _largest_part(X: np.ndarray) -> float:
    """The largest |real part| or |imaginary part| of an entry of X."""
    parts = (X.real, X.imag) if np.iscomplexobj(X) else (X,)
    return max(float(np.abs(part).max(initial=0.0)) for part in parts)


def _scaled_norm(X: np.ndarray) -> tuple[float, float]:
    """(s, r) with ||X||_F = s * r for any finite X, whatever its scale:
    s is X's largest real or imaginary part and r = ||X / s||_F, which lies
    in [1, sqrt(2 X.size)]. One pass for s and one over a scaled copy of X.
    r is 1.0 when s is 0, inf or NaN."""
    s = _largest_part(X)
    if not 0.0 < s < math.inf:
        return s, 1.0
    return s, float(np.linalg.norm(X / s))


# factor norms a product's plain run stands on: for ||A|| and ||B|| in this
# band no sum of squares it forms leaves the normal range, since
# ||M|| <= 2 ||A|| ||B|| for every first-order form
_BAND = (2.0**-250, 2.0**250)


def _exponent(X: np.ndarray) -> int:
    """e with X * 2^-e's largest real or imaginary part in [0.5, 1); 0 for X = 0."""
    return math.frexp(_largest_part(X))[1]


def _ldexp(X: np.ndarray, e: int) -> np.ndarray:
    """X * 2^e for a float64 or complex128 X (part by part), exact in the
    normal range."""
    return np.ldexp(np.ascontiguousarray(X).view(np.float64), e).view(X.dtype)


def _band_exponents(A: np.ndarray, B: np.ndarray, norm_a: float,
                    norm_b: float) -> tuple[int, int] | None:
    """None when a product's plain run, which found these factor norms,
    stands; else the exponents (ea, eb) it reruns at (_rescaled). A norm in
    _BAND takes 0 at no cost, any other its factor's _exponent, which is 0
    for a zero factor too: both 0 means the plain run's sums are exact, so
    a rerun never reruns."""
    exponents = tuple(0 if _BAND[0] <= norm <= _BAND[1] else _exponent(X)
                      for X, norm in ((A, norm_a), (B, norm_b)))
    return exponents if any(exponents) else None


def _rescaled(product, exponents: tuple[int, int], A: np.ndarray,
              B: np.ndarray, t0: float, *args):
    """product(A * 2^-ea, B * 2^-eb, *args) with M scaled back by
    2^(ea + eb), norm_da by 2^ea and norm_db by 2^eb; the estimates are
    ratios. wall_time counts from t0, the start of the plain run."""
    ea, eb = exponents
    M, report = product(_ldexp(A, -ea), _ldexp(B, -eb), *args)
    np.ldexp(M.view(np.float64), ea + eb, out=M.view(np.float64))
    norms = {name: float(np.ldexp(value, e))
             for name, value, e in (("norm_da", report.norm_da, ea),
                                    ("norm_db", report.norm_db, eb))
             if value is not None}
    return M, replace(report, **norms, wall_time=time.perf_counter() - t0)


def relative_error(M, C_ref) -> float:
    """||C_ref - M||_F / ||C_ref||_F; complex M against a real reference is fine.

    The two norms are the finiteness checks of C_ref and M (_checked_total).
    Norms that neither overflow nor underflow are used as they are. When a
    norm of finite entries overflows, or ||C_ref|| underflows to 0 although
    an entry is not 0, C_ref - M is formed over the largest real or
    imaginary part s of either matrix, and each norm is taken over the
    largest part of the matrix it sums (_scaled_norm).
    """
    M, C_ref = _coerce(M), _coerce(C_ref)
    if M.shape != C_ref.shape:
        raise ValueError(f"shape mismatch: {M.shape} vs {C_ref.shape}")
    denom = _checked_total(C_ref, np.linalg.norm(C_ref))
    diff = _checked_total(M, np.linalg.norm(C_ref - M))
    if 0.0 < denom < math.inf and diff < math.inf:
        return float(diff / denom)
    c, ref = _scaled_norm(C_ref)
    if c == 0.0:
        raise ValueError("zero-norm reference")
    s = max(c, _largest_part(M))
    t, d = _scaled_norm(C_ref / s - M / s)
    if t == 0.0:
        return 0.0
    return float(d / ref * (t * (s / c)))
