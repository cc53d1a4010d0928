"""Dense-matrix primitives shared by every approximation method.

Input validation for single matrices and product pairs, Frobenius algebra,
an arbitrary-length unitary DFT, cycle reordering of a square matrix, and
the exact multiplication oracle that all approximate products are tested
against.

Threading: a pass over GRAIN or more array entries is cut into contiguous
index blocks that run on one private thread pool with one thread per CPU in
the process's affinity mask (WORKERS). Each block computes whole 1-D
transforms, whole rows or whole entries exactly as one call over the full
array would, so the output is bit-identical to a single thread. Smaller
passes run on the calling thread. No setting changes this rule.
"""

from __future__ import annotations

import functools
import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait

import numpy as np
from numpy.lib.stride_tricks import as_strided

__all__ = [
    "as_matrix",
    "as_pair",
    "matmul_naive",
    "frobenius",
    "unitary_dft",
    "cycle_reorder",
    "cycle_reorder_inverse",
    "relative_error",
]

# CPUs this process may run on: the threads a split pass uses
WORKERS = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
           else os.cpu_count() or 1)
# passes over fewer entries run on the calling thread; at n = 512 the
# hand-off to the pool costs more than the split saves
GRAIN = 1 << 20


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


def as_matrix(a, allow_complex: bool = True) -> np.ndarray:
    """Validate and coerce ``a`` to a 2-D float64/complex128 ndarray.

    Raises ValueError for non-2-D input or non-finite entries. This is the
    construction gate for the dense-matrix values used across the package.
    """
    m = np.asarray(a)
    if m.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got ndim={m.ndim}")
    if m.size == 0:
        raise ValueError("empty matrix")
    if np.iscomplexobj(m):
        if not allow_complex:
            raise ValueError("complex entries not allowed here")
        m = m.astype(np.complex128, copy=False)
    else:
        m = m.astype(np.float64, copy=False)
    if not np.isfinite(m).all():
        raise ValueError("matrix entries must be finite (no NaN/Inf)")
    return m


def as_pair(A, B) -> tuple[np.ndarray, np.ndarray]:
    """Validate the two factors of a product A @ B and return them coerced.

    Each factor passes as_matrix; the inner dimensions must agree. This is
    the construction gate of every product's operands.
    """
    A = as_matrix(A)
    B = as_matrix(B)
    if A.shape[1] != B.shape[0]:
        raise ValueError(f"dimension mismatch: {A.shape} x {B.shape}")
    return A, B


def matmul_naive(A, B) -> np.ndarray:
    """Exact product A @ B with a fixed per-entry summation order.

    Single-threaded einsum reduction, ascending in the contraction index, so
    the oracle is bit-deterministic regardless of BLAS threading. Use for
    reference results only; the approximation code paths use optimized
    products.
    """
    A, B = as_pair(A, B)
    # optimize=False keeps einsum on the fixed-order nditer path
    return np.einsum("ik,kj->ij", A, B, optimize=False)


def frobenius(A, B=None):
    """Frobenius norm of A, or the inner product <A, B> = sum(conj(A) * B).

    With one argument returns the real norm ||A||_F. With two, returns the
    (possibly complex) Frobenius inner product.
    """
    A = as_matrix(A)
    if B is None:
        return float(np.linalg.norm(A))
    B = as_matrix(B)
    if A.shape != B.shape:
        raise ValueError(f"shape mismatch: {A.shape} vs {B.shape}")
    out = np.vdot(A, B)
    if not (np.iscomplexobj(A) or np.iscomplexobj(B)):
        return float(out.real)
    return complex(out)


def unitary_dft(x, direction: str = "forward", axis: int = -1) -> np.ndarray:
    """Unitary DFT along ``axis``: forward applies W, inverse applies W*.

    W(p,q) = (1/sqrt(n)) * exp(-2i*pi*p*q/n), so the transform preserves the
    2-norm in both directions and works for any length n (mixed-radix FFT
    with a Bluestein fallback underneath; O(n log n) for all n, including
    primes).

    A 2-D float64 or complex128 input of GRAIN or more entries is transformed
    in blocks along the other axis, each written into one shared output.
    """
    x = np.asarray(x)
    if x.ndim == 0 or x.shape[axis] < 1:
        raise ValueError("transform length must be >= 1")
    if direction not in ("forward", "inverse"):
        raise ValueError(f"unknown direction {direction!r}")
    fft = np.fft.fft if direction == "forward" else np.fft.ifft
    if (x.ndim != 2 or pass_workers(x.size) == 1
            or x.dtype not in (np.float64, np.complex128)):
        return fft(x, axis=axis, norm="ortho")
    out = np.empty_like(x, np.complex128)  # the memory layout np.fft gives
    # move the transformed axis last, so blocks are rows of xt and outt
    xt, outt = (x.T, out.T) if axis in (0, -2) else (x, out)

    def block(lo, hi):
        fft(xt[lo:hi], axis=1, norm="ortho", out=outt[lo:hi])

    for_blocks(block, xt.shape[0], x.size)
    return out


def _check_square(A) -> int:
    if A.shape[0] != A.shape[1]:
        raise ValueError(f"square matrix required, got {A.shape}")
    return A.shape[0]


def _wrapped_diagonals(A: np.ndarray, axis: int, start, step_i, step_j) -> np.ndarray:
    """Fresh n x n array out[i, j] = A2[start + i * step_i + j * step_j].

    A2 holds the square A twice along ``axis``, so each cyclic index
    (i +- j) mod n is a plain offset into it and the gather is one strided
    view, copied; no index arrays are built. Both copies run in row blocks.
    """
    n = A.shape[0]
    A2 = np.empty((2 * n, n) if axis == 0 else (n, 2 * n), A.dtype)
    halves = (A2[:n], A2[n:]) if axis == 0 else (A2[:, :n], A2[:, n:])

    def double(lo, hi):
        for half in halves:
            half[lo:hi] = A[lo:hi]

    for_blocks(double, n, n * n)
    s0, s1 = A2.strides
    strides = tuple(a * s0 + b * s1 for a, b in (step_i, step_j))
    view = as_strided(A2[start[0]:, start[1]:], (n, n), strides, writeable=False)
    out = np.empty((n, n), A.dtype)

    def gather(lo, hi):
        out[lo:hi] = view[lo:hi]

    for_blocks(gather, n, n * n)
    return out


def cycle_reorder(A, side: str) -> np.ndarray:
    """Arrange the n cycles of a square matrix into columns.

    Column j of the result is the diagonal of Lambda_j in the split of A into
    cycle components:

      side="right": A = sum_j C^j Lambda_j, so result[i, j] = A[(i+j) % n, i]
      side="left":  A = sum_j Lambda_j C^j, so result[i, j] = A[i, (i-j) % n]

    where C is the cyclic shift with C[i, (i-1) % n] = 1. Cycle j is the
    entry set {A(i, (i-j) mod n)}; the n cycles partition the n^2 entries.
    """
    A = as_matrix(A)
    n = _check_square(A)
    if side == "right":
        return _wrapped_diagonals(A, 0, (0, 0), (1, 1), (1, 0))
    if side == "left":
        return _wrapped_diagonals(A, 1, (0, n), (1, 1), (0, -1))
    raise ValueError(f"unknown side {side!r}")


def cycle_reorder_inverse(At, side: str) -> np.ndarray:
    """Inverse of cycle_reorder: scatter columns back to matrix cycles.

    side="right": result[r, c] = At[c, (r-c) % n]; the left reordering is
    its own inverse.
    """
    At = as_matrix(At)
    n = _check_square(At)
    if side == "right":
        return _wrapped_diagonals(At, 1, (0, n), (0, 1), (1, -1))
    if side == "left":
        return _wrapped_diagonals(At, 1, (0, n), (1, 1), (0, -1))
    raise ValueError(f"unknown side {side!r}")


def relative_error(M, C_ref) -> float:
    """||C_ref - M||_F / ||C_ref||_F; complex M against a real reference is fine."""
    M = as_matrix(M)
    C_ref = as_matrix(C_ref)
    if M.shape != C_ref.shape:
        raise ValueError(f"shape mismatch: {M.shape} vs {C_ref.shape}")
    denom = np.linalg.norm(C_ref)
    if denom == 0.0:
        raise ValueError("zero-norm reference")
    return float(np.linalg.norm(C_ref - M) / denom)
