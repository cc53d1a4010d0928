"""Dense-matrix primitives shared by every approximation method.

Input validation for single matrices and product pairs, Frobenius algebra,
an arbitrary-length unitary DFT, cycle reordering of a square matrix, and
the exact multiplication oracle that all approximate products are tested
against.
"""

from __future__ import annotations

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
    """
    x = np.asarray(x)
    if x.ndim == 0 or x.shape[axis] < 1:
        raise ValueError("transform length must be >= 1")
    if direction == "forward":
        return np.fft.fft(x, axis=axis, norm="ortho")
    if direction == "inverse":
        return np.fft.ifft(x, axis=axis, norm="ortho")
    raise ValueError(f"unknown direction {direction!r}")


def _check_square(A) -> int:
    if A.shape[0] != A.shape[1]:
        raise ValueError(f"square matrix required, got {A.shape}")
    return A.shape[0]


def _wrapped_diagonals(A2: np.ndarray, start, step_i, step_j) -> np.ndarray:
    """Fresh n x n array out[i, j] = A2[start + i * step_i + j * step_j].

    A2 holds a square matrix twice along one axis, so each cyclic index
    (i +- j) mod n is a plain offset into it and the gather is one strided
    view, copied; no index arrays are built.
    """
    n = min(A2.shape)
    s0, s1 = A2.strides
    strides = tuple(a * s0 + b * s1 for a, b in (step_i, step_j))
    view = as_strided(A2[start[0]:, start[1]:], (n, n), strides, writeable=False)
    return view.copy()


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
        return _wrapped_diagonals(np.vstack((A, A)), (0, 0), (1, 1), (1, 0))
    if side == "left":
        return _wrapped_diagonals(np.hstack((A, A)), (0, n), (1, 1), (0, -1))
    raise ValueError(f"unknown side {side!r}")


def cycle_reorder_inverse(At, side: str) -> np.ndarray:
    """Inverse of cycle_reorder: scatter columns back to matrix cycles.

    side="right": result[r, c] = At[c, (r-c) % n]; the left reordering is
    its own inverse.
    """
    At = as_matrix(At)
    n = _check_square(At)
    if side == "right":
        return _wrapped_diagonals(np.hstack((At, At)), (0, n), (0, 1), (1, -1))
    if side == "left":
        return _wrapped_diagonals(np.hstack((At, At)), (0, n), (1, 1), (0, -1))
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
