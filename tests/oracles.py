"""Reference computations the tests check the package against.

Each is plain numpy and imports nothing from apxmm, so no oracle runs the
code it checks: the exact product by a fixed-order einsum, one circulant
component by averaging the matrix's cycles (no FFT and no column roll), and
a Haar orthogonal draw by sign-corrected QR.
"""

import numpy as np


def _float(X) -> np.ndarray:
    """X as a float64 or complex128 array, as the package coerces a factor."""
    X = np.asarray(X)
    return X.astype(np.complex128 if np.iscomplexobj(X) else np.float64, copy=False)


def matmul_naive(A, B) -> np.ndarray:
    """Exact product A @ B with a fixed per-entry summation order.

    Single-threaded einsum reduction, ascending in the contraction index, so
    the result is bit-deterministic whatever BLAS threading does.
    """
    # optimize=False keeps einsum on the fixed-order nditer path
    return np.einsum("ik,kj->ij", _float(A), _float(B), optimize=False)


def circulant_component(A, k: int) -> np.ndarray:
    """First column of R_k in the split A = sum_t R_t D^t, D = diag(omega^q).

    Entry j is the mean over cycle j of A D^{-k}: the entries
    X[(i + j) % n, i] of X = A * phase, gathered by one index array. The
    phase multiply is entrywise on columns. O(n^2) per component, and a
    route to R_k independent of the FFT that circulant_decompose takes.
    """
    A = _float(A)
    n = A.shape[0]
    i = np.arange(n)
    X = A * np.exp(-2j * np.pi * k * i / n)[None, :]
    return X[(i[None, :] + i[:, None]) % n, i[None, :]].mean(axis=1)


def haar_orthogonal(n: int, seed) -> np.ndarray:
    """n x n orthogonal matrix drawn uniformly (Haar) by sign-corrected QR of
    a standard normal matrix from np.random.default_rng(seed)."""
    G = np.random.default_rng(seed).standard_normal((n, n))
    Q, R = np.linalg.qr(G, mode="reduced")
    signs = np.sign(np.diag(R))
    signs[signs == 0] = 1.0
    return Q * signs[None, :]
