"""Randomized truncated SVD and the SVD-based approximate product.

The decomposition keeps k = min(s * floor(log2 n) + 1, n) components, found
by sketching the range with a Gaussian test matrix of k + 5 columns (capped
at the matrix size), orthonormalizing, taking the exact SVD of the small
projected factor and truncating it to the leading k. The 5 extra columns
are the oversampling of the randomized range finder (Halko, Martinsson &
Tropp, SIAM Rev. 2011, sections 4.2 and 10), whose error bound needs at
least 2; without them the rank-k result drifts away from the truncated
SVD. The product is evaluated through the factors: the zeroth order
contracts the k x k core first, and the first order M = Ahat B + dA Bhat is
one GEMM of inner dimension 2k, [Ua Sa | dA Ub Sb] @ [Va^T B ; Vb^T]. Its
one dense intermediate is the residual dA, formed in place of Ahat.

Each factor is read by numpy once before BLAS takes over: the Frobenius
norm the decomposition needs anyway is the finiteness check and the scale
check (core._band_exponents), and ||M||, which the posterior estimate
divides by, comes from the thin factors of M, so no pooled pass runs
beside a spinning BLAS worker.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .core import _band_exponents, _checked_total, _coerce, _coerce_pair, _count, _rescaled
from .report import estimated_report

__all__ = [
    "TruncatedSVD",
    "component_count",
    "randomized_partial_svd",
    "svd_residual_norm",
    "svd_reconstruct",
    "svd_first_order_multiply",
]

# extra sketch columns of the range finder, beyond the k that are kept
_OVERSAMPLING = 5


@dataclass
class TruncatedSVD:
    """Rank-k factorization A ~ U diag(sigma) V^T.

    U is m x k and V is n x k, both with orthonormal columns; sigma holds the
    k retained singular values in descending order. source_frobenius
    stores ||A||_F of the decomposed matrix so the residual norm can be
    recovered without A.
    """

    U: np.ndarray
    sigma: np.ndarray
    V: np.ndarray
    source_frobenius: float

    def __post_init__(self):
        if self.U.ndim != 2 or self.V.ndim != 2 or self.sigma.ndim != 1:
            raise ValueError("U, V must be 2-D and sigma 1-D")
        k = self.sigma.size
        if self.U.shape[1] != k or self.V.shape[1] != k:
            raise ValueError("U, sigma, V have inconsistent component counts")
        if self.source_frobenius < 0:
            raise ValueError("source_frobenius must be >= 0")

    @property
    def k(self) -> int:
        return self.sigma.size


def component_count(n: int, s: int) -> int:
    """Retained rank k = min(s * floor(log2 n) + 1, n) for an oversampling level s."""
    n, s = _count(n, "n"), _count(s, "s")
    if n < 1:
        raise ValueError("n must be >= 1")
    if s < 1:
        raise ValueError("s must be >= 1")
    return min(s * int(math.floor(math.log2(n))) + 1, n)


def randomized_partial_svd(A, s: int, seed,
                           components: int | None = None) -> TruncatedSVD:
    """Rank-k randomized SVD of A with k set by `s` (or by `components` directly).

    Sketches Y = A phi with a Gaussian phi of min(k + 5, m, n) columns,
    orthonormalizes Y, takes the exact SVD of Q^T A and keeps its leading k
    triplets. An in-band building block: source_frobenius sums unscaled
    squares, and the product reruns when it leaves core._BAND.
    """
    A = _coerce(A)
    s = _count(s, "s")
    if components is not None:
        components = _count(components, "components")
    if np.iscomplexobj(A):
        raise ValueError("randomized_partial_svd expects a real matrix")
    # the norm reads every entry: it is A's finiteness check
    with np.errstate(over="ignore"):
        norm = _checked_total(A, np.linalg.norm(A))
    m, n = A.shape
    if components is not None:
        if components < 1:
            raise ValueError("components must be >= 1")
        k = min(components, m, n)
    else:
        k = min(component_count(n, s), m)

    rng = np.random.default_rng(seed)
    phi = rng.standard_normal((n, min(k + _OVERSAMPLING, m, n)))
    Y = A @ phi
    Q, _ = np.linalg.qr(Y, mode="reduced")
    B = Q.T @ A
    # SVD of the tall B^T = W diag(sigma) Z^T, so B = Z diag(sigma) W^T:
    # LAPACK takes the tall transpose about twice as fast as the wide B
    W, sigma, Zt = np.linalg.svd(B.T, full_matrices=False)
    return TruncatedSVD(
        U=Q @ Zt[:k].T,
        sigma=sigma[:k],
        V=W[:, :k],
        source_frobenius=float(norm),
    )


def svd_residual_norm(decomp: TruncatedSVD) -> float:
    """||A - U diag(sigma) V^T||_F, recovered from stored norms.

    Because U and V are orthonormal the retained energy is sum(sigma^2), so
    the residual energy is ||A||_F^2 - sum(sigma^2); tiny negative values
    from roundoff are clamped to zero. An in-band building block.
    """
    retained = float(np.sum(decomp.sigma**2))
    return math.sqrt(max(0.0, decomp.source_frobenius**2 - retained))


def svd_reconstruct(decomp: TruncatedSVD) -> np.ndarray:
    """Materialize the rank-k approximant U diag(sigma) V^T."""
    return (decomp.U * decomp.sigma) @ decomp.V.T


def _product_norm(L: np.ndarray, R: np.ndarray) -> float:
    """||L @ R||_F from the thin factors: ||L R||^2 = sum((L^T L) * (R R^T)).

    Two GEMMs of O(n k^2) and no pass over the n x n product; a sum that
    rounding leaves below 0 is clamped to 0.
    """
    return math.sqrt(max(0.0, float(np.sum((L.T @ L) * (R @ R.T)))))


def svd_first_order_multiply(A, B, s: int, order: int, seed):
    """Approximate A @ B through rank-k truncations of both factors.

    order 0 returns Ahat @ Bhat evaluated through the factors (the k x k core
    is contracted first, so no n x n intermediate other than the result).
    order 1 returns Ahat @ B + dA @ Bhat as the single product
    [Ua Sa | (dA Ub) Sb] @ [Va^T B ; Vb^T]. The residual dA = A - Ahat is
    subtracted into the array svd_reconstruct returns and released before
    that product writes M, so one n x n array is live at a time.

    The two decompositions draw from independent streams derived from `seed`.
    Each decomposition's norm pass checks its factor for NaN and inf, and
    the posterior's ||M|| comes from the factors of M (_product_norm); a
    norm out of core._BAND reruns the product scaled (core._rescaled).
    Returns (M, ApproxReport) with a-priori and posterior error estimates
    filled in.
    """
    A, B = _coerce_pair(A, B)
    s = _count(s, "s")
    if order not in (0, 1):
        raise ValueError("order must be 0 or 1")

    t0 = time.perf_counter()
    seed_a = np.random.default_rng([seed, 0])
    seed_b = np.random.default_rng([seed, 1])
    da = randomized_partial_svd(A, s, seed_a)
    db = randomized_partial_svd(B, s, seed_b)
    exponents = _band_exponents(A, B, da.source_frobenius, db.source_frobenius)
    if exponents:
        return _rescaled(svd_first_order_multiply, exponents, A, B, t0, s, order, seed)
    norm_da = svd_residual_norm(da)
    norm_db = svd_residual_norm(db)

    Ua_s = da.U * da.sigma
    if order == 0:
        # (Ua sa Va^T)(Ub sb Vb^T): contract the k x k core first
        left = Ua_s
        right = ((da.V.T @ db.U) * db.sigma) @ db.V.T
    else:
        # dA overwrites Ahat and is freed before the 2k-wide GEMM writes M
        dA = svd_reconstruct(da)
        np.subtract(A, dA, out=dA)
        left = np.hstack((Ua_s, (dA @ db.U) * db.sigma))
        del dA
        right = np.vstack((da.V.T @ B, db.V.T))
    M = left @ right
    wall = time.perf_counter() - t0
    return M, estimated_report("svd", order, da.k, _product_norm(left, right),
                               A.shape[1], da.source_frobenius,
                               db.source_frobenius,
                               norm_da, norm_db, wall)
