"""Relative-error estimators and moment formulas for approximate products.

A-priori estimates predict the relative error of a first-order approximate
product from the residual norms alone; the posterior estimate refines that
with the norm of the computed product. The moment helpers give closed forms
for ||D1 Q D2||_F^2 over Q Haar-distributed on the real orthogonal group
(the group every generator here samples) and for ||AB||_F^2 over uniform
entries, plus an empirical front-constant estimator for other distributions.
Each function takes the numbers it reads: norms, sizes or the two spectra.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "apriori_relative_error",
    "posterior_relative_error",
    "haar_product_moments",
    "uniform_product_moment",
    "estimate_front_constant",
    "concentration_tail_bound",
]

_CASES = ("mean-zero", "unsigned", "custom")


def apriori_relative_error(normA: float, normB: float, norm_dA: float,
                           norm_dB: float, n: int, case: str = "mean-zero",
                           c: float | None = None) -> float:
    """Predicted relative error of the first-order product, before computing it.

    Numerator: residues are treated as mean-zero, so ||dA dB||_F is estimated
    by ||dA||_F ||dB||_F / sqrt(n). Denominator: ||AB||_F is estimated as
    c_prod * ||A||_F ||B||_F, with c_prod by the entry-distribution case:
    "mean-zero" 1/sqrt(n), "unsigned" 3/4 (uniform-sign entries), "custom"
    the given c in (0, 1] (bounded by 1 via Cauchy-Schwarz; only this case
    takes c). Only the dominant term is returned (no small-probability
    correction). For the mean-zero case the two 1/sqrt(n) factors cancel
    and the estimate is the product of the two relative residual norms.
    """
    if case not in _CASES:
        raise ValueError(f"unknown case {case!r}")
    if n < 1:
        raise ValueError("n must be >= 1")
    if case == "custom":
        if c is None or not 0.0 < c <= 1.0:
            raise ValueError("custom model needs c in (0, 1]")
    elif c is not None:
        raise ValueError(f"case {case!r} takes no c")
    if normA <= 0 or normB <= 0:
        raise ValueError("normA and normB must be > 0")
    if norm_dA < 0 or norm_dB < 0:
        raise ValueError("residual norms must be >= 0")
    c_res = 1.0 / math.sqrt(n)
    c_prod = {"mean-zero": c_res, "unsigned": 0.75}.get(case, c)
    return (c_res * norm_dA * norm_dB) / (float(c_prod) * normA * normB)


def posterior_relative_error(norm_dA: float, norm_dB: float,
                             norm_M: float, n: int) -> float:
    """(1/sqrt(n)) * ||dA||_F ||dB||_F / ||M||_F, using the computed product's norm."""
    if norm_M <= 0:
        raise ValueError("norm_M must be > 0")
    if norm_dA < 0 or norm_dB < 0:
        raise ValueError("residual norms must be >= 0")
    if n < 1:
        raise ValueError("n must be >= 1")
    return norm_dA * norm_dB / (math.sqrt(n) * norm_M)


def _spectra(d1, d2) -> tuple[np.ndarray, np.ndarray]:
    """The moduli of the diagonals of D1 and D2 as float arrays, 1-D and of
    equal length. The moments of ||D1 Q D2||_F read only |d|, and a real
    entry's even powers are its modulus's bit for bit."""
    d1 = np.abs(np.asarray(d1)).astype(float, copy=False)
    d2 = np.abs(np.asarray(d2)).astype(float, copy=False)
    if d1.ndim != 1 or d2.ndim != 1 or d1.size != d2.size:
        raise ValueError("spectra must be 1-D and of equal length")
    return d1, d2


def haar_product_moments(d1, d2) -> tuple[float, float, float]:
    """Closed-form moments of S = ||D1 Q D2||_F^2 over Haar real orthogonal Q.

    d1 and d2 are the diagonals of D1 and D2, 1-D and of equal length n,
    real or complex: only their moduli enter. With the power sums
    alpha_i = sum |D_i(j)|^2 and beta_i = sum |D_i(j)|^4,
    returns (mean_sq, variance, mean_norm):
      mean_sq   = E[S] = alpha1 * alpha2 / n
      variance  = 2 (beta1 - alpha1^2/n) (beta2 - alpha2^2/n) / ((n-1)(n+2))
      mean_norm = E[sqrt(S)] ~ sqrt(mean_sq) (1 - variance / (8 mean_sq^2)),
                  the second-order Taylor expansion of sqrt around E[S]

    The variance is exact for the orthogonal group, from the fourth moments
    E[Q_ij^4] = 3/(n(n+2)), E[Q_ij^2 Q_il^2] = 1/(n(n+2)) and
    E[Q_ij^2 Q_kl^2] = (n+1)/((n-1)n(n+2)) for i != k, j != l. Each factor
    beta - alpha^2/n is n times the variance of the squared spectrum, so the
    value is never negative and is 0 exactly when either spectrum is flat in
    magnitude (then S is constant). All three are 0 when either spectrum is.
    Raises ValueError when a power sum, mean_sq or the variance is not
    finite in float64; no intermediate square of a finite value overflows
    before those checks.
    """
    d1, d2 = _spectra(d1, d2)
    if d1.size < 2:
        raise ValueError("n must be >= 2")
    n = float(d1.size)
    with np.errstate(over="ignore"):  # an overflow is a non-finite sum, refused below
        alpha1, alpha2 = float(np.sum(d1**2)), float(np.sum(d2**2))
        beta1, beta2 = float(np.sum(d1**4)), float(np.sum(d2**4))
    if not all(map(math.isfinite, (alpha1, alpha2, beta1, beta2))):
        raise ValueError("a power sum of the spectra overflows float64")
    if alpha1 * alpha2 == 0.0:
        return 0.0, 0.0, 0.0
    mean_sq = alpha1 * alpha2 / n
    # alpha^2 / n <= beta, so alpha * (alpha / n) stays finite where alpha**2
    # may not; max() only absorbs roundoff when a factor is zero in exact
    # arithmetic
    spread1 = max(0.0, beta1 - alpha1 * (alpha1 / n))
    spread2 = max(0.0, beta2 - alpha2 * (alpha2 / n))
    variance = 2.0 * spread1 * spread2 / ((n - 1.0) * (n + 2.0))
    if not (math.isfinite(mean_sq) and math.isfinite(variance)):
        raise ValueError("the moments of the spectra overflow float64")
    mean_norm = math.sqrt(mean_sq) * (1.0 - variance / mean_sq / (8.0 * mean_sq))
    return float(mean_sq), float(variance), float(mean_norm)


def uniform_product_moment(m: int, n: int, p: int, a: float) -> float:
    """Exact E||AB||_F^2 for A (m x n) and B (n x p) with U(0, a) entries.

    E||AB||_F^2 = m*p*n * a^4/9 + m*p*n*(n-1) * a^4/16. The ratio against
    E||A||_F^2 E||B||_F^2 tends to 9/16 as n grows. Raises ValueError when
    the moment is not finite in float64.
    """
    if min(m, n, p) < 1:
        raise ValueError("dimensions must be >= 1")
    if a <= 0:
        raise ValueError("a must be > 0")
    a4 = (a * a) * (a * a)  # products overflow to inf where a**4 would raise
    value = m * p * n * a4 / 9.0 + m * p * n * (n - 1) * a4 / 16.0
    if not math.isfinite(value):
        raise ValueError("E||AB||_F^2 overflows float64")
    return value


# each distribution tag's draw of one n x n matrix
_SAMPLERS = {
    "uniform01": lambda rng, n: rng.uniform(0.0, 1.0, (n, n)),
    "rademacher": lambda rng, n: rng.integers(0, 2, (n, n)).astype(float) * 2.0 - 1.0,
    "normal": lambda rng, n: rng.standard_normal((n, n)),
    "lognormal": lambda rng, n: rng.lognormal(0.0, 1.0, (n, n)),
    "student-t3": lambda rng, n: rng.standard_t(3, (n, n)),
}


def estimate_front_constant(sampler: str, n: int, trials: int, seed) -> tuple[float, float]:
    """Empirical front constant c = mean of ||AB||_F / (||A||_F ||B||_F).

    Samples `trials` independent pairs of n x n matrices with the given entry
    distribution and returns (mean, sample stddev) of the ratio. Supported
    tags: uniform01, rademacher, normal, lognormal, student-t3.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if trials < 2:
        raise ValueError("trials must be >= 2")
    if sampler not in _SAMPLERS:
        raise ValueError(f"unknown distribution tag {sampler!r}; "
                         f"expected one of {tuple(_SAMPLERS)}")
    draw = _SAMPLERS[sampler]
    rng = np.random.default_rng(seed)
    ratios = np.empty(trials)
    for t in range(trials):
        A = draw(rng, n)
        B = draw(rng, n)
        ratios[t] = np.linalg.norm(A @ B) / (np.linalg.norm(A) * np.linalg.norm(B))
    return float(ratios.mean()), float(ratios.std(ddof=1))


def concentration_tail_bound(d1, d2, t: float) -> float:
    """Lower-tail bound P[||D1 Q D2||_F^2 <= E - t] <= exp(-(n-2) t^2 / (96 ||D1||_F^4 ||D2||_2^4)).

    d1 and d2 are the diagonals of D1 and D2 as for haar_product_moments;
    ||D2||_2 is the largest |d2(i)|. Neither spectrum may be all zero. A
    denominator that underflows to 0 sends the exponent to -inf, so the
    bound is 0; one that overflows sends it to 0, so the bound is its limit
    1. The returned value is clamped to [0, 1].
    """
    d1, d2 = _spectra(d1, d2)
    if d1.size < 3:
        raise ValueError("n must be >= 3")
    if t <= 0:
        raise ValueError("t must be > 0")
    d2_norm = float(np.max(d2))
    if d2_norm == 0.0:
        raise ValueError("d2 must not be all zero")
    with np.errstate(over="ignore"):  # an overflow is an infinite denominator
        alpha1 = float(np.sum(d1**2))
    if alpha1 == 0.0:
        raise ValueError("d1 must not be all zero")
    # products, not Python powers, so that an overflow gives inf, not an error
    d2_sq = d2_norm * d2_norm
    denom = 96.0 * alpha1 * alpha1 * d2_sq * d2_sq
    if denom == 0.0:
        return 0.0
    if denom == math.inf:
        return 1.0
    return float(min(1.0, math.exp(-(d1.size - 2) * t * t / denom)))
