"""Relative-error estimators and moment formulas for approximate products.

A-priori estimates predict the relative error of a first-order approximate
product from the residual norms alone; the posterior estimate refines that
with the norm of the computed product. The moment helpers give closed forms
for ||D1 Q D2||_F^2 over Q Haar-distributed on the real orthogonal group
(the group every generator here samples) and for ||AB||_F^2 over uniform
entries, plus an empirical front-constant estimator for other distributions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ErrorModel",
    "HaarMoments",
    "apriori_relative_error",
    "posterior_relative_error",
    "haar_product_moments",
    "uniform_product_moment",
    "estimate_front_constant",
    "concentration_tail_bound",
]

_CASES = ("mean-zero", "unsigned", "custom")


@dataclass(frozen=True)
class ErrorModel:
    """Entry-distribution model for the denominator of a-priori estimates.

    case "mean-zero": ||AB||_F ~ ||A||_F ||B||_F / sqrt(n).
    case "unsigned":  ||AB||_F ~ (3/4) ||A||_F ||B||_F (uniform-sign entries).
    case "custom":    ||AB||_F ~ c ||A||_F ||B||_F with a supplied c in (0, 1]
                      (c is bounded by 1 via Cauchy-Schwarz).
    """

    case: str
    n: int
    c: float | None = None

    def __post_init__(self):
        if self.case not in _CASES:
            raise ValueError(f"unknown case {self.case!r}")
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if self.case == "custom":
            if self.c is None or not 0.0 < self.c <= 1.0:
                raise ValueError("custom model needs c in (0, 1]")
        elif self.c is not None:
            raise ValueError(f"case {self.case!r} takes no c")

    def product_constant(self) -> float:
        """Front constant c_prod with ||AB||_F ~ c_prod ||A||_F ||B||_F."""
        if self.case == "mean-zero":
            return 1.0 / math.sqrt(self.n)
        if self.case == "unsigned":
            return 0.75
        return float(self.c)


@dataclass(frozen=True)
class HaarMoments:
    """Spectrum power sums for the Haar product moment formulas.

    alpha_i = sum D_i(j)^2, beta_i = sum D_i(j)^4 for the two diagonal
    spectra; n is the matrix size.
    """

    alpha1: float
    alpha2: float
    beta1: float
    beta2: float
    n: int

    def __post_init__(self):
        for name in ("alpha1", "alpha2", "beta1", "beta2"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        # power-mean bound: sum d^4 <= (sum d^2)^2
        if self.beta1 > self.alpha1**2 * (1 + 1e-12) or self.beta2 > self.alpha2**2 * (1 + 1e-12):
            raise ValueError("beta must not exceed alpha^2")
        if self.n < 1:
            raise ValueError("n must be >= 1")

    @classmethod
    def from_spectra(cls, d1, d2) -> "HaarMoments":
        d1 = np.asarray(d1, dtype=float)
        d2 = np.asarray(d2, dtype=float)
        if d1.ndim != 1 or d2.ndim != 1 or d1.size != d2.size:
            raise ValueError("spectra must be 1-D and of equal length")
        return cls(
            alpha1=float(np.sum(d1**2)),
            alpha2=float(np.sum(d2**2)),
            beta1=float(np.sum(d1**4)),
            beta2=float(np.sum(d2**4)),
            n=d1.size,
        )


def apriori_relative_error(normA: float, normB: float, norm_dA: float,
                           norm_dB: float, model: ErrorModel) -> float:
    """Predicted relative error of the first-order product, before computing it.

    Numerator: residues are treated as mean-zero, so ||dA dB||_F is estimated
    by ||dA||_F ||dB||_F / sqrt(n). Denominator: ||AB||_F is estimated as
    c_prod * ||A||_F ||B||_F with c_prod chosen by the model. Only the
    dominant term is returned (no small-probability correction). For the
    mean-zero model the two 1/sqrt(n) factors cancel and the estimate is the
    product of the two relative residual norms.
    """
    if normA <= 0 or normB <= 0:
        raise ValueError("normA and normB must be > 0")
    if norm_dA < 0 or norm_dB < 0:
        raise ValueError("residual norms must be >= 0")
    c_res = 1.0 / math.sqrt(model.n)
    return (c_res * norm_dA * norm_dB) / (model.product_constant() * normA * normB)


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


def haar_product_moments(m: HaarMoments) -> tuple[float, float, float]:
    """Closed-form moments of S = ||D1 Q D2||_F^2 over Haar real orthogonal Q.

    Returns (mean_sq, variance, mean_norm):
      mean_sq   = E[S] = alpha1 * alpha2 / n
      variance  = 2 (beta1 - alpha1^2/n) (beta2 - alpha2^2/n) / ((n-1)(n+2))
      mean_norm = E[sqrt(S)] ~ sqrt(mean_sq) (1 - variance / (8 mean_sq^2)),
                  the second-order Taylor expansion of sqrt around E[S]

    The variance is exact for the orthogonal group, from the fourth moments
    E[Q_ij^4] = 3/(n(n+2)), E[Q_ij^2 Q_il^2] = 1/(n(n+2)) and
    E[Q_ij^2 Q_kl^2] = (n+1)/((n-1)n(n+2)) for i != k, j != l. Each factor
    beta - alpha^2/n is n times the variance of the squared spectrum, so the
    value is never negative and is 0 exactly when either spectrum is flat in
    magnitude (then S is constant).
    """
    if m.n < 2:
        raise ValueError("n must be >= 2")
    n = float(m.n)
    if m.alpha1 * m.alpha2 == 0.0:
        return 0.0, 0.0, 0.0
    mean_sq = m.alpha1 * m.alpha2 / n
    # max() only absorbs roundoff when a factor is zero in exact arithmetic
    spread1 = max(0.0, m.beta1 - m.alpha1**2 / n)
    spread2 = max(0.0, m.beta2 - m.alpha2**2 / n)
    variance = 2.0 * spread1 * spread2 / ((n - 1.0) * (n + 2.0))
    mean_norm = math.sqrt(mean_sq) * (1.0 - variance / (8.0 * mean_sq**2))
    return float(mean_sq), float(variance), float(mean_norm)


def uniform_product_moment(m: int, n: int, p: int, a: float) -> float:
    """Exact E||AB||_F^2 for A (m x n) and B (n x p) with U(0, a) entries.

    E||AB||_F^2 = m*p*n * a^4/9 + m*p*n*(n-1) * a^4/16. The ratio against
    E||A||_F^2 E||B||_F^2 tends to 9/16 as n grows.
    """
    if min(m, n, p) < 1:
        raise ValueError("dimensions must be >= 1")
    if a <= 0:
        raise ValueError("a must be > 0")
    return m * p * n * a**4 / 9.0 + m * p * n * (n - 1) * a**4 / 16.0


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


def concentration_tail_bound(m: HaarMoments, t: float, d2_spectral: float) -> float:
    """Lower-tail bound P[||D1 Q D2||_F^2 <= E - t] <= exp(-(n-2) t^2 / (96 ||D1||_F^4 ||D2||_2^4)).

    d2_spectral is the largest |D2(i)| (the spectral norm of D2), which the
    moment record does not carry. The returned value is clamped to [0, 1].
    """
    if m.n < 3:
        raise ValueError("n must be >= 3")
    if t <= 0:
        raise ValueError("t must be > 0")
    if d2_spectral <= 0:
        raise ValueError("d2_spectral must be > 0")
    denom = 96.0 * m.alpha1**2 * d2_spectral**4
    return float(min(1.0, math.exp(-(m.n - 2) * t * t / denom)))
