"""Shared per-product report record and the estimate epilogue of the products."""

from __future__ import annotations

import math
from dataclasses import dataclass, asdict

import numpy as np

from . import core
from .errest import apriori_relative_error, posterior_relative_error

__all__ = ["ApproxReport", "estimated_report"]


@dataclass
class ApproxReport:
    """What a single approximate product run measured and estimated.

    norm_da / norm_db are the Frobenius norms of the residues (the parts of A
    and B the truncated decomposition dropped), or None for a product that
    truncates no decomposition (lowrank samples the product instead). cd's
    zeroth order Ahat B truncates A only: its norm_db is 0.0, and its
    estimates describe the error dA B it drops, with ||B|| in place of
    ||dB||.
    wall_time covers the decomposition plus the multiply, not input
    generation or checking.
    """

    method: str
    order: int
    k: int
    norm_da: float | None
    norm_db: float | None
    apriori_estimate: float | None = None
    posterior_estimate: float | None = None
    wall_time: float = 0.0

    def __post_init__(self):
        if self.k < 0:
            raise ValueError("k must be >= 0")
        for name in ("norm_da", "norm_db"):
            value = getattr(self, name)
            if value is not None and value < 0:
                raise ValueError(f"{name} must be >= 0")

    def to_dict(self) -> dict:
        return asdict(self)


def _square_sum(X: np.ndarray) -> float:
    """sum |x|^2 over the entries of the 2-D X, with no BLAS call.

    Each block of core.SUM_ROWS rows sums its squares with numpy, on apxmm's
    pool from core.GRAIN entries on, and the partial sums add in one fixed
    order, so the sum is bit-identical at any worker count. It is finite
    exactly when every entry is finite and no square overflows.
    """
    partial = np.empty(-(-X.shape[0] // core.SUM_ROWS))

    def measure(lo, hi):
        with np.errstate(over="ignore"):  # an overflow is the caller's to handle
            for b in range(lo, hi):
                rows = X[b * core.SUM_ROWS:(b + 1) * core.SUM_ROWS]
                if np.iscomplexobj(rows):  # |z|^2 as the squares of its two parts
                    rows = np.ascontiguousarray(rows).view(np.float64)
                partial[b] = np.einsum("ij,ij->", rows, rows)

    core.for_blocks(measure, partial.size, X.size)
    return float(partial.sum())


def _fro(X: np.ndarray) -> float:
    """Frobenius norm of a 2-D array, the one norm helper of the products.

    Below core.GRAIN entries it is one dot (np.linalg.norm takes two strided
    passes over a complex array). From GRAIN on it is the square root of
    _square_sum, which makes no BLAS call and is bit-identical at any
    worker count. A threaded BLAS call leaves its worker spinning for a
    while after it returns, and a pooled pass that follows it then shares a
    core with that worker. A sum that overflowed or underflowed is taken
    again over X's largest part (core._norm), so the norm of finite entries
    is right at any scale.
    """
    if X.size < core.GRAIN:
        with np.errstate(over="ignore", invalid="ignore"):
            total = np.vdot(X, X).real
    else:
        total = _square_sum(X)
    return core._norm(X, math.sqrt(total))


def estimated_report(method: str, order: int, k: int, norm_m: float, n: int,
                     norm_a: float, norm_b: float, norm_da: float,
                     norm_db: float, wall: float) -> ApproxReport:
    """Report of a product M = Ahat B + dA Bhat (or its zeroth order) with
    the paper's two error estimates over the inner dimension n.

    norm_m is ||M||_F: cd and sfft take _fro(M), svd takes it from the
    factors of M. The a-priori estimate takes the mean-zero model, which
    reduces it to ||dA|| ||dB|| / (||A|| ||B||); it is None when ||A|| or
    ||B|| is 0. The posterior ||dA|| ||dB|| / (sqrt(n) ||M||) is None when
    norm_m is 0. norm_db is the norm both pair with ||dA||: cd's zeroth
    order, whose error is dA B, passes ||B|| and reports norm_db 0.0.
    """
    apriori = (apriori_relative_error(norm_a, norm_b, norm_da, norm_db, n)
               if norm_a > 0 and norm_b > 0 else None)
    posterior = (posterior_relative_error(norm_da, norm_db, norm_m, n)
                 if norm_m > 0 else None)
    return ApproxReport(method=method, order=order, k=k, norm_da=norm_da,
                        norm_db=norm_db, apriori_estimate=apriori,
                        posterior_estimate=posterior, wall_time=wall)
