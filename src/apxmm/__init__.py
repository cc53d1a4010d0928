"""Approximate multiplication of large dense matrices.

Three truncated decompositions (randomized SVD, circulant, row-wise Fourier
sparsification) with zeroth- and first-order product formulas, a-priori and
posterior relative-error estimation, seeded matrix generators, a randomized
outer-product baseline, and a benchmarking CLI. Each public name is imported
from its module, e.g. ``from apxmm.svd import svd_first_order_multiply``.
"""

from . import baseline, circulant, core, errest, fsparse, genmat, report, svd

__version__ = "0.1.0"

__all__ = ["baseline", "circulant", "core", "errest", "fsparse", "genmat", "report", "svd"]
