"""Approximate multiplication of large dense matrices.

Three truncated decompositions (randomized SVD, circulant, row-wise Fourier
sparsification) with zeroth- and first-order product formulas, a-priori and
posterior relative-error estimation, seeded matrix generators, a randomized
outer-product baseline, and a benchmarking CLI.
"""

from .baseline import randomized_outer_product_multiply
from .circulant import (
    CirculantSpectrum,
    circulant_component,
    circulant_decompose,
    circulant_first_order_multiply,
    circulant_materialize,
    circulant_select,
)
from .core import (
    as_matrix,
    cycle_reorder,
    frobenius,
    matmul_naive,
    relative_error,
    unitary_dft,
)
from .errest import (
    ErrorModel,
    HaarMoments,
    apriori_relative_error,
    concentration_tail_bound,
    estimate_front_constant,
    haar_product_moments,
    posterior_relative_error,
    sketch_norm_estimate,
    uniform_product_moment,
)
from .fsparse import (
    SparseRowMatrix,
    fft_sparse_first_order_multiply,
    sparse_dense_multiply,
    topk_sparsify,
)
from .genmat import (
    IndexRangeError,
    MalformedHeaderError,
    MatrixMarketError,
    MatrixSpec,
    UnsupportedQualifierError,
    generate,
    generate_haar_orthogonal,
    read_csv,
    read_matrix_market,
    write_csv,
)
from .report import ApproxReport
from .svd import (
    TruncatedSVD,
    randomized_partial_svd,
    svd_first_order_multiply,
    svd_reconstruct,
    svd_residual_norm,
)

__version__ = "0.1.0"

__all__ = [
    "ApproxReport",
    "CirculantSpectrum",
    "ErrorModel",
    "HaarMoments",
    "IndexRangeError",
    "MalformedHeaderError",
    "MatrixMarketError",
    "MatrixSpec",
    "SparseRowMatrix",
    "TruncatedSVD",
    "UnsupportedQualifierError",
    "apriori_relative_error",
    "as_matrix",
    "circulant_component",
    "circulant_decompose",
    "circulant_first_order_multiply",
    "circulant_materialize",
    "circulant_select",
    "concentration_tail_bound",
    "cycle_reorder",
    "estimate_front_constant",
    "fft_sparse_first_order_multiply",
    "frobenius",
    "generate",
    "generate_haar_orthogonal",
    "haar_product_moments",
    "matmul_naive",
    "posterior_relative_error",
    "randomized_outer_product_multiply",
    "randomized_partial_svd",
    "read_csv",
    "read_matrix_market",
    "relative_error",
    "sketch_norm_estimate",
    "sparse_dense_multiply",
    "svd_first_order_multiply",
    "svd_reconstruct",
    "svd_residual_norm",
    "topk_sparsify",
    "uniform_product_moment",
    "unitary_dft",
    "write_csv",
]
