"""Tests for the randomized outer-product comparison method."""

import re

import numpy as np
import pytest

from apxmm.baseline import _norms, randomized_outer_product_multiply
from apxmm.core import NOT_FINITE, relative_error

from oracles import matmul_naive


def test_identity_single_sample_structure():
    # A = B = I: every accepted sample k contributes the rescaled outer
    # product e_k e_k^T / p_k = n * e_k e_k^T, so with c=1 the result is
    # 2 e_k e_k^T for some k
    M, report = randomized_outer_product_multiply(np.eye(2), np.eye(2), 1, 0)
    assert report.method == "lowrank"
    assert report.order == 0
    assert report.k == 1
    # a sampled product drops no decomposition residue
    assert report.norm_da is None and report.norm_db is None
    nonzero = np.argwhere(M != 0)
    assert nonzero.shape == (1, 2)
    i, j = nonzero[0]
    assert i == j
    assert abs(M[i, j] - 2.0) < 1e-12


def test_identity_mean_converges():
    n, c = 4, 2
    acc = np.zeros((n, n))
    trials = 4000
    for seed in range(trials):
        M, _ = randomized_outer_product_multiply(np.eye(n), np.eye(n), c, seed)
        acc += M
    assert np.max(np.abs(acc / trials - np.eye(n))) < 0.1


def test_single_support_is_exact():
    # only one nonzero outer product: every sample must pick it, and the
    # 1/(c p_k) rescale makes the estimate exact for any c
    A = np.zeros((3, 3))
    A[:, 1] = [1.0, 2.0, 3.0]
    B = np.zeros((3, 3))
    B[1, :] = [4.0, 5.0, 6.0]
    exact = matmul_naive(A, B)
    for c in (1, 3, 10):
        M, _ = randomized_outer_product_multiply(A, B, c, 7)
        assert relative_error(M, exact) < 1e-12


def test_error_shrinks_with_more_samples():
    rng = np.random.default_rng(1)
    A = rng.standard_normal((50, 50))
    B = rng.standard_normal((50, 50))
    exact = matmul_naive(A, B)
    means = []
    for c in (10, 50, 200):
        errs = [
            relative_error(randomized_outer_product_multiply(A, B, c, seed)[0], exact)
            for seed in range(100)
        ]
        means.append(np.mean(errs))
    assert means[0] > means[1] > means[2]


def test_reproducible():
    rng = np.random.default_rng(2)
    A = rng.standard_normal((8, 8))
    B = rng.standard_normal((8, 8))
    M1, _ = randomized_outer_product_multiply(A, B, 5, 42)
    M2, _ = randomized_outer_product_multiply(A, B, 5, 42)
    assert np.array_equal(M1, M2)


def test_rectangular_shapes():
    rng = np.random.default_rng(3)
    A = rng.standard_normal((4, 6))
    B = rng.standard_normal((6, 3))
    M, _ = randomized_outer_product_multiply(A, B, 6, 0)
    assert M.shape == (4, 3)


def test_validation():
    with pytest.raises(ValueError):
        randomized_outer_product_multiply(np.eye(2), np.eye(3), 1, 0)
    with pytest.raises(ValueError):
        randomized_outer_product_multiply(np.eye(2), np.eye(2), 0, 0)
    with pytest.raises(ValueError):
        randomized_outer_product_multiply(np.zeros((2, 2)), np.eye(2), 1, 0)


@pytest.mark.parametrize("layout", ["C", "F", "sliced"])
@pytest.mark.parametrize("dtype", [float, complex])
def test_norms_equal_linalg_norm_bitwise(dtype, layout):
    # the sampling weights are linalg.norm's to the bit, so the sampler
    # accepts the same indices as any copy that calls linalg.norm; 150 rows
    # are two full blocks of _ROWS and a short one
    rng = np.random.default_rng(4)
    X = rng.standard_normal((150, 33))
    if dtype is complex:
        X = X + 1j * rng.standard_normal((150, 33))
    X = {"C": X, "F": np.asfortranarray(X), "sliced": X[::2, 1:]}[layout]
    for axis in (0, 1):
        assert np.array_equal(_norms(X, axis), np.linalg.norm(X, axis=axis))


def test_product_from_linalg_norm_weights():
    # M is bit for bit the GEMM over the indices that weights from
    # np.linalg.norm draw, as the benchmark's check redraws them
    rng = np.random.default_rng(5)
    A, B = rng.standard_normal((150, 130)), rng.standard_normal((130, 140))
    c, seed = 12, 3
    p = np.linalg.norm(A, axis=0) * np.linalg.norm(B, axis=1)
    p /= p.sum()
    draw, idx = np.random.default_rng(seed), []
    while len(idx) < c:
        k = int(draw.integers(0, A.shape[1]))
        if float(draw.uniform()) * p.max() < p[k]:
            idx.append(k)
    M, _ = randomized_outer_product_multiply(A, B, c, seed)
    assert np.array_equal(M, (A[:, idx] / (c * p[idx])) @ B[idx])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_rejects_non_finite_factors(bad):
    # a NaN or an inf at the first or the last entry of either factor makes
    # the weights' sum non-finite, and the factors are then checked
    rng = np.random.default_rng(6)
    good = rng.standard_normal((12, 12))
    for where in ((0, 0), (-1, -1)):
        for side in (0, 1):
            pair = [good, good]
            pair[side] = good.copy()
            pair[side][where] = bad
            with pytest.raises(ValueError, match=re.escape(NOT_FINITE)):
                randomized_outer_product_multiply(*pair, 3, 0)


def test_finite_factors_whose_norms_overflow():
    # every column norm of A is inf; the weights are taken again from A over
    # its largest entry, so p stays uniform and the sampler returns
    A = np.full((4, 4), 1e160)
    M, _ = randomized_outer_product_multiply(A, np.eye(4), 2, 0)
    assert np.isfinite(M).all()
    assert np.array_equal(M, randomized_outer_product_multiply(np.ones((4, 4)), np.eye(4),
                                                               2, 0)[0] * 1e160)


def test_finite_weights_call_no_as_matrix(monkeypatch):
    # the weights read every entry, so finite weights need no isfinite pass
    from apxmm import baseline, core

    calls = []
    real = core.as_matrix
    counted = lambda a: calls.append(1) or real(a)  # noqa: E731
    for module in (core, baseline):
        monkeypatch.setattr(module, "as_matrix", counted)
    rng = np.random.default_rng(7)
    baseline.randomized_outer_product_multiply(rng.standard_normal((16, 16)),
                                               rng.standard_normal((16, 16)), 4, 0)
    assert calls == []
