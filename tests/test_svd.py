import math
import re
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from apxmm.core import NOT_FINITE, relative_error
from apxmm.genmat import MatrixSpec, generate
from apxmm.report import estimated_report
from apxmm.svd import (
    TruncatedSVD,
    component_count,
    randomized_partial_svd,
    svd_first_order_multiply,
    svd_reconstruct,
    svd_residual_norm,
)

from oracles import matmul_naive


def test_component_count():
    assert component_count(64, 1) == 7
    assert component_count(64, 2) == 13
    assert component_count(4, 100) == 4  # capped at n
    assert component_count(1, 3) == 1
    with pytest.raises(ValueError):
        component_count(64, 0)


def test_rank_one_captured_exactly():
    rng = np.random.default_rng(2)
    u = rng.standard_normal(64)
    v = rng.standard_normal(64)
    d = randomized_partial_svd(np.outer(u, v), 1, seed=3)
    assert d.sigma[0] == pytest.approx(np.linalg.norm(u) * np.linalg.norm(v),
                                       rel=1e-8)
    assert np.all(d.sigma[1:] < 1e-8)
    assert svd_residual_norm(d) < 1e-8 * d.sigma[0]


def test_diagonal_spectrum_captured():
    # rank-5 diagonal, k=13 components at s=2: leading values exact
    diag = np.maximum(5.0 - np.arange(64), 0.0)
    d = randomized_partial_svd(np.diag(diag), 2, seed=4)
    assert_allclose(d.sigma[:5], [5.0, 4.0, 3.0, 2.0, 1.0], atol=1e-6)


def test_zero_matrix():
    d = randomized_partial_svd(np.zeros((16, 16)), 1, seed=0)
    assert np.all(d.sigma == 0.0)
    assert svd_residual_norm(d) == 0.0


def test_factor_invariants():
    rng = np.random.default_rng(5)
    A = rng.standard_normal((40, 40))
    d = randomized_partial_svd(A, 2, seed=6)
    k = d.k
    assert_allclose(d.U.T @ d.U, np.eye(k), atol=1e-10)
    assert_allclose(d.V.T @ d.V, np.eye(k), atol=1e-10)
    assert np.all(np.diff(d.sigma) <= 0)
    assert np.all(d.sigma >= 0)
    assert np.sum(d.sigma**2) <= d.source_frobenius**2 * (1 + 1e-8)
    assert svd_residual_norm(d) <= np.linalg.norm(A)


def test_reproducible_per_seed():
    rng = np.random.default_rng(7)
    A = rng.standard_normal((32, 32))
    d1 = randomized_partial_svd(A, 2, seed=42)
    d2 = randomized_partial_svd(A, 2, seed=42)
    assert np.array_equal(d1.U, d2.U)
    assert np.array_equal(d1.sigma, d2.sigma)
    assert np.array_equal(d1.V, d2.V)


def test_residual_norm_arithmetic():
    # keep only sigma = 4 of diag(3, 4): residual must be exactly 3
    d = TruncatedSVD(
        U=np.array([[0.0], [1.0]]),
        sigma=np.array([4.0]),
        V=np.array([[0.0], [1.0]]),
        source_frobenius=5.0,
    )
    assert svd_residual_norm(d) == pytest.approx(3.0)


def test_residual_clamped_at_zero():
    d = TruncatedSVD(
        U=np.eye(2),
        sigma=np.array([1.0, 1.0]),
        V=np.eye(2),
        source_frobenius=math.sqrt(2.0 - 1e-14),
    )
    assert svd_residual_norm(d) == 0.0


def test_multiply_rank_one_exact():
    rng = np.random.default_rng(8)
    A = np.outer(rng.standard_normal(64), rng.standard_normal(64))
    B = rng.standard_normal((64, 64))
    M, rep = svd_first_order_multiply(A, B, 1, 1, seed=9)
    assert relative_error(M, A @ B) < 1e-8
    assert rep.norm_da < 1e-8 * np.linalg.norm(A)


def test_multiply_exact_when_b_low_rank():
    # dB = 0 makes the first-order product exact
    rng = np.random.default_rng(10)
    A = rng.standard_normal((64, 64))
    B = rng.standard_normal((64, 3)) @ rng.standard_normal((3, 64))
    M, _ = svd_first_order_multiply(A, B, 1, 1, seed=11)
    assert relative_error(M, A @ B) < 1e-8


def _first_order_identity_ranks(A, B, s, seed):
    """Check AB - M = dA @ dB for svd1 and return the ranks A and B kept."""
    M, _ = svd_first_order_multiply(A, B, s, 1, seed=seed)
    da = randomized_partial_svd(A, s, np.random.default_rng([seed, 0]))
    db = randomized_partial_svd(B, s, np.random.default_rng([seed, 1]))
    dA = A - svd_reconstruct(da)
    dB = B - svd_reconstruct(db)
    gap = matmul_naive(A, B) - M
    assert np.linalg.norm(gap - matmul_naive(dA, dB)) < 1e-8 * np.linalg.norm(A @ B)
    return da.k, db.k


def test_first_order_identity():
    rng = np.random.default_rng(12)
    A = rng.standard_normal((64, 64))
    B = rng.standard_normal((64, 64))
    assert _first_order_identity_ranks(A, B, 2, 13) == (13, 13)


def test_first_order_identity_rectangular():
    # (40 x 24) @ (24 x 56): A keeps k = 5 of its 24 columns, B k = 6 of
    # its 56, so the 2k-wide factors of M are joined from unequal halves
    rng = np.random.default_rng(21)
    A = rng.standard_normal((40, 24))
    B = rng.standard_normal((24, 56))
    assert _first_order_identity_ranks(A, B, 1, 22) == (5, 6)


@pytest.mark.parametrize("kinds", [("general", "toeplitz"), ("type1", "type1")])
@pytest.mark.parametrize("seed", [0, 1])
def test_products_match_two_term_form(kinds, seed):
    # the first order equals Ahat B + dA Bhat summed as two dense terms to
    # rounding, and so does its report; the zeroth order is unchanged
    n = 512
    A = generate(MatrixSpec(kinds[0], n, seed=2 * seed))
    B = generate(MatrixSpec(kinds[1], n, seed=2 * seed + 1))
    da = randomized_partial_svd(A, 1, np.random.default_rng([seed, 0]))
    db = randomized_partial_svd(B, 1, np.random.default_rng([seed, 1]))
    Ua_s = da.U * da.sigma
    dA = A - svd_reconstruct(da)
    two_term = Ua_s @ (da.V.T @ B) + ((dA @ db.U) * db.sigma) @ db.V.T
    zeroth = Ua_s @ (((da.V.T @ db.U) * db.sigma) @ db.V.T)

    M1, rep1 = svd_first_order_multiply(A, B, 1, 1, seed)
    assert np.linalg.norm(M1 - two_term) <= 1e-12 * np.linalg.norm(two_term)
    ref = estimated_report("svd", 1, da.k, np.linalg.norm(two_term), n,
                           da.source_frobenius, db.source_frobenius,
                           svd_residual_norm(da), svd_residual_norm(db), 0.0)
    got, want = rep1.to_dict(), ref.to_dict()
    del got["wall_time"], want["wall_time"]
    for field, value in want.items():
        if isinstance(value, float):
            assert got[field] == pytest.approx(value, rel=1e-12), field
        else:
            assert got[field] == value, field

    M0, _ = svd_first_order_multiply(A, B, 1, 0, seed)
    assert np.array_equal(M0, zeroth)


def _peak_arrays(order):
    """tracemalloc peak of an svd product at n=1024, in n x n float64 arrays."""
    n = 1024
    rng = np.random.default_rng(23)
    A = rng.standard_normal((n, n))
    B = rng.standard_normal((n, n))
    svd_first_order_multiply(A, B, 1, order, seed=0)  # warm caches outside the trace
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        svd_first_order_multiply(A, B, 1, order, seed=0)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    return peak / (n * n * 8)


def test_zeroth_order_peak_memory():
    # M is the one n x n array; the factors and the k x k core are thin
    assert _peak_arrays(0) <= 1.15


def test_first_order_peak_memory():
    # the residual overwrites Ahat and is dropped once dA Ub is formed, so
    # it and M, the two n x n arrays, are never held at once
    assert _peak_arrays(1) <= 1.15


def test_zeroth_order_is_factored_product():
    rng = np.random.default_rng(14)
    A = rng.standard_normal((32, 32))
    B = rng.standard_normal((32, 32))
    M, _ = svd_first_order_multiply(A, B, 1, 0, seed=15)
    da = randomized_partial_svd(A, 1, np.random.default_rng([15, 0]))
    db = randomized_partial_svd(B, 1, np.random.default_rng([15, 1]))
    ref = svd_reconstruct(da) @ svd_reconstruct(db)
    assert np.linalg.norm(M - ref) < 1e-10 * np.linalg.norm(ref)


def test_error_nonincreasing_in_k_on_average():
    rng = np.random.default_rng(16)
    means = []
    for s in (1, 2, 3):
        errs = []
        for t in range(10):
            pair_rng = np.random.default_rng([16, t])
            A = pair_rng.standard_normal((32, 32))
            B = pair_rng.standard_normal((32, 32))
            M, _ = svd_first_order_multiply(A, B, s, 1, seed=t)
            errs.append(relative_error(M, A @ B))
        means.append(np.mean(errs))
    assert means[1] <= means[0] * 1.02
    assert means[2] <= means[1] * 1.02


def test_report_contents():
    rng = np.random.default_rng(19)
    A = rng.standard_normal((32, 32))
    B = rng.standard_normal((32, 32))
    M, rep = svd_first_order_multiply(A, B, 1, 1, seed=20)
    assert rep.method == "svd"
    assert rep.order == 1
    assert rep.k == component_count(32, 1)
    assert rep.norm_da > 0 and rep.norm_db > 0
    assert rep.apriori_estimate > 0
    assert rep.posterior_estimate > 0
    assert rep.wall_time > 0
    # mean-zero model: a-priori estimate is the product of relative residues
    expected = (rep.norm_da / np.linalg.norm(A)) * (rep.norm_db / np.linalg.norm(B))
    assert rep.apriori_estimate == pytest.approx(expected, rel=1e-12)


def test_multiply_errors():
    A = np.ones((4, 4))
    with pytest.raises(ValueError):
        svd_first_order_multiply(A, np.ones((5, 5)), 1, 1, seed=0)
    with pytest.raises(ValueError):
        svd_first_order_multiply(A, A, 1, 2, seed=0)
    with pytest.raises(ValueError):
        randomized_partial_svd(A.astype(complex), 1, seed=0)
    with pytest.raises(ValueError):
        randomized_partial_svd(A, 1, seed=0, components=0)


@pytest.mark.parametrize("bad", [
    [[1.0, np.nan], [0.0, 1.0]],
    [[1.0, np.inf], [0.0, 1.0]],
    [[-np.inf, 1.0], [np.inf, 1.0]],
    np.ones(4),
    np.ones((0, 3)),
    np.ones((2, 2)) * 1j,
])
def test_decompose_validates_direct_input(bad):
    with pytest.raises(ValueError):
        randomized_partial_svd(bad, 1, seed=0)


def test_decompose_accepts_finite_input_whose_norm_overflows():
    # every entry is finite, so the gate passes even though ||A||^2 is inf,
    # and ||A|| is taken again over the scaled entries
    with np.errstate(over="ignore"):
        big = randomized_partial_svd(np.full((3, 3), 1e300), 1, seed=0)
    assert big.source_frobenius == pytest.approx(3e300, rel=1e-15)
    ints = randomized_partial_svd(np.eye(3, dtype=int), 1, seed=0)
    assert ints.source_frobenius == pytest.approx(math.sqrt(3.0), rel=1e-15)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_multiply_rejects_non_finite_factors(bad, one_and_split):
    # a NaN or an inf at the first or the last entry of either factor makes
    # that factor's norm non-finite, and as_matrix then raises, on one
    # thread and with its isfinite pass split into blocks
    rng = np.random.default_rng(4)
    good = rng.standard_normal((24, 24))

    def check():
        for where in ((0, 0), (-1, -1)):
            for side in (0, 1):
                pair = [good, good]
                pair[side] = good.copy()
                pair[side][where] = bad
                for order in (0, 1):
                    with pytest.raises(ValueError, match=re.escape(NOT_FINITE)):
                        svd_first_order_multiply(*pair, 1, order, seed=0)

    one_and_split(check)


def test_multiply_coerces_and_checks_operands(monkeypatch):
    from apxmm import svd

    # int and list factors are coerced to float64 and give its product
    ints = np.arange(36).reshape(6, 6) % 5
    floats = ints.astype(np.float64)
    for order in (0, 1):
        M, _ = svd_first_order_multiply(ints, ints.tolist(), 1, order, seed=0)
        assert np.array_equal(M, svd_first_order_multiply(floats, floats, 1, order,
                                                          seed=0)[0])
    with pytest.raises(ValueError, match="expects a real matrix"):
        svd_first_order_multiply(np.eye(4) * 1j, np.eye(4), 1, 0, seed=0)
    calls = []
    monkeypatch.setattr(svd, "randomized_partial_svd",
                        lambda *args: calls.append(1))
    with pytest.raises(ValueError, match="dimension mismatch"):
        svd.svd_first_order_multiply(np.ones((4, 3)), np.ones((4, 4)), 1, 0, seed=0)
    assert calls == []


@pytest.mark.parametrize("n", [31, 512])
@pytest.mark.parametrize("order", [0, 1])
def test_report_norm_of_m_from_factors(monkeypatch, order, n):
    # ||M||^2 = sum((L^T L) * (R R^T)) for M = L R matches the norm of M
    from apxmm import svd

    seen = []
    real = svd.estimated_report
    monkeypatch.setattr(svd, "estimated_report",
                        lambda *args: seen.append(args[3]) or real(*args))
    rng = np.random.default_rng(n)
    A, B = rng.standard_normal((n, n)), rng.standard_normal((n, n))
    M, _ = svd.svd_first_order_multiply(A, B, 1, order, seed=1)
    assert seen[0] == pytest.approx(np.linalg.norm(M), rel=1e-13, abs=0)


def test_zero_product_leaves_posterior_unset():
    rng = np.random.default_rng(6)
    for order in (0, 1):
        M, rep = svd_first_order_multiply(np.zeros((8, 8)), rng.standard_normal((8, 8)),
                                          1, order, seed=0)
        assert not M.any()
        assert rep.posterior_estimate is None
