"""Tests for the error estimators and the product-norm moment formulas."""

import math
import warnings

import numpy as np
import pytest

from apxmm.errest import (
    apriori_relative_error,
    concentration_tail_bound,
    estimate_front_constant,
    haar_product_moments,
    posterior_relative_error,
    uniform_product_moment,
)

from oracles import haar_orthogonal


# -------------------------------------------------------------- error model

def test_model_validation():
    # the entry-distribution model is the settable (n, case, c)
    for n, case, c in [(16, "gaussian", None), (0, "mean-zero", None),
                       (16, "custom", None), (16, "custom", 0.0),
                       (16, "custom", 1.5), (16, "mean-zero", 0.5)]:
        with pytest.raises(ValueError):
            apriori_relative_error(1.0, 1.0, 0.1, 0.1, n, case, c)


# ------------------------------------------------------------------ apriori

def test_apriori_mean_zero_is_product_of_relative_residues():
    # the 1/sqrt(n) factors cancel for this model
    est = apriori_relative_error(1.0, 1.0, 0.1, 0.1, 100)
    assert abs(est - 0.01) < 1e-15
    est2 = apriori_relative_error(2.0, 5.0, 0.2, 0.5, 100, "mean-zero")
    assert abs(est2 - (0.2 / 2.0) * (0.5 / 5.0)) < 1e-15


def test_apriori_unsigned_example():
    # (0.1 * 0.1 * 0.1) / (0.75 * 1 * 1) with n = 100
    est = apriori_relative_error(1.0, 1.0, 0.1, 0.1, 100, "unsigned")
    assert abs(est - 0.001 / 0.75) < 1e-15


def test_apriori_custom_constant():
    est = apriori_relative_error(1.0, 1.0, 0.1, 0.1, 100, "custom", c=1.0)
    assert abs(est - 0.001) < 1e-15


def test_apriori_zero_residue():
    assert apriori_relative_error(1.0, 1.0, 0.0, 0.3, 8) == 0.0


def test_apriori_validation():
    with pytest.raises(ValueError):
        apriori_relative_error(0.0, 1.0, 0.1, 0.1, 8)
    with pytest.raises(ValueError):
        apriori_relative_error(1.0, -1.0, 0.1, 0.1, 8)
    with pytest.raises(ValueError):
        apriori_relative_error(1.0, 1.0, -0.1, 0.1, 8)


# ---------------------------------------------------------------- posterior

def test_posterior_value():
    assert abs(posterior_relative_error(1.0, 1.0, 10.0, 100) - 0.01) < 1e-15


def test_posterior_scales_inversely_with_product_norm():
    a = posterior_relative_error(0.5, 0.4, 2.0, 16)
    b = posterior_relative_error(0.5, 0.4, 4.0, 16)
    assert abs(a - 2.0 * b) < 1e-15


def test_posterior_validation():
    with pytest.raises(ValueError):
        posterior_relative_error(1.0, 1.0, 0.0, 16)
    with pytest.raises(ValueError):
        posterior_relative_error(-1.0, 1.0, 1.0, 16)
    with pytest.raises(ValueError):
        posterior_relative_error(1.0, 1.0, 1.0, 0)


# ------------------------------------------------------------- haar moments

def test_haar_moments_identity_spectra():
    # D1 = D2 = I makes S = n exactly: mean n, variance 0, and no warning
    n = 10
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        mean_sq, variance, mean_norm = haar_product_moments(np.ones(n), np.ones(n))
    assert abs(mean_sq - n) < 1e-12
    assert variance == 0.0
    # Taylor mean_norm should sit near sqrt(n)
    assert abs(mean_norm - math.sqrt(n)) < 0.02 * math.sqrt(n)


def test_haar_moments_rank_one_spectra():
    # D1 = D2 = diag(e_0): S = Q[0,0]^2 with Q[0,0]^2 ~ Beta(1/2, (n-1)/2)
    # for real orthogonal Q, so the mean is 1/n and the variance
    # 3/(n(n+2)) - 1/n^2
    n = 4
    d = np.zeros(n)
    d[0] = 1.0
    mean_sq, variance, mean_norm = haar_product_moments(d, d)
    assert abs(mean_sq - 0.25) < 1e-15
    # 3/24 - 1/16
    assert abs(variance - 0.0625) < 1e-15
    assert mean_norm > 0


def test_haar_moments_mean_against_samples():
    # the mean formula holds for any orthogonally invariant Q
    rng = np.random.default_rng(7)
    n = 16
    d1 = rng.uniform(0.5, 2.0, n)
    d2 = rng.uniform(0.5, 2.0, n)
    mean_sq, _, _ = haar_product_moments(d1, d2)
    samples = []
    for seed in range(300):
        Q = haar_orthogonal(n, seed)
        samples.append(np.linalg.norm(np.diag(d1) @ Q @ np.diag(d2)) ** 2)
    assert abs(np.mean(samples) / mean_sq - 1.0) < 0.05


def test_haar_moments_zero_spectrum():
    assert haar_product_moments(np.zeros(4), np.ones(4)) == (0.0, 0.0, 0.0)
    assert haar_product_moments(np.ones(4), np.zeros(4)) == (0.0, 0.0, 0.0)


@pytest.mark.parametrize("d1, d2", [
    (np.ones((2, 2)), np.ones(4)),
    (np.ones(4), np.ones((2, 2))),
    (np.ones(3), np.ones(4)),
])
def test_haar_spectra_must_be_1d_and_equal_length(d1, d2):
    with pytest.raises(ValueError, match="1-D and of equal length"):
        haar_product_moments(d1, d2)
    with pytest.raises(ValueError, match="1-D and of equal length"):
        concentration_tail_bound(d1, d2, 1.0)


def test_complex_spectra_enter_by_modulus():
    # the moments of ||D1 Q D2||_F^2 and the tail bound read only |d|: an
    # imaginary spectrum gives those of its moduli, and no cast drops the
    # imaginary part
    d1 = np.array([1.0 + 1.0j, -2.0, 0.5j, 3.0 - 4.0j])
    d2 = np.array([0.5, 1.0j, -1.0, 2.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = haar_product_moments(np.full(3, 1j), np.ones(3))
        assert got == pytest.approx((3.0, 0.0, math.sqrt(3.0)), rel=1e-15, abs=0.0)
        assert haar_product_moments(d1, d2) == haar_product_moments(np.abs(d1), np.abs(d2))
        assert concentration_tail_bound(np.full(3, 1j), np.ones(3), 0.5) == \
            concentration_tail_bound(np.ones(3), np.ones(3), 0.5)
        assert concentration_tail_bound(d1, d2, 0.5) == \
            concentration_tail_bound(np.abs(d1), np.abs(d2), 0.5)


def test_haar_moments_validation():
    with pytest.raises(ValueError):
        haar_product_moments(np.ones(1), np.ones(1))


@pytest.mark.parametrize("big", [1e150, 1e160])
def test_haar_moments_refuse_power_sums_past_float64(big):
    # four entries of 1e150 overflow beta (sum |d|^4) and 1e160 alpha too:
    # either spectrum raises ValueError, not OverflowError, and returns no inf
    d = np.full(4, big)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for d1, d2 in ((d, np.ones(4)), (np.ones(4), d)):
            with pytest.raises(ValueError, match="overflows float64"):
                haar_product_moments(d1, d2)


def test_haar_moments_square_no_finite_power_sum_past_float64():
    # alpha = 1.44e154 and beta = 5.2e307 are finite, alpha**2 is not: a flat
    # spectrum still gives mean_sq = alpha, variance 0 and mean_norm sqrt(alpha)
    d = np.full(4, 6e76)
    alpha = float(np.sum(d**2))
    mean_sq, variance, mean_norm = haar_product_moments(d, np.ones(4))
    assert mean_sq == pytest.approx(alpha, rel=1e-15, abs=0.0)
    assert variance == 0.0
    assert mean_norm == pytest.approx(math.sqrt(alpha), rel=1e-15, abs=0.0)
    # two spiked spectra: each spread is finite, their product is not
    spike = np.array([1e50, 0.0, 0.0, 0.0])
    with pytest.raises(ValueError, match="overflow float64"):
        haar_product_moments(spike, spike)


# ----------------------------------------------------------- uniform moment

def test_uniform_moment_scalar_case():
    # 1x1 by 1x1 with U(0,1) entries: E[(ab)^2] = E a^2 E b^2 = 1/9
    assert abs(uniform_product_moment(1, 1, 1, 1.0) - 1.0 / 9.0) < 1e-15


def test_uniform_moment_frozen_value():
    # m=2, n=3, p=4, a=2: 2*4*3*16/9 + 2*4*3*2*16/16
    expect = 384.0 / 9.0 + 48.0
    assert abs(uniform_product_moment(2, 3, 4, 2.0) - expect) < 1e-12


def test_uniform_moment_against_simulation():
    rng = np.random.default_rng(11)
    m, n, p, a = 2, 2, 2, 1.0
    expect = uniform_product_moment(m, n, p, a)
    acc = 0.0
    trials = 20000
    for _ in range(trials):
        A = rng.uniform(0.0, a, (m, n))
        B = rng.uniform(0.0, a, (n, p))
        acc += np.linalg.norm(A @ B) ** 2
    assert abs(acc / trials / expect - 1.0) < 0.03


def test_uniform_moment_ratio_limit():
    # E||AB||^2 / (E||A||^2 E||B||^2) -> 9/16 for square n x n factors
    n = 10**6
    ratio = uniform_product_moment(n, n, n, 1.0) / ((n * n / 3.0) ** 2)
    assert abs(ratio - 9.0 / 16.0) < 1e-5


def test_uniform_moment_validation():
    with pytest.raises(ValueError):
        uniform_product_moment(0, 1, 1, 1.0)
    with pytest.raises(ValueError):
        uniform_product_moment(1, 1, 1, 0.0)
    # a^4 past float64 is an error, not an OverflowError or an inf
    with pytest.raises(ValueError, match="overflows float64"):
        uniform_product_moment(2, 2, 2, 1e80)


# ---------------------------------------------------------- front constants

def test_front_constant_normal_scaling():
    # mean-zero entries: c is about 1/sqrt(n)
    n = 40
    mean, std = estimate_front_constant("normal", n, 50, 0)
    assert 0.8 < mean * math.sqrt(n) < 1.2
    assert std >= 0.0


def test_front_constant_rademacher_scaling():
    n = 40
    mean, _ = estimate_front_constant("rademacher", n, 50, 1)
    assert 0.8 < mean * math.sqrt(n) < 1.2


def test_front_constant_uniform_near_three_quarters():
    mean, _ = estimate_front_constant("uniform01", 40, 50, 2)
    assert 0.70 < mean < 0.82


def test_front_constant_lognormal():
    mean, _ = estimate_front_constant("lognormal", 60, 50, 3)
    assert 0.30 < mean < 0.45


def test_front_constant_student_t_runs():
    mean, std = estimate_front_constant("student-t3", 20, 10, 4)
    assert 0.0 < mean < 1.0
    assert std >= 0.0


def test_front_constant_deterministic():
    a = estimate_front_constant("normal", 10, 5, 9)
    b = estimate_front_constant("normal", 10, 5, 9)
    assert a == b


def test_front_constant_validation():
    with pytest.raises(ValueError):
        estimate_front_constant("cauchy", 10, 5, 0)
    with pytest.raises(ValueError):
        estimate_front_constant("normal", 10, 1, 0)


# ----------------------------------------------------------------- tail bound

def test_tail_bound_limits():
    d = np.ones(8)
    near_one = concentration_tail_bound(d, d, 1e-9)
    assert 0.999 <= near_one <= 1.0
    tiny = concentration_tail_bound(d, d, 1e6)
    assert tiny < 1e-10
    # 96 ||D1||_F^4 ||D2||_2^4 underflows to 0: the exponent is -inf
    assert concentration_tail_bound(np.full(8, 1e-90), d, 0.5) == 0.0
    # and overflows past float64: the exponent is 0, the bound its limit 1,
    # for a large D1 or a large D2 and whether ||D1||_F^2 is finite or not
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for big in (1e150, 1e160):
            assert concentration_tail_bound(np.full(8, big), d, 0.5) == 1.0
            assert concentration_tail_bound(d, np.full(8, big), 0.5) == 1.0


def test_tail_bound_monotone_in_t():
    d = np.ones(8)
    vals = [concentration_tail_bound(d, d, t) for t in (0.5, 1.0, 2.0, 4.0)]
    assert all(a >= b for a, b in zip(vals, vals[1:]))


def test_tail_bound_frozen_value():
    # n=8, alpha1=8, t=4, ||D2||_2=1: exp(-6*16 / (96*64))
    expect = math.exp(-6.0 * 16.0 / (96.0 * 64.0))
    assert abs(concentration_tail_bound(np.ones(8), np.ones(8), 4.0) - expect) < 1e-15


def test_tail_bound_reads_spectral_norm_off_d2():
    # ||D2||_2 is the largest |d2(i)|, here that of the negative entry:
    # n=8, alpha1=8, t=4, ||D2||_2=2: exp(-6*16 / (96*64*16)) = exp(-1/1024)
    d2 = np.array([1.0, -2.0, 0.5, 1.0, 0.0, 1.5, -1.0, 1.0])
    assert concentration_tail_bound(np.ones(8), d2, 4.0) == pytest.approx(
        0.9990239141819757, rel=1e-15, abs=0.0)


def test_tail_bound_validation():
    with pytest.raises(ValueError):
        concentration_tail_bound(np.ones(2), np.ones(2), 1.0)
    with pytest.raises(ValueError):
        concentration_tail_bound(np.ones(4), np.ones(4), 0.0)
    with pytest.raises(ValueError, match="all zero"):
        concentration_tail_bound(np.ones(4), np.zeros(4), 1.0)
    with pytest.raises(ValueError, match="d1 must not be all zero"):
        concentration_tail_bound(np.zeros(4), np.ones(4), 1.0)
