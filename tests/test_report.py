import math

import numpy as np
import pytest

from apxmm.circulant import circulant_first_order_multiply
from apxmm.fsparse import fft_sparse_first_order_multiply
from apxmm.report import ApproxReport, _fro
from apxmm.svd import component_count, svd_first_order_multiply


def test_report_roundtrip():
    rep = ApproxReport(method="svd", order=1, k=7, norm_da=1.5, norm_db=0.25,
                       apriori_estimate=0.01, wall_time=0.5)
    d = rep.to_dict()
    assert d["method"] == "svd"
    assert d["k"] == 7
    assert d["posterior_estimate"] is None
    assert "measured_error" not in d


def test_report_validation():
    with pytest.raises(ValueError):
        ApproxReport(method="cd", order=0, k=-1, norm_da=0.0, norm_db=0.0)
    with pytest.raises(ValueError):
        ApproxReport(method="cd", order=0, k=0, norm_da=-1.0, norm_db=0.0)
    with pytest.raises(ValueError):
        ApproxReport(method="cd", order=0, k=0, norm_da=0.0, norm_db=-0.5)
    with pytest.raises(ValueError):
        ApproxReport(method="cd", order=0, k=0, norm_da=None, norm_db=-0.5)
    # a product that drops no residue (lowrank) reports None, not 0
    rep = ApproxReport(method="lowrank", order=0, k=3, norm_da=None, norm_db=None)
    assert rep.to_dict()["norm_da"] is None and rep.to_dict()["norm_db"] is None


K = 5


def _product(method, A, B, order):
    """(M, report, k expected in the report) of one product."""
    if method == "svd":
        M, rep = svd_first_order_multiply(A, B, 1, order, seed=0)
        return M, rep, component_count(A.shape[1], 1)
    if method == "cd":
        return (*circulant_first_order_multiply(A, B, K, order), K)
    return (*fft_sparse_first_order_multiply(A, B, K, order), K)


@pytest.mark.parametrize("order", [0, 1])
@pytest.mark.parametrize("method", ["svd", "cd", "sfft"])
def test_zero_factor_leaves_estimates_unset(method, order):
    B = np.random.default_rng(0).standard_normal((16, 16))
    M, rep, _ = _product(method, np.zeros((16, 16)), B, order)
    assert not M.any()
    assert rep.apriori_estimate is None
    assert rep.posterior_estimate is None


@pytest.mark.parametrize("order", [0, 1])
@pytest.mark.parametrize("method,n,dtype", [
    ("svd", 32, float), ("cd", 32, float), ("sfft", 32, float),
    ("cd", 33, complex), ("sfft", 33, complex),
])
def test_estimates_closed_forms(method, n, dtype, order):
    rng = np.random.default_rng(n)

    def draw():
        X = rng.standard_normal((n, n))
        return X + 1j * rng.standard_normal((n, n)) if dtype is complex else X

    A, B = draw(), draw()
    M, rep, k = _product(method, A, B, order)
    assert (rep.method, rep.order, rep.k) == (method, order, k)
    if (method, order) == ("cd", 0):
        # M = Ahat B misses exactly dA B: B is not truncated, and ||B||
        # takes the place of ||dB||, so the a-priori estimate is ||dA|| / ||A||
        assert rep.norm_db == 0.0
        residues = rep.norm_da * np.linalg.norm(B)
    else:
        residues = rep.norm_da * rep.norm_db
    assert rep.apriori_estimate == pytest.approx(
        residues / (np.linalg.norm(A) * np.linalg.norm(B)), rel=1e-12, abs=0)
    assert rep.posterior_estimate == pytest.approx(
        residues / (math.sqrt(n) * np.linalg.norm(M)), rel=1e-12, abs=0)


def _layouts(X):
    """X in C order, in Fortran order, and as a strided slice of a larger array."""
    big = np.zeros((2 * X.shape[0], 3 * X.shape[1]), X.dtype)
    big[1::2, ::3] = X
    return {"C": X, "F": np.asfortranarray(X), "sliced": big[1::2, ::3]}


@pytest.mark.parametrize("layout", ["C", "F", "sliced"])
@pytest.mark.parametrize("dtype", [float, complex])
def test_fro_matches_linalg_norm_at_any_worker_count(one_and_split, dtype, layout):
    # 165 rows: ten full blocks of core.SUM_ROWS and a short one
    rng = np.random.default_rng(7)
    X = rng.standard_normal((165, 29))
    if dtype is complex:
        X = X + 1j * rng.standard_normal((165, 29))
    X = _layouts(X)[layout]
    ref = np.linalg.norm(X)
    assert _fro(X) == pytest.approx(ref, rel=1e-13, abs=0)  # one dot below GRAIN
    one, split = one_and_split(lambda: _fro(X))  # the blocked sum from GRAIN = 1
    assert one == split
    assert one == pytest.approx(ref, rel=1e-13, abs=0)


@pytest.mark.parametrize("dtype", [float, complex])
def test_fro_at_any_scale(one_and_split, dtype):
    # a sum of squares that overflows (or, for complex entries, turns NaN)
    # or underflows to 0 is taken again over the largest part, below GRAIN
    # and in the blocked sum alike; the zero matrix has norm 0
    rng = np.random.default_rng(8)
    X = rng.standard_normal((40, 30))
    if dtype is complex:
        X = X + 1j * rng.standard_normal((40, 30))
    ref = np.linalg.norm(X)
    for scale in (1e160, 1e-170, 1e300):
        assert _fro(X * scale) == pytest.approx(scale * ref, rel=1e-13, abs=0)
        one, split = one_and_split(lambda: _fro(X * scale))
        assert one == split == pytest.approx(scale * ref, rel=1e-13, abs=0)
    assert _fro(np.zeros((40, 30), dtype)) == 0.0


@pytest.mark.parametrize("scale", [1e160, 1e-170])
@pytest.mark.parametrize("order", [0, 1])
@pytest.mark.parametrize("method", ["svd", "cd", "sfft"])
def test_reports_scale_with_the_factor(method, order, scale):
    # squares of these factors' entries overflow (1e160) or underflow to 0
    # (1e-170); the norms are then taken over scaled entries, so the report
    # scales with A as the product does
    rng = np.random.default_rng(0)
    A = rng.standard_normal((64, 64))
    B = rng.standard_normal((64, 64))
    if method == "cd":
        i, j = np.indices(A.shape)
        A = A + 0.3 * ((i - j) % 64)
    M0, rep0, _ = _product(method, A, B, order)
    M, rep, _ = _product(method, A * scale, B, order)
    assert np.linalg.norm(M / scale) == pytest.approx(np.linalg.norm(M0), rel=1e-12, abs=0)
    assert rep.norm_da == pytest.approx(scale * rep0.norm_da, rel=1e-12, abs=0)
    assert rep.norm_db == pytest.approx(rep0.norm_db, rel=1e-12, abs=0)
    for field in ("apriori_estimate", "posterior_estimate"):
        assert getattr(rep, field) == pytest.approx(getattr(rep0, field), rel=1e-12, abs=0)
