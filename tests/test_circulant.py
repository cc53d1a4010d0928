import dataclasses
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from numpy.testing import assert_allclose

from apxmm import core
from apxmm.circulant import (
    circulant_component,
    circulant_decompose,
    circulant_first_order_multiply,
    circulant_materialize,
    circulant_select,
    top_indices,
)
from apxmm.core import frobenius, matmul_naive, relative_error


def test_identity_decomposes_to_single_component():
    spec = circulant_decompose(np.eye(5))
    assert_allclose(spec.columns[0], np.eye(5)[:, 0], atol=1e-12)
    assert np.max(np.abs(spec.columns[1:])) < 1e-12
    assert spec.magnitudes[0] == pytest.approx(1.0)


def test_root_diagonal_is_component_one():
    n = 6
    D = np.diag(np.exp(2j * np.pi * np.arange(n) / n))
    spec = circulant_decompose(D)
    assert_allclose(spec.columns[1], np.eye(n)[:, 0], atol=1e-12)
    mask = np.ones(n, dtype=bool)
    mask[1] = False
    assert np.max(np.abs(spec.columns[mask])) < 1e-12


def test_2x2_hand_example():
    A = np.array([[1.0, 2.0], [3.0, 4.0]])
    spec = circulant_decompose(A)
    assert_allclose(spec.columns[0], [2.5, 2.5], atol=1e-12)
    assert_allclose(spec.columns[1], [-1.5, 0.5], atol=1e-12)
    # reconstruction R0 + R1 D = A and the energy identity
    assert_allclose(circulant_materialize(spec).real, A, atol=1e-12)
    assert 2 * np.sum(spec.magnitudes**2) == pytest.approx(30.0, rel=1e-12)


def test_decompose_rejects_rectangular():
    with pytest.raises(ValueError):
        circulant_decompose(np.ones((3, 4)))


def test_component_identity_cases():
    assert_allclose(circulant_component(np.eye(4), 0), np.eye(4)[:, 0], atol=1e-14)
    assert np.max(np.abs(circulant_component(np.eye(4), 1))) < 1e-14
    with pytest.raises(ValueError):
        circulant_component(np.eye(4), 4)
    with pytest.raises(ValueError):
        circulant_component(np.eye(4), -1)


def test_component_matches_decompose():
    rng = np.random.default_rng(0)
    A = rng.standard_normal((16, 16))
    spec = circulant_decompose(A)
    for k in range(16):
        assert np.linalg.norm(circulant_component(A, k) - spec.columns[k]) < 1e-10


def test_materialize_full_and_empty():
    rng = np.random.default_rng(1)
    A = rng.standard_normal((12, 12))
    spec = circulant_decompose(A)
    assert relative_error(circulant_materialize(spec), A) < 1e-10
    empty = circulant_select(spec, 0)
    assert np.all(circulant_materialize(empty) == 0.0)


def test_materialize_selected_subset():
    spec = circulant_decompose(np.array([[1.0, 2.0], [3.0, 4.0]]))
    kept = circulant_select(spec, 1)
    assert kept.selected == [0]
    assert_allclose(circulant_materialize(kept).real, np.full((2, 2), 2.5),
                    atol=1e-12)


def test_materialize_partial_matches_component_oracle():
    # sum of R_t D^t over a partial selection, each R_t built from the
    # cycle-averaging oracle rather than from the FFT decomposition
    rng = np.random.default_rng(9)
    for n in (8, 31):
        A = rng.standard_normal((n, n))
        spec = circulant_select(circulant_decompose(A), 0)
        spec.selected = [0, 2, 3, n - 1]
        omega = np.exp(2j * np.pi * np.arange(n) / n)
        ref = sum(scipy.linalg.circulant(circulant_component(A, t)) * omega**t
                  for t in spec.selected)
        assert np.linalg.norm(circulant_materialize(spec) - ref) < 1e-12 * np.linalg.norm(ref)


def test_top_indices_tie_rule():
    assert top_indices([1.0, 3.0, 3.0, 2.0], 2) == [1, 2]
    assert top_indices([1.0, 3.0, 3.0, 2.0], 3) == [1, 2, 3]
    assert top_indices([5.0, 5.0, 5.0], 1) == [0]
    assert top_indices([1.0], 0) == []
    with pytest.raises(ValueError):
        top_indices([1.0, 2.0], 3)


def test_parseval_and_conjugate_symmetry():
    rng = np.random.default_rng(2)
    for n in (8, 31):
        A = rng.standard_normal((n, n))
        spec = circulant_decompose(A)
        energy = n * np.sum(spec.magnitudes**2)
        assert energy == pytest.approx(np.linalg.norm(A) ** 2, rel=1e-9)
        for k in range(1, n):
            assert spec.magnitudes[k] == pytest.approx(spec.magnitudes[n - k],
                                                       abs=1e-12)


def test_component_orthogonality():
    rng = np.random.default_rng(3)
    A = rng.standard_normal((9, 9))
    spec = circulant_decompose(A)
    for k in range(9):
        single = circulant_select(spec, 0)
        single.selected = [k]
        comp = circulant_materialize(single)
        inner = frobenius(A.astype(complex), comp)
        assert inner.real == pytest.approx(9 * spec.magnitudes[k] ** 2, rel=1e-9,
                                           abs=1e-12)
        assert abs(inner.imag) < 1e-9


def test_optimized_equals_materialized():
    rng = np.random.default_rng(4)
    for n in (8, 16, 31, 32):
        A = rng.standard_normal((n, n))
        B = rng.standard_normal((n, n))
        k = 6
        sa = circulant_select(circulant_decompose(A), k)
        sb = circulant_select(circulant_decompose(B), k)
        Ahat = circulant_materialize(sa)
        Bhat = circulant_materialize(sb)
        M0, _ = circulant_first_order_multiply(A, B, k, 0)
        ref0 = matmul_naive(Ahat, B.astype(complex))
        assert np.linalg.norm(M0 - ref0) < 1e-9 * np.linalg.norm(ref0)
        M1, _ = circulant_first_order_multiply(A, B, k, 1)
        ref1 = ref0 + matmul_naive((A - Ahat).astype(complex), Bhat)
        assert np.linalg.norm(M1 - ref1) < 1e-9 * np.linalg.norm(ref1)


def test_circulant_input_exact_zeroth():
    rng = np.random.default_rng(5)
    A = scipy.linalg.circulant(rng.uniform(size=16))
    B = rng.uniform(size=(16, 16))
    M, rep = circulant_first_order_multiply(A, B, 1, 0)
    assert relative_error(M, A @ B) < 1e-8
    assert rep.norm_da < 1e-10


def test_exact_when_b_is_component_sum():
    rng = np.random.default_rng(6)
    n, k = 16, 3
    A = rng.standard_normal((n, n))
    # B built from exactly k circulant components; {0, 1, n-1} is a
    # conjugate-closed set, so the sum comes out real
    full = circulant_decompose(rng.standard_normal((n, n)))
    pick = circulant_select(full, 0)
    pick.selected = [0, 1, n - 1]
    B = circulant_materialize(pick)
    assert np.max(np.abs(B.imag)) < 1e-12
    B = B.real
    M, rep = circulant_first_order_multiply(A, B, k, 1)
    assert relative_error(M, A @ B) < 1e-8
    # the residual norm comes from an energy difference, so a true zero
    # residual still shows up at the sqrt(eps) scale
    assert rep.norm_db < 1e-6 * np.linalg.norm(B)


def test_first_order_identity_64():
    rng = np.random.default_rng(7)
    A = rng.standard_normal((64, 64))
    B = rng.standard_normal((64, 64))
    k = 6
    M, _ = circulant_first_order_multiply(A, B, k, 1)
    sa = circulant_select(circulant_decompose(A), k)
    sb = circulant_select(circulant_decompose(B), k)
    dA = A - circulant_materialize(sa)
    dB = B - circulant_materialize(sb)
    gap = matmul_naive(A, B).astype(complex) - M
    resid = matmul_naive(dA, dB)
    assert np.linalg.norm(gap - resid) < 1e-8 * np.linalg.norm(A @ B)


def test_multiply_edge_budgets():
    rng = np.random.default_rng(10)
    n = 12
    A = rng.standard_normal((n, n))
    B = rng.standard_normal((n, n))
    for order in (0, 1):
        M, _ = circulant_first_order_multiply(A, B, 0, order)
        assert np.all(M == 0.0)
    M, rep = circulant_first_order_multiply(A, B, n, 0)
    assert np.linalg.norm(M - A @ B) < 1e-10 * np.linalg.norm(A @ B)
    assert rep.norm_da < 1e-6 * np.linalg.norm(A)
    for order in (0, 1):
        M, rep = circulant_first_order_multiply([[3.0]], [[2.0]], 1, order)
        assert_allclose(M, [[6.0]], rtol=1e-15)
        assert rep.k == 1
        M, _ = circulant_first_order_multiply([[3.0]], [[2.0]], 0, order)
        assert np.all(M == 0.0)


def test_multiply_validation():
    A = np.ones((4, 4))
    with pytest.raises(ValueError):
        circulant_first_order_multiply(np.ones((3, 4)), A, 1, 0)
    with pytest.raises(ValueError):
        circulant_first_order_multiply(A, np.ones((5, 5)), 1, 0)
    with pytest.raises(ValueError):
        circulant_first_order_multiply(A, A, 5, 0)
    with pytest.raises(ValueError):
        circulant_first_order_multiply(A, A, 1, 2)


def test_report_norms_match_materialized_residues():
    rng = np.random.default_rng(8)
    A = rng.standard_normal((16, 16))
    B = rng.standard_normal((16, 16))
    k = 4
    _, rep = circulant_first_order_multiply(A, B, k, 1)
    sa = circulant_select(circulant_decompose(A), k)
    sb = circulant_select(circulant_decompose(B), k)
    assert rep.norm_da == pytest.approx(
        np.linalg.norm(A - circulant_materialize(sa)), rel=1e-9)
    assert rep.norm_db == pytest.approx(
        np.linalg.norm(B - circulant_materialize(sb)), rel=1e-9)
    assert rep.method == "cd"
    assert rep.k == k


@pytest.mark.parametrize("n", [1, 2, 3, 31, 64])
def test_split_decompose_bit_identical(n, one_and_split):
    A = np.random.default_rng(n).standard_normal((n, n))
    one, split = one_and_split(lambda: circulant_decompose(A))
    assert one.columns.tobytes() == split.columns.tobytes()
    assert one.magnitudes.tobytes() == split.magnitudes.tobytes()


@pytest.mark.parametrize("n", [1, 2, 3, 31, 64])
@pytest.mark.parametrize("order", [0, 1])
def test_split_multiply_bit_identical(n, order, one_and_split):
    rng = np.random.default_rng(100 + n)
    A = rng.standard_normal((n, n))
    B = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    k = max(1, n // 5)
    (M1, rep1), (M2, rep2) = one_and_split(lambda: circulant_first_order_multiply(A, B, k, order))
    assert M1.tobytes() == M2.tobytes()
    assert dataclasses.replace(rep1, wall_time=0.0) == dataclasses.replace(rep2, wall_time=0.0)


def test_split_zeroth_order_peak_memory(monkeypatch):
    # the row blocks of P_a @ (W B) allocate their results one block at a
    # time, so the peak stays at the four n x n complex arrays of one thread
    monkeypatch.setattr(core, "GRAIN", 1)
    monkeypatch.setattr(core, "WORKERS", 2)
    n = 1024
    rng = np.random.default_rng(11)
    A = rng.standard_normal((n, n))
    B = rng.standard_normal((n, n))
    circulant_first_order_multiply(A, B, 10, 0)  # warm caches outside the trace
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        circulant_first_order_multiply(A, B, 10, 0)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= 4.05 * n * n * 16
