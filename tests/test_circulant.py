import dataclasses
import re
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from numpy.testing import assert_allclose

from apxmm import circulant, core
from apxmm.circulant import (
    CirculantSpectrum,
    circulant_decompose,
    circulant_first_order_multiply,
    circulant_materialize,
    circulant_select,
)
from apxmm.core import relative_error
from apxmm.genmat import MatrixSpec, generate

from oracles import circulant_component, matmul_naive


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


def test_component_matches_decompose():
    # every component read through the accessor, the mirrored half of a real
    # matrix's spectrum included, equals the cycle-averaging oracle
    rng = np.random.default_rng(0)
    for A in (rng.standard_normal((16, 16)), rng.standard_normal((31, 31)),
              rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))):
        n = A.shape[0]
        spec = circulant_decompose(A)
        assert spec.half is not np.iscomplexobj(A)
        assert spec.columns.shape == (n // 2 + 1 if spec.half else n, n)
        for k in range(n):
            assert np.linalg.norm(circulant_component(A, k) - spec.column(k)) < 1e-10
        assert spec.column(np.arange(n)).tobytes() == \
            np.array([spec.column(k) for k in range(n)]).tobytes()
        for k in (-1, n):
            with pytest.raises(ValueError):
                spec.column(k)


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


def test_materialize_partial_matches_component_oracle(one_and_split):
    # sum of R_t D^t over a selection, each R_t built from the
    # cycle-averaging oracle rather than from the FFT decomposition, so this
    # pins the sign convention; n = 65, 130 and 200 roll more than one
    # 64-column slab, and the split cuts them into other slabs
    rng = np.random.default_rng(9)
    for n in (8, 31, 65, 130, 200):
        A = rng.standard_normal((n, n))
        Z = A + 1j * rng.standard_normal((n, n))
        omega = np.exp(2j * np.pi * np.arange(n) / n)
        # a selection that splits conjugate pairs sums to a complex matrix;
        # a conjugate-closed one to a real matrix, through irfft; a complex
        # matrix's full spectrum sums to the matrix
        for X, selected, dtype in ((A, [0, 2, 3, n - 1], np.complex128),
                                   (A, [0, 1, 3, n - 3, n - 1], np.float64),
                                   (Z, list(range(n)), np.complex128)):
            spec = circulant_select(circulant_decompose(X), 0)
            spec.selected = selected
            ref = sum(scipy.linalg.circulant(circulant_component(X, t)) * omega**t
                      for t in spec.selected)
            one, split = one_and_split(lambda: circulant_materialize(spec))
            assert one.dtype == dtype
            assert one.tobytes() == split.tobytes()
            assert np.linalg.norm(one - ref) < 1e-12 * np.linalg.norm(ref)


def test_select_tie_rule_complex_spectrum():
    def top(magnitudes, k):
        n = len(magnitudes)
        spec = CirculantSpectrum(n=n, columns=np.zeros((n, n), complex),
                                 magnitudes=np.array(magnitudes), selected=[],
                                 half=False)
        return circulant_select(spec, k).selected

    assert top([1.0, 3.0, 3.0, 2.0], 2) == [1, 2]
    assert top([1.0, 3.0, 3.0, 2.0], 3) == [1, 2, 3]
    assert top([5.0, 5.0, 5.0], 1) == [0]
    assert top([1.0], 0) == []
    with pytest.raises(ValueError, match="out of range"):
        top([1.0, 2.0], 3)


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


@pytest.mark.parametrize("n", [16, 31, 512])
def test_real_input_conjugate_pairs_tie_exactly(n):
    # components t and n - t of a real A have bitwise equal magnitudes, and
    # the selection keeps each pair whole at every k: k or k + 1 components
    # (a cut inside a pair rounds up), none kept without its conjugate, and
    # none left out larger than one kept
    A = np.random.default_rng(n).standard_normal((n, n))
    spec = circulant_decompose(A)
    t = np.arange(1, n)
    assert spec.magnitudes[t].tobytes() == spec.magnitudes[n - t].tobytes()
    rounded_up = 0
    for k in range(n + 1):
        kept = circulant_select(spec, k).selected
        assert kept == sorted(set(kept))
        assert set(kept) == {-t % n for t in kept}
        assert len(kept) in (k, k + 1)
        rounded_up += len(kept) == k + 1
        left = np.delete(spec.magnitudes, kept)
        if kept and left.size:
            assert spec.magnitudes[kept].min() >= left.max()
    assert rounded_up


def test_complex_input_selection_is_top_indices():
    rng = np.random.default_rng(12)
    for n in (16, 31):
        spec = circulant_decompose(rng.standard_normal((n, n))
                                   + 1j * rng.standard_normal((n, n)))
        assert not spec.half
        for k in range(n + 1):
            top = np.argsort(-spec.magnitudes, kind="stable")[:k]
            assert circulant_select(spec, k).selected == sorted(top.tolist())


@pytest.mark.parametrize("dtype", [float, complex])
def test_selection_at_any_scale(one_and_split, dtype):
    # the squared magnitudes overflow at 1e160 and underflow to 0 at
    # 1e-170, where every component would tie and the lowest indices win;
    # the product reruns on factors scaled back into band, so it keeps the
    # components it keeps unscaled and M scales with A
    rng = np.random.default_rng(0)
    i, j = np.indices((64, 64))
    A = rng.standard_normal((64, 64)) + 0.3 * ((i - j) % 64)
    if dtype is complex:
        A = A + 1j * rng.standard_normal((64, 64))
    B = rng.standard_normal((64, 64))
    for order in (0, 1):
        M0, _ = circulant_first_order_multiply(A, B, 5, order)
        for scale in (1e160, 1e-170):
            def run():
                return circulant_first_order_multiply(A * scale, B, 5, order)[0]

            for M in (run(), *one_and_split(run)):
                assert np.linalg.norm(M / scale - M0) <= 1e-12 * np.linalg.norm(M0)


def test_component_orthogonality():
    rng = np.random.default_rng(3)
    A = rng.standard_normal((9, 9))
    spec = circulant_decompose(A)
    for k in range(9):
        single = circulant_select(spec, 0)
        single.selected = [k]
        comp = circulant_materialize(single)
        inner = np.vdot(A.astype(complex), comp)
        assert inner.real == pytest.approx(9 * spec.magnitudes[k] ** 2, rel=1e-9,
                                           abs=1e-12)
        assert abs(inner.imag) < 1e-9


def test_optimized_equals_materialized():
    # both orders against the materialized operators, on a real pair (the
    # real path: float64 M), a complex pair and the two mixed pairs
    rng = np.random.default_rng(4)
    for n in (1, 2, 3, 16, 31, 32):
        X = rng.standard_normal((n, n))
        Y = rng.standard_normal((n, n))
        Z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        for A, B in ((X, Y), (Z, Z.conj().T), (X, Z), (Z, X)):
            real = not (np.iscomplexobj(A) or np.iscomplexobj(B))
            for k in sorted({0, 1, n // 2, n}):
                sa = circulant_select(circulant_decompose(A), k)
                sb = circulant_select(circulant_decompose(B), k)
                Ahat = circulant_materialize(sa)
                Bhat = circulant_materialize(sb)
                ref0 = matmul_naive(Ahat, B)
                ref1 = ref0 + matmul_naive(A - Ahat, Bhat)
                for order, ref in ((0, ref0), (1, ref1)):
                    M, _ = circulant_first_order_multiply(A, B, k, order)
                    assert M.dtype == (np.float64 if real else np.complex128)
                    assert np.linalg.norm(M - ref) <= 1e-12 * np.linalg.norm(ref)


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
    # the residual norm sums the weights of the dropped components, which
    # are rounding noise here
    assert rep.norm_db < 1e-12 * np.linalg.norm(B)


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


def test_complete_selection_reports_zero_residue():
    # the residue's norm sums the weights of the dropped components, so
    # keeping all of them reports an exact zero, not an energy difference
    for n in (16, 512):
        rng = np.random.default_rng([11, n])
        A = rng.standard_normal((n, n))
        B = rng.standard_normal((n, n))
        _, rep = circulant_first_order_multiply(A, B, n, 0)
        assert rep.norm_da == 0.0 and rep.norm_db == 0.0


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
    # the residues are those of the kept selections, which round k up to
    # whole conjugate pairs at some k; the report keeps the budget k (k = 15
    # may keep all 16, a zero residue, which test_multiply_edge_budgets covers)
    rounded_up = 0
    for k in range(15):
        _, rep = circulant_first_order_multiply(A, B, k, 1)
        sa = circulant_select(circulant_decompose(A), k)
        sb = circulant_select(circulant_decompose(B), k)
        assert rep.norm_da == pytest.approx(
            np.linalg.norm(A - circulant_materialize(sa)), rel=1e-9)
        assert rep.norm_db == pytest.approx(
            np.linalg.norm(B - circulant_materialize(sb)), rel=1e-9)
        assert rep.method == "cd"
        assert rep.k == k
        rounded_up += max(len(sa.selected), len(sb.selected)) == k + 1
    assert rounded_up


@pytest.mark.parametrize("n", [1, 2, 3, 31, 64])
def test_split_decompose_bit_identical(n, one_and_split):
    # a real matrix (half spectrum) and a complex one
    rng = np.random.default_rng(n)
    A = rng.standard_normal((n, n))
    for X in (A, A + 1j * rng.standard_normal((n, n))):
        one, split = one_and_split(lambda: circulant_decompose(X))
        assert one.half == split.half
        assert one.columns.tobytes() == split.columns.tobytes()
        assert one.magnitudes.tobytes() == split.magnitudes.tobytes()


@pytest.mark.parametrize("n", [1, 2, 3, 31, 64, 130])
@pytest.mark.parametrize("order", [0, 1])
def test_split_multiply_bit_identical(n, order, one_and_split):
    # the real path (a real pair), the complex path (a complex pair) and a
    # real A with a complex B; at n=130 one thread cuts both products into
    # three 64-wide slabs
    rng = np.random.default_rng(100 + n)
    A = rng.standard_normal((n, n))
    B = rng.standard_normal((n, n))
    Z = B + 1j * rng.standard_normal((n, n))
    k = max(1, n // 5)
    for X, Y in ((A, B), (A + 1j * B, Z), (A, Z)):
        (M1, rep1), (M2, rep2) = one_and_split(
            lambda: circulant_first_order_multiply(X, Y, k, order))
        assert M1.dtype == M2.dtype
        assert M1.tobytes() == M2.tobytes()
        assert dataclasses.replace(rep1, wall_time=0.0) == dataclasses.replace(rep2, wall_time=0.0)


def _split_peak_arrays(monkeypatch, order, dtype):
    """tracemalloc peak of a cd product at n=1024 with every pass split on
    two workers, in n x n complex arrays."""
    monkeypatch.setattr(core, "GRAIN", 1)
    monkeypatch.setattr(core, "WORKERS", 2)
    n = 1024
    rng = np.random.default_rng(11)
    A = rng.standard_normal((n, n)).astype(dtype)
    B = rng.standard_normal((n, n)).astype(dtype)
    circulant_first_order_multiply(A, B, 10, order)  # warm caches outside the trace
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        circulant_first_order_multiply(A, B, 10, order)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    return peak / (n * n * 16)


def test_split_zeroth_order_peak_memory(monkeypatch):
    # only A is decomposed, and each column slab of B goes through W, P_a
    # and W* into M, so no spectrum or n x n transform of B is held; the
    # peak sits in the left apply, A's spectrum beside M and the slabs'
    # transforms: 2.05 arrays for a complex pair (A's decomposition alone
    # reaches 2.00, its cycle reordering beside its spectrum), 1.04 for a
    # real pair (a half spectrum and a float64 M)
    assert _split_peak_arrays(monkeypatch, 0, complex) <= 2.10
    assert _split_peak_arrays(monkeypatch, 0, float) <= 1.09


def test_split_first_order_peak_memory(monkeypatch):
    # the zeroth-order term streams column slabs of B into M, materialize
    # builds Ahat in its one output array and rolls it in place, and the
    # correction overwrites Ahat with dA a few rows at a time; B's spectrum
    # is freed once P_b is built, before materialize; for a real pair Ahat,
    # dA and M are float64 and the peak is 1.59 arrays, and a complex pair
    # peaks at 3.17, in materialize beside A's spectrum and M
    assert _split_peak_arrays(monkeypatch, 1, complex) <= 3.23
    assert _split_peak_arrays(monkeypatch, 1, float) <= 1.64


def test_zeroth_order_decomposes_a_only(monkeypatch):
    # Ahat B needs no spectrum of B: order 0 decomposes A once, order 1
    # decomposes A and then B
    calls = []
    real = circulant.circulant_decompose
    monkeypatch.setattr(circulant, "circulant_decompose",
                        lambda a: calls.append(a) or real(a))
    rng = np.random.default_rng(4)
    A, B = rng.standard_normal((16, 16)), rng.standard_normal((16, 16))
    for order, decomposed in ((0, [A]), (1, [A, B])):
        calls.clear()
        circulant_first_order_multiply(A, B, 3, order)
        assert len(calls) == len(decomposed)
        assert all(a is b for a, b in zip(calls, decomposed))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_zeroth_order_rejects_non_finite_b(bad, one_and_split):
    # B's gate at order 0 is its sum of squares: a NaN or an inf at either
    # end of B, real or complex, fails it on one thread and split
    n = 130
    rng = np.random.default_rng(17)
    A = rng.standard_normal((n, n))
    Bs = []
    for where in ((0, 0), (n - 1, n - 1)):
        for dtype in (float, complex):
            B = rng.standard_normal((n, n)).astype(dtype)
            B[where] = bad
            Bs.append(B)

    def check():
        for B in Bs:
            with pytest.raises(ValueError, match=re.escape(core.NOT_FINITE)):
                circulant_first_order_multiply(A, B, 5, 0)

    one_and_split(check)


def test_zeroth_order_accepts_b_whose_squares_overflow():
    # finite entries near 1e200 overflow B's sum of squares; as_matrix then
    # finds them finite, and M scales exactly with a power-of-two B
    rng = np.random.default_rng(19)
    A, B = rng.standard_normal((32, 32)), rng.standard_normal((32, 32))
    scale = 2.0**664  # about 1.2e200
    M, rep = circulant_first_order_multiply(A, B, 5, 0)
    M_big, rep_big = circulant_first_order_multiply(A, B * scale, 5, 0)
    assert np.isfinite(M_big).all()
    assert M_big.tobytes() == (M * scale).tobytes()
    assert (rep_big.norm_da, rep_big.norm_db) == (rep.norm_da, 0.0)


def test_zeroth_order_posterior_calibration():
    # cd0's error is exactly dA B, and its posterior ||dA|| ||B|| /
    # (sqrt(n) ||M||) must read within x2 of the measured error on every
    # general x toeplitz pair at n = 512, k = 9 (the band was set before
    # measuring)
    n, k = 512, 9
    for seed in range(5):
        A = generate(MatrixSpec("general", n, seed=2 * seed))
        B = generate(MatrixSpec("toeplitz", n, seed=2 * seed + 1))
        M, rep = circulant_first_order_multiply(A, B, k, 0)
        measured = relative_error(M, matmul_naive(A, B))
        assert 0.5 <= rep.posterior_estimate / measured <= 2.0, (seed, measured)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_cycle_gather_rejects_non_finite(bad, one_and_split):
    # the gather checks each slab it copies: at n = 130 one thread copies
    # columns 0-63, 64-127 and the ragged 128-129, and the split pass cuts
    # them into three blocks of other slabs; a bad entry of either factor
    # fails the decomposition and both orders of the product
    n = 130
    rng = np.random.default_rng(13)
    B = rng.standard_normal((n, n))
    for where in ((0, 0), (77, 100), (3, 129), (129, 128)):
        A = rng.standard_normal((n, n))
        A[where] = bad
        calls = [(core.cycle_reorder, A), (core.cycle_reorder, A + 0j),
                 (circulant_decompose, A), (circulant_decompose, A.T + 0j)]
        calls += [(circulant_first_order_multiply, X, Y, 5, order)
                  for X, Y in ((A, B), (B, A)) for order in (0, 1)]

        def check():
            for f, *args in calls:
                with pytest.raises(ValueError, match=re.escape(core.NOT_FINITE)):
                    f(*args)

        one_and_split(check)
