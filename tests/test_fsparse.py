"""Tests for row-wise Fourier sparsification and the sparse product path."""

import dataclasses
import itertools
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp

from apxmm import core
from apxmm.core import frobenius, matmul_naive, relative_error, unitary_dft
from apxmm.fsparse import (
    SparseRowMatrix,
    fft_sparse_first_order_multiply,
    sparse_dense_multiply,
    topk_sparsify,
)


def _cols(S, i):
    lo, hi = S.csr.indptr[i], S.csr.indptr[i + 1]
    return S.csr.indices[lo:hi].tolist()


def _vals(S, i):
    lo, hi = S.csr.indptr[i], S.csr.indptr[i + 1]
    return S.csr.data[lo:hi].tolist()


def _csr(data, indices, indptr, shape):
    return sp.csr_array((np.asarray(data, dtype=complex), indices, indptr), shape=shape)


# ----------------------------------------------------------------- sparsify

def test_topk_keeps_largest_moduli():
    A = np.array([[3.0, -1.0, 4.0, 1.0]])
    S = topk_sparsify(A, 2)
    assert _cols(S, 0) == [0, 2]
    assert _vals(S, 0) == [3.0, 4.0]


def test_topk_tie_prefers_lower_column():
    A = np.array([[1.0, -2.0, 2.0, 0.5]])
    S = topk_sparsify(A, 1)
    # |-2| == |2|: the earlier column wins
    assert _cols(S, 0) == [1]
    assert _vals(S, 0) == [-2.0]


@pytest.mark.parametrize("n", [16, 31, 512])
def test_topk_keeps_lower_column_of_conjugate_pair(n):
    # each row of A W* for a real A is exactly conjugate-symmetric, so a cut
    # that splits the pair of columns c and n - c keeps the lower one
    Atil = unitary_dft(np.random.default_rng(n).standard_normal((n, n)), "inverse", axis=1)
    for k in (1, 2, 3, n // 2):
        kept = np.zeros((n, n), dtype=bool)
        kept[topk_sparsify(Atil, k).positions()] = True
        cols = np.nonzero(kept & ~kept[:, -np.arange(n) % n])[1]
        assert cols.size and np.all(cols < n - cols)


def test_topk_clamps_to_row_length():
    A = np.array([[1.0, 2.0], [3.0, 4.0]])
    S = topk_sparsify(A, 9)
    assert S.nnz == 4
    assert np.allclose(S.to_dense(), A)


def test_topk_zero_budget():
    S = topk_sparsify(np.ones((3, 4)), 0)
    assert S.nnz == 0
    assert np.allclose(S.to_dense(), 0.0)


def test_topk_per_row_budgets():
    # one budget serves every row; a per-row sequence is refused
    A = np.array([[5.0, 1.0, 3.0], [2.0, 9.0, 4.0]])
    with pytest.raises(TypeError):
        topk_sparsify(A, [1, 2])
    with pytest.raises(TypeError):
        topk_sparsify(A, np.array([1, 2]))


def test_topk_negative_budget():
    with pytest.raises(ValueError):
        topk_sparsify(np.ones((2, 2)), -1)


def test_topk_values_kept_exactly():
    rng = np.random.default_rng(5)
    A = rng.standard_normal((6, 10))
    S = topk_sparsify(A, 4)
    rows, cols = S.positions()
    assert np.array_equal(S.csr.data, A[rows, cols])


def test_to_dense_keeps_signed_zeros():
    # kept values are copied bit for bit, -0.0 parts included
    M = np.array([[complex(-0.0, 2.0), 1.0, complex(3.0, -0.0)]])
    D = topk_sparsify(M, 2).to_dense()
    assert np.signbit(D[0, 0].real) and np.signbit(D[0, 2].imag)
    assert D.tobytes() == np.array([[M[0, 0], 0.0, M[0, 2]]]).tobytes()


def test_topk_columns_strictly_increasing():
    rng = np.random.default_rng(6)
    S = topk_sparsify(rng.standard_normal((7, 9)), 5)
    for i in range(7):
        cols = _cols(S, i)
        assert len(cols) == 5
        assert cols == sorted(set(cols))


def test_topk_is_optimal_exhaustively():
    # against brute force over all column subsets of size k
    rng = np.random.default_rng(7)
    for trial in range(20):
        n = int(rng.integers(4, 9))
        k = int(rng.integers(1, 4))
        row = rng.standard_normal((1, n))
        S = topk_sparsify(row, k)
        kept = frobenius(S.to_dense())
        best = max(
            np.linalg.norm(row[0, list(idx)])
            for idx in itertools.combinations(range(n), k)
        )
        assert kept >= best - 1e-12


def _oracle_topk(M, k):
    """Kept columns and values of the former per-row selection: a stable
    argsort of -|row|, first k, in ascending column order."""
    M = np.asarray(M, dtype=complex)
    cols = [np.sort(np.argsort(-np.abs(row), kind="stable")[:k]) for row in M]
    cols = np.array(cols, dtype=np.intp).reshape(M.shape[0], -1)
    return cols, np.take_along_axis(M, cols, axis=1)


def _tie_heavy_input(kind):
    rng = np.random.default_rng(sum(map(ord, kind)))
    if kind == "conj-symmetric-16":
        return unitary_dft(rng.standard_normal((16, 16)), "inverse", axis=1)
    if kind == "conj-symmetric-512":
        return unitary_dft(rng.standard_normal((512, 512)), "inverse", axis=1)
    if kind == "integer":
        return rng.integers(-3, 4, (40, 24)).astype(float)
    # complex entries whose moduli repeat: |1+2i| = |2-i| = |-2| ...
    return rng.integers(-2, 3, (40, 24)) + 1j * rng.integers(-2, 3, (40, 24))


@pytest.mark.parametrize("kind", ["conj-symmetric-16", "conj-symmetric-512",
                                  "integer", "complex"])
@pytest.mark.parametrize("offset", ["0", "1", "cols-1", "cols", "cols+3"])
def test_topk_matches_per_row_stable_argsort(kind, offset):
    M = _tie_heavy_input(kind)
    rows, cols = M.shape
    k = {"0": 0, "1": 1, "cols-1": cols - 1, "cols": cols, "cols+3": cols + 3}[offset]
    S = topk_sparsify(M, k)
    want_cols, want_vals = _oracle_topk(M, min(k, cols))
    assert S.nnz == want_cols.size
    np.testing.assert_array_equal(S.csr.indptr, np.arange(rows + 1) * min(k, cols))
    np.testing.assert_array_equal(S.csr.indices.reshape(want_cols.shape), want_cols)
    np.testing.assert_array_equal(S.csr.data.reshape(want_vals.shape), want_vals)
    dense = np.zeros((rows, cols), dtype=complex)
    np.put_along_axis(dense, want_cols, want_vals, axis=1)
    assert S.to_dense().tobytes() == dense.tobytes()


@pytest.mark.parametrize("kind", ["conj-symmetric-16", "conj-symmetric-512",
                                  "integer", "complex"])
def test_tie_heavy_inputs_tie_at_the_cut(kind):
    # the inputs above do put exact modulus ties at the cut for k = 1 and
    # k = cols - 1, where only the lower-column rule decides the support
    mag = np.abs(_tie_heavy_input(kind))
    ranked = -np.sort(-mag, axis=1)
    for k in (1, mag.shape[1] - 1):
        assert np.any(np.count_nonzero(mag >= ranked[:, k - 1:k], axis=1) > k)


def test_disjoint_support_energy_identity():
    # residual energy equals total energy minus kept energy
    rng = np.random.default_rng(8)
    A = rng.standard_normal((12, 16))
    S = topk_sparsify(A, 5)
    D = S.to_dense()
    lhs = frobenius(A - D) ** 2
    rhs = frobenius(A) ** 2 - frobenius(D) ** 2
    assert abs(lhs - rhs) < 1e-10


def test_sparse_row_matrix_validation():
    # columns out of order, repeated, or out of range within a row
    with pytest.raises(ValueError):
        SparseRowMatrix(_csr([1.0, 2.0], [1, 0], [0, 2], (1, 3)))
    with pytest.raises(ValueError):
        SparseRowMatrix(_csr([1.0, 2.0], [0, 0], [0, 2], (1, 3)))
    with pytest.raises(ValueError):
        SparseRowMatrix(_csr([1.0, 2.0], [1, 2], [0, 1, 2], (2, 2)))
    with pytest.raises(TypeError):
        SparseRowMatrix(np.eye(2))
    # a row may end at a higher column than the next row starts at
    S = SparseRowMatrix(_csr([1.0, 2.0, 3.0], [1, 2, 0], [0, 2, 3], (2, 3)))
    assert S.nnz == 3
    assert np.array_equal(S.to_dense(), [[0, 1, 2], [3, 0, 0]])


# ------------------------------------------------------------ sparse product

def test_sparse_dense_left_identity():
    B = np.arange(12.0).reshape(4, 3)
    S = topk_sparsify(np.eye(4), 4)
    out = sparse_dense_multiply(S, B, side="left")
    assert np.allclose(out, B)


def test_sparse_dense_single_entry():
    S = topk_sparsify(np.array([[2.0, 0.0], [0.0, 0.0]]), 1)
    out = sparse_dense_multiply(S, np.eye(2), side="left")
    assert np.allclose(out, np.array([[2.0, 0.0], [0.0, 0.0]]))


def test_sparse_dense_matches_dense_product():
    rng = np.random.default_rng(9)
    A = rng.standard_normal((16, 16))
    A[rng.random((16, 16)) > 0.2] = 0.0
    B = rng.standard_normal((16, 16))
    S = topk_sparsify(A, 16)
    left = sparse_dense_multiply(S, B, side="left")
    assert relative_error(left, matmul_naive(A, B)) < 1e-12
    right = sparse_dense_multiply(S, B.T, side="right")
    assert relative_error(right, matmul_naive(B.T, A)) < 1e-12


def test_sparse_dense_complex():
    rng = np.random.default_rng(10)
    A = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    B = rng.standard_normal((8, 5)) + 1j * rng.standard_normal((8, 5))
    S = topk_sparsify(A, 8)
    out = sparse_dense_multiply(S, B, side="left")
    assert relative_error(out, matmul_naive(A, B)) < 1e-12


def test_sparse_dense_dimension_errors():
    S = topk_sparsify(np.eye(3), 3)
    with pytest.raises(ValueError):
        sparse_dense_multiply(S, np.eye(4), side="left")
    with pytest.raises(ValueError):
        sparse_dense_multiply(S, np.eye(4), side="right")
    with pytest.raises(ValueError):
        sparse_dense_multiply(S, np.eye(3), side="middle")


# -------------------------------------------------------------- fft multiply

def test_fft_multiply_full_budget_is_exact():
    rng = np.random.default_rng(11)
    n = 16
    A = rng.standard_normal((n, n))
    B = rng.standard_normal((n, n))
    exact = matmul_naive(A, B)
    for order in (0, 1):
        M, report = fft_sparse_first_order_multiply(A, B, n, order)
        assert relative_error(M, exact) < 1e-9
        assert report.order == order


def test_fft_multiply_constant_rows_need_one_component():
    # constant rows of A have a single Fourier coefficient each, so k=1 at
    # first order recovers the product exactly
    rng = np.random.default_rng(12)
    n = 8
    A = np.outer(rng.standard_normal(n), np.ones(n))
    B = rng.standard_normal((n, n))
    M, _ = fft_sparse_first_order_multiply(A, B, 1, 1)
    assert relative_error(M, matmul_naive(A, B)) < 1e-9


def test_fft_multiply_first_order_identity():
    # exact - first_order must equal the product of the two residues
    rng = np.random.default_rng(13)
    n, k = 32, 4
    A = rng.standard_normal((n, n))
    B = rng.standard_normal((n, n))
    exact = matmul_naive(A, B)

    Atil = unitary_dft(A, "inverse", axis=1)
    Btil = unitary_dft(B, "forward", axis=0)
    dA = Atil - topk_sparsify(Atil, k).to_dense()
    dB = Btil - topk_sparsify(Btil, k).to_dense()

    M, report = fft_sparse_first_order_multiply(A, B, k, 1)
    gap = exact - M
    expect = matmul_naive(dA, dB)
    assert relative_error(gap, expect) < 1e-8
    assert abs(report.norm_da - frobenius(dA)) < 1e-10
    assert abs(report.norm_db - frobenius(dB)) < 1e-10


def test_fft_multiply_column_sparsified_b_identity():
    # with sparsify_b="cols" the residue of B changes support but the
    # first-order identity still holds with that residue
    rng = np.random.default_rng(14)
    n, k = 16, 3
    A = rng.standard_normal((n, n))
    B = rng.standard_normal((n, n))
    exact = matmul_naive(A, B)

    Atil = unitary_dft(A, "inverse", axis=1)
    Btil = unitary_dft(B, "forward", axis=0)
    dA = Atil - topk_sparsify(Atil, k).to_dense()
    dB = Btil - topk_sparsify(Btil.T, k).to_dense().T

    M, report = fft_sparse_first_order_multiply(A, B, k, 1, sparsify_b="cols")
    assert relative_error(exact - M, matmul_naive(dA, dB)) < 1e-8
    assert abs(report.norm_db - frobenius(dB)) < 1e-10


def test_fft_multiply_first_order_beats_zeroth_on_average():
    rng = np.random.default_rng(15)
    n, k = 32, 4
    errs0, errs1 = [], []
    for trial in range(8):
        A = rng.standard_normal((n, n))
        B = rng.standard_normal((n, n))
        exact = matmul_naive(A, B)
        M0, _ = fft_sparse_first_order_multiply(A, B, k, 0)
        M1, _ = fft_sparse_first_order_multiply(A, B, k, 1)
        errs0.append(relative_error(M0, exact))
        errs1.append(relative_error(M1, exact))
    assert np.mean(errs1) < np.mean(errs0)


def test_fft_multiply_validation():
    A = np.eye(4)
    with pytest.raises(ValueError):
        fft_sparse_first_order_multiply(A, np.eye(3), 2, 1)
    with pytest.raises(ValueError):
        fft_sparse_first_order_multiply(A, A, -1, 1)
    with pytest.raises(ValueError):
        fft_sparse_first_order_multiply(A, A, 2, 2)
    with pytest.raises(ValueError):
        fft_sparse_first_order_multiply(A, A, 2, 1, sparsify_b="diag")


def test_fft_multiply_k_at_most_row_length():
    # a k above the shorter row of Atil (m x n) and Btil (n x p) is refused
    # as in cd, not clamped and reported as if it ran; the row length runs
    rng = np.random.default_rng(17)
    square = rng.standard_normal((16, 16)), rng.standard_normal((16, 16))
    wide_a = rng.standard_normal((8, 16)), rng.standard_normal((16, 4))
    for (A, B), k, rows in ((square, 40, 16), (wide_a, 6, 4)):
        with pytest.raises(ValueError, match=rf"k={k} out of range \[0, {rows}\]"):
            fft_sparse_first_order_multiply(A, B, k, 1)
    _, report = fft_sparse_first_order_multiply(*square, 16, 1)
    assert report.k == 16 and report.norm_da == report.norm_db == 0.0
    _, report = fft_sparse_first_order_multiply(*wide_a, 4, 1)
    assert report.k == 4 and report.norm_db == 0.0 and report.norm_da > 0.0


def test_fft_multiply_cols_k_up_to_column_length():
    # column truncation keeps k of the n entries of each column of Btil
    # (n x p), so its k runs up to the contracted length n, not p
    rng = np.random.default_rng(18)
    A, B = rng.standard_normal((8, 16)), rng.standard_normal((16, 4))
    k = 6
    M, report = fft_sparse_first_order_multiply(A, B, k, 1, sparsify_b="cols")
    Atil = unitary_dft(A, "inverse", axis=1)
    Btil = unitary_dft(B, "forward", axis=0)
    SA = topk_sparsify(Atil, k).to_dense()
    SB = topk_sparsify(Btil.T, k).to_dense().T
    assert np.all(np.count_nonzero(SB, axis=0) == k)
    assert report.k == k
    assert relative_error(M, SA @ Btil + (Atil - SA) @ SB) < 1e-12
    assert abs(report.norm_db - np.linalg.norm(Btil - SB)) <= 1e-12 * report.norm_db
    with pytest.raises(ValueError, match=r"k=17 out of range \[0, 16\]"):
        fft_sparse_first_order_multiply(A, B, 17, 1, sparsify_b="cols")
    with pytest.raises(ValueError, match=r"k=6 out of range \[0, 4\]"):
        fft_sparse_first_order_multiply(A, B, k, 1, sparsify_b="rows")


def test_fft_multiply_report_fields():
    rng = np.random.default_rng(16)
    n, k = 16, 2
    A = rng.standard_normal((n, n))
    B = rng.standard_normal((n, n))
    M, report = fft_sparse_first_order_multiply(A, B, k, 1)
    assert report.method == "sfft"
    assert report.k == k
    assert report.order == 1
    assert report.wall_time >= 0.0
    assert report.apriori_estimate is not None and report.apriori_estimate > 0
    assert report.posterior_estimate is not None and report.posterior_estimate > 0


@pytest.mark.parametrize("n, complex_input", [(32, False), (33, True)])
@pytest.mark.parametrize("sparsify_b", ["rows", "cols"])
@pytest.mark.parametrize("order", [0, 1])
def test_fft_multiply_matches_dense_reference(n, complex_input, sparsify_b, order):
    rng = np.random.default_rng([17, n])
    A = rng.standard_normal((n, n))
    B = rng.standard_normal((n, n))
    if complex_input:
        A = A + 1j * rng.standard_normal((n, n))
        B = B + 1j * rng.standard_normal((n, n))
    k = 5
    Atil = unitary_dft(A, "inverse", axis=1)
    Btil = unitary_dft(B, "forward", axis=0)
    SA = topk_sparsify(Atil, k).to_dense()
    if sparsify_b == "rows":
        SB = topk_sparsify(Btil, k).to_dense()
    else:
        SB = topk_sparsify(Btil.T, k).to_dense().T
    ref = SA @ SB if order == 0 else SA @ Btil + (Atil - SA) @ SB

    M, report = fft_sparse_first_order_multiply(A, B, k, order, sparsify_b=sparsify_b)
    assert relative_error(M, ref) < 1e-12
    assert abs(report.norm_da - np.linalg.norm(Atil - SA)) <= 1e-12 * report.norm_da
    assert abs(report.norm_db - np.linalg.norm(Btil - SB)) <= 1e-12 * report.norm_db


def test_fft_multiply_leaves_inputs_unchanged():
    rng = np.random.default_rng(18)
    A = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
    B = rng.standard_normal((16, 16))
    A0, B0 = A.copy(), B.copy()
    for order in (0, 1):
        fft_sparse_first_order_multiply(A, B, 3, order)
    assert np.array_equal(A, A0) and np.array_equal(B, B0)


# ------------------------------------------------------- split bit identity

def _csr_bytes(S):
    return (S.csr.data.tobytes(), S.csr.indices.tobytes(), S.csr.indptr.tobytes(),
            S.to_dense().tobytes())


@pytest.mark.parametrize("kind", ["conj-symmetric-16", "conj-symmetric-512",
                                  "integer", "complex"])
@pytest.mark.parametrize("budget", ["0", "1", "cols"])
def test_split_topk_bit_identical(kind, budget, one_and_split):
    M = _tie_heavy_input(kind)
    k = {"0": 0, "1": 1, "cols": M.shape[1]}[budget]
    one, split = one_and_split(lambda: _csr_bytes(topk_sparsify(M, k)))
    assert one == split


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("dtype", [float, complex])
def test_split_topk_rejects_non_finite(bad, dtype, one_and_split):
    # each block reads finiteness off the moduli it sorts: a bad entry in the
    # first row, the last row or a row tied at the cut, and a k = 0 call,
    # which runs no block, raise as_matrix's error on one thread and split
    M = _tie_heavy_input("integer").astype(dtype)
    rows, cols = M.shape
    mag = np.abs(M)
    cut = -np.sort(-mag, axis=1)[:, :1]
    tied = int(np.flatnonzero(np.count_nonzero(mag >= cut, axis=1) > 1)[0])
    for row, col, k in ((0, 0, 3), (rows - 1, cols - 1, 3), (tied, cols - 1, 1), (5, 7, 0)):
        X = M.copy()
        X[row, col] = bad

        def check():
            with pytest.raises(ValueError) as err:
                topk_sparsify(X, k)
            return str(err.value)

        one, split = one_and_split(check)
        assert one == split == core.NOT_FINITE


def test_topk_keeps_finite_entry_whose_modulus_overflows():
    # |1e308 + 1e308j| is inf, yet the entry is finite and the largest
    S = topk_sparsify(np.array([[1.0, 1e308 + 1e308j, -2.0]]), 1)
    assert _cols(S, 0) == [1]
    assert _vals(S, 0) == [1e308 + 1e308j]


def _dense_layouts(rows, cols, rng):
    D = rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))
    wide = rng.standard_normal((rows + 3, 2 * cols))
    return {"C": D, "F": np.asfortranarray(D), "sliced": wide[2:rows + 2, ::2]}


@pytest.mark.parametrize("layout", ["C", "F", "sliced"])
@pytest.mark.parametrize("side", ["left", "right"])
def test_split_sparse_dense_bit_identical(side, layout, one_and_split):
    # 150 dense rows on the right: more than one 64-row sub-block per block
    rng = np.random.default_rng(19)
    S = topk_sparsify(rng.standard_normal((30, 40)) + 1j * rng.standard_normal((30, 40)), 5)
    shape = (40, 150) if side == "left" else (150, 30)
    D = _dense_layouts(*shape, rng)[layout]
    one, split = one_and_split(lambda: sparse_dense_multiply(S, D, side))
    whole = S.csr @ D if side == "left" else D @ S.csr
    assert one.tobytes() == split.tobytes() == np.ascontiguousarray(whole).tobytes()


@pytest.mark.parametrize("n, complex_input", [(32, False), (33, True)])
@pytest.mark.parametrize("sparsify_b", ["rows", "cols"])
@pytest.mark.parametrize("order", [0, 1])
def test_split_fft_multiply_bit_identical(n, complex_input, sparsify_b, order, one_and_split):
    rng = np.random.default_rng([20, n])
    A = rng.standard_normal((n, n))
    B = rng.standard_normal((n, n))
    if complex_input:
        A = A + 1j * rng.standard_normal((n, n))
        B = B + 1j * rng.standard_normal((n, n))
    (M1, rep1), (M2, rep2) = one_and_split(
        lambda: fft_sparse_first_order_multiply(A, B, 5, order, sparsify_b=sparsify_b))
    assert M1.tobytes() == M2.tobytes()
    assert dataclasses.replace(rep1, wall_time=0.0) == dataclasses.replace(rep2, wall_time=0.0)


def test_split_first_order_peak_memory(monkeypatch):
    # dAt @ SB fills one C-order result from 64-row sub-blocks, with no
    # transposed copy of dAt, and the selections allocate per row block. As
    # one scipy product over the whole dAt, sfft1 peaked at 5.03 n x n
    # complex arrays here; in row blocks it peaks at 4.16
    monkeypatch.setattr(core, "GRAIN", 1)
    monkeypatch.setattr(core, "WORKERS", 2)
    n = 1024
    rng = np.random.default_rng(12)
    A = rng.standard_normal((n, n))
    B = rng.standard_normal((n, n))
    fft_sparse_first_order_multiply(A, B, 10, 1)  # warm caches outside the trace
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fft_sparse_first_order_multiply(A, B, 10, 1)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= 4.25 * n * n * 16
