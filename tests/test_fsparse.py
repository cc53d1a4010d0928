"""Tests for row-wise Fourier sparsification and the sparse product path."""

import dataclasses
import itertools
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp

from apxmm import core, fsparse
from apxmm.core import relative_error, unitary_dft
from apxmm.fsparse import (
    SparseRowMatrix,
    fft_sparse_first_order_multiply,
    sparse_dense_multiply,
    topk_sparsify,
)
from apxmm.genmat import MatrixSpec, generate

from oracles import matmul_naive


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
        kept = np.linalg.norm(S.to_dense())
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


def _odd_budget_input(kind):
    """Inputs at the products' own budgets: the rows of A W* and of the
    F-order (W B).T that sparsify_b="cols" selects on, for real factors, are
    conjugate-symmetric, so an odd k splits a pair in most rows. n = 130
    leaves a partial last piece. "piece-boundary" has distinct moduli in
    every row but 63 and 64, the last row of one 64-row piece and the first
    of the next, whose 9th and 10th largest moduli tie."""
    if kind == "piece-boundary":
        rng = np.random.default_rng(24)
        M = rng.permuted(np.tile(np.arange(1.0, 25.0), (130, 1)), axis=1)
        M[63:65][M[63:65] == 15.0] = -16.0
        return M
    name, n = kind.rsplit("-", 1)
    X = np.random.default_rng(int(n)).standard_normal((int(n), int(n)))
    if name == "AW*":
        return unitary_dft(X, "inverse", axis=1)
    return unitary_dft(X, "forward", axis=0).T


@pytest.mark.parametrize("kind", ["AW*-130", "AW*-512", "(WB).T-130", "(WB).T-512",
                                  "piece-boundary"])
@pytest.mark.parametrize("k", [9, 11])
def test_topk_odd_budgets_match_per_row_stable_argsort(kind, k, one_and_split):
    M = _odd_budget_input(kind)
    rows = M.shape[0]
    mag = np.abs(M)
    tied = np.count_nonzero(mag >= -np.sort(-mag, axis=1)[:, k - 1:k], axis=1) > k
    if kind == "piece-boundary":
        assert np.flatnonzero(tied).tolist() == ([63, 64] if k == 9 else [])
    else:
        assert tied.any() and not tied.all()
        assert M.flags.c_contiguous != kind.startswith("(WB).T")
    one, split = one_and_split(lambda: topk_sparsify(M, k))
    assert _csr_bytes(one) == _csr_bytes(split)
    want_cols, want_vals = _oracle_topk(M, k)
    np.testing.assert_array_equal(one.csr.indptr, np.arange(rows + 1) * k)
    np.testing.assert_array_equal(one.csr.indices.reshape(want_cols.shape), want_cols)
    assert one.csr.data.tobytes() == want_vals.tobytes()


def test_topk_peak_memory_is_a_few_pieces():
    # a one-thread selection at n = 512 holds temporaries of one 64-row
    # piece, not n x n ones. Above the output CSR, an argpartition per piece
    # with a full-row tie redo peaked at 2.06-2.13 pieces of 64 x 512
    # complex entries on these inputs, and the threshold selection at 1.0;
    # the bound is 2.13 plus 0.37 pieces. Selecting the whole matrix at once
    # holds its moduli alone in 4 pieces.
    n = 512
    assert core.pass_workers(n * n) == 1
    rng = np.random.default_rng(25)
    piece = core.SUB_ROWS * n * 16
    for M in (_tie_heavy_input("conj-symmetric-512"),
              rng.integers(-2, 3, (n, n)) + 1j * rng.integers(-2, 3, (n, n))):
        for k in (9, 11):
            topk_sparsify(M, k)  # warm caches outside the trace
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                S = topk_sparsify(M, k)
                peak = tracemalloc.get_traced_memory()[1] - base
            finally:
                tracemalloc.stop()
            out = S.csr.data.nbytes + S.csr.indices.nbytes + S.csr.indptr.nbytes
            assert peak - out <= 2.5 * piece, (k, (peak - out) / piece)


def test_disjoint_support_energy_identity():
    # residual energy equals total energy minus kept energy
    rng = np.random.default_rng(8)
    A = rng.standard_normal((12, 16))
    S = topk_sparsify(A, 5)
    D = S.to_dense()
    lhs = np.linalg.norm(A - D) ** 2
    rhs = np.linalg.norm(A) ** 2 - np.linalg.norm(D) ** 2
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
    assert abs(report.norm_da - np.linalg.norm(dA)) < 1e-10
    assert abs(report.norm_db - np.linalg.norm(dB)) < 1e-10


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
    assert abs(report.norm_db - np.linalg.norm(dB)) < 1e-10


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


@pytest.mark.parametrize("k", [0, 5, 24])
@pytest.mark.parametrize("complex_input", [False, True])
@pytest.mark.parametrize("sparsify_b", ["rows", "cols"])
@pytest.mark.parametrize("order", [0, 1])
def test_fft_multiply_apriori_takes_operand_norms_from_truncation(
        k, complex_input, sparsify_b, order):
    # ||A|| and ||B|| come from the kept entries and the residues, which
    # split the transformed factors' energy; k = 0 keeps nothing and
    # k = n keeps everything. Both residue norms are the selections' own
    # and equal the dense ||Atil - dense(SA)|| and ||Btil - dense(SB)||
    n = 24
    rng = np.random.default_rng([17, k, complex_input])
    A = rng.standard_normal((n, n))
    B = rng.standard_normal((n, n))
    if complex_input:
        A = A + 1j * rng.standard_normal((n, n))
    _, report = fft_sparse_first_order_multiply(A, B, k, order, sparsify_b)
    expect = report.norm_da * report.norm_db / (np.linalg.norm(A) * np.linalg.norm(B))
    assert report.apriori_estimate == pytest.approx(expect, rel=1e-13, abs=0)
    Atil = unitary_dft(A, "inverse", axis=1)
    Btil = unitary_dft(B, "forward", axis=0)
    SA = topk_sparsify(Atil, k).to_dense()
    SB = (topk_sparsify(Btil, k).to_dense() if sparsify_b == "rows"
          else topk_sparsify(Btil.T, k).to_dense().T)
    for norm, X, S in ((report.norm_da, Atil, SA), (report.norm_db, Btil, SB)):
        assert abs(norm - np.linalg.norm(X - S)) <= 1e-12 * np.linalg.norm(X)


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
@pytest.mark.parametrize("budget", ["0", "1", "half", "cols"])
def test_split_topk_bit_identical(kind, budget, one_and_split):
    # the selection and its residual norm, the norm of what it drops, are
    # the same bits on one thread and split
    M = _tie_heavy_input(kind)
    k = {"0": 0, "1": 1, "half": M.shape[1] // 2, "cols": M.shape[1]}[budget]

    def run():
        S = topk_sparsify(M, k)
        return _csr_bytes(S), S.residual_norm

    one, split = one_and_split(run)
    assert one == split
    dropped = np.linalg.norm(M - topk_sparsify(M, k).to_dense())
    assert abs(one[1] - dropped) <= 1e-12 * np.linalg.norm(M)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("dtype", [float, complex])
def test_split_topk_rejects_non_finite(bad, dtype, one_and_split, monkeypatch):
    # each block reads finiteness off the moduli it sorts: a bad entry in the
    # first row, the last row or a row tied at the cut, and in a k = 0 call,
    # whose blocks still sum the residue, raise core.NOT_FINITE on one
    # thread and split, with no as_matrix pass
    monkeypatch.setattr(fsparse, "as_matrix", None)
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
    # 150 dense columns on the left and rows on the right: more than one
    # 64-wide slab per block
    rng = np.random.default_rng(19)
    S = topk_sparsify(rng.standard_normal((30, 40)) + 1j * rng.standard_normal((30, 40)), 5)
    shape = (40, 150) if side == "left" else (150, 30)
    D = _dense_layouts(*shape, rng)[layout]
    one, split = one_and_split(lambda: sparse_dense_multiply(S, D, side))
    whole = S.csr @ D if side == "left" else D @ S.csr
    assert one.tobytes() == split.tobytes() == np.ascontiguousarray(whole).tobytes()


def _shape_id(value):
    return "x".join(map(str, value)) if isinstance(value, tuple) else None


# square pairs run one block of each first-order product; the rectangular
# ones (m < n, m > n, and p != n with M written into Btil) run at least three
@pytest.mark.parametrize("shape, complex_input",
                         [(32, False), (33, True), ((140, 200, 150), False),
                          ((200, 140, 150), True), ((160, 160, 300), True)],
                         ids=_shape_id)
@pytest.mark.parametrize("sparsify_b", ["rows", "cols"])
@pytest.mark.parametrize("order", [0, 1])
def test_split_fft_multiply_bit_identical(shape, complex_input, sparsify_b, order,
                                          one_and_split, monkeypatch):
    m, n, p = (shape,) * 3 if isinstance(shape, int) else shape
    rng = np.random.default_rng([20, *np.atleast_1d(shape)])
    A = rng.standard_normal((m, n))
    B = rng.standard_normal((n, p))
    if complex_input:
        A = A + 1j * rng.standard_normal((m, n))
        B = B + 1j * rng.standard_normal((n, p))
    spmm = fsparse.sparse_dense_multiply
    default_grain = core.GRAIN

    def run():
        # order 1 makes one public CSR product per block, the last one
        # short: blocks of SUB_ROWS columns of M on the left and rows on
        # the right where M's product runs on one thread, else of
        # max(SUB_ROWS, ceil(GRAIN / m)) columns and
        # max(SUB_ROWS, ceil(GRAIN / p)) rows
        blocks = {"left": [], "right": []}

        def counted(S, D, side="left"):
            out = spmm(S, D, side)
            blocks[side].append(out.shape[1] if side == "left" else out.shape[0])
            return out

        monkeypatch.setattr(fsparse, "sparse_dense_multiply", counted)
        result = fft_sparse_first_order_multiply(A, B, 5, order, sparsify_b=sparsify_b)
        for side, length, other in (("left", p, m), ("right", m, p)):
            width = (core.SUB_ROWS if core.pass_workers(m * p) == 1
                     else max(core.SUB_ROWS, -(-core.GRAIN // other)))
            expected = [width] * (length // width) + [length % width] * (length % width > 0)
            assert blocks[side] == (expected if order == 1 else [])
        return result

    # every pass split (GRAIN = 1): 64-wide blocks; then blocks wider than
    # SUB_ROWS, set by GRAIN where M's product is pooled, 64-wide where it
    # runs on one thread (the squares here); then the default GRAIN, under
    # which every M here runs on one thread: ceil(p / 64) calls of at most
    # 64 columns on the left and ceil(m / 64) of at most 64 rows on the right
    (M1, rep1), (M2, rep2) = one_and_split(run)
    monkeypatch.setattr(core, "GRAIN", 65 * max(m, p))
    # (the norms' summation order follows GRAIN, so only M is compared)
    M3 = run()[0]
    monkeypatch.setattr(core, "GRAIN", default_grain)
    assert core.pass_workers(m * p) == 1 < core.WORKERS
    M4 = run()[0]
    assert M1.tobytes() == M2.tobytes() == M3.tobytes() == M4.tobytes()
    assert dataclasses.replace(rep1, wall_time=0.0) == dataclasses.replace(rep2, wall_time=0.0)
    if order == 1:
        # the whole-array form of the first order
        Atil = unitary_dft(A, "inverse", axis=1)
        Btil = unitary_dft(B, "forward", axis=0)
        SA = topk_sparsify(Atil, 5)
        SB = (topk_sparsify(Btil, 5) if sparsify_b == "rows"
              else SparseRowMatrix(topk_sparsify(Btil.T, 5).csr.T.tocsr()))
        whole = spmm(SA, Btil) + spmm(SB, Atil - SA.to_dense(), "right")
        assert M1.tobytes() == whole.tobytes()


def _half_spectrum_factors(p, complex_input):
    """A's of 70 rows (two 64-row pieces on one thread) and p columns, and
    one B of p x (p + 2): normal entries, integer ones, whose rows of A W*
    tie at the cut beyond the conjugate pairs, and rows of a type1 matrix."""
    rng = np.random.default_rng([27, p, complex_input])
    m = 70
    parts = [{"normal": rng.standard_normal((m, p)),
              "integer": rng.integers(-3, 4, (m, p)).astype(float),
              "type1": generate(MatrixSpec("type1", max(m, p), seed=p + part))[:m, :p]}
             for part in range(1 + complex_input)]
    As = {kind: parts[0][kind] + (1j * parts[1][kind] if complex_input else 0)
          for kind in parts[0]}
    return As, rng.standard_normal((p, p + 2))


@pytest.mark.parametrize("p", [1, 2, 3, 16, 17, 130])
@pytest.mark.parametrize("complex_input", [False, True], ids=["real", "complex"])
def test_fft_multiply_half_spectrum_bit_identical(p, complex_input, one_and_split):
    # a real A's A W* is held as its first p // 2 + 1 columns: they, SA's
    # CSR and M at both orders equal, byte for byte, what the public calls
    # build from the full transforms, on one thread and split
    As, B = _half_spectrum_factors(p, complex_input)
    budgets = sorted({0, 1, 2, p // 2, p // 2 + 1, p - 1, p} & set(range(p + 1)))
    cases = [(A, k, order) for A in As.values() for k in budgets for order in (0, 1)]

    def run():
        R = [fsparse._inverse_rows(A) for A in As.values()]
        SA = [fsparse._topk_rows(r, p, k) for r in R for k in budgets]
        M = [fft_sparse_first_order_multiply(A, B, k, order)[0].tobytes()
             for A, k, order in cases]
        return ([r.tobytes() for r in R], list(map(_csr_bytes, SA)), M,
                [S.residual_norm for S in SA])

    one, split = one_and_split(run)
    assert one == split
    want = [], [], [], []
    Btil = unitary_dft(B, "forward", axis=0)
    for A in As.values():
        Atil = unitary_dft(A, "inverse", axis=1)
        want[0].append(Atil[:, :p // 2 + 1 if not complex_input else p].tobytes())
        want[1].extend(_csr_bytes(topk_sparsify(Atil, k)) for k in budgets)
        want[3].extend(np.linalg.norm(Atil - topk_sparsify(Atil, k).to_dense())
                       for k in budgets)
    for A, k, order in cases:
        Atil = unitary_dft(A, "inverse", axis=1)
        SA, SB = topk_sparsify(Atil, k), topk_sparsify(Btil, k)
        if order == 0:
            ref = (SA.csr @ SB.csr).toarray()
        else:
            ref = (sparse_dense_multiply(SA, Btil)
                   + sparse_dense_multiply(SB, Atil - SA.to_dense(), "right"))
        want[2].append(ref.tobytes())
    assert one[:3] == want[:3]
    # the residual norm of the selection on the half spectrum is that of
    # the whole transform's; k = 0 is a budget, so want[3] holds ||Atil||
    np.testing.assert_allclose(one[3], want[3], rtol=0, atol=1e-12 * max(want[3]))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("complex_input", [False, True], ids=["real", "complex"])
def test_fft_multiply_rejects_non_finite_a_in_any_piece(bad, complex_input, one_and_split):
    # A's transform is selected one 64-row piece at a time: a bad entry in
    # the first, a middle or the last piece of 150 rows raises at k = 0,
    # where no entry is kept, and at k > 0, at both orders
    rng = np.random.default_rng(28)
    A = rng.standard_normal((150, 17)) + (1j * rng.standard_normal((150, 17))
                                          if complex_input else 0)
    B = rng.standard_normal((17, 17))

    def check():
        errors = []
        for row, k, order in itertools.product((0, 100, 149), (0, 3), (0, 1)):
            X = A.copy()
            X[row, 16 - row % 17] = bad
            with pytest.raises(ValueError) as err:
                fft_sparse_first_order_multiply(X, B, k, order)
            errors.append(str(err.value))
        return errors

    one, split = one_and_split(check)
    assert one == split == [core.NOT_FINITE] * 12


def test_split_first_order_peak_memory(monkeypatch):
    # one n x n complex array, Btil, turns into M one 64-column block of
    # SA @ Btil at a time; then each 64-row block of dAt @ SB is added into
    # M. A real A's transform is held as its n x (n/2 + 1) half spectrum,
    # from which each block of dAt is rebuilt into one buffer; a complex
    # A's is all of Atil, zeroed into dAt in place. The selections allocate
    # per 64-row piece. Every pass split (GRAIN = 1) at n = 1024 gives
    # 64-wide blocks; at n = 512 and the default GRAIN the product runs on
    # one thread, which also takes 64-wide blocks. Peaks in n x n arrays,
    # at 1024 and 512: a real A 1.668 and 2.064 (the bounds add 0.08 and
    # 0.086), a complex one 2.103 and 2.437, which is what either read
    # with Atil held whole; a block as wide as M read 3.31 at 512
    monkeypatch.setattr(core, "WORKERS", 2)
    cases = [(False, 1, 1024, 1.75), (False, core.GRAIN, 512, 2.15),
             (True, 1, 1024, 2.2), (True, core.GRAIN, 512, 2.5)]
    for complex_input, grain, n, bound in cases:
        monkeypatch.setattr(core, "GRAIN", grain)
        rng = np.random.default_rng(12)
        A = rng.standard_normal((n, n))
        B = rng.standard_normal((n, n))
        if complex_input:
            A = A + 1j * rng.standard_normal((n, n))
        fft_sparse_first_order_multiply(A, B, 10, 1)  # warm caches outside the trace
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            fft_sparse_first_order_multiply(A, B, 10, 1)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= bound * n * n * 16, (complex_input, n, peak / (n * n * 16))
