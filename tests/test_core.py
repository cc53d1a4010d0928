import multiprocessing
import os
import re
import sys
import threading
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
import scipy.fft
from numpy.testing import assert_allclose

from apxmm import baseline, circulant, core, fsparse, svd
from apxmm.core import (
    as_matrix,
    cycle_reorder,
    relative_error,
    unitary_dft,
)

from oracles import matmul_naive


def test_as_matrix_validation():
    with pytest.raises(ValueError):
        as_matrix([1, 2, 3])
    with pytest.raises(ValueError):
        as_matrix(np.zeros((2, 0)))
    with pytest.raises(ValueError):
        as_matrix([[1.0, np.nan]])
    with pytest.raises(ValueError):
        as_matrix([[np.inf, 1.0]])
    assert as_matrix([[1, 2], [3, 4]]).dtype == np.float64
    assert as_matrix([[1j]]).dtype == np.complex128


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_split_as_matrix_finite_check(bad, one_and_split):
    # the check runs in row blocks; an entry in the last row, the last block
    # of a split pass, fails it as on one thread
    for shape, where in (((64, 64), (63, 63)), ((64, 64), (63, 0)), ((5, 7), (4, 6))):
        A = np.zeros(shape)
        A[where] = bad
        for x in (A, A + 0j, np.asfortranarray(A), A.T):
            def check():
                with pytest.raises(ValueError, match="finite") as err:
                    as_matrix(x)
                return str(err.value)

            one, split = one_and_split(check)
            assert one == split


def test_coerce_pair_validation():
    # the operands' shapes and dtypes; their entries are each product's to
    # check, by the first pass that reads them (the tests below)
    with pytest.raises(ValueError, match="2-D"):
        core._coerce_pair([1.0, 2.0], np.eye(2))
    with pytest.raises(ValueError, match="dimension mismatch"):
        core._coerce_pair(np.ones((2, 3)), np.ones((2, 3)))
    A, B = core._coerce_pair([[1, 2]], [[1j], [2]])
    assert A.dtype == np.float64 and B.dtype == np.complex128
    assert A.shape == (1, 2) and B.shape == (2, 1)


def _counted_calls():
    """(parameter, call) for every count parameter of the package: each call
    takes the count and returns what it computed, comparable with ==."""
    rng = np.random.default_rng(4)
    A, B = rng.standard_normal((2, 16, 16))
    spectrum = circulant.circulant_decompose(A)

    def product(result):
        M, report = result
        return M.tobytes(), replace(report, wall_time=0.0), type(report.k)

    def decomposition(d):
        return d.U.tobytes(), d.sigma.tobytes(), d.V.tobytes()

    return {
        "svd-s": ("s", lambda v: product(svd.svd_first_order_multiply(A, B, v, 1, 0))),
        "cd-k": ("k", lambda v: product(circulant.circulant_first_order_multiply(A, B, v, 1))),
        "sfft-k": ("k", lambda v: product(fsparse.fft_sparse_first_order_multiply(A, B, v, 1))),
        "lowrank-c": ("c", lambda v: product(
            baseline.randomized_outer_product_multiply(A, B, v, 0))),
        "topk_sparsify-k": ("k", lambda v: fsparse.topk_sparsify(A, v).to_dense().tobytes()),
        "circulant_select-k": ("k", lambda v: circulant.circulant_select(spectrum, v).selected),
        "randomized_partial_svd-s": ("s", lambda v: decomposition(
            svd.randomized_partial_svd(A, v, 0))),
        "randomized_partial_svd-components": ("components", lambda v: decomposition(
            svd.randomized_partial_svd(A, 1, 0, components=v))),
        "component_count-n": ("n", lambda v: svd.component_count(v, 1)),
        "component_count-s": ("s", lambda v: svd.component_count(16, v)),
    }


@pytest.mark.parametrize("label", list(_counted_calls()))
def test_counts_are_integers(label):
    # a fractional budget is refused, not truncated where it is used (sfft
    # would keep 2 entries and report k = 2.5; lowrank would draw 3 samples
    # and scale each by 1 / (2.5 p)), and so is a bool, which would pass as 1
    name, call = _counted_calls()[label]
    for bad in (2.5, True, np.float64(2.0), "2"):
        with pytest.raises(TypeError, match=f"^{name} must be an integer"):
            call(bad)
    # a numpy integer is the Python int it holds, so a report's k is an int
    assert call(np.int64(2)) == call(2)


# every product of the package on a square pair, k = 5 where it takes one
PRODUCTS = {
    **{f"svd{o}": lambda A, B, o=o: svd.svd_first_order_multiply(A, B, 1, o, seed=0)
       for o in (0, 1)},
    **{f"cd{o}": lambda A, B, o=o: circulant.circulant_first_order_multiply(A, B, 5, o)
       for o in (0, 1)},
    **{f"sfft{o}-{b}": lambda A, B, o=o, b=b: fsparse.fft_sparse_first_order_multiply(
        A, B, 5, o, sparsify_b=b) for o in (0, 1) for b in ("rows", "cols")},
    "lowrank": lambda A, B: baseline.randomized_outer_product_multiply(A, B, 5, seed=0),
}


@pytest.mark.parametrize("label, dtype", [
    *((label, float) for label in PRODUCTS),
    *((label, complex) for label in PRODUCTS if label.startswith(("cd", "sfft"))),
])
def test_finite_operands_reach_no_as_matrix(label, dtype, monkeypatch):
    # the first pass that reads every entry of a factor is its NaN/inf
    # check, so no module hands a finite operand to as_matrix; sfft1's
    # sparse_dense_multiply checks its own Btil and dAt, which are not
    # operands
    calls = []
    real = core.as_matrix

    def counted(a):
        calls.append(a)
        return real(a)

    # every module that imported as_matrix, as the benchmark's tracer patches
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "apxmm" and vars(module).get("as_matrix") is real:
            monkeypatch.setattr(module, "as_matrix", counted)
    assert fsparse.as_matrix is counted
    rng = np.random.default_rng(3)
    A, B = (rng.standard_normal((16, 16)).astype(dtype) for _ in range(2))
    if dtype is complex:
        A.imag, B.imag = rng.standard_normal((2, 16, 16))
    PRODUCTS[label](A, B)
    assert [a for a in calls if np.may_share_memory(a, A) or np.may_share_memory(a, B)] == []


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_pooled_products_reject_non_finite_operands(bad, one_and_split, monkeypatch):
    # cd and sfft make no up-front pass over their operands: a NaN or an inf
    # at the first or the last entry of either factor, real or complex,
    # fails the first pass that reads it (cd's cycle gather, or the sum of
    # B's squares at order 0; sfft's top-k selection of the transformed row
    # or column it spreads over, at k = 0 too, with no as_matrix pass), at
    # n = 37, a Bluestein length, on one thread and split
    monkeypatch.setattr(fsparse, "as_matrix", None)
    n = 37
    rng = np.random.default_rng(23)
    pairs = []
    for dtype in (float, complex):
        good = [rng.standard_normal((n, n)).astype(dtype) for _ in range(2)]
        if dtype is complex:
            for X in good:
                X.imag = rng.standard_normal((n, n))
        for side in (0, 1):
            for where in ((0, 0), (n - 1, n - 1)):
                pair = list(good)
                pair[side] = good[side].copy()
                pair[side][where] = bad
                pairs.append(pair)
    runs = [lambda A, B, o=o: circulant.circulant_first_order_multiply(A, B, 5, o)
            for o in (0, 1)]
    runs += [lambda A, B, o=o, k=k, b=b: fsparse.fft_sparse_first_order_multiply(
        A, B, k, o, sparsify_b=b) for o in (0, 1) for k in (0, 5) for b in ("rows", "cols")]

    def check():
        for run in runs:
            for A, B in pairs:
                with pytest.raises(ValueError, match=re.escape(core.NOT_FINITE)):
                    run(A, B)

    one_and_split(check)


def test_matmul_2x2_oracle():
    got = matmul_naive([[1, 2], [3, 4]], [[5, 6], [7, 8]])
    assert_allclose(got, [[19.0, 22.0], [43.0, 50.0]], rtol=0, atol=0)


def test_matmul_matches_blas():
    rng = np.random.default_rng(0)
    A = rng.standard_normal((17, 23))
    B = rng.standard_normal((23, 5))
    assert_allclose(matmul_naive(A, B), A @ B, rtol=1e-13, atol=1e-13)


def test_matmul_dimension_mismatch():
    with pytest.raises(ValueError):
        matmul_naive(np.ones((2, 3)), np.ones((2, 3)))


def test_dft_length_two():
    a, b = 3.0, 5.0
    got = unitary_dft(np.array([a, b]))
    assert_allclose(got, [(a + b) / np.sqrt(2), (a - b) / np.sqrt(2)], atol=1e-15)


def test_dft_matches_explicit_matrix():
    for n in (3, 4, 7):
        p, q = np.indices((n, n))
        W = np.exp(-2j * np.pi * p * q / n) / np.sqrt(n)
        got = unitary_dft(np.eye(n), "forward", axis=0)
        assert_allclose(got, W, atol=1e-12)


def test_dft_parseval_and_roundtrip():
    rng = np.random.default_rng(1)
    # includes primes and a size large enough to hit the non-power-of-two path
    for n in (2, 3, 5, 8, 31, 64, 97, 700):
        x = rng.standard_normal(n)
        y = unitary_dft(x)
        assert np.linalg.norm(y) == pytest.approx(np.linalg.norm(x), rel=1e-12)
        back = unitary_dft(y, "inverse")
        assert_allclose(back.real, x, atol=1e-10)
        assert np.max(np.abs(back.imag)) < 1e-10


@pytest.mark.parametrize("n", [16, 31, 512])
def test_dft_of_real_input_is_exactly_conjugate_symmetric(n):
    # entry t and entry n - t of every transformed line are exact conjugates
    A = np.random.default_rng(n).standard_normal((n, n))
    for axis in (0, 1):
        for direction in ("forward", "inverse"):
            out = unitary_dft(A, direction, axis)
            lines = out if axis == 1 else out.T
            assert np.array_equal(lines[:, 1:], np.conj(lines[:, :0:-1]))


@pytest.mark.parametrize("workers", [1, 2])
def test_real_dft_peak_memory(workers, monkeypatch):
    # the real-input path makes no complex copy of the input: the output is
    # the only n x n complex array, one thread or split
    monkeypatch.setattr(core, "GRAIN", 1)
    monkeypatch.setattr(core, "WORKERS", workers)
    n = 1024
    A = np.random.default_rng(4).standard_normal((n, n))
    for axis in (0, 1):
        for direction in ("forward", "inverse"):
            unitary_dft(A, direction, axis)  # warm plan caches outside the trace
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                unitary_dft(A, direction, axis)
                peak = tracemalloc.get_traced_memory()[1] - base
            finally:
                tracemalloc.stop()
            assert peak / (n * n * 16) <= 1.05


def test_dft_errors():
    with pytest.raises(ValueError):
        unitary_dft(np.array([1.0, 2.0]), "sideways")
    with pytest.raises(ValueError):
        unitary_dft(np.array(1.0))


def test_cycle_reorder_right_layout():
    A = np.arange(16.0).reshape(4, 4)
    expected = np.array([
        [0.0, 5.0, 10.0, 15.0],
        [4.0, 9.0, 14.0, 3.0],
        [8.0, 13.0, 2.0, 7.0],
        [12.0, 1.0, 6.0, 11.0],
    ])
    assert_allclose(cycle_reorder(A), expected, rtol=0, atol=0)
    with pytest.raises(ValueError, match="square"):
        cycle_reorder(np.ones((2, 3)))


def test_cycle_rows_are_cycles():
    # row j of the right reordering must be the entry set row - col = j mod n
    A = np.arange(25.0).reshape(5, 5)
    out = cycle_reorder(A)
    for j in range(5):
        expected = sorted(A[i, (i - j) % 5] for i in range(5))
        assert sorted(out[j]) == expected


def _cycle_reorder_reference(A):
    J, I = np.indices(A.shape)
    return A[(I + J) % A.shape[0], I]


@pytest.mark.parametrize("n", [1, 2, 7, 64, 65, 130, 200])
def test_cycle_reorder_matches_index_reference(n):
    # n = 64 is one 64-column slab; 65, 130 and 200 end in a ragged slab
    rng = np.random.default_rng(n)
    real = rng.standard_normal((n, n))
    cplx = real + 1j * rng.standard_normal((n, n))
    sliced = rng.standard_normal((2 * n, 3 * n))[::2, 1::3]
    for A in (real, cplx, np.asfortranarray(cplx), sliced, sliced.T):
        out = cycle_reorder(A)
        assert_allclose(out, _cycle_reorder_reference(A), rtol=0, atol=0)
        assert out.flags.c_contiguous and out.flags.writeable
        assert not np.shares_memory(out, A)


SPLIT_SIZES = [1, 2, 3, 31, 64, 65, 130, 200]


@pytest.mark.parametrize("n", SPLIT_SIZES)
def test_split_cycle_reorder_bit_identical(n, one_and_split):
    rng = np.random.default_rng(n)
    real = rng.standard_normal((n, n))
    for A in (real, real + 1j * rng.standard_normal((n, n))):
        one, split = one_and_split(lambda: cycle_reorder(A))
        assert one.tobytes() == split.tobytes()


@pytest.mark.parametrize("n", SPLIT_SIZES)
def test_split_unitary_dft_bit_identical(n, one_and_split):
    rng = np.random.default_rng(n)
    real = rng.standard_normal((n, n + 2))
    cplx = real + 1j * rng.standard_normal(real.shape)
    for x in (real, cplx, np.asfortranarray(cplx), cplx[:, 1::2], real[::-1]):
        for axis in (0, 1, -1, -2):
            for direction in ("forward", "inverse"):
                one, split = one_and_split(lambda: unitary_dft(x, direction, axis))
                assert one.tobytes() == split.tobytes()
                assert one.strides == split.strides


def test_split_unitary_dft_other_ranks(monkeypatch):
    monkeypatch.setattr(core, "GRAIN", 1)
    monkeypatch.setattr(core, "WORKERS", 3)
    rng = np.random.default_rng(5)
    vector = rng.standard_normal(17)
    cube = rng.standard_normal((3, 4, 5)) + 1j * rng.standard_normal((3, 4, 5))
    for x, axes in ((vector, (0, -1)), (cube, (0, 1, 2, -1))):
        for axis in axes:
            for direction, fft in (("forward", scipy.fft.fft), ("inverse", scipy.fft.ifft)):
                out = unitary_dft(x, direction, axis)
                assert out.tobytes() == fft(x, axis=axis, norm="ortho").tobytes()


def test_for_blocks_cover_each_index_once(monkeypatch):
    # more threads than cores and a short switch interval, so a block taken
    # twice or lost between threads would show as a count other than 1
    monkeypatch.setattr(core, "GRAIN", 1)
    monkeypatch.setattr(core, "WORKERS", 2 * (os.cpu_count() or 1) + 2)
    core._pool.cache_clear()  # a pool of WORKERS - 1 threads for this test
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for length in (1, 2, 5, 100, 1000):
            hits = np.zeros(length, dtype=int)

            def count(lo, hi):
                hits[lo:hi] += 1

            core.for_blocks(count, length, length, chunks=8)
            assert (hits == 1).all()
    finally:
        sys.setswitchinterval(interval)
        core._pool.cache_clear()
    # below the grain the whole range is one block on the calling thread
    monkeypatch.setattr(core, "GRAIN", 1000)
    calls = []
    core.for_blocks(lambda lo, hi: calls.append((lo, hi, threading.current_thread())),
                    50, 999, chunks=8)
    assert calls == [(0, 50, threading.current_thread())]


def test_for_blocks_raises_pool_thread_error(monkeypatch):
    monkeypatch.setattr(core, "GRAIN", 1)
    monkeypatch.setattr(core, "WORKERS", 2)
    caller = threading.current_thread()
    pool_block_ran = threading.Event()

    def block(lo, hi):
        if threading.current_thread() is caller:
            pool_block_ran.wait(10)  # leave a block to the pool thread
            return
        pool_block_ran.set()
        raise RuntimeError(f"block {lo}:{hi} failed")

    with pytest.raises(RuntimeError, match="failed"):
        core.for_blocks(block, 2, 2)
    assert pool_block_ran.is_set()


def _split_passes_match(x, expected):
    assert cycle_reorder(x).tobytes() == expected[0].tobytes()
    assert unitary_dft(x, "forward", 0).tobytes() == expected[1].tobytes()


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
def test_split_pass_in_forked_child(monkeypatch):
    # the child inherits none of the pool threads, nor scipy.fft's, so both
    # must start their own
    monkeypatch.setattr(core, "GRAIN", 1)
    monkeypatch.setattr(core, "WORKERS", 2)
    x = np.random.default_rng(9).standard_normal((16, 16))
    expected = cycle_reorder(x), unitary_dft(x, "forward", 0)  # start both here
    child = multiprocessing.get_context("fork").Process(
        target=_split_passes_match, args=(x, expected))
    child.start()
    child.join(60)
    if child.is_alive():
        child.terminate()
        child.join(10)
    assert child.exitcode == 0


def test_relative_error():
    ref = np.array([[3.0, 4.0], [0.0, 0.0]])
    assert relative_error(ref, ref) == 0.0
    assert relative_error(np.zeros((2, 2)), ref) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        relative_error(ref, np.zeros((2, 2)))
    with pytest.raises(ValueError):
        relative_error(ref, np.zeros((3, 3)))
    # its two norms are the finiteness checks of both matrices
    for bad in (np.nan, np.inf, -np.inf):
        X = ref.copy()
        X[1, 1] = bad
        for args in ((X, ref), (ref, X), (X, np.zeros((2, 2)))):
            with pytest.raises(ValueError, match=re.escape(core.NOT_FINITE)):
                relative_error(*args)
    # finite entries whose norms overflow or underflow pass, and their
    # ratio is taken over their largest parts: ||C_ref||, ||C_ref - M||,
    # both, or ||C_ref|| underflowing to 0
    big = np.array([[1e200, 1.0], [0.0, 0.0]])
    full = np.full((4, 4), 1e200)
    with np.errstate(over="ignore", under="ignore"):
        assert relative_error(big - [[0.0, 1.0], [0.0, 0.0]], big) == pytest.approx(1e-200, abs=0)
        assert relative_error(big, np.eye(2)) == pytest.approx(1e200 / np.sqrt(2), abs=0)
        assert relative_error(0.5 * full, full) == pytest.approx(0.5, abs=0)
        assert relative_error(full, full) == 0.0
        assert relative_error(-1e308 - 1e308j + 0 * full, 1e308 + 0 * full) == pytest.approx(
            np.sqrt(5), abs=0)
        tiny = np.full((4, 4), 1e-200)
        assert relative_error(0.5 * tiny, tiny) == pytest.approx(0.5, abs=0)


@pytest.mark.parametrize("complex_input", [False, True])
def test_relative_error_is_scale_equivariant_bitwise(complex_input):
    # at 2^600 the norms overflow and at 2^-600 the reference's underflows
    # to 0: the rerun on power-of-two scaled matrices gives the unscaled
    # ratio bit for bit, with no warning of the overflow it handles
    rng = np.random.default_rng(26)
    M, C = rng.standard_normal((2, 20, 30))
    if complex_input:
        M, C = M + 1j * rng.standard_normal((20, 30)), C + 1j * rng.standard_normal((20, 30))
    want = relative_error(M, C)
    for e in (600, -600):
        assert relative_error(M * 2.0**e, C * 2.0**e) == want
