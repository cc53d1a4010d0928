import multiprocessing
import os
import sys
import threading

import numpy as np
import pytest
from numpy.testing import assert_allclose

from apxmm import core
from apxmm.core import (
    as_matrix,
    as_pair,
    cycle_reorder,
    cycle_reorder_inverse,
    frobenius,
    matmul_naive,
    relative_error,
    unitary_dft,
)


def test_as_matrix_validation():
    with pytest.raises(ValueError):
        as_matrix([1, 2, 3])
    with pytest.raises(ValueError):
        as_matrix(np.zeros((2, 0)))
    with pytest.raises(ValueError):
        as_matrix([[1.0, np.nan]])
    with pytest.raises(ValueError):
        as_matrix([[np.inf, 1.0]])
    with pytest.raises(ValueError):
        as_matrix([[1j]], allow_complex=False)
    out = as_matrix([[1, 2], [3, 4]])
    assert out.dtype == np.float64


def test_as_pair_validation():
    with pytest.raises(ValueError, match="2-D"):
        as_pair([1.0, 2.0], np.eye(2))
    with pytest.raises(ValueError, match="finite"):
        as_pair(np.eye(2), [[1.0, np.nan], [0.0, 1.0]])
    with pytest.raises(ValueError, match="dimension mismatch"):
        as_pair(np.ones((2, 3)), np.ones((2, 3)))
    A, B = as_pair([[1, 2]], [[1j], [2]])
    assert A.dtype == np.float64 and B.dtype == np.complex128
    assert A.shape == (1, 2) and B.shape == (2, 1)


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


def test_frobenius_norm_and_inner():
    A = np.array([[1.0, 2.0], [3.0, 4.0]])
    assert_allclose(frobenius(A) ** 2, 30.0, rtol=1e-15)
    assert_allclose(frobenius(A, A), 30.0, rtol=1e-15)
    # complex inner product conjugates the first argument
    Z = np.array([[1j]])
    assert frobenius(Z, Z) == pytest.approx(1.0)
    assert frobenius(np.array([[1.0]]), Z) == pytest.approx(1j)
    with pytest.raises(ValueError):
        frobenius(A, np.ones((3, 3)))


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


def test_dft_errors():
    with pytest.raises(ValueError):
        unitary_dft(np.array([1.0, 2.0]), "sideways")
    with pytest.raises(ValueError):
        unitary_dft(np.array(1.0))


def test_cycle_reorder_right_layout():
    A = np.arange(16.0).reshape(4, 4)
    expected = np.array([
        [0.0, 4.0, 8.0, 12.0],
        [5.0, 9.0, 13.0, 1.0],
        [10.0, 14.0, 2.0, 6.0],
        [15.0, 3.0, 7.0, 11.0],
    ])
    assert_allclose(cycle_reorder(A, "right"), expected, rtol=0, atol=0)


def test_cycle_reorder_left_layout():
    A = np.arange(16.0).reshape(4, 4)
    expected = np.array([
        [0.0, 3.0, 2.0, 1.0],
        [5.0, 4.0, 7.0, 6.0],
        [10.0, 9.0, 8.0, 11.0],
        [15.0, 14.0, 13.0, 12.0],
    ])
    assert_allclose(cycle_reorder(A, "left"), expected, rtol=0, atol=0)


def test_cycle_columns_are_cycles():
    # column j of the right reordering must be the entry set row - col = j mod n
    A = np.arange(25.0).reshape(5, 5)
    out = cycle_reorder(A, "right")
    for j in range(5):
        expected = sorted(A[i, (i - j) % 5] for i in range(5))
        assert sorted(out[:, j]) == expected


def test_cycle_reorder_roundtrip():
    rng = np.random.default_rng(2)
    A = rng.standard_normal((7, 7))
    for side in ("right", "left"):
        assert_allclose(cycle_reorder_inverse(cycle_reorder(A, side), side), A,
                        rtol=0, atol=0)
    with pytest.raises(ValueError):
        cycle_reorder(A, "middle")
    with pytest.raises(ValueError):
        cycle_reorder(np.ones((2, 3)), "right")


def _cycle_reorder_reference(A, side):
    I, J = np.indices(A.shape)
    n = A.shape[0]
    return A[(I + J) % n, I] if side == "right" else A[I, (I - J) % n]


def _cycle_reorder_inverse_reference(At, side):
    R, C = np.indices(At.shape)
    n = At.shape[0]
    return At[C, (R - C) % n] if side == "right" else At[R, (R - C) % n]


@pytest.mark.parametrize("n", [1, 2, 7, 64])
def test_cycle_reorder_matches_index_reference(n):
    rng = np.random.default_rng(n)
    real = rng.standard_normal((n, n))
    cplx = real + 1j * rng.standard_normal((n, n))
    sliced = rng.standard_normal((2 * n, 3 * n))[::2, 1::3]
    for A in (real, cplx, np.asfortranarray(cplx), sliced, sliced.T):
        for side in ("right", "left"):
            for fn, ref in ((cycle_reorder, _cycle_reorder_reference),
                            (cycle_reorder_inverse, _cycle_reorder_inverse_reference)):
                out = fn(A, side)
                assert_allclose(out, ref(A, side), rtol=0, atol=0)
                assert out.flags.c_contiguous and out.flags.writeable
                assert not np.shares_memory(out, A)


SPLIT_SIZES = [1, 2, 3, 31, 64]


@pytest.mark.parametrize("n", SPLIT_SIZES)
def test_split_cycle_reorder_bit_identical(n, one_and_split):
    rng = np.random.default_rng(n)
    real = rng.standard_normal((n, n))
    for A in (real, real + 1j * rng.standard_normal((n, n))):
        for side in ("right", "left"):
            for fn in (cycle_reorder, cycle_reorder_inverse):
                one, split = one_and_split(lambda: fn(A, side))
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
            for direction, fft in (("forward", np.fft.fft), ("inverse", np.fft.ifft)):
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


def _split_dft_matches(x, expected):
    assert unitary_dft(x, "forward", 0).tobytes() == expected.tobytes()


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
def test_split_pass_in_forked_child(monkeypatch):
    # the child inherits none of the pool threads, so it must start its own
    monkeypatch.setattr(core, "GRAIN", 1)
    monkeypatch.setattr(core, "WORKERS", 2)
    x = np.random.default_rng(9).standard_normal((16, 16))
    expected = unitary_dft(x, "forward", 0)  # starts the pool here
    child = multiprocessing.get_context("fork").Process(
        target=_split_dft_matches, args=(x, expected))
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
