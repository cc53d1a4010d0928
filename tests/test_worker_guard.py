"""No public apxmm function runs on a worker thread of a split pass.

The benchmark's tracer wraps the package's public functions and keeps one
span stack per process, so the blocks core.for_blocks hands to its pool may
call only numpy and scipy (see its docstring). These tests wrap every
function in the ``__all__`` of the numeric modules, and the public methods
of the classes listed there, with a check that it runs on the main thread,
then run every product with every pass cut into blocks on three workers.
"""

import functools
import inspect
import sys
import threading

import numpy as np
import pytest

from apxmm import baseline, circulant, core, errest, fsparse, report, svd

GUARDED = (core, fsparse, circulant, svd, errest, report)


def _package_modules():
    return [m for name, m in sys.modules.items() if name.split(".")[0] == "apxmm"]


def _guard(fn, name, strays):
    @functools.wraps(fn)
    def guarded(*args, **kwargs):
        if threading.current_thread() is not threading.main_thread():
            strays.append(name)
            raise AssertionError(f"{name} ran on {threading.current_thread().name}")
        return fn(*args, **kwargs)

    return guarded


def _patch_everywhere(monkeypatch, name, original, replacement):
    # every module that imported the function under its own name, as the
    # benchmark's tracer patches them
    for module in _package_modules():
        if vars(module).get(name) is original:
            monkeypatch.setattr(module, name, replacement)


@pytest.fixture
def split_run(monkeypatch):
    """Guard every public function, force every pass to split on three
    workers, and return (stray calls off the main thread, threads that ran
    blocks)."""
    strays, block_threads = [], set()
    for module in GUARDED:
        for name in module.__all__:
            obj = getattr(module, name)
            label = f"{module.__name__}.{name}"
            if inspect.isfunction(obj):
                _patch_everywhere(monkeypatch, name, obj, _guard(obj, label, strays))
            elif inspect.isclass(obj):
                for attr, fn in list(vars(obj).items()):
                    if inspect.isfunction(fn) and not attr.startswith("_"):
                        monkeypatch.setattr(obj, attr, _guard(fn, f"{label}.{attr}", strays))

    for_blocks = core.for_blocks

    def spied(fn, *args, **kwargs):
        def block(lo, hi):
            block_threads.add(threading.current_thread().name)
            fn(lo, hi)

        for_blocks(block, *args, **kwargs)

    _patch_everywhere(monkeypatch, "for_blocks", for_blocks, spied)
    monkeypatch.setattr(core, "GRAIN", 1)
    monkeypatch.setattr(core, "WORKERS", 3)
    return strays, block_threads


def test_guard_wraps_the_public_functions(split_run):
    assert fsparse.topk_sparsify.__wrapped__ is not None
    assert fsparse.SparseRowMatrix.to_dense.__wrapped__ is not None
    assert circulant.as_matrix is core.as_matrix
    assert core.as_pair.__wrapped__ is not None
    assert core.as_matrix.__wrapped__ is not None


def test_no_public_function_on_a_worker_thread(split_run):
    strays, block_threads = split_run
    rng = np.random.default_rng(21)
    n, k = 48, 6
    A = rng.standard_normal((n, n))
    B = rng.standard_normal((n, n))
    Z = A + 1j * rng.standard_normal((n, n))
    for order in (0, 1):
        svd.svd_first_order_multiply(A, B, 1, order, seed=0)
        # the real path of cd on a real pair, the complex one on a complex pair
        for X, Y in ((A, B), (Z, Z.T)):
            assert circulant.circulant_first_order_multiply(X, Y, k, order)[0].dtype \
                == Y.dtype
        for sparsify_b in ("rows", "cols"):
            fsparse.fft_sparse_first_order_multiply(A, B, k, order, sparsify_b=sparsify_b)
    baseline.randomized_outer_product_multiply(A, B, k, seed=0)
    assert strays == []
    # the pool did run blocks, so the check above saw split passes
    assert any(name != threading.main_thread().name for name in block_threads)
