"""Workloads, timed product rounds and the metrics computed from them.

One run = one workload, one seed, one process:

1. set-up: generate the pair and make one warm-up call per method under
   tracemalloc, which gives the peak memory of each method;
2. correctness targets (checks.py), untimed;
3. rounds: each round calls the seven products in a fixed order, timing
   each public call and checking its output right after, untimed. Each
   product is called again until its calls in the round add up to
   MIN_CALL_S, so fast products get many samples. Before each
   product the round times one reference pass (`reference_pass`). Rounds
   repeat until `seconds` have passed and at least MIN_ROUNDS ran. A
   traced run alternates traced and untraced rounds, so the tracing
   overhead is measured in the same process.

The end-to-end product times are medians divided by the median reference
pass of the same run: the host's speed drifts by 20-35% over minutes, which
moves raw seconds of identical code by more than any usable bound, while a
pass of the same kind of work, measured between the products, drifts with
it. Raw seconds are kept as per-layer metrics.

svd and lowrank are called with the fixed METHOD_SEED: their error varies
with the sketch by about 25% between method seeds, so a seed-dependent
method seed would hide changes of a few percent. The workload seed picks
the matrices only.
"""

from __future__ import annotations

import math
import statistics
import time
import tracemalloc
from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np

from apxmm import baseline, circulant, cli, core, errest, fsparse, genmat, svd

import checks
from tracer import Tracer

MIN_ROUNDS = 2
MIN_CALL_S = 1.0
METHOD_SEED = 0
PRODUCTS = ("svd0", "svd1", "cd0", "cd1", "sfft0", "sfft1", "lowrank")
WARM_UP = ("svd1", "cd1", "sfft1", "lowrank")
MiB = 2.0**20


@dataclass(frozen=True)
class Workload:
    """A matrix pair family and size, and the budget level s that fixes k.

    Why each workload exists is recorded in BENCHMARK.json and NOTES.md.
    """

    name: str
    kind_a: str
    kind_b: str
    n: int
    s: int

    @property
    def k(self) -> int:
        """cd/sfft component count and lowrank sample count: ceil(s log2 n),
        the rule of the CLI's components_for."""
        return math.ceil(self.s * math.log2(self.n))


# highk-1024 runs by hand but is not in BENCHMARK.json: its sfft0 time
# spread 0.17-0.30 of the median across sets of ten runs, above any bound
# the benchmark may set (NOTES.md).
WORKLOADS = {w.name: w for w in (
    Workload("lowk-2048", "general", "toeplitz", 2048, 1),
    Workload("highk-1024", "general", "toeplitz", 1024, 6),
    Workload("haar-512", "type1", "type1", 512, 1),
)}

END_TO_END_UNITS = {
    "setup_s": "s",
    **{f"{p}_passes": "pass" for p in PRODUCTS},
    **{f"{p}_relerr": "ratio" for p in ("svd1", "cd1", "sfft1")},
    **{f"{p}_est_factor": "ratio" for p in ("svd1", "cd1", "sfft1")},
    "peak_mb": "MiB",
    "passed_frac": "ratio",
}

PER_LAYER_UNITS = {
    "ref.blas_s": "s", "ref.blas_gflops": "GFLOP/s", "ref.pass_s": "s",
    **{f"product.{p}_s": "s" for p in PRODUCTS},
    "genmat.generate_s": "s",
    "core.as_matrix_s": "s", "core.unitary_dft_s": "s", "core.cycle_reorder_s": "s",
    "svd.decompose_s": "s", "svd.reconstruct_s": "s", "svd.apply0_s": "s",
    "svd.apply1_s": "s", "svd.k": "count", "svd.peak_mb": "MiB",
    "svd.model_gflops": "GFLOP/s",
    "circulant.decompose_s": "s", "circulant.select_s": "s",
    "circulant.materialize_s": "s", "circulant.left_apply_s": "s",
    "circulant.right_apply_s": "s", "circulant.k": "count",
    "circulant.peak_mb": "MiB", "circulant.model_gflops": "GFLOP/s",
    "fsparse.transform_s": "s", "fsparse.sparsify_s": "s", "fsparse.to_dense_s": "s",
    "fsparse.spmm_left_s": "s", "fsparse.spmm_right_s": "s", "fsparse.nnz": "count",
    "fsparse.peak_mb": "MiB", "fsparse.model_gflops": "GFLOP/s",
    "baseline.per_sample_s": "s", "baseline.relerr": "ratio", "baseline.peak_mb": "MiB",
    "errest.estimate_s": "s",
    **{f"errest.{p}_apriori_factor": "ratio" for p in ("svd1", "cd1", "sfft1")},
    **{f"report.{m}_outside_s": "s" for m in ("svd", "cd", "sfft", "lowrank")},
    "trace.overhead_s": "s",
}


def method_of(label: str) -> str:
    return label.rstrip("01")


def order_of(label: str) -> int:
    return 1 if label.endswith("1") else 0


def budget(label: str, w: Workload) -> dict:
    """The budget each product is given: svd takes s, cd/sfft k, lowrank c."""
    method = method_of(label)
    if method == "svd":
        return {"s": w.s}
    return {"c": w.k} if method == "lowrank" else {"k": w.k}


def call_product(label: str, A, B, w: Workload, seed: int = METHOD_SEED):
    method, order = method_of(label), order_of(label)
    if method == "svd":
        return svd.svd_first_order_multiply(A, B, w.s, order, seed)
    if method == "cd":
        return circulant.circulant_first_order_multiply(A, B, w.k, order)
    if method == "sfft":
        return fsparse.fft_sparse_first_order_multiply(A, B, w.k, order)
    return baseline.randomized_outer_product_multiply(A, B, w.k, seed)


def generate_pair(w: Workload, seed: int):
    """Matrix seeds (2 seed, 2 seed + 1), the CLI's pair_seeds convention."""
    A = genmat.generate(genmat.MatrixSpec(w.kind_a, w.n, seed=2 * seed))
    B = genmat.generate(genmat.MatrixSpec(w.kind_b, w.n, seed=2 * seed + 1))
    return A, B


def reference_pass(Z):
    """One unitary DFT down the columns of the complex n x n array Z and
    one roll-and-scale pass over it: the kind of work the methods do, in
    plain numpy with no apxmm code, so only the machine moves its time."""
    return np.roll(np.fft.fft(Z, axis=0, norm="ortho"), 1, axis=0) * Z


def _spmm_name(S, B, side="left"):
    return f"fsparse.spmm_{side}"


def trace_targets():
    """(owner, attribute, span name[, counts]) for every traced public function."""
    return [
        (genmat, "generate", "genmat.generate"),
        (core, "as_matrix", "core.as_matrix"),
        (core, "unitary_dft", "core.unitary_dft"),
        (core, "cycle_reorder", "core.cycle_reorder"),
        (svd, "randomized_partial_svd", "svd.decompose"),
        (svd, "svd_reconstruct", "svd.reconstruct"),
        (circulant, "circulant_decompose", "circulant.decompose"),
        (circulant, "circulant_select", "circulant.select"),
        (circulant, "circulant_materialize", "circulant.materialize"),
        (fsparse, "topk_sparsify", "fsparse.sparsify", lambda S: {"nnz": S.nnz}),
        (fsparse.SparseRowMatrix, "to_dense", "fsparse.to_dense"),
        (fsparse, "sparse_dense_multiply", _spmm_name),
        (errest, "apriori_relative_error", "errest.apriori"),
        (errest, "posterior_relative_error", "errest.posterior"),
    ]


def _median(values):
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else None


def _factor(estimate, measured):
    if not estimate or not measured:
        return None
    return max(estimate / measured, measured / estimate)


class Run:
    """State of one benchmark run: the pair, its targets, rows and spans."""

    def __init__(self, w: Workload, seed: int, tracer: Tracer | None = None):
        self.w, self.seed, self.tracer = w, seed, tracer
        self.rows: list[dict] = []
        self.peaks: dict[str, float] = {}
        self.pass_times: list[float] = []

    def setup(self) -> None:
        """Generate the pair and warm up each method once; record peak memory.

        The warm-up call of svd, cd and sfft is the first-order product,
        whose code and allocations include those of the zeroth order, so
        its peak stands for both orders.
        """
        self.A, self.B = generate_pair(self.w, self.seed)
        tracemalloc.start()
        try:
            for label in WARM_UP:
                tracemalloc.reset_peak()
                base = tracemalloc.get_traced_memory()[0]
                out = call_product(label, self.A, self.B, self.w)
                self.peaks[method_of(label)] = (tracemalloc.get_traced_memory()[1] - base) / MiB
                del out
        finally:
            tracemalloc.stop()

    def prepare_checks(self) -> None:
        self.AB = self.A @ self.B
        self.ab_norm = float(np.linalg.norm(self.AB))
        self.targets = checks.build_targets(self.A, self.B, self.AB, self.w.s,
                                            self.w.k, METHOD_SEED)
        self.Z = self.A + 1j * self.B

    def product(self, label: str, round_no: int, traced: bool) -> float:
        """Time one public call, then check its output outside the timing.
        Returns the call's wall time."""
        M = report = error = None
        span = self.tracer.span(label) if traced else nullcontext()
        t0 = time.perf_counter()
        try:
            with span:
                M, report = call_product(label, self.A, self.B, self.w)
        except Exception as exc:  # a failing product is counted, not fatal
            error = repr(exc)
        wall = time.perf_counter() - t0
        dev = checks.deviation(M, self.targets[label])
        ok = error is None and dev <= checks.REL_TOL
        relerr = (float(np.linalg.norm(self.AB - M)) / self.ab_norm
                  if math.isfinite(dev) else None)
        self.rows.append({
            "product": label, "method": method_of(label), "order": order_of(label),
            "round": round_no, "traced": traced, "budget": budget(label, self.w),
            "k": report.k if report else None, "wall_s": wall,
            "report_wall_s": report.wall_time if report else None,
            "relerr": relerr,
            "posterior": report.posterior_estimate if report else None,
            "apriori": report.apriori_estimate if report else None,
            "deviation": dev, "ok": ok, "error": error,
        })
        return wall

    def products(self, round_no: int, traced: bool) -> None:
        for label in PRODUCTS:
            t0 = time.perf_counter()
            reference_pass(self.Z)
            if not traced:
                self.pass_times.append(time.perf_counter() - t0)
            spent = self.product(label, round_no, traced)
            while spent < MIN_CALL_S:
                spent += self.product(label, round_no, traced)

    def round(self, round_no: int, traced: bool) -> None:
        if not traced:
            self.products(round_no, False)
            return
        with self.tracer.patched(trace_targets()):
            generate_pair(self.w, self.seed)
            with self.tracer.span("ref.blas"):
                self.A @ self.B
            self.products(round_no, True)

    def measure(self, seconds: float) -> None:
        modes = (True, False) if self.tracer else (False,)
        t0 = time.perf_counter()
        round_no = 0
        while round_no < MIN_ROUNDS or time.perf_counter() - t0 < seconds:
            for traced in modes:
                self.round(round_no, traced)
            round_no += 1

    # ------------------------------------------------------------ metrics

    def _rows(self, label, traced=False, ok_only=False):
        return [r for r in self.rows if r["product"] == label and r["traced"] == traced
                and (r["ok"] or not ok_only)]

    def _wall(self, label, traced=False):
        return _median(r["wall_s"] for r in self._rows(label, traced))

    def _k(self, label):
        return _median(r["k"] for r in self._rows(label))

    def passed(self) -> int:
        return sum(r["ok"] for r in self.rows)

    def end_to_end(self, setup_s: float) -> dict:
        m = {"setup_s": setup_s}
        unit = _median(self.pass_times)
        for label in PRODUCTS:
            m[f"{label}_passes"] = self._wall(label) / unit
        for label in ("svd1", "cd1", "sfft1"):
            rows = self._rows(label, ok_only=True)
            m[f"{label}_relerr"] = _median(r["relerr"] for r in rows)
            m[f"{label}_est_factor"] = _median(_factor(r["posterior"], r["relerr"]) for r in rows)
        m["peak_mb"] = max(self.peaks.values())
        m["passed_frac"] = self.passed() / len(self.rows)
        return m

    def per_layer(self) -> dict:
        tr, n = self.tracer, self.w.n
        spans = tr.spans
        owner = [tr.ancestor(i, PRODUCTS) for i in range(len(spans))]

        def durations(name, under=None):
            return [sp.duration for i, sp in enumerate(spans) if sp.name == name
                    and (under is None or (owner[i] is not None and spans[owner[i]].name in under))]

        def one(name, under=None):
            return _median(durations(name, under))

        def gflops(method, label, **kw):
            t = self._wall(label)
            return cli.operation_count(method, n, **kw) / t / 1e9 if t else None

        t = {label: one(label) for label in PRODUCTS}
        u = {label: self._wall(label) for label in PRODUCTS}
        gen = durations("genmat.generate")
        blas = one("ref.blas")
        m = {
            "ref.blas_s": blas,
            "ref.blas_gflops": 2.0 * n**3 / blas / 1e9,
            "ref.pass_s": _median(self.pass_times),
            **{f"product.{label}_s": u[label] for label in PRODUCTS},
            "genmat.generate_s": _median(a + b for a, b in zip(gen[0::2], gen[1::2])),
            "core.as_matrix_s": one("core.as_matrix"),
            "core.unitary_dft_s": one("core.unitary_dft"),
            "core.cycle_reorder_s": one("core.cycle_reorder"),
        }

        dec, k_svd = one("svd.decompose"), self._k("svd1")
        m.update({
            "svd.decompose_s": dec,
            "svd.reconstruct_s": one("svd.reconstruct"),
            "svd.apply0_s": t["svd0"] - 2 * dec,
            "svd.apply1_s": t["svd1"] - 2 * dec,
            "svd.k": k_svd,
            "svd.peak_mb": self.peaks["svd"],
            "svd.model_gflops": gflops("svd", "svd1", k=k_svd),
        })

        dec, sel, mat = (one(f"circulant.{p}") for p in ("decompose", "select", "materialize"))
        k_cd = self._k("cd1")
        m.update({
            "circulant.decompose_s": dec,
            "circulant.select_s": sel,
            "circulant.materialize_s": mat,
            "circulant.left_apply_s": t["cd0"] - 2 * (dec + sel),
            "circulant.right_apply_s": t["cd1"] - t["cd0"] - mat,
            "circulant.k": k_cd,
            "circulant.peak_mb": self.peaks["cd"],
            "circulant.model_gflops": gflops("cd", "cd1", k=k_cd),
        })

        sfft = {"sfft0", "sfft1"}
        nnz = [sp.attrs["nnz"] for sp in spans if sp.name == "fsparse.sparsify"]
        m.update({
            "fsparse.transform_s": one("core.unitary_dft", sfft),
            "fsparse.sparsify_s": one("fsparse.sparsify"),
            "fsparse.to_dense_s": one("fsparse.to_dense", sfft),
            "fsparse.spmm_left_s": one("fsparse.spmm_left"),
            "fsparse.spmm_right_s": one("fsparse.spmm_right"),
            "fsparse.nnz": _median(nnz),
            "fsparse.peak_mb": self.peaks["sfft"],
            "fsparse.model_gflops": gflops("sfft", "sfft1", k=self._k("sfft1")),
        })

        c = self._k("lowrank")
        m.update({
            "baseline.per_sample_s": u["lowrank"] / c,
            "baseline.relerr": _median(r["relerr"] for r in self._rows("lowrank", ok_only=True)),
            "baseline.peak_mb": self.peaks["lowrank"],
        })

        estimate: dict[int, float] = {}
        for i, sp in enumerate(spans):
            if sp.name.startswith("errest.") and owner[i] is not None:
                estimate[owner[i]] = estimate.get(owner[i], 0.0) + sp.duration
        m["errest.estimate_s"] = _median(estimate.values())
        for label in ("svd1", "cd1", "sfft1"):
            m[f"errest.{label}_apriori_factor"] = _median(
                _factor(r["apriori"], r["relerr"]) for r in self._rows(label, ok_only=True))

        for method in ("svd", "cd", "sfft", "lowrank"):
            m[f"report.{method}_outside_s"] = _median(
                r["wall_s"] - r["report_wall_s"] for r in self.rows
                if r["method"] == method and not r["traced"] and r["report_wall_s"] is not None)
        m["trace.overhead_s"] = sum(t[label] - u[label] for label in PRODUCTS)
        return m

    def accounting(self) -> dict:
        """Per product: untraced and traced medians, and the traced median
        split into its children's summed durations by name plus self time."""
        tr = self.tracer
        spans, selfs = tr.spans, tr.self_times()
        children: dict[int, dict[str, float]] = {}
        for sp in spans:
            if sp.parent is not None:
                sums = children.setdefault(sp.parent, {})
                sums[sp.name] = sums.get(sp.name, 0.0) + sp.duration
        out = {}
        for label in PRODUCTS:
            calls = [i for i, sp in enumerate(spans) if sp.name == label]
            split: dict[str, list[float]] = {}
            for i in calls:
                for name, v in children.get(i, {}).items():
                    split.setdefault(name, []).append(v)
            out[label] = {
                "untraced_s": self._wall(label),
                "traced_s": _median(spans[i].duration for i in calls),
                "children_s": {name: _median(v) for name, v in sorted(split.items())},
                "self_s": _median(selfs[i] for i in calls),
            }
        return out
