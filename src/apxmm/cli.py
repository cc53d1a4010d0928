"""Command-line harness for the approximate-multiply library.

Subcommands: gen (write a generated matrix), multiply (run one method on one
pair), sweep (minimal s reaching a tolerance), spectra (singular values or
circulant magnitudes to CSV), bench (batch runs to a fixed-schema CSV), and
estimate (error-model numbers without running a product).

Matrix arguments come either from files (.mtx MatrixMarket, anything else
CSV) or from a generator kind plus size and seed. All randomness is seeded;
repeated runs with the same flags produce identical outputs.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from dataclasses import astuple, dataclass

import numpy as np
import scipy

from .baseline import randomized_outer_product_multiply
from .circulant import circulant_decompose, circulant_first_order_multiply
from .core import WORKERS, matmul_naive, relative_error
from .errest import (
    ErrorModel,
    HaarMoments,
    apriori_relative_error,
    concentration_tail_bound,
    estimate_front_constant,
    haar_product_moments,
    uniform_product_moment,
)
from .fsparse import fft_sparse_first_order_multiply
from .genmat import (
    MatrixSpec,
    generate,
    read_csv,
    read_matrix_market,
    write_csv,
)
from .report import ApproxReport
from .svd import component_count, randomized_partial_svd, svd_first_order_multiply

__all__ = ["main", "pair_seeds", "components_for", "operation_count", "BENCH_HEADER"]

BENCH_HEADER = "method,order,n,kind_a,kind_b,s,k,rel_err,apriori_est,posterior_est,wall_time_s,seed"

_ORDER_NUM = {"zeroth": 0, "first": 1}


def pair_seeds(base: int, trial: int) -> tuple[int, int]:
    """Disjoint (seed_a, seed_b) for trial t: (base + 2t, base + 2t + 1)."""
    return base + 2 * trial, base + 2 * trial + 1


def components_for(n: int, s: int) -> int:
    """Component budget k = ceil(s * log2 n) used when a run is s-driven."""
    if n <= 1:
        return 1
    return max(1, math.ceil(s * math.log2(n)))


def operation_count(method: str, n: int, k: int = 0, c: int = 0) -> float:
    """Leading-term arithmetic-operation model per method (multiply+add = 2).

    svd:     6 k n^2   (sketch product, projection, factored apply)
    cd:      4 k n^2 + 5 n^2 ceil(log2 n)   (the kept sum is W* P W with P
             sparse, k nonzeros per row: one sparse-dense product with P in
             each of the two terms, plus the decompose / forward / inverse
             FFT passes)
    sfft:    8 k n^2 + 2 n^2 ceil(log2 n)   (two k-per-row sparse-dense
             products in complex arithmetic, plus the two transforms)
    lowrank: 2 c n^2   (one rank-c GEMM of the scaled samples)
    naive:   2 n^3
    """
    L = math.ceil(math.log2(n)) if n > 1 else 1
    if method == "svd":
        return 6.0 * k * n * n
    if method == "cd":
        return 4.0 * k * n * n + 5.0 * n * n * L
    if method == "sfft":
        return 8.0 * k * n * n + 2.0 * n * n * L
    if method == "lowrank":
        return 2.0 * c * n * n
    if method == "naive":
        return 2.0 * float(n) ** 3
    raise ValueError(f"unknown method {method!r}")


# The method table: the budget flags each method reads, of which exactly one
# is given (a bench config lists the first), its k rule, the count of
# components kept for a factor s, and the one tuning option of _TUNING it
# reads. The methods with a k rule take an order.
_METHODS = {
    "svd": (("s",), component_count, "power_iterations"),
    "cd": (("s", "k"), components_for, None),
    "sfft": (("s", "k"), components_for, "sparsify_b"),
    "lowrank": (("c",), None, None),
    "naive": ((), None, None),
}
_ORDERED = [method for method, (_, keeps, _) in _METHODS.items() if keeps]
_TUNING = ("power_iterations", "sparsify_b")


def _budget(method: str, n: int, s: int | None = None, k: int | None = None,
            c: int | None = None) -> int | None:
    """The one int a method's product takes, from its budget flags: svd's s,
    lowrank's c, and the k of cd and sfft, which an s given in its place
    sets by their k rule; None for naive."""
    flags, keeps, _ = _METHODS[method]
    if not flags:
        return None
    given = {"s": s, "k": k, "c": c}[flags[-1]]
    return keeps(n, s) if given is None else given


def _load_spectrum_vector(path) -> np.ndarray:
    v = read_csv(path)
    if 1 not in v.shape:
        raise ValueError(f"spectrum file {path} must be a single row or column")
    v = v.ravel()
    if np.iscomplexobj(v):
        raise ValueError("spectrum values must be real")
    return v.astype(float)


def _generated(kind: str, n: int, seed: int, block: int | None,
               spectrum: np.ndarray | None = None) -> np.ndarray:
    """A generated matrix; the block size applies to block-toeplitz only."""
    return generate(MatrixSpec(kind=kind, n=n, seed=seed, spectrum=spectrum,
                               block=block if kind == "block-toeplitz" else None))


def _matrix_from_args(args, which: str, parser) -> tuple[np.ndarray, str]:
    """Resolve the A or B operand: file path wins, else kind + n + seed."""
    path = getattr(args, which)
    kind = getattr(args, f"kind_{which}")
    if path is not None and kind is not None:
        parser.error(f"give --{which} or --kind-{which}, not both")
    if path is not None:
        read = read_matrix_market if str(path).endswith(".mtx") else read_csv
        return read(path), os.path.basename(str(path))
    if kind is None:
        parser.error(f"matrix {which}: need --{which} FILE or --kind-{which} KIND")
    if args.n is None:
        parser.error("--n is required with --kind-a/--kind-b")
    spath = getattr(args, f"spectrum_{which}", None)
    spectrum = None if spath is None else _load_spectrum_vector(spath)
    return _generated(kind, args.n, getattr(args, f"seed_{which}"), args.block,
                      spectrum), kind


def run_method(method: str, order: int, A, B, budget: int | None = None, *,
               seed: int = 0, power_iterations: int = 0, sparsify_b: str = "rows"):
    """Dispatch one approximate (or exact) product with the budget _budget
    gives. Returns (M, report)."""
    if method == "naive":
        t0 = time.perf_counter()
        M = matmul_naive(A, B)
        wall = time.perf_counter() - t0
        return M, ApproxReport(method="naive", order=0, k=0, norm_da=0.0,
                               norm_db=0.0, wall_time=wall)
    if method == "lowrank":
        return randomized_outer_product_multiply(A, B, budget, seed)
    if method == "svd":
        return svd_first_order_multiply(A, B, budget, order, seed,
                                        power_iterations=power_iterations)
    if method == "cd":
        return circulant_first_order_multiply(A, B, budget, order)
    if method == "sfft":
        return fft_sparse_first_order_multiply(A, B, budget, order,
                                               sparsify_b=sparsify_b)
    raise ValueError(f"unknown method {method!r}")


def _json_line(payload: dict) -> str:
    return json.dumps(payload, default=float)


def _environment() -> dict:
    """What bench timings depend on besides the code: libraries, CPUs, threads."""
    return {
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "cpu_count": os.cpu_count(),
        "workers": WORKERS,
        **{var: os.environ.get(var) for var in
           ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


# ---------------------------------------------------------------- subcommands


def cmd_gen(args, parser) -> int:
    spectrum = _load_spectrum_vector(args.spectrum) if args.spectrum else None
    spec = MatrixSpec(kind=args.kind, n=args.n, seed=args.seed,
                      block=args.block, spectrum=spectrum)
    M = generate(spec)
    write_csv(M, args.out)
    print(_json_line({"kind": args.kind, "n": args.n, "seed": args.seed,
                      "out": args.out}))
    return 0


def cmd_multiply(args, parser) -> int:
    method = args.method
    flags, keeps, option = _METHODS[method]
    if (args.order is not None) != bool(keeps):
        parser.error(f"--order is required for --method {method}" if keeps
                     else f"--method {method} takes no --order")
    given = [f for f in "skc" if getattr(args, f) is not None]
    if len(given) != min(len(flags), 1) or not set(given) <= set(flags):
        wanted = " or ".join(f"--{f}" for f in flags) or "none of --s/--k/--c"
        parser.error(f"--method {method} takes "
                     f"{'exactly one of ' if len(flags) > 1 else ''}{wanted}")
    # a tuning option not given keeps the product's default
    tuning = {o: getattr(args, o) for o in _TUNING if getattr(args, o) is not None}
    stray = [o for o in tuning if o != option]
    if stray:
        parser.error(f"--method {method} takes no --{stray[0].replace('_', '-')}")
    A, label_a = _matrix_from_args(args, "a", parser)
    B, label_b = _matrix_from_args(args, "b", parser)
    n = A.shape[1]
    M, report = run_method(method, _ORDER_NUM.get(args.order, 0), A, B,
                           _budget(method, n, args.s, args.k, args.c),
                           seed=args.seed, **tuning)
    if args.real_part:
        M = M.real if np.iscomplexobj(M) else M
    if args.check:
        report.measured_error = relative_error(M, matmul_naive(A, B))
    if args.out:
        write_csv(M, args.out)
    payload = report.to_dict()
    payload.update({"kind_a": label_a, "kind_b": label_b, "n": n})
    if args.check:
        payload["rel_err"] = report.measured_error
    print(_json_line(payload))
    return 0


def cmd_sweep(args, parser) -> int:
    if args.tol <= 0:
        parser.error("--tol must be > 0")
    if args.trials < 1 or args.s_max < 1:
        parser.error("--trials and --s-max must be >= 1")
    order = _ORDER_NUM[args.order]
    n = args.n
    keeps = _METHODS[args.method][1]
    pairs = []
    for t in range(args.trials):
        seed_a, seed_b = pair_seeds(args.seed_base, t)
        A = _generated(args.kind_a, n, seed_a, args.block)
        B = _generated(args.kind_b, n, seed_b, args.block)
        pairs.append((A, B, matmul_naive(A, B)))

    for s in range(1, args.s_max + 1):
        # stop where the method's modeled cost passes the naive 2 n^3
        if operation_count(args.method, n, k=keeps(n, s)) > 2.0 * float(n) ** 3:
            print("-")
            return 0
        errs = []
        for t, (A, B, AB) in enumerate(pairs):
            M, report = run_method(args.method, order, A, B,
                                   _budget(args.method, n, s=s), seed=t)
            errs.append(relative_error(M, AB))
        mean_err = float(np.mean(errs))
        print(_json_line({"s": s, "k": report.k, "mean_rel_err": mean_err}),
              file=sys.stderr)
        if mean_err <= args.tol:
            print(s)
            return 0
    print("-")
    return 0


def cmd_spectra(args, parser) -> int:
    A, _ = _matrix_from_args(args, "a", parser)
    n = min(A.shape)
    outputs = []

    def write_two_col(path, values):
        with open(path, "w", encoding="ascii") as fh:
            np.savetxt(fh, np.column_stack((np.arange(len(values)), values)),
                       fmt="%d,%.17g", header="index,magnitude", comments="")
        outputs.append(path)

    stem = args.out.removesuffix(".csv")
    if args.which in ("svd", "both"):
        if max(A.shape) <= 1024:
            sigma = np.linalg.svd(A, compute_uv=False)
        else:
            sigma = randomized_partial_svd(A, args.s, args.seed).sigma
        path = args.out if args.which == "svd" else f"{stem}_svd.csv"
        write_two_col(path, sigma)
    if args.which in ("cd", "both"):
        if A.shape[0] != A.shape[1]:
            parser.error("cd spectra need a square matrix")
        mags = circulant_decompose(A).magnitudes
        path = args.out if args.which == "cd" else f"{stem}_cd.csv"
        write_two_col(path, mags)
    print(_json_line({"files": outputs, "n": n}))
    return 0


# ------------------------------------------------------------------- bench


@dataclass
class BenchRow:
    """One benchmark record; column order matches BENCH_HEADER exactly."""

    method: str
    order: str
    n: int
    kind_a: str
    kind_b: str
    s: int | None
    k: int | None
    rel_err: float
    apriori_est: float | None
    posterior_est: float | None
    wall_time_s: float
    seed: int

    def to_csv_line(self) -> str:
        return ",".join(map(_cell, astuple(self)))


def _cell(v) -> str:
    """One CSV cell: "-" for None, floats to 17 significant digits."""
    if v is None:
        return "-"
    if isinstance(v, float):
        return f"{v:.17g}"
    return str(v)


_CONFIG_KEYS = {"methods", "kinds", "sizes", "s", "c", "trials", "seed_base"}


def parse_bench_config(path) -> dict:
    """Flat key = value config; list values are comma-separated.

    methods: entries method:order for svd/cd/sfft, bare for lowrank/naive
    kinds:   pairs kind_a:kind_b
    sizes, s, c: integer lists; trials, seed_base: integers
    """
    conf: dict = {}
    with open(path, "r", encoding="ascii") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"config line {lineno}: expected key = value")
            key, _, value = line.partition("=")
            key = key.strip()
            if key not in _CONFIG_KEYS:
                raise ValueError(f"config line {lineno}: unknown key {key!r}")
            conf[key] = value.strip()

    for required in ("methods", "kinds", "sizes", "trials"):
        if required not in conf:
            raise ValueError(f"config missing required key {required!r}")

    methods = []
    for entry in conf["methods"].split(","):
        entry = entry.strip()
        name, _, order = entry.partition(":")
        if name not in _METHODS:
            raise ValueError(f"unknown method {name!r}")
        if name in _ORDERED and order not in _ORDER_NUM:
            raise ValueError(f"method {entry!r} needs :zeroth or :first")
        if name not in _ORDERED and order:
            raise ValueError(f"method {name!r} takes no order")
        methods.append((name, order or "-"))

    kinds = []
    for entry in conf["kinds"].split(","):
        ka, sep, kb = entry.strip().partition(":")
        if not sep:
            raise ValueError(f"kind pair {entry!r} must be kind_a:kind_b")
        kinds.append((ka, kb))

    def int_list(key):
        return [int(v) for v in conf[key].split(",")] if key in conf else []

    parsed = {
        "methods": methods,
        "kinds": kinds,
        "sizes": int_list("sizes"),
        "s": int_list("s"),
        "c": int_list("c"),
        "trials": int(conf["trials"]),
        "seed_base": int(conf.get("seed_base", "0")),
    }
    if parsed["trials"] < 1:
        raise ValueError("trials must be >= 1")
    for name, _ in methods:
        flags = _METHODS[name][0]
        if flags and not parsed[flags[0]]:
            raise ValueError(f"config needs {flags[0]} = ... for {name}")
    return parsed


def cmd_bench(args, parser) -> int:
    conf = parse_bench_config(args.config)
    # jobs grouped by (kind pair, n, trial): each pair and its exact product
    # are made once, and the rows are written back in the config's order
    groups: dict = {}
    count = 0
    for method, order_name in conf["methods"]:
        flags = _METHODS[method][0]
        selectors = conf[flags[0]] if flags else [None]
        for kind_a, kind_b in conf["kinds"]:
            for n in conf["sizes"]:
                for sel in selectors:
                    for t in range(conf["trials"]):
                        groups.setdefault((kind_a, kind_b, n, t), []).append(
                            (count, method, order_name, sel))
                        count += 1

    results = [None] * count
    for (kind_a, kind_b, n, t), jobs in groups.items():
        seed_a, seed_b = pair_seeds(conf["seed_base"], t)
        A = generate(MatrixSpec(kind=kind_a, n=n, seed=seed_a))
        B = generate(MatrixSpec(kind=kind_b, n=n, seed=seed_b))
        AB, naive_report = run_method("naive", 0, A, B)
        for shared in (A, B, AB):  # no method may change another's operands
            shared.flags.writeable = False
        for i, method, order_name, sel in jobs:
            flags, keeps, _ = _METHODS[method]
            if method == "naive":
                M, report = AB, naive_report
            else:
                M, report = run_method(method, _ORDER_NUM.get(order_name, 0), A, B,
                                       _budget(method, n, **{flags[0]: sel}), seed=t)
            row = BenchRow(method=method, order=order_name, n=n, kind_a=kind_a,
                           kind_b=kind_b, s=sel if keeps else None,
                           k=None if method == "naive" else report.k,
                           rel_err=relative_error(M, AB),
                           apriori_est=report.apriori_estimate,
                           posterior_est=report.posterior_estimate,
                           wall_time_s=report.wall_time, seed=t)
            results[i] = (row, naive_report.wall_time)

    need_header = not os.path.exists(args.out) or os.path.getsize(args.out) == 0
    with open(args.out, "a", encoding="ascii") as fh:
        if need_header:
            fh.write(BENCH_HEADER + "\n")
        for row, _ in results:
            fh.write(row.to_csv_line() + "\n")

    if args.ratios:
        ratios: dict = {}
        for row, naive_wall in results:
            if row.method == "naive" or row.wall_time_s <= 0:
                continue
            key = (row.method, row.order, row.n, row.kind_a, row.kind_b, row.s, row.k)
            ratios.setdefault(key, []).append(naive_wall / row.wall_time_s)
        with open(args.out.removesuffix(".csv") + ".ratios.csv", "w",
                  encoding="ascii") as fh:
            fh.write("method,order,n,kind_a,kind_b,s,k,naive_over_method\n")
            for key, vals in ratios.items():
                fh.write(",".join(map(_cell, (*key, float(np.mean(vals))))) + "\n")

    print(_json_line({"rows": len(results), "out": args.out,
                      "environment": _environment()}))
    return 0


def _require(parser, args, names) -> None:
    missing = [f"--{n.replace('_', '-')}" for n in names
               if getattr(args, n) is None]
    if missing:
        parser.error(f"mode {args.mode} needs {', '.join(missing)}")


def cmd_estimate(args, parser) -> int:
    if args.mode == "front-constant":
        _require(parser, args, ["distribution", "n"])
        c, sd = estimate_front_constant(args.distribution, args.n,
                                        args.trials, args.seed)
        print(_json_line({"distribution": args.distribution, "n": args.n,
                          "trials": args.trials, "c": c, "stddev": sd}))
        return 0
    if args.mode == "haar-moments":
        _require(parser, args, ["spectrum_1", "spectrum_2"])
        d1 = _load_spectrum_vector(args.spectrum_1)
        d2 = _load_spectrum_vector(args.spectrum_2)
        m = HaarMoments.from_spectra(d1, d2)
        mean_sq, variance, mean_norm = haar_product_moments(m)
        payload = {"n": m.n, "mean_sq": mean_sq, "variance": variance,
                   "mean_norm": mean_norm}
        if args.tail_t is not None:
            d2_spectral = args.d2_spectral
            if d2_spectral is None:
                d2_spectral = float(np.max(np.abs(d2)))
            payload["tail_bound"] = concentration_tail_bound(m, args.tail_t,
                                                             d2_spectral)
        print(_json_line(payload))
        return 0
    if args.mode == "uniform-moment":
        _require(parser, args, ["m", "n", "p", "a"])
        value = uniform_product_moment(args.m, args.n, args.p, args.a)
        print(_json_line({"m": args.m, "n": args.n, "p": args.p, "a": args.a,
                          "mean_sq": value}))
        return 0
    # apriori
    _require(parser, args, ["case", "n", "norm_a", "norm_b", "norm_da", "norm_db"])
    model = ErrorModel(case=args.case, n=args.n,
                       c=args.c_const if args.case == "custom" else None)
    est = apriori_relative_error(args.norm_a, args.norm_b,
                                 args.norm_da, args.norm_db, model)
    print(_json_line({"case": args.case, "n": args.n, "estimate": est}))
    return 0


# ------------------------------------------------------------------- parser


def _add_pair_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--a", help="matrix A file (.mtx or CSV)")
    p.add_argument("--b", help="matrix B file (.mtx or CSV)")
    p.add_argument("--kind-a", dest="kind_a", help="generate A with this kind")
    p.add_argument("--kind-b", dest="kind_b", help="generate B with this kind")
    p.add_argument("--n", type=int, help="size for generated matrices")
    p.add_argument("--seed-a", dest="seed_a", type=int, default=0)
    p.add_argument("--seed-b", dest="seed_b", type=int, default=1)
    p.add_argument("--block", type=int, help="block size for block-toeplitz")
    p.add_argument("--spectrum-a", dest="spectrum_a",
                   help="CSV vector for kind haar-spectrum (A)")
    p.add_argument("--spectrum-b", dest="spectrum_b",
                   help="CSV vector for kind haar-spectrum (B)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="apxmm",
        description="Approximate dense matrix multiplication via truncated "
                    "decompositions, with error estimates and benchmarks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a matrix and write it as CSV")
    p.add_argument("--kind", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--block", type=int)
    p.add_argument("--spectrum", help="CSV vector for kind haar-spectrum")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("multiply", help="run one method on one matrix pair")
    p.add_argument("--method", required=True,
                   choices=list(_METHODS))
    p.add_argument("--order", choices=["zeroth", "first"])
    p.add_argument("--s", type=int, help="component factor (k = ceil(s log2 n))")
    p.add_argument("--k", type=int, help="explicit component count (cd/sfft)")
    p.add_argument("--c", type=int, help="outer-product samples (lowrank)")
    p.add_argument("--seed", type=int, default=0, help="method randomness seed")
    p.add_argument("--power-iterations", dest="power_iterations", type=int,
                   help="extra subspace passes for svd (default 0)")
    p.add_argument("--sparsify-b", dest="sparsify_b", choices=["rows", "cols"],
                   help="sfft truncation side for B (default rows)")
    p.add_argument("--out", help="write the product matrix as CSV")
    p.add_argument("--check", action="store_true",
                   help="also compute the exact product and report rel_err")
    p.add_argument("--real-part", dest="real_part", action="store_true",
                   help="project a complex result to its real part")
    _add_pair_args(p)
    p.set_defaults(func=cmd_multiply)

    p = sub.add_parser("sweep", help="find minimal s reaching a tolerance")
    p.add_argument("--method", required=True, choices=_ORDERED)
    p.add_argument("--order", required=True, choices=["zeroth", "first"])
    p.add_argument("--tol", type=float, required=True)
    p.add_argument("--kind-a", dest="kind_a", required=True)
    p.add_argument("--kind-b", dest="kind_b", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--block", type=int)
    p.add_argument("--trials", type=int, default=5)
    p.add_argument("--s-max", dest="s_max", type=int, default=20)
    p.add_argument("--seed-base", dest="seed_base", type=int, default=0)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("spectra", help="write singular values / circulant magnitudes")
    p.add_argument("--which", required=True, choices=["svd", "cd", "both"])
    p.add_argument("--out", required=True)
    p.add_argument("--s", type=int, default=5,
                   help="rsvd factor when n > 1024 (svd branch)")
    p.add_argument("--seed", type=int, default=0)
    _add_pair_args(p)
    p.set_defaults(func=cmd_spectra)

    p = sub.add_parser("bench", help="batch-run methods into a fixed-schema CSV")
    p.add_argument("--config", required=True, help="key = value config file")
    p.add_argument("--out", required=True)
    p.add_argument("--ratios", action="store_true",
                   help="also write <out>.ratios.csv with naive/method wall-time ratios")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("estimate", help="evaluate error-model numbers directly")
    p.add_argument("--mode", required=True,
                   choices=["front-constant", "haar-moments", "uniform-moment",
                            "apriori"])
    p.add_argument("--distribution")
    p.add_argument("--n", type=int)
    p.add_argument("--trials", type=int, default=25)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--spectrum-1", dest="spectrum_1")
    p.add_argument("--spectrum-2", dest="spectrum_2")
    p.add_argument("--tail-t", dest="tail_t", type=float)
    p.add_argument("--d2-spectral", dest="d2_spectral", type=float)
    p.add_argument("--m", type=int)
    p.add_argument("--p", type=int)
    p.add_argument("--a", type=float)
    p.add_argument("--case", choices=["mean-zero", "unsigned", "custom"])
    p.add_argument("--c-const", dest="c_const", type=float)
    p.add_argument("--norm-a", dest="norm_a", type=float)
    p.add_argument("--norm-b", dest="norm_b", type=float)
    p.add_argument("--norm-da", dest="norm_da", type=float)
    p.add_argument("--norm-db", dest="norm_db", type=float)
    p.set_defaults(func=cmd_estimate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args, parser)
    except (ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
