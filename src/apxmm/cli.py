"""Command-line harness for the approximate-multiply library.

Subcommands: gen (write a generated matrix), multiply (run one method on one
pair), sweep (minimal s reaching a tolerance), spectra (singular values or
circulant magnitudes to CSV), bench (batch runs to one JSON record, each row
with its time over the exact product's), and estimate (error-model numbers
without running a product).

One table, _METHODS, states and runs each method of multiply, sweep and
bench. Its naive row, a timed BLAS A @ B of operands that core.as_matrix
checks first (BLAS makes no pass that could), is also the exact product
that --check, sweep and bench compare against.

Matrix arguments come either from files (.mtx MatrixMarket, anything else
CSV) or from a generator kind plus size and seed. All randomness is seeded;
repeated runs with the same flags produce identical outputs.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
import time
from dataclasses import asdict, dataclass, replace
from typing import Callable, NamedTuple

import numpy as np
import scipy

from .baseline import randomized_outer_product_multiply
from .circulant import circulant_decompose, circulant_first_order_multiply
from .core import WORKERS, _coerce_pair, _exponent, _ldexp, as_matrix, relative_error
from .errest import (
    _CASES,
    apriori_relative_error,
    concentration_tail_bound,
    estimate_front_constant,
    haar_product_moments,
    uniform_product_moment,
)
from .fsparse import fft_sparse_first_order_multiply
from .genmat import (
    KINDS,
    MatrixSpec,
    generate,
    read_csv,
    read_matrix_market,
    write_csv,
)
from .report import ApproxReport
from .svd import component_count, svd_first_order_multiply

__all__ = ["main", "pair_seeds", "components_for", "operation_count"]

_ORDER_NUM = {"zeroth": 0, "first": 1}


def pair_seeds(base: int, trial: int) -> tuple[int, int]:
    """Disjoint (seed_a, seed_b) for trial t: (base + 2t, base + 2t + 1)."""
    return base + 2 * trial, base + 2 * trial + 1


def components_for(n: int, s: int) -> int:
    """Component budget k = ceil(s * log2 n) used when a run is s-driven."""
    if s < 1:
        raise ValueError("s must be >= 1")
    if n <= 1:
        return 1
    return max(1, math.ceil(s * math.log2(n)))


def operation_count(method: str, n: int, k: int = 0) -> float:
    """Leading-term arithmetic-operation model of a k-component product
    (multiply+add = 2), the price sweep stops at and the benchmark's
    *.model_gflops divide by.

    svd:     6 k n^2   (sketch product, projection, factored apply)
    cd:      4 k n^2 + 5 n^2 ceil(log2 n)   (the kept sum is W* P W with P
             sparse, k nonzeros per row: one sparse-dense product with P in
             each of the two terms, plus the decompose / forward / inverse
             FFT passes)
    sfft:    8 k n^2 + 2 n^2 ceil(log2 n)   (two k-per-row sparse-dense
             products in complex arithmetic, plus the two transforms)

    The cd count is of complex arithmetic over all n rows. A real pair runs
    in real arithmetic on the rows i <= n/2 (rfft, irfft, hfft), about half
    that work, so a rate divided by this count reads high for real input.
    """
    L = math.ceil(math.log2(n)) if n > 1 else 1
    if method == "svd":
        return 6.0 * k * n * n
    if method == "cd":
        return 4.0 * k * n * n + 5.0 * n * n * L
    if method == "sfft":
        return 8.0 * k * n * n + 2.0 * n * n * L
    raise ValueError(f"unknown method {method!r}")


def _blas(A, B):
    """The exact product: one timed BLAS A @ B of the gated operands."""
    A, B = map(as_matrix, _coerce_pair(A, B))
    t0 = time.perf_counter()
    M = A @ B
    wall = time.perf_counter() - t0
    return M, ApproxReport(method="naive", order=0, k=0, norm_da=0.0,
                           norm_db=0.0, wall_time=wall)


class _Method(NamedTuple):
    """One CLI method: the budget flags it reads, of which exactly one is
    given (a bench config lists the first); its k rule, the count of
    components kept for a factor s, which only methods taking an order have;
    the tuning options it reads, each with its value when not given; and its
    product(A, B, budget, order, **options), less what it does not take."""

    flags: tuple
    keeps: Callable | None
    options: dict
    product: Callable

    def run(self, A, B, order: str | None = None, s: int | None = None,
            k: int | None = None, c: int | None = None, **options):
        """(M, report) of the product on one pair. An s given in place of
        cd's or sfft's k sets it by their k rule; options the method does
        not read are dropped, so every method may be handed a trial's seed."""
        args = [A, B]
        if self.flags:
            given = {"s": s, "k": k, "c": c}[self.flags[-1]]
            args.append(self.keeps(A.shape[1], s) if given is None else given)
        if self.keeps:
            args.append(_ORDER_NUM[order])
        return self.product(*args, **{o: options.get(o, default)
                                      for o, default in self.options.items()})


_METHODS = {
    "svd": _Method(("s",), component_count, {"seed": 0}, svd_first_order_multiply),
    "cd": _Method(("s", "k"), components_for, {}, circulant_first_order_multiply),
    "sfft": _Method(("s", "k"), components_for, {"sparsify_b": "rows"},
                    fft_sparse_first_order_multiply),
    "lowrank": _Method(("c",), None, {"seed": 0}, randomized_outer_product_multiply),
    "naive": _Method((), None, {}, _blas),
}
_ORDERED = [method for method, row in _METHODS.items() if row.keeps]


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
        parser.error(f"--n is required with --kind-{which}")
    spath = getattr(args, f"spectrum_{which}")
    spectrum = None if spath is None else _load_spectrum_vector(spath)
    return _generated(kind, args.n, getattr(args, f"seed_{which}"), args.block,
                      spectrum), kind


def _json_line(payload: dict) -> str:
    """payload as one line of strict JSON: NaN and Infinity are not JSON, so
    a non-finite value raises ValueError, which main reports as an error."""
    return json.dumps(payload, default=float, allow_nan=False)


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
    row = _METHODS[method]
    if (args.order is not None) != bool(row.keeps):
        parser.error(f"--order is required for --method {method}" if row.keeps
                     else f"--method {method} takes no --order")
    given = [f for f in "skc" if getattr(args, f) is not None]
    if len(given) != min(len(row.flags), 1) or not set(given) <= set(row.flags):
        wanted = " or ".join(f"--{f}" for f in row.flags) or "none of --s/--k/--c"
        parser.error(f"--method {method} takes "
                     f"{'exactly one of ' if len(row.flags) > 1 else ''}{wanted}")
    # a tuning option not given keeps the row's default
    tuning = {o: getattr(args, o) for other in _METHODS.values()
              for o in other.options if getattr(args, o) is not None}
    stray = [o for o in tuning if o not in row.options]
    if stray:
        parser.error(f"--method {method} takes no --{stray[0].replace('_', '-')}")
    A, label_a = _matrix_from_args(args, "a", parser)
    B, label_b = _matrix_from_args(args, "b", parser)
    M, report = row.run(A, B, args.order, args.s, args.k, args.c, **tuning)
    if args.real_part:
        M = M.real if np.iscomplexobj(M) else M
    if args.out:
        write_csv(M, args.out)
    payload = report.to_dict()
    payload.update({"kind_a": label_a, "kind_b": label_b, "n": A.shape[1]})
    if args.check:
        payload["rel_err"] = relative_error(M, _METHODS["naive"].run(A, B)[0])
    print(_json_line(payload))
    return 0


def cmd_sweep(args, parser) -> int:
    if args.tol <= 0:
        parser.error("--tol must be > 0")
    if args.trials < 1 or args.s_max < 1:
        parser.error("--trials and --s-max must be >= 1")
    n = args.n
    row = _METHODS[args.method]
    pairs = []
    for t in range(args.trials):
        seed_a, seed_b = pair_seeds(args.seed_base, t)
        A = _generated(args.kind_a, n, seed_a, args.block)
        B = _generated(args.kind_b, n, seed_b, args.block)
        pairs.append((A, B, _METHODS["naive"].run(A, B)[0]))

    for s in range(1, args.s_max + 1):
        # stop where the method's modeled cost passes the exact product's 2 n^3
        if operation_count(args.method, n, k=row.keeps(n, s)) > 2.0 * float(n) ** 3:
            print("-")
            return 0
        errs = []
        for t, (A, B, AB) in enumerate(pairs):
            M, report = row.run(A, B, args.order, s=s, seed=t)
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
    if args.which != "svd" and A.shape[0] != A.shape[1]:
        parser.error("cd spectra need a square matrix")
    n = min(A.shape)
    outputs = []

    def write_two_col(path, values):
        with open(path, "w", encoding="ascii") as fh:
            np.savetxt(fh, np.column_stack((np.arange(len(values)), values)),
                       fmt="%d,%.17g", header="index,magnitude", comments="")
        outputs.append(path)

    stem = args.out.removesuffix(".csv")
    if args.which in ("svd", "both"):
        path = args.out if args.which == "svd" else f"{stem}_svd.csv"
        write_two_col(path, np.linalg.svd(A, compute_uv=False))
    if args.which in ("cd", "both"):
        # the decomposition sums unscaled squares: run it on A scaled to a
        # largest part in [0.5, 1) and scale the magnitudes back, exactly
        e = _exponent(A)
        mags = _ldexp(circulant_decompose(_ldexp(A, -e)).magnitudes, e)
        path = args.out if args.which == "cd" else f"{stem}_cd.csv"
        write_two_col(path, mags)
    print(_json_line({"files": outputs, "n": n}))
    return 0


# ------------------------------------------------------------------- bench


@dataclass
class BenchRow:
    """One row of the bench record, its keys in this order (None where the
    method has none); wall_time_s is the median of three runs
    (_median_of_three), over_naive that over its pair's naive time."""

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
    over_naive: float


_CONFIG_KEYS = {"methods", "kinds", "sizes", "s", "c", "trials", "seed_base"}


def parse_bench_config(path) -> dict:
    """Flat key = value config; list values are comma-separated.

    methods: entries method:order for svd/cd/sfft, bare for lowrank/naive
    kinds:   pairs kind_a:kind_b of generator kinds, haar-spectrum excepted
    sizes, s, c: lists of integers >= 1; trials, seed_base: integers
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
        if not {ka, kb} <= set(KINDS) - {"haar-spectrum"}:  # bench has no spectrum
            raise ValueError(f"kind pair {entry!r}: unknown kind, or haar-spectrum")
        kinds.append((ka, kb))

    def int_list(key):
        values = [int(v) for v in conf[key].split(",")] if key in conf else []
        if min(values, default=1) < 1:
            raise ValueError(f"every {key} value must be >= 1")
        return values

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
        flags = _METHODS[name].flags
        if flags and not parsed[flags[0]]:
            raise ValueError(f"config needs {flags[0]} = ... for {name}")
    return parsed


def _median_of_three(run):
    """run()'s first (M, report), its wall_time the median of three runs:
    no row then reads a process's first call of a method or its first GEMM."""
    M, report = run()
    walls = [report.wall_time] + [run()[1].wall_time for _ in range(2)]
    return M, replace(report, wall_time=float(np.median(walls)))


def cmd_bench(args, parser) -> int:
    if not args.out.endswith(".json"):
        parser.error("--out must end in .json")
    conf = parse_bench_config(args.config)
    # jobs grouped by (kind pair, n, trial): each pair and its exact product
    # are made once, and the rows are written back in the config's order
    groups: dict = {}
    count = 0
    for method, order_name in conf["methods"]:
        flags = _METHODS[method].flags
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
        A = _generated(kind_a, n, seed_a, None)
        B = _generated(kind_b, n, seed_b, None)
        AB, naive_report = _median_of_three(lambda: _METHODS["naive"].run(A, B))
        for shared in (A, B, AB):  # no method may change another's operands
            shared.flags.writeable = False
        for i, method, order_name, sel in jobs:
            m = _METHODS[method]
            if method == "naive":
                M, report = AB, naive_report
            else:
                M, report = _median_of_three(
                    lambda: m.run(A, B, order_name, **{m.flags[0]: sel}, seed=t))
            results[i] = BenchRow(
                method=method, order=order_name, n=n, kind_a=kind_a, kind_b=kind_b,
                s=sel if m.keeps else None, k=None if method == "naive" else report.k,
                rel_err=relative_error(M, AB), apriori_est=report.apriori_estimate,
                posterior_est=report.posterior_estimate, wall_time_s=report.wall_time,
                seed=t, over_naive=report.wall_time / naive_report.wall_time)

    # the record of this run, replacing any earlier one
    with open(args.out, "w", encoding="ascii") as fh:
        json.dump({"config": conf, "environment": _environment(),
                   "rows": list(map(asdict, results))},
                  fh, default=float, allow_nan=False, indent=1)
        fh.write("\n")

    print(_json_line({"rows": len(results), "out": args.out,
                      "environment": _environment()}))
    return 0


# The estimate modes: the flags each one needs, then the further flags it may
# take; a flag of another mode is a usage error.
_MODES = {
    "front-constant": (("distribution", "n"), ("trials", "seed")),
    "haar-moments": (("spectrum_1", "spectrum_2"), ("tail_t",)),
    "uniform-moment": (("m", "n", "p", "a"), ()),
    "apriori": (("case", "n", "norm_a", "norm_b", "norm_da", "norm_db"),
                ("c_const",)),
}
_MODE_FLAGS = list(dict.fromkeys(f for ns, ts in _MODES.values() for f in ns + ts))


def _check_mode_flags(parser, args) -> None:
    """Exit 2 on a flag the mode does not read or one it needs and lacks."""
    needs, takes = _MODES[args.mode]
    if args.case == "custom":  # the custom model's constant has no default
        needs += ("c_const",)
    stray = [f for f in _MODE_FLAGS if getattr(args, f) is not None
             and f not in needs + takes]
    if stray:
        parser.error(f"mode {args.mode} takes no --{stray[0].replace('_', '-')}")
    missing = [f"--{f.replace('_', '-')}" for f in needs if getattr(args, f) is None]
    if missing:
        parser.error(f"mode {args.mode} needs {', '.join(missing)}")


def cmd_estimate(args, parser) -> int:
    _check_mode_flags(parser, args)
    if args.mode == "front-constant":
        trials = 25 if args.trials is None else args.trials
        c, sd = estimate_front_constant(args.distribution, args.n, trials,
                                        0 if args.seed is None else args.seed)
        print(_json_line({"distribution": args.distribution, "n": args.n,
                          "trials": trials, "c": c, "stddev": sd}))
        return 0
    if args.mode == "haar-moments":
        d1 = _load_spectrum_vector(args.spectrum_1)
        d2 = _load_spectrum_vector(args.spectrum_2)
        mean_sq, variance, mean_norm = haar_product_moments(d1, d2)
        payload = {"n": d1.size, "mean_sq": mean_sq, "variance": variance,
                   "mean_norm": mean_norm}
        if args.tail_t is not None:
            payload["tail_bound"] = concentration_tail_bound(d1, d2, args.tail_t)
        print(_json_line(payload))
        return 0
    if args.mode == "uniform-moment":
        value = uniform_product_moment(args.m, args.n, args.p, args.a)
        print(_json_line({"m": args.m, "n": args.n, "p": args.p, "a": args.a,
                          "mean_sq": value}))
        return 0
    # apriori
    est = apriori_relative_error(args.norm_a, args.norm_b, args.norm_da,
                                 args.norm_db, args.n, args.case, args.c_const)
    print(_json_line({"case": args.case, "n": args.n, "estimate": est}))
    return 0


# ------------------------------------------------------------------- parser


def _add_operand_args(p: argparse.ArgumentParser, *operands: str) -> None:
    """Each operand's flags (a file, or a generator kind with its seed, by
    default the operand's position), then the size flags they share."""
    for seed, which in enumerate(operands):
        name = which.upper()
        p.add_argument(f"--{which}", help=f"matrix {name} file (.mtx or CSV)")
        p.add_argument(f"--kind-{which}", dest=f"kind_{which}",
                       help=f"generate {name} with this kind")
        p.add_argument(f"--seed-{which}", dest=f"seed_{which}", type=int, default=seed)
        p.add_argument(f"--spectrum-{which}", dest=f"spectrum_{which}",
                       help=f"CSV vector for kind haar-spectrum ({name})")
    p.add_argument("--n", type=int, help="size for generated matrices")
    p.add_argument("--block", type=int, help="block size for block-toeplitz")


def build_parser() -> argparse.ArgumentParser:
    # no flag may be abbreviated: a removed flag must not parse as another
    parser = argparse.ArgumentParser(
        prog="apxmm", allow_abbrev=False,
        description="Approximate dense matrix multiplication via truncated "
                    "decompositions, with error estimates and benchmarks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    command = functools.partial(sub.add_parser, allow_abbrev=False)

    p = command("gen", help="generate a matrix and write it as CSV")
    p.add_argument("--kind", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--block", type=int)
    p.add_argument("--spectrum", help="CSV vector for kind haar-spectrum")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen)

    p = command("multiply", help="run one method on one matrix pair")
    p.add_argument("--method", required=True,
                   choices=list(_METHODS))
    p.add_argument("--order", choices=["zeroth", "first"])
    p.add_argument("--s", type=int,
                   help="component factor (svd: k = s floor(log2 n) + 1; "
                        "cd/sfft: k = ceil(s log2 n))")
    p.add_argument("--k", type=int, help="explicit component count (cd/sfft)")
    p.add_argument("--c", type=int, help="outer-product samples (lowrank)")
    p.add_argument("--seed", type=int,
                   help="method randomness seed for svd and lowrank (default 0)")
    p.add_argument("--sparsify-b", dest="sparsify_b", choices=["rows", "cols"],
                   help="sfft truncation side for B (default rows)")
    p.add_argument("--out", help="write the product matrix as CSV")
    p.add_argument("--check", action="store_true",
                   help="also compute the exact BLAS product and report rel_err")
    p.add_argument("--real-part", dest="real_part", action="store_true",
                   help="project a complex result to its real part")
    _add_operand_args(p, "a", "b")
    p.set_defaults(func=cmd_multiply)

    p = command("sweep", help="find minimal s reaching a tolerance")
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

    p = command("spectra", help="write singular values / circulant magnitudes")
    p.add_argument("--which", required=True, choices=["svd", "cd", "both"])
    p.add_argument("--out", required=True)
    _add_operand_args(p, "a")
    p.set_defaults(func=cmd_spectra)

    p = command("bench", help="batch-run methods into one JSON record")
    p.add_argument("--config", required=True, help="key = value config file")
    p.add_argument("--out", required=True, help="the record, a .json file")
    p.set_defaults(func=cmd_bench)

    p = command("estimate", help="evaluate error-model numbers directly")
    p.add_argument("--mode", required=True,
                   choices=["front-constant", "haar-moments", "uniform-moment",
                            "apriori"])
    p.add_argument("--distribution")
    p.add_argument("--n", type=int)
    p.add_argument("--trials", type=int, help="front-constant (default 25)")
    p.add_argument("--seed", type=int, help="front-constant (default 0)")
    p.add_argument("--spectrum-1", dest="spectrum_1")
    p.add_argument("--spectrum-2", dest="spectrum_2")
    p.add_argument("--tail-t", dest="tail_t", type=float)
    p.add_argument("--m", type=int)
    p.add_argument("--p", type=int)
    p.add_argument("--a", type=float)
    p.add_argument("--case", choices=_CASES)
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
