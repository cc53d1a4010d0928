"""Benchmark entry point: one workload and one seed in one serial process.

    python3 perfbench/run.py --workload lowk-2048 --seed 0 --seconds 30 --trace 0

Run from the repository root; apxmm is imported from ./src. Each metric is
printed as `name = value unit`; the last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics: every end-to-end metric with
--trace 0, every per-layer metric with --trace 1. The full record (the
environment, one row per product call, and with --trace 1 the spans and the
per-product time accounting) is written to perfbench/results/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def cap_blas_threads(nproc: int) -> None:
    """Set each BLAS/OpenMP thread variable to nproc unless it is already 1..nproc.

    Must run before numpy is first imported, which reads them once.
    """
    for var in THREAD_VARS:
        value = os.environ.get(var, "")
        if not (value.isdigit() and 1 <= int(value) <= nproc):
            os.environ[var] = str(nproc)


def git_commit() -> str | None:
    """HEAD commit read from ./.git, or None when the checkout has no repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def src_digest() -> str:
    """sha256 over the package sources, which names the code even without git."""
    h = hashlib.sha256()
    for path in sorted((SRC / "apxmm").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def environment(seed: int, nproc: int) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {key: blas.get(key) for key in ("name", "version", "openblas configuration")},
        "nproc": nproc,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "git_commit": git_commit(),
        "src_sha256": src_digest(),
        "seed": seed,
        "platform": platform.platform(),
    }


def parse_args(argv, workloads):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds < 0:
        p.error("--seed and --seconds must be >= 0")
    return args


def _metric(name, value, units):
    return {"value": None if value is None else float(value), "unit": units[name]}


def main(argv=None, workloads=None) -> int:
    t_start = time.perf_counter()
    nproc = len(os.sched_getaffinity(0))
    cap_blas_threads(nproc)
    if not (SRC / "apxmm" / "__init__.py").is_file():
        print(f"perfbench: no package source at {SRC / 'apxmm'}; "
              "run from a checkout of the repository", file=sys.stderr)
        return 2
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import harness
    from tracer import Tracer

    workloads = workloads or harness.WORKLOADS
    args = parse_args(argv, workloads)
    w = workloads[args.workload]
    run_id = f"{w.name}-seed{args.seed}-trace{args.trace}"
    run = harness.Run(w, args.seed, Tracer(run_id) if args.trace else None)

    run.setup()
    setup_s = time.perf_counter() - t_start
    print(f"perfbench {run_id}: set-up {setup_s:.2f}s", file=sys.stderr)
    run.prepare_checks()
    run.measure(args.seconds)

    if args.trace:
        values, units = run.per_layer(), harness.PER_LAYER_UNITS
    else:
        values, units = run.end_to_end(setup_s), harness.END_TO_END_UNITS
    metrics = {name: _metric(name, values[name], units) for name in units}
    attempted, passed = len(run.rows), run.passed()
    result = {"correct": passed == attempted, "attempted": attempted,
              "failed": attempted - passed, "metrics": metrics}

    record = {"run_id": run_id, "workload": w.name, "n": w.n, "s": w.s, "k": w.k,
              "seconds": args.seconds, "environment": environment(args.seed, nproc),
              **result, "rows": run.rows}
    if args.trace:
        record["accounting"] = run.accounting()
        record["span_summary"] = run.tracer.summary()
        record["spans"] = run.tracer.to_records()
    RESULTS.mkdir(exist_ok=True)
    (RESULTS / f"{run_id}.json").write_text(json.dumps(record, indent=1))

    for name, metric in metrics.items():
        print(f"{name} = {metric['value']} {metric['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
