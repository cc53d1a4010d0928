"""Tests of the benchmark itself, on every workload shrunk to n=32.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]

import checks  # noqa: E402
import harness  # noqa: E402
import run  # noqa: E402
from tracer import Tracer  # noqa: E402

TINY = {name: dataclasses.replace(w, n=32) for name, w in harness.WORKLOADS.items()}
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

# relative error of the lowrank product at n=32, seed 0, recorded when the
# benchmark was written; only a change of summation order may move it
LOWRANK_RELERR = {
    "lowk-2048": 0.3911429739270844,
    "highk-1024": 0.11585904781201845,
    "haar-512": 2.341865942025106,
}


@pytest.fixture(autouse=True)
def one_call_per_round(monkeypatch):
    monkeypatch.setattr(harness, "MIN_CALL_S", 0.0)


@pytest.fixture
def bench(monkeypatch, tmp_path, capsys):
    """Call run.main on the tiny workloads; return (stdout lines, last-line JSON)."""
    monkeypatch.setattr(run, "RESULTS", tmp_path)
    for var in run.THREAD_VARS:
        monkeypatch.setenv(var, "1")

    def call(workload, seed=0, trace=0):
        argv = ["--workload", workload, "--seed", str(seed), "--seconds", "0",
                "--trace", str(trace)]
        assert run.main(argv, workloads=TINY) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        return lines, json.loads(lines[-1])

    return call


def test_workloads_match_spec():
    assert {w["name"] for w in SPEC["workloads"]} <= set(TINY)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == harness.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == harness.PER_LAYER_UNITS


@pytest.mark.parametrize("name", sorted(TINY))
def test_every_workload_builds_and_passes(name):
    r = harness.Run(TINY[name], seed=0, tracer=Tracer(name))
    r.setup()
    r.prepare_checks()
    r.measure(0.0)
    assert len(r.rows) == 2 * harness.MIN_ROUNDS * len(harness.PRODUCTS)  # one call each
    assert all(row["ok"] for row in r.rows), [row for row in r.rows if not row["ok"]]
    # the row records the k the method used; svd's rule differs from the CLI's
    svd_k = {row["k"] for row in r.rows if row["method"] == "svd"}
    assert svd_k == {TINY[name].s * 5 + 1}
    assert {row["k"] for row in r.rows if row["method"] != "svd"} == {TINY[name].k}


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_printed_with_unit(bench, trace, section):
    lines, result = bench("haar-512", trace=trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    for m in SPEC[section]:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], float)
        assert f"{m['name']} = {got['value']} {m['unit']}" in lines
    assert len(result["metrics"]) == len(SPEC[section])


def test_second_seed_same_metric_set(bench):
    _, first = bench("lowk-2048", seed=0)
    _, second = bench("lowk-2048", seed=1)
    assert first["metrics"].keys() == second["metrics"].keys()
    assert first["metrics"]["cd1_relerr"] != second["metrics"]["cd1_relerr"]


@pytest.mark.parametrize("name", sorted(TINY))
def test_check_flags_perturbed_product(name):
    w = TINY[name]
    A, B = harness.generate_pair(w, 3)
    targets = checks.build_targets(A, B, A @ B, w.s, w.k, 3)
    noise = np.random.default_rng(0).standard_normal((w.n, w.n))
    for label in harness.PRODUCTS:
        M, _ = harness.call_product(label, A, B, w, 3)
        assert checks.deviation(M, targets[label]) <= checks.REL_TOL, label
        bumped = M + 1e-6 * np.linalg.norm(M) * noise / np.linalg.norm(noise)
        assert checks.deviation(bumped, targets[label]) > checks.REL_TOL, label
        assert checks.deviation(M[:-1], targets[label]) == float("inf")
        M = M.copy()
        M[0, 0] = np.nan
        assert checks.deviation(M, targets[label]) == float("inf")


@pytest.mark.parametrize("name", sorted(TINY))
def test_lowrank_relerr_as_recorded(name):
    w = TINY[name]
    A, B = harness.generate_pair(w, 0)
    M, _ = harness.call_product("lowrank", A, B, w, 0)
    AB = A @ B
    relerr = np.linalg.norm(AB - M) / np.linalg.norm(AB)
    assert relerr == pytest.approx(LOWRANK_RELERR[name], rel=checks.REL_TOL)


def test_bare_directory_fails(tmp_path):
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(SPEC))
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "results", "tests"))
    done = subprocess.run([*SPEC["command"], "--workload", "haar-512", "--seed", "0",
                           "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert done.returncode != 0
    assert done.stdout == ""
