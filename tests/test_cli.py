"""End-to-end tests of the command-line interface."""

import json
import math
import os
import re
import shlex
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import scipy

import apxmm
from apxmm import core
from apxmm.baseline import randomized_outer_product_multiply
from apxmm.cli import (
    build_parser,
    components_for,
    main,
    operation_count,
    pair_seeds,
    parse_bench_config,
)
from apxmm.genmat import MatrixSpec, generate, read_csv, write_csv
from apxmm.svd import component_count, svd_first_order_multiply


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def last_json(out: str) -> dict:
    return json.loads(out.strip().splitlines()[-1])


# ------------------------------------------------------------------- helpers

def test_pair_seeds():
    assert pair_seeds(0, 0) == (0, 1)
    assert pair_seeds(0, 3) == (6, 7)
    assert pair_seeds(5, 3) == (11, 12)


def test_components_for():
    assert components_for(64, 1) == 6
    assert components_for(64, 2) == 12
    assert components_for(700, 1) == 10
    assert components_for(1, 5) == 1
    for s in (0, -3):  # the same refusal as svd's s
        with pytest.raises(ValueError, match="s must be >= 1"):
            components_for(64, s)


def test_operation_count_forms():
    assert operation_count("svd", 10, k=3) == 6 * 3 * 100
    L = math.ceil(math.log2(16))
    assert operation_count("cd", 16, k=2) == 4 * 2 * 256 + 5 * 256 * L
    assert operation_count("sfft", 16, k=2) == 8 * 2 * 256 + 2 * 256 * L
    for method in ("magic", "lowrank"):
        with pytest.raises(ValueError):
            operation_count(method, 8)


# ----------------------------------------------------------------------- gen

def test_gen_writes_deterministic_matrix(tmp_path, capsys):
    out1 = tmp_path / "a1.csv"
    out2 = tmp_path / "a2.csv"
    for out in (out1, out2):
        code, _, _ = run_cli(capsys, "gen", "--kind", "toeplitz", "--n", "8",
                             "--seed", "4", "--out", str(out))
        assert code == 0
    M1, M2 = read_csv(out1), read_csv(out2)
    assert np.array_equal(M1, M2)
    assert np.array_equal(M1, generate(MatrixSpec("toeplitz", 8, seed=4)))


def test_gen_haar_spectrum(tmp_path, capsys):
    spath = tmp_path / "spec.csv"
    spath.write_text("3,2,1\n", encoding="ascii")
    out = tmp_path / "m.csv"
    code, _, _ = run_cli(capsys, "gen", "--kind", "haar-spectrum", "--n", "3",
                         "--spectrum", str(spath), "--out", str(out))
    assert code == 0
    s = np.linalg.svd(read_csv(out), compute_uv=False)
    assert np.max(np.abs(s - [3.0, 2.0, 1.0])) < 1e-8


def test_gen_block(tmp_path, capsys):
    out = tmp_path / "bt.csv"
    code, _, _ = run_cli(capsys, "gen", "--kind", "block-toeplitz", "--n", "8",
                         "--block", "2", "--out", str(out))
    assert code == 0
    M = read_csv(out)
    assert np.array_equal(M[0:2, 0:2], M[2:4, 2:4])


def test_gen_unknown_kind_fails(tmp_path, capsys):
    code, _, err = run_cli(capsys, "gen", "--kind", "wavelet", "--n", "4",
                           "--out", str(tmp_path / "x.csv"))
    assert code == 1
    assert "error:" in err


@pytest.mark.parametrize("cells,message", [
    ("3,2\n1,0.5\n", "must be a single row or column"),
    ("3+1j,2,1\n", "spectrum values must be real"),
])
def test_gen_spectrum_must_be_a_real_vector(tmp_path, capsys, cells, message):
    spath = tmp_path / "spec.csv"
    spath.write_text(cells, encoding="ascii")
    code, _, err = run_cli(capsys, "gen", "--kind", "haar-spectrum", "--n", "3",
                           "--spectrum", str(spath), "--out", str(tmp_path / "m.csv"))
    assert code == 1
    assert message in err
    assert not (tmp_path / "m.csv").exists()


# ------------------------------------------------------------------ multiply

def test_multiply_naive_from_files(tmp_path, capsys):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    out = tmp_path / "m.csv"
    write_csv(np.array([[1.0, 2.0], [3.0, 4.0]]), a)
    write_csv(np.array([[5.0, 6.0], [7.0, 8.0]]), b)
    code, stdout, _ = run_cli(capsys, "multiply", "--method", "naive",
                              "--a", str(a), "--b", str(b), "--out", str(out))
    assert code == 0
    assert np.array_equal(read_csv(out), np.array([[19.0, 22.0], [43.0, 50.0]]))
    payload = last_json(stdout)
    assert payload["method"] == "naive"
    assert payload["n"] == 2


def test_multiply_accepts_matrixmarket(tmp_path, capsys):
    a = tmp_path / "a.mtx"
    a.write_text("%%MatrixMarket matrix coordinate real general\n"
                 "2 2 2\n1 1 2.0\n2 2 3.0\n", encoding="ascii")
    b = tmp_path / "b.csv"
    write_csv(np.eye(2), b)
    out = tmp_path / "m.csv"
    code, _, _ = run_cli(capsys, "multiply", "--method", "naive",
                         "--a", str(a), "--b", str(b), "--out", str(out))
    assert code == 0
    assert np.array_equal(read_csv(out), np.array([[2.0, 0.0], [0.0, 3.0]]))


def test_multiply_cd_exact_on_circulant_input(capsys):
    # circulant A is a single cycle component, so k=1 leaves no residue
    code, stdout, _ = run_cli(capsys, "multiply", "--method", "cd",
                              "--order", "first", "--k", "1",
                              "--kind-a", "circulant", "--kind-b", "general",
                              "--n", "16", "--check")
    assert code == 0
    payload = last_json(stdout)
    assert payload["rel_err"] < 1e-8
    assert payload["k"] == 1


def test_multiply_s_drives_k(capsys):
    code, stdout, _ = run_cli(capsys, "multiply", "--method", "cd",
                              "--order", "first", "--s", "1",
                              "--kind-a", "toeplitz", "--kind-b", "toeplitz",
                              "--n", "16", "--check")
    assert code == 0
    payload = last_json(stdout)
    assert payload["k"] == components_for(16, 1)


def test_multiply_help_states_each_k_rule(capsys):
    # svd keeps s floor(log2 n) + 1 components, cd and sfft ceil(s log2 n)
    with pytest.raises(SystemExit) as exit_info:
        main(["multiply", "--help"])
    assert exit_info.value.code == 0
    help_text = " ".join(capsys.readouterr().out.split())
    assert "svd: k = s floor(log2 n) + 1" in help_text
    assert "cd/sfft: k = ceil(s log2 n)" in help_text
    code, stdout, _ = run_cli(capsys, "multiply", "--method", "svd",
                              "--order", "first", "--s", "1",
                              "--kind-a", "toeplitz", "--kind-b", "toeplitz",
                              "--n", "16")
    assert code == 0
    assert last_json(stdout)["k"] == component_count(16, 1) == 5
    assert components_for(16, 1) == 4


def test_multiply_s_below_one_exits_1(capsys):
    for method, s in (("cd", "0"), ("sfft", "-1")):
        code, _, err = run_cli(capsys, "multiply", "--method", method,
                               "--order", "first", "--s", s,
                               "--kind-a", "general", "--kind-b", "toeplitz",
                               "--n", "16")
        assert code == 1
        assert "error: s must be >= 1" in err


def test_multiply_real_part_output(tmp_path, capsys):
    out = tmp_path / "m.csv"
    code, _, _ = run_cli(capsys, "multiply", "--method", "sfft",
                         "--order", "first", "--k", "4",
                         "--kind-a", "general", "--kind-b", "general",
                         "--n", "8", "--real-part", "--out", str(out))
    assert code == 0
    M = read_csv(out)
    assert M.dtype == np.float64


def test_multiply_complex_output_without_flag(tmp_path, capsys):
    out = tmp_path / "m.csv"
    code, _, _ = run_cli(capsys, "multiply", "--method", "sfft",
                         "--order", "first", "--k", "4",
                         "--kind-a", "general", "--kind-b", "general",
                         "--n", "8", "--out", str(out))
    assert code == 0
    assert read_csv(out).dtype == np.complex128


def test_multiply_selector_misuse_exits_2(capsys):
    base = ["multiply", "--kind-a", "general", "--kind-b", "general", "--n", "8"]
    bad = [
        ["--method", "svd", "--s", "1"],                      # missing --order
        ["--method", "lowrank", "--c", "4", "--order", "first"],
        ["--method", "naive", "--s", "1"],
        ["--method", "svd", "--order", "first", "--k", "2"],
        ["--method", "cd", "--order", "first", "--s", "1", "--k", "2"],
        ["--method", "cd", "--order", "first"],
        ["--method", "lowrank"],                              # missing --c
    ]
    for extra in bad:
        with pytest.raises(SystemExit) as exc:
            main(base + extra)
        assert exc.value.code == 2
        capsys.readouterr()


def test_multiply_refuses_options_the_method_does_not_read(capsys):
    base = ["multiply", "--kind-a", "general", "--kind-b", "general", "--n", "8"]
    stray = [
        (["--method", "cd", "--k", "2", "--order", "first", "--sparsify-b", "cols"],
         "--method cd takes no --sparsify-b"),
        (["--method", "svd", "--s", "1", "--order", "first", "--sparsify-b", "rows"],
         "--method svd takes no --sparsify-b"),
        (["--method", "naive", "--sparsify-b", "rows"],
         "--method naive takes no --sparsify-b"),
        (["--method", "svd", "--s", "1", "--order", "first", "--power-iterations", "1"],
         "unrecognized arguments: --power-iterations 1"),
    ]
    for extra, message in stray:
        with pytest.raises(SystemExit) as exc:
            main(base + extra)
        assert exc.value.code == 2
        assert message in capsys.readouterr().err
    for extra in (["--method", "svd", "--s", "1", "--seed", "1"],
                  ["--method", "sfft", "--k", "6", "--sparsify-b", "cols"]):
        code, out, _ = run_cli(capsys, *base, *extra, "--order", "first")
        assert code == 0
        assert last_json(out)["method"] == extra[1]


def test_multiply_check_reports_rel_err_once(capsys):
    code, stdout, _ = run_cli(capsys, "multiply", "--method", "svd", "--s", "1",
                              "--order", "first", "--kind-a", "general",
                              "--kind-b", "toeplitz", "--n", "16", "--check")
    assert code == 0
    payload = last_json(stdout)
    assert "measured_error" not in payload
    A = generate(MatrixSpec("general", 16, seed=0))
    B = generate(MatrixSpec("toeplitz", 16, seed=1))
    M, _ = svd_first_order_multiply(A, B, 1, 1, 0)
    assert payload["rel_err"] == core.relative_error(M, A @ B)


def test_multiply_seed_only_for_seeded_methods(capsys):
    base = ["multiply", "--kind-a", "general", "--kind-b", "general", "--n", "8",
            "--seed", "5"]
    for extra in (["--method", "cd", "--k", "2", "--order", "first"],
                  ["--method", "sfft", "--k", "2", "--order", "first"],
                  ["--method", "naive"]):
        with pytest.raises(SystemExit) as exc:
            main(base + extra)
        assert exc.value.code == 2
        assert f"--method {extra[1]} takes no --seed" in capsys.readouterr().err
    for extra in (["--method", "svd", "--s", "1", "--order", "first"],
                  ["--method", "lowrank", "--c", "4"]):
        code, out, _ = run_cli(capsys, *base, *extra)
        assert code == 0
        assert last_json(out)["method"] == extra[1]


def test_multiply_lowrank_writes_the_baseline_product(tmp_path, capsys):
    out = tmp_path / "m.csv"
    code, stdout, _ = run_cli(capsys, "multiply", "--method", "lowrank",
                              "--c", "20", "--seed", "3", "--kind-a", "general",
                              "--kind-b", "general", "--n", "32", "--out", str(out))
    assert code == 0
    assert last_json(stdout)["k"] == 20
    assert last_json(stdout)["norm_da"] is None and last_json(stdout)["norm_db"] is None
    A = generate(MatrixSpec("general", 32, seed=0))
    B = generate(MatrixSpec("general", 32, seed=1))
    M, _ = randomized_outer_product_multiply(A, B, 20, 3)
    assert np.array_equal(read_csv(out).view(np.uint64), M.view(np.uint64))


@pytest.mark.parametrize("a,b,message", [
    (np.eye(2), np.array([[1.0, np.nan], [0.0, 1.0]]), core.NOT_FINITE),
    (np.ones((3, 4)), np.ones((3, 4)), "dimension mismatch: (3, 4) x (3, 4)"),
])
def test_multiply_naive_gates_its_operands(tmp_path, capsys, a, b, message):
    # the exact product refuses what every approximate product refuses
    write_csv(a, tmp_path / "a.csv")
    write_csv(b, tmp_path / "b.csv")
    code, _, err = run_cli(capsys, "multiply", "--method", "naive",
                           "--a", str(tmp_path / "a.csv"), "--b", str(tmp_path / "b.csv"))
    assert code == 1
    assert message in err


@pytest.mark.parametrize("argv", [
    ["spectra", "--which", "cd", "--kind-a", "toeplitz", "--n", "8", "--b", "4"],
    ["multiply", "--method", "svd", "--s", "1", "--ord", "first",
     "--kind-a", "general", "--kind-b", "general", "--n", "8"],
])
def test_flags_are_not_abbreviated(tmp_path, capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--out", str(tmp_path / "x.csv")])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    assert not (tmp_path / "x.csv").exists()


def test_multiply_rejects_file_and_kind(tmp_path, capsys):
    a = tmp_path / "a.csv"
    write_csv(np.eye(2), a)
    with pytest.raises(SystemExit):
        main(["multiply", "--method", "naive", "--a", str(a),
              "--kind-a", "general", "--kind-b", "general", "--n", "2"])
    capsys.readouterr()


@pytest.mark.parametrize("operands,message", [
    (["--kind-b", "general", "--n", "8"], "matrix a: need --a FILE or --kind-a KIND"),
    (["--kind-a", "general", "--kind-b", "general"], "--n is required with --kind-a"),
])
def test_multiply_operand_needs_a_source_and_size(capsys, operands, message):
    with pytest.raises(SystemExit) as exc:
        main(["multiply", "--method", "naive", *operands])
    assert exc.value.code == 2
    assert message in capsys.readouterr().err


# --------------------------------------------------------------------- sweep

def test_sweep_vacuous_tolerance(capsys):
    code, out, err = run_cli(capsys, "sweep", "--method", "cd",
                             "--order", "first", "--tol", "1.1",
                             "--kind-a", "toeplitz", "--kind-b", "toeplitz",
                             "--n", "64", "--trials", "2")
    assert code == 0
    assert out.strip() == "1"
    # per-s progress goes to stderr as JSON
    assert json.loads(err.strip().splitlines()[-1])["s"] == 1


def test_sweep_budget_sentinel(capsys):
    # at n=16 the cd operation model already exceeds 2 n^3 for s=1
    code, out, _ = run_cli(capsys, "sweep", "--method", "cd",
                           "--order", "first", "--tol", "0.5",
                           "--kind-a", "toeplitz", "--kind-b", "toeplitz",
                           "--n", "16", "--trials", "1")
    assert code == 0
    assert out.strip() == "-"


def test_sweep_budget_sentinel_prices_svd_by_its_k(capsys):
    # svd keeps 6 components at n=32, s=1 and 11 at s=2, whose modeled cost
    # 6 * 11 * 32^2 = 67584 passes 2 * 32^3 = 65536; the cd/sfft k of 10
    # would have let s=2 run
    code, out, err = run_cli(capsys, "sweep", "--method", "svd",
                             "--order", "first", "--tol", "1e-12",
                             "--kind-a", "general", "--kind-b", "general",
                             "--n", "32", "--trials", "1", "--s-max", "3")
    assert code == 0
    assert out.strip() == "-"
    progress = err.strip().splitlines()
    assert len(progress) == 1 and json.loads(progress[0])["s"] == 1


def test_sweep_s_max_exhaustion(capsys):
    code, out, _ = run_cli(capsys, "sweep", "--method", "cd",
                           "--order", "first", "--tol", "1e-12",
                           "--kind-a", "general", "--kind-b", "general",
                           "--n", "64", "--trials", "1", "--s-max", "2")
    assert code == 0
    assert out.strip() == "-"


@pytest.mark.parametrize("flag,value,message", [
    ("--tol", "0", "--tol must be > 0"),
    ("--tol", "-0.5", "--tol must be > 0"),
    ("--trials", "0", "--trials and --s-max must be >= 1"),
    ("--s-max", "0", "--trials and --s-max must be >= 1"),
])
def test_sweep_refuses_bounds_out_of_range(capsys, flag, value, message):
    argv = {"--method": "cd", "--order": "first", "--tol": "0.5", "--kind-a": "general",
            "--kind-b": "general", "--n": "8", flag: value}
    with pytest.raises(SystemExit) as exc:
        main(["sweep", *(word for item in argv.items() for word in item)])
    assert exc.value.code == 2
    assert message in capsys.readouterr().err


def test_sweep_reproducible(capsys):
    argv = ["sweep", "--method", "sfft", "--order", "first", "--tol", "0.2",
            "--kind-a", "toeplitz", "--kind-b", "toeplitz",
            "--n", "64", "--trials", "2"]
    code1, out1, err1 = run_cli(capsys, *argv)
    code2, out2, err2 = run_cli(capsys, *argv)
    assert (code1, out1, err1) == (code2, out2, err2)


def test_sweep_k_is_the_k_used(capsys):
    # svd keeps s * floor(log2 n) + 1 = 7 components at n=64, s=1, not the
    # ceil(s * log2 n) = 6 budget handed to cd and sfft
    code, out, err = run_cli(capsys, "sweep", "--method", "svd",
                             "--order", "first", "--tol", "1.1",
                             "--kind-a", "general", "--kind-b", "general",
                             "--n", "64", "--trials", "1")
    assert code == 0 and out.strip() == "1"
    assert json.loads(err.strip().splitlines()[-1])["k"] == 7


# ------------------------------------------------------------------- spectra

def test_spectra_cd_identity(tmp_path, capsys):
    a = tmp_path / "i.csv"
    write_csv(np.eye(8), a)
    out = tmp_path / "spec.csv"
    code, stdout, _ = run_cli(capsys, "spectra", "--which", "cd",
                              "--a", str(a), "--out", str(out))
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "index,magnitude"
    mags = [float(ln.split(",")[1]) for ln in lines[1:]]
    assert abs(mags[0] - 1.0) < 1e-12
    assert max(mags[1:]) < 1e-12
    assert last_json(stdout)["files"] == [str(out)]


def test_spectra_svd_type1(tmp_path, capsys):
    out = tmp_path / "s.csv"
    code, _, _ = run_cli(capsys, "spectra", "--which", "svd",
                         "--kind-a", "type1", "--n", "64", "--seed-a", "3",
                         "--out", str(out))
    assert code == 0
    lines = out.read_text().strip().splitlines()[1:]
    mags = np.array([float(ln.split(",")[1]) for ln in lines])
    expect = np.exp(-np.arange(64) / 64)
    assert np.max(np.abs(mags - expect)) < 1e-6


@pytest.mark.parametrize("dtype", [float, complex])
def test_spectra_svd_is_exact_above_1024(tmp_path, capsys, dtype):
    # one path at every size: all 64 singular values of a 1025 x 64 matrix,
    # real or complex, as np.linalg.svd gives them
    rng = np.random.default_rng(5)
    A = rng.uniform(size=(1025, 64))
    if dtype is complex:
        A = A + 1j * rng.uniform(size=A.shape)
    a = tmp_path / "a.csv"
    write_csv(A, a)
    out = tmp_path / "s.csv"
    code, _, _ = run_cli(capsys, "spectra", "--which", "svd", "--a", str(a),
                         "--out", str(out))
    assert code == 0
    table = np.loadtxt(out, delimiter=",", skiprows=1)
    expect = np.linalg.svd(read_csv(a), compute_uv=False)
    assert table.shape == (64, 2)
    assert np.array_equal(table[:, 0], np.arange(64))
    assert np.max(np.abs(table[:, 1] - expect)) <= 1e-12 * expect[0]


def test_spectra_cd_at_any_scale(tmp_path, capsys):
    # the decomposition sums unscaled squares: the command runs it on A
    # scaled by a power of two and scales the magnitudes back, so they scale
    # exactly with A and stay finite where their squares overflow
    A = np.random.default_rng(6).standard_normal((16, 16))

    def magnitudes(X, name):
        a, out = tmp_path / f"{name}.csv", tmp_path / f"{name}_cd.csv"
        write_csv(X, a)
        code, _, _ = run_cli(capsys, "spectra", "--which", "cd", "--a", str(a),
                             "--out", str(out))
        assert code == 0
        return np.loadtxt(out, delimiter=",", skiprows=1)[:, 1]

    plain = magnitudes(A, "plain")
    assert np.array_equal(magnitudes(A * 2.0**600, "up"), plain * 2.0**600)
    big = magnitudes(A * 1e160, "big")
    assert np.isfinite(big).all()
    np.testing.assert_allclose(big, 1e160 * plain, rtol=1e-13, atol=0)


@pytest.mark.parametrize("flag", ["--s", "--seed"])
def test_spectra_takes_no_sketch_flags(tmp_path, capsys, flag):
    with pytest.raises(SystemExit) as exc:
        main(["spectra", "--which", "svd", "--kind-a", "kappa", "--n", "8",
              flag, "1", "--out", str(tmp_path / "o.csv")])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
    assert not (tmp_path / "o.csv").exists()


def test_spectra_both_writes_two_files(tmp_path, capsys):
    out = tmp_path / "pair.csv"
    code, stdout, _ = run_cli(capsys, "spectra", "--which", "both",
                              "--kind-a", "toeplitz", "--n", "32",
                              "--out", str(out))
    assert code == 0
    files = last_json(stdout)["files"]
    assert str(tmp_path / "pair_svd.csv") in files
    assert str(tmp_path / "pair_cd.csv") in files


def test_spectra_toeplitz_cd_concentrates(tmp_path, capsys):
    # smooth diagonal structure: the top ceil(log2 n) cycle frequencies
    # carry most of the energy
    out = tmp_path / "t.csv"
    n = 64
    code, _, _ = run_cli(capsys, "spectra", "--which", "cd",
                         "--kind-a", "toeplitz", "--n", str(n), "--out", str(out))
    assert code == 0
    lines = out.read_text().strip().splitlines()[1:]
    mags = np.array([float(ln.split(",")[1]) for ln in lines])
    energy = np.sort(mags**2)[::-1]
    share = energy[: math.ceil(math.log2(n))].sum() / energy.sum()
    assert share > 0.5


@pytest.mark.parametrize("flag,value", [("--b", "b.csv"), ("--kind-b", "general"),
                                        ("--seed-b", "3"), ("--spectrum-b", "s.csv")])
def test_spectra_takes_no_b_operand(tmp_path, capsys, flag, value):
    with pytest.raises(SystemExit) as exc:
        main(["spectra", "--which", "cd", "--kind-a", "kappa", "--n", "8",
              flag, value, "--out", str(tmp_path / "o.csv")])
    assert exc.value.code == 2
    capsys.readouterr()
    assert not (tmp_path / "o.csv").exists()


def test_spectra_cd_needs_square(tmp_path, capsys):
    a = tmp_path / "r.csv"
    write_csv(np.ones((3, 4)), a)
    for which in ("cd", "both"):  # both refuses before it writes the svd file
        with pytest.raises(SystemExit) as exc:
            main(["spectra", "--which", which, "--a", str(a),
                  "--out", str(tmp_path / "o.csv")])
        assert exc.value.code == 2
        assert "cd spectra need a square matrix" in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["r.csv"]


# --------------------------------------------------------------------- bench

ROW_KEYS = ["method", "order", "n", "kind_a", "kind_b", "s", "k", "rel_err",
            "apriori_est", "posterior_est", "wall_time_s", "seed", "over_naive"]


def run_bench(tmp_path, capsys, config: str, out: str = "rows.json"):
    """Run bench on a config text; (exit code, stdout summary, record or None)."""
    conf = tmp_path / "b.conf"
    conf.write_text(config, encoding="ascii")
    code, stdout, _ = run_cli(capsys, "bench", "--config", str(conf),
                              "--out", str(tmp_path / out))
    record = tmp_path / out
    return code, stdout, json.loads(record.read_text()) if record.exists() else None


def count_naive_calls(monkeypatch) -> list:
    """A list that grows by one at each exact product the CLI runs."""
    from apxmm import cli

    calls = []
    naive = cli._METHODS["naive"]
    monkeypatch.setitem(cli._METHODS, "naive", naive._replace(
        product=lambda A, B: calls.append(1) or naive.product(A, B)))
    return calls


def test_bench_naive_rows(tmp_path, capsys):
    code, stdout, record = run_bench(tmp_path, capsys, "methods = naive\n"
                                     "kinds = general:general\nsizes = 8\ntrials = 2\n")
    assert code == 0
    assert len(record["rows"]) == 2
    for row in record["rows"]:
        assert row["method"] == "naive" and row["order"] == "-"
        assert row["s"] is None and row["k"] is None
        assert row["rel_err"] == 0.0 and row["over_naive"] == 1.0
    assert last_json(stdout)["rows"] == 2


def test_bench_reports_environment(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("OMP_NUM_THREADS", "3")
    monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
    code, stdout, record = run_bench(tmp_path, capsys, "methods = naive\n"
                                     "kinds = general:general\nsizes = 8\ntrials = 1\n")
    assert code == 0
    env = last_json(stdout)["environment"]
    assert env == record["environment"] == {
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "cpu_count": os.cpu_count(),
        "workers": core.WORKERS,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": "3",
        "MKL_NUM_THREADS": None,
    }
    assert env["workers"] >= 1


def test_bench_second_run_replaces_record(tmp_path, capsys):
    config = "methods = naive\nkinds = general:general\nsizes = 8\ntrials = {}\n"
    assert run_bench(tmp_path, capsys, config.format(2))[0] == 0
    code, _, record = run_bench(tmp_path, capsys, config.format(1))
    assert code == 0
    assert record["config"]["trials"] == 1
    assert len(record["rows"]) == 1
    assert sorted(p.name for p in tmp_path.iterdir()) == ["b.conf", "rows.json"]


def test_bench_combination_count(tmp_path, capsys):
    code, stdout, record = run_bench(tmp_path, capsys,
                                     "methods = cd:first, sfft:zeroth\n"
                                     "kinds = toeplitz:toeplitz\n"
                                     "sizes = 8, 16\n"
                                     "s = 1\n"
                                     "trials = 2\n"
                                     "seed_base = 0\n")
    assert code == 0
    # 2 methods x 1 kind pair x 2 sizes x 1 s x 2 trials
    assert last_json(stdout)["rows"] == 8
    assert len(record["rows"]) == 8


def test_bench_exact_product_once_per_pair(tmp_path, capsys, monkeypatch):
    # 14 rows on 2 distinct (kind pair, n, trial) pairs: each pair's exact
    # product runs three times, for the median of its wall times
    calls = count_naive_calls(monkeypatch)
    code, stdout, record = run_bench(tmp_path, capsys,
                                     "methods = naive, cd:zeroth, cd:first, svd:first\n"
                                     "kinds = general:toeplitz\nsizes = 8\ns = 1, 2\n"
                                     "trials = 2\n")
    assert code == 0
    assert len(calls) == 6
    # rows keep the config's order: method, then kind pair, n, s, trial
    expected = [("naive", "-", None, t) for t in (0, 1)]
    for method, order in (("cd", "zeroth"), ("cd", "first"), ("svd", "first")):
        expected += [(method, order, s, t) for s in (1, 2) for t in (0, 1)]
    rows = record["rows"]
    assert [(r["method"], r["order"], r["s"], r["seed"]) for r in rows] == expected
    assert all((r["kind_a"], r["kind_b"]) == ("general", "toeplitz") for r in rows)
    assert last_json(stdout)["rows"] == 14


def test_bench_rows_take_the_median_of_three_runs(tmp_path, capsys, monkeypatch):
    # every product, exact or not, runs three times; its row keeps the
    # first run's report and the median of the three wall times
    from apxmm import cli

    script = {"naive": [(4.0, 0.1), (1.0, 0.2), (2.0, 0.3)],
              "cd": [(9.0, 0.4), (3.0, 0.5), (6.0, 0.6)]}
    for name, runs in script.items():
        method = cli._METHODS[name]

        def product(*args, method=method, runs=runs):
            M, report = method.product(*args)
            wall, posterior = runs.pop(0)
            return M, replace(report, wall_time=wall, posterior_estimate=posterior)

        monkeypatch.setitem(cli._METHODS, name, method._replace(product=product))
    code, _, record = run_bench(tmp_path, capsys, "methods = naive, cd:first\n"
                                "kinds = general:general\nsizes = 8\ns = 1\ntrials = 1\n")
    assert code == 0
    assert [(r["method"], r["wall_time_s"], r["posterior_est"], r["over_naive"])
            for r in record["rows"]] == [("naive", 2.0, 0.1, 1.0), ("cd", 6.0, 0.4, 3.0)]
    assert script == {"naive": [], "cd": []}


@pytest.mark.parametrize("config", [
    "kinds = general:general, general:bogus\nsizes = 8\n",
    "kinds = general:general, general:haar-spectrum\nsizes = 8\n",
    "kinds = general:general\nsizes = 8, 0\n",
])
def test_bench_config_checked_before_first_pair(tmp_path, capsys, monkeypatch, config):
    # a bad value anywhere in the config fails before any product runs
    calls = count_naive_calls(monkeypatch)
    code, _, record = run_bench(tmp_path, capsys, f"methods = naive\n{config}trials = 1\n")
    assert code == 1
    assert calls == [] and record is None


@pytest.mark.parametrize("out,extra", [("rows.csv", []), ("rows.json", ["--ratios"])])
def test_bench_refuses_csv_and_ratios(tmp_path, capsys, monkeypatch, out, extra):
    # the record is the one output: a CSV path or --ratios is a usage error
    calls = count_naive_calls(monkeypatch)
    conf = tmp_path / "b.conf"
    conf.write_text("methods = naive\nkinds = general:general\nsizes = 8\ntrials = 1\n",
                    encoding="ascii")
    with pytest.raises(SystemExit) as exc:
        main(["bench", "--config", str(conf), "--out", str(tmp_path / out), *extra])
    assert exc.value.code == 2
    assert calls == []
    assert [p.name for p in tmp_path.iterdir()] == ["b.conf"]
    capsys.readouterr()


def test_bench_k_column_is_the_k_used(tmp_path, capsys):
    # svd counts its rank as s * floor(log2 n) + 1 = 10 at n=512, s=1,
    # not the ceil(s * log2 n) = 9 budget handed to cd and sfft
    code, _, record = run_bench(tmp_path, capsys, "methods = svd:zeroth\n"
                                "kinds = general:general\nsizes = 512\ns = 1\ntrials = 1\n")
    assert code == 0
    [row] = record["rows"]
    assert (row["method"], row["n"], row["s"], row["k"]) == ("svd", 512, 1, 10)


def test_bench_json_record(tmp_path, capsys):
    # --out holds the parsed config, the environment and each row of this
    # run with its wall time over its pair's naive time; no other file
    config = ("methods = naive, cd:first, sfft:zeroth\n"
              "kinds = general:toeplitz\nsizes = 16, 32\ns = 1\ntrials = 2\n")
    code, stdout, record = run_bench(tmp_path, capsys, config)
    assert code == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == ["b.conf", "rows.json"]
    assert set(record) == {"config", "environment", "rows"}
    assert record["config"] == json.loads(json.dumps(parse_bench_config(tmp_path / "b.conf")))
    assert record["environment"] == last_json(stdout)["environment"]
    rows = record["rows"]
    assert len(rows) == 12
    naive = {}
    for row in rows:
        assert list(row) == ROW_KEYS
        if row["method"] == "naive":
            naive[row["n"], row["seed"]] = row["wall_time_s"]
    assert len(naive) == 4
    for row in rows:
        assert row["over_naive"] == row["wall_time_s"] / naive[row["n"], row["seed"]]


def test_bench_lowrank_rows_and_ratios(tmp_path, capsys):
    code, _, record = run_bench(tmp_path, capsys, "methods = lowrank, naive\n"
                                "kinds = general:general\nsizes = 16\nc = 8\ntrials = 2\n")
    assert code == 0
    rows = record["rows"]
    assert [(r["method"], r["s"], r["k"]) for r in rows] == (
        [("lowrank", None, 8)] * 2 + [("naive", None, None)] * 2)
    for low, naive in zip(rows[:2], rows[2:]):
        assert low["over_naive"] == low["wall_time_s"] / naive["wall_time_s"]


def test_bench_config_errors(tmp_path, capsys):
    bad = [
        ("methods = naive\nkinds = general:general\nsizes = 8\ntrials = 2\ncolor = red\n",
         "unknown key 'color'"),
        ("methods = naive\nsizes = 8\ntrials = 2\n", "missing required key 'kinds'"),
        ("methods = cd\nkinds = general:general\nsizes = 8\ns = 1\ntrials = 2\n",
         "needs :zeroth or :first"),
        ("methods = cd:second\nkinds = general:general\nsizes = 8\ns = 1\ntrials = 2\n",
         "needs :zeroth or :first"),
        ("methods = lowrank\nkinds = general:general\nsizes = 8\ntrials = 2\n",
         "config needs c = ... for lowrank"),
        ("methods = naive:first\nkinds = general:general\nsizes = 8\ntrials = 2\n",
         "takes no order"),
        ("methods = cd:first\nkinds = general:general\nsizes = 8\ntrials = 2\n",
         "config needs s = ... for cd"),
        ("methods = naive\nkinds = generalgeneral\nsizes = 8\ntrials = 2\n",
         "must be kind_a:kind_b"),
        ("methods = naive\nkinds = general:general\nsizes = 8\ntrials = 0\n",
         "trials must be >= 1"),
        ("methods = cd:first\nkinds = general:toeplitz\nsizes = 8\ns = 0\ntrials = 1\n",
         "every s value must be >= 1"),
        ("methods = svd:first\nkinds = general:toeplitz\nsizes = 8\ns = 1, -1\ntrials = 1\n",
         "every s value must be >= 1"),
        ("methods = lowrank\nkinds = general:general\nsizes = 8\nc = 0\ntrials = 1\n",
         "every c value must be >= 1"),
        ("methods = naive\nkinds = general:general\nsizes = -8\ntrials = 1\n",
         "every sizes value must be >= 1"),
        ("methods = naive\nkinds = wavelet:general\nsizes = 8\ntrials = 1\n",
         "unknown kind, or haar-spectrum"),
        ("methods = naive\nkinds = general:general\nsizes 8\ntrials = 1\n",
         "config line 3: expected key = value"),
        ("methods = magic\nkinds = general:general\nsizes = 8\ntrials = 1\n",
         "unknown method 'magic'"),
    ]
    for i, (text, message) in enumerate(bad):
        conf = tmp_path / f"bad{i}.conf"
        conf.write_text(text, encoding="ascii")
        code, _, err = run_cli(capsys, "bench", "--config", str(conf),
                               "--out", str(tmp_path / f"o{i}.json"))
        assert code == 1, f"config {i} should fail"
        assert err.startswith("error:") and message in err, (i, err)
        assert not (tmp_path / f"o{i}.json").exists()


def test_bench_config_parse_values(tmp_path):
    conf = tmp_path / "ok.conf"
    conf.write_text("# comment line\n"
                    "methods = svd:first, lowrank\n"
                    "kinds = type1:type1, general:toeplitz\n"
                    "sizes = 8, 16\n"
                    "s = 1, 2\n"
                    "c = 5\n"
                    "trials = 3\n"
                    "seed_base = 7\n", encoding="ascii")
    parsed = parse_bench_config(conf)
    assert parsed["methods"] == [("svd", "first"), ("lowrank", "-")]
    assert parsed["kinds"] == [("type1", "type1"), ("general", "toeplitz")]
    assert parsed["sizes"] == [8, 16]
    assert parsed["s"] == [1, 2]
    assert parsed["c"] == [5]
    assert parsed["trials"] == 3
    assert parsed["seed_base"] == 7


# ------------------------------------------------------------------ estimate

def test_estimate_apriori(capsys):
    code, out, _ = run_cli(capsys, "estimate", "--mode", "apriori",
                           "--case", "mean-zero", "--n", "100",
                           "--norm-a", "1", "--norm-b", "1",
                           "--norm-da", "0.1", "--norm-db", "0.1")
    assert code == 0
    assert abs(last_json(out)["estimate"] - 0.01) < 1e-15


def test_estimate_apriori_refuses_c_for_a_fixed_case(capsys):
    code, _, err = run_cli(capsys, "estimate", "--mode", "apriori",
                           "--case", "mean-zero", "--c-const", "0.5", "--n", "100",
                           "--norm-a", "1", "--norm-b", "1",
                           "--norm-da", "0.1", "--norm-db", "0.1")
    assert code == 1
    assert "case 'mean-zero' takes no c" in err


def test_estimate_uniform_moment(capsys):
    code, out, _ = run_cli(capsys, "estimate", "--mode", "uniform-moment",
                           "--m", "1", "--n", "1", "--p", "1", "--a", "1")
    assert code == 0
    assert abs(last_json(out)["mean_sq"] - 1.0 / 9.0) < 1e-15


def test_estimate_front_constant(capsys):
    argv = ["estimate", "--mode", "front-constant", "--distribution", "normal",
            "--n", "10", "--trials", "5", "--seed", "0"]
    code, out1, _ = run_cli(capsys, *argv)
    assert code == 0
    payload = last_json(out1)
    assert 0 < payload["c"] < 1
    assert payload["stddev"] >= 0
    _, out2, _ = run_cli(capsys, *argv)
    assert out1 == out2


def test_estimate_haar_moments(tmp_path, capsys):
    s1 = tmp_path / "d1.csv"
    s2 = tmp_path / "d2.csv"
    s1.write_text("1,1,1,1\n", encoding="ascii")
    s2.write_text("1,1,1,1\n", encoding="ascii")
    code, out, _ = run_cli(capsys, "estimate", "--mode", "haar-moments",
                           "--spectrum-1", str(s1), "--spectrum-2", str(s2),
                           "--tail-t", "1.0")
    assert code == 0
    payload = last_json(out)
    assert abs(payload["mean_sq"] - 4.0) < 1e-12
    assert payload["variance"] == 0.0
    assert 0 < payload["tail_bound"] <= 1


def test_estimate_tail_bound_zero_d1_is_an_error(tmp_path):
    # run as a command, so an exception main does not catch shows as a traceback
    s1 = tmp_path / "d1.csv"
    s2 = tmp_path / "d2.csv"
    s1.write_text("0,0,0,0\n", encoding="ascii")
    s2.write_text("1,1,1,1\n", encoding="ascii")
    src = str(Path(apxmm.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    run = subprocess.run([sys.executable, "-m", "apxmm", "estimate", "--mode", "haar-moments",
                          "--spectrum-1", str(s1), "--spectrum-2", str(s2), "--tail-t", "0.5"],
                         capture_output=True, text=True, env=env, timeout=60)
    assert "Traceback" not in run.stderr
    assert run.returncode == 1
    assert run.stdout == ""
    assert run.stderr.startswith("error: ") and "d1 must not be all zero" in run.stderr


@pytest.mark.parametrize("tail", [[], ["--tail-t", "0.5"]], ids=["moments", "tail"])
@pytest.mark.parametrize("big", ["1e150", "1e160"])
def test_estimate_haar_moments_past_float64_is_an_error(tmp_path, big, tail):
    # four entries of 1e150 overflow the spectrum's fourth powers and 1e160
    # its squares too: an error line and exit 1, never a traceback or a
    # bare Infinity
    s1 = tmp_path / "d1.csv"
    s2 = tmp_path / "d2.csv"
    s1.write_text(",".join([big] * 4) + "\n", encoding="ascii")
    s2.write_text("1,1,1,1\n", encoding="ascii")
    src = str(Path(apxmm.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    run = subprocess.run([sys.executable, "-m", "apxmm", "estimate", "--mode", "haar-moments",
                          "--spectrum-1", str(s1), "--spectrum-2", str(s2), *tail],
                         capture_output=True, text=True, env=env, timeout=60)
    assert "Traceback" not in run.stderr
    assert run.returncode == 1
    assert run.stdout == ""
    assert run.stderr.startswith("error: ") and "overflows float64" in run.stderr


@pytest.mark.parametrize("n", ["0", "-1"])
def test_estimate_front_constant_refuses_n_below_1(n):
    # an error line and exit 1, with no warning before it
    src = str(Path(apxmm.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    run = subprocess.run([sys.executable, "-m", "apxmm", "estimate", "--mode", "front-constant",
                          "--distribution", "normal", "--n", n],
                         capture_output=True, text=True, env=env, timeout=60)
    assert run.returncode == 1
    assert run.stdout == ""
    assert run.stderr == "error: n must be >= 1\n"


def test_json_output_refuses_non_finite_values(capsys):
    # an a-priori estimate past float64 is inf, and bare Infinity is not JSON
    code, out, err = run_cli(capsys, "estimate", "--mode", "apriori",
                             "--case", "mean-zero", "--n", "4",
                             "--norm-a", "1", "--norm-b", "1",
                             "--norm-da", "1e300", "--norm-db", "1e300")
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and "JSON" in err


def test_estimate_haar_moments_takes_no_d2_spectral(capsys):
    # the tail bound is that of the given D2 only at its own spectral norm
    with pytest.raises(SystemExit) as exc:
        main(["estimate", "--mode", "haar-moments", "--spectrum-1", "d1.csv",
              "--spectrum-2", "d2.csv", "--tail-t", "1.0", "--d2-spectral", "1"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --d2-spectral" in capsys.readouterr().err


def test_estimate_missing_flags_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["estimate", "--mode", "front-constant"])
    assert exc.value.code == 2
    capsys.readouterr()
    with pytest.raises(SystemExit):
        main(["estimate", "--mode", "apriori", "--case", "mean-zero"])
    capsys.readouterr()


def test_estimate_front_constant_defaults(capsys):
    argv = ["estimate", "--mode", "front-constant", "--distribution", "normal",
            "--n", "10"]
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert last_json(out)["trials"] == 25
    _, explicit, _ = run_cli(capsys, *argv, "--trials", "25", "--seed", "0")
    assert out == explicit


@pytest.mark.parametrize("argv,message", [
    (["--mode", "haar-moments", "--n", "100", "--spectrum-1", "d1.csv",
      "--spectrum-2", "d2.csv"], "mode haar-moments takes no --n"),
    (["--mode", "uniform-moment", "--m", "1", "--n", "1", "--p", "1", "--a", "1",
      "--trials", "7"], "mode uniform-moment takes no --trials"),
    (["--mode", "front-constant", "--distribution", "normal", "--n", "10",
      "--case", "mean-zero"], "mode front-constant takes no --case"),
    (["--mode", "apriori", "--case", "mean-zero", "--n", "100", "--norm-a", "1",
      "--norm-b", "1", "--norm-da", "0.1", "--norm-db", "0.1", "--seed", "3"],
     "mode apriori takes no --seed"),
    (["--mode", "apriori", "--case", "custom", "--n", "100", "--norm-a", "1",
      "--norm-b", "1", "--norm-da", "0.1", "--norm-db", "0.1"],
     "mode apriori needs --c-const"),
])
def test_estimate_refuses_flags_of_other_modes(capsys, argv, message):
    with pytest.raises(SystemExit) as exc:
        main(["estimate", *argv])
    assert exc.value.code == 2
    assert message in capsys.readouterr().err


def test_estimate_apriori_custom_case(capsys):
    code, out, _ = run_cli(capsys, "estimate", "--mode", "apriori",
                           "--case", "custom", "--c-const", "0.5", "--n", "100",
                           "--norm-a", "1", "--norm-b", "1",
                           "--norm-da", "0.1", "--norm-db", "0.1")
    assert code == 0
    assert last_json(out)["estimate"] == pytest.approx(0.002, rel=1e-12)


# -------------------------------------------------------------------- README

README = Path(__file__).resolve().parents[1] / "README.md"


def _readme_commands() -> list[list[str]]:
    """The argument lists of every `apxmm ...` line in the README's sh blocks,
    with backslash continuations joined."""
    commands = []
    for block in re.findall(r"^```sh\n(.*?)^```", README.read_text(encoding="utf-8"),
                            flags=re.S | re.M):
        for line in block.replace("\\\n", " ").splitlines():
            words = shlex.split(line)
            if words[:1] == ["apxmm"]:
                commands.append(words[1:])
    return commands


def test_readme_commands_parse():
    commands = _readme_commands()
    assert {c[0] for c in commands} == {"gen", "multiply", "sweep", "spectra",
                                        "bench", "estimate"}
    parser = build_parser()
    for argv in commands:
        parser.parse_args(argv)


def test_readme_estimate_examples_run(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    for name in ("d1.csv", "d2.csv"):
        (tmp_path / name).write_text("3,2,1,0.5\n", encoding="ascii")
    examples = [c for c in _readme_commands() if c[0] == "estimate"]
    assert len(examples) == 4
    for argv in examples:
        assert main(argv) == 0, argv
        capsys.readouterr()
