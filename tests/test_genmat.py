"""Tests for the seeded matrix families and file ingestion."""

import math

import numpy as np
import pytest

from apxmm.genmat import (
    IndexRangeError,
    KINDS,
    MalformedHeaderError,
    MatrixMarketError,
    MatrixSpec,
    UnsupportedQualifierError,
    generate,
    generate_haar_orthogonal,
    read_csv,
    read_matrix_market,
    write_csv,
)


# ----------------------------------------------------------------- families

def test_kappa_frozen_entries():
    K = generate(MatrixSpec("kappa", 4))
    assert abs(K[0, 0] - math.sin(1.0)) < 1e-15
    assert abs(K[0, 1] - math.exp(-0.5) * math.sin(1.0)) < 1e-15
    assert abs(K[2, 3] - math.exp(-0.5) * math.sin(3.0)) < 1e-15
    assert np.array_equal(K, K.T)


def test_kappa_seed_independent():
    assert np.array_equal(
        generate(MatrixSpec("kappa", 6, seed=0)),
        generate(MatrixSpec("kappa", 6, seed=99)),
    )


def test_type1_singular_values():
    n = 4
    A = generate(MatrixSpec("type1", n, seed=3))
    s = np.linalg.svd(A, compute_uv=False)
    expect = np.exp(-np.arange(n) / n)
    assert np.max(np.abs(s - expect)) < 1e-8


def test_type3_singular_values():
    n = 5
    A = generate(MatrixSpec("type3", n, seed=3))
    s = np.linalg.svd(A, compute_uv=False)
    expect = (n - np.arange(n)) / n
    assert np.max(np.abs(s - expect)) < 1e-8


def test_type2_offset_from_type1():
    # type2 = type1(same seed) + perturbation of exactly half its norm
    n, seed = 16, 7
    t1 = generate(MatrixSpec("type1", n, seed=seed))
    t2 = generate(MatrixSpec("type2", n, seed=seed))
    gap = np.linalg.norm(t2 - t1)
    assert abs(gap - 0.5 * np.linalg.norm(t1)) < 1e-10 * np.linalg.norm(t1)


def test_haar_spectrum_hits_requested_singulars():
    spectrum = np.array([3.0, 1.0, 2.0, 0.5])
    A = generate(MatrixSpec("haar-spectrum", 4, seed=1, spectrum=spectrum))
    s = np.linalg.svd(A, compute_uv=False)
    assert np.max(np.abs(s - np.sort(spectrum)[::-1])) < 1e-8


def test_toeplitz_structure():
    T = generate(MatrixSpec("toeplitz", 9, seed=2))
    assert np.array_equal(T[:-1, :-1], T[1:, 1:])
    assert np.all((T >= 0) & (T < 1))


def test_hankel_structure():
    H = generate(MatrixSpec("hankel", 9, seed=2))
    assert np.array_equal(H[1:, :-1], H[:-1, 1:])


def test_block_toeplitz_structure():
    # default block for n=12 is the divisor nearest sqrt(12), which is 3
    spec = MatrixSpec("block-toeplitz", 12)
    assert spec.block == 3
    M = generate(spec)
    b, nb = 3, 4
    for i in range(nb - 1):
        for j in range(nb - 1):
            assert np.array_equal(
                M[i * b:(i + 1) * b, j * b:(j + 1) * b],
                M[(i + 1) * b:(i + 2) * b, (j + 1) * b:(j + 2) * b],
            )


def test_block_toeplitz_explicit_block():
    M = generate(MatrixSpec("block-toeplitz", 12, block=2))
    assert np.array_equal(M[0:2, 0:2], M[2:4, 2:4])


def test_default_block_choices():
    assert MatrixSpec("block-toeplitz", 6).block == 2
    assert MatrixSpec("block-toeplitz", 8).block == 2
    assert MatrixSpec("block-toeplitz", 36).block == 6
    # prime n only has the trivial divisors; isqrt is closer to 1 than to n
    assert MatrixSpec("block-toeplitz", 7).block == 1


def test_symmetric_structure():
    S = generate(MatrixSpec("symmetric", 10, seed=5))
    assert np.array_equal(S, S.T)
    assert np.all((S > 0) & (S < 1))


def test_circulant_structure():
    C = generate(MatrixSpec("circulant", 7, seed=4))
    c = C[:, 0]
    for j in range(7):
        assert np.array_equal(C[:, j], np.roll(c, j))


def test_general_range():
    G = generate(MatrixSpec("general", 8, seed=6))
    assert G.shape == (8, 8)
    assert np.all((G >= 0) & (G < 1))


def test_generate_deterministic_and_kind_keyed():
    for kind in ("toeplitz", "general", "type1"):
        a = generate(MatrixSpec(kind, 8, seed=11))
        b = generate(MatrixSpec(kind, 8, seed=11))
        assert np.array_equal(a, b)
    # same seed, different family: different stream
    t = generate(MatrixSpec("toeplitz", 8, seed=11))
    g = generate(MatrixSpec("general", 8, seed=11))
    assert not np.array_equal(t[0], g[0])
    # same family, different seed
    assert not np.array_equal(t, generate(MatrixSpec("toeplitz", 8, seed=12)))


def test_kinds_tuple():
    assert "kappa" in KINDS and "haar-spectrum" in KINDS
    assert len(KINDS) == 11


def test_spec_validation():
    with pytest.raises(ValueError):
        MatrixSpec("diagonal", 4)
    with pytest.raises(ValueError):
        MatrixSpec("general", 0)
    with pytest.raises(ValueError):
        MatrixSpec("toeplitz", 8, block=2)
    with pytest.raises(ValueError):
        MatrixSpec("block-toeplitz", 12, block=5)
    with pytest.raises(ValueError):
        MatrixSpec("general", 4, spectrum=np.ones(4))
    with pytest.raises(ValueError):
        MatrixSpec("haar-spectrum", 4)
    with pytest.raises(ValueError):
        MatrixSpec("haar-spectrum", 4, spectrum=np.ones(3))
    with pytest.raises(ValueError):
        MatrixSpec("haar-spectrum", 4, spectrum=np.array([1.0, -1.0, 0.0, 2.0]))


# ------------------------------------------------------------ haar sampling

def test_haar_orthogonal_is_orthogonal():
    Q = generate_haar_orthogonal(64, 0)
    assert np.max(np.abs(Q.T @ Q - np.eye(64))) < 1e-10


def test_haar_orthogonal_n1():
    # 1x1 orthogonal group is {+1, -1}; the draw is always unit modulus
    for seed in range(8):
        Q = generate_haar_orthogonal(1, seed)
        assert abs(abs(Q[0, 0]) - 1.0) < 1e-15


def test_haar_orthogonal_deterministic():
    assert np.array_equal(generate_haar_orthogonal(8, 3),
                          generate_haar_orthogonal(8, 3))
    assert not np.array_equal(generate_haar_orthogonal(8, 3),
                              generate_haar_orthogonal(8, 4))


def test_haar_orthogonal_mean_zero():
    # entrywise mean over many draws: each entry has mean 0, variance 1/n
    n = 8
    acc = np.zeros((n, n))
    for seed in range(2000):
        acc += generate_haar_orthogonal(n, seed)
    assert np.max(np.abs(acc / 2000)) < 0.05


def test_haar_orthogonal_validation():
    with pytest.raises(ValueError):
        generate_haar_orthogonal(0, 0)


# ------------------------------------------------------------- matrixmarket

def _write(path, text):
    path.write_text(text, encoding="ascii")
    return path


def test_mm_coordinate_general(tmp_path):
    p = _write(tmp_path / "a.mtx",
               "%%MatrixMarket matrix coordinate real general\n"
               "2 2 2\n"
               "1 1 3.0\n"
               "2 2 4.0\n")
    assert np.array_equal(read_matrix_market(p), np.array([[3.0, 0.0], [0.0, 4.0]]))


def test_mm_coordinate_symmetric_mirrors(tmp_path):
    p = _write(tmp_path / "s.mtx",
               "%%MatrixMarket matrix coordinate real symmetric\n"
               "2 2 2\n"
               "1 1 1.0\n"
               "2 1 5.0\n")
    M = read_matrix_market(p)
    assert M[1, 0] == 5.0 and M[0, 1] == 5.0


def test_mm_comments_and_blanks_skipped(tmp_path):
    p = _write(tmp_path / "c.mtx",
               "%%MatrixMarket matrix coordinate real general\n"
               "% produced by hand\n"
               "\n"
               "2 2 1\n"
               "% body comment\n"
               "1 2 7.5\n")
    M = read_matrix_market(p)
    assert M[0, 1] == 7.5


def test_mm_header_case_insensitive_tokens(tmp_path):
    p = _write(tmp_path / "u.mtx",
               "%%MatrixMarket Matrix Coordinate Real General\n"
               "1 1 1\n"
               "1 1 2.0\n")
    assert read_matrix_market(p)[0, 0] == 2.0


def test_mm_index_out_of_range(tmp_path):
    p = _write(tmp_path / "r.mtx",
               "%%MatrixMarket matrix coordinate real general\n"
               "2 2 1\n"
               "3 1 1.0\n")
    with pytest.raises(IndexRangeError):
        read_matrix_market(p)


def test_mm_unsupported_field_and_qualifier(tmp_path):
    p1 = _write(tmp_path / "p.mtx",
                "%%MatrixMarket matrix coordinate pattern general\n"
                "1 1 1\n1 1\n")
    with pytest.raises(UnsupportedQualifierError):
        read_matrix_market(p1)
    p2 = _write(tmp_path / "z.mtx",
                "%%MatrixMarket matrix coordinate complex general\n"
                "1 1 1\n1 1 1.0 0.0\n")
    with pytest.raises(UnsupportedQualifierError):
        read_matrix_market(p2)
    p3 = _write(tmp_path / "k.mtx",
                "%%MatrixMarket matrix coordinate real skew-symmetric\n"
                "2 2 1\n2 1 1.0\n")
    with pytest.raises(UnsupportedQualifierError):
        read_matrix_market(p3)


def test_mm_malformed_headers(tmp_path):
    cases = [
        "%%NotMatrixMarket matrix coordinate real general\n1 1 1\n1 1 1.0\n",
        "%%MatrixMarket matrix coordinate real\n1 1 1\n1 1 1.0\n",
        "%%MatrixMarket vector coordinate real general\n1 1 1\n1 1 1.0\n",
        "%%MatrixMarket matrix coordinate real general\n1 1\n1 1 1.0\n",
        "%%MatrixMarket matrix coordinate real general\nx 1 1\n1 1 1.0\n",
        "%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1.0\n",
        "%%MatrixMarket matrix coordinate real general\n1 1 1\n1 1\n",
        "%%MatrixMarket matrix coordinate real general\n",
    ]
    for i, text in enumerate(cases):
        p = _write(tmp_path / f"m{i}.mtx", text)
        with pytest.raises(MalformedHeaderError):
            read_matrix_market(p)


def test_mm_errors_share_base_class(tmp_path):
    p = _write(tmp_path / "b.mtx", "garbage\n")
    with pytest.raises(MatrixMarketError):
        read_matrix_market(p)
    assert issubclass(IndexRangeError, ValueError)


def test_mm_array_general_column_major(tmp_path):
    p = _write(tmp_path / "ag.mtx",
               "%%MatrixMarket matrix array real general\n"
               "2 2\n1\n2\n3\n4\n")
    assert np.array_equal(read_matrix_market(p), np.array([[1.0, 3.0], [2.0, 4.0]]))


def test_mm_array_symmetric_packed(tmp_path):
    # lower triangle stored column by column
    p = _write(tmp_path / "as.mtx",
               "%%MatrixMarket matrix array real symmetric\n"
               "2 2\n1\n2\n3\n")
    assert np.array_equal(read_matrix_market(p), np.array([[1.0, 2.0], [2.0, 3.0]]))


def test_mm_array_count_mismatch(tmp_path):
    p = _write(tmp_path / "ac.mtx",
               "%%MatrixMarket matrix array real general\n"
               "2 2\n1\n2\n3\n")
    with pytest.raises(MalformedHeaderError):
        read_matrix_market(p)


# --------------------------------------------------------------------- csv

def test_csv_roundtrip_bit_identical(tmp_path):
    rng = np.random.default_rng(0)
    M = rng.standard_normal((7, 5)) * np.logspace(-20, 20, 5)[None, :]
    p = tmp_path / "m.csv"
    write_csv(M, p)
    back = read_csv(p)
    assert back.dtype == np.float64
    assert np.array_equal(back, M)


def test_csv_complex_roundtrip(tmp_path):
    rng = np.random.default_rng(1)
    M = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    p = tmp_path / "c.csv"
    write_csv(M, p)
    back = read_csv(p)
    assert back.dtype == np.complex128
    assert np.array_equal(back, M)


def test_csv_reads_plain_integers(tmp_path):
    p = tmp_path / "i.csv"
    p.write_text("1,2\n3,4\n", encoding="ascii")
    assert np.array_equal(read_csv(p), np.array([[1.0, 2.0], [3.0, 4.0]]))


def test_csv_errors(tmp_path):
    ragged = tmp_path / "r.csv"
    ragged.write_text("1,2\n3\n", encoding="ascii")
    with pytest.raises(ValueError):
        read_csv(ragged)
    bad = tmp_path / "b.csv"
    bad.write_text("1,apple\n", encoding="ascii")
    with pytest.raises(ValueError):
        read_csv(bad)
    empty = tmp_path / "e.csv"
    empty.write_text("", encoding="ascii")
    with pytest.raises(ValueError):
        read_csv(empty)
    with pytest.raises(ValueError):
        write_csv(np.ones(3), tmp_path / "v.csv")


def test_csv_special_values_exact_text(tmp_path):
    big = np.finfo(np.float64).max
    real = np.array([[-0.0, np.nan, np.inf, -np.inf],
                     [5e-324, big, 0.1, 1.0]])
    cplx = np.array([[complex(1.0, -0.0), complex(-0.0, 0.1), complex(np.nan, -np.inf)]])
    for M, text in (
        (real, "-0,nan,inf,-inf\n"
               "4.9406564584124654e-324,1.7976931348623157e+308,0.10000000000000001,1\n"),
        (cplx, "1-0j,-0+0.10000000000000001j,nan-infj\n"),
    ):
        p = tmp_path / "special.csv"
        write_csv(M, p)
        assert p.read_text(encoding="ascii") == text
        back = read_csv(p)
        assert back.dtype == M.dtype
        assert np.array_equal(back.view(np.uint64), M.view(np.uint64))


def test_csv_cells_follow_python_complex(tmp_path):
    p = tmp_path / "syntax.csv"
    p.write_text("1_0,2J, 3 \n", encoding="ascii")
    back = read_csv(p)
    assert back.dtype == np.complex128
    assert np.array_equal(back, np.array([[10.0, 2j, 3.0]]))
    for text in ("#x,1\n", "1,2,\n"):
        p.write_text(text, encoding="ascii")
        with pytest.raises(ValueError):
            read_csv(p)
