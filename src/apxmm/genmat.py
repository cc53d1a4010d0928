"""Seeded generation of the benchmark matrix families, plus file ingestion.

Every generator draws from numpy's default PCG64 generator keyed on
(seed, kind code, n), so the same spec reproduces bit-identical matrices on
any platform and adding new kinds never shifts existing streams. The kind
codes below are frozen constants; changing them is a breaking change.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

__all__ = [
    "MatrixSpec",
    "KINDS",
    "generate",
    "generate_haar_orthogonal",
    "MatrixMarketError",
    "MalformedHeaderError",
    "UnsupportedQualifierError",
    "IndexRangeError",
    "read_matrix_market",
    "write_csv",
    "read_csv",
]

# frozen stream identifiers; never renumber
_KIND_CODE = {
    "toeplitz": 1,
    "hankel": 2,
    "block-toeplitz": 3,
    "symmetric": 4,
    "general": 5,
    "circulant": 6,
    "kappa": 7,
    "type1": 8,
    "type2": 9,
    "type3": 10,
    "haar-spectrum": 11,
}

KINDS = tuple(_KIND_CODE)


def _default_block(n: int) -> int:
    """Divisor of n closest to sqrt(n), ties toward the smaller divisor."""
    divisors = [d for d in range(1, n + 1) if n % d == 0]
    return min(divisors, key=lambda d: (abs(d - math.isqrt(n)), d))


@dataclass
class MatrixSpec:
    """Recipe for one generated matrix: family, size, seed, family options."""

    kind: str
    n: int
    seed: int = 0
    block: int | None = None
    spectrum: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        if self.kind not in _KIND_CODE:
            raise ValueError(f"unknown kind {self.kind!r}; expected one of {KINDS}")
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if self.kind == "block-toeplitz":
            if self.block is None:
                self.block = _default_block(self.n)
            if self.block < 1 or self.n % self.block != 0:
                raise ValueError(f"block {self.block} must divide n={self.n}")
        elif self.block is not None:
            raise ValueError(f"kind {self.kind!r} takes no block size")
        if self.kind == "haar-spectrum":
            if self.spectrum is None:
                raise ValueError("haar-spectrum needs a spectrum vector")
            s = np.asarray(self.spectrum, dtype=float)
            if s.ndim != 1 or s.size != self.n:
                raise ValueError("spectrum must be a length-n vector")
            if np.any(s < 0) or not np.all(np.isfinite(s)):
                raise ValueError("spectrum values must be finite and >= 0")
            self.spectrum = s
        elif self.spectrum is not None:
            raise ValueError(f"kind {self.kind!r} takes no spectrum")


def _stream(spec: MatrixSpec) -> np.random.Generator:
    return np.random.default_rng([spec.seed, _KIND_CODE[spec.kind], spec.n])


def _haar_from_rng(rng: np.random.Generator, n: int) -> np.ndarray:
    G = rng.standard_normal((n, n))
    Q, R = np.linalg.qr(G, mode="reduced")
    signs = np.sign(np.diag(R))
    signs[signs == 0] = 1.0
    return Q * signs[None, :]


def _haar_spectrum_matrix(rng: np.random.Generator, s: np.ndarray) -> np.ndarray:
    # Q1 then Q2 from the same stream, in that order
    Q1 = _haar_from_rng(rng, s.size)
    Q2 = _haar_from_rng(rng, s.size)
    return (Q1 * s[None, :]) @ Q2.T


def generate(spec: MatrixSpec) -> np.ndarray:
    """Materialize the matrix a MatrixSpec describes. Deterministic per spec."""
    n = spec.n
    rng = _stream(spec)
    kind = spec.kind

    if kind == "toeplitz":
        d = rng.uniform(0.0, 1.0, 2 * n - 1)
        return scipy.linalg.toeplitz(d[:n], np.concatenate([d[:1], d[n:]]))
    if kind == "hankel":
        d = rng.uniform(0.0, 1.0, 2 * n - 1)
        return scipy.linalg.hankel(d[:n], d[n - 1:])
    if kind == "block-toeplitz":
        b = spec.block
        nb = n // b
        blocks = [rng.uniform(0.0, 1.0, (b, b)) for _ in range(2 * nb - 1)]
        out = np.empty((n, n))
        for i in range(nb):
            for j in range(nb):
                out[i * b:(i + 1) * b, j * b:(j + 1) * b] = blocks[i - j + nb - 1]
        return out
    if kind == "symmetric":
        G = rng.uniform(0.0, 1.0, (n, n))
        return (G + G.T) / 2.0
    if kind == "general":
        return rng.uniform(0.0, 1.0, (n, n))
    if kind == "circulant":
        return scipy.linalg.circulant(rng.uniform(0.0, 1.0, n))
    if kind == "kappa":
        i, j = np.indices((n, n))
        # sin argument indexes the entry's upper-triangle representative row
        return np.exp(-0.5 * np.abs(i - j)) * np.sin(np.minimum(i, j) + 1.0)
    if kind == "type1":
        s = np.exp(-np.arange(n) / n)
        return _haar_spectrum_matrix(rng, s)
    if kind == "type3":
        s = (n - np.arange(n)) / n
        return _haar_spectrum_matrix(rng, s)
    if kind == "type2":
        T = generate(MatrixSpec(kind="type1", n=n, seed=spec.seed))
        U = rng.uniform(0.0, 1.0, (n, n))
        return T + (0.5 * np.linalg.norm(T) / np.linalg.norm(U)) * U
    if kind == "haar-spectrum":
        return _haar_spectrum_matrix(rng, spec.spectrum)
    raise ValueError(f"unknown kind {kind!r}")


def generate_haar_orthogonal(n: int, seed) -> np.ndarray:
    """Orthogonal matrix drawn uniformly (Haar) via sign-corrected QR."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return _haar_from_rng(np.random.default_rng(seed), n)


class MatrixMarketError(ValueError):
    """Base class for MatrixMarket parse failures."""


class MalformedHeaderError(MatrixMarketError):
    """Header or size line does not match the format definition."""


class UnsupportedQualifierError(MatrixMarketError):
    """Recognized file, but a field/qualifier outside the supported subset."""


class IndexRangeError(MatrixMarketError):
    """Coordinate entry outside the declared dimensions."""


def read_matrix_market(path) -> np.ndarray:
    """Parse a real coordinate/array MatrixMarket file into a dense matrix.

    Supports the general and symmetric qualifiers; symmetric files are
    mirrored. Indices are 1-based in the file. pattern/complex fields and
    skew/hermitian qualifiers are rejected. numpy's text parser reads the
    body, so a % after the data on an entry line starts a comment.
    """
    with open(path, "r", encoding="ascii") as fh:
        header = fh.readline()
        tokens = header.strip().split()
        if len(tokens) != 5 or tokens[0] != "%%MatrixMarket":
            raise MalformedHeaderError(f"bad header line: {header.strip()!r}")
        obj, fmt, fieldtag, qual = (t.lower() for t in tokens[1:])
        if obj != "matrix" or fmt not in ("coordinate", "array"):
            raise MalformedHeaderError(f"unsupported object/format: {obj} {fmt}")
        if fieldtag != "real":
            raise UnsupportedQualifierError(f"unsupported field {fieldtag!r} (real only)")
        if qual not in ("general", "symmetric"):
            raise UnsupportedQualifierError(f"unsupported qualifier {qual!r}")

        size = next((ln for ln in fh if ln.strip() and not ln.lstrip().startswith("%")), None)
        if size is None:
            raise MalformedHeaderError("missing size line")
        fields = 3 if fmt == "coordinate" else 2
        if len(size.split()) != fields:
            raise MalformedHeaderError(f"{fmt} size line needs {fields} fields: {size.strip()!r}")
        try:
            dims = [int(p) for p in size.split()]
        except ValueError as e:
            raise MalformedHeaderError(f"non-integer size line: {size.strip()!r}") from e
        try:
            body = _loadtxt(fh, dtype="i8,i8,f8" if fields == 3 else "f8",
                            comments="%", ndmin=1 if fields == 3 else 2)
        except ValueError as e:
            raise MalformedHeaderError(f"bad entry line: {e}") from e

    if fmt == "coordinate":
        rows, cols, nnz = dims
        if len(body) != nnz:
            raise MalformedHeaderError(f"declared {nnz} entries, found {len(body)}")
        i, j, v = body["f0"] - 1, body["f1"] - 1, body["f2"]
        outside = (i < 0) | (i >= rows) | (j < 0) | (j >= cols)
        if outside.any():
            bad = outside.argmax()
            raise IndexRangeError(f"index ({i[bad] + 1},{j[bad] + 1}) outside {rows}x{cols}")
    else:
        rows, cols = dims
        expected = rows * cols - (0 if qual == "general" else cols * (cols - 1) // 2)
        if body.shape != (expected, 1):
            raise MalformedHeaderError(f"expected {expected} values, found {body.size}")
        if qual == "general":
            return body.reshape((cols, rows)).T  # array format stores column-major
        j, i = np.triu_indices(cols, 0, rows)  # the lower triangle, column by column
        v = body[:, 0]
    M = np.zeros((rows, cols))
    M[i, j] = v
    if qual == "symmetric":
        M[j, i] = v
    return M


def _loadtxt(fh, **kwargs) -> np.ndarray:
    """np.loadtxt, without its warning for a file that holds no data."""
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "loadtxt: input contained no data")
        return np.loadtxt(fh, **kwargs)


def write_csv(M, path) -> None:
    """Write a dense matrix as CSV at 17 significant digits (lossless for
    float64); a complex matrix writes each cell as a+bj."""
    M = np.asarray(M)
    if M.ndim != 2:
        raise ValueError("expected a 2-D matrix")
    cell = "%.17g%+.17gj" if np.iscomplexobj(M) else "%.17g"
    with open(path, "w", encoding="ascii") as fh:
        np.savetxt(fh, M, fmt=[cell] * M.shape[1], delimiter=",")


def read_csv(path) -> np.ndarray:
    """Read a rectangular numeric CSV; a cell is anything Python's complex()
    reads, and a matrix whose imaginary parts are all zero reads as real."""
    with open(path, "r", encoding="ascii") as fh:
        M = _loadtxt(fh, delimiter=",", dtype=complex, comments=None,
                     converters=complex, ndmin=2)
    if not M.size:
        raise ValueError("empty csv")
    return M.real.copy() if np.all(M.imag == 0) else M
