"""Per-product correctness references, built with the layers' public functions.

Every product has one target array it must match to REL_TOL relative:

- first order (svd1, cd1, sfft1): AB - M must equal dA @ dB, the identity
  acceptance criterion 1 checks; the target is AB - dA @ dB and the scale
  is ||dA @ dB||.
- zeroth order: M must equal its definition, Ahat Bhat (svd0), Ahat B
  (cd0) or S_A S_B (sfft0), scaled by the definition's norm.
- lowrank: M must equal one GEMM over the sample indices redrawn with the
  documented draw order (candidate index first, then the uniform), so only
  the summation order may differ.

Residues and definitions are dense and multiplied with BLAS; the targets
are built once per run since every product is deterministic for its seed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from apxmm import circulant, core, fsparse, svd

REL_TOL = 1e-8


@dataclass
class Target:
    """What one product must equal, and the norm its deviation is taken against."""

    array: np.ndarray
    scale: float


def _first_order(AB, dA, dB) -> Target:
    R = dA @ dB
    return Target(AB - R, float(np.linalg.norm(R)))


def _zeroth_order(P) -> Target:
    return Target(P, float(np.linalg.norm(P)))


def lowrank_indices(A, B, c: int, seed) -> tuple[np.ndarray, np.ndarray]:
    """Accepted sample indices and probabilities of the rejection sampler."""
    weights = np.linalg.norm(A, axis=0) * np.linalg.norm(B, axis=1)
    p = weights / weights.sum()
    pmax = float(p.max())
    rng = np.random.default_rng(seed)
    idx = []
    while len(idx) < c:
        k = int(rng.integers(0, A.shape[1]))
        if float(rng.uniform()) * pmax < p[k]:
            idx.append(k)
    return np.array(idx), p


def build_targets(A, B, AB, s: int, k: int, seed) -> dict[str, Target]:
    """Targets for svd0/svd1 (rank set by s), cd0/cd1/sfft0/sfft1 (k) and lowrank (c = k)."""
    targets = {}

    da = svd.randomized_partial_svd(A, s, np.random.default_rng([seed, 0]))
    db = svd.randomized_partial_svd(B, s, np.random.default_rng([seed, 1]))
    At, Bt = svd.svd_reconstruct(da), svd.svd_reconstruct(db)
    targets["svd0"] = _zeroth_order(At @ Bt)
    targets["svd1"] = _first_order(AB, A - At, B - Bt)

    At = circulant.circulant_materialize(circulant.circulant_select(circulant.circulant_decompose(A), k))
    Bt = circulant.circulant_materialize(circulant.circulant_select(circulant.circulant_decompose(B), k))
    targets["cd0"] = _zeroth_order(At @ B)
    targets["cd1"] = _first_order(AB, A - At, B - Bt)

    Atil = core.unitary_dft(A, "inverse", axis=1)
    Btil = core.unitary_dft(B, "forward", axis=0)
    SA = fsparse.topk_sparsify(Atil, k).to_dense()
    SB = fsparse.topk_sparsify(Btil, k).to_dense()
    targets["sfft0"] = _zeroth_order(SA @ SB)
    targets["sfft1"] = _first_order(AB, Atil - SA, Btil - SB)

    idx, p = lowrank_indices(A, B, k, seed)
    targets["lowrank"] = _zeroth_order((A[:, idx] / (k * p[idx])) @ B[idx])
    return targets


def deviation(M, target: Target) -> float:
    """||M - target|| / scale; inf for a missing, misshapen or non-finite M."""
    if M is None or np.shape(M) != target.array.shape or not np.all(np.isfinite(M)):
        return float("inf")
    if target.scale == 0.0:
        return float(np.linalg.norm(M - target.array))
    return float(np.linalg.norm(M - target.array) / target.scale)
