"""Package-level acceptance checks, one numbered criterion per test.

Each test prints one `CRITERION <id>: PASS/FAIL` line with the measured
numbers (run pytest with `-s` or `-rA` to see them all). Seeds are fixed up
front: trial t uses matrix seeds (2t, 2t+1) and method seed t; raw-sample
criteria key their generators on [criterion_number, t]. Failures here are
real measurements, not flaky tolerances; the failing tests document how far
the implementation lands from the stated target.
"""

import itertools
import math
import time
import warnings

import numpy as np
import pytest

from apxmm.baseline import randomized_outer_product_multiply
from apxmm.circulant import (
    circulant_decompose,
    circulant_first_order_multiply,
    circulant_materialize,
    circulant_select,
)
from apxmm.core import relative_error, unitary_dft
from apxmm.errest import (
    estimate_front_constant,
    haar_product_moments,
    posterior_relative_error,
    uniform_product_moment,
)
from apxmm.fsparse import fft_sparse_first_order_multiply, topk_sparsify
from apxmm.genmat import MatrixSpec, generate
from apxmm.svd import (
    component_count,
    randomized_partial_svd,
    svd_first_order_multiply,
    svd_reconstruct,
    svd_residual_norm,
)
from apxmm.cli import pair_seeds

from oracles import haar_orthogonal, matmul_naive


def _verdict(tag: str, ok: bool, detail: str = "") -> bool:
    line = f"CRITERION {tag}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  [{detail}]"
    print(line)
    return ok


def _pair(kind_a: str, kind_b: str, n: int, trial: int):
    sa, sb = pair_seeds(0, trial)
    A = generate(MatrixSpec(kind_a, n, seed=sa))
    B = generate(MatrixSpec(kind_b, n, seed=sb))
    return A, B


# -------------------------------------------------------------- criterion 1

def test_criterion_01_first_order_identities():
    # exact - first_order must equal the product of the two residues, for
    # every method, on 20 instances across n in {16, 31, 64}
    t0 = time.perf_counter()
    sizes = (16, 31, 64)
    worst = 0.0
    for t in range(20):
        n = sizes[t % 3]
        A, B = _pair("general", "general", n, t)
        AB = matmul_naive(A, B)

        M, _ = svd_first_order_multiply(A, B, 1, 1, t)
        da = randomized_partial_svd(A, 1, np.random.default_rng([t, 0]))
        db = randomized_partial_svd(B, 1, np.random.default_rng([t, 1]))
        dA = A - svd_reconstruct(da)
        dB = B - svd_reconstruct(db)
        worst = max(worst, relative_error(AB - M, matmul_naive(dA, dB)))

        k = math.ceil(math.log2(n))
        M, _ = circulant_first_order_multiply(A, B, k, 1)
        dA = A - circulant_materialize(circulant_select(circulant_decompose(A), k))
        dB = B - circulant_materialize(circulant_select(circulant_decompose(B), k))
        worst = max(worst, relative_error(AB - M, matmul_naive(dA, dB)))

        M, _ = fft_sparse_first_order_multiply(A, B, 4, 1)
        Atil = unitary_dft(A, "inverse", axis=1)
        Btil = unitary_dft(B, "forward", axis=0)
        dA = Atil - topk_sparsify(Atil, 4).to_dense()
        dB = Btil - topk_sparsify(Btil, 4).to_dense()
        worst = max(worst, relative_error(AB - M, matmul_naive(dA, dB)))

    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-8 and elapsed < 10.0
    assert _verdict("1 (first-order identity, all methods)", ok,
                    f"worst rel dev {worst:.3e}, {elapsed:.1f}s")


# -------------------------------------------------------------- criterion 2

def test_criterion_02_circulant_completeness():
    t0 = time.perf_counter()
    worst_rec, worst_par = 0.0, 0.0
    for i, n in enumerate((8, 97, 128, 700)):
        A = generate(MatrixSpec("general", n, seed=2 * i))
        spec = circulant_decompose(A)
        rec = relative_error(circulant_materialize(spec), A)
        par = abs(n * float(np.sum(spec.magnitudes**2)) - np.linalg.norm(A) ** 2) \
            / np.linalg.norm(A) ** 2
        worst_rec = max(worst_rec, rec)
        worst_par = max(worst_par, par)
    elapsed = time.perf_counter() - t0
    ok = worst_rec <= 1e-10 and worst_par <= 1e-9 and elapsed < 30.0
    assert _verdict("2 (circulant completeness)", ok,
                    f"reconstruct {worst_rec:.3e}, parseval {worst_par:.3e}, "
                    f"{elapsed:.1f}s")


# -------------------------------------------------------------- criterion 3

def test_criterion_03_toeplitz_cd_first_order():
    t0 = time.perf_counter()
    n, k = 700, 10
    errs = []
    for t in range(5):
        A, B = _pair("toeplitz", "toeplitz", n, t)
        M, _ = circulant_first_order_multiply(A, B, k, 1)
        errs.append(relative_error(M, matmul_naive(A, B)))
    mean = float(np.mean(errs))
    elapsed = time.perf_counter() - t0
    ok = mean <= 0.01 and elapsed < 120.0
    assert _verdict("3 (toeplitz x toeplitz, cd first, k=10)", ok,
                    f"mean rel err {mean:.4%} over 5 seeds, {elapsed:.1f}s")


# -------------------------------------------------------------- criterion 4

def test_criterion_04a_symmetric_toeplitz_svd():
    t0 = time.perf_counter()
    n = 700
    errs = []
    for t in range(5):
        A, B = _pair("symmetric", "toeplitz", n, t)
        M, _ = svd_first_order_multiply(A, B, 1, 1, t)
        errs.append(relative_error(M, matmul_naive(A, B)))
    mean = float(np.mean(errs))
    elapsed = time.perf_counter() - t0
    ok = mean <= 0.01
    detail = f"mean rel err {mean:.4%} over 5 seeds, {elapsed:.1f}s"
    if not ok:
        detail += ("; exact rank-10 truncation gives 0.86%, and the range "
                   "finder, sketching k + 5 columns, measured 0.95%: a mean "
                   "above 1% means the sketch has drifted from the truncated "
                   "SVD")
    assert _verdict("4a (symmetric x toeplitz, svd first, s=1)", ok, detail)


def test_criterion_04b_type1_minimal_s():
    # sweep s = 1..6 on cached pairs; the target band for the minimal s
    # reaching 1% is [3, 5] with +-1 slack, so [2, 6]
    t0 = time.perf_counter()
    n = 700
    pairs = []
    for t in range(5):
        A, B = _pair("type1", "type1", n, t)
        pairs.append((A, B, matmul_naive(A, B)))
    means = {}
    s_min = None
    for s in range(1, 7):
        errs = [relative_error(svd_first_order_multiply(A, B, s, 1, t)[0], AB)
                for t, (A, B, AB) in enumerate(pairs)]
        means[s] = float(np.mean(errs))
        if s_min is None and means[s] <= 0.01:
            s_min = s
            break
    elapsed = time.perf_counter() - t0
    ok = s_min is not None and 2 <= s_min <= 6
    trail = ", ".join(f"s={s}: {e:.2%}" for s, e in means.items())
    if ok:
        detail = f"minimal s = {s_min}, {trail}, {elapsed:.1f}s"
    else:
        k = component_count(n, max(means))
        sigma = np.linalg.svd(pairs[0][0], compute_uv=False)
        outside = float(np.sum(sigma[k:] ** 2) / np.sum(sigma**2))
        detail = (f"no s <= 6 reaches 1%: {trail}; the e^(-i/n) spectrum is "
                  f"too flat at n=700 ({outside:.0%} of the energy lies "
                  f"outside the first {k} singular directions), so no rank-k "
                  f"method meets the band; either the type1 law or the band "
                  f"is wrong, which the paper's definition of type1 would "
                  f"settle; {elapsed:.1f}s")
    assert _verdict("4b (type1 x type1, svd first, minimal s)", ok, detail)


def test_criterion_04c_kappa_s60():
    t0 = time.perf_counter()
    n, s = 700, 60
    A = generate(MatrixSpec("kappa", n))
    AB = matmul_naive(A, A)
    errs = [relative_error(svd_first_order_multiply(A, A, s, 1, t)[0], AB)
            for t in range(5)]
    mean = float(np.mean(errs))
    elapsed = time.perf_counter() - t0
    ok = mean <= 0.01 and elapsed < 600.0
    assert _verdict("4c (kappa x kappa, svd first, s=60)", ok,
                    f"mean rel err {mean:.4%} over 5 seeds, {elapsed:.1f}s")


# -------------------------------------------------------------- criterion 5

def _criterion5_samples():
    n = 100
    d = np.exp(-np.arange(n) / n)
    samples = np.empty(500)
    for t in range(500):
        Q = haar_orthogonal(n, [5, t])
        samples[t] = np.linalg.norm((d[:, None] * Q) * d[None, :]) ** 2
    return d, samples


def test_criterion_05_haar_mean():
    t0 = time.perf_counter()
    d, samples = _criterion5_samples()
    mean_sq, _, _ = haar_product_moments(d, d)
    dev = abs(float(samples.mean()) / mean_sq - 1.0)
    elapsed = time.perf_counter() - t0
    ok = dev <= 0.05 and elapsed < 60.0
    assert _verdict("5 (haar moment mean)", ok,
                    f"sample mean {samples.mean():.4f} vs formula {mean_sq:.4f}, "
                    f"dev {dev:.2%}, {elapsed:.1f}s")


def test_criterion_05_haar_variance():
    d, samples = _criterion5_samples()
    _, var_formula, _ = haar_product_moments(d, d)
    sample_var = float(samples.var(ddof=1))
    ok = var_formula > 0 and abs(sample_var / var_formula - 1.0) <= 0.15

    # exact variance for real orthogonal Q, written out independently for
    # diagnosis: 2 (b1 b2 - v/n + w/n^2) / ((n-1)(n+2)),
    # v = b1 a2^2 + b2 a1^2, w = a1^2 a2^2, here with D1 = D2
    n = float(d.size)
    a1 = a2 = float(np.sum(d**2))
    b1 = b2 = float(np.sum(d**4))
    v = b1 * a2**2 + b2 * a1**2
    w = a1**2 * a2**2
    var_real = 2.0 * (b1 * b2 - v / n + w / n**2) / ((n - 1) * (n + 2))
    detail = (f"sample var {sample_var:.4f}; formula {var_formula:.4f}; "
              f"real-orthogonal closed form {var_real:.4f}, sample/real dev "
              f"{abs(sample_var / var_real - 1.0):.2%}")
    assert _verdict("5 (haar moment variance)", ok, detail)


# -------------------------------------------------------------- criterion 6

def test_criterion_06_uniform_product_mean():
    t0 = time.perf_counter()
    m, n, p = 20, 100, 20
    expect = uniform_product_moment(m, n, p, 1.0)
    acc = 0.0
    trials = 500
    for t in range(trials):
        rng = np.random.default_rng([6, t])
        A = rng.uniform(0.0, 1.0, (m, n))
        B = rng.uniform(0.0, 1.0, (n, p))
        acc += np.linalg.norm(A @ B) ** 2
    dev = abs(acc / trials / expect - 1.0)
    elapsed = time.perf_counter() - t0
    ok = dev <= 0.03 and elapsed < 60.0
    assert _verdict("6 (uniform product second moment)", ok,
                    f"sample mean {acc / trials:.1f} vs exact {expect:.1f}, "
                    f"dev {dev:.2%}, {elapsed:.1f}s")


# -------------------------------------------------------------- criterion 7

def test_criterion_07_front_constants():
    t0 = time.perf_counter()
    n, trials = 500, 25
    rt = math.sqrt(n)
    c_uni, _ = estimate_front_constant("uniform01", n, trials, 0)
    c_nrm, _ = estimate_front_constant("normal", n, trials, 0)
    c_rad, _ = estimate_front_constant("rademacher", n, trials, 0)
    c_log, _ = estimate_front_constant("lognormal", n, trials, 0)
    ok_uni = 0.74 <= c_uni <= 0.76
    ok_nrm = 0.97 <= c_nrm * rt <= 1.03
    ok_rad = 0.97 <= c_rad * rt <= 1.03
    ok_log = abs(c_log * math.e - 1.0) <= 0.05
    elapsed = time.perf_counter() - t0
    ok = ok_uni and ok_nrm and ok_rad and ok_log and elapsed < 120.0
    assert _verdict("7 (front constants, n=500)", ok,
                    f"uniform {c_uni:.4f}, normal*sqrt(n) {c_nrm * rt:.4f}, "
                    f"rademacher*sqrt(n) {c_rad * rt:.4f}, "
                    f"lognormal*e {c_log * math.e:.4f}, {elapsed:.1f}s")


# -------------------------------------------------------------- criterion 8

def _factor(est: float, meas: float) -> float:
    if est <= 0 or meas <= 0:
        return math.inf
    return max(est / meas, meas / est)


def test_criterion_08_posterior_cd():
    t0 = time.perf_counter()
    hits_by_n = {}
    for n in (128, 256, 512):
        k = 5 * math.ceil(math.log2(n))
        hits = 0
        for t in range(10):
            A, B = _pair("general", "toeplitz", n, t)
            M, rep = circulant_first_order_multiply(A, B, k, 1)
            meas = relative_error(M, matmul_naive(A, B))
            if _factor(rep.posterior_estimate, meas) <= 2.0:
                hits += 1
        hits_by_n[n] = hits
    elapsed = time.perf_counter() - t0
    ok = all(h >= 9 for h in hits_by_n.values()) and elapsed < 300.0
    assert _verdict("8 (posterior calibration, cd, general x toeplitz)", ok,
                    f"within x2: " +
                    ", ".join(f"n={n}: {h}/10" for n, h in hits_by_n.items()) +
                    f", {elapsed:.1f}s")


def test_criterion_08_posterior_svd():
    t0 = time.perf_counter()
    hits_by_n = {}
    factors_by_n = {}
    # for diagnosis: ||AB|| / ||M|| and n ||dA dB||^2 / (||dA||^2 ||dB||^2)
    norm_ratio_by_n = {}
    noise_ratio_by_n = {}
    for n in (128, 256, 512):
        k = 5 * math.ceil(math.log2(n))
        hits = 0
        factors = []
        norm_ratios = []
        noise_ratios = []
        for t in range(10):
            A, B = _pair("type1", "type1", n, t)
            da = randomized_partial_svd(A, 1, np.random.default_rng([t, 0]),
                                        components=k)
            db = randomized_partial_svd(B, 1, np.random.default_rng([t, 1]),
                                        components=k)
            term1 = (da.U * da.sigma) @ (da.V.T @ B)
            dA = A - svd_reconstruct(da)
            term2 = ((dA @ db.U) * db.sigma) @ db.V.T
            M = term1 + term2
            norm_da, norm_db = svd_residual_norm(da), svd_residual_norm(db)
            est = posterior_relative_error(norm_da, norm_db, np.linalg.norm(M), n)
            AB = matmul_naive(A, B)
            meas = relative_error(M, AB)
            f = _factor(est, meas)
            factors.append(f)
            if f <= 2.0:
                hits += 1
            norm_ratios.append(np.linalg.norm(AB) / np.linalg.norm(M))
            dB = B - svd_reconstruct(db)
            noise_ratios.append(n * np.linalg.norm(dA @ dB) ** 2
                                / (norm_da * norm_db) ** 2)
        hits_by_n[n] = hits
        factors_by_n[n] = float(np.median(factors))
        norm_ratio_by_n[n] = float(np.median(norm_ratios))
        noise_ratio_by_n[n] = float(np.median(noise_ratios))
    elapsed = time.perf_counter() - t0
    ok = all(h >= 9 for h in hits_by_n.values()) and elapsed < 300.0
    detail = ("within x2: " +
              ", ".join(f"n={n}: {h}/10 (median factor {factors_by_n[n]:.2f})"
                        for n, h in hits_by_n.items()) +
              f", {elapsed:.1f}s")
    if not ok:
        detail += ("; the residues multiply like independent noise (median "
                   "n ||dA dB||^2 / (||dA||^2 ||dB||^2): " +
                   ", ".join(f"{r:.3f}" for r in noise_ratio_by_n.values()) +
                   "), so the numerator is right; the miss is the "
                   "denominator: the estimate divides by ||M||, and the "
                   "median ||AB|| / ||M|| is " +
                   ", ".join(f"{r:.2f}" for r in norm_ratio_by_n.values()) +
                   ", because the rank-k truncation keeps little of the "
                   "type1 factors' energy")
    assert _verdict("8 (posterior calibration, svd, type1 x type1)", ok, detail)


# -------------------------------------------------------------- criterion 9

def test_criterion_09_sparsify_support_oracle():
    agree = True
    for i in range(50):
        rng = np.random.default_rng([9, i])
        cols = 4 + (i % 5)
        k = 1 + (i % 3)
        M = rng.standard_normal((8, cols))
        S = topk_sparsify(M, k)
        for r in range(8):
            impl = tuple(S.csr.indices[S.csr.indptr[r]:S.csr.indptr[r + 1]].tolist())
            best = max(itertools.combinations(range(cols), k),
                       key=lambda idx: float(np.sum(M[r, list(idx)] ** 2)))
            if impl != best:
                impl_e = float(np.sum(M[r, list(impl)] ** 2))
                best_e = float(np.sum(M[r, list(best)] ** 2))
                # support may differ only on exact energy ties
                if abs(impl_e - best_e) > 1e-12:
                    agree = False
    assert _verdict("9 (top-k support vs exhaustive oracle)", agree,
                    "50 matrices, 400 rows, k <= 3")


# ------------------------------------------------------------- criterion 10

def test_criterion_10_baseline_unbiasedness():
    t0 = time.perf_counter()
    A = generate(MatrixSpec("general", 16, seed=0))
    B = generate(MatrixSpec("general", 16, seed=1))
    AB = matmul_naive(A, B)
    mask = np.abs(AB) > 0.5
    acc = np.zeros_like(AB)
    trials = 2000
    for t in range(trials):
        M, _ = randomized_outer_product_multiply(A, B, 20, t)
        acc += M
    dev = float(np.max(np.abs(acc / trials - AB)[mask] / np.abs(AB)[mask]))
    elapsed = time.perf_counter() - t0
    ok = dev <= 0.05
    assert _verdict("10 (baseline entrywise unbiasedness)", ok,
                    f"max entry dev {dev:.2%} over {int(mask.sum())} entries, "
                    f"{trials} seeds, c=20, {elapsed:.1f}s")


# ------------------------------------------------------------- criterion 11

def test_criterion_11_cd_scaling_smoke():
    # informational only: never fails, warns when the ratio looks cubic
    times = {512: [], 1024: []}
    for n in (512, 1024):
        k = math.ceil(math.log2(n))
        for t in range(5):
            A, B = _pair("general", "general", n, t)
            _, rep = circulant_first_order_multiply(A, B, k, 1)
            times[n].append(rep.wall_time)
    ratio = float(np.mean(times[1024]) / np.mean(times[512]))
    ok = ratio < 6.0
    tag = "PASS" if ok else "WARN"
    print(f"CRITERION 11 (cd scaling smoke): {tag}  "
          f"[t(1024)/t(512) = {ratio:.2f} over 5 trials, target < 6]")
    if not ok:
        warnings.warn(f"cd scaling ratio {ratio:.2f} >= 6 (informational)",
                      RuntimeWarning)
