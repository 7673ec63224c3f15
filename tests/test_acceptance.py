"""End-to-end acceptance gate.

Each test covers one numbered claim about the artifact, at its stated
tolerance, and prints a single ``ACCEPTANCE Cxx PASS`` line with the measured
values (visible with ``pytest -v -s`` or in the captured output).

C11 needs the MNIST IDX files on disk; point ``MNIST_DIR`` at a directory
holding ``train-images-idx3-ubyte`` and ``train-labels-idx1-ubyte`` (``.gz``
accepted).  Without the files the test is skipped, since the data cannot be
redistributed or downloaded here.
"""

import os
import time
from pathlib import Path

import numpy as np
import pytest

from helpers import RBF_UNIT, balanced_model, shape_kernel, shape_only_model, skew_model
from lssvmlim.experiments import (
    at_threshold,
    class_split,
    empirical_error,
    run_convergence,
    run_histogram,
)
from lssvmlim.kernels import GaussianKernel, PolynomialKernel, TaylorKernel
from lssvmlim.lssvm import TrainedModel, normalize_labels, train
from lssvmlim.mixture import MixtureModel, ToeplitzCov, mix64, sample
from lssvmlim.mnist import class_stats, discrepancy_by_scaling, load_idx
from lssvmlim.theory import error_rates, estimate_tau, gaussian_stats

SLOPE_GRID = [-3.0, -2.5, -2.0, -1.5, -1.0, -0.5, 0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0]


def report(cid, message):
    print(f"ACCEPTANCE {cid} PASS: {message}")


def test_c01_shape_only_theory_curve():
    # flat-slope point is exactly error-free; the |slope| = 1 points land on
    # 0.357859 within 0.01; the curve is symmetric in the slope sign
    t0 = time.perf_counter()
    m = shape_only_model(512)
    n = 2048  # p / n = 1/4
    errors = {}
    for fp in SLOPE_GRID:
        st = gaussian_stats(m.stats, n // 2, n // 2, 1.0, shape_kernel(m, fprime=fp))
        errors[fp] = at_threshold(st, "optimal")["weighted"]
    elapsed = time.perf_counter() - t0

    assert errors[0.0] == 0.0
    assert errors[1.0] == pytest.approx(0.357859, abs=0.01)
    assert errors[-1.0] == pytest.approx(0.357859, abs=0.01)
    for fp in (0.5, 1.0, 1.5, 2.0, 2.5, 3.0):
        assert abs(errors[fp] - errors[-fp]) <= 1e-12
    assert elapsed < 1.0
    report("C01", f"err(0)=0, err(+-1)={errors[1.0]:.6f}, symmetric, {elapsed:.2f}s")


def test_c02_shape_only_empirical_point():
    # trained-classifier error at the flat-slope point, well below chance
    t0 = time.perf_counter()
    m = shape_only_model(512)
    profile = shape_kernel(m, fprime=0.0)
    st = gaussian_stats(m.stats, 1024, 1024, 1.0, profile)
    threshold = at_threshold(st, "optimal")["threshold"]
    errs = [
        empirical_error(m, 1024, 1024, 512, 1.0, profile, threshold, mix64(12345, t))[2]
        for t in range(10)
    ]
    elapsed = time.perf_counter() - t0
    mean = float(np.mean(errs))
    assert mean <= 0.10
    assert elapsed < 300
    report("C02", f"empirical weighted error {mean:.4f} <= 0.10 ({elapsed:.0f}s)")


def test_c03_rbf_width_sweep():
    targets = {0.25: 0.053934, 0.5: 0.058311, 4.0: 0.134937}
    matches = {}
    for p in (512, 1024):
        m = balanced_model(p)
        n = p // 2
        errs = {
            s2: at_threshold(gaussian_stats(m.stats, n // 2, n // 2, 1.0, GaussianKernel(s2)),
                             "optimal")["weighted"]
            for s2 in targets
        }
        matches[p] = all(abs(errs[s2] - targets[s2]) <= 0.01 for s2 in targets)
    assert matches[512] or matches[1024]  # resolved: the larger size matches

    m = balanced_model(1024)
    profile = GaussianKernel(0.25)
    st = gaussian_stats(m.stats, 256, 256, 1.0, profile)
    threshold = at_threshold(st, "optimal")["threshold"]
    errs = [
        empirical_error(m, 256, 256, 512, 1.0, profile, threshold, mix64(777, t))[2]
        for t in range(20)
    ]
    emp = float(np.mean(errs))
    assert emp == pytest.approx(0.0548, abs=0.02)
    report("C03", f"theory match at p={[p for p, ok in matches.items() if ok]}, "
                  f"empirical {emp:.4f} vs 0.0548")


def test_c04_sample_ratio_sweep():
    p = 256
    m = balanced_model(p)
    profile = GaussianKernel(1.0)
    targets = {1: 0.0641, 4: 0.1334, 32: 0.3214}
    theory = {}
    empirical = []
    for gi, c0 in enumerate((1, 4, 32)):
        n = round(p / c0)
        st = gaussian_stats(m.stats, n // 2, n - n // 2, 1.0, profile)
        threshold, _, _, w = at_threshold(st, "optimal").values()
        theory[c0] = w
        assert w == pytest.approx(targets[c0], abs=0.01)
        n1 = n // 2
        runs = [
            empirical_error(m, n1, n - n1, 512, 1.0, profile, threshold, mix64(990, gi * 20 + t))[2]
            for t in range(20)
        ]
        empirical.append(float(np.mean(runs)))
    assert empirical[0] < empirical[1] < empirical[2]
    report("C04", f"theory {[f'{theory[c]:.4f}' for c in (1, 4, 32)]}, "
                  f"empirical {[f'{e:.4f}' for e in empirical]} increasing")


def test_c05_score_equivalent_convergence():
    t0 = time.perf_counter()
    rows = run_convergence(
        skew_model, 1.0, RBF_UNIT,
        sizes=[(128, 256), (256, 512), (512, 1024)],
        trials=20, base_seed=2718, n_points=100,
    )
    elapsed = time.perf_counter() - t0
    medians = [r.median_scaled_gap for r in rows]
    assert medians[1] <= medians[0]
    assert medians[2] <= medians[1]
    assert elapsed < 600
    report("C05", f"median n|g-ghat| = {[f'{v:.4f}' for v in medians]} non-increasing ({elapsed:.0f}s)")


def test_c06_gaussian_fit_of_scores():
    # Distribution fit with unbalanced classes at (n, p) = (256, 512) and, in
    # the same family, at (1024, 2048); 20 trained models x 100 test points per
    # class each.  The 100 scores of a trial share a model, so a pooled mean's
    # standard error is that of the 20 per-trial means (summary()'s se_class*).
    # At n = 256 the minority class (64 training points) still carries a
    # next-order mean offset of -0.083/n (z = -0.249 standard deviations) and
    # 11% excess spread, which the limit tolerances do not absorb.  Its fit is
    # therefore checked at n = 1024, and its standardized gap must shrink at
    # least at the n^{-1/2} next-order rate from n = 256: a constant offset
    # fails.  The majority class meets the tolerances at both sizes.
    fits = {}  # (n, class) -> (z = (mean - E) / sd, SE / sd, KS)
    for n, p in ((256, 512), (1024, 2048)):
        s = run_histogram(skew_model(p), n, 1.0, RBF_UNIT, 100, 20, seed=0).summary()
        for c in (1, 2):
            sd = np.sqrt(s[f"Var{c}"])
            fits[n, c] = ((s[f"mean_class{c}"] - s[f"E{c}"]) / sd, s[f"se_class{c}"] / sd, s[f"ks{c}"])
    failures = []
    for n, c in ((256, 2), (1024, 1), (1024, 2)):
        ks = fits[n, c][2]
        if ks >= 0.08:
            failures.append(f"n={n}: KS(class{c})={ks:.4f} >= 0.08")
    for n in (256, 1024):
        z, se, _ = fits[n, 2]
        if abs(z) > 3 * se:
            failures.append(f"n={n}: class2 mean off by {abs(z):.3f} sd > 3*SE={3 * se:.3f} sd")
    (z_small, se_small, _), (z_large, se_large, _) = fits[256, 1], fits[1024, 1]
    rate_bound = 0.5 * abs(z_small) + 3 * np.hypot(0.5 * se_small, se_large)
    if abs(z_large) > rate_bound:
        failures.append(f"class1 |z| {abs(z_small):.3f} -> {abs(z_large):.3f}, "
                        f"above the n^-1/2 rate bound {rate_bound:.3f}")
    assert not failures, "; ".join(failures)
    rungs = "; ".join(
        f"n={n}: z=({fits[n, 1][0]:+.3f}, {fits[n, 2][0]:+.3f}) "
        f"SE/sd=({fits[n, 1][1]:.3f}, {fits[n, 2][1]:.3f}) KS=({fits[n, 1][2]:.3f}, {fits[n, 2][2]:.3f})"
        for n in (256, 1024)
    )
    report("C06", f"{rungs}; class1 |z| {abs(z_large):.3f} <= rate bound {rate_bound:.3f}")


def test_c07_label_rescaling_identity():
    # decision scores under +-1 labels and zero-sum labels differ exactly by
    # the affine map g - (c2 - c1) = 2 c1 c2 g*
    rng = np.random.default_rng(31)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(4, 65))
        p = int(rng.integers(2, 33))
        X = rng.standard_normal((p, n)) * float(rng.uniform(0.5, 2.0))
        n1 = int(rng.integers(1, n))
        labels = np.concatenate([-np.ones(n1), np.ones(n - n1)])
        rng.shuffle(labels)
        if labels.min() == labels.max():
            labels[0] = -labels[0]
        gamma = float(rng.uniform(0.1, 10.0))
        kind = rng.integers(3)
        if kind == 0:
            profile = GaussianKernel(float(rng.uniform(0.3, 4.0)))
        elif kind == 1:
            profile = PolynomialKernel((float(rng.uniform(0.5, 2)), float(rng.uniform(-0.5, 0.5)), float(rng.uniform(0, 0.3))))
        else:
            profile = TaylorKernel(float(rng.uniform(1, 3)), float(rng.uniform(1, 5)), float(rng.uniform(-2, 2)), float(rng.uniform(-2, 2)))
        standard = TrainedModel.fit(X, labels, gamma, profile)
        zero_sum = TrainedModel.fit(X, normalize_labels(labels), gamma, profile)
        c1 = np.count_nonzero(labels < 0) / n
        c2 = 1 - c1
        x = rng.standard_normal(p)
        g, g_zero_sum = (m.decide_many(x[:, None])[0] for m in (standard, zero_sum))
        resid = abs(g - (c2 - c1) - 2 * c1 * c2 * g_zero_sum)
        worst = max(worst, resid)
    assert worst < 1e-8
    report("C07", f"max identity residual {worst:.2e} < 1e-8 over 100 instances")


def test_c08_tau_estimator():
    model = skew_model(512)
    hits = 0
    worst = 0.0
    for seed in range(20):
        ds = sample(model, 256, 768, seed=seed)
        err = abs(estimate_tau(ds.X) - model.stats.tau)
        worst = max(worst, err)
        hits += err < 0.05
    assert hits >= 19
    report("C08", f"|tau_hat - tau| < 0.05 in {hits}/20 seeds (worst {worst:.4f})")


def test_c09_regularizer_invariance():
    rng = np.random.default_rng(47)
    worst = 0.0
    for _ in range(10):
        p = int(rng.integers(48, 160))
        spike = float(rng.uniform(0.5, 3.0))
        boost = float(rng.uniform(0.0, 6.0))
        mu1 = np.zeros(p)
        mu2 = np.zeros(p)
        mu1[0] = spike
        mu2[1] = spike
        m = MixtureModel(
            p, mu1, mu2, np.eye(p),
            np.asarray(ToeplitzCov(float(rng.uniform(0, 0.6)), 1.0 + boost / np.sqrt(p), p)),
            c1=float(rng.uniform(0.2, 0.8)),
        )
        n = int(rng.integers(32, 512))
        profile = GaussianKernel(float(rng.uniform(0.25, 4.0)))
        outcomes = [
            at_threshold(gaussian_stats(m.stats, *class_split(n, m.c1), gamma, profile),
                         "optimal")["weighted"]
            for gamma in (0.1, 1.0, 10.0)
        ]
        worst = max(worst, abs(outcomes[0] - outcomes[1]), abs(outcomes[2] - outcomes[1]))
    assert worst <= 1e-12
    report("C09", f"optimal error gamma-invariant to {worst:.2e} over 10 models")


def test_c10_solver_against_explicit_inverse():
    rng = np.random.default_rng(53)
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(3, 33))
        A = rng.standard_normal((n, n))
        K = A @ A.T
        if rng.random() < 0.3:
            K -= np.eye(n) * float(rng.uniform(0, 1))  # indefinite variant
        n1 = int(rng.integers(1, n))
        y = np.concatenate([-np.ones(n1), np.ones(n - n1)])
        gamma = float(rng.uniform(0.2, 5.0))
        alpha, bias = train(K, y, gamma)
        S_inv = np.linalg.inv(K + (n / gamma) * np.eye(n))
        ones = np.ones(n)
        bias_o = ones @ S_inv @ y / (ones @ S_inv @ ones)
        alpha_o = S_inv @ (y - bias_o * ones)
        worst = max(worst, abs(bias - bias_o), float(np.max(np.abs(alpha - alpha_o))))
    assert worst < 1e-9
    report("C10", f"max deviation from explicit-inverse oracle {worst:.2e} < 1e-9")


def _find_mnist():
    root = Path(os.environ.get("MNIST_DIR", "data/mnist"))
    for images in ("train-images-idx3-ubyte", "train-images.idx3-ubyte"):
        for suffix in ("", ".gz"):
            ip = root / (images + suffix)
            lp = root / (images.replace("images", "labels").replace("idx3", "idx1") + suffix)
            if ip.exists() and lp.exists():
                return ip, lp
    return None


def test_c11_mnist_pipeline():
    pair = _find_mnist()
    if pair is None:
        pytest.skip(
            "MNIST IDX files not found (set MNIST_DIR to a directory with "
            "train-images-idx3-ubyte / train-labels-idx1-ubyte); offline "
            "environment cannot fetch them"
        )
    X, y = load_idx(*pair, 8, 9)
    n8 = int(np.count_nonzero(y < 0))
    n9 = int(np.count_nonzero(y > 0))
    assert (n8, n9) == (5851, 5949)  # the standard 60k training set
    model = class_stats(X, y)
    profile = GaussianKernel(1.0)
    st = gaussian_stats(model, 128, 128, 1.0, profile)
    threshold = at_threshold(st, "optimal")["threshold"]

    errs = [
        empirical_error((X, y), 128, 128, 256, 1.0, profile, threshold, mix64(6174, t))[2]
        for t in range(10)
    ]
    emp = float(np.mean(errs))
    assert emp <= 0.10

    reference = np.array([251.0, 19.0, 30.0])
    best_name, best_ratio = None, np.inf
    for name, triple in discrepancy_by_scaling(X, model).items():
        triple = np.array(triple)
        with np.errstate(divide="ignore"):
            ratios = np.where(triple > 0, np.maximum(triple / reference, reference / triple), np.inf)
        if ratios.max() < best_ratio:
            best_name, best_ratio = name, ratios.max()
    assert best_ratio <= 2.0
    report("C11", f"empirical error {emp:.4f} <= 0.10; discrepancy triple within "
                  f"x{best_ratio:.2f} under '{best_name}' scaling")
