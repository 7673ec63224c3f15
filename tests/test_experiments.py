import gc
import tracemalloc
import weakref

import numpy as np
import pytest
import scipy.stats

from helpers import RBF_UNIT, balanced_model, skew_model, spiked_means
from lssvmlim import experiments, mixture
from lssvmlim.experiments import (
    ExperimentConfig,
    _ks_distance,
    at_threshold,
    config_from_dict,
    empirical_error,
    resolve_threshold,
    run_convergence,
    run_histogram,
    run_sweep,
)
from lssvmlim.lssvm import TrainedModel
from lssvmlim.mixture import MixtureModel, ToeplitzCov, mix64, sample
from lssvmlim.theory import gaussian_stats


def test_empirical_error_point_masses_are_separable():
    p = 8
    mu1, mu2 = spiked_means(p, 2.0)
    m = MixtureModel(p, mu1, mu2, np.zeros((p, p)), np.zeros((p, p)), c1=0.5)
    eps1, eps2, w = empirical_error(m, 8, 8, 32, 1.0, RBF_UNIT, threshold=0.0, seed=1)
    assert (eps1, eps2, w) == (0.0, 0.0, 0.0)


def test_empirical_error_identical_classes_is_coin_flip():
    p = 32
    m = MixtureModel(p, np.zeros(p), np.zeros(p), np.eye(p), np.eye(p), c1=0.5)
    runs = [
        empirical_error(m, 32, 32, 128, 1.0, RBF_UNIT, threshold=0.0, seed=s)[2]
        for s in range(8)
    ]
    mean = np.mean(runs)
    se = np.std(runs, ddof=1) / np.sqrt(len(runs))
    assert abs(mean - 0.5) < max(3 * se, 0.05)


def test_empirical_error_agrees_with_prediction():
    m = balanced_model(128)
    stats = gaussian_stats(m.stats, 128, 128, 1.0, RBF_UNIT)
    threshold, _, _, w_theory = at_threshold(stats, "optimal").values()
    runs = [
        empirical_error(m, 128, 128, 256, 1.0, RBF_UNIT, threshold, seed=s)[2]
        for s in range(10)
    ]
    se = np.std(runs, ddof=1) / np.sqrt(len(runs))
    assert abs(np.mean(runs) - w_theory) <= 3 * (se + 0.01)


def test_threshold_rules():
    m = skew_model(64)
    st = gaussian_stats(m.stats, 16, 48, 1.0, RBF_UNIT)
    assert resolve_threshold("zero", st) == 0.0
    assert resolve_threshold("bias", st) == m.stats.c2 - m.c1
    opt = resolve_threshold("optimal", st)
    assert st.E1 < opt < st.E2
    with pytest.raises(ValueError):
        resolve_threshold("median", st)


def test_bias_rule_is_the_centre_of_the_scores():
    # c2 - c1, where the scores of -1/+1 labels centre
    m = skew_model(64).stats
    assert resolve_threshold("bias", gaussian_stats(m, 16, 48, 1.0, RBF_UNIT)) == m.c2 - m.c1


BASE_SWEEP = {
    "model": {
        "p": 48,
        "mean1": "unit_spike(1, 2.0)",
        "mean2": "unit_spike(2, 2.0)",
        "cov1": "identity",
        "cov2": "boosted_toeplitz(0.4, 4.0)",
        "c1": 0.5,
    },
    "kernel": {"kind": "gaussian", "sigma2": 1.0},
    "n": 48,
    "n_test": 64,
    "gamma": 1.0,
    "trials": 4,
    "base_seed": 7,
    "threshold": "optimal",
}


def test_single_point_sweep_reduces_to_empirical_error():
    doc = dict(BASE_SWEEP, sweep={"axis": "sigma2", "grid": [1.0]})
    config = config_from_dict(doc)
    result = run_sweep(config)
    assert len(result.rows) == 1
    row = result.rows[0]
    assert row.trials == 4 and row.n == 48 and row.p == 48

    from lssvmlim.mixture import model_from_spec

    m = model_from_spec(doc["model"])
    st = gaussian_stats(m.stats, 24, 24, 1.0, RBF_UNIT)
    threshold = resolve_threshold("optimal", st)
    manual = [
        empirical_error(m, 24, 24, 64, 1.0, RBF_UNIT, threshold, mix64(7, t))[2]
        for t in range(4)
    ]
    assert row.emp_err == pytest.approx(np.mean(manual), abs=1e-12)
    assert row.th_weighted == pytest.approx(at_threshold(st, "optimal")["weighted"], abs=1e-15)


def test_sweep_is_deterministic():
    doc = dict(BASE_SWEEP, sweep={"axis": "sigma2", "grid": [0.5, 1.0]})
    a = run_sweep(config_from_dict(doc))
    b = run_sweep(config_from_dict(doc))
    assert a.rows == b.rows


def test_sweep_seed_isolation():
    # trial k depends only on mix64(base_seed, k): recomputing one trial in
    # isolation reproduces the recorded value
    doc = dict(BASE_SWEEP, sweep={"axis": "sigma2", "grid": [1.0, 2.0]})
    config = config_from_dict(doc)
    result = run_sweep(config)
    rec = result.per_trial[2.0][3]  # grid point 1, trial 3
    assert rec["seed"] == mix64(7, 1 * 4 + 3)

    from lssvmlim.kernels import GaussianKernel
    from lssvmlim.mixture import model_from_spec

    m = model_from_spec(doc["model"])
    profile = GaussianKernel(2.0)
    st = gaussian_stats(m.stats, 24, 24, 1.0, profile)
    threshold = resolve_threshold("optimal", st)
    again = empirical_error(m, 24, 24, 64, 1.0, profile, threshold, rec["seed"])
    assert again[2] == rec["weighted"]


def test_sweep_axis_fprime_anchors_at_tau():
    doc = dict(
        BASE_SWEEP,
        model=dict(BASE_SWEEP["model"], cov2="toeplitz(0.4, 1.0)", mean1="zeros", mean2="zeros"),
        kernel={"kind": "local", "tau": "auto", "f": 4.0, "fp": 0.0, "fpp": 2.0},
        sweep={"axis": "fprime", "grid": [-1.0, 0.0, 1.0]},
    )
    result = run_sweep(config_from_dict(doc))
    assert [r.value for r in result.rows] == [-1.0, 0.0, 1.0]
    # symmetric separation statistics: prediction symmetric in the slope sign
    assert result.rows[0].th_weighted == pytest.approx(result.rows[2].th_weighted, abs=1e-12)
    assert result.rows[1].th_weighted == 0.0


@pytest.mark.parametrize("axis", ["fprime", "fsecond"])
def test_derivative_axes_anchor_at_the_model_tau_with_the_base_kernels_values(axis):
    # the point's local quadratic is anchored at the model's tau whatever the
    # base kernel's tau, and takes f, fp and fpp from a base kernel that is
    # not a local one as 1.0, 0.0 and 0.0
    def predicted(kernel):
        doc = dict(BASE_SWEEP, kernel=kernel, trials=1,
                   sweep={"axis": axis, "grid": [-1.0, 0.5]})
        return [(r.th_eps1, r.th_eps2, r.th_weighted, r.threshold)
                for r in run_sweep(config_from_dict(doc)).rows]

    local = {"kind": "local", "tau": "auto", "f": 4.0, "fp": 0.5, "fpp": 2.0}
    assert predicted(dict(local, tau=0.5)) == predicted(local)
    defaults = {"kind": "local", "tau": "auto", "f": 1.0, "fp": 0.0, "fpp": 0.0}
    assert predicted({"kind": "gaussian", "sigma2": 1.0}) == predicted(defaults)


def test_sweep_axis_c0_adjusts_n():
    doc = dict(BASE_SWEEP, sweep={"axis": "c0", "grid": [0.5, 1.0, 2.0]})
    result = run_sweep(config_from_dict(doc))
    assert [r.n for r in result.rows] == [96, 48, 24]
    assert all(r.p == 48 for r in result.rows)


def test_sweep_axis_c1_rebalances():
    doc = dict(BASE_SWEEP, sweep={"axis": "c1", "grid": [0.25, 0.5]})
    result = run_sweep(config_from_dict(doc))
    assert result.rows[0].threshold != result.rows[1].threshold


def test_sweep_axis_mu_offset_irrelevant_under_flat_slope():
    # a kernel with zero slope at the concentration point ignores the mean
    # separation entirely: the prediction is constant along the offset grid
    doc = dict(
        BASE_SWEEP,
        kernel={"kind": "local", "tau": "auto", "f": 4.0, "fp": 0.0, "fpp": 2.0},
        trials=1,
        sweep={"axis": "mu_offset", "grid": [0.0, 1.5, 3.0]},
    )
    result = run_sweep(config_from_dict(doc))
    vals = [r.th_weighted for r in result.rows]
    assert vals[0] == vals[1] == vals[2]


def dense_sweep(tmp_path, axis, grid):
    """A sweep config whose class 2 covariance is a dense p = 16 ``.npy``
    file, at the unequal split c1 = 0.3."""
    path = tmp_path / "cov2.npy"
    np.save(path, np.asarray(ToeplitzCov(0.4, 1.5, 16)))
    model = dict(BASE_SWEEP["model"], p=16, cov2={"file": str(path)}, c1=0.3)
    return config_from_dict(dict(BASE_SWEEP, model=model, n=40, n_test=20, trials=2,
                                 sweep={"axis": axis, "grid": grid}))


def counting(monkeypatch, owner, name, calls, keep=lambda *args: True):
    """Replace ``owner.name`` by a wrapper that appends each call's result
    to ``calls`` when ``keep(*args)`` holds."""
    f = getattr(owner, name)

    def wrapper(*args, **kwargs):
        out = f(*args, **kwargs)
        if keep(*args):
            calls.append(out)
        return out

    monkeypatch.setattr(owner, name, wrapper)


@pytest.mark.parametrize(
    "axis, grid",
    [("sigma2", [0.5, 1.0, 2.0, 4.0]), ("c1", [0.3, 0.5, 0.7]), ("mu_offset", [0.0, 1.5, 3.0])],
    ids=["sigma2", "c1", "mu_offset"])
def test_a_dense_sweep_reads_and_decomposes_its_covariance_once(tmp_path, monkeypatch, axis,
                                                                 grid):
    # a c1 or mu_offset point is a copy of the base model that shares its
    # covariance objects, so it shares their check and their root too
    config = dense_sweep(tmp_path, axis, grid)
    loads, checks, roots = [], [], []
    counting(monkeypatch, mixture, "load_npy", loads)
    counting(monkeypatch, np.linalg, "eigvalsh", checks)
    # a p x p eigh is the root's; the solver's fallback would decompose an n x n system
    counting(monkeypatch, np.linalg, "eigh", roots, keep=lambda a: np.shape(a) == (16, 16))
    result = run_sweep(config)
    assert [r.trials for r in result.rows] == [2] * len(grid)
    assert (len(loads), len(checks), len(roots)) == (1, 1, 1)


@pytest.mark.parametrize("axis, grid", [("c1", [0.3, 0.5, 0.7]), ("mu_offset", [0.0, 1.5, 3.0])])
def test_derived_grid_points_share_the_base_covariances(tmp_path, monkeypatch, axis, grid):
    config = dense_sweep(tmp_path, axis, grid)
    loads, roots, seen = [], [], []
    counting(monkeypatch, mixture, "load_npy", loads)
    root, trial = mixture._root, experiments.empirical_error

    def weak_root(w, v):  # a weak reference, so that only the program keeps a root alive
        out = root(w, v)
        roots.append(weakref.ref(out))
        return out

    def spy(model, *args):
        gc.collect()
        alive = sum(ref() is not None for ref in roots)
        seen.append((model.cov1, model.cov2, alive))
        return trial(model, *args)

    monkeypatch.setattr(mixture, "_root", weak_root)
    monkeypatch.setattr(experiments, "empirical_error", spy)
    result = run_sweep(config)
    assert [r.trials for r in result.rows] == [2, 2, 2]
    assert len(loads) == 1 and len(seen) == 6
    # every point draws from the base model's covariance objects, the dense one
    # wrapping the loaded array, and through their one root: one alive at a time
    assert all(cov1 is seen[0][0] and cov2 is seen[0][1] for cov1, cov2, _ in seen)
    assert np.shares_memory(seen[0][1].a, loads[0])
    assert max(alive for _, _, alive in seen) <= 1


def test_sweep_csv_schema(tmp_path):
    doc = dict(BASE_SWEEP, sweep={"axis": "sigma2", "grid": [1.0]})
    result = run_sweep(config_from_dict(doc))
    out = tmp_path / "rows.csv"
    result.to_csv(out)
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "axis,value,n,p,trials,emp_err,emp_se,th_eps1,th_eps2,th_weighted,threshold"
    assert len(lines) == 2


def test_sweep_records_failures_instead_of_averaging():
    # a trial that cannot train must be recorded as a failure, not silently
    # skipped.  Two point masses at distance^2 / p = 1 under f(t) = 2 t give
    # K = 2 (1_1 1_2' + 1_2 1_1'), so with n1 = n2 = 24 = n / gamma,
    # S (1_1 - 1_2) = 0 exactly: singular along a direction orthogonal to 1,
    # where the LS-SVM system itself has no unique solution
    p = 64
    point_masses = dict(BASE_SWEEP["model"], p=p, mean1="zeros", mean2="unit_spike(1, 8.0)",
                        cov1=np.zeros((p, p)).tolist(), cov2=np.zeros((p, p)).tolist())
    doc = dict(BASE_SWEEP, model=point_masses, threshold="zero",
               kernel={"kind": "local", "tau": 0.0, "f": 0.0, "fp": 2.0, "fpp": 0.0})
    result = run_sweep(config_from_dict(doc))
    assert len(result.failures) == 4
    assert np.isnan(result.rows[0].emp_err)


def test_a_sampled_trial_holds_no_latents():
    # p = 256, n = 1024, n_test = 256: the trial must hold its data,
    # p (n + n_test) doubles (2.5 MiB), and the packed Gram, (n^2 / 2 + 256 n)
    # doubles (6 MiB); 1 MiB more covers the kernel tiles and solver vectors.
    # Another p (n + n_test) doubles of latents do not fit in it.
    p, n, n_test = 256, 1024, 256
    bound = (p * (n + n_test) + n * n // 2 + 256 * n) * 8 + 2**20
    m = balanced_model(p)
    empirical_error(m, n // 2, n // 2, n_test, 1.0, RBF_UNIT, threshold=0.0, seed=3)  # warm caches
    tracemalloc.start()
    try:
        empirical_error(m, n // 2, n // 2, n_test, 1.0, RBF_UNIT, threshold=0.0, seed=3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= bound


def test_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig({}, {}, 10, 10, 1.0, trials=0, base_seed=0)
    with pytest.raises(ValueError):
        ExperimentConfig({}, {}, 10, 10, 1.0, trials=1, base_seed=0, axis="sigma2", grid=())
    with pytest.raises(ValueError):
        ExperimentConfig({}, {}, 10, 10, 1.0, trials=1, base_seed=0, threshold="best")


def test_config_defaults_are_the_documented_ones():
    config = config_from_dict({"model": BASE_SWEEP["model"]})
    assert config.kernel == {"kind": "gaussian", "sigma2": 1.0}
    assert (config.n, config.n_test, config.gamma) == (256, 256, 1.0)
    assert (config.trials, config.base_seed, config.threshold) == (20, 0, "optimal")
    assert (config.sizes, config.n_points) == ((), 100)
    assert config.axis is None and config.grid == ()


def test_histogram_identical_classes_pools_same_distribution():
    p = 24
    m = MixtureModel(p, np.zeros(p), np.zeros(p), np.eye(p), np.eye(p), c1=0.5)
    result = run_histogram(m, n=32, gamma=1.0, profile=RBF_UNIT, n_test=40, trials=6, seed=3)
    ks = scipy.stats.ks_2samp(result["scores1"], result["scores2"])
    assert ks.pvalue > 0.01


def test_histogram_balanced_centers_have_opposite_signs():
    # at c1 = c2 the centre c2 - c1 of the scores is 0
    m = balanced_model(96)
    result = run_histogram(m, n=96, gamma=1.0, profile=RBF_UNIT, n_test=50, trials=8, seed=4)
    assert result["D"] > 0
    assert result["scores1"].mean() < 0 < result["scores2"].mean()
    assert result["E1"] < 0 < result["E2"]


def test_histogram_summary_fields():
    m = balanced_model(48)
    s = run_histogram(m, n=48, gamma=1.0, profile=RBF_UNIT, n_test=20, trials=3, seed=5)
    for key in ("ks1", "ks2", "mean_class1", "se_class1", "E1", "Var2"):
        assert key in s
    # the 20 scores of a trial share one trained model: the standard error is
    # that of the 3 per-trial means, not of 60 independent scores
    for name, scores in (("class1", s["scores1"]), ("class2", s["scores2"])):
        trial_means = [scores[20 * t: 20 * (t + 1)].mean() for t in range(3)]
        assert s[f"se_{name}"] == pytest.approx(np.std(trial_means, ddof=1) / np.sqrt(3), rel=1e-12)
    single = run_histogram(m, n=48, gamma=1.0, profile=RBF_UNIT,
                           n_test=20, trials=1, seed=5)
    assert np.isnan(single["se_class1"]) and np.isnan(single["se_class2"])
    assert np.isfinite(single["mean_class1"])


@pytest.mark.parametrize("m", [1, 2, 7, 10240, "tied"])
def test_ks_distance_matches_scipy(m):
    rng = np.random.default_rng(11)
    mean, sd = 0.3, 1.7
    if m == "tied":
        scores = np.repeat(rng.normal(mean, sd, 5), [1, 3, 2, 5, 1])
    else:
        scores = rng.normal(mean + 0.2, sd, m)
    expected = scipy.stats.kstest(scores, "norm", args=(mean, sd)).statistic
    assert abs(_ks_distance(scores, mean, sd) - expected) <= 1e-15


def test_convergence_degenerate_model_gap_is_zero():
    # point masses with equal means: trained score and its equivalent both
    # collapse to the proportion bias
    def factory(p):
        return MixtureModel(p, np.zeros(p), np.zeros(p), np.zeros((p, p)), np.zeros((p, p)), c1=0.5)

    rows = run_convergence(factory, 1.0, RBF_UNIT, sizes=[(16, 16), (32, 32)],
                           trials=2, base_seed=6, n_points=10)
    assert all(r.median_scaled_gap < 1e-8 for r in rows)


def test_convergence_median_stable_under_more_trials():
    def factory(p):
        return skew_model(p)

    kernel = RBF_UNIT
    few = run_convergence(factory, 1.0, kernel, sizes=[(64, 128)], trials=10,
                          base_seed=7, n_points=40)
    many = run_convergence(factory, 1.0, kernel, sizes=[(64, 128)], trials=20,
                           base_seed=7, n_points=40)
    assert many[0].median_scaled_gap == pytest.approx(few[0].median_scaled_gap, rel=0.2)


def test_empirical_error_on_a_pool_picks_a_disjoint_split():
    rng = np.random.default_rng(8)
    p, n_pool = 16, 200
    X = rng.standard_normal((p, n_pool))
    X[0, 100:] += 4.0  # separable in the first coordinate
    labels = np.concatenate([-np.ones(100), np.ones(100)])
    eps1, eps2, w = empirical_error((X, labels), 40, 40, 60, 1.0, RBF_UNIT, 0.0, seed=9)
    assert w < 0.2
    with pytest.raises(ValueError):
        empirical_error((X, labels), 90, 90, 60, 1.0, RBF_UNIT, 0.0, seed=9)


def test_a_model_draw_is_a_pool(monkeypatch):
    # a draw is the labeled set (X, labels) that a pool is: picked from at an
    # unequal split, its training and test columns are disjoint
    m = skew_model(16)
    X, labels = pool = sample(m, 60, 140, seed=4)
    draw, drawn = experiments._draw, []

    def spy(*args):
        drawn.append(draw(*args))
        return drawn[-1]

    monkeypatch.setattr(experiments, "_draw", spy)
    rates = empirical_error(pool, 10, 30, 24, 1.0, RBF_UNIT, 0.0, seed=5)
    assert all(0.0 <= r <= 1.0 for r in rates)
    (train_X, train_labels), (test_X, test_labels) = drawn[0]
    assert train_labels.tolist() == [-1.0] * 10 + [1.0] * 30
    assert test_labels.tolist() == [-1.0] * 6 + [1.0] * 18
    columns = [{c.tobytes() for c in Y.T} for Y in (X, train_X, test_X)]
    assert len(columns[1]) == 40 and len(columns[2]) == 24
    assert columns[1] | columns[2] <= columns[0] and not columns[1] & columns[2]
    # and each picked column keeps its own label
    label_of = {c.tobytes(): y for c, y in zip(X.T, labels)}
    assert [label_of[c.tobytes()] for c in train_X.T] == train_labels.tolist()
    assert [label_of[c.tobytes()] for c in test_X.T] == test_labels.tolist()


def test_histogram_and_convergence_trials_follow_the_seed_scheme(monkeypatch):
    # trial k draws its training set at mix64(mix64(base, k), 0) and its test
    # set at mix64(mix64(base, k), 1); rebuilding a trial by hand from those
    # seeds reproduces its scores bit for bit
    from lssvmlim import lssvm
    from lssvmlim.theory import random_equivalent

    m = skew_model(24)
    n, n_test, trials, base = 32, 10, 3, 11
    hist = run_histogram(m, n, 1.0, RBF_UNIT, n_test, trials, base)
    for t in range(trials):
        s = mix64(base, t)
        train_set = sample(m, 8, 24, mix64(s, 0))
        test_set = sample(m, n_test, n_test, mix64(s, 1))
        fitted = TrainedModel.fit(*train_set, 1.0, RBF_UNIT)
        scores = fitted.decide_many(test_set[0])
        block = slice(t * n_test, (t + 1) * n_test)
        assert np.array_equal(hist["scores1"][block], scores[:n_test])
        assert np.array_equal(hist["scores2"][block], scores[n_test:])

    seen = []
    decide_many = lssvm.TrainedModel.decide_many

    def spy(self, points):
        seen.append(decide_many(self, points))
        return seen[-1]

    monkeypatch.setattr(lssvm.TrainedModel, "decide_many", spy)
    sizes = [(16, 24), (32, 48)]
    rows = run_convergence(skew_model, 1.0, RBF_UNIT, sizes, trials, base, n_points=12)
    monkeypatch.undo()
    assert len(seen) == len(sizes) * trials
    for si, (n, p) in enumerate(sizes):
        model = skew_model(p)
        n1 = round(n * model.c1)
        m1 = round(12 * model.c1)
        gaps = []
        for t in range(trials):
            s = mix64(base, si * trials + t)
            train_set = sample(model, n1, n - n1, mix64(s, 0))
            test_set = sample(model, m1, 12 - m1, mix64(s, 1))
            fitted = TrainedModel.fit(*train_set, 1.0, RBF_UNIT)
            g = fitted.decide_many(test_set[0])
            assert np.array_equal(seen[si * trials + t], g)
            g_hat = random_equivalent(model, train_set, test_set, 1.0, RBF_UNIT)
            gaps.append(n * np.abs(g - g_hat))
        assert rows[si].median_scaled_gap == float(np.median(np.concatenate(gaps)))
