"""Monte Carlo harness tying mixtures, LS-SVM training, and the asymptotic
predictors together: parameter sweeps, score histograms, score-equivalent
convergence studies, and empirical-vs-theoretical error comparison.

Trial k of any experiment draws its randomness from ``mix64(base_seed, k)``
only, so results are reproducible and independent of scheduling order;
per-trial outcomes are stored and reduced at the end.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field, fields

import numpy as np

from .kernels import kernel_from_spec
from .lssvm import TrainedModel, classify
from .mixture import mix64, model_from_spec, sample
from .theory import error_rates, gaussian_stats, optimal_threshold, q_function, random_equivalent

THRESHOLD_RULES = ("optimal", "zero", "bias")


def resolve_threshold(rule, stats):
    """Map a threshold rule name to a numeric threshold; ``"bias"`` is the
    centre of the scores, ``stats.bias``."""
    if rule == "optimal":
        return optimal_threshold(stats)
    if rule == "zero":
        return 0.0
    if rule == "bias":
        return stats.bias
    raise ValueError(f"unknown threshold rule: {rule!r}")


def at_threshold(stats, rule):
    """The threshold of ``rule`` and the predicted error rates there, as a
    dict with keys ``threshold``, ``eps1``, ``eps2`` and ``weighted``."""
    threshold = resolve_threshold(rule, stats)
    eps1, eps2, weighted = error_rates(stats, threshold)
    return {"threshold": threshold, "eps1": eps1, "eps2": eps2, "weighted": weighted}


def _class_split(n, c1):
    """Per-class counts of ``n`` points at proportions c1 : c2, at least one
    each."""
    if n < 2:
        raise ValueError(f"{n} points cannot cover both classes")
    n1 = min(max(1, round(n * c1)), n - 1)
    return n1, n - n1


def _trial(model, n1, n2, m1, m2, gamma, profile, convention, seed):
    """One Monte Carlo trial: fit on ``n1 + n2`` points drawn at
    ``mix64(seed, 0)``, score ``m1 + m2`` test points drawn at
    ``mix64(seed, 1)``.  Returns ``(train_set, test_set, scores)``."""
    train_set = sample(model, n1, n2, mix64(seed, 0))
    test_set = sample(model, m1, m2, mix64(seed, 1))
    fitted = TrainedModel.fit(train_set.X, train_set.labels, gamma, profile, convention)
    return train_set, test_set, fitted.decide_many(test_set.X)


def _class_errors(scores, labels, threshold, n1, n2):
    """Per-class misclassification rates of test points labeled -1/+1 and
    their weighting ``c1 eps1 + c2 eps2`` at the training proportions."""
    assigned = classify(scores, threshold)
    class1 = np.asarray(labels) < 0
    eps1 = float(np.mean(assigned[class1] != 1))
    eps2 = float(np.mean(assigned[~class1] != 2))
    n = n1 + n2
    return eps1, eps2, n1 / n * eps1 + n2 / n * eps2


def empirical_error(model, n1, n2, n_test, gamma, profile, threshold, seed, convention="standard"):
    """Train on a fresh sample, misclassification rates on a fresh test
    sample of ``n_test`` points split by the class proportions.

    Returns ``(eps1_hat, eps2_hat, weighted_hat)`` with the weighted rate
    ``c1 eps1 + c2 eps2``.
    """
    m1, m2 = _class_split(n_test, n1 / (n1 + n2))
    _, test_set, scores = _trial(model, n1, n2, m1, m2, gamma, profile, convention, seed)
    return _class_errors(scores, test_set.labels, threshold, n1, n2)


def empirical_error_pool(X, labels, n1, n2, m1, m2, gamma, profile, threshold, seed):
    """Like :func:`empirical_error`, but drawing train and test points
    without replacement from a fixed labeled pool (columns of ``X``,
    labels -1/+1).  Train and test sets are disjoint."""
    rng = np.random.default_rng(seed)
    labels = np.asarray(labels)
    idx1 = np.flatnonzero(labels < 0)
    idx2 = np.flatnonzero(labels > 0)
    if len(idx1) < n1 + m1 or len(idx2) < n2 + m2:
        raise ValueError("pool too small for the requested train/test sizes")
    pick1 = rng.choice(idx1, size=n1 + m1, replace=False)
    pick2 = rng.choice(idx2, size=n2 + m2, replace=False)
    tr = np.concatenate([pick1[:n1], pick2[:n2]])
    te = np.concatenate([pick1[n1:], pick2[n2:]])
    fitted = TrainedModel.fit(X[:, tr], labels[tr].astype(float), gamma, profile)
    return _class_errors(fitted.decide_many(X[:, te]), labels[te], threshold, n1, n2)


@dataclass(frozen=True)
class ExperimentConfig:
    """One parsed config file; each field's default is its key's default.

    The README's config reference lists which subcommands read each key.
    """

    model_spec: dict
    kernel_spec: dict = field(default_factory=lambda: {"kind": "gaussian", "sigma2": 1.0})
    n: int = 256
    n_test: int = 256
    gamma: float = 1.0
    trials: int = 20
    base_seed: int = 0
    threshold_rule: str = "optimal"
    axis: str = None
    grid: tuple = ()
    convention: str = "standard"
    sizes: tuple = ()  # (n, p) pairs
    n_points: int = 100

    def __post_init__(self):
        try:
            for name, kind in (("n", int), ("n_test", int), ("gamma", float), ("trials", int),
                               ("base_seed", int), ("n_points", int)):
                object.__setattr__(self, name, kind(getattr(self, name)))
            object.__setattr__(self, "grid", tuple(float(v) for v in self.grid))
            object.__setattr__(self, "sizes", tuple(tuple(map(int, pair)) for pair in self.sizes))
        except TypeError as exc:  # e.g. a null in the config file
            raise ValueError(f"config value of the wrong type: {exc}") from exc
        if not (np.isfinite(self.gamma) and self.gamma > 0):
            raise ValueError(f"gamma must be finite and positive, got {self.gamma}")
        if self.n < 2 or self.n_test < 2:
            raise ValueError("n and n_test must be at least 2 to cover both classes")
        if self.trials < 1:
            raise ValueError("trials must be at least 1")
        if self.convention not in ("standard", "fisher"):
            raise ValueError(f"unknown label convention: {self.convention!r}")
        if self.axis is not None and len(self.grid) == 0:
            raise ValueError("sweep grid must be nonempty")
        if self.axis == "c0" and not all(0 < v < np.inf for v in self.grid):
            raise ValueError(f"c0 grid values must be finite and positive, got {list(self.grid)}")
        if self.threshold_rule not in THRESHOLD_RULES:
            raise ValueError(f"unknown threshold rule: {self.threshold_rule!r}")


def resolve_kernel(spec, model):
    """Kernel from config spec; a local kernel may anchor at the model's
    distance concentration point with ``"tau": "auto"``."""
    if spec.get("kind") == "local" and spec.get("tau") == "auto":
        spec = dict(spec, tau=model.tau)
    return kernel_from_spec(spec)


def _instantiate(config, value):
    """Materialize (model, profile, n, n1, n2) for one grid point."""
    axis = config.axis
    model_spec = dict(config.model_spec)
    if axis == "c1":
        model_spec["c1"] = value
        model_spec.pop("n1", None)
        model_spec.pop("n2", None)
    elif axis == "mu_offset":
        model_spec["mean1"] = f"unit_spike(1, {value})"
        model_spec["mean2"] = f"unit_spike(2, {value})"
    model = model_from_spec(model_spec)
    # dimension-to-sample sweep: n follows p at fixed p
    n = max(4, round(model.p / value)) if axis == "c0" else config.n

    kernel_spec = dict(config.kernel_spec)
    if axis == "sigma2":
        kernel_spec = {"kind": "gaussian", "sigma2": value}
    elif axis in ("fprime", "fsecond"):
        # realized as the exact local quadratic anchored at the model's tau
        kernel_spec = {"kind": "local", "tau": "auto", "f": kernel_spec.get("f", 1.0),
                       "fp": value if axis == "fprime" else kernel_spec.get("fp", 0.0),
                       "fpp": value if axis == "fsecond" else kernel_spec.get("fpp", 0.0)}
    elif axis not in (None, "c0", "c1", "mu_offset"):
        raise ValueError(f"unknown sweep axis: {axis!r}")
    return model, resolve_kernel(kernel_spec, model), n, *_class_split(n, model.c1)


@dataclass(frozen=True)
class SweepRow:
    axis: str
    value: float
    n: int
    p: int
    trials: int
    emp_err: float
    emp_se: float
    th_eps1: float
    th_eps2: float
    th_weighted: float
    threshold: float


CSV_COLUMNS = [f.name for f in fields(SweepRow)]


def _nan_to_none(x):
    return None if isinstance(x, float) and np.isnan(x) else x


@dataclass(frozen=True)
class SweepResult:
    rows: tuple
    per_trial: dict = field(default_factory=dict)  # value -> list of trial records
    failures: tuple = ()

    def to_csv(self, path):
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(CSV_COLUMNS)
            for r in self.rows:
                writer.writerow([getattr(r, c) for c in CSV_COLUMNS])

    def to_json(self, full=False):
        """The rows (and with ``full`` the trials and failures) as a JSON
        object.  JSON has no NaN, so a statistic that could not be computed
        (``emp_se`` from one trial, ``emp_err`` from none) and the ``value``
        of a sweep without an axis are written as ``null``."""
        obj = {"rows": [{c: _nan_to_none(getattr(r, c)) for c in CSV_COLUMNS} for r in self.rows]}
        if full:
            obj["trials"] = {str(k): v for k, v in self.per_trial.items()}
            obj["failures"] = [dict(f, value=_nan_to_none(f["value"])) for f in self.failures]
        return obj


def run_sweep(config: ExperimentConfig) -> SweepResult:
    """Empirical error (mean over trials with standard error) and the
    asymptotic prediction for every grid point, in grid order.

    A failed trial is recorded under ``failures`` and excluded from the
    averages, never silently folded in.
    """
    grid = config.grid if config.axis is not None else (float("nan"),)
    rows, per_trial, failures = [], {}, []
    for gi, value in enumerate(grid):
        model, profile, n, n1, n2 = _instantiate(config, value)
        stats = gaussian_stats(model, n, config.gamma, profile, config.convention)
        predicted = at_threshold(stats, config.threshold_rule)
        threshold = predicted["threshold"]
        records = []
        for t in range(config.trials):
            seed = mix64(config.base_seed, gi * config.trials + t)
            try:
                e1, e2, w = empirical_error(
                    model, n1, n2, config.n_test, config.gamma, profile, threshold, seed,
                    config.convention,
                )
            except Exception as exc:  # noqa: BLE001 - recorded, not averaged
                failures.append(
                    {"value": value, "trial": t, "seed": seed, "error": repr(exc)}
                )
                continue
            records.append({"trial": t, "seed": seed, "eps1": e1, "eps2": e2, "weighted": w})
        weighted = np.array([r["weighted"] for r in records])
        emp = float(weighted.mean()) if len(weighted) else float("nan")
        se = (
            float(weighted.std(ddof=1) / np.sqrt(len(weighted)))
            if len(weighted) > 1
            else float("nan")
        )
        rows.append(
            SweepRow(
                axis=config.axis or "none",
                value=value,
                n=n,
                p=model.p,
                trials=len(records),
                emp_err=emp,
                emp_se=se,
                th_eps1=predicted["eps1"],
                th_eps2=predicted["eps2"],
                th_weighted=predicted["weighted"],
                threshold=threshold,
            )
        )
        per_trial[value] = records
    return SweepResult(rows=tuple(rows), per_trial=per_trial, failures=tuple(failures))


@dataclass(frozen=True, eq=False)
class HistogramResult:
    """Pooled test scores per class with their predicted Gaussian overlay.

    ``scores1``/``scores2`` hold ``trials`` consecutive equal-size blocks, one
    per trained model.
    """

    scores1: np.ndarray
    scores2: np.ndarray
    stats: object  # TheoryStats
    ks1: float
    ks2: float
    trials: int

    def summary(self):
        """KS distances, pooled means with their standard errors, and the
        predicted statistics.

        The scores of one block share a trained model, so the standard error
        of a pooled mean is that of the per-trial means,
        ``std(ddof=1) / sqrt(trials)``; with a single trial it cannot be
        estimated and is ``None``.
        """
        out = {"ks1": self.ks1, "ks2": self.ks2}
        for name, s in (("class1", self.scores1), ("class2", self.scores2)):
            out[f"mean_{name}"] = float(s.mean())
            trial_means = s.reshape(self.trials, -1).mean(axis=1)
            out[f"se_{name}"] = (
                float(trial_means.std(ddof=1) / np.sqrt(self.trials)) if self.trials > 1 else None
            )
        out.update(self.stats.as_dict())
        return out


def _ks_distance(scores, mean, sd) -> float:
    """One-sample Kolmogorov-Smirnov distance of ``scores`` from N(mean, sd^2)."""
    F = q_function((mean - np.sort(scores)) / sd)
    i = np.arange(1, F.size + 1)
    return float(max((i / F.size - F).max(), (F - (i - 1) / F.size).max()))


def run_histogram(model, n, gamma, profile, convention, n_test, trials, seed) -> HistogramResult:
    """Pool decision scores of fresh test points (n_test per class per trial)
    over independently trained models, with the per-class Gaussian prediction
    and a one-sample Kolmogorov-Smirnov distance against it."""
    n1, n2 = _class_split(n, model.c1)
    stats = gaussian_stats(model, n1 + n2, gamma, profile, convention)  # checks the kernel first
    blocks = [
        _trial(model, n1, n2, n_test, n_test, gamma, profile, convention, mix64(seed, t))[2]
        for t in range(trials)
    ]
    scores1 = np.concatenate([b[:n_test] for b in blocks])
    scores2 = np.concatenate([b[n_test:] for b in blocks])
    return HistogramResult(
        scores1=scores1, scores2=scores2, stats=stats, trials=trials,
        ks1=_ks_distance(scores1, stats.E1, np.sqrt(stats.Var1)),
        ks2=_ks_distance(scores2, stats.E2, np.sqrt(stats.Var2)),
    )


@dataclass(frozen=True)
class ConvergenceRow:
    n: int
    p: int
    median_scaled_gap: float  # median over trials x points of n |g - g_hat|
    samples: int


def run_convergence(model_factory, gamma, profile, sizes, trials, base_seed, n_points=100):
    """Median of ``n |g(x) - g_hat(x)|`` per size, where the equivalent
    ``g_hat`` is evaluated from the true latents of freshly drawn training
    and test samples.

    ``model_factory(p)`` rebuilds the mixture at each dimension;
    ``profile`` may be a kernel or a callable ``model -> kernel`` (for
    locally specified kernels anchored at the model's tau).
    """
    rows = []
    for si, (n, p) in enumerate(sizes):
        model = model_factory(p)
        prof = profile(model) if callable(profile) else profile
        n1, n2 = _class_split(n, model.c1)
        m1, m2 = _class_split(n_points, model.c1)
        gaussian_stats(model, n1 + n2, gamma, prof, "standard")  # rejects an overflowing kernel
        gaps = []
        for t in range(trials):
            train_set, test_set, g = _trial(
                model, n1, n2, m1, m2, gamma, prof, "standard", mix64(base_seed, si * trials + t)
            )
            for cls, sl in ((1, slice(0, m1)), (2, slice(m1, m1 + m2))):
                g_hat = random_equivalent(
                    train_set, model, test_set.omega[:, sl], test_set.psi[sl], cls, gamma, prof
                )
                gaps.append(n * np.abs(g[sl] - g_hat))
        gaps = np.concatenate(gaps)
        rows.append(
            ConvergenceRow(n=n, p=p, median_scaled_gap=float(np.median(gaps)), samples=len(gaps))
        )
    return rows


# config key -> ExperimentConfig field, for the keys given outside "sweep"
_CONFIG_FIELDS = {
    "kernel": "kernel_spec", "n": "n", "n_test": "n_test", "gamma": "gamma",
    "trials": "trials", "base_seed": "base_seed", "threshold": "threshold_rule",
    "convention": "convention", "sizes": "sizes", "n_points": "n_points",
}


def _object(value, name):
    """``value``, which a config file must give as an object (a table)."""
    if not isinstance(value, dict):
        raise ValueError(f"{name} must be an object, got {type(value).__name__}")
    return value


def config_from_dict(doc: dict, **overrides) -> ExperimentConfig:
    """Build an :class:`ExperimentConfig` from a parsed config file with
    ``overrides`` of its top-level keys; absent keys take the field defaults."""
    doc = dict(_object(doc, "the config"), **overrides)
    sweep = _object(doc.get("sweep") or {}, "sweep")
    given = {f: doc[key] for key, f in _CONFIG_FIELDS.items() if key in doc}
    _object(given.get("kernel_spec", {}), "kernel")
    grid = sweep.get("grid", [])
    if not isinstance(grid, (list, tuple)):
        raise ValueError(f"sweep grid must be a list, got {type(grid).__name__}")
    return ExperimentConfig(
        model_spec=_object(doc["model"], "model"), axis=sweep.get("axis"), grid=tuple(grid), **given
    )
