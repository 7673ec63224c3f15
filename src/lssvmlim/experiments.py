"""Monte Carlo harness tying mixtures, LS-SVM training, and the asymptotic
predictors together: parameter sweeps, score histograms, score-equivalent
convergence studies, and empirical-vs-theoretical error comparison.

Trial k of any experiment draws its randomness from ``mix64(base_seed, k)``
only, so results are reproducible and independent of scheduling order;
per-trial outcomes are stored and reduced at the end.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field, fields, replace
from types import SimpleNamespace

import numpy as np

from .errors import NumericalFailure
from .kernels import kernel_from_spec
from .lssvm import TrainedModel, classify
from .mixture import (MixtureModel, _parse_mean_spec, mix64, model_from_spec, naming, real,
                      sample, whole_int)
from .theory import error_rates, gaussian_stats, optimal_threshold, q_function, random_equivalent

THRESHOLD_RULES = ("optimal", "zero", "bias")
SWEEP_AXES = ("sigma2", "fprime", "fsecond", "c0", "c1", "mu_offset")


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


def class_split(n, c1):
    """Per-class counts of ``n`` points at proportions c1 : c2, at least one
    each: the counts every trial trains on and every prediction is made at."""
    if n < 2:
        raise ValueError(f"{n} points cannot cover both classes")
    n1 = min(max(1, round(n * c1)), n - 1)
    return n1, n - n1


def mean_se(values):
    """Mean of ``values`` and its standard error ``std(ddof=1) / sqrt(count)``;
    the mean is NaN without values and the standard error with fewer than two."""
    v = np.asarray(values, dtype=float)
    mean = float(v.mean()) if v.size else float("nan")
    se = float(v.std(ddof=1) / np.sqrt(v.size)) if v.size > 1 else float("nan")
    return mean, se


def _draw(source, n1, n2, m1, m2, seed):
    """Training and test sets of one trial, ``n1 + n2`` and ``m1 + m2``
    points with class 1 first, each with ``X`` and -1/+1 ``labels``.

    A :class:`MixtureModel` is sampled, the training set at ``mix64(seed, 0)``
    and the test set at ``mix64(seed, 1)``.  A labeled pool ``(X, labels)``
    (columns of ``X``, labeled -1 and +1) is picked from without replacement
    at ``default_rng(seed)``, class 1 first: the two sets are disjoint."""
    if isinstance(source, MixtureModel):
        return sample(source, n1, n2, mix64(seed, 0)), sample(source, m1, m2, mix64(seed, 1))
    X, labels = source[0], np.asarray(source[1], dtype=float)
    idx1, idx2 = np.flatnonzero(labels < 0), np.flatnonzero(labels > 0)
    if len(idx1) < n1 + m1 or len(idx2) < n2 + m2:
        raise ValueError(f"a pool of {len(idx1)} + {len(idx2)} points per class is too small "
                         f"for {n1} + {n2} training and {m1} + {m2} test points")
    rng = np.random.default_rng(seed)
    pick1 = rng.choice(idx1, size=n1 + m1, replace=False)
    pick2 = rng.choice(idx2, size=n2 + m2, replace=False)
    train, test = np.r_[pick1[:n1], pick2[:n2]], np.r_[pick1[n1:], pick2[n2:]]
    return tuple(SimpleNamespace(X=X[:, i], labels=labels[i]) for i in (train, test))


def _trial(source, n1, n2, m1, m2, gamma, profile, seed):
    """One trial, drawn by :func:`_draw`: ``(train_set, test_set, test scores)``."""
    train_set, test_set = _draw(source, n1, n2, m1, m2, seed)
    fitted = TrainedModel.fit(train_set.X, train_set.labels, gamma, profile)
    return train_set, test_set, fitted.decide_many(test_set.X)


def empirical_error(source, n1, n2, n_test, gamma, profile, threshold, seed):
    """Train on ``n1 + n2`` points of ``source`` (a mixture model or a
    labeled pool, see :func:`_draw`), labeled -1 and +1, and misclassification
    rates on ``n_test`` test points split by the training proportions,
    :func:`class_split`.

    Returns ``(eps1_hat, eps2_hat, weighted_hat)`` with the weighted rate
    ``c1 eps1 + c2 eps2`` at the training proportions c1 : c2 = n1 : n2.
    """
    m1, m2 = class_split(n_test, n1 / (n1 + n2))
    _, test_set, scores = _trial(source, n1, n2, m1, m2, gamma, profile, seed)
    assigned = classify(scores, threshold)
    class1 = test_set.labels < 0
    eps1 = float(np.mean(assigned[class1] != 1))
    eps2 = float(np.mean(assigned[~class1] != 2))
    return eps1, eps2, n1 / (n1 + n2) * eps1 + n2 / (n1 + n2) * eps2


@dataclass(frozen=True)
class ExperimentConfig:
    """One parsed config file.  Each field is the config key of its name,
    except ``axis`` and ``grid``, which are given inside ``sweep``; each
    field's default is its key's default.

    The README's config reference lists which subcommands read each key.
    """

    model: dict
    kernel: dict = field(default_factory=lambda: {"kind": "gaussian", "sigma2": 1.0})
    n: int = 256
    n_test: int = 256
    gamma: float = 1.0
    trials: int = 20
    base_seed: int = 0
    threshold: str = "optimal"
    axis: str = None
    grid: tuple = ()
    sizes: tuple = ()  # (n, p) pairs
    n_points: int = 100

    def __post_init__(self):
        for name in ("n", "n_test", "trials", "n_points"):
            object.__setattr__(self, name, whole_int(getattr(self, name), name))
        object.__setattr__(self, "gamma", real(self.gamma, "gamma"))
        object.__setattr__(self, "base_seed", whole_int(self.base_seed, "base_seed", positive=False))
        object.__setattr__(self, "grid", tuple(real(v, "a sweep grid value") for v in self.grid))
        array = (list, tuple)  # a JSON array, as parsed or as a caller builds it
        if not isinstance(self.sizes, array) or any(
                not isinstance(s, array) or len(s) != 2 for s in self.sizes):
            raise ValueError(f"sizes must be [n, p] pairs, got {self.sizes!r}")
        object.__setattr__(self, "sizes", tuple(
            (whole_int(n, f"sizes[{i}] n"), whole_int(p, f"sizes[{i}] p"))
            for i, (n, p) in enumerate(self.sizes)
        ))
        if not (np.isfinite(self.gamma) and self.gamma > 0):
            raise ValueError(f"gamma must be finite and positive, got {self.gamma}")
        if self.n < 2 or self.n_test < 2:
            raise ValueError("n and n_test must be at least 2 to cover both classes")
        if self.axis not in (None, *SWEEP_AXES):
            raise ValueError(f"unknown sweep axis: {self.axis!r}")
        if self.axis is not None and len(self.grid) == 0:
            raise ValueError("sweep grid must be nonempty")
        if self.axis is None and self.grid:
            raise ValueError("sweep.grid needs sweep.axis")
        if len(set(self.grid)) < len(self.grid):  # a grid point is known by its value
            raise ValueError(f"sweep grid repeats a value: {list(self.grid)}")
        if self.axis == "c0" and not all(0 < v < np.inf for v in self.grid):
            raise ValueError(f"c0 grid values must be finite and positive, got {list(self.grid)}")
        if self.threshold not in THRESHOLD_RULES:
            raise ValueError(f"unknown threshold rule: {self.threshold!r}")


def resolve_kernel(spec, model):
    """Kernel from config spec; a local kernel may anchor at the model's
    distance concentration point with ``"tau": "auto"``."""
    if spec.get("kind") == "local" and spec.get("tau") == "auto":
        spec = dict(spec, tau=model.stats.tau)
    return kernel_from_spec(spec)


def grid_point(config, model, value=None):
    """``(model, profile, n, n1, n2)`` at the config's sweep axis set to
    ``value``, or at the base config, whatever its axis, when ``value`` is
    None: the point every subcommand trains and predicts at.  ``model`` is
    the config's own model, built by the caller; a ``c1`` or ``mu_offset``
    point is a copy of it with that value replaced, sharing its covariances."""
    axis = None if value is None else config.axis
    if axis == "c1":
        with naming("model.c1"):
            model = replace(model, c1=value)
    elif axis == "mu_offset":
        means = {f"mu{k}": _parse_mean_spec(f"unit_spike({k}, {value})", model.p, f"model.mean{k}")
                 for k in (1, 2)}  # a spike outside 1..p is refused naming its key
        with naming("model.mean1"):  # a non-finite offset: mu1 is checked first
            model = replace(model, **means)
    if axis == "c0" and not np.isfinite(model.p / value):
        raise ValueError(f"c0 = {value} gives no finite sample size at p = {model.p}")
    # dimension-to-sample sweep: n follows p at fixed p
    n = max(4, round(model.p / value)) if axis == "c0" else config.n

    spec = config.kernel
    profile = resolve_kernel(spec, model)  # on every axis, so that a malformed kernel is refused
    if axis == "sigma2":
        profile = resolve_kernel({"kind": "gaussian", "sigma2": value}, model)
    elif axis in ("fprime", "fsecond"):
        # realized as the exact local quadratic anchored at the model's tau
        profile = resolve_kernel({"kind": "local", "tau": "auto", "f": spec.get("f", 1.0),
                                  "fp": value if axis == "fprime" else spec.get("fp", 0.0),
                                  "fpp": value if axis == "fsecond" else spec.get("fpp", 0.0)},
                                 model)
    return model, profile, n, *class_split(n, model.c1)


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


def nan_to_none(x):
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
        obj = {"rows": [{c: nan_to_none(getattr(r, c)) for c in CSV_COLUMNS} for r in self.rows]}
        if full:
            obj["trials"] = {str(k): v for k, v in self.per_trial.items()}
            obj["failures"] = [dict(f, value=nan_to_none(f["value"])) for f in self.failures]
        return obj


def run_sweep(config: ExperimentConfig) -> SweepResult:
    """Empirical error (mean over trials with standard error) and the
    asymptotic prediction for every grid point, in grid order.

    The config's model is built once; every grid point comes from it and is
    predicted before the first trial, so a bad grid value costs no trial,
    and is dropped after its trials with the roots it drew through.  A
    failed trial is recorded under ``failures`` and excluded from the
    averages, never silently folded in.  A ``MemoryError`` is raised, not
    recorded: sizes too large to allocate fail every trial alike.
    """
    grid = config.grid if config.axis is not None else (float("nan"),)
    base = model_from_spec(config.model)
    points = []
    for value in grid:
        model, profile, _, n1, n2 = point = grid_point(config, base, value)
        stats = gaussian_stats(model.stats, n1, n2, config.gamma, profile)
        points.append((point, at_threshold(stats, config.threshold)))
    rows, per_trial, failures = [], {}, []
    for gi, value in enumerate(grid):
        (model, profile, n, n1, n2), predicted = points.pop(0)  # so that it goes after its trials
        threshold = predicted["threshold"]
        records = []
        for t in range(config.trials):
            seed = mix64(config.base_seed, gi * config.trials + t)
            try:
                e1, e2, w = empirical_error(model, n1, n2, config.n_test, config.gamma, profile,
                                            threshold, seed)
            except MemoryError:  # the sizes, not the draw: no trial at them can run
                raise
            except Exception as exc:  # noqa: BLE001 - recorded, not averaged
                failures.append(
                    {"value": value, "trial": t, "seed": seed, "error": repr(exc)}
                )
                continue
            records.append({"trial": t, "seed": seed, "eps1": e1, "eps2": e2, "weighted": w})
        emp, se = mean_se([r["weighted"] for r in records])
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
            out[f"se_{name}"] = nan_to_none(mean_se(s.reshape(self.trials, -1).mean(axis=1))[1])
        out.update(self.stats.as_dict())
        return out


def _ks_distance(scores, mean, sd) -> float:
    """One-sample Kolmogorov-Smirnov distance of ``scores`` from N(mean, sd^2)."""
    F = q_function((mean - np.sort(scores)) / sd)
    i = np.arange(1, F.size + 1)
    return float(max((i / F.size - F).max(), (F - (i - 1) / F.size).max()))


def run_histogram(model, n, gamma, profile, n_test, trials, seed) -> HistogramResult:
    """Pool decision scores of fresh test points (n_test per class per trial)
    over independently trained models, with the per-class Gaussian prediction
    and a one-sample Kolmogorov-Smirnov distance against it.  A class whose
    predicted variance is zero has no such distance: ``NumericalFailure``."""
    n1, n2 = class_split(n, model.c1)
    stats = gaussian_stats(model.stats, n1, n2, gamma, profile)  # checks the kernel
    for a, var in ((1, stats.Var1), (2, stats.Var2)):
        if var == 0.0:
            raise NumericalFailure(f"class {a}'s predicted score variance is zero: no KS distance")
    blocks = [
        _trial(model, n1, n2, n_test, n_test, gamma, profile, mix64(seed, t))[2]
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
        n1, n2 = class_split(n, model.c1)
        m1, m2 = class_split(n_points, model.c1)
        gaussian_stats(model.stats, n1, n2, gamma, prof)  # checks the kernel
        gaps = []
        for t in range(trials):
            train_set, test_set, g = _trial(
                model, n1, n2, m1, m2, gamma, prof, mix64(base_seed, si * trials + t)
            )
            gaps.append(n * np.abs(g - random_equivalent(train_set, test_set, gamma, prof)))
        gaps = np.concatenate(gaps)
        rows.append(
            ConvergenceRow(n=n, p=p, median_scaled_gap=float(np.median(gaps)), samples=len(gaps))
        )
    return rows


def _object(value, name):
    """``value``, which a config file must give as an object (a table)."""
    if not isinstance(value, dict):
        raise ValueError(f"{name} must be an object, got {type(value).__name__}")
    return value


def config_from_dict(doc: dict, **overrides) -> ExperimentConfig:
    """Build an :class:`ExperimentConfig` from a parsed config file with
    ``overrides`` of its top-level keys; absent keys take the field defaults,
    and a key that is no field (nor ``sweep``) is refused."""
    doc = dict(_object(doc, "the config"), **overrides)
    sweep = _object(doc.pop("sweep", None) or {}, "sweep")
    keys = {f.name for f in fields(ExperimentConfig)} - {"axis", "grid"}  # those two are in sweep
    unknown = [k for k in doc if k not in keys]
    unknown += [f"sweep.{k}" for k in sweep if k not in ("axis", "grid")]
    if unknown:
        raise ValueError(f"unknown key {unknown[0]}")
    if "model" not in doc:
        raise ValueError("missing key model")
    _object(doc["model"], "model")
    _object(doc.get("kernel", {}), "kernel")
    grid = sweep.get("grid", [])
    if not isinstance(grid, (list, tuple)):
        raise ValueError(f"sweep grid must be a list, got {type(grid).__name__}")
    return ExperimentConfig(**doc, axis=sweep.get("axis"), grid=tuple(grid))
