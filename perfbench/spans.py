"""In-memory span tracing around calls into lssvmlim's modules.

A :class:`Tracer` records one span per wrapped call: name, start, end,
the index of the enclosing span, and optional attributes computed from the
call's arguments (sizes for the "computed" operation counts).  Wrappers are
installed by replacing a module-level name where the caller looks it up
(``lssvmlim.experiments.sample``, ``lssvmlim.lssvm.gram_matrix``, ...), so
nothing under ``src/`` is edited; :meth:`Tracer.patched` restores every
original on exit.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import statistics
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self):
        return self.end - self.start


def _sample_attrs(args, kwargs):
    model, n1, n2 = args[:3]
    return {"p": model.p, "n": n1 + n2}


def _gram_attrs(args, kwargs):
    p, n = args[0].shape
    return {"p": p, "n": n}


def _train_attrs(args, kwargs):
    return {"n": args[0].shape[0]}


# (module, attribute, span name, attribute function).  Several lookups of the
# same function share a span name: ``cli`` and ``experiments`` each hold their
# own binding of ``model_from_spec``, ``theory`` and ``experiments`` of
# ``gaussian_stats`` and ``error_rates``.
TARGETS = (
    ("lssvmlim.mixture", "model_from_spec", "mixture.build", None),
    ("lssvmlim.experiments", "model_from_spec", "mixture.build", None),
    ("lssvmlim.cli", "model_from_spec", "mixture.build", None),
    ("lssvmlim.experiments", "sample", "mixture.sample", _sample_attrs),
    ("lssvmlim.lssvm", "gram_matrix", "kernels.gram", _gram_attrs),
    ("lssvmlim.lssvm", "kernel_vector", "kernels.vector", None),
    ("lssvmlim.lssvm", "train", "lssvm.train", _train_attrs),
    ("lssvmlim.lssvm:TrainedModel", "fit", "lssvm.fit", None),
    ("lssvmlim.lssvm:TrainedModel", "decide_many", "lssvm.decide", None),
    ("lssvmlim.theory", "gaussian_stats", "theory.stats", None),
    ("lssvmlim.experiments", "gaussian_stats", "theory.stats", None),
    ("lssvmlim.experiments", "resolve_threshold", "theory.threshold", None),
    ("lssvmlim.theory", "error_rates", "theory.threshold", None),
    ("lssvmlim.experiments", "error_rates", "theory.threshold", None),
    ("lssvmlim.experiments", "random_equivalent", "theory.equivalent", None),
    ("lssvmlim.experiments", "empirical_error", "experiments.trial", None),
)


def _owner(path):
    module, _, cls = path.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, cls) if cls else obj


class Tracer:
    """Collects spans in memory; one tracer per traced process."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name, **attrs):
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        record = Span(name, self.clock(), parent=parent, attrs=attrs)
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield record
        finally:
            record.end = self.clock()
            self._stack.pop()

    def wrap(self, name, fn, attrs=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name, **(attrs(args, kwargs) if attrs else {})):
                return fn(*args, **kwargs)

        return traced

    @contextlib.contextmanager
    def patched(self, targets=TARGETS):
        """Replace every target by a traced wrapper; restore on exit."""
        saved = []
        try:
            for path, attr, name, attrs in targets:
                owner = _owner(path)
                raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
                saved.append((owner, attr, raw))
                if isinstance(raw, classmethod):
                    setattr(owner, attr, classmethod(self.wrap(name, raw.__func__, attrs)))
                else:
                    setattr(owner, attr, self.wrap(name, raw, attrs))
            yield self
        finally:
            for owner, attr, raw in reversed(saved):
                setattr(owner, attr, raw)

    # -- reduction -------------------------------------------------------

    def children(self, index):
        return [i for i, s in enumerate(self.spans) if s.parent == index]

    def self_time(self, index):
        """Span duration minus the part of it covered by its child spans.

        Spans of one thread nest, so the covered part is the sum of the
        direct children's durations."""
        return self.spans[index].duration - sum(
            self.spans[i].duration for i in self.children(index)
        )

    def descendants(self, index):
        out, frontier = [], [index]
        while frontier:
            kids = [i for i in range(len(self.spans)) if self.spans[i].parent in frontier]
            out.extend(kids)
            frontier = kids
        return sorted(out)

    def roots(self, name):
        return [i for i, s in enumerate(self.spans) if s.parent is None and s.name == name]


def layer_of(name):
    return name.split(".", 1)[0]


def tail(values, beyond=10):
    """Highest order statistic with at least ``beyond`` samples above it, as
    ``(value, percentile)``.  With ``beyond`` samples or fewer no order
    statistic qualifies, and the maximum is returned at percentile 100."""
    ordered = sorted(values)
    if len(ordered) <= beyond:
        return ordered[-1], 100.0
    k = len(ordered) - beyond - 1
    return ordered[k], 100.0 * k / (len(ordered) - 1)


def wrapper_cost(samples=20000):
    """Seconds a traced wrapper adds to one call, from a wrapped no-op."""
    tracer = Tracer()
    noop = tracer.wrap("noop", lambda: None)
    bare = lambda: None  # noqa: E731

    def loop(fn):
        t0 = time.perf_counter()
        for _ in range(samples):
            fn()
        return time.perf_counter() - t0

    return max(0.0, (min(loop(noop) for _ in range(3)) - min(loop(bare) for _ in range(3))) / samples)


# per-call time and self time of each kind of root span
ROOT_KEYS = {
    "experiments.run": ("experiments.run_s", "experiments.self_s"),
    "cli.main": ("cli.main_s", "cli.main_self_s"),
}


def layer_metrics(tracer, run_name):
    """Per-layer figures from the spans under each root span ``run_name``
    (one root per public call).  Summed quantities are taken per public
    call and reported as the median over calls."""
    spans = tracer.spans
    per_run, timed = [], []
    for r in tracer.roots(run_name):
        sums, calls = {}, {}
        below = tracer.descendants(r)
        timed.extend(below)
        for i in below:
            s = spans[i]
            sums[s.name] = sums.get(s.name, 0.0) + s.duration
            calls[layer_of(s.name)] = calls.get(layer_of(s.name), 0) + 1
            for key, value in _computed(s).items():
                sums[key] = sums.get(key, 0.0) + value
        fit_self = sum(tracer.self_time(i) for i in below if spans[i].name == "lssvm.fit")
        per_run.append(
            {"sums": sums, "calls": calls, "self": tracer.self_time(r), "fit_self": fit_self,
             "total": spans[r].duration}
        )

    def med(fn):
        return statistics.median(fn(x) for x in per_run) if per_run else 0.0

    def total(name):
        return med(lambda x: x["sums"].get(name, 0.0))

    # the first build of the process falls in the untimed warm-up call; the
    # other figures come from timed calls only
    builds = [s for s in spans if s.name == "mixture.build"]
    grams = [spans[i] for i in timed if spans[i].name == "kernels.gram"]
    trains = [spans[i] for i in timed if spans[i].name == "lssvm.train"]
    trials = [i for i in timed if spans[i].name == "experiments.trial"]
    trial_times = [spans[i].duration for i in trials]
    covered = 0.0
    for i in trials:
        covered += sum(
            spans[j].duration
            for j in tracer.descendants(i)
            if spans[j].name in ("mixture.sample", "kernels.gram", "lssvm.train", "lssvm.decide")
        )
    trial_tail, trial_tail_pct = tail(trial_times) if trial_times else (0.0, 0.0)
    out = {
        "mixture.build_s": total("mixture.build"),
        "mixture.build_first_s": builds[0].duration if builds else 0.0,
        "mixture.sample_s": total("mixture.sample"),
        "mixture.sample_gflop_computed": total("computed.sample_flop") / 1e9,
        "kernels.gram_s": total("kernels.gram"),
        "kernels.gram_ns_per_entry": (
            statistics.median(s.duration / s.attrs["n"] ** 2 * 1e9 for s in grams) if grams else 0.0
        ),
        "kernels.gram_gflop_computed": total("computed.gram_flop") / 1e9,
        "kernels.gram_out_mib_computed": total("computed.gram_bytes") / 2**20,
        "kernels.vector_s": total("kernels.vector"),
        "lssvm.train_s": total("lssvm.train"),
        "lssvm.train_gflop_computed": total("computed.lu_flop") / 1e9,
        "lssvm.train_gflops_computed": (
            statistics.median(_lu_flop(s.attrs["n"]) / s.duration / 1e9 for s in trains)
            if trains else 0.0
        ),
        "lssvm.fit_self_s": med(lambda x: x["fit_self"]),
        "lssvm.decide_s": total("lssvm.decide"),
        "theory.stats_s": total("theory.stats"),
        "theory.threshold_s": total("theory.threshold"),
        "theory.equivalent_s": total("theory.equivalent"),
        "experiments.trial_s_p50": statistics.median(trial_times) if trial_times else 0.0,
        "experiments.trial_s_tail": trial_tail,
        "experiments.trial_tail_pct": trial_tail_pct,
        "experiments.trial_spans": len(trial_times),
        "experiments.trial_coverage": covered / sum(trial_times) if trial_times else 0.0,
    }
    total_key, self_key = ROOT_KEYS[run_name]
    out[total_key] = med(lambda x: x["total"])
    out[self_key] = med(lambda x: x["self"])
    for layer in ("mixture", "kernels", "lssvm", "theory", "experiments"):
        out[f"{layer}.calls"] = med(lambda x, layer=layer: x["calls"].get(layer, 0))
    return out


def _lu_flop(n):
    return 2.0 * n**3 / 3.0


def _computed(span):
    """Operation counts computed from call sizes, not from hardware counters."""
    a = span.attrs
    if span.name == "kernels.gram":
        return {"computed.gram_flop": 2.0 * a["n"] ** 2 * a["p"], "computed.gram_bytes": 8.0 * a["n"] ** 2}
    if span.name == "lssvm.train":
        return {"computed.lu_flop": _lu_flop(a["n"])}
    if span.name == "mixture.sample":
        return {"computed.sample_flop": 2.0 * a["p"] ** 2 * a["n"]}
    return {}
