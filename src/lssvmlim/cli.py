"""Command-line interface.

Subcommands: predict, sweep, histogram, convergence, estimate-tau,
mnist-stats.  Config files are JSON, with keys documented in the README;
a run started from one trains on -1/+1 labels.

Exit codes: 0 success; 1 usage error; 2 on ``DataError`` or ``OSError``
("data error") and on ``ValueError``, ``KeyError`` or ``MemoryError``, a size
too large to allocate ("invalid input"); 3 on ``NumericalFailure`` or
``numpy.linalg.LinAlgError`` ("numerical failure"), and from ``sweep`` when a
grid point has no completed trial, after its output is written.  Each failure
prints one line on stderr.

``main(argv)`` may be called repeatedly in one process: it builds its parser
once, on the first call, and finds each subcommand's handler by name when
called.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import re
import sys
import warnings
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import experiments, kernels, mnist, theory
from .errors import DataError, NumericalFailure
from .mixture import load_npy, mix64, model_from_spec


class _Parser(argparse.ArgumentParser):
    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        # a number float() reads, -inf and -1e308 included, is the value of the option
        # before it, not an option: argparse's own pattern takes plain negative decimals only
        self._negative_number_matcher = re.compile(r"-(\d|\.\d|inf(inity)?$|nan$)", re.I)

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _load_config(path):
    return json.loads(Path(path).read_bytes())


def _finite(obj):
    """``obj`` with every float that is not finite, inside dicts, lists and
    tuples, replaced by ``None``."""
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if isinstance(obj, dict):
        return {k: _finite(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_finite(v) for v in obj]
    return obj


def _emit(obj, args):
    """Write ``obj`` as JSON to ``--out`` or stdout: the one JSON writer.
    JSON has no NaN or infinity, so a statistic that cannot be computed,
    which the library returns as NaN, is written as ``null``."""
    out = json.dumps(_finite(obj), indent=2)
    if getattr(args, "out", None):
        Path(args.out).write_text(out + "\n")
        return
    try:
        print(out, flush=True)
    except BrokenPipeError:
        # the reader closed early (``... | head``): stop quietly, and point
        # stdout at devnull so the flush at interpreter exit cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def _config(args, doc):
    """``doc`` with the command-line overrides the subcommand takes applied,
    parsed and checked."""
    flags = {"base_seed": "seed", "trials": "trials", "threshold": "threshold"}
    given = {key: getattr(args, flag, None) for key, flag in flags.items()}
    return experiments.config_from_dict(doc, **{k: v for k, v in given.items() if v is not None})


def cmd_predict(args):
    config = _config(args, _load_config(args.config))
    # the counts sweep trains on
    model, profile, _, n1, n2 = experiments.grid_point(config, model_from_spec(config.model))
    stats = theory.gaussian_stats(model.stats, n1, n2, config.gamma, profile)
    rule = config.threshold
    _emit(dict(stats.as_dict(), threshold_rule=rule, **experiments.at_threshold(stats, rule)), args)
    return 0


def cmd_sweep(args):
    result = experiments.run_sweep(_config(args, _load_config(args.config)))
    # a file is CSV unless --full asks for the trials or its name ends in .json
    if args.out and not args.full and not args.out.endswith(".json"):
        result.to_csv(args.out)
    else:
        _emit(result.to_json(full=args.full), args)
    for row in result.rows:
        if row.trials == 0:  # a sweep without an axis has one row, value NaN
            first = next(f for f in result.failures if f["value"] == row.value or row.axis == "none")
            raise NumericalFailure(f"no trial completed at {row.axis} = {row.value} "
                                   f"(first failure: {first['error']})")
    return 0


def cmd_histogram(args):
    config = _config(args, _load_config(args.config))
    model, profile, n, _, _ = experiments.grid_point(config, model_from_spec(config.model))
    out = experiments.run_histogram(
        model, n, config.gamma, profile, config.n_test, config.trials, config.base_seed
    )
    for key in ("scores1", "scores2"):  # the raw scores go last, as lists, or not at all
        scores = out.pop(key)
        if args.full:
            out[key] = scores.tolist()
    _emit(out, args)
    return 0


def cmd_convergence(args):
    config = _config(args, _load_config(args.config))
    if not config.sizes:
        raise ValueError("convergence needs sizes: [[n, p], ...]")
    rows = experiments.run_convergence(
        lambda p: model_from_spec(config.model, p=p),
        config.gamma,
        lambda model: experiments.resolve_kernel(config.kernel, model),
        config.sizes,
        config.trials,
        config.base_seed,
        n_points=config.n_points,
    )
    _emit([asdict(r) for r in rows], args)
    return 0


def cmd_estimate_tau(args):
    path = Path(args.data)
    with path.open("rb") as f:  # by content, whatever the name: NumPy's magic or a zip header
        npy = f.read(6).startswith((b"\x93NUMPY", b"PK"))
    with warnings.catch_warnings():  # an empty file is reported below, in one line
        warnings.filterwarnings("ignore", "loadtxt: input contained no data")
        X = load_npy(path, "data") if npy else np.loadtxt(path, delimiter=",", ndmin=2)
    _emit({"tau": theory.estimate_tau(X), "p": X.shape[0], "n": X.shape[1]}, args)
    return 0


def cmd_mnist_stats(args):
    # the model comes from the images; the flags are checked as config keys
    config = _config(args, {
        "model": {}, "kernel": {"kind": "gaussian", "sigma2": args.sigma2},
        "n": args.n, "n_test": args.n_test, "gamma": args.gamma, "trials": 10,
    })
    profile = kernels.kernel_from_spec(config.kernel)  # before any image is read
    X, y = mnist.load_idx(args.images, args.labels, args.digit_a, args.digit_b)
    if not X.any():  # the mean and rms scalings divide by the mean pixel
        raise DataError(f"every image of digits {args.digit_a} and {args.digit_b} is black")
    if args.snr_db is not None:  # from a stream that no trial index reaches
        mnist.add_white_noise(X, args.snr_db, mix64(config.base_seed, -1))
    mixture = mnist.class_stats(X, y)
    n1, n2 = experiments.class_split(config.n, 0.5)
    stats = theory.gaussian_stats(mixture, n1, n2, config.gamma, profile)
    predicted = experiments.at_threshold(stats, config.threshold)
    mean, se = experiments.mean_se(experiments._run_trials(
        lambda seed: experiments.empirical_error((X, y), n1, n2, config.n_test, config.gamma,
                                                 profile, predicted["threshold"], seed)[2],
        [mix64(config.base_seed, t) for t in range(config.trials)]).values())
    out = {
        "digits": [args.digit_a, args.digit_b],
        "counts": [int((y < 0).sum()), int((y > 0).sum())],
        "discrepancy_by_scaling": mnist.discrepancy_by_scaling(X, mixture),
        "theory": dict(stats.as_dict(), **predicted),
        "empirical_weighted_error": mean,
        "empirical_se": se,
        "trials": config.trials,
    }
    _emit(out, args)
    return 0


# every option a subcommand may take; each subcommand adds only those it honours
_OPTIONS = {
    "--config": dict(required=True, help="JSON config file"),
    "--out": dict(help="output path (default: stdout)"),
    "--seed": dict(type=int, help="override base seed"),
    "--trials": dict(type=int, help="override trial count"),
    "--threshold": dict(choices=list(experiments.THRESHOLD_RULES), help="threshold rule"),
}


@functools.cache
def build_parser():
    parser = _Parser(prog="lssvmlim", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def options(p, *names):
        for name in names:
            p.add_argument(name, **_OPTIONS[name])

    p = sub.add_parser("predict", help="asymptotic prediction from a model config")
    options(p, "--config", "--out", "--threshold")

    p = sub.add_parser("sweep", help="empirical vs predicted error over a parameter grid")
    options(p, "--config", "--out", "--seed", "--trials", "--threshold")
    p.add_argument("--full", action="store_true", help="include per-trial records (JSON)")

    p = sub.add_parser("histogram", help="pooled score samples with Gaussian overlay")
    options(p, "--config", "--out", "--seed", "--trials")
    p.add_argument("--full", action="store_true", help="include raw scores")

    p = sub.add_parser("convergence", help="score-equivalent convergence study")
    options(p, "--config", "--out", "--seed", "--trials")

    p = sub.add_parser("estimate-tau", help="distance concentration point of a data file")
    p.add_argument("data", help=".npy (p x n) or comma-separated text matrix")
    options(p, "--out")

    p = sub.add_parser("mnist-stats", help="two-digit statistics, prediction, and test error")
    p.add_argument("--images", required=True)
    p.add_argument("--labels", required=True)
    p.add_argument("--digit-a", type=int, default=8)
    p.add_argument("--digit-b", type=int, default=9)
    p.add_argument("--sigma2", type=float, default=1.0)
    p.add_argument("--gamma", type=float, default=1.0)
    p.add_argument("--n", type=int, default=256)
    p.add_argument("--n-test", type=int, default=256)
    p.add_argument("--snr-db", type=float, default=None)
    options(p, "--out", "--seed", "--trials", "--threshold")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else 0
    try:
        # looked up at call time, so a handler replaced in the module is the one run
        return globals()["cmd_" + args.command.replace("-", "_")](args)
    except (DataError, OSError) as exc:
        print(f"lssvmlim: data error: {exc}", file=sys.stderr)
        return 2
    except (NumericalFailure, np.linalg.LinAlgError) as exc:  # before ValueError, its base
        print(f"lssvmlim: numerical failure: {exc}", file=sys.stderr)
        return 3
    except (ValueError, KeyError, MemoryError) as exc:  # json.JSONDecodeError is a ValueError
        print(f"lssvmlim: invalid input: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
