"""Command-line interface.

Subcommands: predict, sweep, histogram, convergence, estimate-tau,
mnist-stats.  Config files are JSON (TOML accepted when the interpreter
ships tomllib); keys are documented in the README.

Exit codes: 0 success, 1 usage error, 2 data error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import experiments, mnist, theory
from .errors import (
    BadMagic,
    ClassMissing,
    CountMismatch,
    DegenerateStats,
    EigFailure,
    LssvmError,
    SingularSystem,
    TruncatedFile,
)
from .mixture import mix64, model_from_spec

_DATA_ERRORS = (BadMagic, TruncatedFile, CountMismatch, ClassMissing, OSError)
_NUMERIC_ERRORS = (SingularSystem, EigFailure, DegenerateStats, np.linalg.LinAlgError)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _load_config(path):
    text = Path(path).read_bytes()
    if str(path).endswith(".toml"):
        try:
            import tomllib
        except ModuleNotFoundError as exc:
            raise ValueError("TOML configs need Python >= 3.11; use JSON") from exc
        return tomllib.loads(text.decode())
    return json.loads(text)


def _emit(obj, args):
    out = json.dumps(obj, indent=2)
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
    model = model_from_spec(config.model_spec)
    profile = experiments.resolve_kernel(config.kernel_spec, model)
    stats = theory.gaussian_stats(model, config.n, config.gamma, profile, config.convention)
    rule = config.threshold_rule
    _emit(dict(stats.as_dict(), threshold_rule=rule, **experiments.at_threshold(stats, rule)), args)
    return 0


def cmd_sweep(args):
    result = experiments.run_sweep(_config(args, _load_config(args.config)))
    # CSV is the default file output; --full implies the JSON mirror
    fmt = args.format or ("json" if args.full or not args.out else "csv")
    if fmt == "json":
        _emit(result.to_json(full=args.full), args)
    else:
        result.to_csv(args.out)
    return 0


def cmd_histogram(args):
    config = _config(args, _load_config(args.config))
    model = model_from_spec(config.model_spec)
    result = experiments.run_histogram(
        model, config.n, config.gamma, experiments.resolve_kernel(config.kernel_spec, model),
        config.convention, config.n_test, config.trials, config.base_seed,
    )
    out = result.summary()
    if args.full:
        out["scores1"] = result.scores1.tolist()
        out["scores2"] = result.scores2.tolist()
    _emit(out, args)
    return 0


def cmd_convergence(args):
    config = _config(args, _load_config(args.config))
    if config.convention != "standard":
        raise ValueError("convergence needs convention 'standard': its equivalent is for +-1 labels")
    if not config.sizes:
        raise ValueError("convergence needs sizes: [[n, p], ...]")
    rows = experiments.run_convergence(
        lambda p: model_from_spec(config.model_spec, p=p),
        config.gamma,
        lambda model: experiments.resolve_kernel(config.kernel_spec, model),
        config.sizes,
        config.trials,
        config.base_seed,
        n_points=config.n_points,
    )
    _emit([asdict(r) for r in rows], args)
    return 0


def cmd_estimate_tau(args):
    path = Path(args.data)
    X = np.load(path) if path.suffix == ".npy" else np.loadtxt(path, delimiter=",")
    _emit({"tau": theory.estimate_tau(X), "p": X.shape[0], "n": X.shape[1]}, args)
    return 0


def cmd_mnist_stats(args):
    # the model comes from the images; the flags are checked as config keys
    config = _config(args, {
        "model": {}, "kernel": {"kind": "gaussian", "sigma2": args.sigma2},
        "n": args.n, "n_test": args.n_test, "gamma": args.gamma, "trials": 10,
    })
    data = mnist.load_idx(args.images, args.labels)
    if args.snr_db is not None:
        data = mnist.add_white_noise(data, args.snr_db, mix64(config.base_seed, 99))
    model = mnist.class_stats(data, args.digit_a, args.digit_b)
    profile = experiments.resolve_kernel(config.kernel_spec, model)
    stats = theory.gaussian_stats(model, config.n, config.gamma, profile)
    predicted = experiments.at_threshold(stats, config.threshold_rule)

    mask = (data.labels == args.digit_a) | (data.labels == args.digit_b)
    pool_x = data.images[:, mask]
    pool_y = np.where(data.labels[mask] == args.digit_a, -1.0, 1.0)
    n1 = config.n // 2
    m1 = config.n_test // 2
    errs = [
        experiments.empirical_error_pool(
            pool_x, pool_y, n1, config.n - n1, m1, config.n_test - m1,
            config.gamma, profile, predicted["threshold"], mix64(config.base_seed, t),
        )[2]
        for t in range(config.trials)
    ]
    triples = {
        name: mnist.discrepancy_stats(
            mnist.class_stats(mnist.apply_scaling(data, name), args.digit_a, args.digit_b)
        )
        for name in mnist.CANDIDATE_SCALINGS
    }
    out = {
        "digits": [args.digit_a, args.digit_b],
        "counts": [int((data.labels == args.digit_a).sum()), int((data.labels == args.digit_b).sum())],
        "discrepancy_by_scaling": {k: list(v) for k, v in triples.items()},
        "theory": dict(stats.as_dict(), **predicted),
        "empirical_weighted_error": float(np.mean(errs)),
        "empirical_se": float(np.std(errs, ddof=1) / np.sqrt(len(errs))) if len(errs) > 1 else None,
        "trials": config.trials,
    }
    _emit(out, args)
    return 0


# every option a subcommand may take; each subcommand adds only those it honours
_OPTIONS = {
    "--config": dict(required=True, help="JSON config file"),
    "--out": dict(help="output path (default: stdout)"),
    "--format": dict(choices=["csv", "json"], help="output format"),
    "--seed": dict(type=int, help="override base seed"),
    "--trials": dict(type=int, help="override trial count"),
    "--threshold": dict(choices=list(experiments.THRESHOLD_RULES), help="threshold rule"),
}


def build_parser():
    parser = _Parser(prog="lssvmlim", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def options(p, *names):
        for name in names:
            p.add_argument(name, **_OPTIONS[name])

    p = sub.add_parser("predict", help="asymptotic prediction from a model config")
    options(p, "--config", "--out", "--threshold")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("sweep", help="empirical vs predicted error over a parameter grid")
    options(p, "--config", "--out", "--format", "--seed", "--trials", "--threshold")
    p.add_argument("--full", action="store_true", help="include per-trial records (JSON)")
    p.set_defaults(func=cmd_sweep, usage_error=p.error)

    p = sub.add_parser("histogram", help="pooled score samples with Gaussian overlay")
    options(p, "--config", "--out", "--seed", "--trials")
    p.add_argument("--full", action="store_true", help="include raw scores")
    p.set_defaults(func=cmd_histogram)

    p = sub.add_parser("convergence", help="score-equivalent convergence study")
    options(p, "--config", "--out", "--seed", "--trials")
    p.set_defaults(func=cmd_convergence)

    p = sub.add_parser("estimate-tau", help="distance concentration point of a data file")
    p.add_argument("data", help=".npy (p x n) or comma-separated text matrix")
    options(p, "--out")
    p.set_defaults(func=cmd_estimate_tau)

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
    p.set_defaults(func=cmd_mnist_stats)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "format", None) == "csv" and not args.out:
            args.usage_error("--format csv requires --out")
    except SystemExit as exc:
        return exc.code if exc.code is not None else 0
    try:
        return args.func(args)
    except _DATA_ERRORS as exc:
        print(f"lssvmlim: data error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, KeyError, json.JSONDecodeError) as exc:
        print(f"lssvmlim: invalid input: {exc}", file=sys.stderr)
        return 2
    except _NUMERIC_ERRORS as exc:
        print(f"lssvmlim: numerical failure: {exc}", file=sys.stderr)
        return 3
    except LssvmError as exc:
        print(f"lssvmlim: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
