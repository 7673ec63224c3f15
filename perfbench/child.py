"""One workload process: set up, run the timed public calls, report JSON.

Run from the root of a checkout by ``run.py``; not meant to be started by
hand.  The package is imported from ``src/`` of the working directory.

Output on stdout is one JSON object.  A set-up time is the time from the
parent's spawn (``--spawned-at``, a ``time.monotonic()`` reading, which is
one system-wide clock on Linux) until inputs are ready: interpreter start,
``import lssvmlim``, config parse and seed derivation.

The window runs in rounds: timed calls, then (on ``predict`` workloads)
fresh ``lssvmlim predict`` processes, then one set-up-only process of its
own.  Every kind of sample is thus spread over the whole window rather than
bunched at one end of it, because the machine's speed drifts within
seconds.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import (
    WORKLOADS,
    call_config,
    check_call,
    check_predict,
    config_hash,
    load_base,
    load_references,
    run_call,
)

MAX_CALLS = 256
MIN_ROUNDS = 4          # rounds of fresh processes per run, at least
CLI_PER_ROUND = 2       # fresh `predict` processes per round, on `predict` workloads
SAMPLE_TIMEOUT_S = 60


def blas_threads():
    """Thread count of each OpenBLAS loaded in this process, by library."""
    found = {}
    with open("/proc/self/maps") as fh:
        paths = {line.split()[-1] for line in fh if "openblas" in line.lower() and "/" in line}
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                found[Path(path).name] = fn()
                break
    return found


def manifest(workload, seed, doc, traced):
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = blas_threads()
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": len(os.sched_getaffinity(0)),
        "workload": workload.name,
        "seed": seed,
        "config": workload.config,
        "config_hash": config_hash(doc),
        "traced": traced,
    }


def cli_sample(path, env):
    """Wall time and exit code of one fresh `lssvmlim predict` process."""
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "lssvmlim.cli", "predict", "--config", str(path)],
        env=env, capture_output=True, text=True, timeout=SAMPLE_TIMEOUT_S,
    )
    seconds = time.perf_counter() - t0
    try:
        out = json.loads(proc.stdout) if proc.returncode == 0 else None
    except json.JSONDecodeError:
        out = None
    return seconds, proc.returncode, out


def setup_sample(args):
    """Set-up time of one fresh set-up-only process."""
    cmd = [sys.executable, __file__, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", "0", "--mode", "setup", "--workdir", args.workdir,
           "--spawned-at", repr(time.monotonic())]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=SAMPLE_TIMEOUT_S, check=True)
    return json.loads(proc.stdout)["setup_s"]


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", choices=["setup", "run"], default="run")
    ap.add_argument("--traced", action="store_true")
    ap.add_argument("--calls-only", action="store_true",
                    help="no fresh `predict` or set-up processes")
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--spawned-at", type=float, required=True)
    args = ap.parse_args(argv)

    # -- set-up: import, config parse, seed derivation ------------------
    src = Path.cwd() / "src"
    sys.path.insert(0, str(src))
    import lssvmlim
    from lssvmlim import cli, experiments, mixture  # noqa: F401 - part of set-up

    if not Path(lssvmlim.__file__).resolve().is_relative_to(src.resolve()):
        raise SystemExit(f"lssvmlim imported from {lssvmlim.__file__}, not from {src}")
    workload = WORKLOADS[args.workload]
    base = load_base(Path.cwd(), workload)
    warm_doc = call_config(workload, base, base["base_seed"])
    docs = [call_config(workload, base, mixture.mix64(args.seed, k)) for k in range(MAX_CALLS)]
    if workload.kind == "sweep":
        experiments.config_from_dict(warm_doc)
    setup_s = time.monotonic() - args.spawned_at
    if args.mode == "setup":
        print(json.dumps({"setup_s": setup_s}))
        return 0

    workdir = Path(args.workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    # `predict` reads its config from a file; the output does not depend on the seed
    config_path = workdir / f"{workload.name}.json"
    config_path.write_text(json.dumps(docs[0]))
    refs = load_references()[workload.name]

    tracer = None
    if args.traced:
        from spans import Tracer

        tracer = Tracer()
    root = "cli.main" if workload.kind == "predict" else "experiments.run"
    checks = {"attempted": 0, "failed": 0, "messages": []}

    def record_checks(messages):
        checks["attempted"] += 1
        if messages:
            checks["failed"] += 1
            checks["messages"].extend(messages[: 5 - len(checks["messages"])])

    def call(doc, span_name):
        if tracer is None:
            t0 = time.perf_counter()
            result = run_call(workload, doc, config_path)
            return time.perf_counter() - t0, result
        with tracer.span(span_name) as span:
            result = run_call(workload, doc, config_path)
        return span.duration, result

    pythonpath = [str(src), *filter(None, [os.environ.get("PYTHONPATH")])]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(pythonpath))
    calls, cli_runs, setups = [], [], [setup_s]
    with tracer.patched() if tracer else contextlib.nullcontext():
        seconds, result = call(warm_doc, "warmup")
        record_checks(check_call(workload, warm_doc, result.outputs, refs))
        warm = {"seconds": seconds, "trials": result.trials, "failed": result.failed}
        start = time.perf_counter()
        for k, doc in enumerate(docs, 1):
            seconds, result = call(doc, root)
            record_checks(check_call(workload, doc, result.outputs, refs))
            calls.append({"seconds": seconds, "trials": result.trials, "failed": result.failed})
            if k % workload.calls_per_round:
                continue
            rounds = k // workload.calls_per_round
            if not args.calls_only:
                for _ in range(CLI_PER_ROUND if workload.kind == "predict" else 0):
                    seconds, code, out = cli_sample(config_path, env)
                    cli_runs.append({"seconds": seconds, "code": code})
                    record_checks(check_predict(out, refs["predict"]))
                setups.append(setup_sample(args))
            enough = args.calls_only or rounds >= MIN_ROUNDS
            if enough and time.perf_counter() - start >= args.seconds:
                break

    # on `predict` workloads the largest child is a `predict` process
    usage = resource.RUSAGE_CHILDREN if cli_runs else resource.RUSAGE_SELF
    report = {
        "setups": setups,
        "warmup": warm,
        "calls": calls,
        "cli": cli_runs,
        "checks": checks,
        "peak_rss_mib": resource.getrusage(usage).ru_maxrss / 1024.0,
        "manifest": manifest(workload, args.seed, docs[0], args.traced),
    }
    if tracer is not None:
        from spans import layer_metrics, wrapper_cost

        layers = layer_metrics(tracer, root)
        per_call = statistics.median(len(tracer.descendants(r)) for r in tracer.roots(root))
        layers["trace.wrapper_s"] = wrapper_cost() * per_call
        report["layers"] = layers
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
