"""lssvmlim benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload tall_rbf --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` runs the
workload untraced, traced, and traced again with ``OPENBLAS_NUM_THREADS=1``
set on that child process only, and reports the per-layer metrics.  Every
workload process is a fresh interpreter started from here, one at a time.
The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it give the run manifest and
every metric by name with its unit.  Exit code 0 when every output check
passed, 1 when one failed, 2 when the checkout lacks the package or its
configs, 3 when a workload process failed or ran out of time.

``python3 perfbench/run.py --record-references`` rewrites
``perfbench/references.json`` from the package in ``src/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from spans import tail  # noqa: E402
from workloads import REFERENCES, WORKLOADS, record_references  # noqa: E402

DEADLINE_S = 170.0          # the whole run, children included
PROBES = 3                  # samples of bare and importing interpreter start

END_TO_END = {
    "trials_per_s": "trials/s",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
}

# per-layer metrics of the traced run; the "_1t" ones come from the
# single-thread repeat
PER_LAYER = {
    "mixture.build_s": "s",
    "mixture.build_first_s": "s",
    "mixture.sample_s": "s",
    "mixture.sample_gflop_computed": "GFLOP",
    "mixture.calls": "count",
    "kernels.gram_s": "s",
    "kernels.gram_ns_per_entry": "ns",
    "kernels.gram_gflop_computed": "GFLOP",
    "kernels.gram_out_mib_computed": "MiB",
    "kernels.vector_s": "s",
    "kernels.calls": "count",
    "lssvm.train_s": "s",
    "lssvm.train_gflop_computed": "GFLOP",
    "lssvm.train_gflops_computed": "GFLOP/s",
    "lssvm.fit_self_s": "s",
    "lssvm.decide_s": "s",
    "lssvm.calls": "count",
    "theory.stats_s": "s",
    "theory.threshold_s": "s",
    "theory.equivalent_s": "s",
    "theory.calls": "count",
    "experiments.run_s": "s",
    "experiments.self_s": "s",
    "experiments.trial_s_p50": "s",
    "experiments.trial_s_tail": "s",
    "experiments.trial_tail_pct": "%",
    "experiments.trial_spans": "count",
    "experiments.trial_coverage": "ratio",
    "experiments.calls": "count",
    "cli.interp_s": "s",
    "cli.import_s": "s",
    "cli.main_s": "s",
    "cli.main_self_s": "s",
    "cli.predict_s": "s",
    "cli.predict_tail_s": "s",
    "cli.predict_tail_pct": "%",
    "cli.predict_samples": "count",
    "trace.trials_per_s": "trials/s",
    "trace.overhead_ratio": "ratio",
    "trace.wrapper_s": "s",
    "blas.threads": "count",
    "mixture.build_s_1t": "s",
    "mixture.sample_s_1t": "s",
    "kernels.gram_s_1t": "s",
    "lssvm.train_s_1t": "s",
    "lssvm.decide_s_1t": "s",
    "theory.equivalent_s_1t": "s",
    "experiments.run_s_1t": "s",
    "cli.main_s_1t": "s",
    "trace.trials_per_s_1t": "trials/s",
    "blas.threads_1t": "count",
}
SINGLE_THREAD = [name[:-3] for name in PER_LAYER if name.endswith("_1t")]


class ChildFailed(RuntimeError):
    pass


class Runner:
    """Starts workload processes one at a time against one deadline."""

    def __init__(self, root, workload, seed, workdir, deadline):
        self.root = root
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.deadline = deadline

    def _wait(self, cmd, env=None):
        """Run ``cmd`` from the checkout root; its stdout, or ChildFailed."""
        proc = subprocess.Popen(
            cmd, cwd=self.root, env=env, stdout=subprocess.PIPE, text=True, start_new_session=True
        )
        try:
            out, _ = proc.communicate(timeout=max(1.0, self.deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise ChildFailed(f"{' '.join(cmd[:4])} ran past the deadline") from None
        finally:
            if proc.poll() is None:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
        if proc.returncode != 0:
            raise ChildFailed(f"{' '.join(cmd[:4])} exited with {proc.returncode}")
        return out

    def child(self, seconds, traced=False, calls_only=False, env=None):
        cmd = [
            sys.executable, str(HERE / "child.py"),
            "--workload", self.workload.name, "--seed", str(self.seed),
            "--seconds", repr(seconds), "--workdir", str(self.workdir),
        ]
        if traced:
            cmd.append("--traced")
        if calls_only:
            cmd.append("--calls-only")
        cmd += ["--spawned-at", repr(time.monotonic())]
        return json.loads(self._wait(cmd, env).strip().splitlines()[-1])

    def interpreter_start(self, code):
        """Median wall time of a fresh ``python -c code`` in the checkout."""
        env = dict(os.environ, PYTHONPATH=str(self.root / "src"))
        times = []
        for _ in range(PROBES):
            t0 = time.perf_counter()
            self._wait([sys.executable, "-c", code], env)
            times.append(time.perf_counter() - t0)
        return statistics.median(times)


def rate(calls):
    """Trials completed ÷ wall time of the public calls that ran them."""
    return sum(c["trials"] for c in calls) / sum(c["seconds"] for c in calls)


def tally(report):
    """(attempted, failed) operations of one workload process: trials,
    fresh `predict` processes and output checks."""
    calls = [report["warmup"], *report["calls"]]
    attempted = sum(c["trials"] for c in calls) + len(report["cli"]) + report["checks"]["attempted"]
    failed = (
        sum(c["failed"] for c in calls)
        + sum(1 for c in report["cli"] if c["code"] != 0)
        + report["checks"]["failed"]
    )
    return attempted, failed


def end_to_end(runner, seconds):
    report = runner.child(seconds)
    values = {
        "trials_per_s": rate(report["calls"]),
        "setup_s": statistics.median(report["setups"]),
        "peak_rss_mib": report["peak_rss_mib"],
    }
    return values, END_TO_END, [report]


def per_layer(runner, seconds):
    values = {name: 0.0 for name in PER_LAYER}  # a layer the workload never calls stays 0
    interp = runner.interpreter_start("pass")
    values["cli.interp_s"] = interp
    values["cli.import_s"] = runner.interpreter_start("import lssvmlim") - interp

    plain = runner.child(seconds)
    traced = runner.child(seconds / 2, traced=True, calls_only=True)
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    single = runner.child(seconds / 2, traced=True, calls_only=True, env=env)

    values.update(traced["layers"])
    for name in SINGLE_THREAD:
        if name in single["layers"]:
            values[name + "_1t"] = single["layers"][name]
    cli_times = [c["seconds"] for c in plain["cli"]]
    if cli_times:
        values["cli.predict_s"] = statistics.median(cli_times)
        values["cli.predict_tail_s"], values["cli.predict_tail_pct"] = tail(cli_times)
        values["cli.predict_samples"] = len(cli_times)
    values["trace.trials_per_s"] = rate(traced["calls"])
    values["trace.trials_per_s_1t"] = rate(single["calls"])
    values["trace.overhead_ratio"] = rate(plain["calls"]) / values["trace.trials_per_s"] - 1.0
    values["blas.threads"] = max(traced["manifest"]["blas_threads"].values(), default=0)
    values["blas.threads_1t"] = max(single["manifest"]["blas_threads"].values(), default=0)
    return {k: values[k] for k in PER_LAYER}, PER_LAYER, [plain, traced, single]


def git_commit(root):
    if not (root / ".git").exists():
        return "unknown (not a git checkout)"
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True)
    return proc.stdout.strip() or "unknown"


def main(argv=None):
    ap = argparse.ArgumentParser(description="lssvmlim benchmark")
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--record-references", action="store_true")
    args = ap.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    root = Path.cwd()
    missing = [p for p in ["src/lssvmlim/__init__.py", *(w.config for w in WORKLOADS.values())]
               if not (root / p).is_file()]
    if missing:
        print(f"perfbench: not a checkout of lssvmlim, missing {', '.join(missing)}", file=sys.stderr)
        return 2
    workdir = root / ".bench_build" / "perfbench" / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if args.record_references:
            sys.path.insert(0, str(root / "src"))
            REFERENCES.write_text(json.dumps(record_references(root, workdir), indent=1) + "\n")
            print(f"wrote {REFERENCES}")
            return 0
        if args.workload is None:
            ap.error("--workload is required")
        runner = Runner(root, WORKLOADS[args.workload], args.seed, workdir, deadline)
        measure = per_layer if args.trace else end_to_end
        try:
            values, units, reports = measure(runner, args.seconds)
        except ChildFailed as exc:
            print(f"perfbench: {exc}", file=sys.stderr)
            return 3
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted, failed = map(sum, zip(*(tally(r) for r in reports)))
    manifest = dict(reports[0]["manifest"], traced=bool(args.trace), git_commit=git_commit(root))
    print("manifest " + json.dumps(manifest, sort_keys=True))
    for report in reports:
        for message in report["checks"]["messages"]:
            print(f"check failed: {message}")
    for name, unit in units.items():
        print(f"{args.workload:12s} {name:34s} {values[name]:.6g} {unit}")
    print(f"{args.workload:12s} {'failed_ratio':34s} {failed / attempted:.6g} ratio ({failed}/{attempted})")
    cli_times = [c["seconds"] for c in reports[0]["cli"]]
    if cli_times and not args.trace:
        value, pct = tail(cli_times)
        print(f"{args.workload:12s} {'cli_predict_s':34s} {statistics.median(cli_times):.6g} s"
              f" (median; p{pct:.0f} {value:.6g} s; {len(cli_times)} samples)")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
