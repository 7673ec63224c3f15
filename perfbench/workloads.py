"""Workload definitions: generated configs, the timed public calls, and the
checks of their outputs against references recorded from the package.

Every workload starts from a shipped file under ``configs/``.  The benchmark
seed reaches the program only through the generated config: public call k
of a run gets ``base_seed = mix64(seed, k)``.  One extra call per run, the
warm-up, uses the shipped config's own ``base_seed``; its outputs are the
ones compared with ``references.json``.

Importing this module imports nothing from the package under test, so the
set-up time of a workload process covers that import.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
REFERENCES = HERE / "references.json"

TH_RTOL = 1e-9      # theory outputs and predict fields
GAP_RTOL = 1e-6     # convergence medians: scores differ in rounding with BLAS threads


@dataclass(frozen=True)
class Workload:
    name: str
    config: str                  # shipped config, relative to the checkout
    kind: str                    # "sweep", "convergence" or "predict"
    overrides: dict = field(default_factory=dict)           # per public call
    calls_per_round: int = 1     # timed calls before each round of fresh processes


# why each workload exists: BENCHMARK.json and README.md
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "tall_rbf",
            "configs/sweep_ratio.json",
            "sweep",
            overrides={"trials": 1, "sweep": {"axis": "c0", "grid": [0.0625]}},
        ),
        Workload(
            "tall_local",
            "configs/sweep_slope.json",
            "sweep",
            overrides={"trials": 1, "sweep": {"axis": "fprime", "grid": [-2.0, -0.5, 1.0]}},
        ),
        Workload(
            "wide_p",
            "configs/convergence.json",
            "convergence",
            overrides={"trials": 8},
        ),
        Workload(
            "predict_cli",
            "configs/sweep_width.json",
            "predict",
            calls_per_round=2,
        ),
    )
}


def merged(base, overrides):
    """``base`` with ``overrides`` applied, recursing into nested dicts."""
    out = dict(base)
    for key, value in overrides.items():
        if isinstance(value, dict) and isinstance(out.get(key), dict):
            out[key] = merged(out[key], value)
        else:
            out[key] = value
    return out


def config_hash(doc):
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()[:16]


def load_base(root, workload):
    return json.loads((Path(root) / workload.config).read_text())


def call_config(workload, base, base_seed):
    """Config of one public call."""
    return merged(base, dict(workload.overrides, base_seed=int(base_seed)))


# -- public calls --------------------------------------------------------


@dataclass
class CallResult:
    trials: int          # trials attempted (predictions, for predict)
    failed: int          # trials recorded under failures, or non-zero exit codes
    outputs: object      # compared with the references


def run_call(workload, doc, config_path=None):
    """One public call of the package on the generated config ``doc``."""
    from lssvmlim import cli, experiments, mixture

    if workload.kind == "sweep":
        config = experiments.config_from_dict(doc)
        result = experiments.run_sweep(config)
        rows = [
            {"value": r.value, "trials": r.trials, "emp_err": r.emp_err,
             "th_weighted": r.th_weighted, "threshold": r.threshold}
            for r in result.rows
        ]
        return CallResult(config.trials * len(config.grid), len(result.failures), rows)
    if workload.kind == "convergence":
        sizes = [tuple(map(int, pair)) for pair in doc["sizes"]]
        trials = int(doc["trials"])
        rows = experiments.run_convergence(
            lambda p: mixture.model_from_spec(doc["model"], p=p),
            float(doc.get("gamma", 1.0)),
            lambda model: experiments.resolve_kernel(doc["kernel"], model),
            sizes,
            trials,
            int(doc["base_seed"]),
            n_points=int(doc.get("n_points", 100)),
        )
        out = [{"n": r.n, "p": r.p, "median_scaled_gap": r.median_scaled_gap, "samples": r.samples}
               for r in rows]
        return CallResult(trials * len(sizes), 0, out)
    if workload.kind == "predict":
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(["predict", "--config", str(config_path)])
        return CallResult(1, int(code != 0), json.loads(buf.getvalue()) if code == 0 else None)
    raise ValueError(f"unknown workload kind: {workload.kind!r}")


# -- output checks -------------------------------------------------------


def _close(a, b, rtol, atol=0.0):
    return isinstance(a, (int, float)) and math.isfinite(a) and abs(a - b) <= atol + rtol * abs(b)


def check_call(workload, doc, outputs, ref):
    """Messages for every output of one call that misses its reference.

    ``ref`` holds the recorded outputs for the warm-up call.  Theory
    outputs do not depend on the seed and are checked on every call;
    seed-dependent outputs are checked exactly only on the warm-up call
    (``doc["base_seed"] == ref["base_seed"]``) and for range elsewhere.
    """
    bad = []
    exact = int(doc["base_seed"]) == int(ref["base_seed"])
    if workload.kind == "sweep":
        want = {float(r["value"]): r for r in ref["rows"]}
        one_point = 1.0 / int(doc["n_test"])
        for row in outputs:
            r = want.get(float(row["value"]))
            if r is None:
                bad.append(f"sweep value {row['value']} has no reference")
                continue
            for key in ("th_weighted", "threshold"):
                if not _close(row[key], r[key], TH_RTOL, 1e-15):
                    bad.append(f"{key} at {row['value']}: {row[key]!r} != {r[key]!r}")
            if row["trials"] != int(doc["trials"]):
                bad.append(f"{row['trials']} trials completed at {row['value']}")
            if not 0.0 <= row["emp_err"] <= 1.0:
                bad.append(f"emp_err {row['emp_err']!r} out of range at {row['value']}")
            elif exact and abs(row["emp_err"] - r["emp_err"]) > one_point + 1e-12:
                bad.append(f"emp_err at {row['value']}: {row['emp_err']!r} != {r['emp_err']!r}")
    elif workload.kind == "convergence":
        if [(o["n"], o["p"]) for o in outputs] != [(r["n"], r["p"]) for r in ref["rows"]]:
            bad.append("convergence sizes differ from the reference")
        for o, r in zip(outputs, ref["rows"]):
            if o["samples"] != int(doc["trials"]) * int(doc.get("n_points", 100)):
                bad.append(f"{o['samples']} gap samples at n={o['n']}")
            gap = o["median_scaled_gap"]
            if not (math.isfinite(gap) and gap > 0):
                bad.append(f"median_scaled_gap {gap!r} at n={o['n']}")
            elif exact and not _close(gap, r["median_scaled_gap"], GAP_RTOL):
                bad.append(f"median_scaled_gap at n={o['n']}: {gap!r} != {r['median_scaled_gap']!r}")
    else:
        bad.extend(check_predict(outputs, ref["predict"]))
    return bad


def check_predict(got, want):
    """Messages for every `lssvmlim predict` JSON field that misses ``want``."""
    if not isinstance(got, dict):
        return ["predict produced no JSON object"]
    bad = []
    for key, value in want.items():
        if key not in got:
            bad.append(f"predict field {key} missing")
        elif not _same_field(got[key], value):
            bad.append(f"predict {key}: {got[key]!r} != {value!r}")
    return bad


def _same_field(got, want):
    if isinstance(want, list):
        return isinstance(got, list) and len(got) == len(want) and all(map(_same_field, got, want))
    if isinstance(want, (int, float)) and not isinstance(want, bool):
        return _close(got, want, TH_RTOL, 1e-15)
    return got == want


def load_references():
    return json.loads(REFERENCES.read_text())


def record_references(root, workdir):
    """Outputs of every workload's warm-up call, from the package in
    ``root/src``."""
    refs = {}
    for workload in WORKLOADS.values():
        base = load_base(root, workload)
        doc = call_config(workload, base, base["base_seed"])
        path = Path(workdir) / f"{workload.name}.json"
        path.write_text(json.dumps(doc))
        result = run_call(workload, doc, path)
        if result.failed:
            raise RuntimeError(f"{result.failed} failed trials on {workload.name}")
        key = "predict" if workload.kind == "predict" else "rows"
        refs[workload.name] = {"base_seed": int(base["base_seed"]), key: result.outputs}
    return refs
