"""Smoke tests of the benchmark itself, at tiny sizes.

    PYTHONPATH=src python -m pytest -q perfbench
"""

import copy
import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
from spans import Tracer, layer_metrics, tail  # noqa: E402
from workloads import (  # noqa: E402
    WORKLOADS,
    call_config,
    check_call,
    load_base,
    merged,
    run_call,
)

TINY = {
    "tall_rbf": {"model": {"p": 32}, "n_test": 64, "sweep": {"grid": [0.25]}},
    "tall_local": {"model": {"p": 32}, "n": 128, "n_test": 64},
    "wide_p": {"sizes": [[32, 64]], "trials": 2, "n_points": 20},
    "predict_cli": {"model": {"p": 32}},
}


def tiny_call(name, tmp_path, seed=7):
    workload = WORKLOADS[name]
    doc = merged(call_config(workload, load_base(ROOT, workload), seed), TINY[name])
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return workload, doc, path


def reference_from(workload, doc, outputs):
    key = "predict" if workload.kind == "predict" else "rows"
    return {"base_seed": doc["base_seed"], key: copy.deepcopy(outputs)}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_runs_and_checks_at_tiny_size(name, tmp_path):
    workload, doc, path = tiny_call(name, tmp_path)
    first = run_call(workload, doc, path)
    assert first.trials >= 1 and first.failed == 0
    ref = reference_from(workload, doc, first.outputs)
    # the same seed gives the same outputs, so a repeat meets the reference
    again = run_call(workload, doc, path)
    assert check_call(workload, doc, again.outputs, ref) == []


PERTURB = {
    "tall_rbf": lambda ref: ref["rows"][0].update(th_weighted=ref["rows"][0]["th_weighted"] * (1 + 1e-6)),
    "tall_local": lambda ref: ref["rows"][0].update(emp_err=ref["rows"][0]["emp_err"] + 2 / 64),
    "wide_p": lambda ref: ref["rows"][0].update(
        median_scaled_gap=ref["rows"][0]["median_scaled_gap"] * (1 + 1e-4)
    ),
    "predict_cli": lambda ref: ref["predict"]["V1"].__setitem__(1, ref["predict"]["V1"][1] * (1 + 1e-6)),
}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_perturbed_reference_is_caught(name, tmp_path):
    workload, doc, path = tiny_call(name, tmp_path)
    result = run_call(workload, doc, path)
    ref = reference_from(workload, doc, result.outputs)
    PERTURB[name](ref)
    assert check_call(workload, doc, result.outputs, ref)


def test_threshold_check_runs_on_every_seed(tmp_path):
    workload, doc, path = tiny_call("tall_rbf", tmp_path)
    result = run_call(workload, doc, path)
    ref = reference_from(workload, doc, result.outputs)
    ref["base_seed"] += 1  # not the warm-up call: emp_err is only range-checked
    ref["rows"][0]["emp_err"] = 0.5
    assert check_call(workload, doc, result.outputs, ref) == []
    ref["rows"][0]["threshold"] += 1e-3
    assert check_call(workload, doc, result.outputs, ref)


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_is_span_minus_covered_child_time():
    clock = FakeClock()
    tracer = Tracer(clock)
    with tracer.span("experiments.run"):
        clock.now += 1.0
        with tracer.span("mixture.sample"):
            clock.now += 2.0
        clock.now += 0.5
        with tracer.span("lssvm.fit"):
            clock.now += 1.0
            with tracer.span("kernels.gram"):
                clock.now += 3.0
        clock.now += 0.25
    assert tracer.spans[0].duration == 7.75
    assert tracer.self_time(0) == 7.75 - 2.0 - 4.0
    assert tracer.self_time(2) == 1.0
    assert tracer.descendants(0) == [1, 2, 3]


def test_traced_tiny_sweep_counts_every_layer(tmp_path):
    workload, doc, path = tiny_call("tall_rbf", tmp_path)
    tracer = Tracer()
    from lssvmlim import experiments, lssvm

    original = experiments.sample, lssvm.TrainedModel.__dict__["fit"]
    with tracer.patched():
        with tracer.span("experiments.run"):
            run_call(workload, doc, path)
    assert (experiments.sample, lssvm.TrainedModel.__dict__["fit"]) == original
    layers = layer_metrics(tracer, "experiments.run")
    # per trial: one build and two samples; Gram and the test kernel vector;
    # fit, train, decide; stats, threshold and error rates; one trial span
    assert [layers[f"{k}.calls"] for k in ("mixture", "kernels", "lssvm", "theory", "experiments")] == [
        3, 2, 3, 3, 1
    ]
    assert 0.0 < layers["experiments.trial_coverage"] <= 1.0
    assert layers["kernels.gram_gflop_computed"] == pytest.approx(2 * 128**2 * 32 / 1e9)
    assert layers["lssvm.train_gflop_computed"] == pytest.approx(2 * 128**3 / 3 / 1e9)


def test_tail_keeps_ten_samples_beyond():
    assert tail(list(range(21))) == (10, 50.0)
    assert tail([3.0, 1.0, 2.0]) == (3.0, 100.0)


def test_benchmark_json_matches_the_runner():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


def test_refuses_a_directory_without_the_package(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "tall_rbf", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
