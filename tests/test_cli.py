import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import lssvmlim
from helpers import MALFORMED_IDX, malformed_idx_pair
from lssvmlim import cli, experiments, mnist
from lssvmlim.cli import main
from lssvmlim.errors import DataError, NumericalFailure
from lssvmlim.mixture import MixtureModel, ToeplitzCov, sample
from lssvmlim.mnist import write_idx

CONFIG_DIR = "configs"


def python_with_package(*args, **kwargs):
    """Start a fresh interpreter that imports this checkout's package."""
    src = str(Path(lssvmlim.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    return subprocess.Popen([sys.executable, *args], env=env, stderr=subprocess.PIPE,
                            text=True, **kwargs)


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def identical_classes_config(tmp_path):
    return write_config(
        tmp_path,
        {
            "model": {
                "p": 32,
                "mean1": "zeros",
                "mean2": "zeros",
                "cov1": "identity",
                "cov2": "identity",
                "c1": 0.5,
            },
            "kernel": {"kind": "gaussian", "sigma2": 1.0},
            "n": 64,
            "gamma": 1.0,
        },
    )


def test_unknown_subcommand_exits_one(capsys):
    assert main(["frobnicate"]) == 1
    assert "usage" in capsys.readouterr().err.lower()


def test_no_arguments_exits_one():
    assert main([]) == 1


def test_predict_identical_classes(tmp_path, capsys):
    config = identical_classes_config(tmp_path)
    assert main(["predict", "--config", config, "--threshold", "bias"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["D"] == 0.0
    assert out["weighted"] == 0.5
    assert out["E1"] == out["E2"] == 0.0


def test_predict_and_histogram_json_name_the_label_convention(tmp_path, capsys):
    # perfbench's predict_cli reference compares this key
    config = write_config(tmp_path, small_sweep_doc())
    for command in ("predict", "histogram"):
        assert main([command, "--config", config]) == 0
        assert json.loads(capsys.readouterr().out)["label_convention"] == "standard"


def test_predict_writes_file(tmp_path):
    config = identical_classes_config(tmp_path)
    out_path = tmp_path / "report.json"
    assert main(["predict", "--config", config, "--out", str(out_path)]) == 0
    assert json.loads(out_path.read_text())["tau"] == pytest.approx(2.0)


def test_predict_missing_config_is_data_error(tmp_path, capsys):
    assert main(["predict", "--config", str(tmp_path / "nope.json")]) == 2
    assert "data error" in capsys.readouterr().err


def test_predict_invalid_json_is_data_error(tmp_path, capsys):
    # a TOML file is read as JSON too, and refused as malformed JSON
    for name, text in (("bad.json", "{not json"), ("config.toml", 'n = 64\n[model]\np = 32\n')):
        (tmp_path / name).write_text(text)
        assert main(["predict", "--config", str(tmp_path / name)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("lssvmlim: invalid input:") and captured.err.count("\n") == 1


def test_sweep_emits_13_row_csv(tmp_path):
    # the shipped slope-sweep grid has 13 points; scale the model down and
    # check the CSV contract end to end
    doc = json.loads(Path(CONFIG_DIR, "sweep_slope.json").read_text())
    doc["model"]["p"] = 32
    doc["n"] = 128
    doc["n_test"] = 16
    doc["trials"] = 2
    config = write_config(tmp_path, doc)
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--config", config, "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 14  # header + 13 grid rows
    assert lines[0].startswith("axis,value,n,p,trials,emp_err")
    assert all(line.split(",")[0] == "fprime" for line in lines[1:])


def test_sweep_json_full_includes_trials(tmp_path):
    doc = json.loads(Path(CONFIG_DIR, "sweep_width.json").read_text())
    doc["model"]["p"] = 32
    doc["n"] = 64
    doc["n_test"] = 16
    doc["sweep"]["grid"] = [0.5, 1.0]
    config = write_config(tmp_path, doc)
    out = tmp_path / "sweep.json"
    assert main(["sweep", "--config", config, "--out", str(out), "--trials", "3", "--full"]) == 0
    obj = json.loads(out.read_text())
    assert len(obj["rows"]) == 2
    assert len(obj["trials"]["1.0"]) == 3
    assert obj["failures"] == []


def test_one_trial_sweep_prints_valid_json(tmp_path, capsys):
    # one trial leaves the standard error undefined: it must print as null,
    # not as the NaN token that JSON does not have
    doc = json.loads(Path(CONFIG_DIR, "sweep_width.json").read_text())
    doc["model"]["p"] = 32
    doc["n"] = 64
    doc["n_test"] = 16
    doc["sweep"]["grid"] = [0.5, 1.0]
    config = write_config(tmp_path, doc)
    assert main(["sweep", "--config", config, "--trials", "1", "--full"]) == 0

    def reject(token):
        raise ValueError(f"invalid JSON constant {token}")

    obj = json.loads(capsys.readouterr().out, parse_constant=reject)
    assert [row["trials"] for row in obj["rows"]] == [1, 1]
    assert all(row["emp_se"] is None for row in obj["rows"])
    assert all(0.0 <= row["emp_err"] <= 1.0 for row in obj["rows"])


def test_histogram_command(tmp_path, capsys):
    doc = {
        "model": {
            "p": 24,
            "mean1": "unit_spike(1, 2.0)",
            "mean2": "unit_spike(2, 2.0)",
            "cov1": "identity",
            "cov2": "boosted_toeplitz(0.4, 2.0)",
            "c1": 0.5,
        },
        "kernel": {"kind": "gaussian", "sigma2": 1.0},
        "n": 32,
        "n_test": 8,
        "trials": 3,
        "base_seed": 1,
    }
    config = write_config(tmp_path, doc)
    assert main(["histogram", "--config", config]) == 0
    out = json.loads(capsys.readouterr().out)
    for key in ("ks1", "ks2", "E1", "E2", "Var1", "Var2", "mean_class1"):
        assert key in out


def skew_histogram_doc(**changes):
    """histogram_skew.json, with its unequal class split, at small p, n and trials."""
    doc = json.loads(Path(CONFIG_DIR, "histogram_skew.json").read_text())
    doc["model"]["p"] = 32
    doc.update(n=32, n_test=8, trials=3)
    doc.update(changes)
    return doc


def test_histogram_full_lists_every_score(tmp_path, capsys):
    config = write_config(tmp_path, skew_histogram_doc())
    assert main(["histogram", "--config", config, "--full"]) == 0
    out = json.loads(capsys.readouterr().out)
    for c in ("1", "2"):
        assert len(out[f"scores{c}"]) == 3 * 8  # n_test per class per trial
        assert np.mean(out[f"scores{c}"]) == out[f"mean_class{c}"]


def test_convergence_command(tmp_path, capsys):
    doc = {
        "model": {
            "mean1": "zeros",
            "mean2": "unit_spike(1, 2.0)",
            "cov1": "identity",
            "cov2": "identity",
            "c1": 0.5,
        },
        "kernel": {"kind": "gaussian", "sigma2": 1.0},
        "gamma": 1.0,
        "trials": 2,
        "n_points": 6,
        "sizes": [[16, 16], [32, 32]],
    }
    config = write_config(tmp_path, doc)
    assert main(["convergence", "--config", config]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert [r["p"] for r in rows] == [16, 32]
    assert all(np.isfinite(r["median_scaled_gap"]) for r in rows)


def test_estimate_tau_on_npy(tmp_path, capsys):
    p = 64
    m = MixtureModel(p, np.zeros(p), np.zeros(p), np.eye(p), np.eye(p), c1=0.5)
    ds = sample(m, 128, 128, seed=0)
    path = tmp_path / "data.npy"
    np.save(path, ds.X)
    assert main(["estimate-tau", str(path)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["tau"] == pytest.approx(2.0, abs=0.2)
    assert out["p"] == 64 and out["n"] == 256


@pytest.mark.parametrize("saved_as, named", [("npy", "real.data"), ("csv", "data.npy")],
                         ids=["npy-named-data", "csv-named-npy"])
def test_estimate_tau_reads_a_file_by_its_content(tmp_path, capsys, saved_as, named):
    # the same tau as the correctly named file, whatever the name says
    X = np.arange(1.0, 13.0).reshape(3, 4) ** 1.5
    outputs = []
    for name in (f"data.{saved_as}", named):
        path = tmp_path / name
        if saved_as == "npy":
            with path.open("wb") as f:  # np.save would add .npy to the name
                np.save(f, X)
        else:
            np.savetxt(path, X, delimiter=",")
        assert main(["estimate-tau", str(path)]) == 0
        outputs.append(json.loads(capsys.readouterr().out))
    assert outputs[0] == outputs[1] and outputs[0]["p"] == 3 and outputs[0]["n"] == 4


def test_estimate_tau_missing_file(tmp_path, capsys):
    for name in ("missing.npy", "missing.csv"):  # read by np.load and np.loadtxt
        assert main(["estimate-tau", str(tmp_path / name)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("lssvmlim: data error:") and captured.err.count("\n") == 1


def test_estimate_tau_rejects_non_finite_data(tmp_path, capsys):
    path = tmp_path / "data.npy"
    np.save(path, np.array([[1.0, float("nan")], [0.0, 2.0]]))
    assert main(["estimate-tau", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("lssvmlim: invalid input:") and captured.err.count("\n") == 1


def synthetic_idx_pair(tmp_path, p=16, per_class=80):
    """Two visibly different digit classes dumped in the IDX byte format."""
    rng = np.random.default_rng(42)
    side = int(np.sqrt(p))
    a = np.clip(rng.normal(90, 25, size=(p, per_class)), 0, 255)
    b = np.clip(rng.normal(160, 25, size=(p, per_class)), 0, 255)
    pixels = np.concatenate([a, b], axis=1).astype(np.uint8)
    labels = np.repeat([8, 9], per_class).astype(np.uint8)
    ip, lp = tmp_path / "imgs.idx", tmp_path / "labs.idx"
    write_idx(pixels, labels, ip, lp)
    return str(ip), str(lp)


def test_mnist_stats_on_synthetic_idx(tmp_path, capsys):
    ip, lp = synthetic_idx_pair(tmp_path)
    code = main([
        "mnist-stats", "--images", ip, "--labels", lp,
        "--digit-a", "8", "--digit-b", "9",
        "--n", "64", "--n-test", "32", "--trials", "3", "--seed", "5",
    ])
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    assert out["counts"] == [80, 80]
    assert set(out["discrepancy_by_scaling"]) == {"unit", "raw", "mean", "rms"}
    assert 0.0 <= out["empirical_weighted_error"] <= 1.0
    assert out["theory"]["weighted"] <= 0.5


def test_mnist_stats_builds_one_model_and_no_rescaled_images(tmp_path, capsys, monkeypatch):
    # The four scaled discrepancy triples follow from the one set of class
    # statistics by their exact factors: one class_stats, whose two 784 x 784
    # sample covariances are neither checked nor decomposed, and no rescaled
    # copy of the images.  The tracemalloc peak was 5.3x the float64 image
    # bytes when each scaling rebuilt the model from rescaled images and 2.8x
    # with one model; 3.5x lies between.  Centring each class in place took
    # it to 1.9x.
    ip, lp = synthetic_idx_pair(tmp_path, p=784, per_class=3000)
    calls = {"class_stats": 0, "eigh": 0, "eigvalsh": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(mnist, "class_stats", counted("class_stats", mnist.class_stats))
    monkeypatch.setattr(np.linalg, "eigh", counted("eigh", np.linalg.eigh))
    monkeypatch.setattr(np.linalg, "eigvalsh", counted("eigvalsh", np.linalg.eigvalsh))
    tracemalloc.start()
    try:
        assert main(["mnist-stats", "--images", ip, "--labels", lp, "--trials", "2"]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert calls == {"class_stats": 1, "eigh": 0, "eigvalsh": 0}
    assert peak <= 3.5 * 784 * 6000 * 8
    assert set(json.loads(capsys.readouterr().out)["discrepancy_by_scaling"]) == {
        "unit", "raw", "mean", "rms"}


def test_predict_on_a_file_covariance_tests_its_eigenvalues_and_decomposes_nothing(
        tmp_path, capsys, monkeypatch):
    np.save(tmp_path / "cov.npy", np.asarray(ToeplitzCov(0.4, 1.5, 32)))  # the small model's p
    calls = []

    def counted(name):
        real = getattr(np.linalg, name)
        return lambda *args, **kwargs: calls.append(name) or real(*args, **kwargs)

    for name in ("eigh", "eigvalsh"):
        monkeypatch.setattr(np.linalg, name, counted(name))
    doc = small_sweep_doc(model=small_model(cov2={"file": str(tmp_path / "cov.npy")}))
    assert main(["predict", "--config", write_config(tmp_path, doc)]) == 0
    assert calls == ["eigvalsh"]
    assert json.loads(capsys.readouterr().out)["weighted"] < 0.5


def test_mnist_stats_bad_file_is_data_error(tmp_path, capsys):
    junk = tmp_path / "junk.idx"
    junk.write_bytes(b"\x00\x00\x00\x00rest")
    assert main(["mnist-stats", "--images", str(junk), "--labels", str(junk)]) == 2
    assert "data error" in capsys.readouterr().err


@pytest.mark.parametrize("case", sorted(MALFORMED_IDX))
def test_mnist_stats_malformed_idx_is_a_one_line_data_error(tmp_path, capsys, case):
    ip, lp = malformed_idx_pair(tmp_path, case)
    assert main(["mnist-stats", "--images", str(ip), "--labels", str(lp)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("lssvmlim: data error:") and captured.err.count("\n") == 1


def small_sweep_doc(**changes):
    doc = json.loads(Path(CONFIG_DIR, "sweep_width.json").read_text())
    doc["model"]["p"] = 32
    doc.update(n=64, n_test=16, trials=1, sweep={"axis": "sigma2", "grid": [1.0]})
    doc.update(changes)
    return doc


def small_model(**changes):
    return dict(small_sweep_doc()["model"], **changes)


@pytest.mark.parametrize(
    "command, bad",
    [
        ("predict", {"gamma": 0}),
        ("predict", {"n": 0}),
        ("predict", {"gamma": -1}),
        ("predict", {"n": 1}),
        ("predict", {"gamma": float("nan")}),
        ("predict", {"convention": "standard"}),
        ("sweep", {"gamma": 0}),
        ("sweep", {"n_test": 1}),
        ("sweep", {"n": 1}),
        ("sweep", {"trials": 0}),
        ("histogram", {"gamma": float("inf")}),
        ("histogram", {"trials": None}),
        ("predict", {"model": {"p": 16, "mean1": "zeros", "mean2": "unit_spike(2, 2.0)",
                               "cov1": "identity", "cov2": "toeplitz(0.4, inf)", "c1": 0.5}}),
        ("predict", {"kernel": {"kind": "gaussian", "sigma2": float("inf")}}),
        ("predict", {"kernel": {"kind": "gaussian", "sigma2": 1e-200}}),
        ("predict", {"kernel": {"kind": "gaussian", "sigma2": 1e300}}),
        ("predict", {"kernel": {"kind": "polynomial", "coeffs": [1, float("inf")]}}),
        ("predict", {"kernel": {"kind": "local", "tau": float("nan"), "f": 4.0, "fp": 0.0,
                                "fpp": 2.0}}),
        ("predict", {"kernel": {"kind": "polynomial", "coeffs": [1, 1e308, 1e308]}}),
        ("predict", {"kernel": {"kind": "local", "tau": 2.0, "f": 4.0, "fp": 0.0,
                                "fpp": 1e200}}),
        ("predict", {"model": {"p": 16, "mean1": "unit_spike(1, inf)",
                               "mean2": "unit_spike(2, 2.0)", "cov1": "identity",
                               "cov2": "identity", "c1": 0.5}}),
        ("sweep", {"model": {"p": 16, "mean1": [float("nan")] + [0.0] * 15, "mean2": "zeros",
                             "cov1": "identity", "cov2": "identity", "c1": 0.5}}),
        ("sweep", {"sweep": {"axis": "mu_offset", "grid": [float("inf")]}}),
        ("predict", {"model": {"p": 4, "mean1": "zeros", "mean2": "unit_spike(2, 2.0)",
                               "cov1": np.diag([1.0, float("nan"), 1.0, 1.0]).tolist(),
                               "cov2": "identity", "c1": 0.5}}),
        ("sweep", {"sweep": {"axis": "c0", "grid": [0.5, 0.0]}}),
        ("sweep", {"sweep": {"axis": "c0", "grid": [-2.0]}}),
        ("sweep", {"sweep": {"axis": "c0", "grid": [float("inf")]}}),
        ("histogram", {"kernel": {"kind": "polynomial", "coeffs": [1, 1e308, 1e308]}}),
        ("convergence", {"sizes": [[16, 16]], "n_points": 6,
                         "kernel": {"kind": "local", "tau": 2.0, "f": 4.0, "fp": 0.0,
                                    "fpp": 1e200}}),
        ("predict", [1]),
        ("predict", "x"),
        ("predict", {"model": []}),
        ("predict", {"model": small_model(p=None)}),
        ("predict", {"model": small_model(c1=None)}),
        ("predict", {"model": small_model(mean1={"a": 1})}),
        ("predict", {"model": {"p": 16, "mean1": "zeros", "mean2": "zeros", "cov1": "identity",
                               "cov2": "identity", "n1": 0, "n2": 0}}),
        ("predict", {"kernel": None}),
        ("histogram", {"kernel": [1]}),
        ("predict", {"kernel": {"kind": "polynomial", "coeffs": 3}}),
        ("sweep", {"sweep": [1]}),
        ("sweep", {"sweep": {"axis": "sigma2", "grid": 5}}),
        ("sweep", {"model": small_model(p=None), "sweep": {"axis": "c0", "grid": [0.5]}}),
        ("predict", {"model": small_model(mean1="unit_spike(1, 1e200)")}),
        ("predict", {"model": small_model(cov2="toeplitz(0.4, 1e307)")}),
        ("predict", {"n": float("inf")}),
        ("sweep", {"trials": float("inf")}),
        ("sweep", {"base_seed": float("inf")}),
        ("convergence", {"sizes": [[16, 16]], "n_points": float("inf")}),
        ("convergence", {"sizes": [[16, float("inf")]], "n_points": 6}),
        ("predict", {"model": small_model(p=float("inf"))}),
        ("predict", {"model": {"p": 16, "mean1": "zeros", "mean2": "zeros", "cov1": "identity",
                               "cov2": "identity", "n1": float("inf"), "n2": 1}}),
        ("sweep", {"sweep": {"axis": "c0", "grid": [5e-324]}}),
        # arrays of more than 1 TiB, which NumPy refuses before touching memory
        ("histogram", {"n_test": 1e12}),
        ("convergence", {"sizes": [[16, 1e12]], "n_points": 6}),
        ("sweep", {"n": 1e12}),
        # a bad value anywhere in the grid is refused before the first point's trials
        ("sweep", {"trials": 3, "sweep": {"axis": "c1", "grid": [0.5, 0.25, 1.5]}}),
        ("sweep", {"trials": 3, "sweep": {"axis": "sigma2", "grid": [1.0, 2.0, -1.0]}}),
        ("sweep", {"trials": 3, "sweep": {"axis": "fsecond", "grid": [0.25, 1e200]}}),
        # a gamma whose score variances overflow
        ("sweep", {"trials": 3, "gamma": 1e200}),
    ],
    ids=["predict-gamma0", "predict-n0", "predict-gamma-negative", "predict-n1",
         "predict-gamma-nan", "predict-convention-key-refused", "sweep-gamma0", "sweep-n_test1",
         "sweep-n1", "sweep-trials0", "histogram-gamma-inf", "histogram-trials-null",
         "predict-toeplitz-scale-inf", "predict-gaussian-sigma2-inf",
         "predict-gaussian-sigma2-tiny", "predict-gaussian-sigma2-huge",
         "predict-polynomial-coeff-inf", "predict-local-tau-nan",
         "predict-polynomial-coeff-huge", "predict-local-fpp-huge", "predict-spike-inf",
         "sweep-dense-mean-nan", "sweep-mu_offset-inf", "predict-dense-cov-nan",
         "sweep-c0-zero", "sweep-c0-negative", "sweep-c0-inf",
         "histogram-polynomial-coeff-huge", "convergence-local-fpp-huge", "predict-doc-list",
         "predict-doc-string", "predict-model-list", "predict-p-null", "predict-c1-null",
         "predict-mean-object", "predict-counts-zero", "predict-kernel-null",
         "histogram-kernel-list", "predict-coeffs-int", "sweep-sweep-list", "sweep-grid-int",
         "sweep-c0-p-null", "predict-spike-huge", "predict-toeplitz-trace-huge", "predict-n-inf",
         "sweep-trials-inf", "sweep-base_seed-inf", "convergence-n_points-inf",
         "convergence-sizes-inf", "predict-p-inf", "predict-n1-inf", "sweep-c0-subnormal",
         "histogram-n_test-huge", "convergence-sizes-huge", "sweep-n-huge",
         "sweep-c1-grid-late-above-one", "sweep-sigma2-grid-late-negative",
         "sweep-fsecond-grid-late-overflow", "sweep-gamma-overflow"],
)
def test_invalid_config_is_a_one_line_data_error(tmp_path, capsys, recwarn, monkeypatch, command,
                                                 bad):
    # a dict of changes to the small sweep document, or a whole document
    config = write_config(tmp_path, small_sweep_doc(**bad) if isinstance(bad, dict) else bad)
    trials, real_error = [], experiments.empirical_error
    monkeypatch.setattr(experiments, "empirical_error",
                        lambda *args: trials.append(args) or real_error(*args))
    assert main([command, "--config", config]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("lssvmlim: invalid input:") and captured.err.count("\n") == 1
    assert [str(w.message) for w in recwarn if w.category is RuntimeWarning] == []
    # no trial runs, unless the sizes themselves cannot be allocated
    assert trials == [] or "Unable to allocate" in captured.err


def without(doc, key):
    return {k: v for k, v in doc.items() if k != key}


@pytest.mark.parametrize(
    "model, sweep, named",
    [(without(small_model(), "c1"), {"axis": "c1", "grid": [0.3]}, "missing key model.c1"),
     (small_model(mean1="bogus"), {"axis": "mu_offset", "grid": [1.0]},
      "model.mean1: unknown mean spec: 'bogus'")],
    ids=["c1-axis-c1-missing", "mu_offset-axis-mean1-unknown"],
)
def test_a_sweep_builds_the_whole_model_whatever_its_axis(tmp_path, capsys, model, sweep, named):
    # the model is built once, as predict builds it, before any grid point replaces a value
    path = write_config(tmp_path, small_sweep_doc(model=model, sweep=sweep))
    for command in ("predict", "sweep"):
        assert main([command, "--config", path]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == f"lssvmlim: invalid input: {named}\n"


def local_kernel(**changes):
    return dict({"kind": "local", "tau": 2.0, "f": 1.0, "fp": -0.5, "fpp": 0.25}, **changes)


@pytest.mark.parametrize(
    "command, doc, named",
    [
        ("predict", json.loads(Path(CONFIG_DIR, "convergence.json").read_text()), "model.p"),
        ("predict", without(small_sweep_doc(), "model"), "model"),
        ("predict", small_sweep_doc(model=without(small_model(), "cov2")), "model.cov2"),
        ("predict", small_sweep_doc(kernel={"kind": "gaussian"}), "kernel.sigma2"),
        ("predict", small_sweep_doc(kernel={"kind": "local", "tau": 2.0, "f": 4.0, "fpp": 2.0}),
         "kernel.fp"),
        ("predict", small_sweep_doc(model=small_model(mean2="unit_spike(1, 2, 3)")),
         "model.mean2"),
        ("predict", small_sweep_doc(model=small_model(mean2="unit_spike(1.5, 2)")),
         "model.mean2"),
        ("predict", small_sweep_doc(model=small_model(cov2="toeplitz(0.4)")), "model.cov2"),
        ("predict", small_sweep_doc(model=small_model(cov2="boosted_toeplitz(0.4, x)")),
         "model.cov2"),
        ("convergence", small_sweep_doc(sizes=[[16]], n_points=6), "sizes"),
        ("convergence", small_sweep_doc(sizes=[16, 16], n_points=6),
         "sizes must be [n, p] pairs, got [16, 16]"),
        ("convergence", small_sweep_doc(sizes=None, n_points=6),
         "sizes must be [n, p] pairs, got None"),
        ("convergence", small_sweep_doc(sizes="x", n_points=6),
         "sizes must be [n, p] pairs, got 'x'"),
        ("convergence", skew_histogram_doc(), "convergence needs sizes: [[n, p], ...]"),
        ("sweep", small_sweep_doc(sweep={"axis": "sigma2", "grid": [1.0, 1.0]}), "grid"),
        ("sweep", small_sweep_doc(sweep={"axis": "fprime", "grid": [0.0, -0.0]}), "grid"),
        # a count that is not a positive whole number is refused, never truncated
        ("predict", small_sweep_doc(n=300.9), "invalid input: n must be"),
        ("sweep", small_sweep_doc(n=-64), "invalid input: n must be"),
        ("sweep", small_sweep_doc(n_test=16.5), "invalid input: n_test must be"),
        ("sweep", small_sweep_doc(trials=1.9), "invalid input: trials must be"),
        ("convergence", small_sweep_doc(sizes=[[16, 16]], n_points=6.5), "n_points must be"),
        ("convergence", small_sweep_doc(sizes=[[16, 16]], n_points=0), "n_points must be"),
        ("convergence", small_sweep_doc(sizes=[[8, 0]], n_points=6), "sizes[0] p must be"),
        ("convergence", small_sweep_doc(sizes=[[16, 16], [16.5, 16]], n_points=6),
         "sizes[1] n must be"),
        ("predict", small_sweep_doc(model=small_model(p=16.5)), "model.p must be"),
        ("predict", small_sweep_doc(model=small_model(p=-16)), "model.p must be"),
        # convergence gives each size's p, and still checks the config's
        ("convergence", small_sweep_doc(sizes=[[16, 16]], n_points=6, model=small_model(p="oops")),
         "model.p must be"),
        # a key the schema does not have is refused, never ignored
        ("predict", small_sweep_doc(model=small_model(n1=24)), "unknown key model.n1"),
        ("sweep", small_sweep_doc(trails=3), "unknown key trails"),
        ("sweep", small_sweep_doc(axis="sigma2"), "unknown key axis"),
        ("sweep", small_sweep_doc(sweep={"axis": "sigma2", "grid": [1.0], "grd": [2.0]}),
         "unknown key sweep.grd"),
        ("sweep", small_sweep_doc(sweep={"grid": [0.5, 1.0]}), "sweep.grid needs sweep.axis"),
        # every subcommand that reads a config refuses an unknown sweep axis and the
        # label convention key: a config run trains on -1/+1 labels
        *((command, small_sweep_doc(sizes=[[16, 16]], n_points=6, **bad), named)
          for command in ("predict", "sweep", "histogram", "convergence")
          for bad, named in (({"sweep": {"axis": "bogus", "grid": [1.0]}},
                              "unknown sweep axis: 'bogus'"),
                             ({"convention": "fisher"}, "unknown key convention"))),
        # a seed that is not a whole number is refused, never truncated
        ("sweep", small_sweep_doc(base_seed=1.5), "base_seed must be an integer"),
        ("sweep", small_sweep_doc(base_seed=True), "base_seed must be an integer"),
        ("sweep", small_sweep_doc(base_seed="7"), "base_seed must be an integer"),
        # a boolean is no real number either: it is refused, never read as 1 or 0
        ("sweep", small_sweep_doc(gamma=True), "gamma must be a number, got True"),
        ("histogram", small_sweep_doc(kernel={"kind": "gaussian", "sigma2": True}),
         "kernel.sigma2 must be a number"),
        ("sweep", small_sweep_doc(sweep={"axis": "sigma2", "grid": [True]}),
         "sweep grid value must be a number"),
        ("predict", small_sweep_doc(model=small_model(c1=False)), "model.c1 must be a number"),
        ("convergence",
         small_sweep_doc(sizes=[[16, 16]], n_points=6, kernel=local_kernel(tau=True)),
         "kernel.tau must be a number"),
        ("predict", small_sweep_doc(kernel=local_kernel(f=True)), "kernel.f must be a number"),
        ("predict", small_sweep_doc(kernel=local_kernel(fp=False)), "kernel.fp must be a number"),
        ("histogram", small_sweep_doc(kernel=local_kernel(fpp=True)),
         "kernel.fpp must be a number"),
        ("predict", small_sweep_doc(kernel={"kind": "polynomial", "coeffs": [1.0, True]}),
         "kernel.coeffs must be a number"),
        # nor is a string, even one that reads as a number
        ("sweep", small_sweep_doc(gamma="2"), "gamma must be a number, got '2'"),
        ("sweep", small_sweep_doc(sweep={"axis": "sigma2", "grid": ["0.5"]}),
         "sweep grid value must be a number"),
        ("predict", small_sweep_doc(kernel={"kind": "gaussian", "sigma2": "oops"}),
         "kernel.sigma2 must be a number"),
        ("predict", small_sweep_doc(model=small_model(c1="0.5")), "model.c1 must be a number"),
        # a value of the right type that breaks a rule names its key too
        ("predict", small_sweep_doc(model=small_model(mean1="bogus")),
         "model.mean1: unknown mean spec: 'bogus'"),
        ("predict", small_sweep_doc(model=small_model(mean1="unit_spike(33, 1.0)")),
         "model.mean1: spike coordinate 33 outside 1..32"),
        ("predict", small_sweep_doc(model=small_model(mean1=[1, 2])),
         "model.mean1: mu1 must have shape (32,), got (2,)"),
        ("predict", small_sweep_doc(model=small_model(mean1={"a": 1})), "model.mean1: "),
        ("predict", small_sweep_doc(model=small_model(cov1="bogus")),
         "model.cov1: unknown covariance spec: 'bogus'"),
        ("predict", small_sweep_doc(model=small_model(cov1="toeplitz(1.5, 1.0)")),
         "model.cov1: rho must lie in [0, 1), got 1.5"),
        ("predict", small_sweep_doc(model=small_model(cov1=[[1, 2], [3, 4]])),
         "model.cov1: cov1 must be 32x32, got (2, 2)"),
        ("predict", small_sweep_doc(model=small_model(c1=1.5)),
         "model.c1: c1 must lie in (0, 1), got 1.5"),
        ("predict", small_sweep_doc(kernel={"kind": "gaussian", "sigma2": -1.0}),
         "kernel.sigma2: sigma2 must be finite and positive, got -1.0"),
        ("predict", small_sweep_doc(kernel={"kind": "polynomial", "coeffs": []}),
         "kernel.coeffs: polynomial kernel needs at least one coefficient"),
        ("predict", small_sweep_doc(kernel=local_kernel(fpp=float("inf"))),
         "kernel.tau, kernel.f, kernel.fp, kernel.fpp: local kernel anchor"),
        # a sweep whose axis replaces the kernel still parses the config's
        ("sweep", small_sweep_doc(kernel={"kind": "gaussian", "sigma2": "oops"}),
         "kernel.sigma2 must be a number"),
        ("sweep", small_sweep_doc(kernel={"kind": "gaussian"},
                                  sweep={"axis": "fprime", "grid": [0.5]}),
         "missing key kernel.sigma2"),
        # a gamma whose score variances overflow is named, not a traceback
        ("predict", small_sweep_doc(gamma=1e200), "gamma = 1e+200 gives"),
        ("histogram", small_sweep_doc(gamma=1e200), "gamma = 1e+200 gives"),
        ("convergence", small_sweep_doc(sizes=[[16, 16]], n_points=6, gamma=1e200),
         "gamma = 1e+200 gives"),
    ],
    ids=["predict-shipped-convergence-config", "predict-model-missing", "predict-cov2-missing",
         "predict-sigma2-missing", "predict-fp-missing", "predict-spike-three-args",
         "predict-spike-fractional-index", "predict-toeplitz-one-arg",
         "predict-boosted-toeplitz-text", "convergence-size-single", "convergence-sizes-flat",
         "convergence-sizes-null", "convergence-sizes-string", "convergence-sizes-missing",
         "sweep-grid-repeated",
         "sweep-grid-signed-zeros", "predict-n-fractional", "sweep-n-negative",
         "sweep-n_test-fractional", "sweep-trials-fractional", "convergence-n_points-fractional",
         "convergence-n_points-zero", "convergence-sizes-p-zero",
         "convergence-sizes-n-fractional", "predict-p-fractional", "predict-p-negative",
         "convergence-p-string",
         "predict-model-n1", "sweep-trails", "sweep-axis-top-level", "sweep-grd",
         "sweep-grid-without-axis",
         *(f"{command}-{bad}" for command in ("predict", "sweep", "histogram", "convergence")
           for bad in ("axis-unknown", "convention-key")),
         "sweep-base_seed-fractional", "sweep-base_seed-bool",
         "sweep-base_seed-string", "sweep-gamma-bool", "histogram-sigma2-bool",
         "sweep-grid-bool", "predict-c1-bool", "convergence-tau-bool", "predict-f-bool",
         "predict-fp-bool", "histogram-fpp-bool", "predict-coeffs-bool", "sweep-gamma-string",
         "sweep-grid-string", "predict-sigma2-string", "predict-c1-string",
         "predict-mean1-unknown", "predict-mean1-spike-outside", "predict-mean1-short",
         "predict-mean1-object", "predict-cov1-unknown", "predict-cov1-rho-above-one",
         "predict-cov1-two-by-two", "predict-c1-above-one", "predict-sigma2-negative",
         "predict-coeffs-empty", "predict-fpp-inf",
         "sweep-sigma2-axis-kernel-string", "sweep-fprime-axis-sigma2-missing",
         "predict-gamma-overflow", "histogram-gamma-overflow", "convergence-gamma-overflow"],
)
def test_invalid_config_error_names_its_key(tmp_path, capsys, recwarn, command, doc, named):
    assert main([command, "--config", write_config(tmp_path, doc)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("lssvmlim: invalid input:") and captured.err.count("\n") == 1
    assert named in captured.err
    assert [str(w.message) for w in recwarn if w.category is RuntimeWarning] == []


def test_estimate_tau_names_the_matrix_it_needs(tmp_path, capsys):
    path = tmp_path / "data.npy"
    np.save(path, np.ones(5))
    assert main(["estimate-tau", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("lssvmlim: invalid input:") and captured.err.count("\n") == 1
    assert "p x n matrix" in captured.err


def test_integral_float_counts_read_as_the_integers(tmp_path, capsys):
    # 64.0 is the whole number 64: the same prediction, at an unequal split
    outputs = []
    for n in (64, 64.0):
        doc = small_sweep_doc(n=n, model=small_model(c1=0.375))
        assert main(["predict", "--config", write_config(tmp_path, doc)]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("seed", [2.0, 0, -5])
def test_whole_seeds_are_accepted(seed):
    # 2.0 is the whole number 2; 0 and negative seeds are masked by mix64
    config = experiments.config_from_dict(small_sweep_doc(base_seed=seed))
    assert config.base_seed == seed and type(config.base_seed) is int


def test_estimate_tau_reads_a_one_row_csv_as_one_dimension(tmp_path, capsys):
    path = tmp_path / "data.csv"
    path.write_text("1,2,3\n")
    assert main(["estimate-tau", str(path)]) == 0
    assert json.loads(capsys.readouterr().out) == {"tau": 4 / 3, "p": 1, "n": 3}


@pytest.mark.parametrize("case", ["empty-csv", "blank-csv", "one-column-csv", "zero-rows-npy"])
def test_estimate_tau_empty_data_is_one_line(tmp_path, capsys, recwarn, case):
    # no traceback from estimate_tau dividing by p = 0, and no loadtxt warning
    path = tmp_path / ("data.npy" if case.endswith("npy") else "data.csv")
    if case == "zero-rows-npy":
        np.save(path, np.zeros((0, 5)))
    else:
        path.write_text({"empty-csv": "", "blank-csv": "\n\n", "one-column-csv": "1\n2\n3\n"}[case])
    assert main(["estimate-tau", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("lssvmlim: invalid input:") and captured.err.count("\n") == 1
    assert "p x n matrix" in captured.err
    assert [str(w.message) for w in recwarn] == []


@pytest.mark.parametrize(
    "case", ["estimate-tau-data", "predict-cov2-file", "predict-out", "predict-cov2-npz",
             "predict-cov2-complex", "estimate-tau-npz", "estimate-tau-complex",
             "estimate-tau-dates"]
)
def test_directory_path_is_a_one_line_data_error(tmp_path, capsys, case):
    # and an .npy input that is an archive of arrays, or an array of complex
    # values or dates, not one real array
    archive, complex_array, dates = (tmp_path / f for f in ("cov.npz", "complex.npy", "dates.npy"))
    np.savez(archive, a=np.eye(32))
    np.save(complex_array, np.eye(32) + 1j * np.eye(32))
    np.save(dates, np.array([["2020-01-01", "2020-01-02"]] * 2, dtype="datetime64[D]"))
    cov2 = {
        "predict-cov2-file": {"file": str(tmp_path)},
        "predict-cov2-npz": {"file": str(archive)},
        "predict-cov2-complex": {"file": str(complex_array)},
    }.get(case, "identity")
    config = write_config(tmp_path, small_sweep_doc(model=small_model(cov2=cov2)))
    argv = {
        "estimate-tau-data": ["estimate-tau", str(tmp_path)],
        "predict-cov2-file": ["predict", "--config", config],
        "predict-cov2-npz": ["predict", "--config", config],
        "predict-cov2-complex": ["predict", "--config", config],
        "predict-out": ["predict", "--config", config, "--out", str(tmp_path)],
        "estimate-tau-npz": ["estimate-tau", str(archive)],
        "estimate-tau-complex": ["estimate-tau", str(complex_array)],
        "estimate-tau-dates": ["estimate-tau", str(dates)],
    }[case]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("lssvmlim: data error:") and captured.err.count("\n") == 1
    if case in ("predict-cov2-npz", "predict-cov2-complex"):
        assert "model.cov2: " in captured.err


def test_underflowed_variance_predicts_finite_json(tmp_path, capsys, recwarn):
    # Var2 underflows to a subnormal: class 2 is then a point mass at E2
    doc = small_sweep_doc(model=small_model(cov2="toeplitz(0.4, 1e-320)"))
    assert main(["predict", "--config", write_config(tmp_path, doc)]) == 0
    out = json.loads(capsys.readouterr().out, parse_constant=pytest.fail)  # rejects NaN
    assert 0.0 < out["Var2"] < 1e-300
    assert all(np.isfinite(v).all() for v in out.values() if not isinstance(v, str))
    assert out["E1"] < out["threshold"] < out["E2"]
    assert [str(w.message) for w in recwarn if w.category is RuntimeWarning] == []


@pytest.mark.parametrize(
    "changes",
    [{"mean1": f"unit_spike(1, {v})"} for v in ("1e150", "1e152", "1e153")]
    + [{"cov1": f"toeplitz(0.0, {s})", "cov2": f"toeplitz(0.4, {s})"}
       for s in ("1e-290", "1e-298", "1e-300", "1e-305")],
    ids=["spike-1e150", "spike-1e152", "spike-1e153",
         "scale-1e-290", "scale-1e-298", "scale-1e-300", "scale-1e-305"],
)
def test_classes_too_far_apart_for_the_quadratic_predict_no_error(tmp_path, capsys, recwarn,
                                                                   changes):
    # the means lie some 1e145 to 1e153 spreads apart: the optimal threshold's
    # quadratic overflows unless it is solved in units near the spreads
    doc = json.loads(Path(CONFIG_DIR, "histogram_skew.json").read_text())
    doc["model"].update(p=16, **changes)
    assert main(["predict", "--config", write_config(tmp_path, doc)]) == 0
    out = json.loads(capsys.readouterr().out, parse_constant=pytest.fail)  # rejects NaN
    assert out["E1"] < out["threshold"] < out["E2"]
    assert out["eps1"] == out["eps2"] == out["weighted"] == 0.0
    assert [str(w.message) for w in recwarn if w.category is RuntimeWarning] == []


@pytest.mark.parametrize(
    "flags, named",
    [(["--gamma", "0"], "gamma"), (["--trials", "0"], "trials"), (["--n-test", "1"], "n_test"),
     (["--snr-db", "nan"], "snr_db"), (["--snr-db=-inf"], "snr_db"),
     (["--snr-db=-1e10"], "snr_db"), (["--digit-b", "8"], "the two digits must differ"),
     (["--n", "200"], "80 + 80 points per class is too small for 100 + 100 training and "
                      "16 + 16 test points"),
     # n is split by class_split: 163 gives 82 + 81, the first half rounded to even
     (["--n", "163"], "too small for 82 + 81 training"),
     # the kernel is refused before any image is read, so a missing file is never opened
     (["--images", "no-such-images.idx", "--sigma2", "-1"],
      "kernel.sigma2: sigma2 must be finite and positive, got -1.0"),
     # equal digits are refused before any file is opened
     (["--images", "no-such-images.idx", "--digit-b", "8"], "the two digits must differ")],
    ids=["gamma0", "trials0", "n_test1", "snr-nan", "snr-minus-inf", "snr-huge-negative",
         "same-digit", "pool-too-small", "pool-too-small-odd-n", "sigma2-before-images",
         "same-digit-before-images"],
)
def test_mnist_stats_invalid_flag_is_a_one_line_data_error(tmp_path, capsys, flags, named):
    ip, lp = synthetic_idx_pair(tmp_path)
    # the pool holds these sizes, so only the bad flag can fail the command
    args = ["--images", ip, "--labels", lp, "--n", "64", "--n-test", "32", *flags]
    assert main(["mnist-stats", *args]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("lssvmlim: invalid input:") and captured.err.count("\n") == 1
    assert named in captured.err


def test_mnist_stats_predicts_at_the_counts_it_trains_on(tmp_path, capsys):
    # 300 eights and 330 nines: the digits' proportion 300/630 is not the
    # 64 + 64 each trial trains on, and a prediction at the former puts the
    # threshold outside both classes' scores
    rng = np.random.default_rng(42)
    a = np.clip(rng.normal(110, 40, size=(256, 300)), 0, 255)
    b = np.clip(rng.normal(120, 40, size=(256, 330)), 0, 255)
    ip, lp = tmp_path / "imgs.idx", tmp_path / "labs.idx"
    write_idx(np.concatenate([a, b], axis=1).astype(np.uint8), np.repeat([8, 9], [300, 330]),
              ip, lp)
    assert main(["mnist-stats", "--images", str(ip), "--labels", str(lp),
                 "--n", "128", "--n-test", "128", "--trials", "10"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["counts"] == [300, 330]
    emp, se = out["empirical_weighted_error"], out["empirical_se"]
    assert abs(emp - out["theory"]["weighted"]) <= 3 * se + 0.02


def test_c1_sweep_and_predict_use_the_counts_trained_on(tmp_path, capsys):
    # n c1 is not an integer at either grid point: 25.6 and 76.8 of 256
    doc = json.loads((Path(CONFIG_DIR) / "histogram_skew.json").read_text())
    doc["model"]["p"] = 256
    doc.update(n=256, n_test=512, trials=10, sweep={"axis": "c1", "grid": [0.1, 0.3]})
    config = write_config(tmp_path, doc)
    assert main(["sweep", "--config", config]) == 0
    rows = json.loads(capsys.readouterr().out)["rows"]
    for row in rows:
        assert abs(row["emp_err"] - row["th_weighted"]) <= 3 * row["emp_se"] + 0.005, row
    doc["model"]["c1"] = 0.3
    del doc["sweep"]
    assert main(["predict", "--config", write_config(tmp_path, doc, "at_0.3.json")]) == 0
    assert json.loads(capsys.readouterr().out)["threshold"] == rows[1]["threshold"]


@pytest.mark.parametrize(
    "error, code, prefix",
    [(DataError, 2, "data error"), (OSError, 2, "data error"),
     (ValueError, 2, "invalid input"), (KeyError, 2, "invalid input"),
     (NumericalFailure, 3, "numerical failure"), (np.linalg.LinAlgError, 3, "numerical failure")],
    ids=["DataError", "OSError", "ValueError", "KeyError", "NumericalFailure", "LinAlgError"],
)
def test_each_error_type_ends_in_its_exit_code_and_one_line(monkeypatch, capsys, error, code,
                                                            prefix):
    def fail(args):
        raise error("what went wrong")

    monkeypatch.setattr(cli, "cmd_predict", fail)
    assert main(["predict", "--config", "unread.json"]) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"lssvmlim: {prefix}: ") and captured.err.count("\n") == 1


@pytest.mark.parametrize(
    "sweep, fails_at",
    [({"axis": "sigma2", "grid": [1.0, 2.0]}, "sigma2 = 2.0"), (None, "none = nan")],
    ids=["second-grid-point", "no-axis"],
)
def test_a_grid_point_without_a_completed_trial_is_a_numerical_failure(
        tmp_path, monkeypatch, capsys, sweep, fails_at):
    real = experiments.empirical_error

    def singular_at_width_2(model, n1, n2, n_test, gamma, profile, *args):
        if sweep is None or profile.sigma2 == 2.0:
            raise NumericalFailure("the kernel system is singular")
        return real(model, n1, n2, n_test, gamma, profile, *args)

    monkeypatch.setattr(experiments, "empirical_error", singular_at_width_2)
    config = write_config(tmp_path, small_sweep_doc(trials=2, sweep=sweep))
    assert main(["sweep", "--config", config]) == 3
    captured = capsys.readouterr()
    rows = json.loads(captured.out)["rows"]  # the output is still written
    assert [row["trials"] for row in rows] == ([2, 0] if sweep else [0])
    assert captured.err == (f"lssvmlim: numerical failure: no trial completed at {fails_at} "
                            "(first failure: NumericalFailure('the kernel system is singular'))\n")
    csv_path = tmp_path / "sweep.csv"
    assert main(["sweep", "--config", config, "--out", str(csv_path)]) == 3
    assert len(csv_path.read_text().splitlines()) == 1 + len(rows)


@pytest.mark.parametrize(
    "kernel", [{"kind": "local", "tau": 2.0, "f": 4.0, "fp": 0.0, "fpp": 0.0},
               {"kind": "polynomial", "coeffs": [1.0]}], ids=["flat-local", "constant"])
@pytest.mark.parametrize(
    "command, named",
    [("predict", "both variances vanish with equal means"),
     ("histogram", "class 1's predicted score variance is zero: no KS distance")],
    ids=["predict", "histogram"])
def test_flat_local_kernel_is_a_numerical_failure(tmp_path, capsys, recwarn, kernel, command,
                                                  named):
    # f' = f'' = 0: both classes score as one point, so no threshold separates
    # them and no Kolmogorov-Smirnov distance to a point mass is defined
    doc = small_sweep_doc(kernel=kernel)
    assert main([command, "--config", write_config(tmp_path, doc)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"lssvmlim: numerical failure: {named}\n"
    assert [str(w.message) for w in recwarn if w.category is RuntimeWarning] == []


def test_mnist_stats_runs_ten_trials_by_default(tmp_path, capsys):
    ip, lp = synthetic_idx_pair(tmp_path)
    assert main(["mnist-stats", "--images", ip, "--labels", lp, "--n", "32", "--n-test", "16"]) == 0
    assert json.loads(capsys.readouterr().out)["trials"] == 10


def test_mnist_stats_noise_covers_the_two_digits_from_a_stream_no_trial_draws(
        tmp_path, capsys, monkeypatch):
    # 40 eights, 44 nines and 12 threes: noise is drawn for the 84 images of
    # the two digits read, at a seed none of the 100 trials draws at
    rng = np.random.default_rng(7)
    pixels = np.clip(rng.normal(120, 40, size=(16, 96)), 0, 255).astype(np.uint8)
    ip, lp = tmp_path / "imgs.idx", tmp_path / "labs.idx"
    write_idx(pixels, np.repeat([8, 9, 3], [40, 44, 12]), ip, lp)
    noise_draws, trial_seeds = [], []
    add_noise, trial = mnist.add_white_noise, experiments.empirical_error

    def spied_noise(X, snr_db, seed):
        noise_draws.append((X.shape[1], seed))
        return add_noise(X, snr_db, seed)

    def spied_trial(*args):
        trial_seeds.append(args[-1])
        return trial(*args)

    monkeypatch.setattr(mnist, "add_white_noise", spied_noise)
    monkeypatch.setattr(experiments, "empirical_error", spied_trial)
    assert main(["mnist-stats", "--images", str(ip), "--labels", str(lp), "--n", "16",
                 "--n-test", "16", "--trials", "100", "--snr-db", "10", "--seed", "3"]) == 0
    assert json.loads(capsys.readouterr().out)["counts"] == [40, 44]
    assert len(trial_seeds) == 100
    [(columns, seed)] = noise_draws
    assert seed not in trial_seeds
    assert columns == 84


def three_digit_idx_pair(tmp_path, p, counts):
    """``counts`` images of digits 8, 9 and 3 in the IDX byte format, the
    three digits' pixels of different brightness."""
    rng = np.random.default_rng(11)
    pixels = np.concatenate([np.clip(rng.normal(level, 40, size=(p, count)), 0, 255)
                             for level, count in zip((90, 130, 200), counts)], axis=1)
    ip, lp = tmp_path / "imgs.idx", tmp_path / "labs.idx"
    write_idx(pixels.astype(np.uint8), np.repeat([8, 9, 3], counts), ip, lp)
    return str(ip), str(lp)


def test_mnist_stats_scalings_read_the_two_digits_with_or_without_noise(tmp_path, capsys):
    # an SNR of 1e308 dB adds zero noise, so both runs read the same pixels;
    # the 50 threes must move neither run's mean and rms scalings
    ip, lp = three_digit_idx_pair(tmp_path, 16, (40, 44, 50))
    args = ["mnist-stats", "--images", ip, "--labels", lp, "--n", "16", "--n-test", "16",
            "--trials", "2"]
    triples = []
    for extra in ([], ["--snr-db", "1e308"]):
        assert main([*args, *extra]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["counts"] == [40, 44]
        triples.append(out["discrepancy_by_scaling"])
    plain, noised = triples
    for name in ("unit", "raw", "mean", "rms"):
        np.testing.assert_allclose(plain[name], noised[name], rtol=1e-12, err_msg=name)


def test_mnist_stats_converts_only_the_two_digits(tmp_path, capsys):
    # 3000 eights and 2000 nines among 45000 threes: the tracemalloc peak
    # stays a small multiple of the two digits' float64 pixels (2.6x), where
    # converting every image before selecting two digits reached 11.4x
    p, counts = 64, (3000, 2000, 45000)
    ip, lp = three_digit_idx_pair(tmp_path, p, counts)
    tracemalloc.start()
    try:
        assert main(["mnist-stats", "--images", ip, "--labels", lp, "--n", "64",
                     "--n-test", "64", "--trials", "2"]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert json.loads(capsys.readouterr().out)["counts"] == [3000, 2000]
    assert peak <= 4 * p * (3000 + 2000) * 8


def test_sweep_json_file_ends_with_a_newline(tmp_path):
    # a path ending in .json takes the JSON rows, as stdout does; any other takes CSV
    config = write_config(tmp_path, small_sweep_doc())
    out = tmp_path / "rows.json"
    assert main(["sweep", "--config", config, "--out", str(out)]) == 0
    assert out.read_text().endswith("}\n")
    assert [row["axis"] for row in json.loads(out.read_text())["rows"]] == ["sigma2"]


SCIPY_BLOCKED_RUNS = """
import json
import sys


class NoScipy:
    def find_spec(self, name, path=None, target=None):
        if name.partition(".")[0] == "scipy":
            raise ImportError(f"import of {name} is blocked")


sys.meta_path.insert(0, NoScipy())
try:
    import scipy
except ImportError:
    pass
else:
    sys.exit("scipy was not blocked")
from lssvmlim.cli import main
for argv in json.loads(sys.argv[1]):
    if main(argv) != 0:
        sys.exit(f"{argv[0]} failed")
"""


def test_every_subcommand_runs_without_scipy(tmp_path):
    # with any scipy import made to fail: a prediction, a one-trial sweep, a
    # small histogram and convergence study, and both data commands
    data = tmp_path / "data.npy"
    np.save(data, np.random.default_rng(3).standard_normal((16, 40)))
    images, labels = synthetic_idx_pair(tmp_path)
    configs = {
        name: write_config(tmp_path, small_sweep_doc(**changes), f"{name}.json")
        for name, changes in (
            ("sweep", {}),
            ("histogram", {"n": 32, "n_test": 8, "trials": 2}),
            ("convergence", {"sizes": [[16, 16], [32, 16]], "trials": 1, "n_points": 6}),
        )
    }
    runs = [
        ["predict", "--config", str(Path(CONFIG_DIR, "sweep_width.json").resolve())],
        *([name, "--config", path] for name, path in configs.items()),
        ["estimate-tau", str(data)],
        ["mnist-stats", "--images", images, "--labels", labels, "--digit-a", "8",
         "--digit-b", "9", "--n", "64", "--n-test", "32", "--trials", "1"],
    ]
    proc = python_with_package("-c", SCIPY_BLOCKED_RUNS, json.dumps(runs),
                               stdout=subprocess.DEVNULL)
    _, err = proc.communicate(timeout=120)
    assert proc.returncode == 0, err


@pytest.mark.parametrize(
    "command, flag",
    [
        ("predict", "--format=csv"),
        ("predict", "--seed=1"),
        ("predict", "--trials=1"),
        ("histogram", "--format=json"),
        ("histogram", "--threshold=zero"),
        ("convergence", "--format=json"),
        ("convergence", "--threshold=zero"),
        ("estimate-tau", "--format=json"),
        ("estimate-tau", "--seed=1"),
        ("estimate-tau", "--trials=1"),
        ("estimate-tau", "--threshold=zero"),
        ("mnist-stats", "--format=json"),
        ("sweep", "--format=csv"),
        ("sweep", "--format=json"),
    ],
)
def test_a_flag_the_subcommand_would_ignore_is_a_usage_error(tmp_path, command, flag):
    operands = {
        "estimate-tau": [str(tmp_path / "data.npy")],
        "mnist-stats": ["--images", str(tmp_path / "images"), "--labels", str(tmp_path / "labels")],
    }.get(command, ["--config", identical_classes_config(tmp_path)])
    proc = python_with_package("-m", "lssvmlim.cli", command, *operands, flag,
                               stdout=subprocess.PIPE)
    out, err = proc.communicate(timeout=120)
    assert proc.returncode == 1, err
    assert out == "" and f"unrecognized arguments: {flag}" in err


def test_closed_stdout_exits_quietly(tmp_path):
    config = identical_classes_config(tmp_path)
    proc = python_with_package("-m", "lssvmlim.cli", "predict", "--config", config,
                               stdout=subprocess.PIPE)
    proc.stdout.close()  # the reader is gone before anything is written
    _, err = proc.communicate(timeout=120)
    assert "Traceback" not in err and "Error" not in err, err
    assert proc.returncode == 0


def test_a_reader_that_closes_early_ends_the_output_quietly(tmp_path):
    # 2 trials x 2 classes x 2000 scores: far more than a pipe buffers, so the
    # write is still pending when the reader closes after one byte
    config = write_config(tmp_path, skew_histogram_doc(n_test=2000, trials=2))
    proc = python_with_package("-m", "lssvmlim.cli", "histogram", "--full", "--config", config,
                               stdout=subprocess.PIPE)
    assert proc.stdout.read(1) == "{"
    proc.stdout.close()
    _, err = proc.communicate(timeout=120)
    assert (proc.returncode, err) == (0, "")


PARSERS_BUILT_AT_IMPORT = """
import argparse

built = []
init = argparse.ArgumentParser.__init__


def counting(self, *args, **kwargs):
    built.append(kwargs.get("prog"))
    init(self, *args, **kwargs)


argparse.ArgumentParser.__init__ = counting
import lssvmlim.cli

assert built == [], built
assert lssvmlim.cli.build_parser.cache_info().currsize == 0
"""


def test_importing_the_cli_builds_no_parser():
    proc = python_with_package("-c", PARSERS_BUILT_AT_IMPORT)
    _, err = proc.communicate(timeout=120)
    assert proc.returncode == 0, err


def test_ten_calls_build_the_parser_once(tmp_path, monkeypatch, capsys):
    built = []

    class CountingParser(cli._Parser):
        def __init__(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            super().__init__(*args, **kwargs)

    config = identical_classes_config(tmp_path)
    monkeypatch.setattr(cli, "_Parser", CountingParser)
    cli.build_parser.cache_clear()
    try:
        outputs = []
        for _ in range(10):
            assert main(["predict", "--config", config]) == 0
            outputs.append(capsys.readouterr().out)
    finally:
        cli.build_parser.cache_clear()  # drop the parser built from the counting class
    assert built.count("lssvmlim") == 1  # and one parser per subcommand beside it
    assert len(built) == 7
    assert outputs == outputs[:1] * 10


def run_alone(*argv):
    """stdout and exit code of ``argv`` in a fresh interpreter."""
    proc = python_with_package("-m", "lssvmlim.cli", *argv, stdout=subprocess.PIPE)
    out, _ = proc.communicate(timeout=120)
    return out, proc.returncode


def test_no_state_passes_from_one_call_to_the_next(tmp_path, capsys):
    sweep = write_config(tmp_path, small_sweep_doc(), "sweep.json")
    assert main(["sweep", "--config", sweep, "--seed", "7", "--trials", "1", "--full"]) == 0
    assert "failures" in capsys.readouterr().out
    assert main(["sweep", "--config", sweep, "--trials", "1"]) == 0
    assert (capsys.readouterr().out, 0) == run_alone("sweep", "--config", sweep, "--trials", "1")

    predict = identical_classes_config(tmp_path)
    assert main(["sweep", "--config", sweep, "--format", "csv"]) == 1
    assert "unrecognized arguments: --format csv" in capsys.readouterr().err
    assert main(["predict", "--config", predict]) == 0
    assert (capsys.readouterr().out, 0) == run_alone("predict", "--config", predict)
