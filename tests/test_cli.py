import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import lssvmlim
from lssvmlim.cli import main
from lssvmlim.mixture import MixtureModel, sample
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


def test_predict_writes_file(tmp_path):
    config = identical_classes_config(tmp_path)
    out_path = tmp_path / "report.json"
    assert main(["predict", "--config", config, "--out", str(out_path)]) == 0
    assert json.loads(out_path.read_text())["tau"] == pytest.approx(2.0)


def test_predict_missing_config_is_data_error(tmp_path, capsys):
    assert main(["predict", "--config", str(tmp_path / "nope.json")]) == 2
    assert "data error" in capsys.readouterr().err


def test_predict_invalid_json_is_data_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["predict", "--config", str(bad)]) == 2


def test_sweep_emits_13_row_csv(tmp_path):
    # the shipped slope-sweep grid has 13 points; scale the model down and
    # check the CSV contract end to end
    doc = json.loads(open(f"{CONFIG_DIR}/sweep_slope.json").read())
    doc["model"]["p"] = 32
    doc["n"] = 128
    doc["n_test"] = 16
    doc["trials"] = 2
    config = write_config(tmp_path, doc)
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--config", config, "--out", str(out), "--format", "csv"]) == 0
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 14  # header + 13 grid rows
    assert lines[0].startswith("axis,value,n,p,trials,emp_err")
    assert all(line.split(",")[0] == "fprime" for line in lines[1:])


def test_sweep_json_full_includes_trials(tmp_path):
    doc = json.loads(open(f"{CONFIG_DIR}/sweep_width.json").read())
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
    doc = json.loads(open(f"{CONFIG_DIR}/sweep_width.json").read())
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


def test_mnist_stats_bad_file_is_data_error(tmp_path, capsys):
    junk = tmp_path / "junk.idx"
    junk.write_bytes(b"\x00\x00\x00\x00rest")
    assert main(["mnist-stats", "--images", str(junk), "--labels", str(junk)]) == 2
    assert "data error" in capsys.readouterr().err


def small_sweep_doc(**changes):
    doc = json.loads(open(f"{CONFIG_DIR}/sweep_width.json").read())
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
        ("predict", {"convention": "plusminus"}),
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
    ],
    ids=["predict-gamma0", "predict-n0", "predict-gamma-negative", "predict-n1",
         "predict-gamma-nan", "predict-convention", "sweep-gamma0", "sweep-n_test1",
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
         "sweep-c0-p-null", "predict-spike-huge", "predict-toeplitz-trace-huge"],
)
def test_invalid_config_is_a_one_line_data_error(tmp_path, capsys, recwarn, command, bad):
    # a dict of changes to the small sweep document, or a whole document
    config = write_config(tmp_path, small_sweep_doc(**bad) if isinstance(bad, dict) else bad)
    assert main([command, "--config", config]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("lssvmlim: invalid input:") and captured.err.count("\n") == 1
    assert [str(w.message) for w in recwarn if w.category is RuntimeWarning] == []


@pytest.mark.parametrize("case", ["estimate-tau-data", "predict-cov2-file", "predict-out"])
def test_directory_path_is_a_one_line_data_error(tmp_path, capsys, case):
    cov2 = {"file": str(tmp_path)} if case == "predict-cov2-file" else "identity"
    config = write_config(tmp_path, small_sweep_doc(model=small_model(cov2=cov2)))
    argv = {
        "estimate-tau-data": ["estimate-tau", str(tmp_path)],
        "predict-cov2-file": ["predict", "--config", config],
        "predict-out": ["predict", "--config", config, "--out", str(tmp_path)],
    }[case]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("lssvmlim: data error:") and captured.err.count("\n") == 1


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


def test_convergence_rejects_fisher_labels(tmp_path, capsys):
    doc = small_sweep_doc(convention="fisher", sizes=[[16, 16]], n_points=6)
    assert main(["convergence", "--config", write_config(tmp_path, doc)]) == 2
    assert "convention" in capsys.readouterr().err


def test_fisher_sweep_reports_the_threshold_of_predict(tmp_path, capsys):
    config = write_config(tmp_path, small_sweep_doc(convention="fisher"))
    assert main(["predict", "--config", config]) == 0
    predicted = json.loads(capsys.readouterr().out)
    assert predicted["label_convention"] == "fisher"
    assert main(["sweep", "--config", config]) == 0
    row = json.loads(capsys.readouterr().out)["rows"][0]
    assert row["threshold"] == predicted["threshold"]
    assert row["th_weighted"] == predicted["weighted"]


def test_fisher_bias_threshold_is_the_zero_threshold(tmp_path, capsys):
    # fisher scores centre on 0, so the bias rule is the zero rule even when
    # c2 - c1 is not 0
    doc = small_sweep_doc(convention="fisher")
    doc["model"]["c1"] = 0.25
    config = write_config(tmp_path, doc)
    reports = []
    for rule in ("bias", "zero"):
        assert main(["predict", "--config", config, "--threshold", rule]) == 0
        reports.append(json.loads(capsys.readouterr().out))
    keys = ("threshold", "eps1", "eps2", "weighted")
    assert [reports[0][k] for k in keys] == [reports[1][k] for k in keys]
    assert reports[0]["threshold"] == 0.0


@pytest.mark.parametrize(
    "flags",
    [["--gamma", "0"], ["--trials", "0"], ["--n-test", "1"]],
    ids=["gamma0", "trials0", "n_test1"],
)
def test_mnist_stats_invalid_flag_is_a_one_line_data_error(tmp_path, capsys, flags):
    ip, lp = synthetic_idx_pair(tmp_path)
    # the pool holds these sizes, so only the bad flag can fail the command
    args = ["--images", ip, "--labels", lp, "--n", "64", "--n-test", "32", *flags]
    assert main(["mnist-stats", *args]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("lssvmlim: invalid input:") and captured.err.count("\n") == 1


def test_mnist_stats_runs_ten_trials_by_default(tmp_path, capsys):
    ip, lp = synthetic_idx_pair(tmp_path)
    assert main(["mnist-stats", "--images", ip, "--labels", lp, "--n", "32", "--n-test", "16"]) == 0
    assert json.loads(capsys.readouterr().out)["trials"] == 10


def test_sweep_json_file_ends_with_a_newline(tmp_path):
    config = write_config(tmp_path, small_sweep_doc())
    out = tmp_path / "sweep.json"
    assert main(["sweep", "--config", config, "--out", str(out), "--format", "json"]) == 0
    assert out.read_text().endswith("}\n")


def test_toml_config_predicts_as_its_json_twin(tmp_path, capsys):
    pytest.importorskip("tomllib")
    doc = small_sweep_doc()

    def toml_lines(table):
        return [f"{k} = {json.dumps(v)}" for k, v in table.items() if not isinstance(v, dict)]

    lines = toml_lines(doc)
    for name, table in doc.items():
        if isinstance(table, dict):
            lines += [f"[{name}]", *toml_lines(table)]
    toml_path = tmp_path / "config.toml"
    toml_path.write_text("\n".join(lines) + "\n")
    outputs = []
    for path in (write_config(tmp_path, doc), str(toml_path)):
        assert main(["predict", "--config", path]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]


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
        ("sweep", "--format=csv"),  # CSV goes only to a file: --out is missing
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
    reason = {("sweep", "--format=csv"): "--format csv requires --out"}.get(
        (command, flag), f"unrecognized arguments: {flag}")
    assert out == "" and reason in err


def test_closed_stdout_exits_quietly(tmp_path):
    config = identical_classes_config(tmp_path)
    proc = python_with_package("-m", "lssvmlim.cli", "predict", "--config", config,
                               stdout=subprocess.PIPE)
    proc.stdout.close()  # the reader is gone before anything is written
    _, err = proc.communicate(timeout=120)
    assert "Traceback" not in err and "Error" not in err, err
    assert proc.returncode == 0
