import json

import numpy as np
import pytest

from lssvmlim.cli import main
from lssvmlim.mixture import MixtureModel, sample
from lssvmlim.mnist import write_idx

CONFIG_DIR = "configs"


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
    assert main(["estimate-tau", str(tmp_path / "missing.npy")]) == 2


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
    ],
    ids=["predict-gamma0", "predict-n0", "predict-gamma-negative", "predict-n1",
         "predict-gamma-nan", "predict-convention", "sweep-gamma0", "sweep-n_test1",
         "sweep-n1", "sweep-trials0", "histogram-gamma-inf", "histogram-trials-null"],
)
def test_invalid_config_is_a_one_line_data_error(tmp_path, capsys, command, bad):
    config = write_config(tmp_path, small_sweep_doc(**bad))
    assert main([command, "--config", config]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("lssvmlim: invalid input:") and captured.err.count("\n") == 1


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
