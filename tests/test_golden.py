"""Every subcommand's output on fixed inputs, pinned against ``tests/golden``.

Each case runs ``cli.main`` on a shipped config, or on a small copy of one
written for the case, and compares its exit code, stderr and JSON output with
the recorded file.  Integers and strings must match exactly.  Floats match at
the tolerances below, written before any file was recorded; keys the golden
file lacks pass, so an output may grow.  ``tests/golden/record.py`` rewrites
the files; a rewrite is an edit to name in CHANGES.md, with the keys that
moved and by how much.
"""

import contextlib
import io
import json
import math
from pathlib import Path

import numpy as np
import pytest

from lssvmlim.cli import main
from lssvmlim.mixture import ToeplitzCov

ROOT = Path(__file__).resolve().parents[1]
CONFIGS = ROOT / "configs"
GOLDEN = Path(__file__).resolve().parent / "golden"

# (relative, absolute) tolerances
THEORY = (1e-9, 1e-15)  # predictions: threshold, error rates, score statistics
SCORES = (1e-6, 1e-12)  # trained scores and their statistics, which move with BLAS rounding
# a sweep's empirical error rates, and its trials' rates, may move by one
# test point: 1 / n_test
EMPIRICAL_RATES = ("emp_err", "emp_se")
TRIAL_RATES = ("eps1", "eps2", "weighted")
EMPIRICAL = ("ks1", "ks2", "mean_class1", "mean_class2", "se_class1", "se_class2",
             "scores1", "scores2", "median_scaled_gap")


def shipped(name):
    return json.loads((CONFIGS / f"{name}.json").read_text())


def small(name, **keys):
    """A copy of a shipped config at p = 64 or below, with ``keys`` replaced."""
    doc = shipped(name)
    if "p" in doc["model"]:
        doc["model"]["p"] = 64
    return dict(doc, trials=2, **keys)


DENSE_GRIDS = {"c1": [0.3, 0.5, 0.7], "mu_offset": [0.0, 1.5, 3.0], "sigma2": [0.5, 1.0, 2.0, 4.0]}


def dense(workdir, axis):
    """A sweep on ``axis`` whose class-2 covariance is a dense p = 16 ``.npy``
    file, at the unequal split c1 = 0.3; the file is written into ``workdir``."""
    path = workdir / "cov2.npy"
    np.save(path, np.asarray(ToeplitzCov(0.4, 1.5, 16)))
    doc = small("sweep_width", n=40, n_test=20, sweep={"axis": axis, "grid": DENSE_GRIDS[axis]})
    doc["model"].update(p=16, cov2={"file": str(path)}, c1=0.3)
    return doc

# case name -> (argv before the config, the config: a shipped path or a builder)
CASES = {
    **{f"predict-{name}": (["predict"], CONFIGS / f"{name}.json")
       for name in ("convergence", "histogram_skew", "sweep_ratio", "sweep_slope", "sweep_width")},
    "sweep-width": (["sweep", "--full"], lambda d: small("sweep_width", n=64, n_test=64)),
    "sweep-slope": (["sweep", "--full"], lambda d: small("sweep_slope", n=64, n_test=64)),
    "sweep-ratio": (["sweep", "--full"], lambda d: small("sweep_ratio", n=64, n_test=64)),
    "histogram": (["histogram", "--full"], lambda d: small("histogram_skew", n=64, n_test=32)),
    "convergence": (["convergence"],
                    lambda d: small("convergence", sizes=[[16, 32], [32, 64]], n_points=20)),
    **{f"dense-sweep-{axis}": (["sweep", "--full"], lambda d, a=axis: dense(d, a))
       for axis in DENSE_GRIDS},
    **{f"dense-predict-{axis}": (["predict"], lambda d, a=axis: dense(d, a)) for axis in DENSE_GRIDS},
}


def run(name, workdir):
    """The exit code, stderr and parsed JSON output of case ``name``, whose
    files are written into ``workdir``."""
    argv, config = CASES[name]
    if callable(config):
        doc, config = config(workdir), workdir / "config.json"
        config.write_text(json.dumps(doc))
    out, err = workdir / "out.json", io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main([*argv, "--config", str(config), "--out", str(out)])
    output = json.loads(out.read_text()) if out.exists() else None
    return {"exit": code, "stderr": err.getvalue(), "output": output}


def mismatches(got, want, path, one_point, key=""):
    """Messages for every value of ``want`` that ``got`` misses; ``key`` is
    the name the value is stored under, and ``one_point`` is 1 / n_test."""
    if isinstance(want, dict):
        if not isinstance(got, dict):
            return [f"{path}: {got!r} is not an object"]
        return [m for k, v in want.items()
                for m in (mismatches(got[k], v, f"{path}.{k}", one_point, k) if k in got
                          else [f"{path}.{k} missing"])]
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return [f"{path}: {got!r} has not {len(want)} entries"]
        return [m for i, (g, w) in enumerate(zip(got, want))
                for m in mismatches(g, w, f"{path}[{i}]", one_point, key)]
    if isinstance(want, float) and isinstance(got, (int, float)) and not isinstance(got, bool):
        if key in EMPIRICAL_RATES or key in TRIAL_RATES and ".trials." in path:
            ok = abs(got - want) <= one_point + 1e-12
        else:
            rtol, atol = SCORES if key in EMPIRICAL else THEORY
            ok = math.isfinite(got) and abs(got - want) <= atol + rtol * abs(want)
        return [] if ok else [f"{path}: {got!r} != {want!r}"]
    return [] if type(got) is type(want) and got == want else [f"{path}: {got!r} != {want!r}"]


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_matches_its_golden_file(name, tmp_path):
    want = json.loads((GOLDEN / f"{name}.json").read_text())
    got = run(name, tmp_path)
    config = tmp_path / "config.json"
    doc = json.loads(config.read_text()) if config.exists() else {}
    assert mismatches(got, want, name, 1.0 / doc.get("n_test", math.inf)) == []
