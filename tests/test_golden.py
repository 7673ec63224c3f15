"""Every subcommand's output on fixed inputs, pinned against ``tests/golden``.

Each case runs ``cli.main`` on a shipped config, on a small copy of one
written for the case, or on seeded data files written for the case (an IDX
pair for ``mnist-stats``, a matrix for ``estimate-tau``), and compares its
exit code, stderr and JSON output with the recorded file.  Integers and
strings must match exactly.  Floats match at the tolerances below, written
before any file was recorded; keys the golden file lacks pass, so an output
may grow.  ``tests/golden/record.py`` rewrites the files and prints what
moved (:func:`moves`); a rewrite is an edit to name in CHANGES.md, with the
keys that moved and by how much.
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
from lssvmlim.mnist import write_idx

ROOT = Path(__file__).resolve().parents[1]
CONFIGS = ROOT / "configs"
GOLDEN = Path(__file__).resolve().parent / "golden"

# (relative, absolute) tolerances
THEORY = (1e-9, 1e-15)  # predictions: threshold, error rates, score statistics
SCORES = (1e-6, 1e-12)  # trained scores and their statistics, which move with BLAS rounding
# a sweep's and mnist-stats' empirical error rates, and a sweep's trials'
# rates, may move by one test point: 1 / n_test
EMPIRICAL_RATES = ("emp_err", "emp_se", "empirical_weighted_error", "empirical_se")
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


def idx_pair(workdir):
    """The flags naming a seeded synthetic IDX pair written into ``workdir``:
    8 x 8 images of 60 eights, 75 nines and 25 threes, the three digits of
    different brightness, in shuffled order."""
    rng = np.random.default_rng(37)
    counts = (60, 75, 25)
    pixels = np.concatenate([rng.normal(level, 40, size=(64, count))
                             for level, count in zip((118, 126, 200), counts)], axis=1)
    labels = np.repeat([8, 9, 3], counts)
    order = rng.permutation(labels.size)
    images, labels_path = workdir / "images.idx", workdir / "labels.idx"
    write_idx(np.clip(pixels, 0, 255).astype(np.uint8)[:, order], labels[order], images,
              labels_path)
    return ["--images", str(images), "--labels", str(labels_path)]


def data_file(workdir, suffix):
    """The path of a seeded 12 x 30 matrix written into ``workdir`` as
    ``.npy`` or as comma-separated text, as a one-item argument list."""
    X = np.random.default_rng(38).uniform(0.0, 1.0, size=(12, 30))
    path = workdir / f"data.{suffix}"
    if suffix == "npy":
        np.save(path, X)
    else:
        np.savetxt(path, X, delimiter=",")
    return [str(path)]


MNIST = ["mnist-stats", "--n", "40", "--n-test", "24", "--trials", "3", "--seed", "5"]

# case name -> (argv before the inputs, the inputs: a shipped config's path, or a
# builder of a config document or of the arguments naming the files it writes)
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
    "mnist-stats": (MNIST, idx_pair),
    "mnist-stats-snr": ([*MNIST, "--snr-db", "10"], idx_pair),
    **{f"estimate-tau-{suffix}": (["estimate-tau"], lambda d, s=suffix: data_file(d, s))
       for suffix in ("npy", "csv")},
}


def run(name, workdir):
    """The exit code, stderr and parsed JSON output of case ``name``, whose
    files are written into ``workdir``."""
    argv, inputs = CASES[name]
    if callable(inputs):
        inputs = inputs(workdir)
    if isinstance(inputs, dict):
        config = workdir / "config.json"
        config.write_text(json.dumps(inputs))
        inputs = config
    if isinstance(inputs, Path):
        inputs = ["--config", str(inputs)]
    out, err = workdir / "out.json", io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main([*argv, *inputs, "--out", str(out)])
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


ABSENT = type("Absent", (), {"__repr__": lambda self: "absent"})()  # a key on one side only


def moves(old, new, path):
    """``(path, old value, new value, relative move)`` for every leaf at
    which ``new`` differs from ``old``, in the order of ``old``'s keys, then
    ``new``'s; the move is ``(new - old) / |old|`` for two numbers with
    ``old`` nonzero, and None otherwise.  A list of another length is one
    leaf, and a key on one side only reads as ``ABSENT`` on the other."""
    if isinstance(old, dict) and isinstance(new, dict):
        return [m for k in {**old, **new}
                for m in moves(old.get(k, ABSENT), new.get(k, ABSENT), f"{path}.{k}")]
    if isinstance(old, list) and isinstance(new, list) and len(old) == len(new):
        return [m for i, (o, n) in enumerate(zip(old, new)) for m in moves(o, n, f"{path}[{i}]")]
    if type(old) is type(new) and old == new:
        return []
    numbers = all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in (old, new))
    return [(path, old, new, (new - old) / abs(old) if numbers and old != 0 else None)]


def test_moves_names_each_changed_leaf_with_its_relative_move():
    old = {"exit": 0, "output": {"rows": [{"emp_se": 0.5, "axis": "sigma2"}], "tau": 2.0}}
    new = {"exit": 0, "output": {"rows": [{"emp_se": 0.55, "axis": "c1", "n": 64}], "tau": 2.0}}
    assert moves(old, new, "case") == [
        ("case.output.rows[0].emp_se", 0.5, 0.55, pytest.approx(0.1, rel=1e-12)),
        ("case.output.rows[0].axis", "sigma2", "c1", None),
        ("case.output.rows[0].n", ABSENT, 64, None),
    ]
    assert moves(old, old, "case") == []


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_matches_its_golden_file(name, tmp_path):
    want = json.loads((GOLDEN / f"{name}.json").read_text())
    got = run(name, tmp_path)
    config, argv = tmp_path / "config.json", CASES[name][0]
    n_test = (json.loads(config.read_text()).get("n_test", math.inf) if config.exists()
              else float(argv[argv.index("--n-test") + 1]) if "--n-test" in argv else math.inf)
    assert mismatches(got, want, name, 1.0 / n_test) == []
