"""Seeded mutations of small copies of the shipped configs, of ``mnist-stats``
flags and of ``estimate-tau`` data files, run through ``cli.main``: whatever
the input holds, a run ends in exit 0, 1, 2 or 3 with at most one line on
stderr, raises no exception and no warning, and writes JSON with no NaN or
infinity.

Each config case replaces one value of a copy, or two values at once, with a
value drawn by a seeded ``random.Random`` from a fixed pool.  The copies have
p <= 32, n <= 32, trials = 2 and at most two grid values; one of them, at
p = 4, holds its means and covariances as inline lists, so that mutations
reach their elements.  Size and count keys draw only from ``SMALL``, whose
numbers are at most 3.  An ``mnist-stats`` case replaces one or two flag
values, or drops a flag, over a seeded 4 x 4-pixel IDX pair of three digits;
an ``estimate-tau`` case writes a small ``.npy`` array of a drawn dtype and
shape, or CSV text with one or two cells replaced.  No case allocates much or
runs long: the whole file takes about 6 s on a 2-core x86-64 machine.
"""

import contextlib
import copy
import io
import json
import math
import random
import warnings
from pathlib import Path

import numpy as np
import pytest

from helpers import MALFORMED_IDX
from lssvmlim.cli import main
from lssvmlim.mixture import ToeplitzCov
from lssvmlim.mnist import write_idx

CONFIGS = Path(__file__).resolve().parents[1] / "configs"
CASES = 1000  # mutated copies per subcommand
SEED = 37

# size and count keys: every JSON type, but only small numbers
SIZE_KEYS = {"p", "n", "n_test", "trials", "n_points", "sizes"}
SMALL = [None, True, False, "2", "", [], {}, [2], 0, -1, 1, 2, 3, 2.5, 1e-300,
         math.nan, math.inf, -math.inf]
POOL = [None, True, False, "", "oops", "2", "gaussian", "local", "auto", "zeros", "identity",
        "c0", "c1", "mu_offset", "fprime", "sigma2", "bias", "zero", "unit_spike(1,",
        "unit_spike(99, 1.0)", "unit_spike(1, nan)", "toeplitz(0.4)", "toeplitz(1.5, 1.0)",
        "boosted_toeplitz(0.4, 1e308)", "identity(", "zeros(3)", [], [1.0], [1.0, 1.0], {},
        {"kind": "gaussian"}, {"file": "missing.npy"}, 0, 0.0, -0.0, 1, -1, 0.5, 1e308, -1e308,
        5e-324, -5e-324, math.nan, math.inf, -math.inf, 2**63, -(2**63)]

# fields JSON writes as null when they cannot be computed (README)
NULLABLE = {"emp_err", "emp_se", "value", "se_class1", "se_class2", "empirical_se"}


def small_copy(name):
    """A copy of ``configs/<name>.json`` small enough to run in milliseconds."""
    doc = json.loads((CONFIGS / f"{name}.json").read_text())
    doc["model"]["p"] = 16
    doc.update(n=32, n_test=16, trials=2, sizes=[[16, 16], [24, 32]], n_points=8)
    if "sweep" in doc:  # two values that keep n <= 32 on a c0 axis
        doc["sweep"]["grid"] = doc["sweep"]["grid"][-2:] if doc["sweep"]["axis"] == "c0" else (
            doc["sweep"]["grid"][:1] + doc["sweep"]["grid"][-1:])
    return doc


def inline_copy():
    """A p = 4 copy of ``sweep_width`` whose means and covariances are inline lists."""
    doc = small_copy("sweep_width")
    doc["model"].update(p=4, mean1=[2.0, 0.0, 0.0, 0.0], mean2=[0.0, 2.0, 0.0, 0.0],
                        cov1=np.eye(4).tolist(), cov2=np.asarray(ToeplitzCov(0.4, 1.5, 4)).tolist())
    doc["sizes"] = [[16, 4], [24, 4]]
    return doc


BASES = {path.stem: small_copy(path.stem) for path in sorted(CONFIGS.glob("*.json"))}
BASES["inline"] = inline_copy()


def paths(node, prefix=()):
    """The path of every value inside ``node``, containers included."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        yield (*prefix, key)
        if isinstance(value, (dict, list)):
            yield from paths(value, (*prefix, key))


def mutate(doc, rng):
    """A copy of ``doc`` with one or two values replaced, and the replacements."""
    doc = json.loads(json.dumps(doc))
    changes = []
    for _ in range(rng.choice((1, 2))):
        path = rng.choice(list(paths(doc)))
        *parents, last = path
        node = doc
        for key in parents:
            node = node[key]
        value = rng.choice(SMALL if SIZE_KEYS & {*path} else POOL)
        node[last] = copy.deepcopy(value)  # a later change inside it leaves the pool as it is
        changes.append((".".join(map(str, path)), value))
    return doc, changes


def run(command, doc, workdir):
    """Every way the run of ``command`` on ``doc`` breaks the exit contract."""
    config = workdir / "config.json"
    config.write_text(json.dumps(doc))
    argv = [command, "--config", str(config)]
    if command in ("sweep", "histogram"):
        argv.append("--full")
    return broken_contract(argv, workdir)


def broken_contract(argv, workdir):
    """Every way ``main([*argv, "--out", <a file in workdir>])`` breaks the exit contract."""
    out = workdir / "out.json"
    out.unlink(missing_ok=True)
    argv = [*argv, "--out", str(out)]
    stdout, stderr = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        warnings.simplefilter("always")
        try:
            code = main(argv)
        except Exception as exc:  # noqa: BLE001 - the finding
            return [f"raised {exc!r}"]
    broken = [f"warned {w.category.__name__}: {w.message}" for w in caught]
    if code not in (0, 1, 2, 3):
        broken.append(f"exit {code!r}")
    err = stderr.getvalue()
    if code == 1 and err.startswith("usage: "):  # argparse's usage, then the one line
        err = err[err.find("\nlssvmlim") + 1:]
    if err.count("\n") > 1 or stdout.getvalue():
        broken.append(f"printed {stdout.getvalue()!r} and {stderr.getvalue()!r}")
    if code == 0:
        broken += non_finite(json.loads(out.read_text(), parse_constant=NonFinite), "output")
    return broken


class NonFinite(str):
    """A ``NaN``, ``Infinity`` or ``-Infinity`` token of the output."""


def non_finite(value, path, key=None):
    """Each NaN or infinity in parsed JSON, and each null outside ``NULLABLE``."""
    if isinstance(value, dict):
        return [m for k, v in value.items() for m in non_finite(v, f"{path}.{k}", k)]
    if isinstance(value, list):
        return [m for i, v in enumerate(value) for m in non_finite(v, f"{path}[{i}]", key)]
    if isinstance(value, NonFinite) or value is None and key not in NULLABLE:
        return [f"{path} is {value}"]
    return []


@pytest.mark.parametrize("command", ["predict", "sweep", "histogram", "convergence"])
def test_mutated_configs_keep_the_exit_contract(tmp_path, command):
    rng = random.Random(f"{SEED}-{command}")
    findings = []
    for _ in range(CASES):
        name = rng.choice(sorted(BASES))
        doc, changes = mutate(BASES[name], rng)
        findings += [f"{name} {changes}: {m}" for m in run(command, doc, tmp_path)]
    assert findings == []


# mnist-stats: each flag's base value, and the pool a replacement is drawn from
MNIST_FLAGS = {"--digit-a": "8", "--digit-b": "9", "--sigma2": "1.0", "--gamma": "1.0",
               "--n": "8", "--n-test": "8", "--snr-db": "20", "--seed": "3", "--trials": "2",
               "--threshold": "optimal"}
MNIST_SIZE_FLAGS = {"--n", "--n-test", "--trials"}
SMALL_FLAGS = ["", "x", "0", "-1", "1", "2", "3", "2.5", "1e0", "nan", "inf"]
FLAG_POOL = ["", "oops", "0", "-0", "1", "-1", "3", "7", "8", "9", "255", "256", "-300", "0.5",
             "2.5", "1e308", "-1e308", "5e-324", "-5e-324", "nan", "inf", "-inf",
             "9223372036854775808", "optimal", "zero", "bias"]


def idx_files(workdir):
    """Paths of a seeded IDX pair of 4 x 4 images (40 eights, 30 nines and 10
    threes, of different brightness, shuffled) and of files that are no such
    pair: each other, a missing file, a directory and the malformed images."""
    rng = np.random.default_rng(SEED)
    counts = (40, 30, 10)
    pixels = np.concatenate([rng.normal(level, 40, size=(16, count))
                             for level, count in zip((110, 130, 200), counts)], axis=1)
    labels = np.repeat([8, 9, 3], counts)
    order = rng.permutation(labels.size)
    images, labels_path = workdir / "images.idx", workdir / "labels.idx"
    write_idx(np.clip(pixels, 0, 255).astype(np.uint8)[:, order], labels[order], images,
              labels_path)
    others = [str(images), str(labels_path), str(workdir / "missing.idx"), str(workdir)]
    for name, data in MALFORMED_IDX.items():
        (workdir / name).write_bytes(data)
        others.append(str(workdir / name))
    return str(images), str(labels_path), others


def test_mutated_mnist_stats_flags_keep_the_exit_contract(tmp_path):
    rng = random.Random(f"{SEED}-mnist-stats")
    images, labels, paths_pool = idx_files(tmp_path)
    base = {"--images": images, "--labels": labels, **MNIST_FLAGS}
    findings = []
    for _ in range(CASES):
        flags, changes = dict(base), []
        for _ in range(rng.choice((1, 2))):
            flag = rng.choice(sorted(flags))
            if rng.random() < 0.1:
                del flags[flag]
                changes.append((flag, None))
                continue
            pool = paths_pool if flag in ("--images", "--labels") else (
                SMALL_FLAGS if flag in MNIST_SIZE_FLAGS else FLAG_POOL)
            flags[flag] = rng.choice(pool)
            changes.append((flag, flags[flag]))
        argv = ["mnist-stats", *(item for pair in flags.items() for item in pair)]
        findings += [f"{changes}: {m}" for m in broken_contract(argv, tmp_path)]
    assert findings == []


# estimate-tau: the dtypes and shapes of the .npy arrays, the scales of their
# values, the specials put into them, and the cells put into CSV text
DTYPES = ["float64", "float32", "float16", "int8", "int64", "uint8", "bool", "complex128",
          "U3", "datetime64[s]", [("a", "f8")], "object"]
SHAPES = [(), (0,), (5,), (1, 1), (1, 5), (5, 1), (3, 0), (0, 3), (3, 4), (2, 3, 4)]
SCALES = [1.0, 1e-300, 1e154, 1e300, 1e308]
SPECIALS = [None, 0.0, math.nan, math.inf, -math.inf, 5e-324]
CELLS = ["", " ", "nan", "inf", "-inf", "oops", "1e308", "-1e308", "5e-324", "1e999", "1,2",
         "True", "0x10", "1_000", "# 3", "\"2\""]


def data_case(rng, workdir):
    """A data file of a drawn kind, written into ``workdir``, and what it holds."""
    path = workdir / "data"  # the subcommand tells .npy from CSV by content
    kind = rng.choice(("npy", "npy", "csv", "csv", "npz", "truncated"))
    shape = rng.choice(SHAPES)
    values = np.random.default_rng(rng.randrange(2**32)).uniform(-1.0, 1.0, shape)
    values *= rng.choice(SCALES)
    special = rng.choice(SPECIALS)
    if special is not None and values.size:
        values.flat[rng.randrange(values.size)] = special
    if kind == "csv":
        table = np.atleast_2d(values) if values.ndim <= 2 else values.reshape(len(values), -1)
        cells = [[repr(v) for v in row] or [""] for row in table.tolist()] or [[""]]
        for _ in range(rng.choice((1, 2))):
            row = rng.choice(cells)
            row[rng.randrange(len(row))] = rng.choice(CELLS)
        path.write_text("\n".join(",".join(row) for row in cells) + rng.choice(("", "\n")))
        return path, (kind, shape, special, cells)
    dtype = rng.choice(DTYPES)
    with warnings.catch_warnings():  # casting NaN or a huge value to an integer warns
        warnings.simplefilter("ignore")
        array = values.astype("int64" if dtype == "datetime64[s]" else dtype).astype(dtype)
    with path.open("wb") as fh:
        (np.savez if kind == "npz" else np.save)(fh, array)
    if kind == "truncated":
        path.write_bytes(path.read_bytes()[:rng.randrange(1, 140)])
    return path, (kind, dtype, shape, special)


def test_mutated_estimate_tau_files_keep_the_exit_contract(tmp_path):
    rng = random.Random(f"{SEED}-estimate-tau")
    findings = []
    for _ in range(CASES):
        path, case = data_case(rng, tmp_path)
        findings += [f"{case}: {m}" for m in broken_contract(["estimate-tau", str(path)], tmp_path)]
    assert findings == []
