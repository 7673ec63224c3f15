"""Seeded mutations of small copies of the shipped configs, run through
``cli.main``: whatever a config holds, a run ends in exit 0, 1, 2 or 3 with
at most one line on stderr, raises no exception and no warning, and writes
JSON with no NaN or infinity.

Each case replaces one value of a copy, or two values at once, with a value
drawn by a seeded ``random.Random`` from a fixed pool.  The copies have
p <= 32, n <= 32, trials = 2 and at most two grid values, and size and count
keys draw only from ``SMALL``, whose numbers are at most 3, so no case
allocates much or runs long: ``CASES`` cases per subcommand take about 3 s
for all four together on a 2-core x86-64 machine.
"""

import contextlib
import copy
import io
import json
import math
import random
import warnings
from pathlib import Path

import pytest

from lssvmlim.cli import main

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


BASES = {path.stem: small_copy(path.stem) for path in sorted(CONFIGS.glob("*.json"))}


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
    config, out = workdir / "config.json", workdir / "out.json"
    config.write_text(json.dumps(doc))
    out.unlink(missing_ok=True)
    argv = [command, "--config", str(config), "--out", str(out)]
    if command in ("sweep", "histogram"):
        argv.append("--full")
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
    if stderr.getvalue().count("\n") > 1 or stdout.getvalue():
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
