"""Rewrite the golden outputs that ``tests/test_golden.py`` compares against,
from the package on the import path.

Run from the repository root, for every case or for the cases named:

    PYTHONPATH=src:tests python tests/golden/record.py [case ...]

A rewrite is an edit to name in CHANGES.md, with the keys that moved and by
how much.
"""

import json
import sys
import tempfile
from pathlib import Path

from test_golden import CASES, GOLDEN, run

for name in sys.argv[1:] or sorted(CASES):
    with tempfile.TemporaryDirectory() as workdir:
        result = run(name, Path(workdir))
    (GOLDEN / f"{name}.json").write_text(json.dumps(result, indent=1) + "\n")
    print(name, "exit", result["exit"])
