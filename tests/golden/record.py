"""Rewrite the golden outputs that ``tests/test_golden.py`` compares against,
from the package on the import path.

Run from the repository root, for every case or for the cases named:

    PYTHONPATH=src:tests python tests/golden/record.py [case ...]

Before it rewrites a file, it prints each leaf that differs from the file it
replaces, as path, old value, new value and relative move, or ``unchanged``
(``new`` for a case with no file yet).  A rewrite is an edit to name in
CHANGES.md, with the keys that moved and by how much.
"""

import json
import sys
import tempfile
from pathlib import Path

from test_golden import CASES, GOLDEN, moves, run

for name in sys.argv[1:] or sorted(CASES):
    with tempfile.TemporaryDirectory() as workdir:
        result = run(name, Path(workdir))
    path = GOLDEN / f"{name}.json"
    moved = moves(json.loads(path.read_text()), result, name) if path.exists() else None
    status = " new" if moved is None else "" if moved else " unchanged"
    print(f"{name} exit {result['exit']}{status}")
    for leaf, old, new, rel in moved or ():
        print(f"  {leaf}: {old!r} -> {new!r}" + ("" if rel is None else f" ({rel:+.3g})"))
    path.write_text(json.dumps(result, indent=1) + "\n")
