"""Count the code, docstring and total lines of the ``lssvmlim`` sources.

Run from the repository root, for ``src/lssvmlim`` or for the files and
directories named:

    python tools/src_lines.py [path ...]

Docstring lines are those spanned by module, class and function docstrings,
found with ``ast``.  Code lines are the other lines that hold a token besides
comments and line ends, found with ``tokenize``; a line a multi-line string
spans holds that token.  The total is the count of physical lines.
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
        tokenize.ENDMARKER, tokenize.ENCODING}


def count(source: str):
    """``(code, docstring, total)`` lines of the Python source text ``source``."""
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant) \
                    and isinstance(body[0].value.value, str):
                docstrings.update(range(body[0].lineno, body[0].end_lineno + 1))
    tokens = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in SKIP:
            tokens.update(range(tok.start[0], tok.end[0] + 1))
    return len(tokens - docstrings), len(docstrings), len(source.splitlines())


def main(argv):
    roots = [Path(a) for a in argv] or [Path(__file__).resolve().parents[1] / "src" / "lssvmlim"]
    files = sorted(f for r in roots for f in ([r] if r.is_file() else r.rglob("*.py")))
    totals = [sum(c) for c in zip(*(count(f.read_text()) for f in files))]
    print("code {} docstring {} total {}".format(*totals))


if __name__ == "__main__":
    main(sys.argv[1:])
