"""README.md against the package: its library quick start runs as written,
and its API list names what ``lssvmlim`` imports, module by module."""

import ast
import re
from pathlib import Path

import lssvmlim

README = Path(__file__).resolve().parents[1] / "README.md"
INIT = Path(lssvmlim.__file__)


def section(title):
    """The text of README's ``## title`` section, up to the next heading."""
    text = README.read_text()
    start = text.index(f"\n## {title}\n")
    end = text.find("\n## ", start + 1)
    return text[start : end if end >= 0 else None]


def test_quick_start_runs_as_written(capsys):
    code = re.search(r"```python\n(.*?)```", section("Quick start (library)"), re.S).group(1)
    namespace = {}
    exec(compile(code, str(README), "exec"), namespace)
    assert namespace["assigned"].shape == (512,)
    assert "predicted weighted error" in capsys.readouterr().out


def test_library_api_lists_what_the_package_imports():
    # "- **Group** (`module`): `name`, ... `name` (what it does), ..."
    listed = {}
    for module, names in re.findall(r"^- \*\*[^*]+\*\* \(`(\w+)`\): (.*?)(?=^- |^$)",
                                    section("Library API"), re.S | re.M):
        names = re.sub(r"\([^)]*\)", "", names)  # methods and notes in parentheses
        listed[module] = set(re.findall(r"`(\w+)`", names))
    imported = {
        node.module: {alias.name for alias in node.names}
        for node in ast.walk(ast.parse(INIT.read_text()))
        if isinstance(node, ast.ImportFrom)
    }
    assert listed == imported
