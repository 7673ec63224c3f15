"""README.md against the package: its library quick start runs as written,
its API list names what ``lssvmlim`` imports, module by module, and its
config reference lists the config keys the program reads."""

import ast
import re
from dataclasses import fields
from pathlib import Path

import lssvmlim
from lssvmlim.experiments import ExperimentConfig

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


def test_config_reference_lists_the_config_fields():
    # "| `key` | default | read by | meaning |", one row per key
    reference = section("CLI").split("### Config file reference")[1]
    table = reference[reference.index("| key |") :].split("\n\n")[0]
    listed = re.findall(r"^\| `(\w+)` \|", table, re.M)
    keys = [f.name for f in fields(ExperimentConfig) if f.name not in ("axis", "grid")]
    assert sorted(listed) == sorted(keys + ["sweep"])
