"""Static check, in place of a linter: every name a ``hyperrag`` module
imports is used in that module.  An import kept on purpose carries
``# noqa: F401`` on its line."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "hyperrag"


def unused_imports(path: Path) -> list[str]:
    """``file:line: name`` for each imported name never read in the file."""
    source = path.read_text()
    lines = source.splitlines()
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = alias.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = alias.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [
        f"{path.name}:{lineno}: {name}"
        for name, lineno in imported.items()
        if name not in used and "# noqa: F401" not in lines[lineno - 1]
    ]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda path: path.name)
def test_every_import_is_used(path):
    assert unused_imports(path) == []


def test_unused_import_is_reported(tmp_path):
    module = tmp_path / "module.py"
    module.write_text(
        "import json\n"
        "import numpy as np\n"
        "from os import path, sep  # noqa: F401\n"
        "from .spectral import KnowledgeGraph, RelevanceVector\n"
        "\n"
        "def f(g: KnowledgeGraph):\n"
        "    return np.zeros(1)\n"
    )
    assert unused_imports(module) == ["module.py:1: json", "module.py:4: RelevanceVector"]
