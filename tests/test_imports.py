"""Every name imported in the package, the tests and the scripts is used.

The repository runs no linter, so this scans the syntax tree of each file:
a name bound by an import must be read somewhere in that file or be listed
in its __all__.  Scope is not tracked, so a name read in any function of
the file counts as used.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted(path for folder in ("src/pitmesh", "tests", "scripts")
               for path in (ROOT / folder).glob("*.py"))


def unused_imports(source: str) -> list:
    """'name (line n)' for each imported name the source never reads."""
    tree = ast.parse(source)
    imported = {}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            used.update(ast.literal_eval(node.value))
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in used)


def test_files_found():
    folders = {path.parent.name for path in FILES}
    assert folders == {"pitmesh", "tests", "scripts"}


@pytest.mark.parametrize("path", FILES,
                         ids=lambda path: str(path.relative_to(ROOT)))
def test_no_unused_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_scanner_flags_unused_and_keeps_used():
    source = ("from __future__ import annotations\n"
              "import os\n"
              "import numpy as np\n"
              "import scipy.sparse\n"
              "from a import b, c as d\n"
              "from e import *\n"
              "__all__ = ['b']\n"
              "def f():\n"
              "    from g import h\n"
              "    return np.zeros(1), scipy.sparse\n")
    assert unused_imports(source) == ["d (line 5)", "h (line 9)",
                                      "os (line 2)"]
