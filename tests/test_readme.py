"""Every solver constant and module name README.md quotes matches the code.

The README names constants as `NAME = value`.  Exactly one pitmesh module
must bind NAME at module level, and to that value, so a constant that is
renamed, moved into two modules or retuned cannot leave the README behind.
It names functions and classes as `module.Name`, and each must exist in
pitmesh.module, so a deleted or renamed one cannot either.
"""

import ast
import importlib
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
QUOTED = re.findall(r"`(_?[A-Z][A-Z0-9_]*) = ([^`]+)`",
                    (ROOT / "README.md").read_text(encoding="utf-8"))


def module_constants() -> dict:
    """NAME -> [(module, value)] for each module-level binding in pitmesh.

    value is None where the right-hand side is not a literal.
    """
    found = {}
    for path in sorted((ROOT / "src" / "pitmesh").glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if not isinstance(node, ast.Assign):
                continue
            try:
                value = ast.literal_eval(node.value)
            except ValueError:
                value = None
            for target in node.targets:
                if isinstance(target, ast.Name):
                    found.setdefault(target.id, []).append((path.stem, value))
    return found


CONSTANTS = module_constants()
MODULES = {path.stem for path in (ROOT / "src" / "pitmesh").glob("*.py")}
# `module.Name` where module is a pitmesh module, not `np.take` or a file
NAMED = sorted({f"{module}.{name}" for module, name in re.findall(
    r"`([a-z_]+)\.([A-Za-z_]\w*)`",
    (ROOT / "README.md").read_text(encoding="utf-8")) if module in MODULES})


def test_readme_quotes_constants():
    assert QUOTED


@pytest.mark.parametrize("name, value", QUOTED, ids=[n for n, _ in QUOTED])
def test_quoted_constant_matches_its_definition(name, value):
    bindings = CONSTANTS.get(name, [])
    assert len(bindings) == 1, \
        f"{name} is bound in {[module for module, _ in bindings]}"
    module, actual = bindings[0]
    assert actual == ast.literal_eval(value), \
        f"README quotes {name} = {value}; pitmesh.{module} has {actual!r}"


def test_readme_names_module_objects():
    assert NAMED


@pytest.mark.parametrize("dotted", NAMED)
def test_named_object_exists(dotted):
    module, name = dotted.split(".")
    assert hasattr(importlib.import_module(f"pitmesh.{module}"), name), \
        f"README names {dotted}; pitmesh.{module} has no {name}"
