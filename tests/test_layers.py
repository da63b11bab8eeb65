"""Every function the benchmark's per-layer tracer wraps exists in pitmesh.

bench/layers.py names each traced function by module and attribute; a
rename in the package would otherwise surface only when a traced
benchmark run fails to install its wrappers.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

LAYERS_PY = Path(__file__).resolve().parent.parent / "bench" / "layers.py"


def load_layers():
    """Import bench/layers.py without writing bytecode next to it."""
    spec = importlib.util.spec_from_file_location("bench_layers", LAYERS_PY)
    module = importlib.util.module_from_spec(spec)
    saved = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


LAYERS = load_layers()


@pytest.mark.parametrize("module", LAYERS.MODULES)
def test_traced_module_imports(module):
    importlib.import_module(f"pitmesh.{module}")


@pytest.mark.parametrize("layer, module, attribute",
                         [entry[:3] for entry in LAYERS.LAYERS],
                         ids=[entry[0] for entry in LAYERS.LAYERS])
def test_traced_function_resolves(layer, module, attribute):
    assert module in LAYERS.MODULES, layer
    target = importlib.import_module(f"pitmesh.{module}")
    assert callable(getattr(target, attribute, None)), \
        f"{layer}: pitmesh.{module} has no function {attribute}"
