"""scripts/same_outputs.py: a checkout against itself, and its comparison."""

import importlib.util
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_same_outputs():
    """Import scripts/same_outputs.py without writing bytecode next to it."""
    spec = importlib.util.spec_from_file_location(
        "same_outputs", ROOT / "scripts" / "same_outputs.py")
    module = importlib.util.module_from_spec(spec)
    saved = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


SAME_OUTPUTS = load_same_outputs()


def test_a_checkout_writes_what_it_writes(tmp_path, capsys):
    config = tmp_path / "small.cfg"
    config.write_text("material = homogeneous\nvcorr_homogeneous = -0.24\n"
                      "sigma_c = 10.0\ndt = 0.5\nt_end = 1\ntarget_h = 2.0\n"
                      "pit_nodes = 15\nvtk_every = 1\n")
    assert SAME_OUTPUTS.main([str(ROOT), str(ROOT), str(config)]) == 0
    assert capsys.readouterr().out == f"{config}: exit 0 / 0, same\n"


def test_one_byte_and_one_file_are_differences(tmp_path):
    parent, change = tmp_path / "parent", tmp_path / "change"
    for folder in (parent, change):
        (folder / "sub").mkdir(parents=True)
        (folder / "same.txt").write_bytes(b"depth 1.0\n")
        (folder / "sub" / "mesh.txt").write_bytes(b"0 1 2\n")
    assert SAME_OUTPUTS.differences(parent, change) == []
    (change / "sub" / "mesh.txt").write_bytes(b"0 1 3\n")
    (parent / "final.vtk").write_bytes(b"")
    assert SAME_OUTPUTS.differences(parent, change) == [
        "only in parent: final.vtk", "differs: sub/mesh.txt"]
