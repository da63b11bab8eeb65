import os

# one BLAS thread, as bench/run.py and scripts/ab_steps.py run: the band
# factorisations and solves are too small for OpenBLAS's threads to pay
# for waking them.  Set before anything loads numpy
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

from pathlib import Path  # noqa: E402  (after the BLAS thread pins)

import pytest  # noqa: E402

from pitmesh import fem, io  # noqa: E402
from pitmesh.driver import init_mesh, run  # noqa: E402

BENCH_WORKLOADS = Path(__file__).resolve().parents[1] / "bench" / "workloads"
CONFIGS = Path(__file__).resolve().parents[1] / "configs"


@pytest.fixture
def band_calls(monkeypatch):
    """fem's BandLayout builds ("layout") and cholesky_banded calls
    ("factor"), in call order."""
    calls = []
    real_layout, real_factor = fem.BandLayout, fem.cholesky_banded

    def layout(mesh, block, levels):
        calls.append("layout")
        return real_layout(mesh, block, levels)

    def factor(band, **kwargs):
        calls.append("factor")
        return real_factor(band, **kwargs)

    monkeypatch.setattr(fem, "BandLayout", layout)
    monkeypatch.setattr(fem, "cholesky_banded", factor)
    return calls


@pytest.fixture
def level_sweeps(monkeypatch):
    """Calls of fem.side_wall_levels; fem.MeshStructure is its one caller."""
    calls = []
    real = fem.side_wall_levels

    def counted(mesh):
        calls.append(1)
        return real(mesh)

    monkeypatch.setattr(fem, "side_wall_levels", counted)
    return calls


@pytest.fixture(scope="session")
def bench_starts():
    """The smoothed starting state (driver.InitResult) of each benchmark
    workload, homog and twopit, at jitter seed 0."""
    return {name: init_mesh(io.parse_config(str(BENCH_WORKLOADS
                                                 / f"{name}.cfg")))
            for name in ("homog", "twopit")}


@pytest.fixture(scope="session")
def ridge_run():
    """configs/twopit.cfg at target_h = 1.5 to t = 60 s: its RunResult and
    the (mesh, chains) of every state the step hook saw.  A step never
    writes to the state it is given, so each state stays as it was.
    """
    cfg = io.parse_config(str(CONFIGS / "twopit.cfg"))
    cfg.target_h = 1.5
    cfg.front.t_end = 60.0
    states = []

    def hook(step, t, mesh, chains, phi):
        states.append((mesh, chains))

    return run(cfg, step_hook=hook), states
