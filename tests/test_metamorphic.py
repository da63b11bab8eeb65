"""Runs that should agree because their inputs are related by a symmetry.

A pit and its domain shifted together along x give the same depth and
width.  Two pits placed symmetrically about x = 0 stay mirror images of
each other, through their merge and after it.
"""

from pathlib import Path

import numpy as np
import pytest

from pitmesh import io
from pitmesh.driver import run

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def shifted_run(shift):
    """configs/homogeneous.cfg at target_h = 1.5 to t = 30 s, its pit and
    domain moved shift µm along x: the final (depth, width)."""
    cfg = io.parse_config(str(CONFIGS / "homogeneous.cfg"))
    cfg.target_h = 1.5
    cfg.front.t_end = 30.0
    cfg.pits.centers = (shift,)
    cfg.domain.xmin += shift
    cfg.domain.xmax += shift
    series = run(cfg).series
    return series.depth[-1], series.width[-1]


@pytest.fixture(scope="module")
def centred():
    return shifted_run(0.0)


@pytest.mark.parametrize("shift", [3.7, -11.3])
def test_translation_moves_nothing(centred, shift):
    # measured 1.5e-6 and 5.2e-5 µm at 3.7, 1.6e-5 and 1.5e-4 µm at -11.3
    assert np.allclose(shifted_run(shift), centred, rtol=0.0, atol=1e-3)


def mirror_gap(mesh, chains):
    """Largest distance, in µm, between a chain vertex and the mirror
    image in x = 0 of its counterpart, counted from the other end of the
    chains taken left to right."""
    p = np.concatenate([c.positions(mesh) for c in chains])
    return float(np.max(np.hypot(*(p - p[::-1] * (-1.0, 1.0)).T)))


@pytest.mark.xfail(strict=True, reason="ROADMAP item 19: the merge moves "
                   "one gap endpoint to the midpoint and the other halfway "
                   "to its neighbour, 0.191 µm off the mirror image")
def test_mirror_pits_stay_mirrored(ridge_run):
    _, states = ridge_run
    before = max(mirror_gap(mesh, chains)
                 for mesh, chains in states if len(chains) == 2)
    after = max(mirror_gap(mesh, chains)
                for mesh, chains in states if len(chains) == 1)
    assert before <= 2e-4  # measured 1.94e-4: the jittered interior mesh
    assert after <= 5.0 * before  # measured 0.191 µm, at the merge step
