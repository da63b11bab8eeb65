"""Whole runs against exact solutions in the activation-controlled limit.

At sigma_c = 1e6 the potential is uniform to 1e-8 V, so every chain
vertex moves at the same Faraday speed v0 and a pit that starts as a
semicircle of radius 5 µm stays the circle R(t) = 5 + v0 t about its
centre.  Two such pits form the union of two circles, whose ridge cusp
sits at y = -sqrt(R^2 - d^2) once they meet, for centres at +-d.
"""

from pathlib import Path

import numpy as np
import pytest

from pitmesh import electrochem, io
from pitmesh.driver import fit_power_law, run

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def exact_config(name, target_h, nodes=None):
    cfg = io.parse_config(str(CONFIGS / f"{name}.cfg"))
    cfg.electro.sigma_c = 1e6
    cfg.front.t_end = 60.0
    cfg.target_h = target_h
    if nodes is not None:
        cfg.pits.nodes = nodes
    return cfg


def faraday_speed(cfg):
    """v0 in µm/s: the front speed at phi = 0."""
    return float(electrochem.normal_velocity(cfg.electro, cfg.material.v_corr,
                                             0.0)) * 1e6


@pytest.fixture(scope="module")
def circles():
    """{pit nodes: (config, RunResult)} of the homogeneous pit."""
    runs = {}
    for nodes in (61, 43):
        cfg = exact_config("homogeneous", 2.0, nodes)
        runs[nodes] = (cfg, run(cfg))
    return runs


def radial_errors(cfg, result):
    """(corner errors, other vertices' errors): distance from the pit
    centre minus R(t_end), in µm."""
    p = result.chains[0].positions(result.mesh)
    radius = np.hypot(p[:, 0] - cfg.pits.centers[0], p[:, 1])
    exact = cfg.pits.depth + faraday_speed(cfg) * result.series.t[-1]
    return (radius - exact)[[0, -1]], (radius - exact)[1:-1]


def test_faraday_speed():
    cfg = exact_config("homogeneous", 2.0)
    assert faraday_speed(cfg) == pytest.approx(0.0259213, abs=1e-7)


def test_depth_follows_the_circle(circles):
    cfg, result = circles[61]
    t, depth, _ = result.series.arrays()
    exact = cfg.pits.depth + faraday_speed(cfg) * t
    assert np.max(np.abs(depth - exact)) <= 1e-5  # measured 1.06e-6


def test_depth_fit_recovers_the_faraday_law(circles):
    # depth = v0 (t + 1) + 5 - v0 in the fit's time, shifted to 1
    cfg, result = circles[61]
    fit = fit_power_law(result.series, "depth")
    assert fit.converged
    assert abs(fit.b - 1.0) <= 1e-6                       # measured 5.5e-8
    assert abs(fit.a / faraday_speed(cfg) - 1.0) <= 1e-6  # measured 4.4e-7


@pytest.mark.parametrize("nodes, corner_bound, inward_bound", [
    (61, 0.04, 9e-4),     # measured 0.0192 and 4.3e-4
    (43, 0.08, 1.8e-3),   # measured 0.0394 and 8.9e-4
])
def test_chain_brackets_the_circle(circles, nodes, corner_bound,
                                   inward_bound):
    # the secant corner extrapolation widens the mouth; the vertex normals
    # average unequal chords, so the other vertices lag the circle
    corners, others = radial_errors(*circles[nodes])
    assert np.all(corners > 0.0)
    assert np.all(corners <= corner_bound)
    assert np.all(others < 0.0)
    assert np.all(-others <= inward_bound)


def test_corner_error_is_second_order(circles):
    coarse = np.max(radial_errors(*circles[43])[0])
    fine = np.max(radial_errors(*circles[61])[0])
    order = np.log(coarse / fine) / np.log(60.0 / 42.0)  # chain spacings
    assert order >= 1.8  # measured 2.0


@pytest.mark.xfail(strict=True, reason="ROADMAP item 5: the merged ridge "
                   "freezes at y = -0.1353 µm instead of dissolving")
def test_ridge_follows_the_two_circle_cusp():
    cfg = exact_config("twopit", 1.5)
    v0, d = faraday_speed(cfg), cfg.pits.centers[1]
    gaps = []

    def hook(step, t, mesh, chains, phi):
        if len(chains) > 1:
            return
        p = chains[0].positions(mesh)
        top = np.max(p[np.abs(p[:, 0]) <= 1.0, 1])
        radius = cfg.pits.depth + v0 * t
        gaps.append(abs(top + np.sqrt(max(radius ** 2 - d ** 2, 0.0))))

    result = run(cfg, step_hook=hook)
    assert result.events and result.events[0].step == 63
    # the merge closes a 0.35 µm gap early, which puts the ridge ahead of
    # the circles before they meet: 0.124 µm at t = 36.5 s
    assert max(gaps) <= 0.25  # measured 2.51 µm, at t = 60 s
