"""Simulation orchestration: the alternating mesh/physics loop and fits.

Per step: move the mesh under the current monitor, solve the potential on
the moved mesh, advance the pit front, then handle a possible merge.  The
monitor is rebuilt from the post-advance chains at the start of the next
step, so the mesh lags the front by at most one step.  A merge step is no
exception: no extra smoothing or solve follows a merge, and the next
step's relaxation recovers the mesh around the merged pit.  Runs are fully
deterministic for a fixed config (the only randomness is the seeded
triangulation jitter).
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from . import adapt, fem, front
from .adapt import AdaptParams
from .crystal import Homogeneous, MaterialSpec, VcorrParams
from .electrochem import ElectroParams
from .front import FrontParams
from .mesh import (MeshError, NearestSegments, TriMesh, validate,
                   validate_chain)
from .meshgen import DomainSpec, PitSpec, build_initial_mesh

logger = logging.getLogger("pitmesh.driver")

class SimulationError(Exception):
    """A failed run, carrying the state of its last completed step.

    step is the index of that step (0 for the smoothed initial state), and
    mesh, chains and phi are its state as the step hook saw it.  The
    message names the step that failed.
    """

    def __init__(self, message, step, mesh, chains, phi):
        super().__init__(message)
        self.step = step
        self.mesh = mesh
        self.chains = chains
        self.phi = phi


@dataclass
class SimConfig:
    domain: DomainSpec = field(default_factory=DomainSpec)
    pits: PitSpec = field(default_factory=PitSpec)
    electro: ElectroParams = field(default_factory=ElectroParams)
    adapt: AdaptParams = field(default_factory=AdaptParams)
    front: FrontParams = field(default_factory=FrontParams)
    material: MaterialSpec = field(default_factory=lambda: Homogeneous(-0.24))
    vcorr: VcorrParams = field(default_factory=VcorrParams)
    target_h: float = 0.7        # mesh generation edge length, micrometers
    seed: int = 0
    vtk_every: int = 0           # snapshot cadence in steps, 0 = off

    def validate(self) -> None:
        self.domain.validate()
        self.pits.validate()
        self.electro.validate()
        self.adapt.validate()
        self.front.validate()
        self.vcorr.validate()
        if self.target_h <= 0.0:
            raise ValueError("target_h must be positive")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if self.vtk_every < 0:
            raise ValueError("vtk_every must be >= 0")
        if isinstance(self.material, Homogeneous) and \
                not np.isfinite(self.material.v_corr):
            raise ValueError("homogeneous V_corr must be finite")


@dataclass
class TimeSeries:
    t: list = field(default_factory=list)
    depth: list = field(default_factory=list)
    width: list = field(default_factory=list)

    def append(self, t: float, depth: float, width: float) -> None:
        if self.t and t <= self.t[-1]:
            raise ValueError("time series must be strictly increasing in t")
        self.t.append(t)
        self.depth.append(depth)
        self.width.append(width)

    def arrays(self):
        return (np.asarray(self.t), np.asarray(self.depth),
                np.asarray(self.width))

    def __len__(self):
        return len(self.t)


@dataclass
class InitResult:
    mesh: TriMesh
    chains: list
    phi: np.ndarray
    smooth: adapt.SmoothResult   # the initial smoothing's record


@dataclass
class RunResult:
    series: TimeSeries
    mesh: TriMesh
    chains: list
    phi: np.ndarray
    events: list
    init: InitResult      # the smoothed initial state and its record
    steps: int
    min_area_seen: float
    # relaxation preconditioner factorisations and the minimiser calls
    # they served; counts only, so a kept result holds no factor
    factorisations: int
    minimiser_calls: int
    # the steps' relaxation iterations, and the steps that took the
    # predicted start
    relaxation_iterations: int
    predicted_starts: int
    # Newton iterations and potential solves; counts only, as above
    newton_iterations: int
    newton_solves: int


def init_mesh(config: SimConfig,
              factor: Optional[adapt.StiffnessFactor] = None,
              pattern: Optional[fem.JacobianPattern] = None) -> InitResult:
    """Build the domain mesh and smooth it against the pit monitor.

    The smoothing flows share factor, a fresh one if none is given, and
    the potential solve uses pattern.
    """
    config.validate()
    mesh, chains, _ = build_initial_mesh(config.domain, config.pits,
                                         config.target_h, config.seed)
    smooth = adapt.smooth_mesh(mesh, chains, config.adapt, factor=factor)
    phi = fem.newton_solve(smooth.mesh, chains, config.material, config.vcorr,
                           config.electro, pattern=pattern).phi
    return InitResult(smooth.mesh, chains, phi, smooth)


def diagnostics(mesh: TriMesh, chains) -> tuple:
    """(depth, width) in micrometers: deepest point and widest chain span."""
    depth = 0.0
    width = 0.0
    for chain in chains:
        p = chain.positions(mesh)
        depth = max(depth, float(np.max(-p[:, 1])))
        width = max(width, float(mesh.vertices[chain.right_corner, 0]
                                 - mesh.vertices[chain.left_corner, 0]))
    return depth, width


def _check_state(mesh: TriMesh, chains, step: int) -> float:
    """Smallest cell area; raises MeshError on an inverted cell or a bad chain."""
    areas = mesh.signed_areas()
    min_area = float(np.min(areas))
    if min_area <= 0.0:
        raise MeshError(f"inverted element at step {step}: "
                        f"cell {int(np.argmin(areas))}, area {min_area:g}")
    for chain in chains:
        problems = validate_chain(mesh, chain)
        if problems:
            raise MeshError(f"step {step}: " + "; ".join(problems))
    return min_area


def run(config: SimConfig, step_hook: Optional[Callable] = None) -> RunResult:
    """Run the full alternating loop until t_end.

    step_hook(step, t, mesh, chains, phi) is called after every completed
    step (and once at t = 0) with that step's own Newton phi.  A merge
    adds no work to its step; the next step's relaxation recovers the
    mesh.  Each step is all or nothing: the loop keeps a copy of the last
    completed step's mesh, chains and phi, and an exception from any
    module within a step aborts the run with a SimulationError carrying
    that copy, whatever the failing call left half done.  One
    StiffnessFactor serves every mesh relaxation of the run, and with it
    each relaxation starts from the last one's motion; one JacobianPattern
    serves every potential solve; one NearestSegments serves every step's
    monitor.  The front functions test the chains they move for
    self-crossings (advance_pit each advanced chain, merge_pits the merged
    one), so the state check leaves that test to them.
    """
    factor = adapt.StiffnessFactor()
    pattern = fem.JacobianPattern()
    nearest = NearestSegments()
    init = init_mesh(config, factor, pattern)
    # the loop moves its own copies in place; init keeps the starting state.
    # The triangulation never changes within a run (a merge only retags
    # edges), so the two meshes share it and a kept result holds it once
    mesh = TriMesh(init.mesh.vertices.copy(), init.mesh.triangles,
                   init.mesh.edge_nodes, init.mesh.edge_tags.copy())
    chains = [c.copy() for c in init.chains]
    phi = init.phi

    series = TimeSeries()
    d0, w0 = diagnostics(mesh, chains)
    series.append(0.0, d0, w0)
    events = []
    min_area_seen = _check_state(mesh, chains, 0)
    if step_hook:
        step_hook(0, 0.0, mesh, chains, phi)

    fparams = config.front
    t = 0.0
    step = 0
    prev_area = sum(front.pit_area(mesh, c) for c in chains)
    relaxation_iterations = predicted_starts = 0
    while fparams.t_end - t > 1e-9 * fparams.dt:
        step += 1
        # newton_solve never writes into phi, so it needs no copy
        good = (mesh.copy(), [c.copy() for c in chains], phi)
        try:
            metric = adapt.monitor_mackenzie(mesh, chains, config.adapt,
                                             nearest)
            moved = adapt.mmpde_step(mesh, metric, config.adapt, fparams.dt,
                                     factor=factor)
            # the front moves chain vertices in place; the result keeps its own
            mesh.vertices = moved.positions.copy()
            relaxation_iterations += moved.substeps
            predicted_starts += moved.predicted

            phi = fem.newton_solve(mesh, chains, config.material, config.vcorr,
                                   config.electro, guess=phi,
                                   pattern=pattern).phi

            speeds = [front.chain_velocities(mesh, chain, phi, config.material,
                                             config.vcorr, config.electro)
                      for chain in chains]
            dt = min(front.capped_dt(mesh, chains, speeds, fparams.dt, step),
                     fparams.t_end - t)

            for chain, (vn, normals) in zip(chains, speeds):
                front.advance_pit(mesh, chain, vn, normals, dt)

            cand = front.detect_merge(mesh, chains, fparams)
            if cand is not None:
                chains, event = front.merge_pits(mesh, chains, cand)
                event.step = step
                events.append(event)

            min_area_seen = min(min_area_seen, _check_state(mesh, chains, step))
            area = sum(front.pit_area(mesh, c) for c in chains)
            if area < prev_area - 1e-9:
                raise MeshError(f"pit area decreased at step {step}: "
                                f"{prev_area:g} -> {area:g}")
            prev_area = area
        except Exception as err:
            raise SimulationError(f"step {step} (t={t:.4g}s): {err}",
                                  step - 1, *good) from err
        t += dt
        d, w = diagnostics(mesh, chains)
        series.append(t, d, w)
        if step_hook:
            step_hook(step, t, mesh, chains, phi)

    report = validate(mesh)
    if not report.ok:
        raise SimulationError(f"final mesh invalid: {report.summary()}",
                              step, mesh, chains, phi)
    return RunResult(series, mesh, chains, phi, events, init, step,
                     min_area_seen, factor.factorisations,
                     factor.minimiser_calls, relaxation_iterations,
                     predicted_starts, pattern.iterations, pattern.solves)


# a Gauss-Newton step of at most this relative size that cannot lower
# the RSS is rounding noise, so the fit has converged
_FIT_FLOOR_STEP = 1e-6


@dataclass
class PowerLawFit:
    a: float
    b: float
    c: float
    se_a: float
    se_b: float
    se_c: float
    rss: float
    r_squared: float
    converged: bool


def fit_power_law(series: TimeSeries, column: str = "depth") -> PowerLawFit:
    """Fit a*t^b + c to a diagnostic column, with t shifted so t[0] = 1."""
    t, depth, width = series.arrays()
    y = {"depth": depth, "width": width}[column]
    return fit_power_law_arrays(t + (1.0 - t[0]), y)


# the fit stays numpy-only: scipy.optimize.least_squares matches it to
# 1e-12, but importing scipy.optimize raised the benchmark's homog
# peak_rss_mb from 98-100 to 107-108 MiB, past that metric's 5% bound
def fit_power_law_arrays(t: np.ndarray, y: np.ndarray) -> PowerLawFit:
    """Damped Gauss-Newton least squares for y = a*t^b + c.

    Initialized from a log-log slope estimate; parameter standard errors
    come from the linearized covariance at the optimum.  Converged means a
    relative step below 1e-12, or no RSS decrease from a relative step
    below _FIT_FLOOR_STEP.  A constant series short-circuits to a = 0,
    b = 1, c = mean.
    """
    t = np.asarray(t, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if len(t) < 10:
        raise ValueError("need at least 10 samples to fit")
    if np.any(t <= 0.0):
        raise ValueError("fit times must be positive (shift so t starts at 1)")
    spread = float(np.max(y) - np.min(y))
    if spread < 1e-14 * max(1.0, abs(float(np.mean(y)))):
        return PowerLawFit(0.0, 1.0, float(np.mean(y)), 0.0, 0.0, 0.0,
                           0.0, 1.0, True)

    c0 = float(np.min(y)) - 0.05 * spread
    z = np.log(y - c0)
    lt = np.log(t)
    b0, loga0 = np.polyfit(lt, z, 1)
    params = np.array([np.exp(loga0), b0, c0])

    def residual(p):
        return p[0] * t ** p[1] + p[2] - y

    def jacobian(p):
        tb = t ** p[1]
        return np.column_stack((tb, p[0] * tb * np.log(t), np.ones_like(t)))

    r = residual(params)
    rss = float(r @ r)
    converged = False
    for _ in range(200):
        J = jacobian(params)
        g = J.T @ r
        H = J.T @ J
        try:
            step = np.linalg.solve(H, -g)
        except np.linalg.LinAlgError:
            break
        lam = 1.0
        improved = False
        for _ in range(25):
            trial = params + lam * step
            rt = residual(trial)
            rss_t = float(rt @ rt)
            if np.isfinite(rss_t) and rss_t <= rss:
                improved = True
                break
            lam *= 0.5
        if not improved:
            converged = float(np.max(np.abs(step) / np.maximum(
                1e-12, np.abs(params)))) < _FIT_FLOOR_STEP
            break
        moved = np.max(np.abs(lam * step) / np.maximum(1e-12, np.abs(trial)))
        params, r, rss = trial, rt, rss_t
        if moved < 1e-12:
            converged = True
            break

    dof = max(1, len(t) - 3)
    J = jacobian(params)
    try:
        cov = np.linalg.inv(J.T @ J) * (rss / dof)
        se = np.sqrt(np.maximum(np.diag(cov), 0.0))
    except np.linalg.LinAlgError:
        se = np.full(3, np.nan)
    tss = float(np.sum((y - np.mean(y)) ** 2))
    r2 = 1.0 - rss / tss if tss > 0 else 1.0
    if not converged:
        logger.warning("power-law fit stopped before full convergence "
                       "(rss %.3g)", rss)
    return PowerLawFit(float(params[0]), float(params[1]), float(params[2]),
                       float(se[0]), float(se[1]), float(se[2]), rss, r2,
                       converged)
