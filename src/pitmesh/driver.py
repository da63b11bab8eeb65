"""Simulation orchestration: the alternating mesh/physics loop and fits.

Per step: move the mesh under the current monitor, solve the potential on
the moved mesh, advance the pit front, then handle a possible merge.  The
monitor is rebuilt from the post-advance chains at the start of the next
step, so the mesh lags the front by at most one step.  Runs are fully
deterministic for a fixed config (the only randomness is the seeded
triangulation jitter).
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field, replace
from typing import Callable, Optional

import numpy as np

from . import adapt, fem, front
from .adapt import AdaptParams
from .crystal import Homogeneous, MaterialSpec, VcorrParams
from .electrochem import ElectroParams
from .fem import NewtonSettings
from .front import FrontParams
from .mesh import MeshError, TriMesh, validate, validate_chain
from .meshgen import DomainSpec, PitSpec, build_initial_mesh

logger = logging.getLogger("pitmesh.driver")


class SimulationError(Exception):
    """A module failure wrapped with the step index and last-good state."""

    def __init__(self, message, step=None, mesh=None, chains=None, phi=None):
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
    newton: NewtonSettings = field(default_factory=NewtonSettings)
    material: MaterialSpec = field(default_factory=lambda: Homogeneous(-0.24))
    vcorr: VcorrParams = field(default_factory=VcorrParams)
    target_h: float = 0.7        # mesh generation edge length, micrometers
    gap_single_edge: float = 3.0  # inter-pit gaps below this stay one edge
    seed: int = 0
    vtk_every: int = 0           # snapshot cadence in steps, 0 = off

    def validate(self) -> None:
        self.domain.validate()
        self.pits.validate()
        self.electro.validate()
        self.adapt.validate()
        self.front.validate()
        self.newton.validate()
        self.vcorr.validate()
        if self.target_h <= 0.0:
            raise ValueError("target_h must be positive")
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
    trace: list           # smoothing displacement sum per iteration
    trace_max: list       # smoothing max vertex move per iteration
    converged: bool
    flow_stops: list      # each smoothing flow's mmpde stop reason
    flow_iters: list      # each smoothing flow's mmpde iteration count


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


def _solver_callback(config: SimConfig, holder: dict) -> Callable:
    def solve(mesh: TriMesh, chains=None) -> np.ndarray:
        result = fem.newton_solve(mesh, holder["chains"] if chains is None else chains,
                                  config.material, config.vcorr, config.electro,
                                  guess=holder.get("phi"), settings=config.newton)
        holder["phi"] = result.phi
        return result.phi
    return solve


def init_mesh(config: SimConfig) -> InitResult:
    """Build the domain mesh and smooth it against the pit monitor."""
    config.validate()
    mesh, chains, _ = build_initial_mesh(config.domain, config.pits,
                                         config.target_h, config.seed,
                                         config.gap_single_edge)
    holder = {"chains": chains, "phi": None}
    solve = _solver_callback(config, holder)
    smooth = adapt.smooth_mesh(mesh, chains, config.adapt)
    phi = solve(smooth.mesh)
    return InitResult(smooth.mesh, chains, phi, smooth.trace, smooth.trace_max,
                      smooth.converged, smooth.flow_stops, smooth.flow_iters)


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
    step (and once at t = 0); exceptions from any module abort the run
    wrapped in a SimulationError carrying the last good state.
    """
    init = init_mesh(config)
    # the loop moves its mesh in place; init keeps the starting state
    mesh, chains, phi = init.mesh.copy(), init.chains, init.phi
    holder = {"chains": chains, "phi": phi}
    solve = _solver_callback(config, holder)

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
    while fparams.t_end - t > 1e-9 * fparams.dt:
        step += 1
        try:
            metric = adapt.monitor_mackenzie(mesh, chains, config.adapt)
            moved = adapt.mmpde_step(mesh, metric, config.adapt, fparams.dt)
            mesh.vertices = moved.positions

            phi = solve(mesh, chains)

            # CFL-like cap: the front may not sweep more than a fraction of
            # the smallest pit edge in one step.  Edges in an already
            # collapsed bunch (envelope-limited vertices) no longer carry
            # front resolution and are excluded from the scale.
            max_vn = 0.0
            min_edge = np.inf
            for chain in chains:
                vn, _ = front.chain_velocities(mesh, chain, phi, config.material,
                                               config.vcorr, config.electro)
                max_vn = max(max_vn, float(np.max(vn)))
                seg = np.linalg.norm(np.diff(chain.positions(mesh), axis=0), axis=1)
                seg = seg[seg >= 0.1 * np.median(seg)]
                min_edge = min(min_edge, float(np.min(seg)))
            dt = fparams.dt
            if max_vn > 0.0:
                cap = fparams.cfl_frac * min_edge / max_vn
                if cap < dt:
                    logger.warning("step %d: dt capped %.3g -> %.3g", step, dt, cap)
                    dt = cap
            dt = min(dt, fparams.t_end - t)

            for chain in chains:
                front.advance_pit(mesh, chain, phi, config.material,
                                  config.vcorr, config.electro, fparams, dt=dt)

            cand = front.detect_merge(mesh, chains, fparams)
            if cand is not None:
                chains, event = front.merge_pits(mesh, chains, cand)
                event.step = step
                events.append(event)
                holder["chains"] = chains
                post = adapt.smooth_mesh(mesh, chains, config.adapt,
                                         max_iters=5)
                mesh = post.mesh
                phi = solve(mesh, chains)

            min_area_seen = min(min_area_seen, _check_state(mesh, chains, step))
            area = sum(front.pit_area(mesh, c) for c in chains)
            if area < prev_area - 1e-9:
                raise MeshError(f"pit area decreased at step {step}: "
                                f"{prev_area:g} -> {area:g}")
            prev_area = area
        except Exception as err:
            raise SimulationError(f"step {step} (t={t:.4g}s): {err}",
                                  step=step, mesh=mesh, chains=chains,
                                  phi=phi) from err
        t += dt
        d, w = diagnostics(mesh, chains)
        series.append(t, d, w)
        if step_hook:
            step_hook(step, t, mesh, chains, phi)

    report = validate(mesh)
    if not report.ok:
        raise SimulationError(f"final mesh invalid: {report.summary()}",
                              step=step, mesh=mesh, chains=chains, phi=phi)
    return RunResult(series, mesh, chains, phi, events, init, step,
                     min_area_seen)


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


def fit_power_law_arrays(t: np.ndarray, y: np.ndarray) -> PowerLawFit:
    """Damped Gauss-Newton least squares for y = a*t^b + c.

    Initialized from a log-log slope estimate; parameter standard errors
    come from the linearized covariance at the optimum.  A constant series
    short-circuits to a = 0, b = 1, c = mean.
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
            break
        moved = np.max(np.abs(lam * step) / np.maximum(1e-12, np.abs(trial)))
        params, r, rss = trial, rt, rss_t
        if moved < 1e-12:
            converged = True
            break
    else:
        converged = False

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
