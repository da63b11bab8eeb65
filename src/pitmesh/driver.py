"""Simulation orchestration: the alternating mesh/physics loop and fits.

A step moves the mesh under the monitor of the chains the step before
advanced, solves the potential on the moved mesh, advances the front and
handles a merge.  The mesh so lags the front by a step, and the step's
relaxation stops at adapt._FORCING_RTOL of its starting gradient: solving
further gains less than that lag.  No smoothing or solve follows a merge;
the next step's relaxation recovers the mesh around the merged pit.  Runs
are deterministic for a fixed config (the only randomness is the seeded
triangulation jitter).
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from . import adapt, fem, front
from .adapt import AdaptParams
from .crystal import Homogeneous, MaterialSpec
from .electrochem import ElectroParams
from .front import FrontParams
from .mesh import MeshError, NearestSegments, TriMesh
from .meshgen import DomainSpec, PitSpec, build_initial_mesh

logger = logging.getLogger("pitmesh.driver")

class SimulationError(Exception):
    """A failed run, carrying the RunResult through its last completed
    step, as the step hook saw it.  The message names the step that
    failed.
    """

    def __init__(self, message, result):
        super().__init__(message)
        self.result = result


@dataclass
class SimConfig:
    domain: DomainSpec = field(default_factory=DomainSpec)
    pits: PitSpec = field(default_factory=PitSpec)
    electro: ElectroParams = field(default_factory=ElectroParams)
    adapt: AdaptParams = field(default_factory=AdaptParams)
    front: FrontParams = field(default_factory=FrontParams)
    material: MaterialSpec = field(default_factory=Homogeneous)
    target_h: float = 0.7        # mesh generation edge length, micrometers
    seed: int = 0
    vtk_every: int = 0           # snapshot cadence in steps, 0 = off

    def validate(self) -> None:
        self.domain.validate()
        self.pits.validate()
        self.electro.validate()
        self.adapt.validate()
        self.front.validate()
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
    newton_iterations: int       # of the potential solve


@dataclass
class State:
    """A run's state after its step-th step, 0 for the smoothed start."""
    mesh: TriMesh
    chains: list
    phi: np.ndarray      # that step's own Newton phi
    t: float = 0.0
    step: int = 0


@dataclass
class StepRecord:
    """What one step did, in scalars only: a kept run keeps one a step."""
    relaxation_iterations: int
    predicted: bool               # the relaxation took the predicted start
    newton_iterations: int
    capped: bool                  # front.capped_dt cut dt below config dt
    min_area: float               # the smallest cell area after the step
    merge: Optional[front.MergeEvent] = None


@dataclass
class RunResult:
    series: TimeSeries
    mesh: TriMesh
    chains: list
    phi: np.ndarray
    init: InitResult      # the smoothed initial state and its record
    records: list         # one StepRecord a step
    min_area_seen: float
    # relaxation preconditioner factorisations; a count only, so a kept
    # result holds no factor
    factorisations: int

    @property
    def steps(self) -> int:
        return len(self.records)

    @property
    def events(self) -> list:
        return [r.merge for r in self.records if r.merge is not None]


def init_mesh(config: SimConfig,
              factor: Optional[adapt.StiffnessFactor] = None,
              nearest: Optional[NearestSegments] = None) -> InitResult:
    """Build the domain mesh and smooth it against the pit monitor.

    The smoothing flows share factor and its monitors share nearest,
    each a fresh one if none is given; the potential solve uses the
    factor's structure.
    """
    config.validate()
    mesh, chains, _ = build_initial_mesh(config.domain, config.pits,
                                         config.target_h, config.seed)
    if factor is None:
        factor = adapt.StiffnessFactor()
    smooth = adapt.smooth_mesh(mesh, chains, config.adapt, factor=factor,
                               nearest=nearest)
    solved = fem.newton_solve(smooth.mesh, chains, config.material,
                              config.electro, structure=factor.structure)
    return InitResult(smooth.mesh, chains, solved.phi, smooth,
                      solved.iterations)


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


def _check_state(mesh: TriMesh, chains, step: int,
                 prev_area: float) -> float:
    """The smallest cell area after a step.

    Raises MeshError on an inverted cell, or when the pit area fell below
    prev_area.  The front functions check the chain invariants they can
    break on the chains they move or retag.
    """
    areas = mesh.signed_areas()
    min_area = float(np.min(areas))
    if not min_area > 0.0:
        raise MeshError(f"inverted element at step {step}: "
                        f"cell {int(np.argmin(areas))}, area {min_area:g}")
    area = sum(front.pit_area(mesh, c) for c in chains)
    if area < prev_area - 1e-9:
        raise MeshError(f"pit area decreased at step {step}: "
                        f"{prev_area:g} -> {area:g}")
    return min_area


def step(state: State, config: SimConfig, factor: adapt.StiffnessFactor,
         nearest: Optional[NearestSegments]) -> tuple:
    """(the next State, its StepRecord): one step from state.

    Never writes to state, whether it returns or raises: the front and a
    merge move and retag the step's own vertices, edge tags and chains,
    and the next state shares the triangulation and edge nodes, which no
    step changes.  dt is front.capped_dt's, cut to t_end.  factor keeps
    the relaxation's state and the solves' MeshStructure, nearest the
    monitor's.
    """
    n, fparams = state.step + 1, config.front
    prev_area = sum(front.pit_area(state.mesh, c) for c in state.chains)
    metric = adapt.monitor_mackenzie(state.mesh, state.chains, config.adapt,
                                     nearest)
    moved = adapt.mmpde_step(state.mesh, metric, config.adapt, fparams.dt,
                             factor=factor, rtol=adapt._FORCING_RTOL)
    # the result keeps its own positions, as a caller may keep it
    mesh = TriMesh(moved.positions.copy(), state.mesh.triangles,
                   state.mesh.edge_nodes, state.mesh.edge_tags.copy())
    chains = [c.copy() for c in state.chains]
    solved = fem.newton_solve(mesh, chains, config.material, config.electro,
                              guess=state.phi, structure=factor.structure)

    speeds = [front.chain_velocities(mesh, chain, solved.phi,
                                     config.material, config.electro)
              for chain in chains]
    capped = front.capped_dt(mesh, chains, speeds, fparams.dt)
    dt = min(capped, fparams.t_end - state.t)
    for chain, (vn, normals) in zip(chains, speeds):
        front.advance_pit(mesh, chain, vn, normals, dt)

    event = None
    cand = front.detect_merge(mesh, chains, fparams)
    if cand is not None:
        chains, event = front.merge_pits(mesh, chains, cand)
        event.step = n
    min_area = _check_state(mesh, chains, n, prev_area)
    return (State(mesh, chains, solved.phi, state.t + dt, n),
            StepRecord(moved.substeps, moved.predicted, solved.iterations,
                       capped < fparams.dt, min_area, event))


def run(config: SimConfig, step_hook: Optional[Callable] = None) -> RunResult:
    """Run steps until t_end.

    step_hook(step, t, mesh, chains, phi) is called after every completed
    step (and once at t = 0) with that step's state.  An exception within
    a step aborts the run with a SimulationError carrying the RunResult
    through the step before.  One StiffnessFactor serves every relaxation
    of the run, and its MeshStructure every potential solve, so a run
    sweeps its levels once; one NearestSegments serves every monitor.
    """
    factor = adapt.StiffnessFactor()
    nearest = NearestSegments()
    init = init_mesh(config, factor, nearest)
    state = State(init.mesh, init.chains, init.phi)
    series = TimeSeries()
    series.append(0.0, *diagnostics(state.mesh, state.chains))
    min_area_seen = _check_state(state.mesh, state.chains, 0, -np.inf)
    if step_hook:
        step_hook(0, 0.0, state.mesh, state.chains, state.phi)

    fparams = config.front
    records = []
    failure = None
    while fparams.t_end - state.t > 1e-9 * fparams.dt:
        try:
            state, record = step(state, config, factor, nearest)
        except Exception as err:
            failure = err
            break
        records.append(record)
        min_area_seen = min(min_area_seen, record.min_area)
        series.append(state.t, *diagnostics(state.mesh, state.chains))
        if step_hook:
            step_hook(state.step, state.t, state.mesh, state.chains, state.phi)

    result = RunResult(series, state.mesh, state.chains, state.phi, init,
                       records, min_area_seen, factor.factorisations)
    if failure is not None:
        raise SimulationError(f"step {state.step + 1} (t={state.t:.4g}s): "
                              f"{failure}", result) from failure
    return result


# the exponent's search interval: at b = 0 the regression is singular,
# and no growth law has b <= 0, since depth and width never shrink; the
# fastest shipped law is the [001] width's, b = 1.03
_FIT_B_RANGE = (0.01, 10.0)
_GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0


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


def fit_power_law(series: TimeSeries, column: str = "depth",
                  first: int = 0) -> PowerLawFit:
    """Fit a*t^b + c to a column from row first on, t shifted to 1 there."""
    t, depth, width = (a[first:] for a in series.arrays())
    y = {"depth": depth, "width": width}[column]
    return fit_power_law_arrays(t + (1.0 - t[0]), y)


# the fit stays numpy-only: scipy.optimize.least_squares matches it to
# 1e-12, but importing scipy.optimize raised the benchmark's homog
# peak_rss_mb from 98-100 to 107-108 MiB, past that metric's 5% bound
def fit_power_law_arrays(t: np.ndarray, y: np.ndarray) -> PowerLawFit:
    """Least squares for y = a*t^b + c.

    At fixed b, a and c are the simple linear regression of y on t^b, so
    golden-section search minimises that regression's RSS over b alone,
    on _FIT_B_RANGE, to a bracket 1e-10 wide.  Converged means the
    optimum lies strictly inside that interval.  Standard errors come
    from the linearized covariance at the optimum.  A constant series
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

    yc = y - np.mean(y)

    def regression(b):
        """(rss, a, c) of the regression of y on t^b."""
        x = t ** b
        xc = x - np.mean(x)
        a = float(xc @ yc) / float(xc @ xc)
        r = yc - a * xc
        return float(r @ r), a, float(np.mean(y) - a * np.mean(x))

    lo, hi = _FIT_B_RANGE
    b1, b2 = hi - _GOLDEN * (hi - lo), lo + _GOLDEN * (hi - lo)
    f1, f2 = regression(b1)[0], regression(b2)[0]
    while hi - lo > 1e-10:
        if f1 <= f2:
            hi, b2, f2 = b2, b1, f1
            b1 = hi - _GOLDEN * (hi - lo)
            f1 = regression(b1)[0]
        else:
            lo, b1, f1 = b1, b2, f2
            b2 = lo + _GOLDEN * (hi - lo)
            f2 = regression(b2)[0]
    converged = _FIT_B_RANGE[0] < lo and hi < _FIT_B_RANGE[1]
    b = b1 if f1 <= f2 else b2
    rss, a, c = regression(b)

    dof = max(1, len(t) - 3)
    tb = t ** b
    J = np.column_stack((tb, a * tb * np.log(t), np.ones_like(t)))
    try:
        cov = np.linalg.inv(J.T @ J) * (rss / dof)
        se = np.sqrt(np.maximum(np.diag(cov), 0.0))
    except np.linalg.LinAlgError:
        se = np.full(3, np.nan)
    tss = float(yc @ yc)
    r2 = 1.0 - rss / tss if tss > 0 else 1.0
    if not converged:
        logger.warning("power-law fit stopped before full convergence "
                       "(rss %.3g)", rss)
    return PowerLawFit(a, b, c, float(se[0]), float(se[1]), float(se[2]),
                       rss, r2, converged)
