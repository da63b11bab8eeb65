"""Variational mesh adaptation: monitor, energy functional, mesh relaxation.

The distance-based monitor concentrates elements near the pit boundary.
It is isotropic, M = m I, so every function here takes the scalar m, one
value per vertex.
Minimizing the equidistribution/alignment energy over vertex positions
moves the mesh along the flow tau dx/dt = -P dI/dx.  Each time step of
length dt is one backward-Euler step of that flow, whose result is the
minimiser of I(x) + tau/(2 dt) sum_i |x_i - x_i^n|^2 / P_i.  Small tau
relaxes the mesh far toward the energy minimum each step, large tau leaves
it lagging; with dt infinite the step is the energy minimum itself.

The step is solved by L-BFGS.  Its initial inverse Hessian is a scaled
K^-1, where K is the P1 stiffness matrix of the mesh with each cell
weighted by its energy density and restricted per coordinate to the free
vertices.  Each iteration applies K^-1 once, to the new gradient, and
each curvature pair keeps K^-1 y beside it.  K carries the coupling
between neighbouring vertices that a diagonal scaling misses, so the
iteration count stays nearly flat as the mesh is refined.  K leaves out
the proximal term's diagonal (tau/dt)/P_i, so it does not depend on dt;
the curvature pairs take that term up.  The direction comes from the
compact form of the L-BFGS matrix (Byrd, Nocedal and Schnabel 1994): two
products of the stacked pairs with a vector and two small triangular
solves, in place of the two-loop recursion's 4m dot products and axpys.
An mmpde_step call without a StiffnessFactor gets K factorised afresh
from its starting mesh; a smoothing sequence shares one StiffnessFactor
over its flows and a run passes one to every call, and K is factorised
again only when the free-vertex set changes or the cell energy densities
drift.
Each free block's band order and the map from cell stiffness entries to
its band storage depend on the triangulation and the free set alone, so
the factor's fem.MeshStructure, shared with Newton in a run, keeps them
until those change, each with its last factor; a refactorisation only
refills the bands and factorises them.
The shared factor also carries the last step's displacement and the last
call's curvature pairs: the pit front moves about as far each step, so
the mesh follows it smoothly and its last motion predicts the next.  A
call over a finite interval repeats that displacement on its free
coordinates when the result passes the line search's test against x^n,
and every call starts L-BFGS with the carried pairs; a refactorisation
drops them, as their K^-1 y belong to the old K.
Each search direction is tried at unit length, the quasi-Newton step that
K^-1 already scales, and backtracks until the energy does not rise and no
cell inverts; both energy terms blow up as an element degenerates, so an
accepted step can never invert a cell.
A call stops at a tolerance relative to its own starting gradient.  An
inner solve need not go further than its outer loop can use (the forcing
terms of Eisenstat and Walker 1996), and both callers have such a loop.
A run's step relaxes under the monitor of the last step's front, so the
mesh already lags the front by a step; each step stops at _FORCING_RTOL
of its starting gradient, and the next step starts from that mesh and
keeps relaxing.
Mesh smoothing repeats the minimisation under a monitor rebuilt at the
moved vertices until the mesh stops moving.  Its flows run over an
infinite interval, try no predicted start and record no motion: each
moves less than the one before, so repeating the last motion overshoots,
the first step's included.  The next monitor rebuild moves the target
further than an exact flow would gain.  The first flow takes _GRAD_RTOL;
with a fixed monitor it is the whole answer.  A later flow need contract
no further than the rebuild loop itself last did, the ratio of the last
two displacement sums, kept within [_GRAD_RTOL, _FORCING_RTOL]; the
second flow, with no ratio yet, takes the cap.
Calls near the fixed point still reach the absolute floor.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np
from scipy.linalg.lapack import dtrtrs

from .fem import MeshStructure, _cell_stiffness, band_solve
from .mesh import (MeshError, NearestSegments, PitChain, TriMesh,
                   min_distance_to_pit)

logger = logging.getLogger("pitmesh.adapt")

_MESH_DIM = 2  # functional exponents are wired for d = 2
# the energy's balance exponent, in (0, 1/2), and its power, > 1
_THETA = 1.0 / 3.0
_GAMMA = 1.5


@dataclass
class AdaptParams:
    mu1: float = 100.0            # monitor magnitude at the pit boundary
    mu2: float = 1.0              # monitor decay rate with distance
    tau: float = 1e-5             # mesh response time, seconds

    def validate(self) -> None:
        if self.mu1 < 0.0 or self.mu2 < 0.0:
            raise ValueError("mu1 and mu2 must be >= 0")
        if self.tau <= 0.0:
            raise ValueError("tau must be positive")


def monitor_mackenzie(mesh: TriMesh, chains: Sequence[PitChain],
                      p: AdaptParams,
                      nearest: Optional[NearestSegments] = None) -> np.ndarray:
    """Distance-based monitor M(x) = (1 + mu1/sqrt(mu2^2 d^2 + 1)) I.

    M is isotropic, so it is carried as its scalar factor m, one value per
    vertex, (nv,).  Without any chains (plain rectangle meshes) m is one.
    nearest, if given, keeps the vertices' nearest pit segments from call
    to call; the monitor is the same bit for bit.
    """
    if chains and p.mu1 > 0.0:
        d = min_distance_to_pit(mesh.vertices, chains, mesh, nearest)
        return 1.0 + p.mu1 / np.sqrt(p.mu2 ** 2 * d ** 2 + 1.0)
    return np.ones(mesh.n_vertices)


def element_metrics(mesh: TriMesh, metric: np.ndarray) -> np.ndarray:
    """Cell monitor values m_K as the mean of the three vertex values."""
    # the sum in corner order, as metric[mesh.triangles].mean(axis=1)
    # takes it, from one gather
    m0, m1, m2 = np.take(metric, mesh.triangles.T)
    return (m0 + m1 + m2) / 3.0


def vertex_p_scaling(metric: np.ndarray) -> np.ndarray:
    """Invariance scaling P_i = det(M_i)^(1/(d+2)) = m_i^(d/(d+2)) per vertex."""
    return metric ** (_MESH_DIM / (_MESH_DIM + 2))


def _dot(a: np.ndarray, b: np.ndarray) -> float:
    """a . b of flat arrays without BLAS.

    OpenBLAS threads level-1 calls on long vectors, and waking its threads
    for each call costs more than the call.
    """
    return float(np.einsum("i,i->", a, b))


class _ElementFunctional:
    """Energy and gradient over elements with a frozen per-cell monitor m.

    Per cell with edge matrix E = [x1-x0, x2-x0], A2 = det(E) and monitor
    M = m I:
        I_K = c1 * A2 * T^gamma + c2 * A2^(1-gamma),  T = tr(E^-1 E^-T)/m
    with c1 = theta m/2 and c2 = (1-2 theta) 2^(gamma-1) m^(1-gamma),
    theta = _THETA and gamma = _GAMMA.
    For a 2x2 E, T = |E|_F^2 / (m A2^2) and dA2/dE = cof(E), so
        dI_K/dE = [(1-2 gamma) align + (1-gamma) equi] cof(E)
                  + (2 gamma align A2 / |E|_F^2) E
    with align = c1 T^gamma and equi = c2 A2^-gamma.
    """

    def __init__(self, corners: np.ndarray, cell_metric: np.ndarray):
        # mesh.corner_index of the triangles: one take gathers every corner
        # coordinate and one bincount scatters the gradient back
        self._flat = corners
        if np.any(cell_metric <= 0.0):
            raise MeshError("non-positive monitor value")
        self.inv_m = 1.0 / cell_metric
        self.c1 = _THETA * cell_metric / 2.0
        self.c2 = (1.0 - 2.0 * _THETA) * 2.0 ** (_GAMMA - 1.0) \
            * cell_metric ** (1.0 - _GAMMA)

    def evaluate(self, x: np.ndarray) -> Optional[tuple]:
        """(energy, gradient, density), or None if any element is inverted.

        The gradient is (nv, 2).  The density, (nt,), is each cell's energy
        divided by its A2: c1 T^gamma + c2 A2^-gamma.
        """
        corners = np.take(x.ravel(), self._flat)
        edges = corners[:, 1:] - corners[:, :1]
        (e00, e01), (e10, e11) = edges
        a2 = e00 * e11 - e01 * e10
        if np.any(a2 <= 0.0):
            return None
        norm2 = np.einsum("ckt,ckt->t", edges, edges)
        g = _GAMMA
        align = self.c1 * (norm2 * self.inv_m / (a2 * a2)) ** g
        equi = self.c2 * a2 ** -g
        density = align + equi
        energy = _dot(a2, density)

        coef_c = (1.0 - 2.0 * g) * align + (1.0 - g) * equi
        coef_e = 2.0 * g * align * a2 / norm2
        # ge is laid out like the corners, and corner 0 takes minus the sum
        # of corners 1 and 2
        ge = np.empty_like(corners)
        np.multiply(coef_e, edges, out=ge[:, 1:])
        ge[0, 1] += coef_c * e11
        ge[0, 2] -= coef_c * e10
        ge[1, 1] -= coef_c * e01
        ge[1, 2] += coef_c * e00
        np.add(ge[:, 1], ge[:, 2], out=ge[:, 0])
        np.negative(ge[:, 0], out=ge[:, 0])
        grad = np.bincount(self._flat.ravel(), weights=ge.ravel(),
                           minlength=x.size)
        return energy, grad.reshape(x.shape), density


def _evaluate_mesh(fn: _ElementFunctional, mesh: TriMesh) -> tuple:
    out = fn.evaluate(mesh.vertices)
    if out is None:
        cell = int(np.argmin(mesh.signed_areas()))
        raise MeshError(f"energy of inverted cell {cell}")
    return out


@dataclass
class MmpdeResult:
    positions: np.ndarray
    substeps: int            # L-BFGS iterations
    stopped: str             # "stationary" | "substep-cap"
    predicted: bool          # started from x^n plus the last call's motion


# Mesh relaxation settings (the upstream formulation names no solver).
_MAX_SUBSTEPS = 1000         # L-BFGS iterations per call
_GRAD_TOL = 1e-7             # stationarity exit on the projected gradient
_GRAD_RTOL = 1e-3            # ... or relative to the interval's start
_FORCING_RTOL = 0.05         # a step's rtol, and a later flow's cap
_SMOOTHING_TOL = 1e-2        # smoothing stop on the displacement sum, um
_SMOOTHING_MAX_ITERS = 40    # smoothing iterations (monitor rebuilds)
# L-BFGS curvature pairs kept (Nocedal 1980); a short history suffices
_LBFGS_HISTORY = 8
# a kept preconditioner factor is rebuilt once some cell's energy density
# leaves [1/r, r] times its value at factorisation; within that band the
# weights raise cond(K_f^-1 K) by at most r^2
_REFACTOR_RATIO = 1.5


class StiffnessFactor:
    """The relaxation state mmpde_step keeps across calls.

    It holds the preconditioner v -> K^-1 v, the last finite-interval
    call's displacement and the last call's L-BFGS curvature pairs.  K is
    the P1 stiffness matrix with each cell weighted by its energy density,
    restricted per coordinate to the vertices free in that coordinate;
    constrained entries map to zero.  Each free block of K has a
    fem.BandLayout, which structure, its fem.MeshStructure, builds from the
    triangulation and the free mask and keeps until they change; a
    layout built again has no factor.  K is factorised again only when a
    block has no factor, or when some cell's energy density has left
    [1/_REFACTOR_RATIO, _REFACTOR_RATIO] times its value at the last
    factorisation.  A stale K is still SPD, so it stays a valid
    preconditioner.  A refactorisation drops the pairs, whose K^-1 y
    belongs to the old K; new triangles drop the displacement too.
    Counts its factorisations.

    A refactorisation fills each block's band from the weighted cell
    stiffness by one bincount and factorises it by banded Cholesky, onto
    the layout.  The band factor is a plain array of its own size; a
    SuperLU factor reserves heap for its fill estimate, about 15 times
    what it touches, and kept across calls that reserve fragments the
    heap.  Every solve with a band factor is one fem.band_solve.
    """

    def __init__(self):
        self.structure = MeshStructure()
        self.factorisations = 0
        self._corners = None    # the structure's corners at the last call
        self._density = None    # cell energy densities at factorisation
        self._apply = None
        self.motion = None      # the last step's x_final - x^n, (nv, 2)
        self.pairs = CurvaturePairs()   # its L-BFGS pairs

    def preconditioner(self, mesh: TriMesh, density: np.ndarray) -> Callable:
        """v -> K^-1 v for flat (2 nv,) vectors, refactorised if stale.

        K is restricted to the structure's free mask.  The structure must
        be of mesh, as mmpde_step leaves it.
        """
        if self.structure.corners is not self._corners:
            self._corners = self.structure.corners
            self.motion = None
        layouts = self.structure.relaxation_layouts(mesh)
        if self._apply is not None \
                and all(layout.chol is not None for _, layout in layouts) \
                and np.max(np.abs(np.log(density / self._density))) \
                <= np.log(_REFACTOR_RATIO):
            return self._apply
        # drop the old factors first: building the new ones beside them
        # raises peak memory
        self._apply = None
        for _, layout in layouts:
            layout.chol = None
        self.pairs.clear()
        entries = _cell_stiffness(mesh, density, self.structure.corners).ravel()
        # each block's entries of flat (2 nv,) vectors, in its order
        blocks = [(2 * layout.order + c, layout.factor(layout.band(entries)))
                  for c, layout in layouts]

        def apply(v: np.ndarray) -> np.ndarray:
            out = np.zeros_like(v)
            for flat, chol in blocks:
                out[flat] = band_solve(chol, v[flat])
            return out

        self._apply = apply
        self._density = density
        self.factorisations += 1
        return apply


class CurvaturePairs:
    """The newest _LBFGS_HISTORY L-BFGS curvature pairs, in compact form.

    With H0 = gamma K^-1, the L-BFGS inverse Hessian of the pairs
    (s_i, y_i) is (Byrd, Nocedal and Schnabel, Math. Prog. 63, 1994)
        H g = gamma K^-1 g + S p - gamma K^-1 Y u,
        u = R^-1 S'g,  p = R^-T ((D + gamma Y'K^-1 Y) u - gamma Y'K^-1 g),
    with the pairs as the columns of S and Y, oldest first, R the upper
    triangle of S'Y and D its diagonal; gamma = s'y / y'K^-1 y of the
    newest pair.  K is symmetric, so y enters only through K^-1 y:
    Y'K^-1 g = (K^-1 Y)'g.  A pair therefore keeps s and K^-1 y alone, as
    two interleaved rows of one (2m, n) array, and a direction takes one
    product of the live rows with g, one with its coefficients, and two
    m x m triangular solves.  R, D and Y'K^-1 Y are kept oldest first and
    updated by one product of the rows with each new y.  Once all m pairs
    are live, a new pair takes the rows of the oldest.
    """

    def __init__(self):
        m = _LBFGS_HISTORY
        self.count = 0          # live pairs
        self._start = 0         # row pair of the oldest, nonzero once full
        self._rows = None       # (2m, n): s, K^-1 y of each pair
        self._order = None      # row pair of each live pair, oldest first
        self._r = np.zeros((m, m))     # s_i'y_j for i <= j, oldest first
        self._yky = np.zeros((m, m))   # y_i'K^-1 y_j, oldest first
        self._gamma = 0.0
        self._middle = None     # D + gamma Y'K^-1 Y

    def __len__(self) -> int:
        return self.count

    def clear(self) -> None:
        self.count = self._start = 0

    def push(self, s: np.ndarray, y: np.ndarray, ky: np.ndarray) -> None:
        """Keep the flat pair (s, y), ky = K^-1 y, unless s'y <= 0."""
        sy = _dot(s, y)
        if not sy > 0.0:
            return
        m = _LBFGS_HISTORY
        if self._rows is None or self._rows.shape[1] != s.size:
            self._rows = np.empty((2 * m, s.size))
            self.clear()
        if self.count == m:
            slot = self._start
            self._start = (slot + 1) % m
            self._r[:-1, :-1] = self._r[1:, 1:]
            self._yky[:-1, :-1] = self._yky[1:, 1:]
        else:
            slot = self.count
            self.count += 1
        n = self.count
        self._rows[2 * slot] = s
        self._rows[2 * slot + 1] = ky
        self._order = (self._start + np.arange(n)) % m
        col = (self._rows[:2 * n] @ y).reshape(n, 2)[self._order]
        self._r[:n, n - 1] = col[:, 0]
        self._r[n - 1, n - 1] = sy
        self._yky[:n, n - 1] = self._yky[n - 1, :n] = col[:, 1]
        self._gamma = sy / self._yky[n - 1, n - 1]
        self._middle = self._gamma * self._yky[:n, :n]
        self._middle[np.diag_indices(n)] += np.diag(self._r)[:n]

    def direction(self, g: np.ndarray, kg: np.ndarray) -> np.ndarray:
        """-H g for a flat g, from kg = K^-1 g; needs a live pair."""
        n = self.count
        rows = self._rows[:2 * n]
        sg, kyg = (rows @ g).reshape(n, 2)[self._order].T
        r = self._r[:n, :n]
        u = dtrtrs(r, sg)[0]
        p = dtrtrs(r, self._middle @ u - self._gamma * kyg, trans=1)[0]
        coef = np.empty((n, 2))   # per row pair, in row order
        coef[self._order, 0] = p
        coef[self._order, 1] = -self._gamma * u
        d = coef.ravel() @ rows
        d += self._gamma * kg
        return np.negative(d, out=d)


def mmpde_step(mesh: TriMesh, metric: np.ndarray, p: AdaptParams,
               dt_interval: float, max_substeps: int = _MAX_SUBSTEPS,
               factor: Optional[StiffnessFactor] = None,
               rtol: float = _GRAD_RTOL) -> MmpdeResult:
    """One backward-Euler step of the flow over an interval dt_interval.

    Returns the minimiser of I(x) + tau/(2 dt) sum_i |x_i - x_i^n|^2 / P_i,
    x^n the current vertices and P_i = vertex_p_scaling(metric); the mesh
    itself is untouched.  dt_interval = inf gives the energy minimum.
    Interior vertices move freely, top/bottom vertices slide in x,
    left/right vertices slide in y; rectangle corners and all pit-chain
    vertices are pinned (the front owns them).  Each L-BFGS direction,
    the first one included, is tried at unit length and halved until the
    energy does not rise and no cell inverts.  L-BFGS stops once the
    largest projected gradient entry of that sum is below the stationarity
    tolerance max(_GRAD_TOL, rtol times that entry at x^n).  A run's
    steps pass rtol = _FORCING_RTOL.  A call that starts stationary
    solves nothing with K^-1.  factor keeps the
    preconditioner, the last step's motion and the last call's L-BFGS
    pairs across calls.  L-BFGS starts from the pairs, and, for a finite
    dt_interval, from x^n plus that motion on the free coordinates if x^n
    is not stationary and that start passes the line search's test.  Only
    a finite-interval call records its motion; one over an infinite
    interval clears it, so the first step after smoothing starts at x^n.
    Without a factor, K is factorised afresh and L-BFGS starts at x^n with
    no pairs.
    """
    if factor is None:
        factor = StiffnessFactor()
    structure = factor.structure.of(mesh)
    free = structure.free
    fn = _ElementFunctional(structure.corners, element_metrics(mesh, metric))
    x0 = mesh.vertices
    # proximal weight (tau/dt)/P_i per coordinate; 0 for an infinite dt
    pull = (p.tau / dt_interval / vertex_p_scaling(metric))[:, None]

    def evaluate(trial: np.ndarray) -> Optional[tuple]:
        out = fn.evaluate(trial)
        if out is None:
            return None
        shift = trial - x0
        pulled = pull * shift
        return out[0] + 0.5 * _dot(pulled.ravel(), shift.ravel()), \
            out[1] + pulled

    def descends(out: Optional[tuple], current: float) -> bool:
        """The line search's test: no cell inverts, the sum does not rise."""
        return out is not None and \
            out[0] <= current + 1e-12 * max(1.0, abs(current))

    current, grad, density = _evaluate_mesh(fn, mesh)
    g = grad * free
    # the absolute floor, or rtol relative to the interval's start
    stop_tol = max(_GRAD_TOL, rtol * float(np.max(np.abs(g))))
    precond = factor.preconditioner(mesh, density)

    x = x0.copy()
    predicted = False
    if factor.motion is not None and np.isfinite(dt_interval) \
            and float(np.max(np.abs(g))) >= stop_tol:
        # predicted start: the last call's motion again
        trial = x0 + free * factor.motion
        out = evaluate(trial)
        if descends(out, current):
            x, (current, grad), predicted = trial, out, True
            g = grad * free

    history = factor.pairs
    stopped = "substep-cap"
    n_done = 0
    kg = None   # K^-1 g, solved once a first iteration needs it
    for _ in range(max_substeps):
        if float(np.max(np.abs(g))) < stop_tol:
            stopped = "stationary"
            break
        if kg is None:
            kg = precond(g.ravel())
        if history:
            d = history.direction(g.ravel(), kg).reshape(g.shape)
            if _dot(d.ravel(), g.ravel()) >= 0.0:
                history.clear()
        if not history:
            d = -kg.reshape(g.shape)
        # descent-only backtracking from the unit step that also rejects
        # inverted trials
        taken = 1.0
        for _ in range(40):
            trial = x + taken * d
            out = evaluate(trial)
            if descends(out, current):
                break
            taken *= 0.5
        else:
            raise MeshError("mmpde substep rejected down to the step floor "
                            f"(substep {n_done + 1}, energy {current:.6g})")
        current, grad = out
        g_new = grad * free
        # the one K^-1 solve of the iteration
        kg_new = precond(g_new.ravel())
        history.push((trial - x).ravel(), (g_new - g).ravel(), kg_new - kg)
        x, g, kg = trial, g_new, kg_new
        n_done += 1

    moved = x - x0
    # a smoothing flow's motion overshoots the next flow and the first step
    factor.motion = moved if np.isfinite(dt_interval) else None
    return MmpdeResult(x, n_done, stopped, predicted)


@dataclass
class SmoothResult:
    mesh: TriMesh
    trace: list = field(default_factory=list)      # displacement sum per iter
    trace_max: list = field(default_factory=list)  # max vertex move per iter
    converged: bool = False
    flow_stops: list = field(default_factory=list)  # mmpde stop reason per iter
    flow_iters: list = field(default_factory=list)  # mmpde iterations per iter
    flow_rtols: list = field(default_factory=list)  # mmpde rtol per iter


def smooth_mesh(mesh: TriMesh, chains: Sequence[PitChain], p: AdaptParams,
                factor: Optional[StiffnessFactor] = None,
                nearest: Optional[NearestSegments] = None) -> SmoothResult:
    """Relax the mesh against its own monitor until it settles.

    Each iteration rebuilds the monitor at the current vertex positions and
    runs the flow under that frozen metric to mmpde_step's stationarity
    tolerance, relative to the flow's starting gradient by rtol: _GRAD_RTOL
    for the first flow, _FORCING_RTOL for the second, and for flow k >= 3
    the contraction d_(k-1)/d_(k-2) of the displacement sums, clamped to
    [_GRAD_RTOL, _FORCING_RTOL].  The loop stops when the summed vertex
    displacement drops below _SMOOTHING_TOL, or after _SMOOTHING_MAX_ITERS
    iterations.
    Returns the smoothed mesh, the per-iteration displacement trace and
    each flow's stop reason, iteration count and rtol.  Every flow's mmpde_step
    shares factor, a fresh one if none is given, and leaves it holding no
    motion, so the step after smoothing starts at x^n; every monitor
    shares nearest, likewise a fresh one if none is given.
    """
    if factor is None:
        factor = StiffnessFactor()
    if nearest is None:
        nearest = NearestSegments()
    work = mesh.copy()
    out = SmoothResult(work)
    rtol = _GRAD_RTOL
    for it in range(_SMOOTHING_MAX_ITERS):
        metric = monitor_mackenzie(work, chains, p, nearest)
        # an inexact flow is enough: the next rebuild moves the target
        # further than an exact one would gain, and the outer stop still
        # reads the displacement of a flow that starts near stationarity
        res = mmpde_step(work, metric, p, dt_interval=np.inf,
                         max_substeps=_MAX_SUBSTEPS, factor=factor,
                         rtol=rtol)
        if res.stopped == "substep-cap":
            logger.warning("smoothing iteration %d: flow stopped at its "
                           "%d-substep cap before stationarity",
                           it + 1, _MAX_SUBSTEPS)
        moved = res.positions - work.vertices
        lengths = np.hypot(moved[:, 0], moved[:, 1])
        disp = float(np.sum(lengths))
        work.vertices = res.positions
        out.trace.append(disp)
        out.trace_max.append(float(np.max(lengths)))
        out.flow_stops.append(res.stopped)
        out.flow_iters.append(res.substeps)
        out.flow_rtols.append(rtol)
        if disp < _SMOOTHING_TOL:
            out.converged = True
            break
        # the next flow need contract no further than the loop last did
        rtol = _FORCING_RTOL if it == 0 else min(
            _FORCING_RTOL, max(_GRAD_RTOL, disp / out.trace[-2]))
    if not out.converged:
        logger.warning("mesh smoothing hit its %d-iteration cap with "
                       "displacement %.3g", _SMOOTHING_MAX_ITERS,
                       out.trace[-1] if out.trace else float("nan"))
    return out

