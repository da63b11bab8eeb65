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
iteration count stays nearly flat as the mesh is refined.  K leaves out the proximal term's diagonal (tau/dt)/P_i,
so it does not depend on dt; the curvature pairs take that term up.  An
mmpde_step call without a StiffnessFactor gets K factorised afresh from
its starting mesh; a smoothing sequence shares one StiffnessFactor over
its flows and a run passes one to every call, and K is factorised again
only when the free-vertex set changes or the cell energy densities drift.
Each free block's band order and the map from cell stiffness entries to
its band storage depend on the triangulation and the free set alone, so
they are kept until those change; a refactorisation only refills the
bands and factorises them.
The shared factor also carries the last call's displacement and its
curvature pairs: the pit front moves about as far each step, so the mesh
follows it smoothly and its last motion predicts the next.  A call over a
finite interval repeats that displacement on its free coordinates when the
result passes the line search's test against x^n, and every call starts
L-BFGS with the carried pairs; a refactorisation drops them, as their
K^-1 y belong to the old K.
Each search direction is tried at unit length, the quasi-Newton step that
K^-1 already scales, and backtracks until the energy does not rise and no
cell inverts; both energy terms blow up as an element degenerates, so an
accepted step can never invert a cell.
Mesh smoothing repeats the minimisation under a monitor rebuilt at the
moved vertices until the mesh stops moving.  Its flows run over an
infinite interval and try no predicted start: each moves less than the
one before, so repeating the last motion overshoots.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np
from scipy.linalg import cho_solve_banded

from .fem import BandLayout, _cell_stiffness
from .mesh import (MeshError, NearestSegments, PitChain, TriMesh,
                   min_distance_to_pit, vertex_roles)

logger = logging.getLogger("pitmesh.adapt")

_MESH_DIM = 2  # functional exponents are wired for d = 2


@dataclass
class AdaptParams:
    mu1: float = 100.0            # monitor magnitude at the pit boundary
    mu2: float = 1.0              # monitor decay rate with distance
    tau: float = 1e-5             # mesh response time, seconds
    theta: float = 1.0 / 3.0      # energy balance exponent, in (0, 1/2)
    gamma: float = 1.5            # energy power, > 1

    def validate(self) -> None:
        if self.mu1 < 0.0 or self.mu2 < 0.0:
            raise ValueError("mu1 and mu2 must be >= 0")
        if self.tau <= 0.0:
            raise ValueError("tau must be positive")
        if not 0.0 < self.theta < 0.5:
            raise ValueError(f"theta must be in (0, 1/2), got {self.theta}")
        if self.gamma <= 1.0:
            raise ValueError(f"gamma must be > 1, got {self.gamma}")


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
    return metric[mesh.triangles].mean(axis=1)


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
    with c1 = theta m/2 and c2 = (1-2 theta) 2^(gamma-1) m^(1-gamma).
    For a 2x2 E, T = |E|_F^2 / (m A2^2) and dA2/dE = cof(E), so
        dI_K/dE = [(1-2 gamma) align + (1-gamma) equi] cof(E)
                  + (2 gamma align A2 / |E|_F^2) E
    with align = c1 T^gamma and equi = c2 A2^-gamma.
    """

    def __init__(self, triangles: np.ndarray, cell_metric: np.ndarray,
                 theta: float, gamma: float):
        self.triangles = triangles
        # index of coordinate c of corner k of each cell in the flattened
        # (nv, 2) positions, laid out (c, k, cell): one take gathers every
        # corner coordinate and one bincount scatters the gradient back
        self._flat = np.ascontiguousarray(
            2 * triangles.T[None, :, :].astype(np.intp)
            + np.arange(2)[:, None, None])
        self.gamma = gamma
        if np.any(cell_metric <= 0.0):
            raise MeshError("non-positive monitor value")
        self.inv_m = 1.0 / cell_metric
        self.c1 = theta * cell_metric / 2.0
        self.c2 = (1.0 - 2.0 * theta) * 2.0 ** (gamma - 1.0) \
            * cell_metric ** (1.0 - gamma)

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
        g = self.gamma
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


def _functional(mesh: TriMesh, metric: np.ndarray,
                p: AdaptParams) -> _ElementFunctional:
    return _ElementFunctional(mesh.triangles, element_metrics(mesh, metric),
                              p.theta, p.gamma)


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
    max_displacement: float
    predicted: bool          # started from x^n plus the last call's motion


# Mesh relaxation settings (the upstream formulation names no solver).
# The caps count L-BFGS iterations.
_MAX_SUBSTEPS = 500          # per time step
_SMOOTHING_SUBSTEPS = 1000   # per smoothing iteration
_GRAD_TOL = 1e-7             # stationarity exit on the projected gradient
_GRAD_RTOL = 1e-3            # ... or relative to the interval's start
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

    It holds the preconditioner v -> K^-1 v, the last call's displacement
    and that call's L-BFGS curvature pairs.  K is the P1 stiffness matrix
    with each cell weighted by its energy density, restricted per
    coordinate to the vertices free in that coordinate; constrained
    entries map to zero.  K is factorised again only when the mesh
    topology or free-vertex set changes, or when some cell's energy
    density has left [1/_REFACTOR_RATIO, _REFACTOR_RATIO] times its value
    at the last factorisation.  A stale K is still SPD, so it stays a
    valid preconditioner.  A refactorisation drops the pairs, whose K^-1 y
    belongs to the old K; a new topology drops the displacement too.
    Counts its factorisations and the minimiser calls it served.

    Each free block of K has a fem.BandLayout: its reverse Cuthill-McKee
    order and the band slot of every cell stiffness entry.  The layouts
    depend only on the triangulation and the free set, so they are built
    again only when those change; a refactorisation fills each band from
    the weighted cell stiffness by one bincount and factorises it by
    banded Cholesky.  The band factor is a plain array of its own size; a
    SuperLU factor reserves heap for its fill estimate, about 15 times
    what it touches, and kept across calls that reserve fragments the heap.
    """

    def __init__(self):
        self.factorisations = 0
        self.minimiser_calls = 0
        self._key = None        # (triangles, free) of the layouts
        self._layouts = []      # (coordinate, BandLayout) per free block
        self._density = None    # cell energy densities at factorisation
        self._apply = None
        self.motion = None      # the last call's x_final - x^n, (nv, 2)
        self.pairs = []         # its L-BFGS pairs (s, y, K^-1 y, 1/s'y)

    def preconditioner(self, mesh: TriMesh, density: np.ndarray,
                       free: np.ndarray) -> Callable:
        """v -> K^-1 v for flat (2 nv,) vectors, refactorised if stale."""
        self.minimiser_calls += 1
        same_mesh = self._key is not None \
            and np.array_equal(mesh.triangles, self._key[0])
        if not same_mesh:
            self.motion = None
        same_layout = same_mesh and np.array_equal(free, self._key[1])
        if self._apply is not None and same_layout \
                and np.max(np.abs(np.log(density / self._density))) \
                <= np.log(_REFACTOR_RATIO):
            return self._apply
        # drop the old factor first: building the new one beside it raises
        # peak memory
        self._apply = None
        self.pairs = []
        entries = _cell_stiffness(mesh, density).ravel()
        if not same_layout:
            self._layouts = [(c, BandLayout(mesh, np.flatnonzero(free[:, c])))
                             for c in range(2) if np.any(free[:, c])]
            self._key = (mesh.triangles.copy(), free)
        blocks = [(c, layout.order, layout.factor(entries))
                  for c, layout in self._layouts]

        def apply(v: np.ndarray) -> np.ndarray:
            v = v.reshape(-1, 2)
            out = np.zeros_like(v)
            for c, idx, chol in blocks:
                out[idx, c] = cho_solve_banded((chol, False), v[idx, c],
                                               check_finite=False)
            return out.ravel()

        self._apply = apply
        self._density = density
        self.factorisations += 1
        return apply


def _lbfgs_direction(g: np.ndarray, kg: np.ndarray, history: list) -> np.ndarray:
    """-H g by the two-loop recursion, with H0 = gamma K^-1.

    kg is K^-1 g, flat; gamma = s'y / y'K^-1 y from the newest pair.  g is
    (nv, 2), and history holds flat tuples (s, y, K^-1 y, 1/s'y), oldest
    first.  The first loop only subtracts multiples of y from g, so K^-1 q
    follows from kg and the stored K^-1 y without a solve.
    """
    q = g.ravel().copy()
    r = kg.copy()
    alphas = []
    for s, y, ky, rho in reversed(history):
        a = rho * _dot(s, q)
        q -= a * y
        r -= a * ky
        alphas.append(a)
    s, y, ky, _ = history[-1]
    r *= _dot(s, y) / _dot(y, ky)
    for (s, y, _, rho), a in zip(history, reversed(alphas)):
        r += (a - rho * _dot(y, r)) * s
    return -r.reshape(g.shape)


def mmpde_step(mesh: TriMesh, metric: np.ndarray, p: AdaptParams,
               dt_interval: float, max_substeps: int = _MAX_SUBSTEPS,
               grad_tol: Optional[float] = None,
               factor: Optional[StiffnessFactor] = None) -> MmpdeResult:
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
    tolerance, which is set from the gradient at x^n.  factor keeps the
    preconditioner, the last call's motion and its L-BFGS pairs across
    calls.  L-BFGS starts from the pairs, and, for a finite dt_interval,
    from x^n plus that motion on the free coordinates if x^n is not
    stationary and that start passes the line search's test.  Every call
    records its motion, so a step after smoothing tries the last flow's.
    Without a factor, K is factorised afresh and L-BFGS starts at x^n
    with no pairs.
    """
    fn = _functional(mesh, metric, p)
    roles = vertex_roles(mesh)
    free = np.ones((mesh.n_vertices, 2))
    free[roles.pinned] = 0.0
    free[roles.slide_x, 1] = 0.0
    free[roles.slide_y, 0] = 0.0
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
    # an explicit grad_tol is an exact threshold; the default combines the
    # absolute floor with a tolerance relative to the interval's start
    stop_tol = grad_tol if grad_tol is not None \
        else max(_GRAD_TOL, _GRAD_RTOL * float(np.max(np.abs(g))))
    if factor is None:
        factor = StiffnessFactor()
    precond = factor.preconditioner(mesh, density, free)

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
    kg = precond(g.ravel())

    history = factor.pairs   # L-BFGS pairs (s, y, K^-1 y, 1/s'y), oldest first
    stopped = "substep-cap"
    n_done = 0
    for _ in range(max_substeps):
        if float(np.max(np.abs(g))) < stop_tol:
            stopped = "stationary"
            break
        if history:
            d = _lbfgs_direction(g, kg, history)
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
        dx, dg = (trial - x).ravel(), (g_new - g).ravel()
        sy = _dot(dx, dg)
        if sy > 0.0:
            history.append((dx, dg, kg_new - kg, 1.0 / sy))
            del history[:-_LBFGS_HISTORY]
        x, g, kg = trial, g_new, kg_new
        n_done += 1

    moved = x - x0
    factor.motion = moved
    max_disp = float(np.max(np.hypot(moved[:, 0], moved[:, 1]))) if len(x) else 0.0
    return MmpdeResult(x, n_done, stopped, max_disp, predicted)


@dataclass
class SmoothResult:
    mesh: TriMesh
    trace: list = field(default_factory=list)      # displacement sum per iter
    trace_max: list = field(default_factory=list)  # max vertex move per iter
    converged: bool = False
    flow_stops: list = field(default_factory=list)  # mmpde stop reason per iter
    flow_iters: list = field(default_factory=list)  # mmpde iterations per iter


def smooth_mesh(mesh: TriMesh, chains: Sequence[PitChain], p: AdaptParams,
                factor: Optional[StiffnessFactor] = None) -> SmoothResult:
    """Relax the mesh against its own monitor until it settles.

    Each iteration rebuilds the monitor at the current vertex positions and
    runs the flow to stationarity under that frozen metric; the loop stops
    when the summed vertex displacement drops below _SMOOTHING_TOL, or
    after _SMOOTHING_MAX_ITERS iterations.
    Returns the smoothed mesh, the per-iteration displacement trace and
    each flow's stop reason and iteration count.  Every flow's mmpde_step
    shares factor, a fresh one if none is given.
    """
    if factor is None:
        factor = StiffnessFactor()
    work = mesh.copy()
    out = SmoothResult(work)
    for it in range(_SMOOTHING_MAX_ITERS):
        metric = monitor_mackenzie(work, chains, p)
        # run the flow to absolute stationarity: the outer loop then sees
        # only the metric-update fixed point, not integrator leftovers
        res = mmpde_step(work, metric, p, dt_interval=np.inf,
                         max_substeps=_SMOOTHING_SUBSTEPS, grad_tol=_GRAD_TOL,
                         factor=factor)
        if res.stopped == "substep-cap":
            logger.warning("smoothing iteration %d: flow stopped at its "
                           "%d-substep cap before stationarity",
                           it + 1, _SMOOTHING_SUBSTEPS)
        moved = res.positions - work.vertices
        disp = float(np.sum(np.hypot(moved[:, 0], moved[:, 1])))
        work.vertices = res.positions
        out.trace.append(disp)
        out.trace_max.append(res.max_displacement)
        out.flow_stops.append(res.stopped)
        out.flow_iters.append(res.substeps)
        if disp < _SMOOTHING_TOL:
            out.converged = True
            break
    if not out.converged:
        logger.warning("mesh smoothing hit its %d-iteration cap with "
                       "displacement %.3g", _SMOOTHING_MAX_ITERS,
                       out.trace[-1] if out.trace else float("nan"))
    return out

