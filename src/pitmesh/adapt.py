"""Variational mesh adaptation: monitor, energy functional, mesh relaxation.

The distance-based monitor concentrates elements near the pit boundary.
Minimizing the equidistribution/alignment energy over vertex positions
moves the mesh; the motion is the gradient flow dx/dt = -(P/tau) dI/dx.
tau only rescales time, so the flow runs in normalized pseudo time with
budget dt/tau: small tau relaxes the mesh far toward the energy minimum
each step, large tau leaves it lagging.

A budget of at least bb_threshold cannot bind before the flow is
stationary, so there the endpoint is computed directly as the energy
minimum, by L-BFGS.  Its initial inverse Hessian is a scaled K^-1, where
K is the P1 stiffness matrix of the starting mesh with each cell weighted
by its energy density, restricted per coordinate to the free vertices
and factorised once per call.  K carries the coupling between
neighbouring vertices that a diagonal scaling misses, so the iteration
count stays nearly flat as the mesh is refined.  Smaller budgets are
integrated in explicit P-scaled substeps capped at a fraction of the
local edge length.  Both paths backtrack until the energy does not rise
and no cell inverts; both energy terms blow up as an element
degenerates, so an accepted step can never invert a cell.
Mesh smoothing repeats the minimisation under a monitor rebuilt at the
moved vertices until the mesh stops moving.

Also hosts the 1D equidistribution oracle used for verification.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Optional, Sequence

import numpy as np
from scipy.integrate import quad
from scipy.linalg import blas
from scipy.optimize import brentq
from scipy.sparse.linalg import splu

from .fem import assemble_stiffness
from .mesh import (MeshError, PitChain, TriMesh, min_distance_to_pit,
                   vertex_roles)

logger = logging.getLogger("pitmesh.adapt")

_MESH_DIM = 2  # functional exponents are wired for d = 2


@dataclass
class AdaptParams:
    mu1: float = 100.0            # monitor magnitude at the pit boundary
    mu2: float = 1.0              # monitor decay rate with distance
    tau: float = 1e-5             # mesh response time, seconds
    theta: float = 1.0 / 3.0      # energy balance exponent, in (0, 1/2)
    gamma: float = 1.5            # energy power, > 1
    smoothing_tol: float = 1e-2   # displacement-sum stop, micrometers
    smoothing_max_iters: int = 40
    # mesh relaxation knobs (the upstream formulation names no solver);
    # the caps count explicit substeps or L-BFGS iterations
    max_substeps: int = 500       # per time step
    smoothing_substeps: int = 1000  # per smoothing iteration
    disp_frac: float = 0.2        # substep displacement cap vs local edge
    grad_tol: float = 1e-7        # stationarity exit on the projected gradient
    grad_rtol: float = 1e-3       # ... or relative to the interval's start
    # budgets dt/tau at least this large cannot bind before the flow is
    # stationary, so L-BFGS minimises the energy instead of substepping
    bb_threshold: float = 1e4

    def validate(self) -> None:
        if self.mu1 < 0.0 or self.mu2 < 0.0:
            raise ValueError("mu1 and mu2 must be >= 0")
        if self.tau <= 0.0:
            raise ValueError("tau must be positive")
        if not 0.0 < self.theta < 0.5:
            raise ValueError(f"theta must be in (0, 1/2), got {self.theta}")
        if self.gamma <= 1.0:
            raise ValueError(f"gamma must be > 1, got {self.gamma}")
        if self.smoothing_tol <= 0.0:
            raise ValueError("smoothing_tol must be positive")
        if self.smoothing_max_iters < 1:
            raise ValueError("smoothing_max_iters must be >= 1")


def monitor_mackenzie(mesh: TriMesh, chains: Sequence[PitChain],
                      p: AdaptParams) -> np.ndarray:
    """Distance-based monitor M(x) = (1 + mu1/sqrt(mu2^2 d^2 + 1)) I.

    Returns one symmetric 2x2 tensor per vertex, (nv, 2, 2).  Without any
    chains (plain rectangle meshes) the metric is the identity.
    """
    nv = mesh.n_vertices
    if chains and p.mu1 > 0.0:
        d = min_distance_to_pit(mesh.vertices, chains, mesh)
        m = 1.0 + p.mu1 / np.sqrt(p.mu2 ** 2 * d ** 2 + 1.0)
    else:
        m = np.ones(nv)
    out = np.zeros((nv, 2, 2))
    out[:, 0, 0] = m
    out[:, 1, 1] = m
    return out


def element_metrics(mesh: TriMesh, metric: np.ndarray) -> np.ndarray:
    """Cell tensors M_K as the mean of the three vertex tensors."""
    return metric[mesh.triangles].mean(axis=1)


def vertex_p_scaling(metric: np.ndarray) -> np.ndarray:
    """Invariance scaling P_i = det(M_i)^(1/(d+2)) per vertex."""
    det = metric[:, 0, 0] * metric[:, 1, 1] - metric[:, 0, 1] * metric[:, 1, 0]
    return det ** (1.0 / (_MESH_DIM + 2))


class _ElementFunctional:
    """Energy and gradient over elements with a frozen per-cell metric.

    Per cell with edge matrix E = [x1-x0, x2-x0], J = E^-1, A2 = det(E):
        I_K = c1 * A2 * T^gamma + c2 * A2^(1-gamma),  T = tr(J M^-1 J^T)
    with c1 = theta sqrt(det M)/2 and
    c2 = (1-2 theta) 2^(gamma-1) det(M)^((1-gamma)/2).
    Gradients use d det(E)/dE = A2 J^T and dT/dE = -2 J^T J M^-1 J^T.
    The 2x2 algebra is written out component-wise for speed.
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
        det = (cell_metric[:, 0, 0] * cell_metric[:, 1, 1]
               - cell_metric[:, 0, 1] * cell_metric[:, 1, 0])
        if np.any(det <= 0.0):
            raise MeshError("metric tensor with non-positive determinant")
        self.m00 = cell_metric[:, 1, 1] / det
        self.m01 = -cell_metric[:, 0, 1] / det
        self.m11 = cell_metric[:, 0, 0] / det
        self.c1 = theta * np.sqrt(det) / 2.0
        self.c2 = (1.0 - 2.0 * theta) * 2.0 ** (gamma - 1.0) \
            * det ** ((1.0 - gamma) / 2.0)

    def evaluate(self, x: np.ndarray,
                 with_density: bool = False) -> Optional[tuple]:
        """(energy, gradient (nv, 2)), or None if any element is inverted.

        with_density appends the per-cell energy density
        c1 T^gamma + c2 A2^-gamma, the cell energy divided by A2.
        """
        corners = np.take(x.ravel(), self._flat)
        (e00, e01), (e10, e11) = corners[:, 1:] - corners[:, :1]
        a2 = e00 * e11 - e01 * e10
        if np.any(a2 <= 0.0):
            return None
        inv = 1.0 / a2
        j00, j01 = e11 * inv, -e01 * inv
        j10, j11 = -e10 * inv, e00 * inv
        # B = J M^-1 J^T (symmetric), T = tr(B), dT/dE = -2 J^T B
        jm00 = j00 * self.m00 + j01 * self.m01
        jm01 = j00 * self.m01 + j01 * self.m11
        jm10 = j10 * self.m00 + j11 * self.m01
        jm11 = j10 * self.m01 + j11 * self.m11
        b00 = jm00 * j00 + jm01 * j01
        b01 = jm00 * j10 + jm01 * j11
        b11 = jm10 * j10 + jm11 * j11
        tr = b00 + b11
        g = self.gamma
        tr_g1 = tr ** (g - 1.0)
        align = self.c1 * tr * tr_g1        # c1 T^gamma
        equi = self.c2 * a2 ** -g           # c2 A2^-gamma
        density = align + equi
        energy = float(np.dot(a2, density))

        coef_a = align + (1.0 - g) * equi
        coef_w = -2.0 * g * self.c1 * a2 * tr_g1
        # dA2/dE entries are (e11, -e10; -e01, e00); ge is laid out like
        # the corners, and corner 0 takes minus the sum of corners 1 and 2
        ge = np.empty_like(corners)
        ge[0, 1] = coef_a * e11 + coef_w * (j00 * b00 + j10 * b01)
        ge[0, 2] = coef_w * (j00 * b01 + j10 * b11) - coef_a * e10
        ge[1, 1] = coef_w * (j01 * b00 + j11 * b01) - coef_a * e01
        ge[1, 2] = coef_a * e00 + coef_w * (j01 * b01 + j11 * b11)
        np.add(ge[:, 1], ge[:, 2], out=ge[:, 0])
        np.negative(ge[:, 0], out=ge[:, 0])
        grad = np.bincount(self._flat.ravel(), weights=ge.ravel(),
                           minlength=x.size)
        if with_density:
            return energy, grad.reshape(x.shape), density
        return energy, grad.reshape(x.shape)


def _functional(mesh: TriMesh, metric: np.ndarray,
                p: AdaptParams) -> _ElementFunctional:
    return _ElementFunctional(mesh.triangles, element_metrics(mesh, metric),
                              p.theta, p.gamma)


def _evaluate_mesh(fn: _ElementFunctional, mesh: TriMesh,
                   with_density: bool = False) -> tuple:
    out = fn.evaluate(mesh.vertices, with_density)
    if out is None:
        cell = int(np.argmin(mesh.signed_areas()))
        raise MeshError(f"energy of inverted cell {cell}")
    return out


def energy(mesh: TriMesh, metric: np.ndarray, p: AdaptParams) -> float:
    """Total adaptation energy of the mesh under a frozen vertex metric."""
    return _evaluate_mesh(_functional(mesh, metric, p), mesh)[0]


def grad_energy(mesh: TriMesh, metric: np.ndarray, p: AdaptParams) -> np.ndarray:
    """Analytic dI/dx per vertex, (nv, 2); metric values are held fixed."""
    return _evaluate_mesh(_functional(mesh, metric, p), mesh)[1]


@dataclass
class MmpdeResult:
    positions: np.ndarray
    substeps: int            # explicit substeps or L-BFGS iterations
    stopped: str             # "budget" | "stationary" | "substep-cap"
    max_displacement: float


# L-BFGS curvature pairs kept (Nocedal 1980); a short history suffices
_LBFGS_HISTORY = 8


def _local_scale(x: np.ndarray, triangles: np.ndarray) -> np.ndarray:
    """Shortest incident edge length per vertex."""
    scale = np.full(len(x), np.inf)
    t0, t1, t2 = triangles.T
    for (i, j) in ((t0, t1), (t1, t2), (t2, t0)):
        ln = np.hypot(x[i, 0] - x[j, 0], x[i, 1] - x[j, 1])
        np.minimum.at(scale, i, ln)
        np.minimum.at(scale, j, ln)
    return scale


def _stiffness_preconditioner(mesh: TriMesh, density: np.ndarray,
                              free: np.ndarray) -> Callable:
    """v -> K^-1 v for flat (2 nv,) vectors, K the density-weighted stiffness.

    K is the P1 stiffness matrix with each cell weighted by its energy
    density, restricted per coordinate to the vertices free in that
    coordinate and factorised once; constrained entries map to zero.
    """
    stiffness = assemble_stiffness(mesh, density)
    blocks = []
    for c in range(2):
        idx = np.flatnonzero(free[:, c])
        if len(idx):
            lu = splu(stiffness[idx][:, idx].tocsc(),
                      permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                      options={"SymmetricMode": True})
            blocks.append((c, idx, lu))

    def apply(v: np.ndarray) -> np.ndarray:
        v = v.reshape(-1, 2)
        out = np.zeros_like(v)
        for c, idx, lu in blocks:
            out[idx, c] = lu.solve(v[idx, c])
        return out.ravel()
    return apply


def _lbfgs_direction(g: np.ndarray, precond: Callable, history: list) -> np.ndarray:
    """-H g by the two-loop recursion, with H0 = gamma K^-1.

    precond applies K^-1 to flat vectors; gamma = s'y / y'K^-1 y from the
    newest pair.  g is (nv, 2), and history holds flat pairs
    (s, y, 1/s'y), oldest first.
    """
    q = g.ravel().copy()
    alphas = []
    for s, y, rho in reversed(history):
        a = rho * s.dot(q)
        q = blas.daxpy(y, q, a=-a)
        alphas.append(a)
    s, y, _ = history[-1]
    r = precond(q)
    r *= s.dot(y) / y.dot(precond(y))
    for (s, y, rho), a in zip(history, reversed(alphas)):
        r = blas.daxpy(s, r, a=a - rho * y.dot(r))
    return -r.reshape(g.shape)


def mmpde_step(mesh: TriMesh, metric: np.ndarray, p: AdaptParams,
               dt_interval: float, max_substeps: Optional[int] = None,
               grad_tol: Optional[float] = None) -> MmpdeResult:
    """Relax the mesh under the flow over one interval.

    Returns the new vertex positions (the mesh itself is untouched).
    Interior vertices move freely, top/bottom vertices slide in x,
    left/right vertices slide in y; rectangle corners and all pit-chain
    vertices are pinned (the front owns them).  A budget dt/tau of at
    least bb_threshold cannot bind, so the flow's endpoint, the energy
    minimum, is found by L-BFGS; smaller budgets are integrated in
    explicit substeps.  Either way the flow stops once the largest
    projected gradient entry is below the stationarity tolerance.
    """
    max_substeps = p.max_substeps if max_substeps is None else max_substeps
    budget = dt_interval / p.tau

    fn = _functional(mesh, metric, p)
    roles = vertex_roles(mesh)
    free = np.ones((mesh.n_vertices, 2))
    free[roles.pinned] = 0.0
    free[roles.slide_x, 1] = 0.0
    free[roles.slide_y, 0] = 0.0
    x = mesh.vertices.copy()
    current, grad, density = _evaluate_mesh(fn, mesh, with_density=True)
    g = grad * free
    scale = _local_scale(x, fn.triangles)
    # an explicit grad_tol is an exact threshold; the default combines the
    # absolute floor with a tolerance relative to the interval's start
    stop_tol = grad_tol if grad_tol is not None \
        else max(p.grad_tol, p.grad_rtol * float(np.max(np.abs(g))))
    minimise = budget >= p.bb_threshold
    if minimise:
        precond = _stiffness_preconditioner(mesh, density, free)
    else:
        pflat = np.repeat(vertex_p_scaling(metric), 2)
        precond = partial(np.multiply, pflat)

    s = 0.0               # pseudo time integrated, explicit substeps only
    shrink = 1.0          # explicit substep reduction left by backtracking
    history = []          # L-BFGS pairs (s, y, 1/s'y), oldest first
    stopped = "substep-cap"
    n_done = 0
    for _ in range(max_substeps):
        if float(np.max(np.abs(g))) < stop_tol:
            stopped = "stationary"
            break
        if history:
            d = _lbfgs_direction(g, precond, history)
            if float(np.vdot(d, g)) >= 0.0:
                history.clear()
        if not history:
            d = -precond(g.ravel()).reshape(g.shape)
        vrel = float(np.max(np.hypot(d[:, 0], d[:, 1]) / scale))
        if vrel <= 0.0:
            stopped = "stationary"
            break
        # explicit substeps, and minimiser steps without curvature history,
        # move no vertex further than disp_frac of its shortest edge
        if history:
            step = 1.0
        elif minimise:
            step = p.disp_frac / vrel
        else:
            step = min(p.disp_frac / vrel * shrink, budget - s)
        if step * vrel * max(1.0, 1.0 / p.disp_frac) < 1e-14:
            stopped = "stationary"
            break
        # descent-only backtracking that also rejects inverted trials
        taken = step
        for _ in range(40):
            trial = x + taken * d
            out = fn.evaluate(trial)
            if out is not None and \
                    out[0] <= current + 1e-12 * max(1.0, abs(current)):
                break
            taken *= 0.5
        else:
            raise MeshError("mmpde substep rejected down to the step floor "
                            f"(substep {n_done + 1}, energy {current:.6g})")
        current, grad = out
        g_new = grad * free
        if minimise:
            dx, dg = (trial - x).ravel(), (g_new - g).ravel()
            sy = dx.dot(dg)
            if sy > 0.0:
                history.append((dx, dg, 1.0 / sy))
                del history[:-_LBFGS_HISTORY]
        else:
            shrink = min(1.0, 2.0 * max(shrink * taken / step, 1e-6))
            s += taken
        x, g = trial, g_new
        n_done += 1
        if not minimise and s >= budget * (1.0 - 1e-12):
            stopped = "budget"
            break
        if n_done % 25 == 0:
            scale = _local_scale(x, fn.triangles)

    moved = x - mesh.vertices
    max_disp = float(np.max(np.hypot(moved[:, 0], moved[:, 1]))) if len(x) else 0.0
    return MmpdeResult(x, n_done, stopped, max_disp)


@dataclass
class SmoothResult:
    mesh: TriMesh
    trace: list = field(default_factory=list)      # displacement sum per iter
    trace_max: list = field(default_factory=list)  # max vertex move per iter
    converged: bool = False
    flow_stops: list = field(default_factory=list)  # mmpde stop reason per iter
    flow_iters: list = field(default_factory=list)  # mmpde iterations per iter


def smooth_mesh(mesh: TriMesh, chains: Sequence[PitChain], p: AdaptParams,
                max_iters: Optional[int] = None) -> SmoothResult:
    """Relax the mesh against its own monitor until it settles.

    Each iteration rebuilds the monitor at the current vertex positions and
    runs the flow to stationarity under that frozen metric; the loop stops
    when the summed vertex displacement drops below smoothing_tol.
    Returns the smoothed mesh, the per-iteration displacement trace and
    each flow's stop reason and iteration count.
    """
    max_iters = p.smoothing_max_iters if max_iters is None else max_iters
    work = mesh.copy()
    out = SmoothResult(work)
    for it in range(max_iters):
        metric = monitor_mackenzie(work, chains, p)
        # run the flow to absolute stationarity: the outer loop then sees
        # only the metric-update fixed point, not integrator leftovers
        res = mmpde_step(work, metric, p, dt_interval=np.inf,
                         max_substeps=p.smoothing_substeps,
                         grad_tol=p.grad_tol)
        if res.stopped == "substep-cap":
            logger.warning("smoothing iteration %d: flow stopped at "
                           "smoothing_substeps=%d before stationarity",
                           it + 1, p.smoothing_substeps)
        moved = res.positions - work.vertices
        disp = float(np.sum(np.hypot(moved[:, 0], moved[:, 1])))
        work.vertices = res.positions
        out.trace.append(disp)
        out.trace_max.append(res.max_displacement)
        out.flow_stops.append(res.stopped)
        out.flow_iters.append(res.substeps)
        if disp < p.smoothing_tol:
            out.converged = True
            break
    if not out.converged:
        logger.warning("mesh smoothing hit max_iters=%d with displacement %.3g",
                       max_iters, out.trace[-1] if out.trace else float("nan"))
    return out


def solve_equidistribution_1d(rho: Callable[[float], float], a: float, b: float,
                              N: int) -> np.ndarray:
    """Equidistributing mesh for a positive density on [a, b].

    Returns x_0..x_N with equal integrals of rho over every subinterval,
    found by inverting the cumulative integral with adaptive quadrature.
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    if b <= a:
        raise ValueError("need b > a")
    samples = np.linspace(a, b, 513)
    vals = np.array([rho(float(s)) for s in samples])
    if np.any(vals <= 0.0):
        bad = float(samples[int(np.argmin(vals))])
        raise ValueError(f"density must be positive; rho({bad:g}) <= 0")

    sigma, _ = quad(rho, a, b, epsabs=1e-13, epsrel=1e-13, limit=200)

    points = np.empty(N + 1)
    points[0] = a
    points[N] = b
    lo = a
    for i in range(1, N):
        target = sigma * i / N

        def balance(x):
            val, _ = quad(rho, a, x, epsabs=1e-13, epsrel=1e-13, limit=200)
            return val - target

        points[i] = brentq(balance, lo, b, xtol=1e-14, rtol=8.9e-16)
        lo = points[i]
    return points
