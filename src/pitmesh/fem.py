"""P1 finite elements for the electrolyte potential.

Laplace's equation in the electrolyte with phi = 0 on the top boundary,
zero-flux sides and bottom, and the Butler-Volmer current as a nonlinear
Robin-type flux on pit edges.  The resulting nonlinear system is solved
with Newton's method on a kept banded Cholesky factorization.

A BandLayout holds one diagonal block of a P1 stiffness matrix in
LAPACK's upper band storage: the block's order, its bandwidth, the band
slot of each cell stiffness entry and the last factor made on it, so a
factorisation is one fill and one cholesky_banded call, and band_solve
solves with the factor by one call of LAPACK's dpbtrs.  The order sweeps
the mesh from its left side wall, one breadth-first level of the mesh
graph after another.  It reads structure alone, so one layout serves
every cell weighting on a triangulation.

A MeshStructure alone decides when a mesh's triangles or tags have
changed, and keeps what the solvers derive from them, their layouts
included: one per coordinate for the mesh relaxation's preconditioner
blocks, and one for the free block of Newton's Jacobian.  A layout built
again starts with no factor; a run's relaxation and Newton share one
structure.  Newton's layout also keeps the stiffness block K as a CSR
matrix in layout order, whose data each Newton call refills in place.
The Jacobian changes little from one Newton step to the next, and from
one mesh step to the next, so each Newton step solves by conjugate
gradients preconditioned by the layout's factor (an inexact Newton
method: Kelley, Iterative Methods for Linear and Nonlinear Equations,
SIAM 1995; Eisenstat and Walker, SIAM J. Sci. Comput. 17, 1996).  These
need only products with the Jacobian, K minus the pit-edge 2x2 blocks,
so none is formed (Knoll and Keyes, J. Comput. Phys. 193, 2004).  Only
when there is no factor, or the iterations break down or miss their
target within _PCG_MAX_ITERS, does a step fill the band, subtract the
pit-edge terms in place and factorise it.  Only phi changes within a
solve, so the pit edges' V_corr and quadrature weights (PitEdges) are
computed once a solve.

The stiffness matrix is scale invariant in 2D, so it is assembled in
micrometer coordinates; boundary-flux integrals convert edge lengths to
meters so that phi comes out in volts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np
import scipy.sparse as sp
from scipy.linalg import cholesky_banded
from scipy.linalg.lapack import dpbtrs
# Unused here: the benchmark's layer tracer (bench/layers.py) wraps
# fem.splu, and tests/test_layers.py asserts that every traced name
# resolves, so fem exports it until the trace is dropped.
from scipy.sparse.linalg import splu

from . import electrochem
from .crystal import MaterialSpec, vcorr_many
from .electrochem import ElectroParams, OverflowGuardError
from .mesh import (BoundaryTag, MeshError, PitChain, TriMesh, corner_index,
                   vertex_roles)

__all__ = ["UM_TO_M", "NewtonError", "NewtonResult", "side_wall_levels",
           "MeshStructure", "BandLayout", "band_solve", "assemble_stiffness",
           "PitEdges", "pit_edges", "boundary_residual_and_jacobian",
           "dirichlet_mask", "newton_solve", "splu"]

UM_TO_M = 1.0e-6


class NewtonError(ArithmeticError):
    """Newton iteration failed to converge; carries the residual history."""

    def __init__(self, message, history=None):
        super().__init__(message)
        self.history = list(history or [])


# Newton converges once the residual norm is at most _ABS_TOL plus _REL_TOL
# times the first residual norm.  The rounding floor of the factorised
# solve can sit above _ABS_TOL on merged-pit systems, so convergence also
# accepts a drop relative to the first residual.
_ABS_TOL = 1e-10
_REL_TOL = 1e-4
_MAX_ITERS = 25
# conjugate-gradient iterations a Newton step may take on a kept factor
# before it factorises the Jacobian instead
_PCG_MAX_ITERS = 6
# two-point Gauss-Legendre rule on [-1, 1] for the pit-edge flux integrals
_GAUSS_XI, _GAUSS_W = np.polynomial.legendre.leggauss(2)


@dataclass
class NewtonResult:
    phi: np.ndarray
    iterations: int
    history: list = field(default_factory=list)   # residual norm per iterate


def _cell_stiffness(mesh: TriMesh, weight: Optional[np.ndarray] = None,
                    corners: Optional[np.ndarray] = None) -> np.ndarray:
    """Per-cell P1 stiffness entries, (3, 3, nt).

    Entry [i, j, k] couples corners i and j of cell k.  With a per-cell
    weight (nt,), each cell's entries are scaled by it.  corners is
    mesh.corner_index of the triangles, built here if not given.
    """
    if corners is None:
        corners = corner_index(mesh.triangles)
    x, y = np.take(mesh.vertices.ravel(), corners)
    # hat-function gradients: grad(lambda_i) = (b_i, c_i) / area2, with
    # b_i = y_{i+1} - y_{i+2} and c_i = x_{i+2} - x_{i+1}
    b = np.empty_like(x)
    c = np.empty_like(x)
    for i in range(3):
        np.subtract(y[i - 2], y[i - 1], out=b[i])
        np.subtract(x[i - 1], x[i - 2], out=c[i])
    # (x1 - x0)(y2 - y0) - (y1 - y0)(x2 - x0), as c_2 b_1 - b_2 c_1
    area2 = c[2] * b[1] - b[2] * c[1]
    if np.any(area2 <= 0.0):
        cell = int(np.argmin(area2))
        raise MeshError(f"stiffness assembly: inverted cell {cell}")
    scale = 1.0 / (2.0 * area2)
    if weight is not None:
        scale = scale * weight
    out = np.empty((3, 3, x.shape[1]))
    np.multiply(b[:, None], b[None, :], out=out)
    out += c[:, None] * c[None, :]
    out *= scale
    return out


def _corner_pairs(triangles: np.ndarray) -> tuple:
    """Row and column vertex of each flattened _cell_stiffness entry."""
    t = triangles.T
    shape = (3, 3, len(triangles))
    return (np.broadcast_to(t[:, None], shape).ravel(),
            np.broadcast_to(t[None, :], shape).ravel())


def side_wall_levels(mesh: TriMesh) -> np.ndarray:
    """Breadth-first level of each vertex in the mesh graph, (nv,).

    Level 0 is every vertex on the left side wall (x = x_min), level k
    the vertices k mesh edges from it.  The domain is wider than it is
    deep, so these level sets run across its short side.  Each level is
    one product of the edge graph with the last level's indicator.
    """
    t = mesh.triangles
    n = mesh.n_vertices
    # the edge graph, one entry each way per cell edge
    a, b = t.ravel(), np.roll(t, 1, axis=1).ravel()
    graph = sp.csr_matrix((np.ones(2 * t.size), (np.concatenate((a, b)),
                                                  np.concatenate((b, a)))),
                          shape=(n, n))
    x = mesh.vertices[:, 0]
    levels = np.full(n, np.inf)
    reached = x == x.min()
    new = reached
    level = 0
    while np.any(new):
        levels[new] = level
        level += 1
        new = (graph @ new.astype(np.float64) > 0.0) & ~reached
        reached |= new
    return levels


class MeshStructure:
    """What solver state reads from a mesh's triangles and boundary tags.

    of(mesh) compares mesh's triangles, edge nodes and edge tags with the
    copies it keeps, by content, as TriMesh.orient_ccw flips cells in
    place, and derives again what they change: corners (mesh.corner_index)
    and levels (side_wall_levels) from new triangles; free, the
    relaxation's (nv, 2) mask, one where a coordinate may move, and fixed,
    the Dirichlet mask, each replaced by a new array only when its content
    changes.  So state built from these arrays is current while they are
    the same objects.  It also keeps the BandLayouts of the relaxation's
    free blocks and of Newton's, each built from the mesh it is first
    asked on after the triangles or its mask change.  A run's relaxation
    and Newton share one.
    """

    def __init__(self):
        self._arrays = None     # copies of the triangles, edge nodes, tags
        self.corners = self.levels = self.free = self.fixed = None
        self._relaxation = self._newton = None

    def of(self, mesh: TriMesh) -> "MeshStructure":
        """This structure, brought up to date with mesh."""
        kept = self._arrays
        new_cells = kept is None or not np.array_equal(mesh.triangles, kept[0])
        if not new_cells and np.array_equal(mesh.edge_nodes, kept[1]) \
                and np.array_equal(mesh.edge_tags, kept[2]):
            return self
        if new_cells:
            self.corners = corner_index(mesh.triangles)
            self.levels = side_wall_levels(mesh)
            self._relaxation = self._newton = None
        roles = vertex_roles(mesh)
        free = np.ones((mesh.n_vertices, 2))
        free[roles.pinned] = 0.0
        free[roles.slide_x, 1] = 0.0
        free[roles.slide_y, 0] = 0.0
        fixed = dirichlet_mask(mesh)
        if self.free is None or not np.array_equal(free, self.free):
            self.free = free
            self._relaxation = None
        if self.fixed is None or not np.array_equal(fixed, self.fixed):
            self.fixed = fixed
            self._newton = None
        self._arrays = (mesh.triangles.copy(), mesh.edge_nodes.copy(),
                        mesh.edge_tags.copy())
        return self

    def relaxation_layouts(self, mesh: TriMesh) -> list:
        """(coordinate, BandLayout) of each coordinate with free vertices.

        The structure must be of mesh.
        """
        if self._relaxation is None:
            self._relaxation = [
                (c, BandLayout(mesh, np.flatnonzero(self.free[:, c]),
                               self.levels))
                for c in range(2) if np.any(self.free[:, c])]
        return self._relaxation

    def newton_layout(self, mesh: TriMesh) -> "BandLayout":
        """The BandLayout of the vertices off the Dirichlet set.

        The structure must be of mesh.
        """
        if self._newton is None:
            self._newton = BandLayout(mesh, np.flatnonzero(~self.fixed),
                                      self.levels)
        return self._newton


class BandLayout:
    """Upper band storage of one diagonal block of a P1 stiffness matrix.

    Built once for a block of vertices on a triangulation, it holds the
    block's order, by side_wall_levels and then by y; its bandwidth in
    that order; and the slot of each flattened _cell_stiffness entry in
    LAPACK's upper band storage (width + 1, n), Fortran order.  Entries off
    the block or below the diagonal go to a last, dropped slot.  levels
    are side_wall_levels(mesh), taken on the whole mesh, so a block
    without the side wall, such as the vertices free in x, is ordered the
    same way, and blocks of one mesh share them.  The order reads
    structure alone, so one layout serves every cell weighting on the
    triangulation.  chol is the last factor made on it, None until one
    is.
    """

    def __init__(self, mesh: TriMesh, block: np.ndarray, levels: np.ndarray):
        levels = levels[block]
        self.order = block[np.lexsort((mesh.vertices[block, 1], levels))]
        n = len(block)
        self._pos = np.full(mesh.n_vertices, -1)
        self._pos[self.order] = np.arange(n)
        rows, cols = (self._pos[i] for i in _corner_pairs(mesh.triangles))
        keep = (rows >= 0) & (rows <= cols)
        self.width = width = int(np.max(np.where(keep, cols - rows, 0)))
        self._size = (width + 1) * n
        # entry (r, c) sits at [width + r - c, c] of the band
        self._slot = np.where(keep, width + rows + cols * width, self._size)
        self.chol = None
        self._K = None          # see stiffness

    def band(self, entries: np.ndarray) -> np.ndarray:
        """The block's upper band from flat _cell_stiffness entries."""
        band = np.bincount(self._slot, weights=entries,
                           minlength=self._size + 1)[:-1]
        return band.reshape((self.width + 1, -1), order="F")

    def subtract_edges(self, band: np.ndarray, blocks: tuple) -> None:
        """Subtract edge 2x2 blocks (a, b, jaa, jab, jbb) from band in place.

        Each (a[k], b[k]) must be a mesh edge, so the block lies in the
        band; entries off the block are dropped.
        """
        a, b, jaa, jab, jbb = blocks
        pa, pb = self._pos[a], self._pos[b]
        rows = np.concatenate([pa, pb, np.minimum(pa, pb)])
        cols = np.concatenate([pa, pb, np.maximum(pa, pb)])
        keep = rows >= 0
        np.subtract.at(band, (self.width + rows[keep] - cols[keep], cols[keep]),
                       np.concatenate([jaa, jbb, jab])[keep])

    def factor(self, band: np.ndarray) -> np.ndarray:
        """Upper Cholesky band of a band from band(), kept as chol.

        LinAlgError if the band is not SPD.
        """
        # Fortran order lets LAPACK factorise the band in place
        self.chol = cholesky_banded(band, overwrite_ab=True)
        return self.chol

    def stiffness(self, mesh: TriMesh, entries: np.ndarray) -> sp.csr_matrix:
        """The block of the stiffness matrix in layout order, as CSR.

        entries are _cell_stiffness's on mesh's triangles, flattened;
        those off the block are dropped.  The first call builds the
        matrix and the slot in its data of each entry; later calls refill
        its data in place and return it.
        """
        if self._K is None:
            n = len(self.order)
            rows, cols = (self._pos[i] for i in _corner_pairs(mesh.triangles))
            keep = (rows >= 0) & (cols >= 0)
            # sorted keys, row * n + column, are the CSR order
            keys, inverse = np.unique(rows[keep] * n + cols[keep],
                                      return_inverse=True)
            self._csr_slot = np.full(len(rows), len(keys))
            self._csr_slot[keep] = inverse
            indptr = np.concatenate(
                ([0], np.cumsum(np.bincount(keys // n, minlength=n))))
            self._K = sp.csr_matrix((np.zeros(len(keys)), keys % n, indptr),
                                    shape=(n, n))
        nnz = len(self._K.data)
        self._K.data[:] = np.bincount(self._csr_slot, weights=entries,
                                      minlength=nnz + 1)[:nnz]
        return self._K


def band_solve(chol: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve A x = rhs from the upper band Cholesky factor of A.

    chol comes from BandLayout.factor.  LAPACK's dpbtrs called directly:
    scipy's cho_solve_banded adds its argument checks to every call, and
    the relaxation and Newton solve many times with one factor.
    """
    x, info = dpbtrs(chol, rhs)
    if info != 0:
        raise ValueError(f"dpbtrs: illegal value in argument {-info}")
    return x


def assemble_stiffness(mesh: TriMesh) -> sp.csr_matrix:
    """P1 stiffness matrix; constants span its null space."""
    rows, cols = _corner_pairs(mesh.triangles)
    n = mesh.n_vertices
    K = sp.coo_matrix((_cell_stiffness(mesh).ravel(), (rows, cols)),
                      shape=(n, n))
    return K.tocsr()


@dataclass
class PitEdges:
    """The part of the pit-flux integrals that reads the mesh alone.

    Edge k of the pit chains runs from vertex a[k] to b[k]; vc holds
    V_corr at its quadrature points, (ne, nq), from their positions and
    the edge's outward face normal; weight holds the quadrature weights
    times the edge's half length in meters over sigma_c, (ne, nq).  Only
    phi changes within a Newton solve, so one PitEdges serves each of its
    iterations.
    """
    n_vertices: int
    eparams: ElectroParams
    a: np.ndarray
    b: np.ndarray
    vc: np.ndarray
    weight: np.ndarray


def pit_edges(mesh: TriMesh, chains: Sequence[PitChain], material: MaterialSpec,
              eparams: ElectroParams) -> PitEdges:
    """The pit edges' V_corr and quadrature weights on mesh."""
    nq = len(_GAUSS_XI)
    # with no chains there are no edges to concatenate
    if not chains:
        none = np.zeros(0, dtype=np.int64)
        return PitEdges(mesh.n_vertices, eparams, none, none,
                        np.zeros((0, nq)), np.zeros((0, nq)))
    a_idx = np.concatenate([ch.vertices[:-1] for ch in chains])
    b_idx = np.concatenate([ch.vertices[1:] for ch in chains])
    pa = mesh.vertices[a_idx]
    pb = mesh.vertices[b_idx]
    d = pb - pa
    lengths = np.hypot(d[:, 0], d[:, 1])
    if np.any(lengths <= 0.0):
        raise MeshError("zero-length pit edge in boundary integral")
    normals = np.column_stack((d[:, 1], -d[:, 0])) / lengths[:, None]
    # hat values of the edge's start and end at the quadrature points
    na, nb = 0.5 * (1.0 - _GAUSS_XI), 0.5 * (1.0 + _GAUSS_XI)
    pos = pa[:, None, :] * na[None, :, None] + pb[:, None, :] * nb[None, :, None]
    vc = vcorr_many(material, pos.reshape(-1, 2),
                    np.repeat(normals, nq, axis=0)).reshape(len(a_idx), nq)
    weight = (0.5 * lengths * UM_TO_M)[:, None] * _GAUSS_W[None, :] \
        / eparams.sigma_c
    return PitEdges(mesh.n_vertices, eparams, a_idx, b_idx, vc, weight)


def boundary_residual_and_jacobian(edges: PitEdges, phi: np.ndarray):
    """Pit-flux load vector b_k = int i(phi)/sigma_c * N_k ds and d b/d phi.

    edges come from pit_edges on the mesh phi lives on.  d b/d phi comes
    as the 2x2 blocks of the pit edges, (a, b, jaa, jab, jbb): edge k from
    vertex a[k] to b[k] adds jaa[k] at (a, a), jab[k] at (a, b) and
    (b, a), and jbb[k] at (b, b).
    """
    nv, eparams = edges.n_vertices, edges.eparams
    a_idx, b_idx, weight = edges.a, edges.b, edges.weight
    na, nb = 0.5 * (1.0 - _GAUSS_XI), 0.5 * (1.0 + _GAUSS_XI)
    nq = len(na)
    phi_q = phi[a_idx][:, None] * na[None, :] + phi[b_idx][:, None] * nb[None, :]
    try:
        cur = electrochem.current_density(eparams, edges.vc, phi_q)
    except OverflowGuardError as err:
        bad = err.index // nq
        raise OverflowGuardError(
            f"{err} on pit edge {bad} ({a_idx[bad]}-{b_idx[bad]})",
            err.index) from err
    dcur = -eparams.alpha * eparams.zf_rt * cur

    # bincount adds in index order, all edge starts before all edge ends
    res = np.bincount(np.concatenate((a_idx, b_idx)),
                      weights=np.concatenate(
                          (np.sum(weight * cur * na[None, :], axis=1),
                           np.sum(weight * cur * nb[None, :], axis=1))),
                      minlength=nv)

    jaa = np.sum(weight * dcur * na * na, axis=1)
    jab = np.sum(weight * dcur * na * nb, axis=1)
    jbb = np.sum(weight * dcur * nb * nb, axis=1)
    return res, (a_idx, b_idx, jaa, jab, jbb)


def dirichlet_mask(mesh: TriMesh) -> np.ndarray:
    """True at the vertices of the top boundary, where phi = 0."""
    mask = np.zeros(mesh.n_vertices, dtype=bool)
    sel = mesh.edge_tags == BoundaryTag.TOP
    mask[mesh.edge_nodes[sel].ravel()] = True
    return mask


def _jacobian_product(K: sp.csr_matrix, layout: BandLayout,
                      blocks: tuple) -> Callable:
    """p -> J p for J = K minus the edge 2x2 blocks, in layout order.

    blocks come as BandLayout.subtract_edges takes them.  Edge ends must
    be free, as pit vertices are; bincount raises on a Dirichlet end's
    position -1.  It also sums the two blocks at an interior chain vertex.
    """
    a, b, jaa, jab, jbb = blocks
    pa, pb = layout._pos[a], layout._pos[b]
    ends = np.concatenate((pa, pb))
    n = K.shape[0]

    def product(p: np.ndarray) -> np.ndarray:
        xa, xb = p[pa], p[pb]
        edge = np.bincount(ends, weights=np.concatenate(
            (jaa * xa + jab * xb, jab * xa + jbb * xb)), minlength=n)
        return K @ p - edge

    return product


def _pcg(product: Callable, rhs: np.ndarray, factor: np.ndarray,
         target: float) -> Optional[np.ndarray]:
    """Solve J x = rhs by conjugate gradients preconditioned by a band factor.

    J enters only through product, p -> J p.  Starts from x = 0 and stops
    once the recurred residual norm is at most target.  None when that
    takes more than _PCG_MAX_ITERS iterations, or on a direction with
    p'Jp <= 0, as when J is not SPD.
    """
    x = np.zeros_like(rhs)
    r = rhs.copy()
    p = rz_last = None
    for _ in range(_PCG_MAX_ITERS):
        z = band_solve(factor, r)
        rz = r @ z
        p = z if p is None else z + (rz / rz_last) * p
        q = product(p)
        curvature = p @ q
        if not curvature > 0.0:
            return None
        alpha = rz / curvature
        x += alpha * p
        r -= alpha * q
        if np.linalg.norm(r) <= target:
            return x
        rz_last = rz
    return None


def newton_solve(mesh: TriMesh, chains: Sequence[PitChain], material: MaterialSpec,
                 eparams: ElectroParams, guess: Optional[np.ndarray] = None,
                 structure: Optional[MeshStructure] = None) -> NewtonResult:
    """Solve K phi = b(phi) with phi = 0 on the top boundary.

    structure keeps Newton's layout, with the Jacobian's stiffness block
    and last factor, across calls; without one they are built afresh.
    Each Newton step solves (K - dB) delta = -r by conjugate gradients
    preconditioned by the layout's factor, to a residual of
    min(0.1 tol, 0.1 |r|^2 / |r_0|), where tol is the convergence
    tolerance and r_0 the first residual.  Without a factor, or when
    those iterations break down or miss that target, it factorises the
    Jacobian on the layout and solves directly.
    """
    nv = mesh.n_vertices
    phi = np.zeros(nv) if guess is None else np.array(guess, dtype=np.float64)
    structure = (MeshStructure() if structure is None else structure).of(mesh)
    layout = structure.newton_layout(mesh)
    phi[structure.fixed] = 0.0
    free = layout.order
    entries = _cell_stiffness(mesh, corners=structure.corners).ravel()
    K = layout.stiffness(mesh, entries)
    edges = pit_edges(mesh, chains, material, eparams)

    history = []
    for it in range(_MAX_ITERS + 1):
        b, dB = boundary_residual_and_jacobian(edges, phi)
        # phi is zero on the Dirichlet set, so no lift enters the free rows
        rf = K @ phi[free] - b[free]
        norm = float(np.linalg.norm(rf))
        history.append(norm)
        tol = _ABS_TOL + _REL_TOL * history[0]
        if norm <= tol:
            return NewtonResult(phi, it, history)
        if it == _MAX_ITERS:
            break
        step = None
        if layout.chol is not None:
            # the forcing term keeps the convergence superlinear
            target = min(0.1 * tol, 0.1 * norm ** 2 / history[0])
            step = _pcg(_jacobian_product(K, layout, dB), -rf, layout.chol,
                        target)
        if step is None:
            band = layout.band(entries)
            # pit edges are mesh edges, so dB lies inside the band
            layout.subtract_edges(band, dB)
            try:
                # K - dB is SPD, as dB <= 0 where the current is positive
                chol = layout.factor(band)
            except np.linalg.LinAlgError as err:
                raise NewtonError(f"singular linearized system: {err}",
                                  history) from err
            step = band_solve(chol, -rf)
        phi[free] += step
    raise NewtonError(
        f"Newton did not converge in {_MAX_ITERS} iterations; "
        f"residual history {['%.3e' % h for h in history]}", history)
