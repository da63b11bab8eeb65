"""P1 finite elements for the electrolyte potential.

Laplace's equation in the electrolyte with phi = 0 on the top boundary,
zero-flux sides and bottom, and the Butler-Volmer current as a nonlinear
Robin-type flux on pit edges.  The resulting nonlinear system is solved
with Newton's method on a direct sparse factorization.

The triangulation and the Dirichlet set stay fixed over a run, so a
JacobianPattern keeps the sparsity structure of the Jacobian's free
block, its fill-reducing column order and the map from cell stiffness
entries to its storage.  The pattern is built once, already in SuperLU's
MMD order of the free stiffness block.  Each solve fills the stiffness
into that structure once, and each Newton iteration subtracts the
pit-edge terms in place and factorises in the kept order.

A BandLayout does the same for one diagonal block of a weighted
stiffness matrix in banded Cholesky form, the mesh relaxation's
preconditioner: it keeps the block's band order and the band slot of
each cell stiffness entry, so a refactorisation is one fill and one
cholesky_banded call.

The stiffness matrix is scale invariant in 2D, so it is assembled in
micrometer coordinates; boundary-flux integrals convert edge lengths to
meters so that phi comes out in volts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np
import scipy.sparse as sp
from scipy.linalg import cholesky_banded
from scipy.sparse.csgraph import reverse_cuthill_mckee
from scipy.sparse.linalg import splu

from . import electrochem
from .crystal import MaterialSpec, VcorrParams, vcorr_many
from .electrochem import ElectroParams, OverflowGuardError
from .mesh import BoundaryTag, MeshError, PitChain, TriMesh, cross2

UM_TO_M = 1.0e-6


class NewtonError(ArithmeticError):
    """Newton iteration failed to converge; carries the residual history."""

    def __init__(self, message, history=None):
        super().__init__(message)
        self.history = list(history or [])


# Newton converges once the residual norm is at most _ABS_TOL plus _REL_TOL
# times the first residual norm.  The sparse-LU rounding floor can sit above
# _ABS_TOL on merged-pit systems, so convergence also accepts a drop
# relative to the first residual.
_ABS_TOL = 1e-10
_REL_TOL = 1e-4
_MAX_ITERS = 25
# two-point Gauss-Legendre rule on [-1, 1] for the pit-edge flux integrals
_GAUSS_XI, _GAUSS_W = np.polynomial.legendre.leggauss(2)


@dataclass
class NewtonResult:
    phi: np.ndarray
    iterations: int
    residual_norm: float
    history: list = field(default_factory=list)


def _cell_stiffness(mesh: TriMesh,
                    weight: Optional[np.ndarray] = None) -> np.ndarray:
    """Per-cell P1 stiffness entries, (3, 3, nt).

    Entry [i, j, k] couples corners i and j of cell k.  With a per-cell
    weight (nt,), each cell's entries are scaled by it.
    """
    t = mesh.triangles
    v = mesh.vertices
    p0, p1, p2 = v[t[:, 0]], v[t[:, 1]], v[t[:, 2]]
    area2 = cross2(p1 - p0, p2 - p0)
    if np.any(area2 <= 0.0):
        cell = int(np.argmin(area2))
        raise MeshError(f"stiffness assembly: inverted cell {cell}")
    # hat-function gradients: grad(lambda_i) = (b_i, c_i) / area2
    b = np.stack([p1[:, 1] - p2[:, 1], p2[:, 1] - p0[:, 1], p0[:, 1] - p1[:, 1]])
    c = np.stack([p2[:, 0] - p1[:, 0], p0[:, 0] - p2[:, 0], p1[:, 0] - p0[:, 0]])
    scale = 1.0 / (2.0 * area2)
    if weight is not None:
        scale = scale * weight
    return (b[:, None] * b[None, :] + c[:, None] * c[None, :]) * scale


def _corner_pairs(triangles: np.ndarray) -> tuple:
    """Row and column vertex of each flattened _cell_stiffness entry."""
    t = triangles.T
    shape = (3, 3, len(triangles))
    return (np.broadcast_to(t[:, None], shape).ravel(),
            np.broadcast_to(t[None, :], shape).ravel())


class BandLayout:
    """Upper band storage of one diagonal block of a P1 stiffness matrix.

    Built once for a block of vertices on a triangulation, it holds the
    block's reverse Cuthill-McKee order, its bandwidth in that order and
    the slot of each flattened _cell_stiffness entry in LAPACK's upper
    band storage (width + 1, n), Fortran order.  Entries off the block or
    below the diagonal go to a last, dropped slot.  RCM reads structure
    alone, so one layout serves every cell weighting on the triangulation.
    """

    def __init__(self, mesh: TriMesh, block: np.ndarray):
        K = assemble_stiffness(mesh)[block][:, block]
        self.order = block[reverse_cuthill_mckee(K, symmetric_mode=True)]
        n = len(block)
        pos = np.full(mesh.n_vertices, -1)
        pos[self.order] = np.arange(n)
        rows, cols = (pos[i] for i in _corner_pairs(mesh.triangles))
        keep = (rows >= 0) & (rows <= cols)
        self.width = width = int(np.max(np.where(keep, cols - rows, 0)))
        self._size = (width + 1) * n
        # entry (r, c) sits at [width + r - c, c] of the band
        self._slot = np.where(keep, width + rows + cols * width, self._size)

    def band(self, entries: np.ndarray) -> np.ndarray:
        """The block's upper band from flat _cell_stiffness entries."""
        band = np.bincount(self._slot, weights=entries,
                           minlength=self._size + 1)[:-1]
        return band.reshape((self.width + 1, -1), order="F")

    def factor(self, entries: np.ndarray) -> np.ndarray:
        """Upper Cholesky band of the block; LinAlgError if not SPD."""
        # Fortran order lets LAPACK factorise the band in place
        return cholesky_banded(self.band(entries), overwrite_ab=True)


def assemble_stiffness(mesh: TriMesh) -> sp.csr_matrix:
    """P1 stiffness matrix; constants span its null space."""
    rows, cols = _corner_pairs(mesh.triangles)
    n = mesh.n_vertices
    K = sp.coo_matrix((_cell_stiffness(mesh).ravel(), (rows, cols)),
                      shape=(n, n))
    return K.tocsr()


def boundary_residual_and_jacobian(mesh: TriMesh, chains: Sequence[PitChain],
                                   phi: np.ndarray, material: MaterialSpec,
                                   vc_params: VcorrParams, eparams: ElectroParams):
    """Pit-flux load vector b_k = int i(phi)/sigma_c * N_k ds and d b/d phi.

    V_corr is evaluated at each quadrature point from its position and the
    edge's outward face normal.  Edge lengths are converted to meters.
    """
    nv = mesh.n_vertices
    if not chains:
        return np.zeros(nv), sp.coo_matrix((nv, nv))
    a_idx = np.concatenate([ch.vertices[:-1] for ch in chains])
    b_idx = np.concatenate([ch.vertices[1:] for ch in chains])
    pa = mesh.vertices[a_idx]
    pb = mesh.vertices[b_idx]
    d = pb - pa
    lengths = np.hypot(d[:, 0], d[:, 1])
    if np.any(lengths <= 0.0):
        raise MeshError("zero-length pit edge in boundary integral")
    normals = np.column_stack((d[:, 1], -d[:, 0])) / lengths[:, None]

    xi, w = _GAUSS_XI, _GAUSS_W
    na = 0.5 * (1.0 - xi)              # hat value of edge start, (nq,)
    nb = 0.5 * (1.0 + xi)
    pos = pa[:, None, :] * na[None, :, None] + pb[:, None, :] * nb[None, :, None]
    ne, nq = len(a_idx), len(xi)
    vc = vcorr_many(material, vc_params, pos.reshape(-1, 2),
                    np.repeat(normals, nq, axis=0)).reshape(ne, nq)
    phi_q = phi[a_idx][:, None] * na[None, :] + phi[b_idx][:, None] * nb[None, :]
    try:
        cur = electrochem.current_density(eparams, vc, phi_q)
    except OverflowGuardError as err:
        bad = err.index // nq
        raise OverflowGuardError(
            f"{err} on pit edge {bad} ({a_idx[bad]}-{b_idx[bad]})",
            err.index) from err
    dcur = -eparams.alpha * eparams.zf_rt * cur

    weight = (0.5 * lengths * UM_TO_M)[:, None] * w[None, :] / eparams.sigma_c
    res = np.zeros(nv)
    np.add.at(res, a_idx, np.sum(weight * cur * na[None, :], axis=1))
    np.add.at(res, b_idx, np.sum(weight * cur * nb[None, :], axis=1))

    jaa = np.sum(weight * dcur * na * na, axis=1)
    jab = np.sum(weight * dcur * na * nb, axis=1)
    jbb = np.sum(weight * dcur * nb * nb, axis=1)
    rows = np.concatenate([a_idx, a_idx, b_idx, b_idx])
    cols = np.concatenate([a_idx, b_idx, a_idx, b_idx])
    vals = np.concatenate([jaa, jab, jab, jbb])
    return res, sp.coo_matrix((vals, (rows, cols)), shape=(nv, nv))


def dirichlet_mask(mesh: TriMesh) -> np.ndarray:
    """True at the vertices of the top boundary, where phi = 0."""
    mask = np.zeros(mesh.n_vertices, dtype=bool)
    sel = mesh.edge_tags == BoundaryTag.TOP
    mask[mesh.edge_nodes[sel].ravel()] = True
    return mask


class JacobianPattern:
    """The free block of Newton's Jacobian as CSC structure kept across calls.

    It holds the free vertices (those off the Dirichlet set) in one
    fill-reducing column order, SuperLU's MMD ordering of A^T + A for the
    free stiffness block; the CSC indptr and indices of the free block in
    that order; and the CSC slot of each cell stiffness entry.  Its key is
    the mesh's triangles and Dirichlet mask, and the pattern is built
    again when a mesh does not match it.  Counts the Newton solves and
    iterations it served.
    """

    def __init__(self):
        self.solves = 0
        self.iterations = 0
        self._key = None        # (triangles, Dirichlet mask) of the pattern

    def _build(self, mesh: TriMesh, fixed: np.ndarray) -> None:
        """Order the free vertices, then lay out the free block in that order.

        MMD reads structure alone, and every Jacobian on these triangles
        has the free stiffness block's structure, as pit edges are mesh
        edges, so one ordering serves them all.
        """
        free = np.flatnonzero(~fixed)
        K_ff = assemble_stiffness(mesh)[free][:, free].tocsc()
        # SuperLU's perm_c sends column i to position perm_c[i].  perm_c is
        # a view that keeps the whole factor alive, and SuperLU reserves far
        # more heap than it uses, so neither outlives this statement.
        order = np.argsort(splu(K_ff, permc_spec="MMD_AT_PLUS_A",
                                diag_pivot_thresh=0.0,
                                options={"SymmetricMode": True}).perm_c)
        self.free = free = free[order]
        n = len(free)
        self._pos = np.full(mesh.n_vertices, -1, dtype=np.int64)
        self._pos[free] = np.arange(n)
        rows, cols = (self._pos[i] for i in _corner_pairs(mesh.triangles))
        keep = (rows >= 0) & (cols >= 0)
        # column-major keys sort like CSC entries
        self._keys, inverse = np.unique(cols[keep] * n + rows[keep],
                                        return_inverse=True)
        # entries of Dirichlet rows or columns go to a last, dropped slot
        self._slot = np.full(rows.size, len(self._keys))
        self._slot[keep] = inverse
        # int32, the index type scipy and SuperLU keep for these sizes
        self._indptr = np.searchsorted(
            self._keys, np.arange(n + 1) * n).astype(np.int32)
        self._indices = (self._keys % n).astype(np.int32)
        self._key = (mesh.triangles.copy(), fixed.copy())

    def stiffness(self, mesh: TriMesh, fixed: np.ndarray) -> sp.csc_matrix:
        """K on the free vertices of mesh, rows and columns in self.free order.

        A mesh whose triangles or Dirichlet mask fixed differ from the
        pattern's gets a new pattern.
        """
        if self._key is None or not (
                np.array_equal(mesh.triangles, self._key[0])
                and np.array_equal(fixed, self._key[1])):
            self._build(mesh, fixed)
        data = np.bincount(self._slot, weights=_cell_stiffness(mesh).ravel(),
                           minlength=len(self._keys) + 1)[:-1]
        n = len(self.free)
        return sp.csc_matrix((data, self._indices, self._indptr), shape=(n, n))

    def slots(self, rows: np.ndarray, cols: np.ndarray) -> tuple:
        """(CSC slots, mask) of the vertex pairs off the Dirichlet set.

        Every pair must couple two vertices of one cell.
        """
        n = len(self.free)
        r, c = self._pos[rows], self._pos[cols]
        keep = (r >= 0) & (c >= 0)
        return np.searchsorted(self._keys, c[keep] * n + r[keep]), keep


def newton_solve(mesh: TriMesh, chains: Sequence[PitChain], material: MaterialSpec,
                 vc_params: VcorrParams, eparams: ElectroParams,
                 guess: Optional[np.ndarray] = None,
                 pattern: Optional[JacobianPattern] = None) -> NewtonResult:
    """Solve K phi = b(phi) with phi = 0 on the top boundary.

    pattern keeps the Jacobian's structure and column ordering across
    calls; without one they are built afresh.
    """
    nv = mesh.n_vertices
    phi = np.zeros(nv) if guess is None else np.array(guess, dtype=np.float64)
    fixed = dirichlet_mask(mesh)
    phi[fixed] = 0.0
    if pattern is None:
        pattern = JacobianPattern()
    pattern.solves += 1
    K = pattern.stiffness(mesh, fixed)
    free = pattern.free

    history = []
    for it in range(_MAX_ITERS + 1):
        b, dB = boundary_residual_and_jacobian(
            mesh, chains, phi, material, vc_params, eparams)
        # phi is zero on the Dirichlet set, so K's free block gives the
        # free rows of K phi
        rf = K @ phi[free] - b[free]
        norm = float(np.linalg.norm(rf))
        history.append(norm)
        tol = _ABS_TOL + _REL_TOL * history[0]
        if norm <= tol:
            pattern.iterations += it
            return NewtonResult(phi, it, norm, history)
        if it == _MAX_ITERS:
            break
        # pit edges are mesh edges, so dB lies inside K's pattern
        slots, keep = pattern.slots(dB.row, dB.col)
        jac = K.copy()
        jac.data -= np.bincount(slots, weights=dB.data[keep],
                                minlength=K.nnz)
        try:
            # K - dB is SPD (dB <= 0 as the current is positive), so
            # diagonal pivots keep the pattern's column order
            delta = splu(jac, permc_spec="NATURAL", diag_pivot_thresh=0.0,
                         options={"SymmetricMode": True}).solve(-rf)
        except RuntimeError as err:
            raise NewtonError(f"singular linearized system: {err}", history) from err
        phi[free] += delta
    raise NewtonError(
        f"Newton did not converge in {_MAX_ITERS} iterations; "
        f"residual history {['%.3e' % h for h in history]}", history)
