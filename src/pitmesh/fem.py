"""P1 finite elements for the electrolyte potential.

Laplace's equation in the electrolyte with phi = 0 on the top boundary,
zero-flux sides and bottom, and the Butler-Volmer current as a nonlinear
Robin-type flux on pit edges.  The resulting nonlinear system is solved
with Newton's method on a direct sparse factorization.

The stiffness matrix is scale invariant in 2D, so it is assembled in
micrometer coordinates; boundary-flux integrals convert edge lengths to
meters so that phi comes out in volts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from . import electrochem
from .crystal import MaterialSpec, VcorrParams, vcorr_many
from .electrochem import ElectroParams, OverflowGuardError
from .mesh import BoundaryTag, MeshError, PitChain, TriMesh, cross2

UM_TO_M = 1.0e-6


class NewtonError(Exception):
    """Newton iteration failed to converge; carries the residual history."""

    def __init__(self, message, history=None):
        super().__init__(message)
        self.history = list(history or [])


@dataclass
class NewtonSettings:
    abs_tol: float = 1e-10
    # the sparse-LU rounding floor can sit above abs_tol on merged-pit
    # systems, so convergence also accepts a drop relative to the first
    # residual
    rel_tol: float = 1e-4
    max_iters: int = 25
    quad_points: int = 2   # Gauss points per pit edge, 2..4

    def validate(self) -> None:
        if self.abs_tol <= 0.0 and self.rel_tol <= 0.0:
            raise ValueError("at least one Newton tolerance must be positive")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if not 2 <= self.quad_points <= 4:
            raise ValueError("quad_points must be between 2 and 4")


@dataclass
class NewtonResult:
    phi: np.ndarray
    iterations: int
    residual_norm: float
    history: list = field(default_factory=list)


def assemble_stiffness(mesh: TriMesh,
                       weight: Optional[np.ndarray] = None) -> sp.csr_matrix:
    """P1 stiffness matrix; constants span its null space.

    With a per-cell weight (nt,), each cell's contribution is scaled by
    it, giving the stiffness of -div(w grad u) for piecewise-constant w.
    """
    t = mesh.triangles
    v = mesh.vertices
    p0, p1, p2 = v[t[:, 0]], v[t[:, 1]], v[t[:, 2]]
    area2 = cross2(p1 - p0, p2 - p0)
    if np.any(area2 <= 0.0):
        cell = int(np.argmin(area2))
        raise MeshError(f"stiffness assembly: inverted cell {cell}")
    # hat-function gradients: grad(lambda_i) = (b_i, c_i) / area2
    b = np.stack([p1[:, 1] - p2[:, 1], p2[:, 1] - p0[:, 1], p0[:, 1] - p1[:, 1]], axis=1)
    c = np.stack([p2[:, 0] - p1[:, 0], p0[:, 0] - p2[:, 0], p1[:, 0] - p0[:, 0]], axis=1)
    scale = 1.0 / (2.0 * area2)
    if weight is not None:
        scale = scale * weight
    rows, cols, vals = [], [], []
    for i in range(3):
        for j in range(3):
            rows.append(t[:, i])
            cols.append(t[:, j])
            vals.append((b[:, i] * b[:, j] + c[:, i] * c[:, j]) * scale)
    n = mesh.n_vertices
    K = sp.coo_matrix((np.concatenate(vals),
                       (np.concatenate(rows), np.concatenate(cols))),
                      shape=(n, n))
    return K.tocsr()


def _gauss_points(n: int):
    xi, w = np.polynomial.legendre.leggauss(n)
    return xi, w


def boundary_residual_and_jacobian(mesh: TriMesh, chains: Sequence[PitChain],
                                   phi: np.ndarray, material: MaterialSpec,
                                   vc_params: VcorrParams, eparams: ElectroParams,
                                   quad_points: int = 2):
    """Pit-flux load vector b_k = int i(phi)/sigma_c * N_k ds and d b/d phi.

    V_corr is evaluated at each quadrature point from its position and the
    edge's outward face normal.  Edge lengths are converted to meters.
    """
    nv = mesh.n_vertices
    if not chains:
        return np.zeros(nv), sp.csr_matrix((nv, nv))
    a_idx = np.concatenate([ch.vertices[:-1] for ch in chains])
    b_idx = np.concatenate([ch.vertices[1:] for ch in chains])
    pa = mesh.vertices[a_idx]
    pb = mesh.vertices[b_idx]
    d = pb - pa
    lengths = np.hypot(d[:, 0], d[:, 1])
    if np.any(lengths <= 0.0):
        raise MeshError("zero-length pit edge in boundary integral")
    normals = np.column_stack((d[:, 1], -d[:, 0])) / lengths[:, None]

    xi, w = _gauss_points(quad_points)
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
        expo = eparams.zf_rt * (vc + eparams.alpha
                                * electrochem.overpotential(eparams, vc, phi_q))
        bad = int(np.argmax(np.max(expo, axis=1)))
        raise OverflowGuardError(
            f"{err} on pit edge {bad} ({a_idx[bad]}-{b_idx[bad]})") from err
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
    jac = sp.coo_matrix((vals, (rows, cols)), shape=(nv, nv)).tocsr()
    return res, jac


def dirichlet_mask(mesh: TriMesh, tag: BoundaryTag = BoundaryTag.TOP) -> np.ndarray:
    mask = np.zeros(mesh.n_vertices, dtype=bool)
    sel = mesh.edge_tags == tag
    mask[mesh.edge_nodes[sel].ravel()] = True
    return mask


def newton_solve(mesh: TriMesh, chains: Sequence[PitChain], material: MaterialSpec,
                 vc_params: VcorrParams, eparams: ElectroParams,
                 guess: Optional[np.ndarray] = None,
                 settings: Optional[NewtonSettings] = None) -> NewtonResult:
    """Solve K phi = b(phi) with phi = 0 on the top boundary."""
    settings = settings or NewtonSettings()
    settings.validate()
    nv = mesh.n_vertices
    phi = np.zeros(nv) if guess is None else np.array(guess, dtype=np.float64)
    fixed = dirichlet_mask(mesh)
    phi[fixed] = 0.0
    free = np.where(~fixed)[0]
    K = assemble_stiffness(mesh)

    history = []
    for it in range(settings.max_iters + 1):
        b, dB = boundary_residual_and_jacobian(
            mesh, chains, phi, material, vc_params, eparams, settings.quad_points)
        residual = K @ phi - b
        rf = residual[free]
        norm = float(np.linalg.norm(rf))
        history.append(norm)
        tol = settings.abs_tol + settings.rel_tol * history[0]
        if norm <= tol:
            return NewtonResult(phi, it, norm, history)
        if it == settings.max_iters:
            break
        jac = (K - dB).tocsr()
        jff = jac[free][:, free].tocsc()
        try:
            delta = splu(jff).solve(-rf)
        except RuntimeError as err:
            raise NewtonError(f"singular linearized system: {err}", history) from err
        phi[free] += delta
    raise NewtonError(
        f"Newton did not converge in {settings.max_iters} iterations; "
        f"residual history {['%.3e' % h for h in history]}", history)


def solve_dirichlet(mesh: TriMesh, g: Callable) -> np.ndarray:
    """Linear Laplace solve with Dirichlet data g(x, y) on the whole boundary.

    Verification hook for manufactured harmonic solutions; not used by the
    corrosion model itself.
    """
    mask = np.zeros(mesh.n_vertices, dtype=bool)
    mask[mesh.edge_nodes.ravel()] = True
    K = assemble_stiffness(mesh)
    phi = np.zeros(mesh.n_vertices)
    phi[mask] = g(mesh.vertices[mask, 0], mesh.vertices[mask, 1])
    free = np.where(~mask)[0]
    bnd = np.where(mask)[0]
    rhs = -K[free][:, bnd] @ phi[bnd]
    phi[free] = splu(K[free][:, free].tocsc()).solve(rhs)
    return phi


def l2_error(mesh: TriMesh, phi: np.ndarray, exact: Callable) -> float:
    """L2 norm of phi_h - exact via the 3-point edge-midpoint rule."""
    t = mesh.triangles
    v = mesh.vertices
    areas = mesh.signed_areas()
    total = 0.0
    for (i, j) in ((0, 1), (1, 2), (2, 0)):
        mid = 0.5 * (v[t[:, i]] + v[t[:, j]])
        ph = 0.5 * (phi[t[:, i]] + phi[t[:, j]])
        diff = ph - exact(mid[:, 0], mid[:, 1])
        total += np.sum(areas / 3.0 * diff ** 2)
    return float(np.sqrt(total))
