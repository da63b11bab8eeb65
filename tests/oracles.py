"""Reference solvers and readers the tests check the package against.

Not used by the corrosion model itself, so they live with the tests.
"""

from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.sparse as sp
from scipy.integrate import quad
from scipy.optimize import brentq
from scipy.sparse.csgraph import reverse_cuthill_mckee
from scipy.sparse.linalg import splu

from pitmesh.adapt import AdaptParams, _ElementFunctional, element_metrics
from pitmesh.fem import _cell_stiffness, _corner_pairs, assemble_stiffness
from pitmesh.mesh import BoundaryTag, MeshError, TriMesh, VertexRoles, cross2


def make_rect_mesh(nx: int, ny: int, width: float = 1.0,
                   height: float = 1.0) -> TriMesh:
    """Structured rectangle mesh on [0,w]x[0,h], all right triangles.

    The top edge carries the Dirichlet tag.
    """
    xs = np.linspace(0.0, width, nx + 1)
    ys = np.linspace(0.0, height, ny + 1)
    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    pts = np.column_stack((gx.ravel(), gy.ravel()))

    def vid(i, j):
        return i * (ny + 1) + j

    cells = []
    for i in range(nx):
        for j in range(ny):
            a, b, c, d = vid(i, j), vid(i + 1, j), vid(i + 1, j + 1), vid(i, j + 1)
            # alternate the diagonal so every vertex star is mirror symmetric
            if (i + j) % 2 == 0:
                cells.append((a, b, c))
                cells.append((a, c, d))
            else:
                cells.append((a, b, d))
                cells.append((b, c, d))
    edges, tags = [], []
    for i in range(nx):
        edges.append((vid(i, 0), vid(i + 1, 0)))
        tags.append(BoundaryTag.BOTTOM)
        edges.append((vid(i, ny), vid(i + 1, ny)))
        tags.append(BoundaryTag.TOP)
    for j in range(ny):
        edges.append((vid(0, j), vid(0, j + 1)))
        tags.append(BoundaryTag.LEFT)
        edges.append((vid(nx, j), vid(nx, j + 1)))
        tags.append(BoundaryTag.RIGHT)
    return TriMesh(pts, np.asarray(cells, dtype=np.int32),
                   np.asarray(edges, dtype=np.int32),
                   np.asarray(tags, dtype=np.int16))


def _energy_and_gradient(mesh: TriMesh, metric: np.ndarray,
                         p: AdaptParams) -> tuple:
    fn = _ElementFunctional(mesh.triangles, element_metrics(mesh, metric),
                            p.theta, p.gamma)
    out = fn.evaluate(mesh.vertices)
    if out is None:
        cell = int(np.argmin(mesh.signed_areas()))
        raise MeshError(f"energy of inverted cell {cell}")
    return out


def energy(mesh: TriMesh, metric: np.ndarray, p: AdaptParams) -> float:
    """Total adaptation energy of the mesh under a frozen vertex monitor."""
    return _energy_and_gradient(mesh, metric, p)[0]


def grad_energy(mesh: TriMesh, metric: np.ndarray, p: AdaptParams) -> np.ndarray:
    """Analytic dI/dx per vertex, (nv, 2); monitor values are held fixed."""
    return _energy_and_gradient(mesh, metric, p)[1]


def solve_dirichlet(mesh: TriMesh, g: Callable) -> np.ndarray:
    """Linear Laplace solve with Dirichlet data g(x, y) on the whole boundary.

    Verification hook for manufactured harmonic solutions.
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


def weighted_stiffness(mesh: TriMesh, weight: np.ndarray) -> sp.csr_matrix:
    """P1 stiffness of -div(w grad u) for a per-cell weight w (nt,)."""
    rows, cols = _corner_pairs(mesh.triangles)
    n = mesh.n_vertices
    return sp.coo_matrix((_cell_stiffness(mesh, weight).ravel(),
                          (rows, cols)), shape=(n, n)).tocsr()


def band_by_assembly(mesh: TriMesh, weight: np.ndarray,
                     block: np.ndarray) -> tuple:
    """One block of the weighted stiffness matrix in upper band storage.

    Assembles K, slices the block, orders it by reverse Cuthill-McKee and
    scatters its upper triangle into LAPACK's (width + 1, n) band.
    Returns the block's vertices in that order and the band.
    """
    K = weighted_stiffness(mesh, weight)[block][:, block]
    order = reverse_cuthill_mckee(K, symmetric_mode=True)
    upper = sp.triu(K[order][:, order], format="coo")
    width = int(np.max(upper.col - upper.row))
    band = np.zeros((width + 1, len(block)))
    band[width + upper.row - upper.col, upper.col] = upper.data
    return block[order], band


def lbfgs_direction_two_solves(g: np.ndarray, precond: Callable,
                               pairs: list) -> np.ndarray:
    """-H g by the textbook two-loop recursion with H0 = gamma K^-1.

    precond applies K^-1 to flat vectors; gamma = s'y / y'K^-1 y from the
    newest pair.  g is (nv, 2) and pairs holds flat (s, y), oldest first.
    K^-1 is applied twice: to the first loop's result and to the newest y.
    """
    q = g.ravel().copy()
    alphas = []
    for s, y in reversed(pairs):
        a = (s @ q) / (s @ y)
        q = q - a * y
        alphas.append(a)
    s, y = pairs[-1]
    r = precond(q) * (s @ y) / (y @ precond(y))
    for (s, y), a in zip(pairs, reversed(alphas)):
        r = r + (a - (y @ r) / (s @ y)) * s
    return -r.reshape(g.shape)


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


@dataclass
class AffineMap:
    """Affine map from the reference triangle (0,0),(1,0),(0,1) to a cell."""

    jacobian: np.ndarray     # (2,2), micrometers per reference unit
    translation: np.ndarray  # (2,)
    area: float

    def apply(self, ref_points: np.ndarray) -> np.ndarray:
        return ref_points @ self.jacobian.T + self.translation


def affine_map(mesh: TriMesh, cell: int) -> AffineMap:
    """Affine map of one cell; raises MeshError for degenerate cells."""
    v = mesh.vertices[mesh.triangles[cell]]
    jac = np.column_stack((v[1] - v[0], v[2] - v[0]))
    det = jac[0, 0] * jac[1, 1] - jac[0, 1] * jac[1, 0]
    if det <= 0.0:
        raise MeshError(f"inverted or degenerate cell {cell}: det(F') = {det:g}")
    return AffineMap(jacobian=jac, translation=v[0].copy(), area=0.5 * det)


def all_pairs_crossings(p: np.ndarray) -> np.ndarray:
    """Crossing non-adjacent segment pairs of an open polyline, sorted (i, j).

    Runs the orientation test of pitmesh.mesh.polyline_crossings on every
    pair j >= i + 2, with no bounding-box filter.
    """
    n = len(p) - 1
    if n < 3:
        return np.empty((0, 2), dtype=np.int64)
    a, b = p[:-1], p[1:]
    i, j = np.triu_indices(n, k=2)
    r = b[i] - a[i]
    s = b[j] - a[j]
    d1 = cross2(r, a[j] - a[i])
    d2 = cross2(r, b[j] - a[i])
    d3 = cross2(s, a[i] - a[j])
    d4 = cross2(s, b[i] - a[j])
    hit = (d1 * d2 < 0) & (d3 * d4 < 0)
    return np.column_stack((i[hit], j[hit]))


def vertex_roles_by_tag(mesh: TriMesh) -> VertexRoles:
    """pitmesh.mesh.vertex_roles with one mask per tag, built tag by tag."""
    nv = mesh.n_vertices
    on = {tag: np.zeros(nv, dtype=bool) for tag in BoundaryTag}
    for tag in BoundaryTag:
        on[tag][mesh.edge_nodes[mesh.edge_tags == tag].ravel()] = True
    rect = [on[BoundaryTag.TOP], on[BoundaryTag.LEFT],
            on[BoundaryTag.RIGHT], on[BoundaryTag.BOTTOM]]
    corners = sum(m.astype(np.int8) for m in rect) >= 2
    pinned = on[BoundaryTag.PIT] | corners
    slide_x = (on[BoundaryTag.TOP] | on[BoundaryTag.BOTTOM]) & ~pinned
    slide_y = (on[BoundaryTag.LEFT] | on[BoundaryTag.RIGHT]) & ~pinned
    return VertexRoles(pinned, slide_x, slide_y)


def read_vtk_points_and_phi(path: str):
    """Points and phi from a legacy-ASCII VTK file of pitmesh.io.write_vtk."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    idx = next(i for i, ln in enumerate(lines) if ln.startswith("POINTS"))
    n = int(lines[idx].split()[1])
    pts = np.array([[float(v) for v in lines[idx + 1 + k].split()]
                    for k in range(n)])
    phi = None
    for i, ln in enumerate(lines):
        if ln.startswith("SCALARS phi"):
            phi = np.array([float(lines[i + 2 + k]) for k in range(n)])
            break
    return pts[:, :2], phi


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
