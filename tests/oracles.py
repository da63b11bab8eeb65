"""Reference solvers and readers the tests check the package against.

Not used by the corrosion model itself, so they live with the tests.
"""

from collections import deque
from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.sparse as sp
from scipy.integrate import quad
from scipy.optimize import brentq
from scipy.sparse.csgraph import dijkstra
from scipy.sparse.linalg import splu

from pitmesh import adapt
from pitmesh.adapt import AdaptParams, _ElementFunctional, element_metrics
from pitmesh.fem import _cell_stiffness, _corner_pairs, assemble_stiffness
from pitmesh.mesh import (BoundaryTag, MeshError, TriMesh, VertexRoles,
                          corner_index, cross2)


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
    fn = _ElementFunctional(corner_index(mesh.triangles),
                            element_metrics(mesh, metric))
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

    Assembles K, orders the block by side_wall_order, slices it and
    scatters its upper triangle into LAPACK's (width + 1, n) band.
    Returns the block's vertices in that order and the band.
    """
    order = side_wall_order(mesh, block)
    K = weighted_stiffness(mesh, weight)[order][:, order]
    upper = sp.triu(K, format="coo")
    width = int(np.max(upper.col - upper.row))
    band = np.zeros((width + 1, len(block)))
    band[width + upper.row - upper.col, upper.col] = upper.data
    return order, band


def signed_areas_by_fancy_index(mesh: TriMesh) -> np.ndarray:
    """TriMesh.signed_areas from three fancy-indexed corner arrays."""
    p0 = mesh.vertices[mesh.triangles[:, 0]]
    p1 = mesh.vertices[mesh.triangles[:, 1]]
    p2 = mesh.vertices[mesh.triangles[:, 2]]
    return 0.5 * cross2(p1 - p0, p2 - p0)


def cell_stiffness_by_fancy_index(mesh: TriMesh,
                                  weight: np.ndarray = None) -> np.ndarray:
    """pitmesh.fem._cell_stiffness from fancy-indexed corner coordinates."""
    t = mesh.triangles.T
    x = mesh.vertices[:, 0][t]
    y = mesh.vertices[:, 1][t]
    area2 = (x[1] - x[0]) * (y[2] - y[0]) - (y[1] - y[0]) * (x[2] - x[0])
    if np.any(area2 <= 0.0):
        raise MeshError(f"stiffness assembly: inverted cell "
                        f"{int(np.argmin(area2))}")
    b = y[[1, 2, 0]] - y[[2, 0, 1]]
    c = x[[2, 0, 1]] - x[[1, 2, 0]]
    scale = 1.0 / (2.0 * area2)
    if weight is not None:
        scale = scale * weight
    out = np.empty((3, 3, t.shape[1]))
    np.multiply(b[:, None], b[None, :], out=out)
    out += c[:, None] * c[None, :]
    out *= scale
    return out


def element_metrics_by_mean(mesh: TriMesh, metric: np.ndarray) -> np.ndarray:
    """pitmesh.adapt.element_metrics as the row mean of the corner values."""
    return metric[mesh.triangles].mean(axis=1)


def side_wall_levels_by_dijkstra(mesh: TriMesh) -> np.ndarray:
    """pitmesh.fem.side_wall_levels by scipy's unweighted dijkstra."""
    t = mesh.triangles
    n = mesh.n_vertices
    graph = sp.coo_matrix((np.ones(t.size), (t.ravel(),
                                              np.roll(t, 1, axis=1).ravel())),
                          shape=(n, n)).tocsr()
    x = mesh.vertices[:, 0]
    return dijkstra(graph, directed=False, indices=np.flatnonzero(x == x.min()),
                    unweighted=True, min_only=True)


def points_in_polygon(points: np.ndarray, poly: np.ndarray) -> np.ndarray:
    """Even-odd rule point-in-polygon test, dense over points x edges."""
    x = points[:, 0, None]
    y = points[:, 1, None]
    x1, y1 = poly[:, 0], poly[:, 1]
    x2, y2 = np.roll(poly[:, 0], -1), np.roll(poly[:, 1], -1)
    crosses = (y1 <= y) != (y2 <= y)
    denom = np.where(y2 != y1, y2 - y1, 1.0)
    x_hit = x1 + (y - y1) * (x2 - x1) / denom
    return (np.sum(crosses & (x < x_hit), axis=1) % 2).astype(bool)


def side_wall_order(mesh: TriMesh, block: np.ndarray) -> np.ndarray:
    """The block's vertices by breadth-first level from the left side wall, then y.

    A queue-driven search over the triangle edges of the whole mesh, from
    every vertex at the smallest x.
    """
    neighbours = [set() for _ in range(mesh.n_vertices)]
    for tri in mesh.triangles:
        for k in range(3):
            neighbours[tri[k]].add(tri[k - 1])
            neighbours[tri[k - 1]].add(tri[k])
    x = mesh.vertices[:, 0]
    level = np.full(mesh.n_vertices, -1)
    queue = deque(np.flatnonzero(x == x.min()))
    level[list(queue)] = 0
    while queue:
        v = queue.popleft()
        for w in neighbours[v]:
            if level[w] < 0:
                level[w] = level[v] + 1
                queue.append(w)
    return np.array(sorted(block, key=lambda v: (level[v],
                                                 mesh.vertices[v, 1])))


def edge_jacobian(n: int, blocks: tuple) -> np.ndarray:
    """The dense (n, n) matrix of pit-edge 2x2 blocks (a, b, jaa, jab, jbb)."""
    a, b, jaa, jab, jbb = blocks
    out = np.zeros((n, n))
    for i, j, values in ((a, a, jaa), (a, b, jab), (b, a, jab), (b, b, jbb)):
        np.add.at(out, (i, j), values)
    return out


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


def lbfgs_direction_two_loop(g: np.ndarray, kg: np.ndarray,
                             pairs: list) -> np.ndarray:
    """-H g by the two-loop recursion with H0 = gamma K^-1 and one solve.

    kg is K^-1 g; gamma = s'y / y'K^-1 y from the newest pair.  g and kg
    are flat, and pairs holds flat (s, y, K^-1 y), oldest first.  The
    first loop only subtracts multiples of y from g, so K^-1 q follows
    from kg and the stored K^-1 y without a solve.
    """
    q = g.copy()
    r = kg.copy()
    alphas = []
    for s, y, ky in reversed(pairs):
        a = (s @ q) / (s @ y)
        q -= a * y
        r -= a * ky
        alphas.append(a)
    s, y, ky = pairs[-1]
    r *= (s @ y) / (y @ ky)
    for (s, y, _), a in zip(pairs, reversed(alphas)):
        r += (a - (y @ r) / (s @ y)) * s
    return -r


def smooth_mesh_exact_flows(mesh: TriMesh, chains: list,
                            p: AdaptParams) -> tuple:
    """adapt.smooth_mesh with every flow run to the absolute floor _GRAD_TOL.

    The same monitor rebuilds, outer stop and shared StiffnessFactor, but
    each flow stops only once its projected gradient is below _GRAD_TOL,
    whatever gradient it started from.  Returns the smoothed vertices,
    the displacement sum of each iteration and each flow's iterations.
    """
    factor = adapt.StiffnessFactor()
    work = mesh.copy()
    trace, iters = [], []
    for _ in range(adapt._SMOOTHING_MAX_ITERS):
        metric = adapt.monitor_mackenzie(work, chains, p)
        res = adapt.mmpde_step(work, metric, p, dt_interval=np.inf,
                               max_substeps=adapt._MAX_SUBSTEPS,
                               rtol=0.0, factor=factor)
        moved = res.positions - work.vertices
        trace.append(float(np.sum(np.hypot(moved[:, 0], moved[:, 1]))))
        iters.append(res.substeps)
        work.vertices = res.positions
        if trace[-1] < adapt._SMOOTHING_TOL:
            break
    return work.vertices, trace, iters


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
