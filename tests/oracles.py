"""Reference solvers the tests check the package against.

Not used by the corrosion model itself, so they live with the tests.
"""

from typing import Callable

import numpy as np
from scipy.sparse.linalg import splu

from pitmesh.fem import assemble_stiffness
from pitmesh.mesh import TriMesh


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
