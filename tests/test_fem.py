import numpy as np
import pytest

from pitmesh.crystal import Crystal, Homogeneous, VcorrParams, orientation_from_axes
from pitmesh.electrochem import ElectroParams, OverflowGuardError
from pitmesh.fem import (NewtonError, NewtonSettings, assemble_stiffness,
                         boundary_residual_and_jacobian, l2_error, newton_solve,
                         solve_dirichlet)
from pitmesh.mesh import BoundaryTag, MeshError, PitChain, TriMesh
from pitmesh.meshgen import DomainSpec, PitSpec, build_initial_mesh, make_rect_mesh


def reference_triangle():
    return TriMesh(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
                   np.array([[0, 1, 2]]),
                   np.array([[0, 1], [1, 2], [2, 0]]),
                   np.array([BoundaryTag.BOTTOM, BoundaryTag.RIGHT,
                             BoundaryTag.TOP]),
                   np.array([-1, -1, -1]))


def pit_edge_mesh(length):
    """One pit edge of the given length with two triangles above it."""
    verts = np.array([[0.0, 0.0], [length, 0.0], [0.0, 1.0], [length, 1.0]])
    tris = np.array([[0, 1, 3], [0, 3, 2]])
    edges = np.array([[0, 1], [1, 3], [3, 2], [2, 0]])
    tags = np.array([BoundaryTag.PIT, BoundaryTag.RIGHT, BoundaryTag.TOP,
                     BoundaryTag.LEFT])
    mesh = TriMesh(verts, tris, edges, tags, np.array([0, -1, -1, -1]))
    chain = PitChain(0, np.array([0, 1]))
    return mesh, chain


class TestStiffness:
    def test_reference_triangle_hand_values(self):
        K = assemble_stiffness(reference_triangle()).toarray()
        assert np.allclose(np.diag(K), [1.0, 0.5, 0.5])
        assert K[0, 1] == pytest.approx(-0.5)
        assert K[0, 2] == pytest.approx(-0.5)
        assert K[1, 2] == pytest.approx(0.0)

    def test_constants_in_null_space(self):
        mesh, _, _ = build_initial_mesh(DomainSpec(), PitSpec(nodes=21),
                                        target_h=2.0, seed=0)
        K = assemble_stiffness(mesh)
        assert np.abs(K @ np.ones(mesh.n_vertices)).max() < 1e-11

    def test_two_triangle_square_hand_assembly(self):
        mesh = make_rect_mesh(1, 1)
        K = assemble_stiffness(mesh).toarray()
        # independent oracle: per-element hat gradients from a plane fit
        expected = np.zeros((4, 4))
        for tri in mesh.triangles:
            v = mesh.vertices[tri]
            area = 0.5 * abs(np.cross(np.append(v[1] - v[0], 0),
                                      np.append(v[2] - v[0], 0))[2])
            grads = []
            for k in range(3):
                rhs = np.zeros(3)
                rhs[k] = 1.0
                A = np.column_stack((np.ones(3), v[:, 0], v[:, 1]))
                coef = np.linalg.solve(A, rhs)
                grads.append(coef[1:])
            for i in range(3):
                for j in range(3):
                    expected[tri[i], tri[j]] += area * (grads[i] @ grads[j])
        assert np.allclose(K, expected)

    def test_cell_weight(self):
        mesh, _, _ = build_initial_mesh(DomainSpec(), PitSpec(nodes=21),
                                        target_h=2.0, seed=0)
        plain = assemble_stiffness(mesh).toarray()
        ones = np.ones(mesh.n_triangles)
        assert np.array_equal(assemble_stiffness(mesh, ones).toarray(), plain)
        scaled = assemble_stiffness(mesh, 2.5 * ones).toarray()
        assert np.allclose(scaled, 2.5 * plain, rtol=1e-14, atol=1e-14)

    def test_inverted_cell_aborts_with_index(self):
        mesh = make_rect_mesh(2, 2)
        mesh.triangles[5] = mesh.triangles[5][[0, 2, 1]]
        with pytest.raises(MeshError, match="cell 5"):
            assemble_stiffness(mesh)


class TestBoundaryTerm:
    def test_constant_current_splits_half_half(self):
        # alpha -> 0 makes i independent of phi; each endpoint of a single
        # straight edge gets i0 * L / (2 sigma)
        length = 3.0
        mesh, chain = pit_edge_mesh(length)
        ep = ElectroParams(alpha=1e-12, sigma_c=2.5)
        vc = VcorrParams()
        import pitmesh.electrochem as ec
        i0 = float(ec.current_density(ep, -0.24, 0.0))
        res, jac = boundary_residual_and_jacobian(
            mesh, [chain], np.zeros(4), Homogeneous(-0.24), vc, ep)
        expected = i0 * (length * 1e-6) / (2.0 * ep.sigma_c)
        assert res[0] == pytest.approx(expected, rel=1e-12)
        assert res[1] == pytest.approx(expected, rel=1e-12)
        assert abs(jac).max() < 1e-14  # alpha ~ 0 kills the phi coupling

    def test_jacobian_matches_finite_differences(self):
        mesh, chains, _ = build_initial_mesh(DomainSpec(), PitSpec(nodes=15),
                                             target_h=2.5, seed=1)
        ep = ElectroParams()
        vc = VcorrParams()
        mat = Crystal(orientation_from_axes([1, 0, 1], [-1, 0, 1]))
        rng = np.random.default_rng(0)
        phi = rng.uniform(0.0, 0.01, mesh.n_vertices)
        res0, jac = boundary_residual_and_jacobian(mesh, chains, phi, mat, vc, ep)
        jac = jac.toarray()
        eps = 1e-7
        cols = np.unique(np.concatenate([c.vertices for c in chains]))
        worst = 0.0
        scale = np.abs(jac).max()
        for col in cols:
            phi[col] += eps
            rp, _ = boundary_residual_and_jacobian(mesh, chains, phi, mat, vc, ep)
            phi[col] -= 2 * eps
            rm, _ = boundary_residual_and_jacobian(mesh, chains, phi, mat, vc, ep)
            phi[col] += eps
            fd = (rp - rm) / (2 * eps)
            worst = max(worst, np.abs(fd - jac[:, col]).max() / scale)
        assert worst < 1e-6

    def test_no_pits_gives_zero(self):
        mesh = make_rect_mesh(3, 3)
        res, jac = boundary_residual_and_jacobian(
            mesh, [], np.zeros(mesh.n_vertices), Homogeneous(-0.24),
            VcorrParams(), ElectroParams())
        assert np.all(res == 0.0)
        assert jac.nnz == 0

    def test_overflow_names_edge(self):
        mesh, chain = pit_edge_mesh(1.0)
        ep = ElectroParams()
        with pytest.raises(OverflowGuardError, match="pit edge"):
            boundary_residual_and_jacobian(mesh, [chain],
                                           np.full(4, -30.0),
                                           Homogeneous(-0.24), VcorrParams(), ep)


class TestNewton:
    def test_no_pit_solution_is_zero(self):
        mesh = make_rect_mesh(5, 5)
        res = newton_solve(mesh, [], Homogeneous(-0.24), VcorrParams(),
                           ElectroParams())
        assert np.abs(res.phi).max() == 0.0

    def test_dirichlet_exact_for_linear(self):
        mesh = make_rect_mesh(6, 4, 2.0, 1.5)
        phi = solve_dirichlet(mesh, lambda x, y: x + y)
        assert np.abs(phi - (mesh.vertices[:, 0] + mesh.vertices[:, 1])).max() \
            < 1e-12

    def test_manufactured_solution_second_order(self):
        errors = []
        for n in (8, 16, 32):
            mesh = make_rect_mesh(n, n)
            exact = lambda x, y: np.sin(np.pi * x) * np.sinh(np.pi * y)
            phi = solve_dirichlet(mesh, exact)
            errors.append(l2_error(mesh, phi, exact))
        rates = [np.log2(errors[k] / errors[k + 1]) for k in range(2)]
        for rate in rates:
            assert rate == pytest.approx(2.0, abs=0.1)

    def test_superlinear_residual_history(self):
        mesh, chains, _ = build_initial_mesh(DomainSpec(), PitSpec(nodes=21),
                                             target_h=1.5, seed=0)
        res = newton_solve(mesh, chains, Homogeneous(-0.24), VcorrParams(),
                           ElectroParams())
        h = res.history
        assert res.residual_norm <= 1e-10
        # each contraction factor beats the previous one
        ratios = [h[k + 1] / h[k] for k in range(len(h) - 2)]
        assert all(r2 < r1 for r1, r2 in zip(ratios, ratios[1:]))

    def test_relabeling_invariance(self):
        mesh, chains, _ = build_initial_mesh(DomainSpec(), PitSpec(nodes=15),
                                             target_h=2.5, seed=3)
        base = newton_solve(mesh, chains, Homogeneous(-0.24), VcorrParams(),
                            ElectroParams()).phi
        rng = np.random.default_rng(11)
        perm = rng.permutation(mesh.n_vertices)
        inv = np.argsort(perm)
        mesh2 = mesh.copy()
        mesh2.vertices = mesh.vertices[perm]
        mesh2.triangles = inv[mesh.triangles].astype(np.int32)
        mesh2.edge_nodes = inv[mesh.edge_nodes].astype(np.int32)
        chains2 = [type(c)(c.pit_id, inv[c.vertices]) for c in chains]
        mesh2.orient_ccw()
        permuted = newton_solve(mesh2, chains2, Homogeneous(-0.24),
                                VcorrParams(), ElectroParams()).phi
        assert np.abs(permuted[inv] - base).max() < 1e-10

    def test_warm_start_converges_faster(self):
        mesh, chains, _ = build_initial_mesh(DomainSpec(), PitSpec(nodes=21),
                                             target_h=1.5, seed=0)
        cold = newton_solve(mesh, chains, Homogeneous(-0.24), VcorrParams(),
                            ElectroParams())
        warm = newton_solve(mesh, chains, Homogeneous(-0.24), VcorrParams(),
                            ElectroParams(), guess=cold.phi)
        assert warm.iterations <= 1

    def test_nonconvergence_raises_with_history(self):
        mesh, chains, _ = build_initial_mesh(DomainSpec(), PitSpec(nodes=15),
                                             target_h=2.5, seed=0)
        settings = NewtonSettings(abs_tol=1e-300, max_iters=2)
        with pytest.raises(NewtonError) as err:
            newton_solve(mesh, chains, Homogeneous(-0.24), VcorrParams(),
                         ElectroParams(), settings=settings)
        assert len(err.value.history) == 3

    def test_sign_pattern_stable_under_refinement(self):
        # positive pit flux pulls phi up near the pit for every resolution
        signs = []
        for h in (2.5, 1.8):
            mesh, chains, _ = build_initial_mesh(DomainSpec(), PitSpec(nodes=21),
                                                 target_h=h, seed=0)
            res = newton_solve(mesh, chains, Homogeneous(-0.24), VcorrParams(),
                               ElectroParams())
            signs.append(np.sign(res.phi[chains[0].vertices]).min())
        assert signs[0] == signs[1] == 1.0
