import numpy as np
import pytest
from scipy.sparse.linalg import splu

from pitmesh.crystal import Crystal, Homogeneous, VcorrParams, orientation_from_axes
from pitmesh.electrochem import ElectroParams, OverflowGuardError
from pitmesh import fem
from pitmesh.fem import (JacobianPattern, NewtonError, assemble_stiffness,
                         boundary_residual_and_jacobian, newton_solve)
from pitmesh.mesh import BoundaryTag, MeshError, PitChain, TriMesh
from pitmesh.meshgen import DomainSpec, PitSpec, build_initial_mesh

from oracles import l2_error, make_rect_mesh, solve_dirichlet


def reference_triangle():
    return TriMesh(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
                   np.array([[0, 1, 2]]),
                   np.array([[0, 1], [1, 2], [2, 0]]),
                   np.array([BoundaryTag.BOTTOM, BoundaryTag.RIGHT,
                             BoundaryTag.TOP]))


def pit_edge_mesh(length):
    """One pit edge of the given length with two triangles above it."""
    verts = np.array([[0.0, 0.0], [length, 0.0], [0.0, 1.0], [length, 1.0]])
    tris = np.array([[0, 1, 3], [0, 3, 2]])
    edges = np.array([[0, 1], [1, 3], [3, 2], [2, 0]])
    tags = np.array([BoundaryTag.PIT, BoundaryTag.RIGHT, BoundaryTag.TOP,
                     BoundaryTag.LEFT])
    mesh = TriMesh(verts, tris, edges, tags)
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
        plain = fem._cell_stiffness(mesh)
        ones = np.ones(mesh.n_triangles)
        assert np.array_equal(fem._cell_stiffness(mesh, ones), plain)
        scaled = fem._cell_stiffness(mesh, 2.5 * ones)
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
        # a two-edge chain 0-1-2 with phi low only at vertex 2: the first
        # edge's exponents stay below the guard, the second's do not
        verts = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0],
                          [0.0, 1.0], [1.0, 1.0], [2.0, 1.0]])
        tris = np.array([[0, 1, 4], [0, 4, 3], [1, 2, 5], [1, 5, 4]])
        edges = np.array([[0, 1], [1, 2], [2, 5], [5, 4], [4, 3], [3, 0]])
        tags = np.array([BoundaryTag.PIT, BoundaryTag.PIT, BoundaryTag.RIGHT,
                         BoundaryTag.TOP, BoundaryTag.TOP, BoundaryTag.LEFT])
        mesh = TriMesh(verts, tris, edges, tags)
        chain = PitChain(0, np.array([0, 1, 2]))
        phi = np.array([0.0, 0.0, -30.0, 0.0, 0.0, 0.0])
        with pytest.raises(OverflowGuardError, match=r"on pit edge 1 \(1-2\)"):
            boundary_residual_and_jacobian(mesh, [chain], phi,
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
        mesh2, chains2, inv = relabelled(mesh, chains, 11)
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

    def test_nonconvergence_raises_with_history(self, monkeypatch):
        mesh, chains, _ = build_initial_mesh(DomainSpec(), PitSpec(nodes=15),
                                             target_h=2.5, seed=0)
        monkeypatch.setattr(fem, "_ABS_TOL", 1e-300)
        monkeypatch.setattr(fem, "_MAX_ITERS", 2)
        with pytest.raises(NewtonError) as err:
            newton_solve(mesh, chains, Homogeneous(-0.24), VcorrParams(),
                         ElectroParams())
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


def relabelled(mesh, chains, seed):
    """The same mesh and chains with vertex numbers permuted; (copies, inv)."""
    perm = np.random.default_rng(seed).permutation(mesh.n_vertices)
    inv = np.argsort(perm)
    mesh2 = mesh.copy()
    mesh2.vertices = mesh.vertices[perm]
    mesh2.triangles = inv[mesh.triangles].astype(np.int32)
    mesh2.edge_nodes = inv[mesh.edge_nodes].astype(np.int32)
    mesh2.orient_ccw()
    return mesh2, [type(c)(c.pit_id, inv[c.vertices]) for c in chains], inv


def moved_interior(mesh, seed, amplitude=0.05):
    """A copy with every vertex off the boundary shifted at random."""
    moved = mesh.copy()
    interior = np.ones(mesh.n_vertices, dtype=bool)
    interior[mesh.edge_nodes.ravel()] = False
    rng = np.random.default_rng(seed)
    moved.vertices[interior] += rng.uniform(-amplitude, amplitude,
                                            (int(interior.sum()), 2))
    assert moved.signed_areas().min() > 0.0
    return moved


class TestJacobianPattern:
    args = (Homogeneous(-0.24), VcorrParams(), ElectroParams())

    @pytest.fixture(scope="class")
    def pit_case(self):
        return build_initial_mesh(DomainSpec(), PitSpec(nodes=21),
                                  target_h=1.5, seed=0)[:2]

    def test_kept_pattern_on_moved_mesh_matches_fresh_solve(self, pit_case,
                                                            splu_specs):
        mesh, chains = pit_case
        pattern = JacobianPattern()
        first = newton_solve(mesh, chains, *self.args, pattern=pattern)
        moved = moved_interior(mesh, 1)
        kept = newton_solve(moved, chains, *self.args, guess=first.phi,
                            pattern=pattern)
        assert splu_specs.count("MMD_AT_PLUS_A") == 1
        fresh = newton_solve(moved, chains, *self.args, guess=first.phi)
        assert np.abs(kept.phi - fresh.phi).max() \
            <= 1e-12 * np.abs(fresh.phi).max()
        assert len(kept.history) == len(fresh.history)
        assert pattern.solves == 2
        assert pattern.iterations == first.iterations + kept.iterations

    def test_relabelled_mesh_rebuilds_the_pattern(self, pit_case, splu_specs):
        # same vertex count, other triangles: the kept structure would
        # scatter the stiffness into the wrong entries
        mesh, chains = pit_case
        mesh2, chains2, _ = relabelled(mesh, chains, 11)
        pattern = JacobianPattern()
        newton_solve(mesh, chains, *self.args, pattern=pattern)
        kept = newton_solve(mesh2, chains2, *self.args, pattern=pattern)
        assert splu_specs.count("MMD_AT_PLUS_A") == 2
        fresh = newton_solve(mesh2, chains2, *self.args)
        assert np.abs(kept.phi - fresh.phi).max() \
            <= 1e-12 * np.abs(fresh.phi).max()

    def test_dirichlet_mask_is_part_of_the_key(self, pit_case, splu_specs):
        mesh, chains = pit_case
        pattern = JacobianPattern()
        newton_solve(mesh, chains, *self.args, pattern=pattern)
        retagged = mesh.copy()
        left = np.flatnonzero(retagged.edge_tags == BoundaryTag.LEFT)
        retagged.edge_tags[left] = BoundaryTag.TOP
        kept = newton_solve(retagged, chains, *self.args, pattern=pattern)
        assert splu_specs.count("MMD_AT_PLUS_A") == 2
        fresh = newton_solve(retagged, chains, *self.args)
        assert np.array_equal(kept.phi, fresh.phi)

    def test_factorisations_after_the_ordering_are_natural(self, pit_case,
                                                           splu_specs):
        # the pattern is ordered once, when it is built, and every Newton
        # factorisation keeps that order
        mesh, chains = pit_case
        pattern = JacobianPattern()
        iterations = 0
        for seed in range(3):
            iterations += newton_solve(moved_interior(mesh, seed), chains,
                                       *self.args, pattern=pattern).iterations
        assert splu_specs == ["MMD_AT_PLUS_A"] + ["NATURAL"] * iterations

    def test_kept_order_fills_in_as_superlu_own(self, pit_case):
        # the stiffness in the kept order, factorised in place, fills in as
        # SuperLU's own MMD ordering of it in vertex order does
        mesh, _ = pit_case
        fixed = fem.dirichlet_mask(mesh)
        free = np.flatnonzero(~fixed)
        K_ff = assemble_stiffness(mesh)[free][:, free].tocsc()
        options = dict(diag_pivot_thresh=0.0, options={"SymmetricMode": True})
        own = splu(K_ff, permc_spec="MMD_AT_PLUS_A", **options)
        pattern = JacobianPattern()
        K = pattern.stiffness(mesh, fixed)
        assert np.array_equal(np.sort(pattern.free), free)
        assert not np.array_equal(pattern.free, free)
        order = np.searchsorted(free, pattern.free)
        assert abs(K - K_ff[order][:, order]).max() \
            <= 1e-12 * abs(K_ff).max()
        kept = splu(K, permc_spec="NATURAL", **options)
        assert kept.L.nnz + kept.U.nnz == own.L.nnz + own.U.nnz
        assert np.array_equal(kept.perm_c, np.arange(len(free)))
