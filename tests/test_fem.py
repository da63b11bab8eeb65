import warnings

import numpy as np
import pytest
from scipy.sparse.csgraph import reverse_cuthill_mckee

from pitmesh.crystal import Crystal, Homogeneous, orientation_from_axes
from pitmesh.electrochem import ElectroParams, OverflowGuardError
from pitmesh import adapt, fem, front
from pitmesh.driver import SimConfig, init_mesh
from pitmesh.fem import (BandLayout, MeshStructure, NewtonError,
                         assemble_stiffness, boundary_residual_and_jacobian,
                         newton_solve, pit_edges)
from pitmesh.front import FrontParams, detect_merge, merge_pits
from pitmesh.mesh import (BoundaryTag, MeshError, PitChain, TriMesh,
                          corner_index, vertex_roles)
from pitmesh.meshgen import DomainSpec, PitSpec, build_initial_mesh

from oracles import (cell_stiffness_by_fancy_index, edge_jacobian,
                     element_metrics_by_mean, l2_error, make_rect_mesh,
                     side_wall_levels_by_dijkstra, side_wall_order,
                     signed_areas_by_fancy_index, solve_dirichlet)


def reference_triangle():
    return TriMesh(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
                   np.array([[0, 1, 2]]),
                   np.array([[0, 1], [1, 2], [2, 0]]),
                   np.array([BoundaryTag.BOTTOM, BoundaryTag.RIGHT,
                             BoundaryTag.TOP]))


def boundary_terms(mesh, chains, phi, material, eparams):
    """The pit-flux load vector and edge blocks of phi on mesh."""
    return boundary_residual_and_jacobian(
        pit_edges(mesh, chains, material, eparams), phi)


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
        import pitmesh.electrochem as ec
        i0 = float(ec.current_density(ep, -0.24, 0.0))
        res, jac = boundary_terms(
            mesh, [chain], np.zeros(4), Homogeneous(-0.24), ep)
        expected = i0 * (length * 1e-6) / (2.0 * ep.sigma_c)
        assert res[0] == pytest.approx(expected, rel=1e-12)
        assert res[1] == pytest.approx(expected, rel=1e-12)
        # alpha ~ 0 kills the phi coupling
        assert np.abs(np.concatenate(jac[2:])).max() < 1e-14

    def test_jacobian_matches_finite_differences(self):
        mesh, chains, _ = build_initial_mesh(DomainSpec(), PitSpec(nodes=15),
                                             target_h=2.5, seed=1)
        ep = ElectroParams()
        mat = Crystal(orientation_from_axes([1, 0, 1], [-1, 0, 1]))
        rng = np.random.default_rng(0)
        phi = rng.uniform(0.0, 0.01, mesh.n_vertices)
        res0, jac = boundary_terms(mesh, chains, phi, mat, ep)
        jac = edge_jacobian(mesh.n_vertices, jac)
        eps = 1e-7
        cols = np.unique(np.concatenate([c.vertices for c in chains]))
        worst = 0.0
        scale = np.abs(jac).max()
        for col in cols:
            phi[col] += eps
            rp, _ = boundary_terms(mesh, chains, phi, mat, ep)
            phi[col] -= 2 * eps
            rm, _ = boundary_terms(mesh, chains, phi, mat, ep)
            phi[col] += eps
            fd = (rp - rm) / (2 * eps)
            worst = max(worst, np.abs(fd - jac[:, col]).max() / scale)
        assert worst < 1e-6

    def test_no_pits_gives_zero(self):
        mesh = make_rect_mesh(3, 3)
        res, jac = boundary_terms(
            mesh, [], np.zeros(mesh.n_vertices), Homogeneous(-0.24),
            ElectroParams())
        assert np.all(res == 0.0)
        assert [len(part) for part in jac] == [0] * 5

    def test_overflow_names_edge(self):
        mesh, chain = pit_edge_mesh(1.0)
        ep = ElectroParams()
        with pytest.raises(OverflowGuardError, match="pit edge"):
            boundary_terms(mesh, [chain], np.full(4, -30.0),
                           Homogeneous(-0.24), ep)
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
            boundary_terms(mesh, [chain], phi, Homogeneous(-0.24), ep)


class TestNewton:
    def test_no_pit_solution_is_zero(self):
        mesh = make_rect_mesh(5, 5)
        res = newton_solve(mesh, [], Homogeneous(-0.24), ElectroParams())
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

    def test_pit_edges_once_a_solve(self, monkeypatch):
        # only phi changes within a solve: one V_corr evaluation serves
        # every iteration's pit-flux terms
        mesh, chains, _ = build_initial_mesh(DomainSpec(), PitSpec(nodes=21),
                                             target_h=1.5, seed=0)
        calls = {"pit_edges": 0, "boundary_residual_and_jacobian": 0}
        for name in calls:
            real = getattr(fem, name)

            def counted(*args, _name=name, _real=real):
                calls[_name] += 1
                return _real(*args)

            monkeypatch.setattr(fem, name, counted)
        res = newton_solve(mesh, chains, Homogeneous(-0.24), ElectroParams())
        assert res.iterations >= 2
        assert calls == {"pit_edges": 1,
                         "boundary_residual_and_jacobian": res.iterations + 1}

    def test_superlinear_residual_history(self):
        mesh, chains, _ = build_initial_mesh(DomainSpec(), PitSpec(nodes=21),
                                             target_h=1.5, seed=0)
        res = newton_solve(mesh, chains, Homogeneous(-0.24), ElectroParams())
        h = res.history
        assert h[-1] <= 1e-10
        # each contraction factor beats the previous one
        ratios = [h[k + 1] / h[k] for k in range(len(h) - 2)]
        assert all(r2 < r1 for r1, r2 in zip(ratios, ratios[1:]))

    def test_relabeling_invariance(self):
        mesh, chains, _ = build_initial_mesh(DomainSpec(), PitSpec(nodes=15),
                                             target_h=2.5, seed=3)
        base = newton_solve(mesh, chains, Homogeneous(-0.24),
                            ElectroParams()).phi
        mesh2, chains2, inv = relabelled(mesh, chains, 11)
        permuted = newton_solve(mesh2, chains2, Homogeneous(-0.24),
                                ElectroParams()).phi
        assert np.abs(permuted[inv] - base).max() < 1e-10

    def test_warm_start_converges_faster(self):
        mesh, chains, _ = build_initial_mesh(DomainSpec(), PitSpec(nodes=21),
                                             target_h=1.5, seed=0)
        cold = newton_solve(mesh, chains, Homogeneous(-0.24), ElectroParams())
        warm = newton_solve(mesh, chains, Homogeneous(-0.24), ElectroParams(),
                            guess=cold.phi)
        assert warm.iterations <= 1

    def test_nonconvergence_raises_with_history(self, monkeypatch):
        mesh, chains, _ = build_initial_mesh(DomainSpec(), PitSpec(nodes=15),
                                             target_h=2.5, seed=0)
        monkeypatch.setattr(fem, "_ABS_TOL", 1e-300)
        monkeypatch.setattr(fem, "_MAX_ITERS", 2)
        with pytest.raises(NewtonError) as err:
            newton_solve(mesh, chains, Homogeneous(-0.24), ElectroParams())
        assert len(err.value.history) == 3

    def test_sign_pattern_stable_under_refinement(self):
        # positive pit flux pulls phi up near the pit for every resolution
        signs = []
        for h in (2.5, 1.8):
            mesh, chains, _ = build_initial_mesh(DomainSpec(), PitSpec(nodes=21),
                                                 target_h=h, seed=0)
            res = newton_solve(mesh, chains, Homogeneous(-0.24),
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


def newton_layout(structure, mesh):
    """structure's Newton layout on mesh, brought up to date first."""
    return structure.of(mesh).newton_layout(mesh)


@pytest.fixture(scope="module")
def pit_case():
    return build_initial_mesh(DomainSpec(), PitSpec(nodes=21), target_h=1.5,
                              seed=0)[:2]


@pytest.fixture(scope="module")
def merged_case():
    mesh, chains, _ = build_initial_mesh(
        DomainSpec(), PitSpec(centers=(-5.2, 5.2), nodes=31),
        target_h=1.2, seed=0)
    cand = detect_merge(mesh, chains, FrontParams(merge_gap_tol=0.5))
    merged, _ = merge_pits(mesh, chains, cand)
    assert len(merged) == 1
    return mesh, merged


class TestJacobianPattern:
    """Newton's layout on a MeshStructure: the Jacobian's band structure,
    its stiffness block and its last factor, kept across solves."""
    args = (Homogeneous(-0.24), ElectroParams())

    def test_one_factorisation_serves_solves_on_moved_meshes(self, pit_case,
                                                             band_calls):
        # the first solve factorises once; its factor preconditions the
        # later iterations and the solves on slightly moved meshes
        mesh, chains = pit_case
        structure = MeshStructure()
        phi = None
        iterations = 0
        for seed in range(3):
            res = newton_solve(moved_interior(mesh, seed), chains, *self.args,
                               guess=phi, structure=structure)
            phi = res.phi
            iterations += res.iterations
        assert iterations > 3
        assert band_calls == ["layout", "factor"]

    def test_kept_factor_solve_meets_the_convergence_test(self, pit_case,
                                                          band_calls):
        # the residual of a solve that took no factorisation, recomputed
        # from the assembled stiffness matrix
        mesh, chains = pit_case
        structure = MeshStructure()
        first = newton_solve(mesh, chains, *self.args, structure=structure)
        moved = moved_interior(mesh, 1)
        before = len(band_calls)
        kept = newton_solve(moved, chains, *self.args, guess=first.phi,
                            structure=structure)
        assert band_calls[before:] == []
        assert kept.iterations >= 1
        free = ~fem.dirichlet_mask(moved)
        b, _ = boundary_terms(moved, chains, kept.phi, *self.args)
        r = (assemble_stiffness(moved) @ kept.phi - b)[free]
        assert np.linalg.norm(r) <= fem._ABS_TOL + fem._REL_TOL * kept.history[0]
        fresh = newton_solve(moved, chains, *self.args, guess=first.phi)
        assert np.abs(kept.phi - fresh.phi).max() \
            <= 1e-6 * np.abs(fresh.phi).max()

    def test_far_moved_mesh_refactorises(self, pit_case, band_calls):
        # twice as deep: the kept factor no longer preconditions well
        mesh, chains = pit_case
        structure = MeshStructure()
        first = newton_solve(mesh, chains, *self.args, structure=structure)
        layout = newton_layout(structure, mesh)
        kept = layout.chol
        stretched = mesh.copy()
        stretched.vertices[:, 1] *= 2.0
        newton_solve(stretched, chains, *self.args, guess=first.phi,
                     structure=structure)
        assert band_calls.count("layout") == 1
        assert band_calls.count("factor") >= 2
        assert newton_layout(structure, stretched) is layout
        assert layout.chol is not kept

    @pytest.mark.parametrize("change", ["relabel", "dirichlet"])
    def test_new_structure_drops_the_factor(self, pit_case, band_calls,
                                            change):
        # the solve on a relabelled mesh or a new Dirichlet set builds one
        # new layout, since the kept one would scatter the stiffness into
        # the wrong entries, and factorises before any conjugate-gradient
        # step, as a fresh solve does
        mesh, chains = pit_case
        if change == "relabel":
            other, other_chains, _ = relabelled(mesh, chains, 11)
        else:
            other, other_chains = mesh.copy(), chains
            left = np.flatnonzero(other.edge_tags == BoundaryTag.LEFT)
            other.edge_tags[left] = BoundaryTag.TOP
        structure = MeshStructure()
        newton_solve(mesh, chains, *self.args, structure=structure)
        assert newton_layout(structure, mesh).chol is not None
        del band_calls[:]
        kept = newton_solve(other, other_chains, *self.args,
                            structure=structure)
        assert band_calls[:2] == ["layout", "factor"]
        assert band_calls.count("layout") == 1
        fresh = newton_solve(other, other_chains, *self.args)
        assert np.array_equal(kept.phi, fresh.phi)

    def test_relabelled_mesh_rebuilds_the_pattern(self, pit_case, band_calls):
        # same vertex count, other triangles: the kept layout would
        # scatter the stiffness into the wrong entries
        mesh, chains = pit_case
        mesh2, chains2, _ = relabelled(mesh, chains, 11)
        structure = MeshStructure()
        newton_solve(mesh, chains, *self.args, structure=structure)
        kept = newton_solve(mesh2, chains2, *self.args, structure=structure)
        assert band_calls.count("layout") == 2
        fresh = newton_solve(mesh2, chains2, *self.args)
        assert np.abs(kept.phi - fresh.phi).max() \
            <= 1e-12 * np.abs(fresh.phi).max()

    def test_dirichlet_mask_is_part_of_the_key(self, pit_case, band_calls):
        mesh, chains = pit_case
        structure = MeshStructure()
        newton_solve(mesh, chains, *self.args, structure=structure)
        retagged = mesh.copy()
        left = np.flatnonzero(retagged.edge_tags == BoundaryTag.LEFT)
        retagged.edge_tags[left] = BoundaryTag.TOP
        kept = newton_solve(retagged, chains, *self.args, structure=structure)
        assert band_calls.count("layout") == 2
        fresh = newton_solve(retagged, chains, *self.args)
        assert np.array_equal(kept.phi, fresh.phi)

    def test_kept_matrices_refilled_in_place(self, pit_case):
        # one K serves every call on the triangulation; refilled from a
        # moved mesh it equals that of a fresh structure's layout (built
        # on the positions the kept one was built on), and Newton from the
        # same factor reaches the same phi bit for bit
        mesh, chains = pit_case
        structure = MeshStructure()
        first = newton_solve(mesh, chains, *self.args, structure=structure)
        layout = newton_layout(structure, mesh)
        K = layout.stiffness(mesh, fem._cell_stiffness(mesh).ravel())
        factor = layout.chol
        moved = moved_interior(mesh, 1)
        kept = newton_solve(moved, chains, *self.args, guess=first.phi,
                            structure=structure)
        assert newton_layout(structure, moved) is layout
        assert layout.chol is factor
        entries = fem._cell_stiffness(moved).ravel()
        assert layout.stiffness(moved, entries) is K
        fresh = MeshStructure()
        fresh_layout = newton_layout(fresh, mesh)
        fresh_K = fresh_layout.stiffness(moved, entries)
        assert fresh_K is not K
        assert np.array_equal(fresh_K.data, K.data)
        fresh_layout.chol = factor
        again = newton_solve(moved, chains, *self.args, guess=first.phi,
                             structure=fresh)
        assert np.array_equal(again.phi, kept.phi)

    def test_dirichlet_mask_kept_until_the_boundary_changes(self, pit_case):
        # the structure reads the tags again only when triangles, edge
        # nodes or edge tags change; a retag that leaves the Dirichlet set
        # keeps the mask, the layout and the factor
        mesh, chains = pit_case
        structure = MeshStructure()
        newton_solve(mesh, chains, *self.args, structure=structure)
        fixed, free = structure.fixed, structure.free
        layout = newton_layout(structure, mesh)
        factor = layout.chol
        assert np.array_equal(fixed, fem.dirichlet_mask(mesh))
        newton_layout(structure, moved_interior(mesh, 1))
        assert structure.fixed is fixed and structure.free is free
        retagged = mesh.copy()
        bottom = np.flatnonzero(retagged.edge_tags == BoundaryTag.BOTTOM)[0]
        retagged.edge_tags[bottom] = BoundaryTag.PIT
        assert newton_layout(structure, retagged) is layout
        # the retag was read: it pins the edge's ends in the free mask
        assert structure.free is not free
        assert structure.fixed is fixed
        assert layout.chol is factor

    def test_band_holds_the_free_stiffness_block(self, pit_case):
        mesh, _ = pit_case
        fixed = fem.dirichlet_mask(mesh)
        layout = newton_layout(MeshStructure(), mesh)
        free = np.flatnonzero(~fixed)
        assert np.array_equal(layout.order, side_wall_order(mesh, free))
        K = assemble_stiffness(mesh)[layout.order][:, layout.order].toarray()
        assert np.abs(np.triu(K, layout.width + 1)).max() == 0.0
        expected = np.zeros((layout.width + 1, len(free)))
        for d in range(layout.width + 1):
            expected[layout.width - d, d:] = np.diag(K, d)
        band = layout.band(fem._cell_stiffness(mesh).ravel())
        assert np.abs(band - expected).max() <= 1e-14 * np.abs(K).max()

    @pytest.mark.parametrize("case", ["pit_case", "merged_case"])
    def test_products_with_the_free_jacobian_block(self, case, request):
        # the kept K is the free stiffness block in layout order, and
        # products with K minus the pit-edge blocks match the dense free
        # block on random vectors; on the merged chain the apex, like every
        # interior chain vertex, ends two pit edges whose blocks both enter
        # its row
        mesh, chains = request.getfixturevalue(case)
        layout = newton_layout(MeshStructure(), mesh)
        order = layout.order
        K = layout.stiffness(mesh, fem._cell_stiffness(mesh).ravel())
        dense = assemble_stiffness(mesh).toarray()
        scale = np.abs(dense).max()
        assert np.abs(K.toarray() - dense[order][:, order]).max() \
            <= 1e-14 * scale
        rng = np.random.default_rng(0)
        phi = rng.uniform(0.0, 0.01, mesh.n_vertices)
        _, blocks = boundary_terms(mesh, chains, phi, *self.args)
        jac = (dense - edge_jacobian(mesh.n_vertices, blocks))[order][:, order]
        product = fem._jacobian_product(K, layout, blocks)
        for _ in range(3):
            v = rng.uniform(-1.0, 1.0, len(order))
            assert np.abs(product(v) - jac @ v).max() <= 1e-14 * scale


class TestBandNewton:
    args = (Homogeneous(-0.24), ElectroParams())

    def test_step_matches_dense_solve(self, merged_case, monkeypatch):
        # Newton's first step from a guess solves (K - dB) delta = -r on
        # the free block
        mesh, chains = merged_case
        guess = 0.9 * newton_solve(mesh, chains, *self.args).phi
        steps = []
        real = fem.band_solve

        def recorded(factor, rhs):
            steps.append(real(factor, rhs))
            return steps[-1]

        monkeypatch.setattr(fem, "band_solve", recorded)
        structure = MeshStructure()
        newton_solve(mesh, chains, *self.args, guess=guess,
                     structure=structure)
        assert steps
        free = np.flatnonzero(~fem.dirichlet_mask(mesh))
        K = assemble_stiffness(mesh).toarray()
        b, blocks = boundary_terms(mesh, chains, guess, *self.args)
        jac = K - edge_jacobian(mesh.n_vertices, blocks)
        delta = np.linalg.solve(jac[free][:, free], -(K @ guess - b)[free])
        step = np.zeros(mesh.n_vertices)
        step[newton_layout(structure, mesh).order] = steps[0]
        assert np.abs(step[free] - delta).max() <= 1e-12 * np.abs(delta).max()

    def test_non_spd_jacobian_raises_newton_error(self, merged_case,
                                                  monkeypatch):
        mesh, chains = merged_case
        real = fem.boundary_residual_and_jacobian

        def indefinite(edges, phi):
            b, (ia, ib, jaa, jab, jbb) = real(edges, phi)
            return b, (ia, ib, jaa + 1e6, jab, jbb)

        monkeypatch.setattr(fem, "boundary_residual_and_jacobian", indefinite)
        with pytest.raises(NewtonError, match="^singular linearized system"):
            newton_solve(mesh, chains, *self.args)

    def test_non_spd_jacobian_with_a_kept_factor_raises_newton_error(
            self, merged_case, monkeypatch):
        # the kept factor is SPD, but the Jacobian it preconditions is not:
        # conjugate gradients break down and the refactorisation fails
        mesh, chains = merged_case
        structure = MeshStructure()
        newton_solve(mesh, chains, *self.args, structure=structure)
        assert newton_layout(structure, mesh).chol is not None
        real = fem.boundary_residual_and_jacobian
        real_pcg = fem._pcg
        steps = []

        def indefinite(edges, phi):
            b, (ia, ib, jaa, jab, jbb) = real(edges, phi)
            return b, (ia, ib, jaa + 1e6, jab, jbb)

        def recorded(*args):
            steps.append(real_pcg(*args))
            return steps[-1]

        monkeypatch.setattr(fem, "boundary_residual_and_jacobian", indefinite)
        monkeypatch.setattr(fem, "_pcg", recorded)
        moved = moved_interior(mesh, 2, 0.01)
        with pytest.raises(NewtonError, match="^singular linearized system"):
            newton_solve(moved, chains, *self.args, structure=structure)
        assert steps == [None]


def test_band_no_wider_than_rcm_and_built_without_warnings():
    # the Newton block and both relaxation blocks of the smoothed initial
    # homogeneous mesh
    mesh = init_mesh(SimConfig()).mesh
    roles = vertex_roles(mesh)
    free_x = ~(roles.pinned | roles.slide_y)
    free_y = ~(roles.pinned | roles.slide_x)
    K = assemble_stiffness(mesh)
    for mask in (~fem.dirichlet_mask(mesh), free_x, free_y):
        block = np.flatnonzero(mask)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            layout = BandLayout(mesh, block, fem.side_wall_levels(mesh))
        K_b = K[block][:, block]
        order = reverse_cuthill_mckee(K_b, symmetric_mode=True)
        upper = K_b[order][:, order].tocoo()
        assert layout.width <= np.max(upper.col - upper.row)


class TestCornerGather:
    """The flat-index corner gathers against fancy-indexed references."""

    @pytest.mark.parametrize("name", ["homog", "twopit"])
    def test_bit_identical_on_the_benchmark_meshes(self, bench_starts, name):
        mesh = bench_starts[name].mesh
        rng = np.random.default_rng(7)
        assert np.array_equal(mesh.signed_areas(),
                              signed_areas_by_fancy_index(mesh))
        weight = rng.uniform(0.5, 2.0, mesh.n_triangles)
        assert np.array_equal(fem._cell_stiffness(mesh),
                              cell_stiffness_by_fancy_index(mesh))
        assert np.array_equal(fem._cell_stiffness(mesh, weight),
                              cell_stiffness_by_fancy_index(mesh, weight))
        metric = rng.lognormal(0.0, 2.0, mesh.n_vertices)
        assert np.array_equal(adapt.element_metrics(mesh, metric),
                              element_metrics_by_mean(mesh, metric))

    def test_kept_indices_follow_cells_flipped_in_place(self):
        # orient_ccw flips cells in the triangles array itself, so state
        # keyed on that array's identity would keep a stale gather
        mesh = make_rect_mesh(5, 4)
        mesh.triangles[::3] = mesh.triangles[::3][:, [0, 2, 1]]
        structure = MeshStructure()
        layout = newton_layout(structure, mesh)
        stale = structure.corners.copy()
        assert mesh.orient_ccw() == len(mesh.triangles[::3])
        assert newton_layout(structure, mesh) is not layout
        corners = structure.corners
        assert not np.array_equal(corners, stale)
        assert np.array_equal(corners, corner_index(mesh.triangles))
        assert np.array_equal(mesh.signed_areas(),
                              signed_areas_by_fancy_index(mesh))
        assert np.all(mesh.signed_areas() > 0.0)
        assert np.array_equal(fem._cell_stiffness(mesh, corners=corners),
                              cell_stiffness_by_fancy_index(mesh))


@pytest.mark.parametrize("name", ["homog", "twopit"])
def test_side_wall_levels_equal_dijkstra(bench_starts, name):
    mesh = bench_starts[name].mesh
    levels = fem.side_wall_levels(mesh)
    assert np.array_equal(levels, side_wall_levels_by_dijkstra(mesh))
    assert np.isfinite(levels).all()


def test_kept_levels_equal_a_fresh_sweep(bench_starts, level_sweeps):
    # a sweep is kept until the triangles change; the levels are always
    # those of the mesh asked about
    kept = fem.MeshStructure()
    for name in ("homog", "twopit", "homog", "homog"):
        mesh = bench_starts[name].mesh
        assert np.array_equal(kept.of(mesh).levels,
                              side_wall_levels_by_dijkstra(mesh))
    assert len(level_sweeps) == 3


class TestMeshStructure:
    """One structure per mesh: each derived array is replaced only when
    its content changes, and the levels only on new triangles."""

    @staticmethod
    def derived(structure):
        return (structure.corners, structure.levels, structure.free,
                structure.fixed)

    def test_retag_leaving_both_masks_keeps_every_derived_array(
            self, pit_case, level_sweeps):
        # an inner pit edge tagged bottom: each of its ends still ends
        # another pit edge, so stays pinned, and the Dirichlet set is the
        # top's
        mesh, chains = pit_case
        mesh = mesh.copy()
        structure = fem.MeshStructure()
        before = self.derived(structure.of(mesh))
        ends = sorted(chains[0].vertices[2:4])
        edge = np.flatnonzero(np.all(np.sort(mesh.edge_nodes, axis=1) == ends,
                                     axis=1))
        assert mesh.edge_tags[edge].tolist() == [BoundaryTag.PIT]
        mesh.edge_tags[edge] = BoundaryTag.BOTTOM
        after = self.derived(structure.of(mesh))
        assert all(now is kept for now, kept in zip(after, before))
        assert len(level_sweeps) == 1

    def test_corner_absorption_replaces_only_the_free_mask(self, pit_case,
                                                           level_sweeps):
        mesh, chains = pit_case
        mesh = mesh.copy()
        structure = fem.MeshStructure()
        corners, levels, free, fixed = self.derived(structure.of(mesh))
        corner = chains[0].left_corner
        neighbor = front._bottom_neighbor(mesh, corner)
        front._retag_to_pit(mesh, corner, neighbor)
        structure.of(mesh)
        assert structure.corners is corners and structure.levels is levels
        assert structure.fixed is fixed
        assert structure.free is not free
        assert structure.free[neighbor].tolist() == [0.0, 0.0]
        assert free[neighbor].tolist() == [1.0, 0.0]
        assert len(level_sweeps) == 1

    def test_new_triangles_replace_every_derived_array(self, pit_case,
                                                      level_sweeps):
        mesh, chains = pit_case
        other = relabelled(mesh, chains, 11)[0]
        structure = fem.MeshStructure()
        before = self.derived(structure.of(mesh))
        del level_sweeps[:]
        after = self.derived(structure.of(other))
        assert not any(now is kept for now, kept in zip(after, before))
        assert np.array_equal(structure.corners,
                              corner_index(other.triangles))
        assert np.array_equal(structure.levels,
                              side_wall_levels_by_dijkstra(other))
        roles = vertex_roles(other)
        assert np.array_equal(structure.free[:, 0] == 1.0,
                              ~(roles.pinned | roles.slide_y))
        assert np.array_equal(structure.free[:, 1] == 1.0,
                              ~(roles.pinned | roles.slide_x))
        assert np.array_equal(structure.fixed, fem.dirichlet_mask(other))
        assert len(level_sweeps) == 1

    def test_relaxation_and_newton_keep_their_own_layouts(self, pit_case,
                                                          band_calls):
        # one structure owns the relaxation's two blocks and Newton's:
        # factorising one leaves the others' layouts and factors, and a
        # retag that changes only the free mask rebuilds only the
        # relaxation's
        mesh, chains = pit_case
        mesh = mesh.copy()
        factor = adapt.StiffnessFactor()
        structure = factor.structure.of(mesh)
        density = np.ones(mesh.n_triangles)
        factor.preconditioner(mesh, density)
        newton_solve(mesh, chains, *TestJacobianPattern.args,
                     structure=structure)
        assert band_calls[:5] == ["layout", "layout", "factor", "factor",
                                  "layout"]
        newton = structure.newton_layout(mesh)
        blocks = structure.relaxation_layouts(mesh)
        kept = [layout.chol for _, layout in blocks]
        chol = newton.chol
        assert chol is not None and all(c is not None for c in kept)

        # a relaxation refactorisation, on densities out of the band
        del band_calls[:]
        factor.preconditioner(mesh, 2.0 * density)
        assert band_calls == ["factor", "factor"]
        assert factor.factorisations == 2
        assert structure.newton_layout(mesh) is newton
        assert newton.chol is chol
        kept = [layout.chol for _, layout in blocks]

        # a Newton factorisation
        del band_calls[:]
        newton.chol = None
        newton_solve(mesh, chains, *TestJacobianPattern.args,
                     structure=structure)
        assert band_calls[0] == "factor" and "layout" not in band_calls
        assert newton.chol is not None and newton.chol is not chol
        chol = newton.chol
        assert structure.relaxation_layouts(mesh) is blocks
        assert all(layout.chol is c for (_, layout), c in zip(blocks, kept))

        # a corner absorption changes the free mask alone
        corner = chains[0].left_corner
        front._retag_to_pit(mesh, corner, front._bottom_neighbor(mesh, corner))
        del band_calls[:]
        structure.of(mesh)
        factor.preconditioner(mesh, 2.0 * density)
        assert band_calls == ["layout", "layout", "factor", "factor"]
        assert factor.factorisations == 3
        assert structure.relaxation_layouts(mesh) is not blocks
        del band_calls[:]
        newton_solve(mesh, chains, *TestJacobianPattern.args,
                     structure=structure)
        assert band_calls == []
        assert structure.newton_layout(mesh) is newton
        assert newton.chol is chol
