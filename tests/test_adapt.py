from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pitmesh import adapt, fem, front, io
from pitmesh.adapt import (AdaptParams, _ElementFunctional, element_metrics,
                           mmpde_step, monitor_mackenzie, smooth_mesh,
                           vertex_p_scaling)
from pitmesh.mesh import (MeshError, NearestSegments, TriMesh, corner_index,
                          min_distance_to_pit, vertex_roles)
from pitmesh.meshgen import DomainSpec, PitSpec, build_initial_mesh

from oracles import (band_by_assembly, energy, grad_energy,
                     lbfgs_direction_two_loop, lbfgs_direction_two_solves,
                     make_rect_mesh, smooth_mesh_exact_flows,
                     solve_equidistribution_1d, weighted_stiffness)

BENCH_WORKLOADS = Path(__file__).resolve().parents[1] / "bench" / "workloads"


@pytest.fixture(scope="module")
def pit_mesh():
    return build_initial_mesh(DomainSpec(), PitSpec(nodes=31), target_h=1.5,
                              seed=0)


@pytest.fixture(scope="module")
def fine_pit_mesh():
    return build_initial_mesh(DomainSpec(), PitSpec(), target_h=0.7, seed=0)


class TestMonitor:
    def test_on_boundary_value(self, pit_mesh):
        mesh, chains, _ = pit_mesh
        p = AdaptParams()
        metric = monitor_mackenzie(mesh, chains, p)
        chain_vals = metric[chains[0].vertices]
        assert np.allclose(chain_vals, 1.0 + p.mu1)

    def test_mu1_zero_identity(self, pit_mesh):
        mesh, chains, _ = pit_mesh
        metric = monitor_mackenzie(mesh, chains, AdaptParams(mu1=0.0))
        assert metric.shape == (mesh.n_vertices,)
        assert np.allclose(metric, 1.0)

    def test_printed_formula_at_unit_distance(self):
        # mu1=100, mu2=1, d=1 -> 1 + 100/sqrt(2)
        mesh = make_rect_mesh(2, 2, 4.0, 1.0)
        from pitmesh.mesh import PitChain
        # build a fake chain along the bottom edge at y=0
        chain = PitChain(0, np.array([0, 3, 6]))
        mesh.vertices[:] = np.array([[x, y] for x in (0, 2, 4)
                                     for y in (0, 0.5, 1.0)])
        p = AdaptParams()
        d = min_distance_to_pit(np.array([[0.0, 1.0]]), [chain], mesh)[0]
        assert d == pytest.approx(1.0)
        metric = monitor_mackenzie(mesh, [chain], p)
        idx = np.where((mesh.vertices[:, 1] == 1.0)
                       & (mesh.vertices[:, 0] == 0.0))[0][0]
        assert metric[idx] == pytest.approx(1 + 100 / np.sqrt(2), rel=1e-12)

    def test_spd_and_eigen_floor(self, pit_mesh):
        mesh, chains, _ = pit_mesh
        metric = monitor_mackenzie(mesh, chains, AdaptParams())
        assert metric.shape == (mesh.n_vertices,)
        assert np.all(metric >= 1.0)


class TestEnergy:
    def test_reference_triangle_closed_form(self):
        tri = TriMesh(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
                      np.array([[0, 1, 2]]),
                      np.array([[0, 1], [1, 2], [2, 0]]),
                      np.array([3, 2, 0]))
        p = AdaptParams()
        # J = I, T = 2, det J = 1: I = 0.5[theta 2^1.5 + (1-2theta) 2^1.5]
        expected = 0.5 * 2.0 ** 1.5 * (1.0 - adapt._THETA)
        assert energy(tri, np.ones(3), p) == pytest.approx(expected)

    def test_relabeling_invariance(self, pit_mesh):
        mesh, chains, _ = pit_mesh
        p = AdaptParams()
        metric = monitor_mackenzie(mesh, chains, p)
        base = energy(mesh, metric, p)
        rng = np.random.default_rng(4)
        perm = rng.permutation(mesh.n_vertices)
        inv = np.argsort(perm)
        mesh2 = mesh.copy()
        mesh2.vertices = mesh.vertices[perm]
        mesh2.triangles = inv[mesh.triangles].astype(np.int32)
        mesh2.edge_nodes = inv[mesh.edge_nodes].astype(np.int32)
        assert energy(mesh2, metric[perm], p) == pytest.approx(base, rel=1e-12)

    def test_uniform_mesh_minimal_under_interior_shift(self):
        mesh = make_rect_mesh(6, 6)
        p = AdaptParams(mu1=0.0)
        metric = np.ones(mesh.n_vertices)
        base = energy(mesh, metric, p)
        inner = np.ones(mesh.n_vertices, dtype=bool)
        inner[mesh.edge_nodes.ravel()] = False
        for shift in ((0.01, 0.0), (0.0, 0.01), (-0.008, 0.006), (0.02, 0.02)):
            m2 = mesh.copy()
            m2.vertices[inner] += shift
            assert energy(m2, metric, p) > base

    def test_inverted_cell_named(self):
        mesh = make_rect_mesh(2, 2)
        mesh.triangles[1] = mesh.triangles[1][[0, 2, 1]]
        with pytest.raises(MeshError, match="cell 1"):
            energy(mesh, np.ones(mesh.n_vertices), AdaptParams())

    def test_non_positive_monitor_rejected(self):
        mesh = make_rect_mesh(2, 2)
        metric = np.ones(mesh.n_vertices)
        metric[0] = -5.0
        with pytest.raises(MeshError, match="non-positive monitor value"):
            energy(mesh, metric, AdaptParams())

    def test_evaluate_none_on_one_inverted_cell(self):
        mesh = make_rect_mesh(3, 3)
        metric = np.ones(mesh.n_vertices)
        fn = _ElementFunctional(corner_index(mesh.triangles),
                                element_metrics(mesh, metric))
        value, grad, _ = fn.evaluate(mesh.vertices)
        assert value == pytest.approx(energy(mesh, metric, AdaptParams()))
        assert grad.shape == mesh.vertices.shape
        flipped = mesh.triangles.copy()
        flipped[4] = flipped[4][[0, 2, 1]]
        fn = _ElementFunctional(corner_index(flipped),
                                element_metrics(mesh, metric))
        assert fn.evaluate(mesh.vertices) is None


class TestGradient:
    def test_structured_mesh_interior_gradient_zero(self):
        # same-diagonal split: every interior vertex star is translation
        # symmetric, so the interior gradient cancels exactly
        xs, ys = np.meshgrid(np.linspace(0, 1, 6), np.linspace(0, 1, 6),
                             indexing="ij")
        pts = np.column_stack((xs.ravel(), ys.ravel()))
        cells = []
        for i in range(5):
            for j in range(5):
                a, b, c, d = (i * 6 + j, (i + 1) * 6 + j,
                              (i + 1) * 6 + j + 1, i * 6 + j + 1)
                cells.append((a, b, c))
                cells.append((a, c, d))
        mesh = make_rect_mesh(5, 5)
        mesh.vertices = pts
        mesh.triangles = np.asarray(cells, dtype=np.int32)
        g = grad_energy(mesh, np.ones(mesh.n_vertices), AdaptParams())
        inner = np.ones(mesh.n_vertices, dtype=bool)
        inner[mesh.edge_nodes.ravel()] = False
        assert np.abs(g[inner]).max() < 1e-12

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(3)
        mesh = make_rect_mesh(4, 5, 2.0, 2.0)
        inner = np.ones(mesh.n_vertices, dtype=bool)
        inner[mesh.edge_nodes.ravel()] = False
        mesh.vertices[inner] += rng.uniform(-0.05, 0.05, (int(inner.sum()), 2))
        metric = 1.0 + np.linspace(0, 3, mesh.n_vertices)
        p = AdaptParams()
        g = grad_energy(mesh, metric, p)
        eps = 1e-7
        worst = 0.0
        for v in range(mesh.n_vertices):
            for c in range(2):
                m2 = mesh.copy()
                m2.vertices[v, c] += eps
                e_plus = energy(m2, metric, p)
                m2.vertices[v, c] -= 2 * eps
                e_minus = energy(m2, metric, p)
                fd = (e_plus - e_minus) / (2 * eps)
                worst = max(worst, abs(fd - g[v, c]) / max(1.0, abs(fd)))
        assert worst < 1e-6

    def test_translation_invariance(self, pit_mesh):
        mesh, chains, _ = pit_mesh
        p = AdaptParams()
        metric = monitor_mackenzie(mesh, chains, p)
        g1 = grad_energy(mesh, metric, p)
        m2 = mesh.copy()
        m2.vertices = m2.vertices + np.array([3.7, -1.2])
        g2 = grad_energy(m2, metric, p)
        assert np.abs(g1 - g2).max() < 1e-9


class TestMmpdeStep:
    def test_uniform_mesh_near_stationary(self, monkeypatch):
        # a uniform mesh relaxed once under the identity metric is a fixed
        # point: another step does not move it
        monkeypatch.setattr(adapt, "_GRAD_TOL", 1e-10)
        mesh = make_rect_mesh(8, 8)
        p = AdaptParams(mu1=0.0)
        metric = np.ones(mesh.n_vertices)
        pre = mmpde_step(mesh, metric, p, dt_interval=np.inf,
                         max_substeps=5000, rtol=0.0)
        relaxed = mesh.copy()
        relaxed.vertices = pre.positions
        lengths = relaxed.edge_lengths()
        assert lengths.max() / lengths.min() < 2.5  # stays near uniform
        res = mmpde_step(relaxed, metric, p, dt_interval=0.5, rtol=0.0)
        moved = res.positions - relaxed.vertices
        assert np.hypot(moved[:, 0], moved[:, 1]).max() < 1e-8

    def test_monitor_pulls_nodes_toward_pit(self, fine_pit_mesh, monkeypatch):
        mesh, chains, _ = fine_pit_mesh
        monkeypatch.setattr(adapt, "_GRAD_TOL", 1e-4)
        p = AdaptParams()

        def interior_min_edge_near_pit(m, radius=1.0):
            # chain edges are pinned by construction, so the clustering
            # trend shows in the edges not touching the chain
            edges = m.unique_edges()
            on_chain = np.zeros(m.n_vertices, dtype=bool)
            on_chain[chains[0].vertices] = True
            keep = ~(on_chain[edges[:, 0]] | on_chain[edges[:, 1]])
            edges = edges[keep]
            mid = 0.5 * (m.vertices[edges[:, 0]] + m.vertices[edges[:, 1]])
            d = min_distance_to_pit(mid, chains, m)
            return m.edge_lengths(edges)[d <= radius].min()

        before = interior_min_edge_near_pit(mesh)
        metric = monitor_mackenzie(mesh, chains, p)
        res = mmpde_step(mesh, metric, p, dt_interval=0.5, max_substeps=3000,
                         rtol=0.0)
        moved = mesh.copy()
        moved.vertices = res.positions
        assert interior_min_edge_near_pit(moved) < before

    def test_energy_descends(self, pit_mesh):
        mesh, chains, _ = pit_mesh
        p = AdaptParams()
        metric = monitor_mackenzie(mesh, chains, p)
        before = energy(mesh, metric, p)
        res = mmpde_step(mesh, metric, p, dt_interval=0.5)
        moved = mesh.copy()
        moved.vertices = res.positions
        after = energy(moved, metric, p)
        assert after <= before + 1e-10 * abs(before)

    def test_no_inverted_elements(self, pit_mesh):
        mesh, chains, _ = pit_mesh
        p = AdaptParams()
        metric = monitor_mackenzie(mesh, chains, p)
        res = mmpde_step(mesh, metric, p, dt_interval=0.5)
        moved = mesh.copy()
        moved.vertices = res.positions
        assert moved.signed_areas().min() > 0.0

    def test_chain_and_corner_vertices_fixed(self, pit_mesh):
        mesh, chains, _ = pit_mesh
        p = AdaptParams()
        metric = monitor_mackenzie(mesh, chains, p)
        res = mmpde_step(mesh, metric, p, dt_interval=0.5)
        pit_ids = chains[0].vertices
        assert np.array_equal(res.positions[pit_ids], mesh.vertices[pit_ids])

    def test_boundary_sliding_constraints(self, pit_mesh):
        mesh, chains, _ = pit_mesh
        from pitmesh.mesh import vertex_roles
        roles = vertex_roles(mesh)
        p = AdaptParams()
        metric = monitor_mackenzie(mesh, chains, p)
        res = mmpde_step(mesh, metric, p, dt_interval=0.5)
        dy = res.positions[roles.slide_x, 1] - mesh.vertices[roles.slide_x, 1]
        dx = res.positions[roles.slide_y, 0] - mesh.vertices[roles.slide_y, 0]
        assert np.abs(dy).max() == 0.0
        assert np.abs(dx).max() == 0.0

    def test_gradient_vanishes_at_stationarity(self, monkeypatch):
        monkeypatch.setattr(adapt, "_GRAD_TOL", 1e-8)
        mesh, chains, _ = build_initial_mesh(DomainSpec(), PitSpec(nodes=15),
                                             target_h=3.0, seed=1)
        p = AdaptParams()
        metric = monitor_mackenzie(mesh, chains, p)
        res = mmpde_step(mesh, metric, p, dt_interval=np.inf,
                         max_substeps=20000, rtol=0.0)
        assert res.stopped == "stationary"
        moved = mesh.copy()
        moved.vertices = res.positions
        g = grad_energy(moved, metric, p)
        from pitmesh.mesh import vertex_roles
        roles = vertex_roles(moved)
        g[roles.pinned] = 0.0
        g[roles.slide_x, 1] = 0.0
        g[roles.slide_y, 0] = 0.0
        assert np.abs(g).max() < 1e-8

    def test_minimiser_iterations_from_initial_mesh(self, pit_mesh,
                                                    monkeypatch):
        # the stiffness-preconditioned minimiser reaches a gradient of 1e-8
        # from the 436-vertex initial mesh in about 50 iterations; a
        # diagonal initial inverse Hessian takes about 270
        monkeypatch.setattr(adapt, "_GRAD_TOL", 1e-8)
        mesh, chains, _ = pit_mesh
        p = AdaptParams()
        metric = monitor_mackenzie(mesh, chains, p)
        res = mmpde_step(mesh, metric, p, dt_interval=np.inf,
                         max_substeps=20000, rtol=0.0)
        assert mesh.n_vertices == 436
        assert res.stopped == "stationary"
        assert res.substeps <= 100

    def test_no_free_vertex_in_one_coordinate(self, monkeypatch):
        # a one-cell-high strip: the middle vertices slide in x, and no
        # vertex is free in y, so only the x block is factorised
        mesh = make_rect_mesh(2, 1)
        mesh.vertices[[2, 3], 0] += 0.2
        p = AdaptParams(mu1=0.0)
        metric = np.ones(mesh.n_vertices)
        monkeypatch.setattr(adapt, "_GRAD_TOL", 1e-10)
        res = mmpde_step(mesh, metric, p, dt_interval=np.inf, rtol=0.0)
        assert res.stopped == "stationary"
        assert np.array_equal(res.positions[:, 1], mesh.vertices[:, 1])
        moved = mesh.copy()
        moved.vertices = res.positions
        assert energy(moved, metric, p) < energy(mesh, metric, p)

    def test_stale_factor_still_reaches_stationarity(self, pit_mesh,
                                                     monkeypatch):
        # a factor built on a jittered copy is reused, not rebuilt, and
        # still preconditions the minimiser to a gradient of 1e-8
        mesh, chains, _ = pit_mesh
        p = AdaptParams()
        metric = monitor_mackenzie(mesh, chains, p)
        jittered = mesh.copy()
        rng = np.random.default_rng(3)
        jittered.vertices = mesh.vertices + rng.uniform(
            -0.02, 0.02, mesh.vertices.shape)
        factor = adapt.StiffnessFactor()
        mmpde_step(jittered, metric, p, dt_interval=np.inf, max_substeps=1,
                   factor=factor)
        monkeypatch.setattr(adapt, "_GRAD_TOL", 1e-8)
        res = mmpde_step(mesh, metric, p, dt_interval=np.inf,
                         max_substeps=20000, rtol=0.0, factor=factor)
        # one factorisation over both calls
        assert factor.factorisations == 1
        assert res.stopped == "stationary"
        assert res.substeps <= 100

    def test_stationary_start_ignores_the_kept_motion(self, monkeypatch):
        # a call that starts stationary returns x^n, as without a factor,
        # even where the kept motion would pass the line search
        mesh = make_rect_mesh(8, 8)
        p = AdaptParams(mu1=0.0)
        metric = np.ones(mesh.n_vertices)
        relaxed = mesh.copy()
        with monkeypatch.context() as floor:
            floor.setattr(adapt, "_GRAD_TOL", 1e-10)
            relaxed.vertices = mmpde_step(mesh, metric, p, dt_interval=np.inf,
                                          max_substeps=5000,
                                          rtol=0.0).positions
        factor = adapt.StiffnessFactor()
        mmpde_step(relaxed, metric, p, dt_interval=0.5, factor=factor)
        factor.motion = 1e-9 * np.random.default_rng(2).normal(
            size=mesh.vertices.shape)
        res = mmpde_step(relaxed, metric, p, dt_interval=0.5, factor=factor)
        assert (res.substeps, res.stopped, res.predicted) == \
            (0, "stationary", False)
        assert np.array_equal(res.positions, relaxed.vertices)

    def test_stationary_start_solves_nothing(self, monkeypatch):
        # a call that ends at its first stationarity test makes no K^-1
        # solve; one that iterates makes one per iteration and one for the
        # starting gradient
        mesh = make_rect_mesh(8, 8)
        p = AdaptParams(mu1=0.0)
        metric = np.ones(mesh.n_vertices)
        factor = adapt.StiffnessFactor()
        solves = []
        real_solve = adapt.band_solve

        def counted(chol, v):
            solves.append(1)
            return real_solve(chol, v)

        monkeypatch.setattr(adapt, "band_solve", counted)
        mesh.vertices[10] += 0.01
        moving = mmpde_step(mesh, metric, p, dt_interval=np.inf,
                            max_substeps=3, factor=factor)
        assert moving.substeps == 3
        # four K^-1 solves, each one band solve per coordinate block
        assert len(solves) == 4 * 2
        solves.clear()
        still = mmpde_step(mesh, metric, p, dt_interval=np.inf,
                           rtol=np.inf, factor=factor)
        assert (still.substeps, still.stopped) == (0, "stationary")
        assert factor.factorisations == 1
        assert solves == []

    @pytest.mark.parametrize("bad", ["inverts", "rises"])
    def test_predicted_start_not_taken_when_it_fails_the_line_search(
            self, pit_mesh, bad):
        # a kept motion that inverts a cell or raises the objective is
        # dropped, and the call relaxes exactly as a fresh one from x^n
        mesh, chains, _ = pit_mesh
        p = AdaptParams()
        metric = monitor_mackenzie(mesh, chains, p)
        factor = adapt.StiffnessFactor()
        # a call that stops at once keeps a zero motion and no pairs
        mmpde_step(mesh, metric, p, dt_interval=0.5, max_substeps=0,
                   factor=factor)
        assert not factor.pairs
        roles = vertex_roles(mesh)
        free = np.ones((mesh.n_vertices, 2))
        free[roles.pinned] = 0.0
        free[roles.slide_x, 1] = 0.0
        free[roles.slide_y, 0] = 0.0
        if bad == "inverts":
            # mirror every vertex in x: the free ones cross the pinned ones
            motion = np.column_stack((-2.0 * mesh.vertices[:, 0],
                                      np.zeros(mesh.n_vertices)))
        else:
            # a short step uphill
            g = grad_energy(mesh, metric, p) * free
            motion = 1e-3 * g / np.abs(g).max()
        trial = mesh.copy()
        trial.vertices = mesh.vertices + free * motion
        if bad == "inverts":
            assert trial.signed_areas().min() < 0.0
        else:
            assert trial.signed_areas().min() > 0.0
            assert energy(trial, metric, p) > energy(mesh, metric, p)
        factor.motion = motion
        res = mmpde_step(mesh, metric, p, dt_interval=0.5, factor=factor)
        fresh = mmpde_step(mesh, metric, p, dt_interval=0.5)
        assert not res.predicted and not fresh.predicted
        assert res.substeps == fresh.substeps > 0
        assert np.array_equal(res.positions, fresh.positions)

    def test_vanishing_tau_over_dt_gives_the_minimiser(self, monkeypatch):
        # the step minimises I + tau/(2 dt) |x - x_n|^2_{P^-1}, so its gap
        # to the energy minimum (dt = inf) is O(tau/dt): about 2.5e-3 um
        # at tau/dt = 2e-5, falling a hundredfold per hundredfold in tau
        mesh, chains, _ = build_initial_mesh(DomainSpec(), PitSpec(nodes=15),
                                             target_h=2.5, seed=1)
        p = AdaptParams()
        metric = monitor_mackenzie(mesh, chains, p)
        monkeypatch.setattr(adapt, "_GRAD_TOL", 1e-8)
        minimum = mmpde_step(mesh, metric, p, dt_interval=np.inf,
                             max_substeps=20000, rtol=0.0)
        assert minimum.stopped == "stationary"
        gaps = []
        for tau in (1e-6, 1e-8, 1e-10):
            res = mmpde_step(mesh, metric, AdaptParams(tau=tau),
                             dt_interval=0.05, max_substeps=20000,
                             rtol=0.0)
            assert res.stopped == "stationary"
            gaps.append(float(np.abs(res.positions - minimum.positions).max()))
        assert gaps[1] < 0.1 * gaps[0] and gaps[2] < 0.1 * gaps[1]
        assert gaps[2] < 1e-6

    def test_displacement_falls_as_tau_rises(self, monkeypatch):
        # a larger tau weighs the proximal term more, so one step from the
        # same mesh moves it less (about 1.96, 1.82, 1.42, 0.92 um here)
        monkeypatch.setattr(adapt, "_GRAD_TOL", 1e-6)
        mesh, chains, _ = build_initial_mesh(DomainSpec(), PitSpec(nodes=15),
                                             target_h=2.5, seed=1)
        metric = monitor_mackenzie(mesh, chains, AdaptParams())
        disp = []
        for tau in (1e-6, 1e-4, 1e-3, 1e-2):
            res = mmpde_step(mesh, metric, AdaptParams(tau=tau),
                             dt_interval=0.05, max_substeps=40000,
                             rtol=0.0)
            assert res.stopped == "stationary"
            moved = res.positions - mesh.vertices
            disp.append(np.hypot(moved[:, 0], moved[:, 1]).max())
        assert all(a > b for a, b in zip(disp, disp[1:]))

    def test_stationary_for_the_proximal_energy(self, monkeypatch):
        # at tau/dt = 0.2 the energy gradient alone is far from zero at the
        # step's result; with the proximal gradient (tau/dt)(x - x_n)/P
        # added, the projected sum is below the stationarity tolerance
        monkeypatch.setattr(adapt, "_GRAD_TOL", 1e-8)
        mesh, chains, _ = build_initial_mesh(DomainSpec(), PitSpec(nodes=15),
                                             target_h=2.5, seed=1)
        p = AdaptParams(tau=1e-2)
        dt = 0.05
        metric = monitor_mackenzie(mesh, chains, p)
        res = mmpde_step(mesh, metric, p, dt_interval=dt, max_substeps=20000,
                         rtol=0.0)
        assert res.stopped == "stationary"
        moved = mesh.copy()
        moved.vertices = res.positions
        g_energy = grad_energy(moved, metric, p)
        g = g_energy + (p.tau / dt) * (res.positions - mesh.vertices) \
            / vertex_p_scaling(metric)[:, None]
        roles = vertex_roles(mesh)
        free = np.ones((mesh.n_vertices, 2), dtype=bool)
        free[roles.pinned] = False
        free[roles.slide_x, 1] = False
        free[roles.slide_y, 0] = False
        assert np.abs(g[free]).max() < 1e-8
        assert np.abs(g_energy[free]).max() > 1e-3

    def test_smaller_tau_closer_to_equidistribution(self, monkeypatch):
        # one physical step from a uniform start; the mesh with the faster
        # response time ends nearer the equidistributed state (at large tau
        # the step's proximal term tau/(2 dt)|x - x^n|^2/P holds the mesh
        # near its start)
        mesh, chains, _ = build_initial_mesh(DomainSpec(), PitSpec(nodes=15),
                                             target_h=2.5, seed=1)

        def deviation(m, metric):
            q = m.signed_areas() * element_metrics(m, metric)
            mid = m.vertices[m.triangles].mean(axis=1)
            w = 1.0 / (1.0 + min_distance_to_pit(mid, chains, m))
            return float(np.sum(w * np.abs(q - q.mean())) / (np.sum(w) * q.mean()))

        monkeypatch.setattr(adapt, "_GRAD_TOL", 1e-6)
        results = {}
        for tau in (1e-2, 1e-6):
            p = AdaptParams(tau=tau)
            metric = monitor_mackenzie(mesh, chains, p)
            res = mmpde_step(mesh, metric, p, dt_interval=0.05,
                             max_substeps=40000, rtol=0.0)
            moved = mesh.copy()
            moved.vertices = res.positions
            results[tau] = deviation(moved, monitor_mackenzie(moved, chains, p))
        assert results[1e-6] < results[1e-2]


class TestStiffnessFactor:
    @staticmethod
    def factor_of(mesh):
        """A StiffnessFactor whose structure has read mesh, as mmpde_step
        leaves it before asking for the preconditioner."""
        factor = adapt.StiffnessFactor()
        factor.structure.of(mesh)
        return factor

    def problem(self):
        mesh = make_rect_mesh(4, 4)
        return mesh, np.ones(mesh.n_triangles), self.factor_of(mesh)

    @staticmethod
    def free_blocks(mesh):
        """mmpde_step's free mask of a pit mesh."""
        roles = vertex_roles(mesh)
        free = np.ones((mesh.n_vertices, 2))
        free[roles.pinned] = 0.0
        free[roles.slide_x, 1] = 0.0
        free[roles.slide_y, 0] = 0.0
        return free

    def test_reused_while_densities_stay_in_band(self):
        mesh, density, factor = self.problem()
        apply = factor.preconditioner(mesh, density)
        for ratio in (1.4, 1 / 1.4, 1.5):
            drifted = density.copy()
            drifted[5] *= ratio
            assert factor.preconditioner(mesh, drifted) is apply
        # one factorisation over the four calls
        assert factor.factorisations == 1

    @pytest.mark.parametrize("ratio", [1.6, 1 / 1.6])
    def test_refactorised_when_one_density_drifts(self, ratio):
        mesh, density, factor = self.problem()
        apply = factor.preconditioner(mesh, density)
        drifted = density.copy()
        drifted[5] *= ratio
        assert factor.preconditioner(mesh, drifted) is not apply
        assert factor.factorisations == 2
        # the band is measured from the newest factorisation
        assert factor.preconditioner(mesh, drifted) is not apply
        assert factor.factorisations == 2

    def test_refactorised_when_free_set_changes(self, monkeypatch):
        layouts = []
        real = fem.BandLayout

        def recorded(mesh, block, levels):
            layouts.append(block)
            return real(mesh, block, levels)

        monkeypatch.setattr(fem, "BandLayout", recorded)
        mesh, density, factor = self.problem()
        factor.preconditioner(mesh, density)
        # the bottom edge from a corner tagged Pit, as a corner absorption
        # tags it, pins the corner's bottom neighbour, which slid in x
        corner = int(np.argmin(mesh.vertices.sum(axis=1)))
        front._retag_to_pit(mesh, corner, front._bottom_neighbor(mesh, corner))
        free = factor.structure.free
        pinned = factor.structure.of(mesh).free
        assert pinned is not free
        factor.preconditioner(mesh, density)
        assert factor.factorisations == 2
        # the changed free set gets its own layouts, one per block
        assert len(layouts) == 4
        assert [len(b) for b in layouts[2:]] == \
            [len(layouts[0]) - 1, len(layouts[1])]
        v = np.ones(2 * mesh.n_vertices)
        out = factor.preconditioner(mesh, density)(v)
        assert np.all(out.reshape(-1, 2)[pinned == 0.0] == 0.0)
        assert factor.factorisations == 2
        assert len(layouts) == 4

    def test_layout_built_once_over_density_refactorisations(self, pit_mesh,
                                                             level_sweeps):
        # the band order reads structure alone, so density-driven
        # refactorisations reuse it and put a new factor on each block,
        # and the x and y blocks share the structure's one breadth-first
        # sweep
        mesh = pit_mesh[0]
        factor = self.factor_of(mesh)
        assert np.array_equal(factor.structure.free, self.free_blocks(mesh))
        density = np.ones(mesh.n_triangles)
        layouts = []
        factors = []
        for ratio in (1.0, 2.0, 4.0, 8.0):
            factor.preconditioner(mesh, ratio * density)
            layouts.append(factor.structure.relaxation_layouts(mesh))
            factors.append([layout.chol for _, layout in layouts[-1]])
        assert factor.factorisations == 4
        assert all(kept is layouts[0] for kept in layouts)
        assert len(layouts[0]) == 2
        assert all(new is not old for last, now in zip(factors, factors[1:])
                   for old, new in zip(last, now))
        assert len(level_sweeps) == 1

    def test_band_matches_assembled_reference(self, pit_mesh):
        mesh = pit_mesh[0]
        rng = np.random.default_rng(5)
        density = rng.uniform(0.1, 10.0, mesh.n_triangles)
        entries = fem._cell_stiffness(mesh, density).ravel()
        free = self.free_blocks(mesh)
        for c in range(2):
            block = np.flatnonzero(free[:, c])
            layout = fem.BandLayout(mesh, block, fem.side_wall_levels(mesh))
            order, band = band_by_assembly(mesh, density, block)
            assert np.array_equal(layout.order, order)
            got = layout.band(entries)
            assert got.shape == band.shape
            assert np.max(np.abs(got - band)) <= 1e-14 * np.max(np.abs(band))

    def test_kept_free_mask_follows_a_retag(self, pit_mesh, level_sweeps):
        # absorbing a surface vertex retags its bottom edge as Pit in
        # place; the next relaxation on the same factor pins that vertex,
        # with new layouts on the levels of the one sweep
        mesh, chains, _ = pit_mesh
        mesh = mesh.copy()
        p = AdaptParams()
        metric = monitor_mackenzie(mesh, chains, p)
        factor = adapt.StiffnessFactor()
        corner = chains[0].left_corner
        neighbor = front._bottom_neighbor(mesh, corner)
        res = mmpde_step(mesh, metric, p, dt_interval=0.5, max_substeps=20,
                         factor=factor)
        assert res.positions[neighbor, 0] != mesh.vertices[neighbor, 0]
        assert factor.structure.free[neighbor].tolist() == [1.0, 0.0]
        front._retag_to_pit(mesh, corner, neighbor)
        res = mmpde_step(mesh, metric, p, dt_interval=0.5, max_substeps=20,
                         factor=factor)
        assert np.array_equal(res.positions[neighbor],
                              mesh.vertices[neighbor])
        assert factor.structure.free[neighbor].tolist() == [0.0, 0.0]
        assert factor.factorisations == 2
        assert len(level_sweeps) == 1

    def test_inverts_each_free_block(self):
        mesh = make_rect_mesh(7, 5)
        rng = np.random.default_rng(1)
        density = rng.uniform(0.5, 2.0, mesh.n_triangles)
        factor = self.factor_of(mesh)
        free = factor.structure.free
        x = rng.normal(size=free.shape) * free
        stiffness = weighted_stiffness(mesh, density)
        kx = np.column_stack([stiffness @ x[:, c] for c in range(2)])
        apply = factor.preconditioner(mesh, density)
        assert np.allclose(apply(kx.ravel()), x.ravel(), rtol=0, atol=1e-12)


def checked_directions(monkeypatch, kept, turn=lambda k: False):
    """Check every CurvaturePairs direction against the two-solve recursion.

    Each CurvaturePairs gets a plain list of its newest _LBFGS_HISTORY
    pairs with s'y > 0, emptied by clear.  Every direction is compared
    with lbfgs_direction_two_solves of that list under the preconditioner
    kept[-1].  Returns one (pairs, relative difference) record per
    direction; the k-th direction is turned uphill when turn(k).
    """
    pairs = {}
    records = []
    real_push = adapt.CurvaturePairs.push
    real_clear = adapt.CurvaturePairs.clear
    real_direction = adapt.CurvaturePairs.direction

    def push(self, s, y, ky):
        real_push(self, s, y, ky)
        if s @ y > 0.0:
            mine = pairs.setdefault(id(self), [])
            mine.append((s.copy(), y.copy()))
            del mine[:-adapt._LBFGS_HISTORY]

    def clear(self):
        real_clear(self)
        pairs[id(self)] = []

    def direction(self, g, kg):
        d = real_direction(self, g, kg)
        mine = pairs[id(self)]
        assert len(self) == len(mine)
        ref = lbfgs_direction_two_solves(g, kept[-1], mine)
        records.append((len(mine), np.abs(d - ref).max() / np.abs(ref).max()))
        return -d if turn(len(records)) else d

    monkeypatch.setattr(adapt.CurvaturePairs, "push", push)
    monkeypatch.setattr(adapt.CurvaturePairs, "clear", clear)
    monkeypatch.setattr(adapt.CurvaturePairs, "direction", direction)
    return records


class TestLbfgsDirection:
    @staticmethod
    def problem(n=40, seed=5):
        """An SPD K, an SPD model Hessian and a gradient."""
        rng = np.random.default_rng(seed)
        b = rng.normal(size=(n, n))
        K = b @ b.T + n * np.eye(n)
        hessian = rng.normal(size=(n, n))
        hessian = hessian @ hessian.T + np.eye(n)
        return rng, K, hessian, rng.normal(size=n)

    def test_one_solve_matches_two_solve_recursion(self):
        rng, K, hessian, g = self.problem()
        pairs = adapt.CurvaturePairs()
        ref_pairs = []
        for _ in range(8):
            s = rng.normal(size=len(g))
            y = hessian @ s
            pairs.push(s, y, np.linalg.solve(K, y))
            ref_pairs.append((s, y))
        d = pairs.direction(g, np.linalg.solve(K, g))
        ref = lbfgs_direction_two_solves(
            g, lambda v: np.linalg.solve(K, v), ref_pairs)
        assert np.abs(d - ref).max() <= 1e-12 * np.abs(ref).max()

    def test_compact_form_matches_the_two_loop_recursion(self):
        # histories of 1 to 8 pairs, then older pairs dropped for newer
        # ones, a pair skipped for its curvature, and a cleared history
        rng, K, hessian, g = self.problem()
        kg = np.linalg.solve(K, g)
        pairs = adapt.CurvaturePairs()
        history = []

        def push(s, y):
            pairs.push(s, y, np.linalg.solve(K, y))
            if s @ y > 0.0:
                history.append((s, y, np.linalg.solve(K, y)))
                del history[:-adapt._LBFGS_HISTORY]

        def check():
            assert len(pairs) == len(history)
            d = pairs.direction(g, kg)
            ref = lbfgs_direction_two_loop(g, kg, history)
            assert np.abs(d - ref).max() <= 1e-12 * np.abs(ref).max()

        for _ in range(11):
            s = rng.normal(size=len(g))
            push(s, hessian @ s)
            check()
        assert len(pairs) == 8
        s = rng.normal(size=len(g))
        push(s, -hessian @ s)
        push(s, np.zeros(len(g)))
        assert len(pairs) == 8
        check()
        pairs.clear()
        history.clear()
        assert not pairs
        for _ in range(3):
            s = rng.normal(size=len(g))
            push(s, hessian @ s)
            check()

    def test_one_solve_per_iteration_across_a_history_reset(self, pit_mesh,
                                                            monkeypatch):
        # every direction mmpde_step takes matches the two-solve recursion,
        # also after an ascent direction has cleared the history; the
        # stored K^-1 y would otherwise go stale
        mesh, chains, _ = pit_mesh
        p = AdaptParams()
        metric = monitor_mackenzie(mesh, chains, p)
        applies = []
        kept = []
        real_preconditioner = adapt.StiffnessFactor.preconditioner

        def counted_preconditioner(self, *args):
            apply = real_preconditioner(self, *args)
            kept.append(apply)

            def counted(v):
                applies.append(1)
                return apply(v)
            return counted

        monkeypatch.setattr(adapt.StiffnessFactor, "preconditioner",
                            counted_preconditioner)
        # the third direction is turned uphill, which clears the history
        records = checked_directions(monkeypatch, kept, lambda k: k == 3)
        res = mmpde_step(mesh, metric, p, dt_interval=np.inf,
                         max_substeps=12)
        assert res.substeps == 12
        lengths = [n for n, _ in records]
        # the history restarts from one pair after the reset
        assert lengths[:4] == [1, 2, 3, 1]
        assert len(lengths) >= 8
        assert max(worst for _, worst in records) <= 1e-12
        # one K^-1 solve per iteration and one for the starting gradient
        assert len(applies) == res.substeps + 1

    def test_carried_pairs_never_outlive_their_factor(self, pit_mesh,
                                                      monkeypatch):
        # a second call on the same factor starts from the first call's
        # pairs; a third, whose densities have drifted out of the band,
        # refactorises K and starts without them.  Every direction matches
        # the two-solve recursion under the K current at its call
        mesh, chains, _ = pit_mesh
        p = AdaptParams()
        metric = monitor_mackenzie(mesh, chains, p)
        kept = []
        real_preconditioner = adapt.StiffnessFactor.preconditioner

        def recorded_preconditioner(self, *args):
            kept.append(real_preconditioner(self, *args))
            return kept[-1]

        monkeypatch.setattr(adapt.StiffnessFactor, "preconditioner",
                            recorded_preconditioner)
        records = checked_directions(monkeypatch, kept)
        factor = adapt.StiffnessFactor()
        calls = []
        for scale in (1.0, 1.0, 4.0):
            # the densities scale as m^(1 - gamma): a fourfold monitor
            # halves them
            mmpde_step(mesh, scale * metric, p, dt_interval=0.5,
                       max_substeps=6, factor=factor)
            calls.append(len(records))
        assert factor.factorisations == 2
        assert max(worst for _, worst in records) <= 1e-12
        # the second call's first direction uses the first call's pairs;
        # the third call's first direction is plain -K^-1 g
        assert records[calls[0]][0] > 1
        assert records[calls[1]][0] == 1


class TestSmoothing:
    def test_already_smoothed_converges_first_iteration(self):
        mesh, chains, _ = build_initial_mesh(DomainSpec(), PitSpec(nodes=15),
                                             target_h=2.5, seed=1)
        p = AdaptParams()
        first = smooth_mesh(mesh, chains, p)
        assert first.converged
        again = smooth_mesh(first.mesh, chains, p)
        assert again.converged
        assert len(again.trace) == 1

    def test_45_node_mesh_converges_with_decreasing_tail(self):
        mesh, chains, _ = build_initial_mesh(DomainSpec(), PitSpec(nodes=45),
                                             target_h=0.8, seed=0)
        p = AdaptParams()
        result = smooth_mesh(mesh, chains, p)
        assert result.converged
        assert len(result.trace) <= 40
        assert result.trace[-1] < 1e-2
        tail = result.trace[-min(5, len(result.trace)):]
        assert all(b <= a * (1 + 1e-9) for a, b in zip(tail, tail[1:]))

    def test_records_each_flow_and_warns_at_substep_cap(self, caplog,
                                                        monkeypatch):
        mesh, chains, _ = build_initial_mesh(DomainSpec(), PitSpec(nodes=15),
                                             target_h=2.5, seed=1)
        full = smooth_mesh(mesh, chains, AdaptParams())
        assert len(full.flow_stops) == len(full.flow_iters) == len(full.trace)
        assert set(full.flow_stops) == {"stationary"}
        assert all(n <= adapt._MAX_SUBSTEPS for n in full.flow_iters)
        monkeypatch.setattr(adapt, "_MAX_SUBSTEPS", 3)
        monkeypatch.setattr(adapt, "_SMOOTHING_MAX_ITERS", 2)
        with caplog.at_level("WARNING", logger="pitmesh.adapt"):
            short = smooth_mesh(mesh, chains, AdaptParams())
        assert short.flow_stops == ["substep-cap", "substep-cap"]
        assert short.flow_iters == [3, 3]
        assert "its 3-substep cap" in caplog.text

    def test_one_factor_serves_every_flow(self):
        # without a factor, smoothing makes one and keeps it over its flows,
        # so it smooths exactly as a caller that passes a fresh one
        mesh, chains, _ = build_initial_mesh(DomainSpec(), PitSpec(nodes=31),
                                             target_h=1.3, seed=0)
        p = AdaptParams()
        factor = adapt.StiffnessFactor()
        kept = smooth_mesh(mesh, chains, p, factor=factor)
        # fewer factorisations than flows, one minimiser call each
        assert factor.factorisations < len(kept.trace)
        own = smooth_mesh(mesh, chains, p)
        assert np.array_equal(own.mesh.vertices, kept.mesh.vertices)
        assert own.flow_iters == kept.flow_iters

    def test_one_nearest_segments_serves_every_flow(self, monkeypatch):
        # without a NearestSegments, smoothing makes one and keeps it over
        # its monitors: one full compute in all, and the vertices of a
        # caller that passes a fresh one
        mesh, chains, _ = build_initial_mesh(DomainSpec(), PitSpec(nodes=31),
                                             target_h=1.3, seed=0)
        p = AdaptParams()
        given = smooth_mesh(mesh, chains, p, nearest=NearestSegments())
        made = []

        def counted():
            made.append(NearestSegments())
            return made[-1]

        monkeypatch.setattr(adapt, "NearestSegments", counted)
        own = smooth_mesh(mesh, chains, p)
        assert len(own.trace) > 1
        assert [kept.references for kept in made] == [1]
        assert np.array_equal(own.mesh.vertices, given.mesh.vertices)

    @pytest.mark.parametrize("case", ["criterion9", "mu2-10", "mu2-20"] + [
        f"{name}-{seed}" for name in ("homog", "twopit") for seed in range(3)])
    def test_relative_flows_reach_the_exact_flows_fixed_point(self, case):
        # flows stopped relative to their own start end where flows run to
        # the absolute floor end, in about as many rebuilds and far fewer
        # iterations
        name, _, value = case.partition("-")
        p = AdaptParams()
        if name in ("criterion9", "mu2"):
            # the acceptance suite's smoothing-convergence mesh, also under
            # a monitor that decays faster away from the pit
            domain, pits, target_h, seed = DomainSpec(), PitSpec(nodes=45), \
                0.7, 0
            if name == "mu2":
                p = AdaptParams(mu2=float(value))
        else:
            cfg = io.parse_config(str(BENCH_WORKLOADS / f"{name}.cfg"))
            domain, pits, target_h, seed = cfg.domain, cfg.pits, \
                cfg.target_h, int(value)
        mesh, chains, _ = build_initial_mesh(domain, pits, target_h, seed)
        result = smooth_mesh(mesh, chains, p)
        exact, trace, iters = smooth_mesh_exact_flows(mesh, chains, p)
        assert result.converged
        gap = result.mesh.vertices - exact
        assert np.max(np.hypot(gap[:, 0], gap[:, 1])) <= 1e-6
        assert abs(len(result.trace) - len(trace)) <= 1
        assert sum(result.flow_iters) <= 0.7 * sum(iters)

    @pytest.mark.parametrize("name", ["homog", "twopit"])
    def test_later_flows_stop_at_the_loops_contraction(self, name,
                                                       monkeypatch):
        # against later flows held to the first flow's relative tolerance,
        # the forcing keeps the first flow, cuts the later flows'
        # iterations and ends in about as many rebuilds
        cfg = io.parse_config(str(BENCH_WORKLOADS / f"{name}.cfg"))
        mesh, chains, _ = build_initial_mesh(cfg.domain, cfg.pits,
                                             cfg.target_h, 0)
        forced = smooth_mesh(mesh, chains, cfg.adapt)
        monkeypatch.setattr(adapt, "_FORCING_RTOL", adapt._GRAD_RTOL)
        fixed = smooth_mesh(mesh, chains, cfg.adapt)
        assert forced.flow_iters[0] == fixed.flow_iters[0]
        assert sum(forced.flow_iters[1:]) <= 0.7 * sum(fixed.flow_iters[1:])
        assert abs(len(forced.flow_iters) - len(fixed.flow_iters)) <= 1
        assert set(fixed.flow_rtols) == {adapt._GRAD_RTOL}

    def test_each_flow_records_its_forcing(self):
        # the first flow at _GRAD_RTOL, the second at the cap, each later
        # one at the last contraction of the displacement sum, clamped
        mesh, chains, _ = build_initial_mesh(DomainSpec(), PitSpec(nodes=45),
                                             target_h=0.7, seed=0)
        result = smooth_mesh(mesh, chains, AdaptParams())
        d = result.trace
        assert len(result.flow_rtols) == len(d) >= 4
        assert result.flow_rtols[:2] == [adapt._GRAD_RTOL, 0.05]
        for k in range(2, len(d)):
            assert result.flow_rtols[k] == min(
                0.05, max(adapt._GRAD_RTOL, d[k - 1] / d[k - 2]))
        assert min(result.flow_rtols[2:]) < 0.05

    def test_equidistribution_spread_tightens(self):
        mesh, chains, _ = build_initial_mesh(DomainSpec(), PitSpec(nodes=31),
                                             target_h=1.2, seed=0)
        p = AdaptParams()

        def spread(m):
            metric = monitor_mackenzie(m, chains, p)
            q = m.signed_areas() * element_metrics(m, metric)
            return q.max() / q.min()

        before = spread(mesh)
        result = smooth_mesh(mesh, chains, p)
        assert spread(result.mesh) < before


class TestEquidistribution1D:
    def test_constant_density_uniform(self):
        pts = solve_equidistribution_1d(lambda x: 1.0, 0.0, 1.0, 4)
        assert np.allclose(pts, [0, 0.25, 0.5, 0.75, 1.0], atol=1e-10)

    def test_linear_density_analytic(self):
        pts = solve_equidistribution_1d(lambda x: 2.0 * x + 1e-30, 0.0, 1.0, 4)
        assert np.allclose(pts, np.sqrt(np.arange(5) / 4.0), atol=1e-8)

    def test_affine_density_analytic(self):
        N = 6
        pts = solve_equidistribution_1d(lambda x: 1.0 + x, 0.0, 1.0, N)
        expected = -1.0 + np.sqrt(1.0 + 3.0 * np.arange(N + 1) / N)
        assert np.allclose(pts, expected, atol=1e-8)

    def test_nonpositive_density_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            solve_equidistribution_1d(lambda x: x - 0.5, 0.0, 1.0, 4)

    @settings(max_examples=20, deadline=None)
    @given(st.lists(st.floats(0.1, 3.0), min_size=2, max_size=4),
           st.integers(2, 8))
    def test_equal_subinterval_integrals(self, coeffs, N):
        # random smooth positive density; verify with brute-force quadrature
        from scipy.integrate import quad

        def rho(x):
            return sum(c * (1 + np.sin((k + 1) * x)) ** 2 + 0.05
                       for k, c in enumerate(coeffs))

        pts = solve_equidistribution_1d(rho, 0.0, 2.0, N)
        integrals = [quad(rho, a, b, epsabs=1e-12, epsrel=1e-12)[0]
                     for a, b in zip(pts[:-1], pts[1:])]
        total = quad(rho, 0.0, 2.0, epsabs=1e-12, epsrel=1e-12)[0]
        assert np.allclose(integrals, total / N, rtol=1e-8)


class TestPScaling:
    def test_identity_metric_gives_one(self):
        metric = np.ones(5)
        assert np.allclose(vertex_p_scaling(metric), 1.0)

    def test_scaling_power(self):
        metric = np.full(3, 4.0)
        # m = 4, power d/(d+2) = 1/2 -> 2
        assert np.allclose(vertex_p_scaling(metric), 2.0)
