import numpy as np
import pytest

from pitmesh.crystal import Crystal, orientation_from_axes
from pitmesh.driver import (SimConfig, TimeSeries, diagnostics, fit_power_law,
                            fit_power_law_arrays, init_mesh, run)
from pitmesh.io import write_summary
from pitmesh.mesh import PitChain, validate
from pitmesh.meshgen import DomainSpec, PitSpec, build_initial_mesh


def small_config(**kwargs):
    cfg = SimConfig()
    cfg.target_h = 1.3
    cfg.pits.nodes = 31
    cfg.front.t_end = 2.0
    for key, value in kwargs.items():
        setattr(cfg, key, value)
    return cfg


@pytest.fixture(scope="module")
def short_run():
    cfg = small_config()
    cfg.front.t_end = 6.0  # enough rows for the power-law fitter
    return run(cfg)


class TestInitMesh:
    def test_chain_on_ellipse_with_requested_count(self):
        cfg = small_config()
        result = init_mesh(cfg)
        chain = result.chains[0]
        assert chain.n_vertices == 31
        p = chain.positions(result.mesh)
        # semicircle of radius 5 (width 10, depth 5)
        r = np.hypot(p[:, 0], p[:, 1])
        assert np.abs(r - 5.0).max() < 1e-9

    def test_mu1_zero_leaves_near_uniform_mesh(self):
        cfg = small_config()
        cfg.adapt.mu1 = 0.0
        result = init_mesh(cfg)
        # adaptation off: after at most two sweeps no vertex moves further
        # than the smoothing tolerance
        assert result.converged
        assert result.trace_max[1] < cfg.adapt.smoothing_tol
        assert len(result.trace) <= 3

    def test_nodes_concentrate_near_pit(self):
        cfg = small_config()
        cfg.target_h = 1.0
        result = init_mesh(cfg)
        mesh, chains = result.mesh, result.chains
        from pitmesh.mesh import min_distance_to_pit
        edges = mesh.unique_edges()
        on_chain = np.zeros(mesh.n_vertices, dtype=bool)
        on_chain[chains[0].vertices] = True
        keep = ~(on_chain[edges[:, 0]] | on_chain[edges[:, 1]])
        edges = edges[keep]
        mid = 0.5 * (mesh.vertices[edges[:, 0]] + mesh.vertices[edges[:, 1]])
        d = min_distance_to_pit(mid, chains, mesh)
        lengths = mesh.edge_lengths(edges)
        assert lengths[d <= 2.0].mean() < lengths.mean()


class TestDiagnostics:
    def test_initial_dimensions(self):
        mesh, chains, _ = build_initial_mesh(DomainSpec(), PitSpec(nodes=21),
                                             target_h=2.0, seed=0)
        depth, width = diagnostics(mesh, chains)
        assert depth == pytest.approx(5.0)
        assert width == pytest.approx(10.0)

    def test_semicircle_geometry(self):
        r = 3.7
        theta = np.pi * (1 - np.linspace(0, 1, 21))
        pts = np.column_stack((r * np.cos(theta), -r * np.sin(theta)))
        pts[0, 1] = pts[-1, 1] = 0.0
        from tests.test_mesh import chain_mesh
        mesh, chain = chain_mesh(pts)
        depth, width = diagnostics(mesh, [chain])
        assert depth == pytest.approx(r)
        assert width == pytest.approx(2 * r)


class TestRun:
    def test_series_strictly_increasing(self, short_run):
        t, depth, width = short_run.series.arrays()
        assert np.all(np.diff(t) > 0)
        assert np.all(np.diff(depth) > 0)
        assert np.all(np.diff(width) > 0)

    def test_counts_constant_and_mesh_valid(self, short_run):
        assert validate(short_run.mesh).ok
        assert short_run.min_area_seen > 0.0

    def test_no_merge_events_single_pit(self, short_run):
        assert short_run.events == []

    def test_summary_reports_initial_smoothing(self, short_run, tmp_path):
        init = short_run.init
        assert len(init.flow_stops) == len(init.flow_iters) == len(init.trace)
        assert set(init.flow_stops) == {"stationary"}
        # the run moved its own copy; init keeps the smoothed start
        fresh = init_mesh(small_config())
        assert np.array_equal(init.mesh.vertices, fresh.mesh.vertices)
        assert not np.array_equal(init.mesh.vertices, short_run.mesh.vertices)
        path = tmp_path / "summary.txt"
        write_summary(str(path), small_config(), short_run, {})
        lines = [ln for ln in path.read_text().splitlines()
                 if ln.startswith("initial smoothing:")]
        flows = ", ".join(f"{n} {stop}" for n, stop in
                          zip(init.flow_iters, init.flow_stops))
        assert lines == [f"initial smoothing: {len(init.trace)} iterations, "
                         f"converged={init.converged}; mmpde iterations and "
                         f"stop per flow: {flows}"]

    def test_deterministic_replay(self):
        a = run(small_config())
        b = run(small_config())
        ta, da, wa = a.series.arrays()
        tb, db, wb = b.series.arrays()
        assert np.array_equal(ta, tb)
        assert np.array_equal(da, db)
        assert np.array_equal(wa, wb)
        assert np.array_equal(a.mesh.vertices, b.mesh.vertices)

    def test_step_hook_called_each_step(self):
        steps = []
        result = run(small_config(),
                     step_hook=lambda s, t, m, c, p: steps.append((s, t)))
        assert steps[0] == (0, 0.0)
        assert len(steps) == result.steps + 1

    def test_cfl_caps_large_dt(self):
        cfg = small_config()
        cfg.front.dt = 50.0
        cfg.front.t_end = 50.0
        result = run(cfg)
        t, _, _ = result.series.arrays()
        # the cap keeps per-step front motion at a fraction of an edge
        assert result.steps > 1
        assert t[1] < 50.0


class TestTimeSeries:
    def test_monotone_time_enforced(self):
        series = TimeSeries()
        series.append(0.0, 5.0, 10.0)
        with pytest.raises(ValueError, match="strictly increasing"):
            series.append(0.0, 5.1, 10.1)


class TestPowerLawFit:
    def test_recovers_published_parameters_within_3se(self):
        rng = np.random.default_rng(42)
        t = np.arange(1.0, 122.0, 0.5)
        a, b, c = 0.142, 0.980, 9.83
        y = a * t ** b + c + rng.normal(0.0, 1e-3, len(t))
        fit = fit_power_law_arrays(t, y)
        assert fit.converged
        assert abs(fit.a - a) < 3 * fit.se_a
        assert abs(fit.b - b) < 3 * fit.se_b
        assert abs(fit.c - c) < 3 * fit.se_c
        rms = np.sqrt(fit.rss / len(t))
        assert rms < 2e-3  # under twice the injected noise

    def test_constant_series_degenerates_cleanly(self):
        t = np.arange(1.0, 31.0)
        fit = fit_power_law_arrays(t, np.full(30, 7.25))
        assert fit.a == pytest.approx(0.0)
        assert fit.b == 1.0
        assert fit.c == pytest.approx(7.25)

    def test_time_shift_convention(self):
        series = TimeSeries()
        for k in range(20):
            t = 0.5 * k
            series.append(t, 5.0 + 0.1 * (t + 1.0) ** 0.9, 10.0 + 0.05 * t) \
                if k else series.append(0.0, 5.1, 10.0)
        # build directly instead: depth = 0.1 (t+1)^0.9 + 5 sampled at t=0..
        series = TimeSeries()
        for k in range(25):
            t = 0.5 * k
            series.append(t, 0.1 * (t + 1.0) ** 0.9 + 5.0, 10.0 + 0.01 * t) \
                if k > 0 else series.append(0.0, 5.1, 10.0)
        # first row then follows the same law at t=0 -> 5.1 exactly
        fit = fit_power_law(series, "depth")
        assert fit.a == pytest.approx(0.1, abs=1e-6)
        assert fit.b == pytest.approx(0.9, abs=1e-6)
        assert fit.c == pytest.approx(5.0, abs=1e-6)

    def test_depth_fit_anchors_initial_dimension(self, short_run):
        # a + c evaluated at fit-time 1 approximates the initial depth
        fit = fit_power_law(short_run.series, "depth")
        assert fit.a + fit.c == pytest.approx(5.0, rel=0.05)

    def test_too_few_rows_rejected(self):
        with pytest.raises(ValueError, match="at least 10"):
            fit_power_law_arrays(np.arange(1.0, 6.0), np.arange(5.0))
