import gc

import numpy as np
import pytest

from pitmesh import adapt, driver, fem, front
from pitmesh import mesh as mesh_module
from pitmesh.driver import (SimConfig, SimulationError, TimeSeries, diagnostics,
                            fit_power_law, fit_power_law_arrays, init_mesh, run)
from pitmesh.front import FrontError
from pitmesh.io import write_summary
from pitmesh.mesh import face_and_vertex_normals, validate, vertex_roles
from pitmesh.meshgen import DomainSpec, PitSpec, build_initial_mesh

from oracles import grad_energy


def small_config(**kwargs):
    cfg = SimConfig()
    cfg.target_h = 1.3
    cfg.pits.nodes = 31
    cfg.front.t_end = 2.0
    for key, value in kwargs.items():
        setattr(cfg, key, value)
    return cfg


@pytest.fixture(scope="module")
def recorded_run():
    """A short run, with each step's relaxation recorded.

    Returns the run's result and, per step, the mesh the relaxation
    started from, its monitor, its result, and the result of a fresh call
    (no kept factor) on the same mesh and monitor.
    """
    steps = []
    real = adapt.mmpde_step

    def recorded(mesh, metric, p, dt_interval, **kwargs):
        res = real(mesh, metric, p, dt_interval, **kwargs)
        if np.isfinite(dt_interval):
            fresh = real(mesh, metric, p, dt_interval)
            steps.append((mesh.copy(), metric, res, fresh))
        return res

    cfg = small_config()
    cfg.front.t_end = 6.0  # enough rows for the power-law fitter
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(adapt, "mmpde_step", recorded)
        result = run(cfg)
    return result, steps


@pytest.fixture(scope="module")
def short_run(recorded_run):
    return recorded_run[0]


def merge_config():
    """Two coarse pits that merge at step 12; the run goes one step past it."""
    cfg = small_config(target_h=1.5)
    cfg.pits.centers = (-5.5, 5.5)
    cfg.front.merge_gap_tol = 0.6
    cfg.electro.sigma_c = 10.0
    cfg.front.t_end = 6.5
    return cfg


@pytest.fixture(scope="module")
def merge_run():
    """The merge run, recorded.

    Returns the run's result; per step, each monitor the run used beside
    the monitor without kept nearest segments; the run's NearestSegments;
    and per step the crossing tests it made and its chain count.
    """
    monitors, kept, crossings, steps = [], [], [0], []
    real_monitor = adapt.monitor_mackenzie
    real_crossings = mesh_module.polyline_crossings

    def monitor(mesh, chains, p, nearest=None):
        m = real_monitor(mesh, chains, p, nearest)
        if nearest is not None:
            kept[:] = [nearest]
            monitors.append((m, real_monitor(mesh, chains, p)))
        return m

    def counted(p):
        crossings[0] += 1
        return real_crossings(p)

    def hook(step, t, mesh, chains, phi):
        steps.append((crossings[0], len(chains)))
        crossings[0] = 0

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(adapt, "monitor_mackenzie", monitor)
        mp.setattr(mesh_module, "polyline_crossings", counted)
        result = run(merge_config(), step_hook=hook)
    return result, monitors, kept[0], steps


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
        smooth = result.smooth
        assert smooth.converged
        assert smooth.trace_max[1] < adapt._SMOOTHING_TOL
        assert len(smooth.trace) <= 3

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
        from test_mesh import chain_mesh
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
        smooth = init.smooth
        assert len(smooth.flow_stops) == len(smooth.flow_iters) == len(smooth.trace)
        assert set(smooth.flow_stops) == {"stationary"}
        # the run moved its own copy; init keeps the smoothed start
        fresh = init_mesh(small_config())
        assert np.array_equal(init.mesh.vertices, fresh.mesh.vertices)
        assert not np.array_equal(init.mesh.vertices, short_run.mesh.vertices)
        # a run never changes the triangulation, so the result holds it once
        assert short_run.mesh.triangles is init.mesh.triangles
        path = tmp_path / "summary.txt"
        write_summary(str(path), small_config(), short_run, {})
        lines = [ln for ln in path.read_text().splitlines()
                 if ln.startswith("initial smoothing:")]
        flows = ", ".join(f"{n} {stop}" for n, stop in
                          zip(smooth.flow_iters, smooth.flow_stops))
        assert lines == [f"initial smoothing: {len(smooth.trace)} iterations, "
                         f"converged={smooth.converged}; mmpde iterations and "
                         f"stop per flow: {flows}"]

    def test_summary_reports_relaxation_factorisations(self, short_run,
                                                       tmp_path):
        # one minimiser call per smoothing flow and per step, and far fewer
        # factorisations than calls
        calls = short_run.minimiser_calls
        factorisations = short_run.factorisations
        assert calls == len(short_run.init.smooth.trace) + short_run.steps
        assert 1 <= factorisations < calls
        # the result keeps the counts, not the factor: results held after
        # their runs would otherwise each pin a sparse LU in memory
        gc.collect()
        assert not any(isinstance(obj, adapt.StiffnessFactor)
                       for obj in gc.get_objects())
        path = tmp_path / "summary.txt"
        write_summary(str(path), small_config(), short_run, {})
        lines = [ln for ln in path.read_text().splitlines()
                 if ln.startswith("relaxation:")]
        assert lines == [
            f"relaxation: {factorisations} preconditioner factorisations in "
            f"{calls} minimiser calls; {short_run.relaxation_iterations} "
            f"iterations and {short_run.predicted_starts} predicted starts "
            f"in {short_run.steps} steps"]

    def test_kept_relaxation_results_outlive_their_step(self, monkeypatch):
        # the front moves chain vertices in the run's mesh after each
        # relaxation; a result a caller keeps must not move with them
        kept = []
        real = adapt.mmpde_step

        def keeping(*args, **kwargs):
            res = real(*args, **kwargs)
            kept.append((res, res.positions.copy()))
            return res

        monkeypatch.setattr(adapt, "mmpde_step", keeping)
        result = run(small_config())
        assert len(kept) > result.steps
        for res, returned in kept:
            assert np.array_equal(res.positions, returned)

    def test_counts_each_steps_relaxation(self, recorded_run):
        result, steps = recorded_run
        assert len(steps) == result.steps
        assert result.relaxation_iterations == \
            sum(res.substeps for _, _, res, _ in steps)
        assert result.predicted_starts == \
            sum(res.predicted for _, _, res, _ in steps) > 0

    def test_later_steps_take_half_the_iterations_of_a_fresh_start(
            self, recorded_run):
        # the front moves about as far each step, so once its motion has
        # settled the kept motion and pairs leave a step at most half the
        # iterations of a fresh call; the first steps follow the front's
        # start-up and are not checked
        _, steps = recorded_run
        later = steps[len(steps) // 2:]
        assert all(res.predicted for _, _, res, _ in later)
        assert all(2 * res.substeps <= fresh.substeps
                   for _, _, res, fresh in later)

    def test_predicted_start_keeps_the_relative_tolerance(self, recorded_run):
        # the stationarity tolerance comes from the gradient at x^n, not at
        # the predicted start: each step ends with its projected gradient
        # below 1e-3 times that at x^n
        _, steps = recorded_run
        p = small_config().adapt
        dt = small_config().front.dt
        ratios = []
        for mesh, metric, res, _ in steps:
            if not res.predicted:
                continue
            roles = vertex_roles(mesh)
            free = np.ones((mesh.n_vertices, 2))
            free[roles.pinned] = 0.0
            free[roles.slide_x, 1] = 0.0
            free[roles.slide_y, 0] = 0.0
            pull = (p.tau / dt / adapt.vertex_p_scaling(metric))[:, None]
            moved = mesh.copy()
            moved.vertices = res.positions
            g_end = (grad_energy(moved, metric, p)
                     + pull * (res.positions - mesh.vertices)) * free
            g_start = grad_energy(mesh, metric, p) * free
            assert res.stopped == "stationary"
            # below 1e-4 the absolute floor _GRAD_TOL sets the tolerance
            if np.abs(g_start).max() > 1e-4:
                ratios.append(np.abs(g_end).max() / np.abs(g_start).max())
        assert len(ratios) >= len(steps) // 2
        assert max(ratios) < 1e-3

    def test_summary_reports_newton_work(self, monkeypatch, tmp_path,
                                         splu_specs):
        # one Jacobian pattern, and so one column ordering, serves the
        # initial solve and every step's solve
        iterations = []
        real = fem.newton_solve

        def counted(*args, **kwargs):
            res = real(*args, **kwargs)
            iterations.append(res.iterations)
            return res

        monkeypatch.setattr(fem, "newton_solve", counted)
        result = run(small_config())
        assert splu_specs == ["MMD_AT_PLUS_A"] + ["NATURAL"] * sum(iterations)
        assert result.newton_solves == len(iterations) == result.steps + 1
        assert result.newton_iterations == sum(iterations) > 0
        gc.collect()
        assert not any(isinstance(obj, fem.JacobianPattern)
                       for obj in gc.get_objects())
        path = tmp_path / "summary.txt"
        write_summary(str(path), small_config(), result, {})
        lines = path.read_text().splitlines()
        at = [k for k, ln in enumerate(lines) if ln.startswith("potential:")]
        assert [lines[k] for k in at] == [
            f"potential: {sum(iterations)} Newton iterations in "
            f"{len(iterations)} solves"]
        assert lines[at[0] - 1].startswith("relaxation:")

    def test_deterministic_replay(self):
        # each run keeps its own preconditioner factor, so neither a repeat
        # nor a run of another config in between changes a result
        a = run(small_config())
        b = run(small_config())
        other = small_config(seed=1, target_h=1.1)
        alone = run(other)
        run(small_config())
        after = run(other)
        for x, y in ((a, b), (alone, after)):
            for col_x, col_y in zip(x.series.arrays(), y.series.arrays()):
                assert np.array_equal(col_x, col_y)
            assert np.array_equal(x.mesh.vertices, y.mesh.vertices)
            assert (x.factorisations, x.minimiser_calls) == \
                (y.factorisations, y.minimiser_calls)

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

    def test_merge_step_is_an_ordinary_step(self, monkeypatch):
        smooths = []
        real = adapt.smooth_mesh

        def counted(*args, **kwargs):
            smooths.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(adapt, "smooth_mesh", counted)
        result = run(merge_config())
        assert [event.step for event in result.events] == [12]
        assert validate(result.mesh).ok
        # no smoothing follows the merge: the initial smoothing's flows and
        # one relaxation per step are all the minimiser calls
        assert len(smooths) == 1
        assert result.minimiser_calls == \
            len(result.init.smooth.trace) + result.steps

    def test_kept_nearest_segments_give_the_stateless_monitor(self, merge_run):
        result, monitors, kept, _ = merge_run
        assert [event.step for event in result.events] == [12]
        assert len(monitors) == result.steps
        for used, stateless in monitors:
            assert np.array_equal(used, stateless)
        # the first step takes a reference, and so does the step after the
        # merge, which adds a segment; most steps take none
        assert 2 <= kept.references < result.steps // 2

    def test_run_without_kept_nearest_segments_is_the_same(self, merge_run,
                                                           monkeypatch):
        monkeypatch.setattr(driver, "NearestSegments", lambda: None)
        stateless = run(merge_config())
        result = merge_run[0]
        for kept_column, column in zip(result.series.arrays(),
                                       stateless.series.arrays()):
            assert np.array_equal(kept_column, column)
        assert np.array_equal(result.mesh.vertices, stateless.mesh.vertices)

    def test_one_crossing_test_per_chain_and_state(self, merge_run):
        # the initial chains, monotone in x, get no test; a step tests
        # each chain it advances, and a merge step also the merged chain
        result, _, _, steps = merge_run
        merge_step = result.events[0].step
        assert steps[0] == (0, 2)
        for step in range(1, len(steps)):
            tests = steps[step][0]
            advanced = steps[step - 1][1]
            assert tests == advanced + (step == merge_step)


def forced_absorption_config(monkeypatch):
    """Every corner move absorbs a surface vertex; step 2 inverts a cell."""
    monkeypatch.setattr(front, "_CORNER_CLOSE_FACTOR", 0.01)
    cfg = small_config(target_h=2.0)
    cfg.pits.nodes = 15
    return cfg


def chain_state(chains):
    return [(c.pit_id, c.vertices.tolist(), c.apex_pos) for c in chains]


class TestFailedStep:
    def run_failing(self, cfg):
        """The SimulationError of run(cfg) and the state of every hook call."""
        states = {}

        def hook(step, t, mesh, chains, phi):
            states[step] = (mesh.copy(), chain_state(chains), phi.copy())

        with pytest.raises(SimulationError) as info:
            run(cfg, step_hook=hook)
        return info.value, states

    def assert_carries(self, err, state):
        mesh, chains, phi = state
        assert np.array_equal(err.mesh.vertices, mesh.vertices)
        assert np.array_equal(err.mesh.edge_tags, mesh.edge_tags)
        assert chain_state(err.chains) == chains
        assert np.array_equal(err.phi, phi)
        assert validate(err.mesh).ok

    def test_inverted_step_carries_last_completed_step(self, monkeypatch):
        err, states = self.run_failing(forced_absorption_config(monkeypatch))
        assert str(err).startswith("step 2 ")
        assert "inverted element" in str(err)
        assert err.step == 1 == max(states)
        self.assert_carries(err, states[1])

    def test_front_failure_carries_previous_step(self, monkeypatch):
        # advance_pit pushes chain vertex 1 out 5 micrometers a time until
        # the re-seated corner drags the wall across the chain; the first
        # pushes succeed, so the mesh and chain are left partly advanced
        real = front.advance_pit

        def push(mesh, chain, vn_um, normals, dt):
            for _ in range(12):
                _, normals = face_and_vertex_normals(mesh, chain)
                vn = np.zeros(chain.n_vertices)
                vn[1] = 5.0 / dt
                real(mesh, chain, vn, normals, dt)

        monkeypatch.setattr(front, "advance_pit", push)
        cfg = small_config(target_h=1.2)   # the mesh of test_front's pit_setup
        cfg.pits.nodes = 41
        err, states = self.run_failing(cfg)
        assert isinstance(err.__cause__, FrontError)
        assert str(err).startswith("step 1 ")
        assert "self-intersect" in str(err)
        assert err.step == 0
        self.assert_carries(err, states[0])

    def test_failed_run_keeps_initial_chains(self, monkeypatch):
        cfg = forced_absorption_config(monkeypatch)
        inits = []

        def capture(*args, **kwargs):
            inits.append(init_mesh(*args, **kwargs))
            return inits[-1]

        monkeypatch.setattr(driver, "init_mesh", capture)
        self.run_failing(cfg)
        _, built, _ = build_initial_mesh(cfg.domain, cfg.pits, cfg.target_h,
                                         cfg.seed)
        assert chain_state(inits[0].chains) == chain_state(built)


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

    def test_converges_at_the_rounding_floor(self, caplog):
        # width of the homogeneous pit, t = 0..12.5 s in 0.5 s steps: the
        # Gauss-Newton step stalls at a relative size near 5e-8, where no
        # step lowers the RSS
        t = np.arange(26) * 0.5 + 1.0
        y = np.array([
            10.0, 10.052510069819498, 10.077554561422136, 10.102597960991037,
            10.127640270589009, 10.15268149277476, 10.17772163009679,
            10.202760685086385, 10.22779866025841, 10.252835558111787,
            10.277871381129168, 10.302906131776991, 10.327939812505953,
            10.352972425750927, 10.378003973931076, 10.40303445944966,
            10.428063884694293, 10.453092252162213, 10.478119563968718,
            10.503145822681194, 10.528171030505206, 10.55319518975951,
            10.578218302741881, 10.603240371734895, 10.628261399007078,
            10.653281386812655])
        with caplog.at_level("WARNING", logger="pitmesh.driver"):
            fit = fit_power_law_arrays(t, y)
        assert fit.converged
        assert "before full convergence" not in caplog.text
        assert round(fit.b, 6) == 0.947967
        assert round(fit.se_b, 4) == 0.0165
        assert round(fit.r_squared, 9) == 0.999508906

    def test_too_few_rows_rejected(self):
        with pytest.raises(ValueError, match="at least 10"):
            fit_power_law_arrays(np.arange(1.0, 6.0), np.arange(5.0))
