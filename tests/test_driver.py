import gc
from pathlib import Path

import numpy as np
import pytest

from pitmesh import adapt, cli, driver, fem, front
from pitmesh import mesh as mesh_module
from pitmesh.driver import (SimConfig, SimulationError, TimeSeries, diagnostics,
                            fit_power_law, fit_power_law_arrays, init_mesh, run)
from pitmesh.fem import BandLayout
from pitmesh.front import FrontError
from pitmesh.io import parse_config, read_timeseries, write_summary
from pitmesh.mesh import (NearestSegments, chains_from_tags, validate,
                          vertex_normals, vertex_roles)
from pitmesh.meshgen import DomainSpec, PitSpec, build_initial_mesh

from oracles import grad_energy

BENCH_WORKLOADS = Path(__file__).resolve().parents[1] / "bench" / "workloads"


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


def relaxation_iterations(result):
    """The steps' relaxation iterations of a run."""
    return sum(r.relaxation_iterations for r in result.records)


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

    Returns the run's result; each monitor the run used, the initial
    smoothing's included, beside the monitor without kept nearest
    segments; the run's NearestSegments; and per step the crossing tests
    it made and its chain count.
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
        # no step writes to the state it starts from, so init keeps the
        # smoothed start
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

    def test_summary_reports_each_flows_tolerance(self, short_run, tmp_path):
        path = tmp_path / "summary.txt"
        write_summary(str(path), small_config(), short_run, {})
        lines = path.read_text().splitlines()
        at = next(k for k, ln in enumerate(lines)
                  if ln.startswith("initial smoothing:"))
        rtols = short_run.init.smooth.flow_rtols
        assert len(rtols) == len(short_run.init.smooth.trace)
        assert lines[at + 1] == ("initial smoothing relative tolerance per "
                                 "flow: " + ", ".join(f"{r:.3g}" for r in rtols))
        assert lines[at + 1].split(": ")[1].startswith("0.001, 0.05")

    def test_summary_reports_relaxation_factorisations(self, short_run,
                                                       tmp_path):
        # one minimiser call per smoothing flow and per step, and far fewer
        # factorisations than calls
        calls = len(short_run.init.smooth.trace) + short_run.steps
        factorisations = short_run.factorisations
        assert 1 <= factorisations < calls
        # the result keeps the count, not the factor: results held after
        # their runs would otherwise each pin the factor's band arrays in
        # memory
        gc.collect()
        assert not any(isinstance(obj, adapt.StiffnessFactor)
                       for obj in gc.get_objects())
        path = tmp_path / "summary.txt"
        write_summary(str(path), small_config(), short_run, {})
        lines = [ln for ln in path.read_text().splitlines()
                 if ln.startswith("relaxation:")]
        assert lines == [
            f"relaxation: {factorisations} preconditioner factorisations in "
            f"{calls} minimiser calls; {relaxation_iterations(short_run)} "
            f"iterations and "
            f"{sum(r.predicted for r in short_run.records)} predicted starts "
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
        assert [(r.relaxation_iterations, r.predicted)
                for r in result.records] \
            == [(res.substeps, res.predicted) for _, _, res, _ in steps]
        assert any(r.predicted for r in result.records)

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
        # below _FORCING_RTOL times that at x^n
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
        assert max(ratios) < adapt._FORCING_RTOL

    def test_steps_stop_at_the_forcing_tolerance(self, monkeypatch):
        # the mesh lags the front by a step, so a step solved to
        # _FORCING_RTOL rather than _GRAD_RTOL of its starting gradient
        # takes far fewer iterations and leaves the front where it was
        cfg = parse_config(str(BENCH_WORKLOADS / "twopit.cfg"))
        cfg.vtk_every = 0
        forced = run(cfg)
        real = adapt.mmpde_step

        def tight(mesh, metric, p, dt_interval, **kwargs):
            if np.isfinite(dt_interval):
                kwargs["rtol"] = adapt._GRAD_RTOL
            return real(mesh, metric, p, dt_interval, **kwargs)

        monkeypatch.setattr(adapt, "mmpde_step", tight)
        reference = run(cfg)
        assert relaxation_iterations(forced) \
            <= 0.6 * relaxation_iterations(reference)
        assert forced.steps == reference.steps
        assert len(forced.events) == len(reference.events) == 1
        for name in ("depth", "width"):
            assert abs(getattr(forced.series, name)[-1]
                       - getattr(reference.series, name)[-1]) <= 1e-6

    def test_first_step_does_not_replay_smoothing(self, recorded_run):
        # a smoothing flow records no motion: each flow moves less than the
        # one before, so its motion would overshoot the first step
        cfg = small_config()
        mesh, chains, _ = build_initial_mesh(cfg.domain, cfg.pits,
                                             cfg.target_h, cfg.seed)
        factor = adapt.StiffnessFactor()
        adapt.smooth_mesh(mesh, chains, cfg.adapt, factor=factor)
        assert factor.motion is None
        _, steps = recorded_run
        assert not steps[0][2].predicted

    def test_summary_reports_newton_work(self, monkeypatch, tmp_path,
                                         band_calls):
        # one Jacobian band layout serves the initial solve and every
        # step's solve, beside the relaxation's two, and a kept factor
        # serves many Newton iterations
        iterations = []
        newton_factors = []
        real = fem.newton_solve

        def counted(*args, **kwargs):
            before = band_calls.count("factor")
            res = real(*args, **kwargs)
            iterations.append(res.iterations)
            newton_factors.append(band_calls.count("factor") - before)
            return res

        monkeypatch.setattr(fem, "newton_solve", counted)
        result = run(small_config())
        assert band_calls.count("layout") == 3
        # the initial solve starts without a factor
        assert newton_factors[0] >= 1
        assert sum(newton_factors) < sum(iterations)
        # the relaxation's preconditioner factorises its two blocks
        assert band_calls.count("factor") \
            == sum(newton_factors) + 2 * result.factorisations
        assert [result.init.newton_iterations] \
            + [r.newton_iterations for r in result.records] == iterations
        assert sum(iterations) > 0
        gc.collect()
        assert not any(isinstance(obj, (fem.MeshStructure, BandLayout))
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
            assert (x.steps, x.factorisations) == (y.steps, y.factorisations)

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
        smooths, calls = [], []
        real = adapt.smooth_mesh
        real_preconditioner = adapt.StiffnessFactor.preconditioner

        def counted(*args, **kwargs):
            smooths.append(1)
            return real(*args, **kwargs)

        def counted_preconditioner(*args, **kwargs):
            calls.append(1)
            return real_preconditioner(*args, **kwargs)

        monkeypatch.setattr(adapt, "smooth_mesh", counted)
        monkeypatch.setattr(adapt.StiffnessFactor, "preconditioner",
                            counted_preconditioner)
        result = run(merge_config())
        assert [event.step for event in result.events] == [12]
        assert validate(result.mesh).ok
        # no smoothing follows the merge: the initial smoothing's flows and
        # one relaxation per step are all the minimiser calls
        assert len(smooths) == 1
        assert len(calls) == len(result.init.smooth.trace) + result.steps

    def test_fits_start_at_the_last_merge(self, tmp_path):
        # merge_config run to 11 s: a merge joins two pits' widths into
        # one, so pitmesh run fits the rows from the merge step on
        cfg = tmp_path / "merge.cfg"
        cfg.write_text("target_h = 1.5\npit_nodes = 31\n"
                       "pit_centers = -5.5 5.5\nmerge_gap_tol = 0.6\n"
                       "sigma_c = 10\nt_end = 11\n")
        out = tmp_path / "out"
        assert cli.main(["run", str(cfg), "-o", str(out)]) == 0
        series = read_timeseries(str(out / "timeseries.csv"))
        assert len(series) - 12 >= 10
        after = TimeSeries(series.t[12:], series.depth[12:],
                           series.width[12:])
        lines = (out / "summary.txt").read_text().splitlines()
        assert "merge events: 1" in lines
        assert lines[lines.index("merge events: 1") + 1].startswith(
            "  step 12: pits 0+1 merged")
        for column in ("depth", "width"):
            fit = fit_power_law(after, column)
            head = (f"power-law fit {column}(t) = a t^b + c from step 12 "
                    f"(t = {series.t[12]:g} s, shifted to 1):")
            at = lines.index(head)
            assert f"b = {fit.b:.6g} +- {fit.se_b:.2g}," in lines[at + 1]
            assert fit.b != fit_power_law(series, column).b

    def test_one_level_sweep_a_run(self, level_sweeps):
        # the relaxation's layouts and Newton's share the run's levels,
        # and the merge, a retag, keeps them
        result = run(merge_config())
        assert [event.step for event in result.events] == [12]
        assert len(level_sweeps) == 1

    def test_calls_without_a_run_sweep_for_themselves(self, level_sweeps):
        cfg = merge_config()
        mesh, chains, _ = build_initial_mesh(cfg.domain, cfg.pits,
                                             cfg.target_h, cfg.seed)
        metric = adapt.monitor_mackenzie(mesh, chains, cfg.adapt)
        adapt.mmpde_step(mesh, metric, cfg.adapt, cfg.front.dt)
        assert len(level_sweeps) == 1
        fem.newton_solve(mesh, chains, cfg.material, cfg.electro)
        assert len(level_sweeps) == 2

    def test_kept_nearest_segments_give_the_stateless_monitor(self, merge_run):
        # the initial smoothing's monitors and every step's
        result, monitors, kept, _ = merge_run
        assert [event.step for event in result.events] == [12]
        assert len(monitors) == len(result.init.smooth.trace) + result.steps
        for used, stateless in monitors:
            assert np.array_equal(used, stateless)
        # the first smoothing monitor takes a reference, and so does the
        # step after the merge, which adds a segment; most monitors take none
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


def run_recording_phi(cfg):
    """driver.run of cfg, with the phi and chain vertices of every step."""
    states = []

    def hook(step, t, mesh, chains, phi):
        states.append((phi.copy(),
                       np.concatenate([c.vertices for c in chains])))

    return run(cfg, step_hook=hook), states


@pytest.mark.parametrize("name, t_end", [("homog", 12.5), ("twopit", 36.0)],
                         ids=["homog", "twopit"])
def test_run_lived_solver_state_changes_no_answer(name, t_end):
    # a run keeps the relaxation's factor, motion and pairs, its
    # structure's layouts and factors, and its nearest segments across
    # steps; with every step given a fresh factor, and so a fresh
    # structure, and no nearest segments instead, a run takes far more
    # relaxation iterations but gives the same answer within about ten
    # times the differences measured on these workloads.  The twopit run
    # merges at step 67 of its 72
    cfg = parse_config(str(BENCH_WORKLOADS / f"{name}.cfg"))
    cfg.vtk_every = 0
    cfg.front.t_end = t_end
    kept, kept_states = run_recording_phi(cfg)
    init = init_mesh(cfg)
    # a step never writes to its state, so each state stays as it was
    states = [driver.State(init.mesh, init.chains, init.phi)]
    records = []
    while cfg.front.t_end - states[-1].t > 1e-9 * cfg.front.dt:
        state, record = driver.step(states[-1], cfg, adapt.StiffnessFactor(),
                                    None)
        states.append(state)
        records.append(record)
    assert kept.steps == len(records)
    assert [e.step for e in kept.events] \
        == [r.merge.step for r in records if r.merge is not None] \
        == ([67] if name == "twopit" else [])
    cold = [diagnostics(s.mesh, s.chains) for s in states]
    gap = np.subtract([kept.series.depth, kept.series.width],
                      np.transpose(cold))
    assert np.abs(gap).max() <= 1e-5
    assert len(kept_states) == len(states) == kept.steps + 1
    for (phi, chain), cold_state in zip(kept_states, states):
        ref = cold_state.phi
        assert np.array_equal(chain, np.concatenate(
            [c.vertices for c in cold_state.chains]))
        assert np.abs(phi[chain] - ref[chain]).max() \
            <= 2e-4 * np.abs(ref[chain]).max()
        assert np.abs(phi - ref).max() <= 5e-3 * np.abs(ref).max()
    cold_min_area = min([float(init.mesh.signed_areas().min())]
                        + [r.min_area for r in records])
    assert kept.min_area_seen == pytest.approx(cold_min_area, rel=5e-2)
    assert 2 * relaxation_iterations(kept) \
        <= sum(r.relaxation_iterations for r in records)


def forced_absorption_config(monkeypatch):
    """Every corner move absorbs a surface vertex; step 2 inverts a cell."""
    monkeypatch.setattr(front, "_CORNER_CLOSE_FACTOR", 0.01)
    cfg = small_config(target_h=2.0)
    cfg.pits.nodes = 15
    return cfg


def chain_state(chains):
    return [(c.pit_id, c.vertices.tolist()) for c in chains]


def state_key(state):
    """What a step could write to in a State, by value."""
    return (state.mesh.vertices.tobytes(), state.mesh.edge_tags.tobytes(),
            chain_state(state.chains), state.phi.tobytes())


def step_through(cfg):
    """cfg's run by driver.step, from its smoothed start, until t_end or a
    raise, asserting that no step writes to the state it is given.

    Returns each completed step's (input State, output State, StepRecord)
    and the error that ended the run, if any.
    """
    factor, nearest = adapt.StiffnessFactor(), NearestSegments()
    init = init_mesh(cfg, factor, nearest)
    state = driver.State(init.mesh, init.chains, init.phi)
    steps = []
    while cfg.front.t_end - state.t > 1e-9 * cfg.front.dt:
        before = state_key(state)
        try:
            out, record = driver.step(state, cfg, factor, nearest)
        except Exception as err:
            assert state_key(state) == before
            return steps, err
        assert state_key(state) == before
        steps.append((state, out, record))
        state = out
    return steps, None


class TestStep:
    def test_merge_step_never_writes_to_its_input(self, merge_run):
        steps, err = step_through(merge_config())
        assert err is None
        before, after, record = steps[11]
        assert (len(before.chains), len(after.chains)) == (2, 1)
        assert record.merge.step == after.step == 12
        assert not np.array_equal(before.mesh.edge_tags, after.mesh.edge_tags)
        # the steps are the run's
        result = merge_run[0]
        assert np.array_equal(steps[-1][1].mesh.vertices, result.mesh.vertices)
        assert [r for _, _, r in steps] == result.records

    def test_absorbing_and_failing_steps_never_write_to_their_input(
            self, monkeypatch):
        steps, err = step_through(forced_absorption_config(monkeypatch))
        assert len(steps) == 1
        assert "inverted element at step 2" in str(err)
        # step 1 absorbs surface vertices into the chain and retags them
        before, after, _ = steps[0]
        assert not np.array_equal(before.mesh.edge_tags, after.mesh.edge_tags)
        assert chain_state(before.chains) != chain_state(after.chains)


class TestMergedRidge:
    """The ridge top a merge leaves moves along its normal like every
    interior chain vertex (ridge_run: configs/twopit.cfg at target_h = 1.5
    to t = 60 s)."""

    def test_no_chain_edge_collapses_and_no_step_is_capped(self, ridge_run):
        result, states = ridge_run
        assert [e.step for e in result.events] == [67]
        capped = sum(r.capped for r in result.records)
        assert (result.steps, capped) == (120, 0)
        # each chain's smallest edge against its median, at every step
        ratios = []
        for mesh, chains in states:
            for chain in chains:
                seg = np.linalg.norm(np.diff(chain.positions(mesh), axis=0),
                                     axis=1)
                ratios.append(seg.min() / np.median(seg))
        assert min(ratios) >= 0.1  # measured 0.245

    def test_the_mesh_alone_carries_the_chains(self, ridge_run):
        result, states = ridge_run
        assert len(states) == result.steps + 1
        for mesh, chains in states:
            assert chain_state(chains_from_tags(mesh)) == chain_state(chains)


class TestFailedStep:
    def run_failing(self, cfg):
        """The SimulationError of run(cfg) and the state of every hook call."""
        states = {}

        def hook(step, t, mesh, chains, phi):
            states[step] = (mesh.copy(), chain_state(chains), phi.copy(), t)

        with pytest.raises(SimulationError) as info:
            run(cfg, step_hook=hook)
        return info.value, states

    def assert_carries(self, err, state):
        mesh, chains, phi, t = state
        last = err.result
        assert np.array_equal(last.mesh.vertices, mesh.vertices)
        assert np.array_equal(last.mesh.edge_tags, mesh.edge_tags)
        assert chain_state(last.chains) == chains
        assert np.array_equal(last.phi, phi)
        assert validate(last.mesh).ok
        assert len(last.series) == last.steps + 1
        assert last.series.t[-1] == t

    def test_inverted_step_carries_last_completed_step(self, monkeypatch):
        err, states = self.run_failing(forced_absorption_config(monkeypatch))
        assert str(err).startswith("step 2 ")
        assert "inverted element" in str(err)
        assert err.result.steps == 1 == max(states)
        self.assert_carries(err, states[1])

    def test_front_failure_carries_previous_step(self, monkeypatch):
        # advance_pit pushes chain vertex 1 out 5 micrometers a time until
        # the re-seated corner drags the wall across the chain; the first
        # pushes succeed, so the mesh and chain are left partly advanced
        real = front.advance_pit

        def push(mesh, chain, vn_um, normals, dt):
            for _ in range(12):
                normals = vertex_normals(mesh, chain)
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
        assert err.result.steps == 0
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
        # width of the homogeneous pit, t = 0..12.5 s in 0.5 s steps: so
        # nearly linear that the RSS is flat to rounding near its optimum,
        # which still lies strictly inside the search interval
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

    def test_exponent_beyond_the_interval_is_not_converged(self, caplog):
        t = np.arange(1.0, 21.0)
        with caplog.at_level("WARNING", logger="pitmesh.driver"):
            fit = fit_power_law_arrays(t, 1e-12 * t ** 12 + 5.0)
        assert not fit.converged
        assert fit.b == pytest.approx(driver._FIT_B_RANGE[1])
        assert "before full convergence" in caplog.text

    def test_too_few_rows_rejected(self):
        with pytest.raises(ValueError, match="at least 10"):
            fit_power_law_arrays(np.arange(1.0, 6.0), np.arange(5.0))
