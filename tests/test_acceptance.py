"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the verdict lines
as they happen; a copy is always written to acceptance_report.txt.  The
full-length corrosion runs are shared session fixtures, so the whole
suite costs a handful of 120 s simulations.
"""

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from pitmesh.adapt import AdaptParams
from pitmesh.crystal import (Bicrystal, Crystal, orientation_from_axes,
                             vcorr_many)
from pitmesh.driver import (SimConfig, fit_power_law, fit_power_law_arrays,
                            init_mesh, run)
from pitmesh.mesh import validate
from pitmesh.meshgen import DomainSpec, PitSpec, build_initial_mesh

from oracles import (energy, grad_energy, l2_error, make_rect_mesh,
                     solve_dirichlet, solve_equidistribution_1d)

MONITOR_STUDY_PY = (Path(__file__).resolve().parent.parent / "scripts"
                    / "monitor_study.py")


def load_monitor_study():
    """Import scripts/monitor_study.py without writing bytecode next to it."""
    spec = importlib.util.spec_from_file_location("monitor_study",
                                                  MONITOR_STUDY_PY)
    module = importlib.util.module_from_spec(spec)
    saved = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


# criterion 10's statistics, shared with the parameter study script
MONITOR_STUDY = load_monitor_study()

S2 = 1.0 / np.sqrt(2.0)
S3 = 1.0 / np.sqrt(3.0)

_REPORT_LINES = []


def verdict(criterion, ok, detail):
    line = f"ACCEPTANCE {criterion:>2}: {'PASS' if ok else 'FAIL'} - {detail}"
    _REPORT_LINES.append(line)
    print(line)
    assert ok, line


@pytest.fixture(scope="session", autouse=True)
def write_report():
    yield
    with open("acceptance_report.txt", "w", encoding="utf-8") as fh:
        fh.write("\n".join(_REPORT_LINES) + "\n")


def acceptance_config(t_end=120.0):
    """Production-scale configuration for the acceptance runs.

    The transfer coefficient, conductivity, and time step are unreported
    upstream; sigma_c = 10 keeps the potential drop along the pit small,
    which is what the published shape-preservation behavior implies.
    The crystal growth-law runs extend to 190 s so the slow facets reach
    the pit mouth and the width curve turns sublinear.
    """
    cfg = SimConfig()
    cfg.electro.sigma_c = 10.0
    cfg.front.t_end = t_end
    cfg.target_h = 0.7
    cfg.seed = 0
    return cfg


def radial_deviation_hook(record):
    def hook(step, t, mesh, chains, phi):
        p = chains[0].positions(mesh)
        r = np.hypot(p[:, 0], p[:, 1])
        record.append(r.std() / r.mean())
    return hook


@pytest.fixture(scope="session")
def homog_run():
    record = []
    cfg = acceptance_config()
    result = run(cfg, step_hook=radial_deviation_hook(record))
    return result, record


@pytest.fixture(scope="session")
def c001_run():
    cfg = acceptance_config(t_end=190.0)
    cfg.material = Crystal(orientation_from_axes([0, 0, 1], [1, 0, 0]))
    return run(cfg)


@pytest.fixture(scope="session")
def c101_run():
    cfg = acceptance_config()
    cfg.material = Crystal(orientation_from_axes([1, 0, 1], [-1, 0, 1]))
    return run(cfg)


@pytest.fixture(scope="session")
def bicrystal_run():
    cfg = acceptance_config(t_end=190.0)
    cfg.material = Bicrystal(0.0,
                             orientation_from_axes([0, 0, 1], [1, 0, 0]),
                             orientation_from_axes([1, 0, 1], [-1, 0, 1]))
    return run(cfg)


@pytest.fixture(scope="session")
def twopit_run():
    cfg = acceptance_config()
    cfg.pits.centers = (-6.0, 6.0)
    # a small collapse tolerance keeps the merge relocation within the
    # locally refined element size
    cfg.front.merge_gap_tol = 0.35
    counts = []

    def hook(step, t, mesh, chains, phi):
        counts.append((mesh.n_vertices, mesh.n_triangles))

    result = run(cfg, step_hook=hook)
    return result, counts


def wall_directions(mesh, chain):
    """Unit directions of the straight mid-sections of both pit walls."""
    p = chain.positions(mesh)
    k = int(np.argmax(-p[:, 1]))

    def fit_dir(seg):
        c = seg.mean(axis=0)
        return np.linalg.svd(seg - c)[2][0]

    left = p[max(3, int(0.2 * k)):k - max(2, k // 5)]
    right = p[k + max(2, (len(p) - k) // 5):len(p) - max(3, int(0.2 * (len(p) - k)))]
    return fit_dir(left), fit_dir(right)


def wall_angle(mesh, chain):
    dl, dr = wall_directions(mesh, chain)
    return float(np.rad2deg(np.arccos(abs(np.dot(dl, dr)))))


def angle_from_vertical(direction):
    return float(np.rad2deg(np.arccos(abs(direction[1]) / np.hypot(*direction))))


class TestCriterion1:
    def test_crystallographic_potentials(self):
        o001 = orientation_from_axes([0, 0, 1], [1, 0, 0])
        o101 = orientation_from_axes([1, 0, 1], [-1, 0, 1])
        got = (*vcorr_many(Crystal(o001), np.zeros((2, 2)),
                           np.array([[0.0, -1.0], [S2, -S2]])),
               *vcorr_many(Crystal(o101), np.zeros((1, 2)),
                           np.array([[np.sqrt(2.0 / 3.0), -S3]])))
        want = (-0.2297, -0.2455, -0.2525)
        ok = all(abs(g - w) < 5e-5 for g, w in zip(got, want))
        verdict(1, ok, "V_corr(<001>,<011>,<111>) = "
                f"({got[0]:.4f}, {got[1]:.4f}, {got[2]:.4f}) V, "
                "expected (-0.2297, -0.2455, -0.2525) to 4 decimals")


class TestCriterion2:
    def test_orientation_matrices(self):
        o1 = orientation_from_axes([0, 0, 1], [1, 0, 0])
        err1 = np.abs(o1.matrix() - np.eye(3)).max()
        o2 = orientation_from_axes([1, 0, 1], [-1, 0, 1])
        printed = np.array([[-S2, 0, S2], [0, 1, 0], [S2, 0, S2]])
        err2 = np.abs(o2.matrix() - printed).max()
        ok = err1 < 1e-12 and err2 < 1e-12
        verdict(2, ok, f"orientation matrices: identity err {err1:.2e}, "
                f"[101]/[-101] err {err2:.2e} (tol 1e-12)")


class TestCriterion3:
    def test_homogeneous_shape_preserved(self, homog_run):
        result, record = homog_run
        worst = max(record)
        ok = worst < 0.01 and len(record) == result.steps + 1
        verdict(3, ok, f"homogeneous 120 s run: max radial deviation "
                f"{100 * worst:.3f}% over {result.steps} steps (tol 1%)")


class TestCriterion4:
    def test_crystal_wall_angles(self, c001_run, c101_run):
        a001 = wall_angle(c001_run.mesh, c001_run.chains[0])
        a101 = wall_angle(c101_run.mesh, c101_run.chains[0])
        ok = abs(a001 - 90.0) <= 3.0 and abs(a101 - 70.5) <= 3.0
        verdict(4, ok, f"wall angles: [001] {a001:.2f} deg (90 +- 3), "
                f"[101] {a101:.2f} deg (70.5 +- 3)")


class TestCriterion5:
    def test_bicrystal_asymmetry(self, bicrystal_run):
        dl, dr = wall_directions(bicrystal_run.mesh, bicrystal_run.chains[0])
        left = 2.0 * angle_from_vertical(dl)
        right = 2.0 * angle_from_vertical(dr)
        ok = abs(left - 90.0) <= 3.0 and abs(right - 70.5) <= 3.0
        verdict(5, ok, "bicrystal walls (doubled angle from vertical): "
                f"left {left:.2f} deg ([001] slow pair: 90 +- 3), "
                f"right {right:.2f} deg ([101] slow pair: 70.5 +- 3)")


class TestCriterion6:
    def test_power_law_growth(self, homog_run, c001_run, bicrystal_run):
        runs = {"homogeneous": homog_run[0], "[001]": c001_run,
                "bicrystal": bicrystal_run}
        initial = {"depth": 5.0, "width": 10.0}
        problems = []
        summary = []
        for name, result in runs.items():
            for column in ("depth", "width"):
                fit = fit_power_law(result.series, column)
                summary.append(f"{name}/{column}: b={fit.b:.3f} "
                               f"R2={fit.r_squared:.5f}")
                if not fit.r_squared > 0.999:
                    problems.append(f"{name} {column} R2={fit.r_squared:.5f}")
                if not 0.8 < fit.b < 1.0:
                    problems.append(f"{name} {column} b={fit.b:.4f}")
                if abs(fit.a + fit.c - initial[column]) > 0.05 * initial[column]:
                    problems.append(f"{name} {column} a+c={fit.a + fit.c:.3f}")
        # fitter recovery of the published homogeneous-width parameters
        rng = np.random.default_rng(42)
        t = np.arange(1.0, 122.0, 0.5)
        y = 0.142 * t ** 0.980 + 9.83 + rng.normal(0.0, 1e-3, len(t))
        fit = fit_power_law_arrays(t, y)
        for value, target, se, label in ((fit.a, 0.142, fit.se_a, "a"),
                                         (fit.b, 0.980, fit.se_b, "b"),
                                         (fit.c, 9.83, fit.se_c, "c")):
            if abs(value - target) > 3 * se:
                problems.append(f"synthetic {label}: {value:.4f} vs {target}")
        ok = not problems
        verdict(6, ok, "power-law fits (" + "; ".join(summary)
                + f"); synthetic recovery a={fit.a:.3f} b={fit.b:.3f} "
                f"c={fit.c:.2f}" + ("" if ok else "; problems: "
                + ", ".join(problems)))


class TestCriterion7:
    def test_mesh_nonsingularity(self, homog_run, c001_run, c101_run,
                                 bicrystal_run, twopit_run):
        areas = {"homogeneous": homog_run[0].min_area_seen,
                 "[001]": c001_run.min_area_seen,
                 "[101]": c101_run.min_area_seen,
                 "bicrystal": bicrystal_run.min_area_seen,
                 "two-pit": twopit_run[0].min_area_seen}
        ok = all(a > 0.0 for a in areas.values())
        worst = min(areas, key=areas.get)
        verdict(7, ok, "zero inverted elements in all runs; smallest signed "
                f"area {areas[worst]:.4g} um^2 ({worst} run)")


class TestCriterion8:
    def test_merge_topology(self, twopit_run):
        result, counts = twopit_run
        unique_counts = set(counts)
        ok = (len(result.events) == 1 and len(unique_counts) == 1
              and len(result.chains) == 1 and validate(result.mesh).ok)
        verdict(8, ok, f"two-pit run: {len(result.events)} merge event(s); "
                f"vertex/cell counts {sorted(unique_counts)} constant "
                "through the merge")


class TestCriterion9:
    def test_smoothing_convergence(self):
        cfg = acceptance_config()
        cfg.pits.nodes = 45
        result = init_mesh(cfg)
        trace = result.smooth.trace
        tail = trace[-min(5, len(trace)):]
        ok = (result.smooth.converged and len(trace) <= 40 and trace[-1] < 1e-2
              and all(b <= a * (1 + 1e-9) for a, b in zip(tail, tail[1:])))
        verdict(9, ok, f"45-node mesh smoothing: {len(trace)} iterations to "
                f"displacement sum {trace[-1]:.2e} (tol 1e-2, cap 40); "
                f"tail {['%.3g' % v for v in tail]}")


class TestCriterion10:
    def test_monitor_parameter_trends(self):
        mins = []
        for mu1 in (1.0, 10.0, 100.0):
            cfg = acceptance_config()
            cfg.adapt.mu1 = mu1
            result = init_mesh(cfg)
            mins.append(MONITOR_STUDY.near_pit_min_edge(result.mesh,
                                                        result.chains))
        mono1 = all(b <= a * (1 + 1e-9) for a, b in zip(mins, mins[1:]))

        radii, peaks = [], []
        for mu2 in (1.0, 10.0, 20.0):
            cfg = acceptance_config()
            cfg.adapt.mu2 = mu2
            result = init_mesh(cfg)
            initial, _, _ = build_initial_mesh(cfg.domain, cfg.pits,
                                               cfg.target_h, cfg.seed)
            radius, peak = MONITOR_STUDY.half_excess_radius(
                result.mesh, initial, result.chains)
            radii.append(radius)
            peaks.append(peak)
        mono2 = (None not in radii
                 and all(b < a for a, b in zip(radii, radii[1:])))
        ok = mono1 and mono2
        verdict(10, ok, "monitor trends: min near-pit edge "
                f"{['%.3f' % v for v in mins]} um for mu1 in (1,10,100) "
                f"(non-increasing: {mono1}); half-excess radius "
                f"{['none' if v is None else '%.3f' % v for v in radii]} um "
                f"(peak excess {peaks} vertices) for mu2 in (1,10,20) "
                f"(decreasing: {mono2})")


class TestCriterion11:
    def test_numerical_kernels(self):
        errors = []
        for n in (8, 16, 32):
            mesh = make_rect_mesh(n, n)
            exact = lambda x, y: np.sin(np.pi * x) * np.sinh(np.pi * y)
            phi = solve_dirichlet(mesh, exact)
            errors.append(l2_error(mesh, phi, exact))
        rates = [np.log2(errors[k] / errors[k + 1]) for k in range(2)]
        rate_ok = all(abs(r - 2.0) <= 0.1 for r in rates)

        from pitmesh.adapt import monitor_mackenzie
        mesh, chains, _ = build_initial_mesh(DomainSpec(), PitSpec(nodes=15),
                                             target_h=2.5, seed=1)
        p = AdaptParams()
        metric = monitor_mackenzie(mesh, chains, p)
        g = grad_energy(mesh, metric, p)
        rng = np.random.default_rng(0)
        sample = rng.choice(mesh.n_vertices, 40, replace=False)

        def central(v, c, h):
            m2 = mesh.copy()
            m2.vertices[v, c] += h
            ep_ = energy(m2, metric, p)
            m2.vertices[v, c] -= 2 * h
            return (ep_ - energy(m2, metric, p)) / (2 * h)

        # Richardson-extrapolated central difference, O(h^4): at h = 1e-3 um
        # its truncation and rounding errors both sit far below the gate,
        # where a plain central difference at any h measures one of them
        h = 1e-3
        fd_err = 0.0
        for v in sample:
            for c in range(2):
                fd = (4.0 * central(v, c, h / 2) - central(v, c, h)) / 3.0
                fd_err = max(fd_err, abs(fd - g[v, c]) / max(1.0, abs(fd)))
        grad_ok = fd_err < 1e-6

        pts = solve_equidistribution_1d(lambda x: 2.0 * x + 1e-30, 0.0, 1.0, 8)
        eq_err = float(np.abs(pts - np.sqrt(np.arange(9) / 8.0)).max())
        eq_ok = eq_err < 1e-8

        ok = rate_ok and grad_ok and eq_ok
        verdict(11, ok, f"kernels: FEM L2 rates {['%.3f' % r for r in rates]} "
                f"(2.0 +- 0.1); grad-vs-FD rel err {fd_err:.2e} (1e-6); "
                f"1D equidistribution err {eq_err:.2e} (1e-8)")
