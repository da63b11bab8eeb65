import glob
import os
import re
import subprocess
import sys

import numpy as np
import pytest

from pitmesh import driver, fem, front
from pitmesh import io as pio
from pitmesh.crystal import Bicrystal, Crystal, Homogeneous
from pitmesh.driver import SimulationError, TimeSeries
from pitmesh.front import FrontParams, detect_merge, merge_pits
from pitmesh.io import ConfigError, parse_config
from pitmesh.mesh import MeshError, chains_from_tags
from pitmesh.meshgen import DomainSpec, PitSpec, build_initial_mesh

from oracles import make_rect_mesh, read_vtk_points_and_phi

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SHIPPED_CONFIGS = sorted(glob.glob(os.path.join(REPO, "configs", "*.cfg"))
                         + glob.glob(os.path.join(REPO, "bench", "workloads",
                                                  "*.cfg")))


@pytest.fixture
def pit_mesh():
    mesh, chains, _ = build_initial_mesh(DomainSpec(), PitSpec(nodes=15),
                                         target_h=2.5, seed=1)
    return mesh, chains


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestConfig:
    def test_empty_file_gives_defaults(self, tmp_path):
        cfg = parse_config(write(tmp_path, "empty.cfg", ""))
        assert isinstance(cfg.material, Homogeneous)
        assert cfg.material.v_corr == -0.24
        assert cfg.adapt.mu1 == 100.0
        assert cfg.adapt.mu2 == 1.0
        assert cfg.adapt.tau == 1e-5
        assert cfg.electro.V_app == -0.14
        assert cfg.front.dt == 0.5
        assert cfg.pits.nodes == 61

    # the keys after bogus_key named solver settings, constants of nature
    # and the adaptation energy's exponents that are now module constants
    # in adapt, fem, front, driver, meshgen and electrochem
    @pytest.mark.parametrize("key", [
        "bogus_key", "mmpde_max_substeps", "mmpde_smoothing_substeps",
        "mmpde_disp_frac", "mmpde_grad_tol", "newton_abs_tol",
        "newton_rel_tol", "newton_max_iters", "boundary_quad_points",
        "smoothing_tol", "smoothing_max_iters", "corner_close_factor",
        "cfl_frac", "gap_single_edge", "F", "R", "theta", "gamma"])
    def test_unknown_key_rejected_with_line(self, tmp_path, key):
        path = write(tmp_path, "bad.cfg", f"mu1 = 10\n{key} = 3\n")
        with pytest.raises(ConfigError, match=rf"bad.cfg:2.*{key}"):
            parse_config(path)

    def test_type_mismatch_names_key(self, tmp_path):
        path = write(tmp_path, "bad.cfg", "mu1 = fast\n")
        with pytest.raises(ConfigError, match="mu1"):
            parse_config(path)

    @pytest.mark.parametrize("line, key", [("mu1 = -1", "mu1"),
                                           ("seed = -1", "seed")],
                             ids=["mu1", "seed"])
    def test_invariant_violation_rejected(self, tmp_path, line, key):
        path = write(tmp_path, "bad.cfg", line + "\n")
        with pytest.raises(ConfigError, match=rf"bad\.cfg: {key}"):
            parse_config(path)

    def test_crystal_material(self, tmp_path):
        path = write(tmp_path, "c.cfg", "\n".join([
            'material = crystal', 'zone_axis = "1 0 1"', 'x_dir = "-1 0 1"',
            'pit_centers = "-6 6"', "mu2 = 10", "alpha = 0.3",
            "vcorr_k = -0.21", "vcorr_s = 0.06"]) + "\n")
        cfg = parse_config(path)
        assert cfg.pits.centers == (-6.0, 6.0)
        assert cfg.adapt.mu2 == 10.0
        assert cfg.electro.alpha == 0.3
        assert isinstance(cfg.material, Crystal)
        assert (cfg.material.k_const, cfg.material.s_const) == (-0.21, 0.06)
        s = 1 / np.sqrt(2)
        expected = np.array([[-s, 0, s], [0, 1, 0], [s, 0, s]])
        assert np.abs(cfg.material.orientation.matrix() - expected).max() < 1e-12

    def test_bicrystal_material(self, tmp_path):
        path = write(tmp_path, "b.cfg", "\n".join([
            "material = bicrystal",
            'zone_axis_left = "0 0 1"', 'x_dir_left = "1 0 0"',
            'zone_axis_right = "1 0 1"', 'x_dir_right = "-1 0 1"',
            "x_interface = 0.5", "vcorr_k = -0.22", "vcorr_s = 0"]) + "\n")
        cfg = parse_config(path)
        assert isinstance(cfg.material, Bicrystal)
        assert cfg.material.x_interface == 0.5
        assert (cfg.material.k_const, cfg.material.s_const) == (-0.22, 0.0)

    @pytest.mark.parametrize("kind", ["crystal", "bicrystal"])
    def test_negative_vcorr_s_rejected(self, tmp_path, kind):
        path = write(tmp_path, "s.cfg", f"material = {kind}\nvcorr_s = -0.1\n")
        with pytest.raises(ConfigError, match="s.cfg: bad material "
                           "description: s_const must be >= 0, got -0.1"):
            parse_config(path)

    @pytest.mark.parametrize("text, line, key", [
        ('material = homogeneous\nzone_axis = "0 0 1"\n', 2, "zone_axis"),
        ("material = crystal\nvcorr_homogeneous = -0.3\n", 2,
         "vcorr_homogeneous"),
        ("vcorr_homogeneous = -0.3\nx_interface = 1.0\n", 2, "x_interface"),
        ('x_dir_left = "1 0 0"\nmaterial = crystal\n', 1, "x_dir_left"),
        ("vcorr_k = 5\n", 1, "vcorr_k"),
        ("material = homogeneous\nvcorr_s = -3\n", 2, "vcorr_s")])
    def test_key_of_another_material_rejected(self, tmp_path, text, line, key):
        path = write(tmp_path, "m.cfg", text)
        kind = re.search(r"material = (\w+)|$", text).group(1) or "homogeneous"
        with pytest.raises(ConfigError, match=rf"m.cfg:{line}: key '{key}' "
                           rf"does not apply to material '{kind}'"):
            parse_config(path)

    @pytest.mark.parametrize("axes", ['"0.4 0 1"', '"0 0 1.5"', '"nan 0 1"'])
    def test_fractional_miller_index_rejected(self, tmp_path, axes):
        path = write(tmp_path, "f.cfg",
                     f"material = crystal\nzone_axis = {axes}\n")
        with pytest.raises(ConfigError,
                           match=r"f.cfg:2: bad value for 'zone_axis'.*"
                                 r"not an integer"):
            parse_config(path)

    @pytest.mark.parametrize("text, line, key", [
        ("t_end = nan\n", 1, "t_end"),
        ("mu1 = 10\ntau = nan\n", 2, "tau"),
        ("sigma_c = inf\n", 1, "sigma_c"),
        ("merge_gap_tol = -inf\n", 1, "merge_gap_tol"),
        ('pit_centers = "-6 nan"\n', 1, "pit_centers"),
        ("vcorr_homogeneous = nan\n", 1, "vcorr_homogeneous"),
        ("material = bicrystal\nx_interface = inf\n", 2, "x_interface")])
    def test_non_finite_number_rejected_with_line(self, tmp_path, text, line,
                                                  key):
        path = write(tmp_path, "n.cfg", text)
        with pytest.raises(ConfigError,
                           match=rf"n.cfg:{line}: bad .*{key}.*not finite"):
            parse_config(path)

    def test_integral_miller_index_written_as_float_accepted(self, tmp_path):
        path = write(tmp_path, "i.cfg", 'material = crystal\n'
                     'zone_axis = "1.0 0 1"\nx_dir = "-1 0 1.0"\n')
        o = parse_config(path).material.orientation
        assert np.allclose(o.k, [1 / np.sqrt(2), 0, 1 / np.sqrt(2)])

    @pytest.mark.parametrize(
        "path", SHIPPED_CONFIGS,
        ids=[os.path.relpath(p, REPO) for p in SHIPPED_CONFIGS])
    def test_shipped_config_parses(self, path):
        parse_config(path)

    def test_shipped_configs_found(self):
        names = {os.path.relpath(p, REPO) for p in SHIPPED_CONFIGS}
        assert {"configs/homogeneous.cfg", "bench/workloads/homog.cfg",
                "bench/workloads/twopit.cfg"} <= names

    def test_duplicate_key_rejected(self, tmp_path):
        path = write(tmp_path, "dup.cfg", "mu1 = 1\nmu1 = 2\n")
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config(path)


class TestMeshExchange:
    def test_roundtrip_bit_exact(self, tmp_path, pit_mesh):
        mesh, _ = pit_mesh
        path = str(tmp_path / "mesh.txt")
        pio.write_mesh(mesh, path)
        back = pio.read_mesh(path)
        assert np.array_equal(back.vertices, mesh.vertices)
        assert np.array_equal(back.triangles, mesh.triangles)
        assert np.array_equal(back.edge_nodes, mesh.edge_nodes)
        assert np.array_equal(back.edge_tags, mesh.edge_tags)

    def test_format_layout(self, tmp_path):
        mesh = make_rect_mesh(1, 1)
        path = str(tmp_path / "m.txt")
        pio.write_mesh(mesh, path)
        lines = open(path).read().splitlines()
        assert lines[0] == "$Nodes"
        assert lines[1] == "4"
        assert lines[6] == "$Elements"
        assert lines[7] == "2"

    def test_chains_recoverable(self, tmp_path, pit_mesh):
        mesh, chains = pit_mesh
        path = str(tmp_path / "mesh.txt")
        pio.write_mesh(mesh, path)
        back = pio.read_mesh(path)
        from pitmesh.mesh import chains_from_tags
        rebuilt = chains_from_tags(back)
        assert np.array_equal(rebuilt[0].vertices, chains[0].vertices)

    def roundtrip_chains(self, tmp_path, mesh):
        path = str(tmp_path / "mesh.txt")
        pio.write_mesh(mesh, path)
        return chains_from_tags(pio.read_mesh(path))

    def test_two_pit_chains_rebuilt(self, tmp_path):
        mesh, chains, _ = build_initial_mesh(
            DomainSpec(), PitSpec(centers=(-6.0, 6.0), nodes=21),
            target_h=2.0, seed=0)
        rebuilt = self.roundtrip_chains(tmp_path, mesh)
        assert [c.pit_id for c in rebuilt] == [c.pit_id for c in chains] \
            == [0, 1]
        for orig, new in zip(chains, rebuilt):
            assert np.array_equal(new.vertices, orig.vertices)

    def test_merged_chain_rebuilt_in_merge_order(self, tmp_path):
        mesh, chains, _ = build_initial_mesh(
            DomainSpec(), PitSpec(centers=(-5.2, 5.2), nodes=31),
            target_h=1.2, seed=0)
        cand = detect_merge(mesh, chains, FrontParams(merge_gap_tol=0.5))
        merged, _ = merge_pits(mesh, chains, cand)
        rebuilt = self.roundtrip_chains(tmp_path, mesh)
        assert len(rebuilt) == len(merged) == 1
        assert rebuilt[0].pit_id == merged[0].pit_id == 0
        assert np.array_equal(rebuilt[0].vertices, merged[0].vertices)

    def test_rows_have_fixed_width(self, tmp_path, pit_mesh):
        mesh, _ = pit_mesh
        path = str(tmp_path / "mesh.txt")
        pio.write_mesh(mesh, path)
        rows = {}
        for line in open(path).read().splitlines():
            if line.startswith("$"):
                marker, count = line, None
            elif count is None:
                count = int(line)
            else:
                rows.setdefault(marker, set()).add(len(line.split()))
        assert rows == {"$Nodes": {3}, "$Elements": {4},
                        "$BoundaryEdges": {3}}

    def test_pit_id_column_rejected(self, tmp_path, pit_mesh):
        # the earlier format appended the pit id to every Pit edge row
        mesh, _ = pit_mesh
        mesh_file = tmp_path / "mesh.txt"
        pio.write_mesh(mesh, str(mesh_file))
        lines = mesh_file.read_text().splitlines()
        start = lines.index("$BoundaryEdges") + 2
        lines[start:] = [row + " 0" if row.split()[2] == "4" else row
                         for row in lines[start:]]
        mesh_file.write_text("\n".join(lines) + "\n")
        with pytest.raises(MeshError, match="tokens after the last table"):
            pio.read_mesh(str(mesh_file))


class TestVtk:
    def test_single_triangle_layout(self, tmp_path):
        mesh = make_rect_mesh(1, 1)
        mesh.triangles = mesh.triangles[:1]
        path = str(tmp_path / "one.vtk")
        pio.write_vtk(mesh, np.zeros(4), path)
        text = open(path).read()
        assert "DATASET UNSTRUCTURED_GRID" in text
        assert "POINTS 4 double" in text
        assert "CELLS 1 4" in text
        lines = text.splitlines()
        cell_line = lines[lines.index("CELLS 1 4") + 1]
        assert cell_line.startswith("3 ")
        assert lines[lines.index("CELL_TYPES 1") + 1] == "5"

    def test_coordinates_roundtrip_bit_equal(self, tmp_path, pit_mesh):
        mesh, _ = pit_mesh
        rng = np.random.default_rng(0)
        phi = rng.uniform(-1e-3, 1e-3, mesh.n_vertices)
        path = str(tmp_path / "snap.vtk")
        pio.write_vtk(mesh, phi, path)
        pts, phi_back = read_vtk_points_and_phi(path)
        assert np.array_equal(pts, mesh.vertices)
        assert np.array_equal(phi_back, phi)

    def test_phi_record_length(self, tmp_path, pit_mesh):
        mesh, _ = pit_mesh
        path = str(tmp_path / "snap.vtk")
        pio.write_vtk(mesh, np.zeros(mesh.n_vertices), path)
        _, phi_back = read_vtk_points_and_phi(path)
        assert len(phi_back) == mesh.n_vertices


class TestTimeSeriesCsv:
    def make_series(self):
        series = TimeSeries()
        series.append(0.0, 5.0, 10.0)
        series.append(0.5, 5.01, 10.02)
        series.append(1.0, 5.03, 10.05)
        return series

    def test_header_and_initial_row(self, tmp_path):
        path = str(tmp_path / "ts.csv")
        pio.write_timeseries(self.make_series(), path)
        lines = open(path).read().splitlines()
        assert lines[0] == "t,depth_um,width_um"
        assert lines[1] == "0,5,10"
        assert len(lines) == 4

    def test_roundtrip_monotone(self, tmp_path):
        path = str(tmp_path / "ts.csv")
        pio.write_timeseries(self.make_series(), path)
        back = pio.read_timeseries(path)
        t, d, w = back.arrays()
        assert np.all(np.diff(t) > 0)
        assert np.all(np.diff(d) >= 0)
        assert np.all(np.diff(w) >= 0)

    @pytest.mark.parametrize("row, message", [
        ("1.5,inf,10.1", "inf is not finite"),
        ("nan,5.1,10.1", "nan is not finite"),
        ("1.5,5.1,five", "could not convert"),
        ("1.5,5.1", "expected 3 fields, found 2"),
        ("1.5,5.1,10.1,0", "expected 3 fields, found 4"),
        ("", "expected 3 fields, found 1"),
        ("0.5,5.1,10.1", "strictly increasing"),
    ])
    def test_bad_row_rejected_with_line(self, tmp_path, row, message):
        path = str(tmp_path / "ts.csv")
        pio.write_timeseries(self.make_series(), path)
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(row + "\n")
        # header, three rows, then the bad one
        with pytest.raises(ValueError,
                           match=rf"^{re.escape(path)}:5: .*{message}"):
            pio.read_timeseries(path)

    def test_empty_series_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="empty"):
            pio.write_timeseries(TimeSeries(), str(tmp_path / "x.csv"))


class TestGoldenText:
    """Exact bytes of every writer on a two-cell mesh."""

    @pytest.fixture
    def mesh(self):
        mesh = make_rect_mesh(1, 1)
        mesh.vertices[1] = (0.1, 1.0)
        mesh.vertices[3] = (1.0, 1 / 3)
        return mesh

    def test_write_mesh(self, tmp_path, mesh):
        path = tmp_path / "mesh.txt"
        pio.write_mesh(mesh, str(path))
        assert path.read_text() == (
            "$Nodes\n4\n"
            "0 0 0\n"
            "1 0.10000000000000001 1\n"
            "2 1 0\n"
            "3 1 0.33333333333333331\n"
            "$Elements\n2\n"
            "0 0 2 3\n"
            "1 0 3 1\n"
            "$BoundaryEdges\n4\n"
            "0 2 3\n"
            "1 3 0\n"
            "0 1 1\n"
            "2 3 2\n")

    def test_write_vtk(self, tmp_path, mesh):
        path = tmp_path / "snap.vtk"
        pio.write_vtk(mesh, np.array([0.0, -2.5e-3, 1 / 7, 4.0]), str(path))
        assert path.read_text() == (
            "# vtk DataFile Version 2.0\n"
            "pitmesh snapshot\n"
            "ASCII\n"
            "DATASET UNSTRUCTURED_GRID\n"
            "POINTS 4 double\n"
            "0 0 0\n"
            "0.10000000000000001 1 0\n"
            "1 0 0\n"
            "1 0.33333333333333331 0\n"
            "CELLS 2 8\n"
            "3 0 2 3\n"
            "3 0 3 1\n"
            "CELL_TYPES 2\n"
            "5\n5\n"
            "POINT_DATA 4\n"
            "SCALARS phi double 1\n"
            "LOOKUP_TABLE default\n"
            "0\n"
            "-0.0025000000000000001\n"
            "0.14285714285714285\n"
            "4\n")

    def test_write_vtk_without_phi_ends_at_cell_types(self, tmp_path, mesh):
        path = tmp_path / "snap.vtk"
        pio.write_vtk(mesh, None, str(path))
        assert path.read_text().endswith("CELL_TYPES 2\n5\n5\n")

    def test_write_timeseries(self, tmp_path):
        series = TimeSeries()
        series.append(0.0, 5.0, 10.0)
        series.append(0.5, 5.0 + 1 / 3, 10.1)
        path = tmp_path / "ts.csv"
        pio.write_timeseries(series, str(path))
        assert path.read_text() == ("t,depth_um,width_um\n"
                                    "0,5,10\n"
                                    "0.5,5.333333333333333,10.1\n")


class TestArtifacts:
    def test_prepare_creates_and_probes(self, tmp_path):
        out = tmp_path / "out"
        pio.prepare_output(str(out))
        assert os.listdir(out) == []

    def test_unwritable_dir_raises(self):
        with pytest.raises(OSError):
            pio.prepare_output("/proc/definitely/not/writable")


class TestCli:
    def run_cli(self, *args):
        from pitmesh.cli import main
        return main(list(args))

    def test_fit_command(self, tmp_path, capsys):
        rng = np.random.default_rng(1)
        t = np.arange(0.0, 40.0, 0.5)
        series = TimeSeries()
        for tv in t:
            series.append(tv, 0.1 * (tv + 1) ** 0.9 + 5.0,
                          0.2 * (tv + 1) ** 0.95 + 10.0) if tv > 0 \
                else series.append(0.0, 5.1, 10.2)
        path = str(tmp_path / "ts.csv")
        pio.write_timeseries(series, path)
        assert self.run_cli("fit", path, "--column", "depth") == 0
        out = capsys.readouterr().out
        assert "b = 0.9" in out

    def test_fit_beyond_the_search_interval_exits_0(self, tmp_path, capsys):
        series = TimeSeries()
        for k in range(20):
            series.append(float(k), 5.0 + 1e-12 * (k + 1.0) ** 12, 10.0)
        path = str(tmp_path / "ts.csv")
        pio.write_timeseries(series, path)
        assert self.run_cli("fit", path, "--column", "depth") == 0
        assert "converged = False" in capsys.readouterr().out

    def test_config_error_exit_code_1(self, tmp_path, capsys):
        path = write(tmp_path, "bad.cfg", "nonsense = 1\n")
        assert self.run_cli("init-mesh", path, "-o",
                            str(tmp_path / "m.txt")) == 1

    def test_key_of_another_material_exit_code_1(self, tmp_path, capsys):
        path = write(tmp_path, "bad.cfg", "vcorr_k = 5\n")
        assert self.run_cli("run", path, "-o", str(tmp_path / "out")) == 1
        assert capsys.readouterr().err == (f"error: {path}:1: key 'vcorr_k' "
                                           "does not apply to material "
                                           "'homogeneous'\n")

    def test_missing_file_exit_code_1(self, tmp_path):
        assert self.run_cli("fit", str(tmp_path / "nope.csv")) == 1

    def test_non_finite_series_exit_code_1(self, tmp_path, capsys):
        rows = [f"{k},{5.0 + 0.1 * k},{10.0 + 0.2 * k}" for k in range(12)]
        rows[5] = "5,inf,11"
        path = write(tmp_path, "ts.csv",
                     "t,depth_um,width_um\n" + "\n".join(rows) + "\n")
        assert self.run_cli("fit", path) == 1
        assert capsys.readouterr().err == f"error: {path}:7: inf is not finite\n"

    @pytest.mark.parametrize("command", ["init-mesh", "run"])
    @pytest.mark.parametrize("layout, message", [
        ("pit_centers = -3 3", "pits overlap: corners 2 and -2"),
        ("domain_xmin = -5\ndomain_xmax = 5",
         "pit extends to or beyond the domain sides"),
    ])
    def test_impossible_pit_layout_exit_code_1(self, tmp_path, capsys,
                                               command, layout, message):
        cfg = write(tmp_path, "bad.cfg", layout + "\n")
        assert self.run_cli(command, cfg, "-o", str(tmp_path / "out")) == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_failed_run_exit_code_2_with_last_good_snapshot(self, tmp_path,
                                                            capsys,
                                                            monkeypatch):
        # every corner move absorbs a surface vertex; step 2 inverts a cell
        monkeypatch.setattr(front, "_CORNER_CLOSE_FACTOR", 0.01)
        cfg = write(tmp_path, "forced.cfg", "\n".join([
            "target_h = 2.0", "pit_nodes = 15", "t_end = 2.0"]) + "\n")
        step_one, rows = [], []

        def hook(step, t, mesh, chains, phi):
            rows.append((t, *driver.diagnostics(mesh, chains)))
            if step == 1:
                step_one.append(mesh.vertices.copy())

        with pytest.raises(SimulationError):
            driver.run(parse_config(cfg), step_hook=hook)
        out_dir = tmp_path / "out"
        assert self.run_cli("run", cfg, "-o", str(out_dir)) == 2
        printed = capsys.readouterr()
        assert printed.err.splitlines()[-1].startswith(
            "runtime failure: step 2 ")
        # a finished run's four files, of step 1
        assert sorted(os.listdir(out_dir)) == ["final.vtk", "mesh_final.txt",
                                               "summary.txt", "timeseries.csv"]
        points, _ = read_vtk_points_and_phi(str(out_dir / "final.vtk"))
        assert np.array_equal(points, step_one[0])
        mesh = pio.read_mesh(str(out_dir / "mesh_final.txt"))
        assert np.array_equal(mesh.vertices, step_one[0])
        series = pio.read_timeseries(str(out_dir / "timeseries.csv"))
        assert len(rows) == 2
        assert list(zip(series.t, series.depth, series.width)) == rows
        assert printed.out == (out_dir / "summary.txt").read_text()
        summary = printed.out.splitlines()
        at = summary.index("steps completed: 1")
        assert summary[at - 1].startswith("run aborted: step 2 ")

    @pytest.mark.parametrize("command", ["init-mesh", "run"])
    def test_newton_failure_in_setup_exit_code_2(self, tmp_path, capsys,
                                                 monkeypatch, command):
        # the initial potential solve fails before the run's first step
        monkeypatch.setattr(fem, "_MAX_ITERS", 0)
        cfg = write(tmp_path, "small.cfg", "target_h = 2.5\npit_nodes = 15\n")
        assert self.run_cli(command, cfg, "-o", str(tmp_path / "out")) == 2
        err = capsys.readouterr().err
        assert err.startswith("runtime failure: Newton did not converge ")
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("damage", ["truncate", "vertex_index",
                                        "node_number", "unknown_tag",
                                        "nan_coordinate", "untagged_boundary",
                                        "duplicate_edge",
                                        "tagged_interior_edge",
                                        "fractional_index",
                                        "word_coordinate"])
    def test_malformed_mesh_exit_code_2(self, tmp_path, capsys, pit_mesh,
                                        damage):
        mesh, _ = pit_mesh
        mesh_file = tmp_path / "mesh.txt"
        mesh_path = str(mesh_file)
        pio.write_mesh(mesh, mesh_path)
        lines = mesh_file.read_text().splitlines()
        if damage == "truncate":
            lines = lines[:len(lines) // 2]
        elif damage == "vertex_index":
            first_cell = lines.index("$Elements") + 2
            lines[first_cell] = f"0 0 1 {mesh.n_vertices}"
        elif damage == "fractional_index":
            first_cell = lines.index("$Elements") + 2
            lines[first_cell] = "0 0 1 2.5"
        elif damage == "nan_coordinate":
            lines[2] = "0 nan " + lines[2].split()[2]
        elif damage == "word_coordinate":
            lines[2] = "0 abc " + lines[2].split()[2]
        elif damage == "unknown_tag":
            # every top edge tagged 9, which is no BoundaryTag
            start = lines.index("$BoundaryEdges") + 2
            lines[start:] = [row[:-1] + "9" if row.endswith(" 0") else row
                             for row in lines[start:]]
        elif damage in ("untagged_boundary", "duplicate_edge",
                        "tagged_interior_edge"):
            # the tables stay well formed; only the edge tags are wrong
            count = lines.index("$BoundaryEdges") + 1
            if damage == "untagged_boundary":
                del lines[count + 1]
            elif damage == "duplicate_edge":
                lines.append(lines[count + 1])
            else:
                uniq, cells = mesh.edge_counts()
                a, b = uniq[cells == 2][0]
                lines.append(f"{a} {b} 0")
            lines[count] = str(len(lines) - count - 1)
        else:
            lines[2] = "-1 " + lines[2].split(" ", 1)[1]
        mesh_file.write_text("\n".join(lines) + "\n")
        cfg = write(tmp_path, "small.cfg", "target_h = 2.5\npit_nodes = 15\n")
        assert self.run_cli("smooth", cfg, mesh_path, "-o",
                            str(tmp_path / "out.txt")) == 2
        err = capsys.readouterr().err
        assert err.startswith("runtime failure: ")
        assert mesh_path in err
        assert len(err.strip().splitlines()) == 1

    def test_init_mesh_and_smooth_roundtrip(self, tmp_path, capsys):
        cfg = write(tmp_path, "small.cfg",
                    "target_h = 2.5\npit_nodes = 15\n")
        mesh_path = str(tmp_path / "mesh.txt")
        assert self.run_cli("init-mesh", cfg, "-o", mesh_path) == 0
        assert self.run_cli("smooth", cfg, mesh_path, "-o",
                            str(tmp_path / "smoothed.txt")) == 0
        assert os.path.exists(str(tmp_path / "smoothed.txt"))

    def test_run_command_writes_artifacts(self, tmp_path, capsys):
        cfg = write(tmp_path, "run.cfg", "\n".join([
            "target_h = 2.0", "pit_nodes = 15", "t_end = 6.0",
            "vtk_every = 2"]) + "\n")
        out_dir = str(tmp_path / "out")
        assert self.run_cli("run", cfg, "-o", out_dir) == 0
        for name in ("timeseries.csv", "summary.txt", "mesh_final.txt",
                     "final.vtk"):
            assert os.path.exists(os.path.join(out_dir, name))
        summary = open(os.path.join(out_dir, "summary.txt")).read()
        assert "merge events: 0" in summary
        assert "power-law fit" in summary
        assert os.path.exists(os.path.join(out_dir, "snapshot_00000.vtk"))

    def test_console_entrypoint(self, tmp_path):
        result = subprocess.run([sys.executable, "-m", "pitmesh.cli", "fit",
                                 str(tmp_path / "missing.csv")],
                                capture_output=True, text=True)
        assert result.returncode == 1

    @staticmethod
    def python_output(code, env):
        """stdout of python -c code, this checkout's src first on the path."""
        env = {**env, "PYTHONPATH": os.path.join(REPO, "src")}
        return subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True,
                              check=True).stdout.split()

    def test_package_import_loads_no_numpy(self):
        # the pitmesh command imports the package before it pins BLAS
        assert self.python_output("import sys, pitmesh; "
                                  "print('numpy' in sys.modules)",
                                  os.environ) == ["False"]

    @pytest.mark.parametrize("given, want", [({}, "1 1 1"),
                                             ({"OPENBLAS_NUM_THREADS": "2"},
                                              "1 2 1")])
    def test_command_pins_unset_blas_threads(self, given, want):
        names = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
        env = {k: v for k, v in os.environ.items() if k not in names}
        code = ("import os, pitmesh.__main__; "
                f"print(*(os.environ.get(k) for k in {names}))")
        assert self.python_output(code, {**env, **given}) == want.split()
