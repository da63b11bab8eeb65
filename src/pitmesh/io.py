"""Configuration parsing and all file emission (mesh, VTK, CSV, summary).

Config files are flat ``key = value`` text with ``#`` comments; unknown
keys are rejected and missing keys take the documented defaults.  Floats
are written with 17 significant digits everywhere so every file round
trips bit-exactly through its own reader.
"""

from __future__ import annotations

import logging
import os
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .crystal import (Bicrystal, Crystal, Homogeneous, MaterialSpec,
                      orientation_from_axes)
from .driver import SimConfig, TimeSeries
from .mesh import BoundaryTag, MeshError, TriMesh

logger = logging.getLogger("pitmesh.io")

FMT = "%.17g"


class ConfigError(Exception):
    """Bad key, bad value, or failed invariant in a run configuration."""


def _parse_vector(text: str) -> list:
    return [float(tok) for tok in text.replace(",", " ").split()]


def _parse_int_vector(text: str) -> list:
    return [int(round(v)) for v in _parse_vector(text)]


# key -> (section attribute, field, parser); material keys handled separately
_SCALAR_KEYS = {
    "domain_xmin": ("domain", "xmin", float),
    "domain_xmax": ("domain", "xmax", float),
    "domain_height": ("domain", "height", float),
    "pit_width": ("pits", "width", float),
    "pit_depth": ("pits", "depth", float),
    "pit_nodes": ("pits", "nodes", int),
    "z": ("electro", "z", float),
    "F": ("electro", "F", float),
    "R": ("electro", "R", float),
    "T": ("electro", "T", float),
    "V_app": ("electro", "V_app", float),
    "A_diss": ("electro", "A_diss", float),
    "c_solid": ("electro", "c_solid", float),
    "alpha": ("electro", "alpha", float),
    "sigma_c": ("electro", "sigma_c", float),
    "mu1": ("adapt", "mu1", float),
    "mu2": ("adapt", "mu2", float),
    "tau": ("adapt", "tau", float),
    "theta": ("adapt", "theta", float),
    "gamma": ("adapt", "gamma", float),
    "smoothing_tol": ("adapt", "smoothing_tol", float),
    "smoothing_max_iters": ("adapt", "smoothing_max_iters", int),
    "mmpde_max_substeps": ("adapt", "max_substeps", int),
    "mmpde_smoothing_substeps": ("adapt", "smoothing_substeps", int),
    "mmpde_disp_frac": ("adapt", "disp_frac", float),
    "mmpde_grad_tol": ("adapt", "grad_tol", float),
    "dt": ("front", "dt", float),
    "t_end": ("front", "t_end", float),
    "corner_close_factor": ("front", "corner_close_factor", float),
    "merge_gap_tol": ("front", "merge_gap_tol", float),
    "cfl_frac": ("front", "cfl_frac", float),
    "newton_abs_tol": ("newton", "abs_tol", float),
    "newton_rel_tol": ("newton", "rel_tol", float),
    "newton_max_iters": ("newton", "max_iters", int),
    "boundary_quad_points": ("newton", "quad_points", int),
    "vcorr_k": ("vcorr", "k_const", float),
    "vcorr_s": ("vcorr", "s_const", float),
    "target_h": (None, "target_h", float),
    "gap_single_edge": (None, "gap_single_edge", float),
    "seed": (None, "seed", int),
    "vtk_every": (None, "vtk_every", int),
}

_MATERIAL_KEYS = ("material", "vcorr_homogeneous", "zone_axis", "x_dir",
                  "zone_axis_left", "x_dir_left", "zone_axis_right",
                  "x_dir_right", "x_interface")


def parse_config(path: str) -> SimConfig:
    """Read a flat key=value config; empty file means the full defaults."""
    raw = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            text = line.split("#", 1)[0].strip()
            if not text:
                continue
            if "=" not in text:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
            key, value = (part.strip() for part in text.split("=", 1))
            value = value.strip("\"'")
            if key in raw:
                raise ConfigError(f"{path}:{lineno}: duplicate key '{key}'")
            if key not in _SCALAR_KEYS and key not in _MATERIAL_KEYS \
                    and key != "pit_centers":
                raise ConfigError(f"{path}:{lineno}: unknown key '{key}'")
            raw[key] = (value, lineno)

    config = SimConfig()
    for key, (value, lineno) in raw.items():
        if key in _MATERIAL_KEYS or key == "pit_centers":
            continue
        section, attr, cast = _SCALAR_KEYS[key]
        try:
            parsed = cast(value)
        except ValueError as err:
            raise ConfigError(f"{path}:{lineno}: bad value for '{key}': {err}") \
                from err
        target = config if section is None else getattr(config, section)
        setattr(target, attr, parsed)
    if "pit_centers" in raw:
        value, lineno = raw["pit_centers"]
        try:
            config.pits.centers = tuple(_parse_vector(value))
        except ValueError as err:
            raise ConfigError(f"{path}:{lineno}: bad pit_centers: {err}") from err

    config.material = _parse_material(raw, path)
    try:
        config.validate()
    except ValueError as err:
        raise ConfigError(f"{path}: {err}") from err
    return config


def _get(raw: dict, key: str, default: str) -> str:
    return raw[key][0] if key in raw else default


def _parse_material(raw: dict, path: str) -> MaterialSpec:
    kind = _get(raw, "material", "homogeneous").lower()
    try:
        if kind == "homogeneous":
            return Homogeneous(float(_get(raw, "vcorr_homogeneous", "-0.24")))
        if kind == "crystal":
            zone = _parse_int_vector(_get(raw, "zone_axis", "0 0 1"))
            xdir = _parse_int_vector(_get(raw, "x_dir", "1 0 0"))
            return Crystal(orientation_from_axes(zone, xdir))
        if kind == "bicrystal":
            left = orientation_from_axes(
                _parse_int_vector(_get(raw, "zone_axis_left", "0 0 1")),
                _parse_int_vector(_get(raw, "x_dir_left", "1 0 0")))
            right = orientation_from_axes(
                _parse_int_vector(_get(raw, "zone_axis_right", "1 0 1")),
                _parse_int_vector(_get(raw, "x_dir_right", "-1 0 1")))
            return Bicrystal(float(_get(raw, "x_interface", "0.0")), left, right)
    except ValueError as err:
        raise ConfigError(f"{path}: bad material description: {err}") from err
    raise ConfigError(f"{path}: unknown material '{kind}'")


def _material_lines(material: MaterialSpec) -> list:
    def ivec(v):
        return " ".join(str(int(round(c))) for c in v)

    if isinstance(material, Homogeneous):
        return ["material = homogeneous",
                f"vcorr_homogeneous = {FMT % material.v_corr}"]
    if isinstance(material, Crystal):
        o = material.orientation
        return ["material = crystal",
                f'zone_axis = "{ivec(_axes_as_ints(o.k))}"',
                f'x_dir = "{ivec(_axes_as_ints(o.i))}"']
    o1, o2 = material.left, material.right
    return ["material = bicrystal",
            f'zone_axis_left = "{ivec(_axes_as_ints(o1.k))}"',
            f'x_dir_left = "{ivec(_axes_as_ints(o1.i))}"',
            f'zone_axis_right = "{ivec(_axes_as_ints(o2.k))}"',
            f'x_dir_right = "{ivec(_axes_as_ints(o2.i))}"',
            f"x_interface = {FMT % material.x_interface}"]


def _axes_as_ints(v: np.ndarray) -> np.ndarray:
    """Recover small integer Miller indices from a unit vector."""
    for scale in range(1, 13):
        cand = v * scale / max(abs(c) for c in v if abs(c) > 1e-12)
        if np.allclose(cand, np.round(cand), atol=1e-9):
            return np.round(cand)
    return v  # not an integer direction; emit as-is


def write_config(config: SimConfig, path: str) -> None:
    """Emit every key explicitly; parse(write(config)) is an identity."""
    lines = ["# pitmesh run configuration"]
    lines.append(f"pit_centers = \"{' '.join(FMT % c for c in config.pits.centers)}\"")
    for key, (section, attr, cast) in _SCALAR_KEYS.items():
        target = config if section is None else getattr(config, section)
        value = getattr(target, attr)
        lines.append(f"{key} = {FMT % value if cast is float else int(value)}")
    lines.extend(_material_lines(config.material))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def resolved_summary(config: SimConfig) -> str:
    """Human-readable resolved configuration including the SI conversions."""
    e = config.electro
    parts = [
        "resolved configuration:",
        f"  domain [{config.domain.xmin:g}, {config.domain.xmax:g}] x "
        f"[0, {config.domain.height:g}] um",
        f"  pits at {list(config.pits.centers)} um, width {config.pits.width:g},"
        f" depth {config.pits.depth:g}, {config.pits.nodes} chain nodes",
        f"  material: {_material_lines(config.material)[0].split('= ')[1]}",
        f"  A_diss = {e.A_diss:g} mol/cm^2s = {e.a_diss_si:g} mol/m^2s",
        f"  c_solid = {e.c_solid:g} mol/l = {e.c_solid_si:g} mol/m^3",
        f"  z F / R T = {e.zf_rt:.6g} 1/V, alpha = {e.alpha:g}, "
        f"sigma_c = {e.sigma_c:g} S/m",
        f"  mu1 = {config.adapt.mu1:g}, mu2 = {config.adapt.mu2:g}, "
        f"tau = {config.adapt.tau:g} s",
        f"  dt = {config.front.dt:g} s, t_end = {config.front.t_end:g} s",
    ]
    return "\n".join(parts)


# mesh exchange format: integer boundary tags follow BoundaryTag values
def write_mesh(mesh: TriMesh, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("$Nodes\n%d\n" % mesh.n_vertices)
        for i, (x, y) in enumerate(mesh.vertices):
            fh.write(("%d " + FMT + " " + FMT + "\n") % (i, x, y))
        fh.write("$Elements\n%d\n" % mesh.n_triangles)
        for i, (a, b, c) in enumerate(mesh.triangles):
            fh.write("%d %d %d %d\n" % (i, a, b, c))
        fh.write("$BoundaryEdges\n%d\n" % len(mesh.edge_nodes))
        for (a, b), tag, pid in zip(mesh.edge_nodes, mesh.edge_tags,
                                    mesh.edge_pits):
            if tag == BoundaryTag.PIT:
                fh.write("%d %d %d %d\n" % (a, b, tag, pid))
            else:
                fh.write("%d %d %d\n" % (a, b, tag))


def read_mesh(path: str) -> TriMesh:
    with open(path, "r", encoding="utf-8") as fh:
        tokens = fh.read().split()
    pos = 0

    def expect(marker):
        nonlocal pos
        if tokens[pos] != marker:
            raise MeshError(f"{path}: expected {marker}, found {tokens[pos]}")
        pos += 1

    expect("$Nodes")
    n = int(tokens[pos]); pos += 1
    verts = np.empty((n, 2))
    for _ in range(n):
        i = int(tokens[pos])
        verts[i] = (float(tokens[pos + 1]), float(tokens[pos + 2]))
        pos += 3
    expect("$Elements")
    n = int(tokens[pos]); pos += 1
    tris = np.empty((n, 3), dtype=np.int32)
    for _ in range(n):
        i = int(tokens[pos])
        tris[i] = (int(tokens[pos + 1]), int(tokens[pos + 2]), int(tokens[pos + 3]))
        pos += 4
    expect("$BoundaryEdges")
    n = int(tokens[pos]); pos += 1
    nodes = np.empty((n, 2), dtype=np.int32)
    tags = np.empty(n, dtype=np.int16)
    pids = np.full(n, -1, dtype=np.int32)
    for k in range(n):
        nodes[k] = (int(tokens[pos]), int(tokens[pos + 1]))
        tags[k] = int(tokens[pos + 2])
        pos += 3
        if tags[k] == BoundaryTag.PIT:
            pids[k] = int(tokens[pos])
            pos += 1
    mesh = TriMesh(verts, tris, nodes, tags, pids)
    mesh.orient_ccw()
    return mesh


def write_vtk(mesh: TriMesh, phi: Optional[np.ndarray], path: str) -> None:
    """Legacy ASCII VTK unstructured grid with a nodal ``phi`` scalar."""
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("# vtk DataFile Version 2.0\n")
            fh.write("pitmesh snapshot\n")
            fh.write("ASCII\n")
            fh.write("DATASET UNSTRUCTURED_GRID\n")
            fh.write("POINTS %d double\n" % mesh.n_vertices)
            for x, y in mesh.vertices:
                fh.write((FMT + " " + FMT + " 0\n") % (x, y))
            nt = mesh.n_triangles
            fh.write("CELLS %d %d\n" % (nt, 4 * nt))
            for a, b, c in mesh.triangles:
                fh.write("3 %d %d %d\n" % (a, b, c))
            fh.write("CELL_TYPES %d\n" % nt)
            fh.write("5\n" * nt)
            if phi is not None:
                fh.write("POINT_DATA %d\n" % mesh.n_vertices)
                fh.write("SCALARS phi double 1\n")
                fh.write("LOOKUP_TABLE default\n")
                for value in phi:
                    fh.write((FMT + "\n") % value)
    except OSError as err:
        raise OSError(f"failed writing VTK file {path}: {err}") from err


def read_vtk_points_and_phi(path: str):
    """Round-trip reader for the writer above (verification only)."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    idx = next(i for i, ln in enumerate(lines) if ln.startswith("POINTS"))
    n = int(lines[idx].split()[1])
    pts = np.array([[float(v) for v in lines[idx + 1 + k].split()]
                    for k in range(n)])
    phi = None
    for i, ln in enumerate(lines):
        if ln.startswith("SCALARS phi"):
            phi = np.array([float(lines[i + 2 + k]) for k in range(n)])
            break
    return pts[:, :2], phi


def write_timeseries(series: TimeSeries, path: str) -> None:
    if len(series) == 0:
        raise ValueError("refusing to write an empty time series")
    t, depth, width = series.arrays()
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("t,depth_um,width_um\n")
            for row in zip(t, depth, width):
                fh.write(",".join(FMT % v for v in row) + "\n")
    except OSError as err:
        raise OSError(f"failed writing time series {path}: {err}") from err


def read_timeseries(path: str) -> TimeSeries:
    series = TimeSeries()
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip()
        if header != "t,depth_um,width_um":
            raise ValueError(f"{path}: unexpected header '{header}'")
        for line in fh:
            t, d, w = (float(v) for v in line.split(","))
            series.append(t, d, w)
    return series


@dataclass
class RunArtifacts:
    """Output paths for one run; all verified writable up front."""

    out_dir: str

    @property
    def timeseries_path(self) -> str:
        return os.path.join(self.out_dir, "timeseries.csv")

    @property
    def summary_path(self) -> str:
        return os.path.join(self.out_dir, "summary.txt")

    @property
    def final_mesh_path(self) -> str:
        return os.path.join(self.out_dir, "mesh_final.txt")

    @property
    def final_vtk_path(self) -> str:
        return os.path.join(self.out_dir, "final.vtk")

    def snapshot_path(self, step: int) -> str:
        return os.path.join(self.out_dir, f"snapshot_{step:05d}.vtk")

    def prepare(self) -> None:
        os.makedirs(self.out_dir, exist_ok=True)
        probe = os.path.join(self.out_dir, ".write_probe")
        try:
            with open(probe, "w", encoding="utf-8") as fh:
                fh.write("ok")
            os.remove(probe)
        except OSError as err:
            raise OSError(f"output directory {self.out_dir} not writable: "
                          f"{err}") from err


def write_summary(path: str, config: SimConfig, result, fits: dict) -> None:
    lines = [resolved_summary(config), ""]
    init = result.init
    flows = ", ".join(f"{n} {stop}" for n, stop in
                      zip(init.flow_iters, init.flow_stops))
    lines.append(f"initial smoothing: {len(init.trace)} iterations, "
                 f"converged={init.converged}; mmpde iterations and stop "
                 f"per flow: {flows}")
    lines.append(f"steps completed: {result.steps}")
    lines.append(f"merge events: {len(result.events)}")
    for ev in result.events:
        lines.append(f"  step {ev.step}: pits {ev.left_pit}+{ev.right_pit} "
                     f"merged at x = {ev.apex_position[0]:.4g} um "
                     f"(gap {ev.gap_length:.4g} um)")
    t, depth, width = result.series.arrays()
    lines.append(f"final t = {t[-1]:g} s, depth = {depth[-1]:.6g} um, "
                 f"width = {width[-1]:.6g} um")
    lines.append(f"smallest signed cell area seen: {result.min_area_seen:.6g}")
    for name, fit in fits.items():
        lines.append(
            f"power-law fit {name}(t) = a t^b + c (t shifted to start at 1):")
        lines.append(
            f"  a = {fit.a:.6g} +- {fit.se_a:.2g}, b = {fit.b:.6g} +- "
            f"{fit.se_b:.2g}, c = {fit.c:.6g} +- {fit.se_c:.2g}, "
            f"R^2 = {fit.r_squared:.6f}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
