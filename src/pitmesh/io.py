"""Configuration parsing and all file emission (mesh, VTK, CSV, summary).

Config files are flat ``key = value`` text with ``#`` comments; unknown
keys, and material keys the chosen material does not read, are rejected;
missing keys take the documented defaults.  Floats are written with 17
significant digits everywhere so every file round trips bit-exactly.
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
    values = _parse_vector(text)
    for v in values:
        if not v.is_integer():
            raise ValueError(f"Miller index {v:g} is not an integer")
    return [int(v) for v in values]


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
    "dt": ("front", "dt", float),
    "t_end": ("front", "t_end", float),
    "merge_gap_tol": ("front", "merge_gap_tol", float),
    "vcorr_k": ("vcorr", "k_const", float),
    "vcorr_s": ("vcorr", "s_const", float),
    "target_h": (None, "target_h", float),
    "seed": (None, "seed", int),
    "vtk_every": (None, "vtk_every", int),
}

# material -> the keys it reads; a key of another material is rejected
_MATERIAL_FIELDS = {
    "homogeneous": ("vcorr_homogeneous",),
    "crystal": ("zone_axis", "x_dir"),
    "bicrystal": ("zone_axis_left", "x_dir_left", "zone_axis_right",
                  "x_dir_right", "x_interface"),
}
_MATERIAL_KEYS = ("material",) + sum(_MATERIAL_FIELDS.values(), ())


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
    if kind not in _MATERIAL_FIELDS:
        raise ConfigError(f"{path}:{raw['material'][1]}: unknown material "
                          f"'{kind}'")
    for key, (_, lineno) in raw.items():
        if key in _MATERIAL_KEYS and \
                key not in ("material",) + _MATERIAL_FIELDS[kind]:
            raise ConfigError(f"{path}:{lineno}: key '{key}' does not apply "
                              f"to material '{kind}'")

    def axis(key: str, default: str) -> list:
        try:
            return _parse_int_vector(_get(raw, key, default))
        except ValueError as err:
            raise ConfigError(f"{path}:{raw[key][1]}: bad value for "
                              f"'{key}': {err}") from err

    try:
        if kind == "homogeneous":
            return Homogeneous(float(_get(raw, "vcorr_homogeneous", "-0.24")))
        if kind == "crystal":
            return Crystal(orientation_from_axes(axis("zone_axis", "0 0 1"),
                                                 axis("x_dir", "1 0 0")))
        left = orientation_from_axes(axis("zone_axis_left", "0 0 1"),
                                     axis("x_dir_left", "1 0 0"))
        right = orientation_from_axes(axis("zone_axis_right", "1 0 1"),
                                      axis("x_dir_right", "-1 0 1"))
        return Bicrystal(float(_get(raw, "x_interface", "0.0")), left, right)
    except ValueError as err:
        raise ConfigError(f"{path}: bad material description: {err}") from err


def resolved_summary(config: SimConfig) -> str:
    """Human-readable resolved configuration including the SI conversions."""
    e = config.electro
    parts = [
        "resolved configuration:",
        f"  domain [{config.domain.xmin:g}, {config.domain.xmax:g}] x "
        f"[0, {config.domain.height:g}] um",
        f"  pits at {list(config.pits.centers)} um, width {config.pits.width:g},"
        f" depth {config.pits.depth:g}, {config.pits.nodes} chain nodes",
        f"  material: {type(config.material).__name__.lower()}",
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
    """Read a write_mesh file; records must be numbered 0, 1, ... in order.

    A truncated file, a token that is not a number or a vertex index out
    of range raises MeshError naming the file.
    """
    with open(path, "r", encoding="utf-8") as fh:
        tokens = fh.read().split()
    try:
        verts, tris, nodes, tags, pids = _mesh_records(tokens, path)
    except (IndexError, ValueError) as err:
        raise MeshError(f"{path}: truncated or malformed mesh file: {err}") \
            from err
    for what, idx in (("triangle", tris), ("boundary edge", nodes)):
        if idx.size and (idx.min() < 0 or idx.max() >= len(verts)):
            raise MeshError(f"{path}: {what} vertex index out of range "
                            f"[0, {len(verts)})")
    mesh = TriMesh(verts, tris, nodes, tags, pids)
    mesh.orient_ccw()
    return mesh


def _mesh_records(tokens: list, path: str) -> tuple:
    pos = 0

    def expect(marker):
        nonlocal pos
        if tokens[pos] != marker:
            raise MeshError(f"{path}: expected {marker}, found {tokens[pos]}")
        pos += 1

    def expect_index(i):
        if int(tokens[pos]) != i:
            raise MeshError(f"{path}: record {i} is numbered {tokens[pos]}")

    expect("$Nodes")
    n = int(tokens[pos]); pos += 1
    verts = np.empty((n, 2))
    for i in range(n):
        expect_index(i)
        verts[i] = (float(tokens[pos + 1]), float(tokens[pos + 2]))
        pos += 3
    expect("$Elements")
    n = int(tokens[pos]); pos += 1
    tris = np.empty((n, 3), dtype=np.int32)
    for i in range(n):
        expect_index(i)
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
    return verts, tris, nodes, tags, pids


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
    smooth = result.init.smooth
    flows = ", ".join(f"{n} {stop}" for n, stop in
                      zip(smooth.flow_iters, smooth.flow_stops))
    lines.append(f"initial smoothing: {len(smooth.trace)} iterations, "
                 f"converged={smooth.converged}; mmpde iterations and stop "
                 f"per flow: {flows}")
    lines.append(f"relaxation: {result.factorisations} preconditioner "
                 f"factorisations in {result.minimiser_calls} minimiser calls")
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
