"""Configuration parsing and all file emission (mesh, VTK, CSV, summary).

Config files are flat ``key = value`` text with ``#`` comments; unknown
keys, material keys the chosen material does not read, and numbers that
are not finite are rejected; missing keys take the documented defaults.
Floats are written with 17 significant digits everywhere so every file
round trips bit-exactly.
"""

from __future__ import annotations

import logging
import math
import os
from typing import Optional

import numpy as np

from .crystal import (Bicrystal, Crystal, Homogeneous, MaterialSpec,
                      orientation_from_axes)
from .driver import SimConfig, TimeSeries
from .mesh import BoundaryTag, MeshError, TriMesh, validate

logger = logging.getLogger("pitmesh.io")

FMT = "%.17g"


class ConfigError(Exception):
    """Bad key, bad value, or failed invariant in a run configuration."""


def _finite(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"{text} is not finite")
    return value


def _parse_vector(text: str, number=_finite) -> list:
    return [number(tok) for tok in text.replace(",", " ").split()]


def _parse_int_vector(text: str) -> list:
    values = _parse_vector(text, float)
    for v in values:
        if not v.is_integer():
            raise ValueError(f"Miller index {v:g} is not an integer")
    return [int(v) for v in values]


# key -> (section attribute, field, parser); material keys handled separately
_SCALAR_KEYS = {
    "domain_xmin": ("domain", "xmin", _finite),
    "domain_xmax": ("domain", "xmax", _finite),
    "domain_height": ("domain", "height", _finite),
    "pit_width": ("pits", "width", _finite),
    "pit_depth": ("pits", "depth", _finite),
    "pit_nodes": ("pits", "nodes", int),
    "pit_centers": ("pits", "centers", lambda t: tuple(_parse_vector(t))),
    "z": ("electro", "z", _finite),
    "T": ("electro", "T", _finite),
    "V_app": ("electro", "V_app", _finite),
    "A_diss": ("electro", "A_diss", _finite),
    "c_solid": ("electro", "c_solid", _finite),
    "alpha": ("electro", "alpha", _finite),
    "sigma_c": ("electro", "sigma_c", _finite),
    "mu1": ("adapt", "mu1", _finite),
    "mu2": ("adapt", "mu2", _finite),
    "tau": ("adapt", "tau", _finite),
    "dt": ("front", "dt", _finite),
    "t_end": ("front", "t_end", _finite),
    "merge_gap_tol": ("front", "merge_gap_tol", _finite),
    "target_h": (None, "target_h", _finite),
    "seed": (None, "seed", int),
    "vtk_every": (None, "vtk_every", int),
}

# material -> the keys it reads; a key of another material is rejected
_MATERIAL_FIELDS = {
    "homogeneous": ("vcorr_homogeneous",),
    "crystal": ("zone_axis", "x_dir", "vcorr_k", "vcorr_s"),
    "bicrystal": ("zone_axis_left", "x_dir_left", "zone_axis_right",
                  "x_dir_right", "x_interface", "vcorr_k", "vcorr_s"),
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
            if key not in _SCALAR_KEYS and key not in _MATERIAL_KEYS:
                raise ConfigError(f"{path}:{lineno}: unknown key '{key}'")
            raw[key] = (value, lineno)

    config = SimConfig()
    for key, (value, lineno) in raw.items():
        if key in _MATERIAL_KEYS:
            continue
        section, attr, cast = _SCALAR_KEYS[key]
        try:
            parsed = cast(value)
        except ValueError as err:
            raise ConfigError(f"{path}:{lineno}: bad value for '{key}': {err}") \
                from err
        target = config if section is None else getattr(config, section)
        setattr(target, attr, parsed)
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

    def value(parse, key: str, default: str):
        try:
            return parse(_get(raw, key, default))
        except ValueError as err:
            raise ConfigError(f"{path}:{raw[key][1]}: bad value for "
                              f"'{key}': {err}") from err

    def axis(key: str, default: str) -> list:
        return value(_parse_int_vector, key, default)

    def given(**keys) -> dict:
        """field -> value of each field's key the config sets."""
        return {attr: value(_finite, key, "") for attr, key in keys.items()
                if key in raw}

    try:
        if kind == "homogeneous":
            return Homogeneous(**given(v_corr="vcorr_homogeneous"))
        law = given(k_const="vcorr_k", s_const="vcorr_s")
        if kind == "crystal":
            return Crystal(orientation_from_axes(axis("zone_axis", "0 0 1"),
                                                 axis("x_dir", "1 0 0")),
                           **law)
        left = orientation_from_axes(axis("zone_axis_left", "0 0 1"),
                                     axis("x_dir_left", "1 0 0"))
        right = orientation_from_axes(axis("zone_axis_right", "1 0 1"),
                                      axis("x_dir_right", "-1 0 1"))
        return Bicrystal(value(_finite, "x_interface", "0.0"), left, right,
                         **law)
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


# mesh exchange format: three fixed-width tables, each a marker, a row
# count and the rows: "$Nodes" rows "i x y", "$Elements" rows "i a b c"
# and "$BoundaryEdges" rows "a b tag", with tag a BoundaryTag value
_MESH_TABLES = (("$Nodes", 3), ("$Elements", 4), ("$BoundaryEdges", 3))


def _table(row: str, values: np.ndarray) -> str:
    """One row format applied to every row of an array, as one string."""
    return (row * len(values)) % tuple(values.ravel().tolist())


def write_mesh(mesh: TriMesh, path: str) -> None:
    nv, nt = mesh.n_vertices, mesh.n_triangles
    # the node numbers ride as floats, which %d prints exactly
    nodes = np.column_stack((np.arange(nv), mesh.vertices))
    cells = np.column_stack((np.arange(nt), mesh.triangles))
    edges = np.column_stack((mesh.edge_nodes, mesh.edge_tags))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("$Nodes\n%d\n" % nv)
        fh.write(_table("%d " + FMT + " " + FMT + "\n", nodes))
        fh.write("$Elements\n%d\n" % nt)
        fh.write(_table("%d %d %d %d\n", cells))
        fh.write("$BoundaryEdges\n%d\n" % len(edges))
        fh.write(_table("%d %d %d\n", edges))


def read_mesh(path: str) -> TriMesh:
    """Read a write_mesh file; records must be numbered 0, 1, ... in order.

    A truncated file, a token that is not a number, a token after the last
    table, a coordinate that is not finite, a vertex index out of range, an
    unknown boundary tag or a mesh that fails mesh.validate (say a boundary
    edge without a tag) raises MeshError naming the file.
    """
    with open(path, "r", encoding="utf-8") as fh:
        tokens = fh.read().split()
    tables = []
    pos = 0
    try:
        for marker, width in _MESH_TABLES:
            if tokens[pos] != marker:
                raise MeshError(f"{path}: expected {marker}, found {tokens[pos]}")
            n = int(tokens[pos + 1])
            start, pos = pos + 2, pos + 2 + n * width
            if n < 0 or pos > len(tokens):
                raise IndexError(f"{marker} row count {n} does not fit the file")
            tables.append(tokens[start:pos])
        if pos != len(tokens):
            raise MeshError(f"{path}: {len(tokens) - pos} tokens after "
                            "the last table")
        nodes, cells, edges = tables
        node_numbers = np.array(nodes[::3], dtype=np.int64)
        del nodes[::3]
        verts = np.array(nodes, dtype=np.float64).reshape(-1, 2)
        cells = np.array(cells, dtype=np.int64).reshape(-1, 4)
        edges = np.array(edges, dtype=np.int64).reshape(-1, 3)
        for numbers in (node_numbers, cells[:, 0]):
            wrong = np.flatnonzero(numbers != np.arange(len(numbers)))
            if wrong.size:
                raise MeshError(f"{path}: record {wrong[0]} is numbered "
                                f"{numbers[wrong[0]]}")
    except (IndexError, ValueError, OverflowError) as err:
        raise MeshError(f"{path}: truncated or malformed mesh file: {err}") \
            from err
    if not np.isfinite(verts).all():
        raise MeshError(f"{path}: vertex coordinate not finite")
    tris, ends, tags = cells[:, 1:], edges[:, :2], edges[:, 2]
    for what, idx in (("triangle", tris), ("boundary edge", ends)):
        if idx.size and (idx.min() < 0 or idx.max() >= len(verts)):
            raise MeshError(f"{path}: {what} vertex index out of range "
                            f"[0, {len(verts)})")
    unknown = np.setdiff1d(tags, list(BoundaryTag))
    if unknown.size:
        raise MeshError(f"{path}: unknown boundary tag(s) {unknown.tolist()}")
    mesh = TriMesh(verts, tris, ends, tags)
    mesh.orient_ccw()
    report = validate(mesh)
    if not report.ok:
        raise MeshError(f"{path}: {report.summary()}")
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
            fh.write(_table(FMT + " " + FMT + " 0\n", mesh.vertices))
            nt = mesh.n_triangles
            fh.write("CELLS %d %d\n" % (nt, 4 * nt))
            fh.write(_table("3 %d %d %d\n", mesh.triangles))
            fh.write("CELL_TYPES %d\n" % nt)
            fh.write("5\n" * nt)
            if phi is not None:
                fh.write("POINT_DATA %d\n" % mesh.n_vertices)
                fh.write("SCALARS phi double 1\n")
                fh.write("LOOKUP_TABLE default\n")
                fh.write(_table(FMT + "\n", phi))
    except OSError as err:
        raise OSError(f"failed writing VTK file {path}: {err}") from err


def write_timeseries(series: TimeSeries, path: str) -> None:
    if len(series) == 0:
        raise ValueError("refusing to write an empty time series")
    t, depth, width = series.arrays()
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("t,depth_um,width_um\n")
            fh.write(_table(FMT + "," + FMT + "," + FMT + "\n",
                            np.column_stack((t, depth, width))))
    except OSError as err:
        raise OSError(f"failed writing time series {path}: {err}") from err


def read_timeseries(path: str) -> TimeSeries:
    """Read a time series CSV as write_timeseries writes it.

    A row that is not three finite numbers, or whose t does not increase,
    raises ValueError naming the file and line.
    """
    series = TimeSeries()
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip()
        if header != "t,depth_um,width_um":
            raise ValueError(f"{path}: unexpected header '{header}'")
        for lineno, line in enumerate(fh, start=2):
            fields = line.strip().split(",")
            try:
                if len(fields) != 3:
                    raise ValueError(f"expected 3 fields, found {len(fields)}")
                series.append(*(_finite(v) for v in fields))
            except ValueError as err:
                raise ValueError(f"{path}:{lineno}: {err}") from err
    return series


def prepare_output(out_dir: str) -> None:
    """Make out_dir and check it is writable before a run starts."""
    os.makedirs(out_dir, exist_ok=True)
    probe = os.path.join(out_dir, ".write_probe")
    try:
        with open(probe, "w", encoding="utf-8") as fh:
            fh.write("ok")
        os.remove(probe)
    except OSError as err:
        raise OSError(f"output directory {out_dir} not writable: "
                      f"{err}") from err


def write_summary(path: str, config: SimConfig, result, fits: dict,
                  first: int = 0, failure: Optional[Exception] = None) -> str:
    """Write the run's summary and return its text.  fits are of the series
    rows from step first on; failure is what aborted the run, if any."""
    lines = [resolved_summary(config), ""]
    smooth = result.init.smooth
    flows = ", ".join(f"{n} {stop}" for n, stop in
                      zip(smooth.flow_iters, smooth.flow_stops))
    lines.append(f"initial smoothing: {len(smooth.trace)} iterations, "
                 f"converged={smooth.converged}; mmpde iterations and stop "
                 f"per flow: {flows}")
    lines.append("initial smoothing relative tolerance per flow: "
                 + ", ".join(f"{rtol:.3g}" for rtol in smooth.flow_rtols))
    records = result.records
    # one minimiser call per flow and per step; one solve, then one a step
    lines.append(f"relaxation: {result.factorisations} preconditioner "
                 f"factorisations in {len(smooth.trace) + result.steps} "
                 f"minimiser calls; "
                 f"{sum(r.relaxation_iterations for r in records)} "
                 f"iterations and {sum(r.predicted for r in records)} "
                 f"predicted starts in {result.steps} steps")
    newton = result.init.newton_iterations \
        + sum(r.newton_iterations for r in records)
    lines.append(f"potential: {newton} Newton iterations in "
                 f"{result.steps + 1} solves")
    if failure is not None:
        lines.append(f"run aborted: {failure}")
    lines.append(f"steps completed: {result.steps}")
    lines.append(f"dt capped in {sum(r.capped for r in records)} of "
                 f"{result.steps} steps")
    lines.append(f"merge events: {len(result.events)}")
    for ev in result.events:
        lines.append(f"  step {ev.step}: pits {ev.left_pit}+{ev.right_pit} "
                     f"merged at x = {ev.apex_position[0]:.4g} um "
                     f"(gap {ev.gap_length:.4g} um)")
    t, depth, width = result.series.arrays()
    lines.append(f"final t = {t[-1]:g} s, depth = {depth[-1]:.6g} um, "
                 f"width = {width[-1]:.6g} um")
    lines.append(f"smallest signed cell area seen: {result.min_area_seen:.6g}")
    span = (f"from step {first} (t = {t[first]:g} s, shifted to 1)" if first
            else "(t shifted to start at 1)")
    for name, fit in fits.items():
        lines.append(f"power-law fit {name}(t) = a t^b + c {span}:")
        lines.append(
            f"  a = {fit.a:.6g} +- {fit.se_a:.2g}, b = {fit.b:.6g} +- "
            f"{fit.se_b:.2g}, c = {fit.c:.6g} +- {fit.se_c:.2g}, "
            f"R^2 = {fit.r_squared:.6f}")
    text = "\n".join(lines) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return text
