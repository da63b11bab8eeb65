"""Pit-front advancement, corner relocation, merging, and apex tracking.

Chain vertices move along their vertex normals at the Faraday speed.
Corners are re-seated on y = 0 by extrapolating the wall through the two
nearest chain vertices; when the intersection jumps far from the old
corner, the corner dives into the pit and the adjacent surface vertex
takes over as the new corner (the mesh topology never changes, edges are
only retagged).  Facing pits merge once the single surface edge between
their corners drops below tolerance.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import electrochem
from .crystal import MaterialSpec, VcorrParams, vcorr_many
from .electrochem import ElectroParams
from .mesh import (BoundaryTag, PitChain, TriMesh, cross2,
                   face_and_vertex_normals, point_segment_distances,
                   polyline_self_intersects)

logger = logging.getLogger("pitmesh.front")

M_TO_UM = 1.0e6
PARALLEL_SIN = np.sin(np.deg2rad(1.0))
# once the chain turn at a merge apex flattens below this angle the ridge
# has corroded away and the vertex goes back to plain normal motion
APEX_RETIRE_TURN_DEG = 20.0
# a re-seated corner within this many mean pit-edge lengths of the old one
# just slides; a farther one absorbs the adjacent surface vertex
_CORNER_CLOSE_FACTOR = 1.5


class FrontError(Exception):
    """Front advancement produced invalid geometry."""


@dataclass
class FrontParams:
    dt: float = 0.5                  # seconds
    t_end: float = 120.0
    merge_gap_tol: float = 1.0       # micrometers

    def validate(self) -> None:
        for name in ("dt", "t_end", "merge_gap_tol"):
            if getattr(self, name) <= 0.0:
                raise ValueError(f"{name} must be positive")


@dataclass
class MergeCandidate:
    edge_index: int
    left_chain: int   # index into the chains list
    right_chain: int
    gap_length: float


@dataclass
class MergeEvent:
    left_pit: int
    right_pit: int
    apex_vertex: int
    moved_vertex: int
    apex_position: tuple
    gap_length: float
    step: int = -1


def chain_velocities(mesh: TriMesh, chain: PitChain, phi: np.ndarray,
                     material: MaterialSpec, vc_params: VcorrParams,
                     eparams: ElectroParams):
    """Normal speed (micrometers/s) and unit normal for every chain vertex."""
    _, normals = face_and_vertex_normals(mesh, chain)
    pos = chain.positions(mesh)
    vc = vcorr_many(material, vc_params, pos, normals)
    vn = electrochem.normal_velocity(eparams, vc, phi[chain.vertices])
    return vn * M_TO_UM, normals


def advance_pit(mesh: TriMesh, chain: PitChain, vn_um: np.ndarray,
                normals: np.ndarray, dt: float) -> None:
    """Advance one chain over dt; corners and apex get their special rules.

    vn_um and normals are the normal speed (micrometers/s) and unit normal
    of every chain vertex, as chain_velocities returns them.  Mutates mesh
    vertex positions (and, for large corner jumps, the chain and edge
    tags).  Interior vertices take _apply_limited's one-pass fractions of
    the full step, which keep each APPROACH_FACTOR of its distance to every
    chain segment not incident to it; a step within capped_dt moves them
    in full, and one far longer than the pit edges stalls.  Corners and
    the apex move after that, so raises FrontError if the chain then
    self-intersects or a corner cannot be re-seated; the mesh and chain
    may then be partly advanced, and driver.run keeps the last good state.
    """
    if chain.apex_pos is not None:
        _maybe_retire_apex(mesh, chain)
    move = np.ones(chain.n_vertices, dtype=bool)
    move[0] = move[-1] = False
    if chain.apex_pos is not None:
        move[chain.apex_pos] = False
    old_neighbors = None
    if chain.apex_pos is not None:
        a = chain.apex_pos
        old_neighbors = mesh.vertices[chain.vertices[[a - 1, a + 1]]].copy()
    disp = np.zeros((chain.n_vertices, 2))
    disp[move] = dt * vn_um[move, None] * normals[move]
    _apply_limited(mesh, chain, disp)
    update_corners(mesh, chain)
    if chain.apex_pos is not None:
        _advance_apex(mesh, chain, old_neighbors)
    if polyline_self_intersects(chain.positions(mesh)):
        raise FrontError(
            f"pit {chain.pit_id}: chain self-intersects after advance; "
            "a smaller dt should prevent this")


APPROACH_FACTOR = 0.4   # a vertex keeps this fraction of its clearance
FREEZE_CLEARANCE = 1e-3  # micrometers; bunched vertices stop entirely
# dt cap: the front sweeps at most this fraction of the smallest pit edge
_CFL_FRAC = 0.2


def capped_dt(mesh: TriMesh, chains: Sequence[PitChain], speeds, dt: float,
              step: int) -> float:
    """dt, capped so no front vertex sweeps over _CFL_FRAC of the smallest
    pit edge; speeds holds chain_velocities' (vn_um, normals) per chain.
    Edges below 0.1 of their chain's median (a collapsed bunch of
    envelope-limited vertices) carry no front resolution and are ignored.
    """
    max_vn = 0.0
    min_edge = np.inf
    for chain, (vn, _) in zip(chains, speeds):
        max_vn = max(max_vn, float(np.max(vn)))
        seg = np.linalg.norm(np.diff(chain.positions(mesh), axis=0), axis=1)
        seg = seg[seg >= 0.1 * np.median(seg)]
        min_edge = min(min_edge, float(np.min(seg)))
    if max_vn > 0.0:
        cap = _CFL_FRAC * min_edge / max_vn
        if cap < dt:
            logger.warning("step %d: dt capped %.3g -> %.3g", step, dt, cap)
            dt = cap
    return dt


def _apply_limited(mesh: TriMesh, chain: PitChain, disp: np.ndarray) -> None:
    """Move chain vertices, scaling back any step that closes on the front.

    A marker cannot overtake the envelope of its neighbors' wavefronts:
    where converging flanks have consumed the metal between them (after a
    merge, say) the bunched vertices lose clearance and freeze instead of
    passing through the opposite wall.  Vertex i moves by f_i d_i, f_i in
    [0, 1], in one pass.  It and a chain segment (a, b) not incident to it
    start D apart and close by at most |d_i| + max(|d_a|, |d_b|) whatever
    a and b do, so the pair admits (1 - APPROACH_FACTOR) D over that sum,
    or 0 below FREEZE_CLEARANCE; f_i is the least of 1 and every fraction
    admitted by a pair with i as vertex or segment end.  Each pair keeps
    APPROACH_FACTOR D all step, and non-adjacent segments can only start
    to cross where an endpoint touches the other, so the chain cannot
    tangle.  A step far longer than the pit edges, as capped_dt prevents,
    stalls.
    """
    base = mesh.vertices[chain.vertices].copy()
    length = np.hypot(disp[:, 0], disp[:, 1])
    dist = point_segment_distances(base, base[:-1], base[1:])
    closing = length[:, None] + np.maximum(length[:-1], length[1:])
    with np.errstate(divide="ignore", invalid="ignore"):
        admit = (1.0 - APPROACH_FACTOR) * dist / closing
    admit[dist < FREEZE_CLEARANCE] = 0.0
    # the two segments incident to a vertex do not limit it
    seg = np.arange(len(base) - 1)
    admit[seg, seg] = admit[seg + 1, seg] = np.inf
    frac = np.minimum(1.0, admit.min(axis=1))
    by_segment = admit.min(axis=0)
    frac[:-1] = np.minimum(frac[:-1], by_segment)
    frac[1:] = np.minimum(frac[1:], by_segment)
    if np.any(frac < 1.0):
        logger.debug("pit %d: limited %d vertices at the front envelope",
                     chain.pit_id, int(np.sum(frac < 1.0)))
    mesh.vertices[chain.vertices] = base + frac[:, None] * disp


def _extrapolate_to_surface(p1: np.ndarray, p2: np.ndarray):
    """Intersection with y=0 of the line through p1, p2; None if parallel."""
    dy = p1[1] - p2[1]
    if abs(dy) < 1e-14 * max(1.0, abs(p1[1])):
        return None
    t = p1[1] / dy
    return p1[0] + t * (p2[0] - p1[0])


def _bottom_neighbor(mesh: TriMesh, corner: int) -> int:
    en = mesh.edge_nodes
    sel = (mesh.edge_tags == BoundaryTag.BOTTOM) & \
        ((en[:, 0] == corner) | (en[:, 1] == corner))
    idx = np.where(sel)[0]
    if len(idx) != 1:
        raise FrontError(f"corner vertex {corner} has {len(idx)} bottom edges")
    u, v = en[idx[0]]
    return int(v if u == corner else u)


def _retag_to_pit(mesh: TriMesh, a: int, b: int) -> None:
    en = mesh.edge_nodes
    sel = ((en[:, 0] == a) & (en[:, 1] == b)) | ((en[:, 0] == b) & (en[:, 1] == a))
    idx = np.where(sel)[0]
    if len(idx) != 1:
        raise FrontError(f"edge ({a},{b}) not found for retagging")
    mesh.edge_tags[idx[0]] = BoundaryTag.PIT


def update_corners(mesh: TriMesh, chain: PitChain) -> None:
    """Re-seat both chain corners on y = 0 by wall extrapolation.

    Close intersections just move the corner along y = 0; far ones absorb
    the adjacent surface vertex: the old corner dives onto the wall line
    inside the pit and the surface vertex becomes the corner at the
    intersection (its bottom edge is retagged as pit boundary).  A surface
    vertex that already ends a PIT edge belongs to the facing pit and is
    never absorbed: that raises FrontError.
    """
    edge_len = np.linalg.norm(np.diff(chain.positions(mesh), axis=0), axis=1)
    tol = _CORNER_CLOSE_FACTOR * float(np.mean(edge_len))
    for side in ("left", "right"):
        if side == "left":
            corner = chain.vertices[0]
            v1, v2 = chain.vertices[1], chain.vertices[2]
        else:
            corner = chain.vertices[-1]
            v1, v2 = chain.vertices[-2], chain.vertices[-3]
        p1, p2 = mesh.vertices[v1], mesh.vertices[v2]
        x_int = _extrapolate_to_surface(p1, p2)
        if x_int is None:
            logger.warning("pit %d %s corner: wall parallel to surface, "
                           "projecting vertically", chain.pit_id, side)
            x_int = float(p1[0])
        old_x = mesh.vertices[corner, 0]
        if abs(x_int - old_x) <= tol:
            mesh.vertices[corner] = (x_int, 0.0)
            continue
        # large jump: absorb the neighboring surface vertex into the chain
        neighbor = _bottom_neighbor(mesh, int(corner))
        if np.any(mesh.edge_nodes[mesh.edge_tags == BoundaryTag.PIT] == neighbor):
            raise FrontError(
                f"pit {chain.pit_id} {side} corner {corner}: surface vertex "
                f"{neighbor} it would absorb is a corner of another pit")
        mesh.vertices[neighbor] = (x_int, 0.0)
        mesh.vertices[corner] = 0.5 * (p1 + np.array([x_int, 0.0]))
        _retag_to_pit(mesh, int(corner), neighbor)
        if side == "left":
            chain.vertices = np.concatenate(([neighbor], chain.vertices)).astype(np.int32)
            if chain.apex_pos is not None:
                chain.apex_pos += 1
        else:
            chain.vertices = np.concatenate((chain.vertices, [neighbor])).astype(np.int32)
        logger.info("pit %d: %s corner absorbed surface vertex %d",
                    chain.pit_id, side, neighbor)


def line_intersection(a1, a2, b1, b2):
    """Intersection of lines (a1,a2) and (b1,b2); None if nearly parallel."""
    d1 = np.asarray(a2, dtype=np.float64) - a1
    d2 = np.asarray(b2, dtype=np.float64) - b1
    n1 = np.hypot(*d1)
    n2 = np.hypot(*d2)
    if n1 == 0.0 or n2 == 0.0:
        return None
    denom = float(cross2(d1, d2))
    if abs(denom) < PARALLEL_SIN * n1 * n2:
        return None
    t = float(cross2(np.asarray(b1) - a1, d2)) / denom
    return np.asarray(a1) + t * d1


def track_apex(p_ll, p_l, p_r, p_rr, apex_old: np.ndarray):
    """New apex from the intersection of the second-last wall edges.

    p_ll..p_l is the second-last edge left of the apex, p_r..p_rr the one
    on the right.  Near-parallel walls return None (caller falls back to
    averaged neighbor displacement).  The apex never rises: material only
    dissolves, so y is clamped to min(old_y, 0, intersection_y).
    """
    hit = line_intersection(p_ll, p_l, p_r, p_rr)
    if hit is None:
        return None
    return np.array([hit[0], min(hit[1], apex_old[1], 0.0)])


def _maybe_retire_apex(mesh: TriMesh, chain: PitChain) -> None:
    """Drop apex tracking when the ridge has effectively corroded away.

    Two symptoms end the ridge regime: the wall lines through the
    second-last edges become nearly collinear (no wedge left to track), or
    a neighbor vertex has crowded onto the apex, which starves the local
    edge and stalls the front time step.  Either way plain normal motion
    takes over and rounds off the remnant.
    """
    a = chain.apex_pos
    p = mesh.vertices[chain.vertices[a - 2:a + 3]]
    w1 = p[1] - p[0]
    w2 = p[3] - p[4]
    n1 = np.hypot(*w1)
    n2 = np.hypot(*w2)
    seg = np.hypot(*np.diff(mesh.vertices[chain.vertices], axis=0).T)
    crowd = min(seg[a - 1], seg[a]) < 0.25 * float(np.median(seg))
    flat = False
    if n1 > 0.0 and n2 > 0.0:
        turn = 180.0 - np.rad2deg(np.arccos(
            np.clip(np.dot(w1, w2) / (n1 * n2), -1.0, 1.0)))
        flat = turn < APEX_RETIRE_TURN_DEG
    if flat or crowd:
        logger.info("pit %d: apex retired (%s)", chain.pit_id,
                    "walls collinear" if flat else "neighbor crowded in")
        chain.apex_pos = None


def _advance_apex(mesh: TriMesh, chain: PitChain, old_neighbors: np.ndarray) -> None:
    a = chain.apex_pos
    if a < 2 or a > chain.n_vertices - 3:
        raise FrontError(f"apex at chain position {a} needs 2 edges per side")
    verts = chain.vertices
    apex_id = verts[a]
    pos = mesh.vertices
    new = track_apex(pos[verts[a - 2]], pos[verts[a - 1]],
                     pos[verts[a + 1]], pos[verts[a + 2]], pos[apex_id])
    if new is None:
        disp = (pos[verts[[a - 1, a + 1]]] - old_neighbors).mean(axis=0)
        new = pos[apex_id] + disp
        new[1] = min(new[1], 0.0)
        logger.warning("pit %d: apex walls near-parallel, advancing by "
                       "averaged neighbor displacement", chain.pit_id)
    mesh.vertices[apex_id] = new


def detect_merge(mesh: TriMesh, chains: Sequence[PitChain],
                 fparams: FrontParams) -> Optional[MergeCandidate]:
    """Shortest sub-tolerance surface edge joining two facing pit corners."""
    if len(chains) < 2:
        return None
    order = sorted(range(len(chains)),
                   key=lambda ci: mesh.vertices[chains[ci].left_corner, 0])
    en = mesh.edge_nodes
    best = None
    for c1, c2 in zip(order, order[1:]):
        rc = chains[c1].right_corner
        lc = chains[c2].left_corner
        sel = (mesh.edge_tags == BoundaryTag.BOTTOM) & (
            ((en[:, 0] == rc) & (en[:, 1] == lc))
            | ((en[:, 0] == lc) & (en[:, 1] == rc)))
        idx = np.where(sel)[0]
        if len(idx) != 1:
            continue  # surface vertices still sit between these pits
        gap = float(np.linalg.norm(mesh.vertices[rc] - mesh.vertices[lc]))
        if gap < fparams.merge_gap_tol and (best is None or gap < best.gap_length):
            best = MergeCandidate(int(idx[0]), c1, c2, gap)
    return best


def _triangle_angles(p0, p1, p2):
    """Interior angles at p0, p1, p2."""
    def ang(a, b, c):
        u = b - a
        v = c - a
        cosv = np.dot(u, v) / (np.linalg.norm(u) * np.linalg.norm(v))
        return float(np.arccos(np.clip(cosv, -1.0, 1.0)))
    return ang(p0, p1, p2), ang(p1, p2, p0), ang(p2, p0, p1)


def merge_pits(mesh: TriMesh, chains: Sequence[PitChain],
               cand: MergeCandidate) -> tuple:
    """Collapse the gap edge between two pits into one chain with an apex.

    The gap-edge endpoint with the larger angle in the owning triangle
    becomes the apex at the gap midpoint; the other endpoint moves halfway
    toward its first chain neighbor.  Vertex and cell counts are untouched;
    the gap edge is retagged as pit boundary, and the chains are renumbered
    from 0 in left-corner order.  Raises FrontError if the move would
    invert a cell or the merged chain self-intersects; the two moved
    vertices then stay moved, and driver.run keeps the last good state.
    """
    left = chains[cand.left_chain]
    right = chains[cand.right_chain]
    rc, lc = left.right_corner, right.left_corner

    tri = mesh.triangles
    has = ((tri == rc).any(axis=1)) & ((tri == lc).any(axis=1))
    cells = np.where(has)[0]
    if len(cells) != 1:
        raise FrontError(f"gap edge ({rc},{lc}) owned by {len(cells)} cells")
    cell = tri[cells[0]]
    w = int(cell[(cell != rc) & (cell != lc)][0])
    pos = mesh.vertices
    ang_rc = _triangle_angles(pos[rc], pos[lc], pos[w])[0]
    ang_lc = _triangle_angles(pos[lc], pos[w], pos[rc])[0]

    apex_point = 0.5 * (pos[rc] + pos[lc])
    if ang_rc >= ang_lc:
        apex_id, moved_id = rc, lc
        neighbor = int(right.vertices[1])
    else:
        apex_id, moved_id = lc, rc
        neighbor = int(left.vertices[-2])
    pos[apex_id] = apex_point
    pos[moved_id] = 0.5 * (apex_point + pos[neighbor])

    areas_ok = mesh.signed_areas() > 0.0
    if not np.all(areas_ok):
        raise FrontError(
            f"merging pits {left.pit_id} and {right.pit_id} would invert "
            f"cells {np.where(~areas_ok)[0][:5].tolist()}; "
            "use a smaller merge_gap_tol")
    joined = np.concatenate((left.vertices, right.vertices))
    if polyline_self_intersects(pos[joined]):
        raise FrontError(
            f"merging pits {left.pit_id} and {right.pit_id} would make "
            "the merged chain self-intersect")

    mesh.edge_tags[cand.edge_index] = BoundaryTag.PIT
    merged = PitChain(
        left.pit_id, joined,
        apex_pos=len(left.vertices) - 1 if apex_id == rc else len(left.vertices))

    new_chains = [c for i, c in enumerate(chains)
                  if i not in (cand.left_chain, cand.right_chain)]
    new_chains.append(merged)
    new_chains.sort(key=lambda c: mesh.vertices[c.left_corner, 0])
    for pit_id, chain in enumerate(new_chains):
        chain.pit_id = pit_id
    event = MergeEvent(left.pit_id, right.pit_id, int(apex_id), int(moved_id),
                       (float(apex_point[0]), float(apex_point[1])),
                       cand.gap_length)
    logger.info("merged pits %d and %d at x=%.3f (gap %.3g)", left.pit_id,
                right.pit_id, apex_point[0], cand.gap_length)
    return new_chains, event


def pit_area(mesh: TriMesh, chain: PitChain) -> float:
    """Cavity area enclosed between the chain and the surface y = 0."""
    p = chain.positions(mesh)
    x, y = p[:, 0], p[:, 1]
    # the closing run along y = 0 contributes nothing
    shoelace = np.sum(x[:-1] * y[1:] - x[1:] * y[:-1])
    return abs(0.5 * shoelace)
