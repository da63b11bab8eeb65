"""Triangular mesh container, boundary tagging, and geometric queries.

Coordinates are micrometers throughout. The mesh topology (vertex count,
triangle count, connectivity) is fixed for the lifetime of a simulation
run; only vertex positions and boundary-edge tags evolve.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np


class MeshError(Exception):
    """Invalid mesh topology or degenerate geometry."""


def cross2(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """z-component of the cross product of stacked 2D vectors."""
    a = np.asarray(a)
    b = np.asarray(b)
    return a[..., 0] * b[..., 1] - a[..., 1] * b[..., 0]


class BoundaryTag(enum.IntEnum):
    TOP = 0
    LEFT = 1
    RIGHT = 2
    BOTTOM = 3
    PIT = 4


@dataclass
class PitChain:
    """Ordered pit-boundary vertex indices, left corner to right corner.

    Corners sit on y = 0; interior vertices lie below.  ``apex_pos`` marks
    the ridge vertex created by a pit merge (position within ``vertices``),
    which is advanced by wall extrapolation instead of normal motion.
    """

    pit_id: int
    vertices: np.ndarray  # (n,) int vertex indices, corners included
    apex_pos: Optional[int] = None

    def __post_init__(self):
        self.vertices = np.asarray(self.vertices, dtype=np.int32)

    @property
    def left_corner(self) -> int:
        return int(self.vertices[0])

    @property
    def right_corner(self) -> int:
        return int(self.vertices[-1])

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    def positions(self, mesh: "TriMesh") -> np.ndarray:
        return mesh.vertices[self.vertices]

    def copy(self) -> "PitChain":
        return PitChain(self.pit_id, self.vertices.copy(), self.apex_pos)


@dataclass
class AffineMap:
    """Affine map from the reference triangle (0,0),(1,0),(0,1) to a cell."""

    jacobian: np.ndarray     # (2,2), micrometers per reference unit
    translation: np.ndarray  # (2,)
    area: float

    def apply(self, ref_points: np.ndarray) -> np.ndarray:
        return ref_points @ self.jacobian.T + self.translation


@dataclass
class TriMesh:
    """Triangulation with tagged boundary edges.

    vertices (nv,2) float64; triangles (nt,3) int32, counterclockwise;
    edge_nodes (ne,2) int32; edge_tags (ne,) BoundaryTag values;
    edge_pits (ne,) pit id for PIT edges, -1 otherwise.
    """

    vertices: np.ndarray
    triangles: np.ndarray
    edge_nodes: np.ndarray
    edge_tags: np.ndarray
    edge_pits: np.ndarray

    def __post_init__(self):
        self.vertices = np.ascontiguousarray(self.vertices, dtype=np.float64)
        self.triangles = np.ascontiguousarray(self.triangles, dtype=np.int32)
        self.edge_nodes = np.ascontiguousarray(self.edge_nodes, dtype=np.int32)
        self.edge_tags = np.ascontiguousarray(self.edge_tags, dtype=np.int16)
        self.edge_pits = np.ascontiguousarray(self.edge_pits, dtype=np.int32)

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    @property
    def n_triangles(self) -> int:
        return len(self.triangles)

    def signed_areas(self) -> np.ndarray:
        p0 = self.vertices[self.triangles[:, 0]]
        p1 = self.vertices[self.triangles[:, 1]]
        p2 = self.vertices[self.triangles[:, 2]]
        return 0.5 * cross2(p1 - p0, p2 - p0)

    def orient_ccw(self) -> int:
        """Swap two indices of every clockwise cell; returns the flip count."""
        bad = self.signed_areas() < 0
        n = int(bad.sum())
        if n:
            self.triangles[bad] = self.triangles[bad][:, [0, 2, 1]]
        return n

    def unique_edges(self) -> np.ndarray:
        """All undirected triangle edges, (E,2) with sorted vertex pairs."""
        t = self.triangles
        pairs = np.concatenate([t[:, [0, 1]], t[:, [1, 2]], t[:, [2, 0]]])
        pairs = np.sort(pairs, axis=1)
        return np.unique(pairs, axis=0)

    def edge_lengths(self, edges: Optional[np.ndarray] = None) -> np.ndarray:
        if edges is None:
            edges = self.unique_edges()
        d = self.vertices[edges[:, 0]] - self.vertices[edges[:, 1]]
        return np.hypot(d[:, 0], d[:, 1])

    def copy(self) -> "TriMesh":
        return TriMesh(self.vertices.copy(), self.triangles.copy(),
                       self.edge_nodes.copy(), self.edge_tags.copy(),
                       self.edge_pits.copy())


@dataclass
class VertexRoles:
    """Boundary-motion constraints derived from edge tags."""

    pinned: np.ndarray   # pit-chain vertices and rectangle corners
    slide_x: np.ndarray  # top/bottom vertices, move in x only
    slide_y: np.ndarray  # left/right vertices, move in y only


def vertex_roles(mesh: TriMesh) -> VertexRoles:
    nv = mesh.n_vertices
    on = {tag: np.zeros(nv, dtype=bool) for tag in BoundaryTag}
    for tag in BoundaryTag:
        sel = mesh.edge_tags == tag
        on[tag][mesh.edge_nodes[sel].ravel()] = True
    rect = [on[BoundaryTag.TOP], on[BoundaryTag.LEFT],
            on[BoundaryTag.RIGHT], on[BoundaryTag.BOTTOM]]
    n_rect_tags = sum(m.astype(np.int8) for m in rect)
    corners = n_rect_tags >= 2
    pinned = on[BoundaryTag.PIT] | corners
    slide_x = (on[BoundaryTag.TOP] | on[BoundaryTag.BOTTOM]) & ~pinned
    slide_y = (on[BoundaryTag.LEFT] | on[BoundaryTag.RIGHT]) & ~pinned
    return VertexRoles(pinned, slide_x, slide_y)


def affine_map(mesh: TriMesh, cell: int) -> AffineMap:
    """Affine map of one cell; raises MeshError for degenerate cells."""
    v = mesh.vertices[mesh.triangles[cell]]
    jac = np.column_stack((v[1] - v[0], v[2] - v[0]))
    det = jac[0, 0] * jac[1, 1] - jac[0, 1] * jac[1, 0]
    if det <= 0.0:
        raise MeshError(f"inverted or degenerate cell {cell}: det(F') = {det:g}")
    return AffineMap(jacobian=jac, translation=v[0].copy(), area=0.5 * det)


def face_and_vertex_normals(mesh: TriMesh, chain: PitChain):
    """Outward (into the metal) unit normals along a pit chain.

    Returns (face_normals (n-1,2), vertex_normals (n,2)).  Interior vertex
    normals average the two adjacent face normals; corner vertices take
    the normal of their single adjacent pit edge.
    """
    p = chain.positions(mesh)
    if len(p) < 3:
        raise MeshError(f"pit chain {chain.pit_id} needs at least 2 edges")
    d = np.diff(p, axis=0)
    lengths = np.hypot(d[:, 0], d[:, 1])
    if np.any(lengths <= 0.0):
        k = int(np.argmin(lengths))
        raise MeshError(f"zero-length pit edge at chain position {k}")
    t = d / lengths[:, None]
    face = np.column_stack((t[:, 1], -t[:, 0]))  # rotate -90deg: metal side
    vert = np.empty_like(p)
    vert[0] = face[0]
    vert[-1] = face[-1]
    mid = face[:-1] + face[1:]
    norms = np.hypot(mid[:, 0], mid[:, 1])
    # antiparallel faces (a fully collapsed notch) leave no average
    # direction; fall back to the longer edge's normal there
    folded = norms <= 1e-8
    if np.any(folded):
        pick = np.where(lengths[:-1] >= lengths[1:], np.arange(len(mid)),
                        np.arange(1, len(mid) + 1))
        mid[folded] = face[pick[folded]]
        norms[folded] = 1.0
    vert[1:-1] = mid / norms[:, None]
    return face, vert


def point_segment_distances(points: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Euclidean distance from each point to each segment, (n_points, n_segs)."""
    dx = b[:, 0] - a[:, 0]
    dy = b[:, 1] - a[:, 1]
    l2 = dx * dx + dy * dy
    inv_l2 = 1.0 / np.where(l2 > 0.0, l2, 1.0)
    # per-coordinate (n_points, n_segs) offsets from each segment start,
    # reduced in place to the offsets from the nearest segment point
    wx = points[:, 0, None] - a[:, 0]
    wy = points[:, 1, None] - a[:, 1]
    t = wx * (dx * inv_l2)
    tmp = wy * (dy * inv_l2)
    t += tmp
    np.clip(t, 0.0, 1.0, out=t)
    wx -= np.multiply(t, dx, out=tmp)
    wy -= np.multiply(t, dy, out=tmp)
    wx *= wx
    wy *= wy
    wx += wy
    return np.sqrt(wx, out=wx)


def min_distance_to_pit(points: np.ndarray, chains: Sequence[PitChain],
                        mesh: TriMesh) -> np.ndarray:
    """Minimum point-to-segment distance to any pit boundary.

    Accepts a single point (2,) or a stack (n,2); returns matching shape.
    """
    if not chains:
        raise MeshError("min_distance_to_pit needs at least one chain")
    pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
    segs_a, segs_b = [], []
    for chain in chains:
        p = chain.positions(mesh)
        segs_a.append(p[:-1])
        segs_b.append(p[1:])
    dist = point_segment_distances(pts, np.concatenate(segs_a),
                                   np.concatenate(segs_b)).min(axis=1)
    if np.ndim(points) == 1:
        return dist[0]
    return dist


def polyline_crossings(p: np.ndarray) -> np.ndarray:
    """Index pairs of non-adjacent segments of the open polyline that cross."""
    n = len(p) - 1
    if n < 3:
        return np.empty((0, 2), dtype=np.int64)
    a, b = p[:-1], p[1:]
    i, j = np.triu_indices(n, k=2)
    r = b[i] - a[i]
    s = b[j] - a[j]
    d1 = cross2(r, a[j] - a[i])
    d2 = cross2(r, b[j] - a[i])
    d3 = cross2(s, a[i] - a[j])
    d4 = cross2(s, b[i] - a[j])
    hit = (d1 * d2 < 0) & (d3 * d4 < 0)
    return np.column_stack((i[hit], j[hit]))


def polyline_self_intersects(p: np.ndarray) -> bool:
    """True if any two non-adjacent segments of the open polyline cross."""
    return len(polyline_crossings(p)) > 0


def validate_chain(mesh: TriMesh, chain: PitChain, y_tol: float = 1e-9) -> list:
    """Check PitChain invariants; returns a list of problem strings."""
    problems = []
    p = chain.positions(mesh)
    if abs(p[0, 1]) > y_tol or abs(p[-1, 1]) > y_tol:
        problems.append(f"pit {chain.pit_id}: corner not on y=0")
    interior_y = p[1:-1, 1]
    # the post-merge apex may sit exactly on y=0 until it corrodes down
    if np.any(interior_y > y_tol):
        problems.append(f"pit {chain.pit_id}: interior vertex above y=0")
    if polyline_self_intersects(p):
        problems.append(f"pit {chain.pit_id}: chain self-intersects")
    tagged = set()
    sel = (mesh.edge_tags == BoundaryTag.PIT) & (mesh.edge_pits == chain.pit_id)
    for u, v in mesh.edge_nodes[sel]:
        tagged.add((min(u, v), max(u, v)))
    for u, v in zip(chain.vertices[:-1], chain.vertices[1:]):
        if (min(u, v), max(u, v)) not in tagged:
            problems.append(f"pit {chain.pit_id}: edge ({u},{v}) not tagged Pit")
    if len(tagged) != chain.n_vertices - 1:
        problems.append(f"pit {chain.pit_id}: tagged edge count {len(tagged)} "
                        f"!= chain edge count {chain.n_vertices - 1}")
    return problems


@dataclass
class ValidationReport:
    inverted_cells: list = field(default_factory=list)
    boundary_errors: list = field(default_factory=list)
    tag_errors: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not (self.inverted_cells or self.boundary_errors or self.tag_errors)

    def summary(self) -> str:
        if self.ok:
            return "mesh valid"
        lines = []
        if self.inverted_cells:
            lines.append(f"inverted cells: {self.inverted_cells[:10]}")
        lines.extend(self.boundary_errors[:10])
        lines.extend(self.tag_errors[:10])
        return "; ".join(lines)


def validate(mesh: TriMesh) -> ValidationReport:
    """Check TriMesh invariants; reports every violation, never raises."""
    report = ValidationReport()
    areas = mesh.signed_areas()
    report.inverted_cells = np.where(areas <= 0.0)[0].tolist()

    t = mesh.triangles
    pairs = np.concatenate([t[:, [0, 1]], t[:, [1, 2]], t[:, [2, 0]]])
    pairs = np.sort(pairs, axis=1)
    uniq, counts = np.unique(pairs, axis=0, return_counts=True)
    derived = {tuple(e) for e in uniq[counts == 1]}
    over = {tuple(e) for e in uniq[counts > 2]}
    for e in sorted(over):
        report.boundary_errors.append(f"edge {e} shared by >2 cells")

    tagged = [tuple(sorted(e)) for e in mesh.edge_nodes]
    seen = set()
    for e in tagged:
        if e in seen:
            report.boundary_errors.append(f"edge {e} tagged more than once")
        seen.add(e)
        if e not in derived:
            report.boundary_errors.append(
                f"tagged edge {e} is not a boundary edge of exactly one cell")
    for e in sorted(derived - seen):
        report.boundary_errors.append(f"boundary edge {e} has no tag")

    pit_ids = np.unique(mesh.edge_pits[mesh.edge_tags == BoundaryTag.PIT])
    if len(pit_ids) and not np.array_equal(pit_ids, np.arange(len(pit_ids))):
        report.tag_errors.append(f"pit ids not contiguous from 0: {pit_ids.tolist()}")
    if np.any(mesh.edge_pits[mesh.edge_tags != BoundaryTag.PIT] != -1):
        report.tag_errors.append("non-pit edge carries a pit id")
    return report


def chains_from_tags(mesh: TriMesh) -> list:
    """Rebuild ordered PitChains from tagged edges (left corner first)."""
    chains = []
    pit_sel = mesh.edge_tags == BoundaryTag.PIT
    for pid in np.unique(mesh.edge_pits[pit_sel]):
        edges = mesh.edge_nodes[pit_sel & (mesh.edge_pits == pid)]
        adj: dict = {}
        for u, v in edges:
            adj.setdefault(int(u), []).append(int(v))
            adj.setdefault(int(v), []).append(int(u))
        ends = [v for v, nb in adj.items() if len(nb) == 1]
        if len(ends) != 2:
            raise MeshError(f"pit {pid}: chain is not a simple open path")
        start = min(ends, key=lambda v: mesh.vertices[v, 0])
        order = [start]
        prev = None
        while True:
            nxt = [v for v in adj[order[-1]] if v != prev]
            if not nxt:
                break
            prev = order[-1]
            order.append(nxt[0])
        if len(order) != len(adj):
            raise MeshError(f"pit {pid}: disconnected chain")
        chains.append(PitChain(int(pid), np.array(order, dtype=np.int32)))
    chains.sort(key=lambda c: c.pit_id)
    return chains
