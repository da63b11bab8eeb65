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

# the chain checks' tolerance on the y = 0 surface, micrometers
_CHAIN_Y_TOL = 1e-9
# points per block of nearest_segment_distances and NearestSegments' rows
_DISTANCE_BLOCK = 256
# NearestSegments: segments on either side of a point's nearest one that
# each call computes, and its rounding margin relative to the largest
# coordinate, which meshgen's lattice clearance test also takes
_KEPT_WINDOW = 2
_KEPT_SLACK = 1e-9


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

    Corners sit on y = 0; interior vertices lie below.  The mesh's Pit
    tags hold the same paths, so chains_from_tags rebuilds the chains.
    """

    pit_id: int
    vertices: np.ndarray  # (n,) int vertex indices, corners included

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
        return PitChain(self.pit_id, self.vertices.copy())


def corner_index(triangles: np.ndarray) -> np.ndarray:
    """Flat index of every cell corner coordinate, (2, 3, nt).

    Entry [c, k, t] indexes coordinate c of corner k of cell t in the
    raveled (nv, 2) positions, so one np.take gathers every corner of
    every cell and one np.bincount scatters per-corner values back.
    """
    out = np.empty((2, 3, len(triangles)), dtype=np.intp)
    np.multiply(triangles.T, 2, out=out[0])
    np.add(out[0], 1, out=out[1])
    return out


@dataclass
class TriMesh:
    """Triangulation with tagged boundary edges.

    vertices (nv,2) float64; triangles (nt,3) int32, counterclockwise;
    edge_nodes (ne,2) int32; edge_tags (ne,) BoundaryTag values.  Which
    pit owns a PIT edge is recorded only by the PitChains.
    """

    vertices: np.ndarray
    triangles: np.ndarray
    edge_nodes: np.ndarray
    edge_tags: np.ndarray

    def __post_init__(self):
        self.vertices = np.ascontiguousarray(self.vertices, dtype=np.float64)
        self.triangles = np.ascontiguousarray(self.triangles, dtype=np.int32)
        self.edge_nodes = np.ascontiguousarray(self.edge_nodes, dtype=np.int32)
        self.edge_tags = np.ascontiguousarray(self.edge_tags, dtype=np.int16)

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    @property
    def n_triangles(self) -> int:
        return len(self.triangles)

    def signed_areas(self) -> np.ndarray:
        (x0, x1, x2), (y0, y1, y2) = np.take(self.vertices.ravel(),
                                             corner_index(self.triangles))
        return 0.5 * ((x1 - x0) * (y2 - y0) - (y1 - y0) * (x2 - x0))

    def orient_ccw(self) -> int:
        """Swap two indices of every clockwise cell; returns the flip count."""
        bad = self.signed_areas() < 0
        n = int(bad.sum())
        if n:
            self.triangles[bad] = self.triangles[bad][:, [0, 2, 1]]
        return n

    def edge_counts(self) -> tuple:
        """Undirected triangle edges (E,2), sorted pairs, and cells per edge."""
        t = self.triangles
        pairs = np.concatenate([t[:, [0, 1]], t[:, [1, 2]], t[:, [2, 0]]])
        pairs = np.sort(pairs, axis=1).astype(np.int64)
        # one int64 key per pair sorts as the pairs do, and np.unique on
        # it is much faster than on rows
        base = int(pairs.max()) + 1 if pairs.size else 1
        keys, counts = np.unique(pairs[:, 0] * base + pairs[:, 1],
                                 return_counts=True)
        edges = np.column_stack(np.divmod(keys, base)).astype(t.dtype)
        return edges, counts

    def unique_edges(self) -> np.ndarray:
        """All undirected triangle edges, (E,2) with sorted vertex pairs."""
        return self.edge_counts()[0]

    def edge_lengths(self, edges: Optional[np.ndarray] = None) -> np.ndarray:
        if edges is None:
            edges = self.unique_edges()
        d = self.vertices[edges[:, 0]] - self.vertices[edges[:, 1]]
        return np.hypot(d[:, 0], d[:, 1])

    def copy(self) -> "TriMesh":
        return TriMesh(self.vertices.copy(), self.triangles.copy(),
                       self.edge_nodes.copy(), self.edge_tags.copy())


@dataclass
class VertexRoles:
    """Boundary-motion constraints derived from edge tags."""

    pinned: np.ndarray   # pit-chain vertices and rectangle corners
    slide_x: np.ndarray  # top/bottom vertices, move in x only
    slide_y: np.ndarray  # left/right vertices, move in y only


def vertex_roles(mesh: TriMesh) -> VertexRoles:
    # on[tag, v]: vertex v ends an edge tagged tag, set by one scatter
    on = np.zeros((len(BoundaryTag), mesh.n_vertices), dtype=bool)
    on[np.repeat(mesh.edge_tags, 2), mesh.edge_nodes.ravel()] = True
    rect = on[[BoundaryTag.TOP, BoundaryTag.LEFT, BoundaryTag.RIGHT,
               BoundaryTag.BOTTOM]]
    pinned = on[BoundaryTag.PIT] | (rect.sum(axis=0) >= 2)
    slide_x = (on[BoundaryTag.TOP] | on[BoundaryTag.BOTTOM]) & ~pinned
    slide_y = (on[BoundaryTag.LEFT] | on[BoundaryTag.RIGHT]) & ~pinned
    return VertexRoles(pinned, slide_x, slide_y)


def vertex_normals(mesh: TriMesh, chain: PitChain) -> np.ndarray:
    """Outward (into the metal) unit normals (n,2) at a pit chain's vertices.

    Interior vertex normals average the two adjacent edge normals; corner
    vertices take the normal of their single adjacent pit edge.
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
    return vert


def _segment_table(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Per-segment rows (6, n_segs) for _squared_distances.

    The rows are the start (ax, ay), the direction (dx, dy) and the
    direction over squared length (ux, uy).  A segment whose squared
    length is zero or subnormal is a point: its 1/l2 would overflow, so it
    takes 1 in its place.
    """
    dx = b[:, 0] - a[:, 0]
    dy = b[:, 1] - a[:, 1]
    l2 = dx * dx + dy * dy
    inv_l2 = 1.0 / np.where(l2 >= np.finfo(float).tiny, l2, 1.0)
    return np.stack((a[:, 0], a[:, 1], dx, dy, dx * inv_l2, dy * inv_l2))


def _squared_distances(px: np.ndarray, py: np.ndarray, ax: np.ndarray,
                       ay: np.ndarray, dx: np.ndarray, dy: np.ndarray,
                       ux: np.ndarray, uy: np.ndarray) -> np.ndarray:
    """Squared distance from points to segments.

    Either px, py are point columns (n, 1) and the segment rows of
    _segment_table are (n_segs,), every point against every segment, or
    px, py are (n,) and the rows (w, n), each point against its own w
    segments.  Each pair takes the same arithmetic either way.
    """
    # offsets from each segment start, reduced in place to the offsets
    # from the nearest segment point
    wx = px - ax
    wy = py - ay
    t = wx * ux
    tmp = wy * uy
    t += tmp
    np.clip(t, 0.0, 1.0, out=t)
    wx -= np.multiply(t, dx, out=tmp)
    wy -= np.multiply(t, dy, out=tmp)
    wx *= wx
    wy *= wy
    wx += wy
    return wx


def point_segment_distances(points: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Euclidean distance from each point to each segment, (n_points, n_segs)."""
    sq = _squared_distances(points[:, 0, None], points[:, 1, None],
                            *_segment_table(a, b))
    return np.sqrt(sq, out=sq)


def _nearest_squared(points: np.ndarray, table: np.ndarray) -> np.ndarray:
    """Squared distance from each point to its nearest segment, (n_points,).

    The per-pair arithmetic runs over blocks of points small enough for
    the (rows, n_segs) temporaries to stay in cache.
    """
    out = np.empty(len(points))
    for start in range(0, len(points), _DISTANCE_BLOCK):
        stop = start + _DISTANCE_BLOCK
        sq = _squared_distances(points[start:stop, 0, None],
                                points[start:stop, 1, None], *table)
        sq.min(axis=1, out=out[start:stop])
    return out


def nearest_segment_distances(points: np.ndarray, a: np.ndarray,
                              b: np.ndarray) -> np.ndarray:
    """Distance from each point to its nearest segment, (n_points,).

    Equal bit for bit to ``point_segment_distances(...).min(axis=1)``:
    the same per-pair arithmetic runs blockwise, and since sqrt is
    monotone the minimum is taken over squared distances.
    """
    out = _nearest_squared(points, _segment_table(a, b))
    return np.sqrt(out, out=out)


class NearestSegments:
    """Each point's nearest segment, kept from call to call.

    A point's row is the dense kernel's row.  Beside the distance it keeps
    the point's window, the _KEPT_WINDOW segments on either side of its
    nearest one (shifted inwards at the ends), the distance to the nearest
    segment outside its window (the runner-up), the point's position and
    the travel at that call.  The travel sums, over calls, the largest
    move of any segment end since the call before.

    A call computes each point's distance to its window alone.  A
    point-to-segment distance moves by at most |p - p_row| when the point
    moves, and by at most the larger of its two end moves when the
    segment does, which the travel since the row bounds.  So every
    segment outside the window is still at least runner_up - |p - p_row|
    - (travel - travel_row) away.  A window minimum at most that, less a
    margin for rounding, is the point's distance; a point that fails the
    test gets its dense row, which is kept.  That holds for any points and
    segments of the row's shapes, so a call equals
    nearest_segment_distances bit for bit.  Every row is computed on the
    first call, when the point or segment count has changed, and when a
    travel is not finite.  The state is O(points + segments).
    """

    def __init__(self):
        self.points = None      # (n, 2) each point where its row was computed
        self.a = self.b = None  # (m, 2) segment ends at the last call
        self.window = None      # (w, n) segment indices of each window
        self.runner_up = None   # (n,) distance outside the window
        self.travel = 0.0       # summed largest segment-end moves
        self.at = None          # (n,) travel when each row was computed
        self.scale = 0.0        # largest coordinate since every row was
        self.references = 0     # calls that computed every row
        self.dense_rows = 0     # rows that failed the test

    def distances(self, points: np.ndarray, a: np.ndarray,
                  b: np.ndarray) -> np.ndarray:
        """nearest_segment_distances(points, a, b), from the kept state."""
        table = _segment_table(a, b)
        every = (self.points is None or self.points.shape != points.shape
                 or self.a.shape != a.shape)
        if not every:
            self.travel += max(_largest_move(a, self.a),
                               _largest_move(b, self.b))
            every = not np.isfinite(self.travel)
        self.a, self.b = a.copy(), b.copy()
        if every:
            n = len(points)
            self.window = np.empty((min(2 * _KEPT_WINDOW + 1, len(a)), n),
                                   dtype=np.intp)
            self.points, self.runner_up = np.empty((n, 2)), np.empty(n)
            self.travel, self.at = 0.0, np.empty(n)
            self.scale = _largest_coordinate(points, a, b)
            self.references += 1
            return self._renew(np.arange(n), points, table)
        self.scale = max(self.scale, _largest_coordinate(points, a, b))
        sq = _squared_distances(points[:, 0], points[:, 1],
                                *np.take(table, self.window, axis=1)).min(axis=0)
        dist = np.sqrt(sq, out=sq)
        moved = points - self.points
        moved = np.hypot(moved[:, 0], moved[:, 1])
        # a NaN anywhere fails the test
        fail = ~(dist <= self.runner_up - moved - (
            self.travel - self.at + _KEPT_SLACK * max(self.scale, 1.0)))
        rows = np.flatnonzero(fail)
        if len(rows):
            self.dense_rows += len(rows)
            dist[rows] = self._renew(rows, points, table)
        return dist

    def _renew(self, rows: np.ndarray, points: np.ndarray,
               table: np.ndarray) -> np.ndarray:
        """Compute and keep the rows of the points indexed by rows.

        Returns their distances.  The dense rows run in blocks of
        _DISTANCE_BLOCK points, as nearest_segment_distances does.
        """
        out = np.empty(len(rows))
        width = len(self.window)
        for start in range(0, len(rows), _DISTANCE_BLOCK):
            block = rows[start:start + _DISTANCE_BLOCK]
            p = points[block]
            sq = _squared_distances(p[:, 0, None], p[:, 1, None], *table)
            span = np.arange(len(block))
            nearest = sq.argmin(axis=1)
            out[start:start + len(block)] = sq[span, nearest]
            first = np.clip(nearest - _KEPT_WINDOW, 0, sq.shape[1] - width)
            window = first[:, None] + np.arange(width)
            self.window[:, block] = window.T
            sq[span[:, None], window] = np.inf
            self.runner_up[block] = np.sqrt(sq.min(axis=1))
            self.points[block] = p
            self.at[block] = self.travel
        return np.sqrt(out, out=out)


def _largest_move(now: np.ndarray, ref: np.ndarray) -> float:
    d = now - ref
    return float(np.max(np.hypot(d[:, 0], d[:, 1]), initial=0.0))


def _largest_coordinate(*arrays: np.ndarray) -> float:
    return max(float(np.max(np.abs(x), initial=0.0)) for x in arrays)


def min_distance_to_pit(points: np.ndarray, chains: Sequence[PitChain],
                        mesh: TriMesh,
                        kept: Optional[NearestSegments] = None) -> np.ndarray:
    """Minimum point-to-segment distance to any pit boundary.

    Takes a stack of points (n, 2) and returns their (n,) distances.
    With kept, the call starts from the nearest segments that state keeps
    and updates it; without, a fresh NearestSegments computes every row.
    Either way the distances equal nearest_segment_distances bit for bit.
    """
    if not chains:
        raise MeshError("min_distance_to_pit needs at least one chain")
    pts = np.asarray(points, dtype=np.float64)
    segs_a, segs_b = [], []
    for chain in chains:
        p = chain.positions(mesh)
        segs_a.append(p[:-1])
        segs_b.append(p[1:])
    a, b = np.concatenate(segs_a), np.concatenate(segs_b)
    if kept is None:
        kept = NearestSegments()
    return kept.distances(pts, a, b)


def _box_overlap_pairs(a: np.ndarray, b: np.ndarray) -> tuple:
    """Segment pairs (i < j) whose closed bounding boxes overlap.

    A sweep on x (Shamos and Hoey 1976): after sorting the segments by
    their left x, segment k meets in x exactly the later segments whose
    left x is at most its right x, a contiguous run of the sorted order.
    """
    x0, x1 = np.minimum(a[:, 0], b[:, 0]), np.maximum(a[:, 0], b[:, 0])
    y0, y1 = np.minimum(a[:, 1], b[:, 1]), np.maximum(a[:, 1], b[:, 1])
    order = np.argsort(x0)
    # sorted position k meets positions k + 1 .. stop[k] - 1 in x
    after = np.arange(1, len(order) + 1)
    runs = np.searchsorted(x0[order], x1[order], side="right") - after
    run_start = np.cumsum(runs) - runs
    lo = np.repeat(order, runs)
    hi = order[np.arange(runs.sum()) + np.repeat(after - run_start, runs)]
    i, j = np.minimum(lo, hi), np.maximum(lo, hi)
    keep = (y0[i] <= y1[j]) & (y0[j] <= y1[i])
    return i[keep], j[keep]


def polyline_crossings(p: np.ndarray) -> np.ndarray:
    """Index pairs of non-adjacent segments of the open polyline that cross.

    Pairs come sorted by (i, j), i < j.  Only segments whose bounding
    boxes overlap can cross, so the exact test runs on those alone.
    """
    n = len(p) - 1
    if n < 3:
        return np.empty((0, 2), dtype=np.int64)
    a, b = p[:-1], p[1:]
    i, j = _box_overlap_pairs(a, b)
    apart = j >= i + 2
    i, j = i[apart], j[apart]
    r = b[i] - a[i]
    s = b[j] - a[j]
    d1 = cross2(r, a[j] - a[i])
    d2 = cross2(r, b[j] - a[i])
    d3 = cross2(s, a[i] - a[j])
    d4 = cross2(s, b[i] - a[j])
    hit = (d1 * d2 < 0) & (d3 * d4 < 0)
    pairs = np.column_stack((i[hit], j[hit]))
    return pairs[np.lexsort((pairs[:, 1], pairs[:, 0]))]


def polyline_self_intersects(p: np.ndarray) -> bool:
    """True if any two non-adjacent segments of the open polyline cross."""
    return len(polyline_crossings(p)) > 0


def chain_corner_problems(mesh: TriMesh, chain: PitChain) -> list:
    """A problem string unless both chain corners sit on y = 0 at a finite x."""
    p = mesh.vertices[chain.vertices[[0, -1]]]
    if np.all(np.isfinite(p[:, 0]) & (np.abs(p[:, 1]) <= _CHAIN_Y_TOL)):
        return []
    return [f"pit {chain.pit_id}: corner not on y=0"]


def chain_interior_problems(mesh: TriMesh, chain: PitChain) -> list:
    """A problem string for each interior chain vertex above y = 0."""
    y = mesh.vertices[chain.vertices[1:-1], 1]
    # a merge leaves the ridge apex on y = 0 until the next step advances it
    above = chain.vertices[1:-1][~(y <= _CHAIN_Y_TOL)]
    return [f"pit {chain.pit_id}: interior vertex {v} above y=0" for v in above]


def chain_tag_problems(mesh: TriMesh, chain: PitChain) -> list:
    """Problem strings for chain edges not tagged Pit and surplus Pit edges.

    Every PIT edge that touches a chain vertex counts as the chain's own,
    so a vertex shared with another chain shows up as a surplus edge.
    """
    problems = []
    # one int64 key per undirected edge, lower vertex first
    base = np.int64(mesh.n_vertices)
    pit_edges = mesh.edge_nodes[mesh.edge_tags == BoundaryTag.PIT]
    pit_edges = pit_edges[np.isin(pit_edges, chain.vertices).any(axis=1)]
    tagged = np.unique(pit_edges.min(axis=1) * base + pit_edges.max(axis=1))
    u, v = chain.vertices[:-1], chain.vertices[1:]
    untagged = ~np.isin(np.minimum(u, v) * base + np.maximum(u, v), tagged)
    for a, b in zip(u[untagged], v[untagged]):
        problems.append(f"pit {chain.pit_id}: edge ({a},{b}) not tagged Pit")
    if len(tagged) != chain.n_vertices - 1:
        problems.append(f"pit {chain.pit_id}: tagged edge count {len(tagged)} "
                        f"!= chain edge count {chain.n_vertices - 1}")
    return problems


def validate_chain(mesh: TriMesh, chain: PitChain) -> list:
    """Check PitChain invariants; returns a list of problem strings.

    Checks the corners on y = 0, the interior below it and the Pit tags.
    Self-crossings are not checked here: each front function that moves
    chain vertices tests the chains it moved, and checks the parts of
    these invariants that it can break.
    """
    return (chain_corner_problems(mesh, chain)
            + chain_interior_problems(mesh, chain)
            + chain_tag_problems(mesh, chain))


@dataclass
class ValidationReport:
    inverted_cells: list = field(default_factory=list)
    boundary_errors: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not (self.inverted_cells or self.boundary_errors)

    def summary(self) -> str:
        if self.ok:
            return "mesh valid"
        lines = []
        if self.inverted_cells:
            lines.append(f"inverted cells: {self.inverted_cells[:10]}")
        lines.extend(self.boundary_errors[:10])
        return "; ".join(lines)


def validate(mesh: TriMesh) -> ValidationReport:
    """Check TriMesh invariants; reports every violation, never raises."""
    report = ValidationReport()
    areas = mesh.signed_areas()
    report.inverted_cells = np.where(areas <= 0.0)[0].tolist()

    uniq, counts = mesh.edge_counts()
    derived = {tuple(e) for e in uniq[counts == 1].tolist()}
    over = {tuple(e) for e in uniq[counts > 2].tolist()}
    for e in sorted(over):
        report.boundary_errors.append(f"edge {e} shared by >2 cells")

    tagged = [tuple(sorted(e)) for e in mesh.edge_nodes.tolist()]
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
    return report


def chains_from_tags(mesh: TriMesh) -> list:
    """One PitChain per path of PIT edges, each walked from its left end.

    Chains are numbered from 0 in left-corner order, the order the front
    keeps them in.  Branching or closed PIT paths raise MeshError.
    """
    adj: dict = {}
    for u, v in mesh.edge_nodes[mesh.edge_tags == BoundaryTag.PIT].tolist():
        adj.setdefault(u, []).append(v)
        adj.setdefault(v, []).append(u)
    branch = [v for v, nb in adj.items() if len(nb) > 2]
    if branch:
        raise MeshError(f"Pit edges branch at vertex {branch[0]}")
    # a path is met first at its left end
    ends = sorted((v for v, nb in adj.items() if len(nb) == 1),
                  key=lambda v: mesh.vertices[v, 0])
    chains = []
    walked = set()
    for start in ends:
        if start in walked:
            continue
        order = [start]
        prev = None
        while True:
            nxt = [v for v in adj[order[-1]] if v != prev]
            if not nxt:
                break
            prev = order[-1]
            order.append(nxt[0])
        walked.update(order)
        chains.append(PitChain(len(chains), np.array(order, dtype=np.int32)))
    if len(walked) != len(adj):
        raise MeshError("Pit edges close into a loop")
    return chains
