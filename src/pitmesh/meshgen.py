"""Initial mesh construction for the rectangle-plus-pits electrolyte domain.

The electrolyte occupies a rectangle above the metal surface y = 0 plus
semi-elliptical pit cavities carved below it.  Boundary nodes are laid out
with spacing graded from the pit-chain spacing up to the target edge
length, a near-uniform square lattice fills the interior, and a Delaunay
triangulation is clipped to the domain polygon.  The triangulation must
reproduce every polygon edge; anything else raises MeshGenError.

Lattice points and cell centroids at y >= 0 lie in the rectangle, so the
clipping tests only those below y = 0, against the pit edges alone and in
fixed-size blocks: memory grows linearly with the mesh.  Every bottom and
pit edge lies at y <= 0, so the lattice's clearance from the polygon is
measured only on the points near y = 0, a side wall or the top; the rest
lie farther than the clearance from every edge.

A short bottom segment between two pits is kept as a single edge (no
interior nodes): pit corners are pinned during mesh motion, so nodes
placed in a closing gap could never leave it, and the merge procedure
expects one edge between the facing corners.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np
from scipy.spatial import Delaunay

from .mesh import (_DISTANCE_BLOCK, _KEPT_SLACK, BoundaryTag, PitChain,
                   TriMesh, nearest_segment_distances, validate)

logger = logging.getLogger("pitmesh.meshgen")

# inter-pit gaps shorter than this (micrometers) stay one bottom edge
_GAP_SINGLE_EDGE = 3.0
# boundary node spacing grows by this much per unit length away from a pit
_GRADING_RATE = 0.5


class MeshGenError(Exception):
    """Degenerate geometry or non-conforming triangulation."""


@dataclass
class DomainSpec:
    xmin: float = -20.0   # micrometers; metal surface is y = 0
    xmax: float = 20.0
    height: float = 20.0

    def validate(self) -> None:
        if self.xmax <= self.xmin or self.height <= 0.0:
            raise ValueError("domain must have positive width and height")


@dataclass
class PitSpec:
    centers: tuple = (0.0,)  # pit centers on y = 0
    width: float = 10.0      # full mouth width, micrometers
    depth: float = 5.0
    nodes: int = 61          # chain vertices per pit, corners included

    def validate(self) -> None:
        if self.width <= 0.0 or self.depth <= 0.0:
            raise ValueError("pit width and depth must be positive")
        if self.nodes < 5:
            raise ValueError("pit chain needs at least 5 vertices")
        if len(self.centers) < 1:
            raise ValueError("need at least one pit")
        if sorted(self.centers) != list(self.centers):
            raise ValueError("pit centers must be sorted left to right")


def _graded_points(length: float, s_start: float, s_end: float,
                   h: float) -> np.ndarray:
    """Interior division points of [0, L], spacing graded between the ends.

    Spacing starts at s_start, ends at s_end, grows toward h at rate
    _GRADING_RATE per unit length; the march is rescaled to land exactly
    on L.
    """
    if length <= 0.618 * (s_start + s_end):
        return np.empty(0)
    knots = [0.0]
    t = 0.0
    while t < length:
        s = min(h, s_start + _GRADING_RATE * t,
                s_end + _GRADING_RATE * (length - t))
        t += max(s, 1e-12)
        knots.append(t)
    knots = np.asarray(knots) * (length / knots[-1])
    return knots[1:-1]


def _segment_nodes(a, b, s_start, s_end, h):
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    length = float(np.linalg.norm(b - a))
    ts = _graded_points(length, s_start, s_end, h)
    return a + (b - a) * (ts / length)[:, None] if len(ts) else np.empty((0, 2))


def _pit_chain_points(center: float, width: float, depth: float, n: int) -> np.ndarray:
    theta = np.pi * (1.0 - np.arange(n) / (n - 1))
    x = center + 0.5 * width * np.cos(theta)
    y = -depth * np.sin(theta)
    y[0] = 0.0
    y[-1] = 0.0
    return np.column_stack((x, y))


def points_in_domain(points: np.ndarray, a: np.ndarray,
                     b: np.ndarray) -> np.ndarray:
    """Whether each point lies in the domain whose pit edges run a -> b.

    The points are lattice points or triangle centroids, which lie within
    the rectangle's sides and below its top, so a point at y >= 0 is in
    the rectangle.  Below y = 0 no rectangle edge crosses a horizontal
    line, so the even-odd rule counts the pit edges crossing the ray to
    each point's right.  The count runs blockwise, so memory stays
    linear in the points.
    """
    inside = points[:, 1] >= 0.0
    below = np.flatnonzero(~inside)
    x1, y1 = a[:, 0], a[:, 1]
    y2 = b[:, 1]
    dx = b[:, 0] - x1
    denom = np.where(y2 != y1, y2 - y1, 1.0)
    for start in range(0, len(below), _DISTANCE_BLOCK):
        idx = below[start:start + _DISTANCE_BLOCK]
        x = points[idx, 0, None]
        y = points[idx, 1, None]
        crosses = (y1 <= y) != (y2 <= y)
        x_hit = x1 + (y - y1) * dx / denom
        inside[idx] = np.count_nonzero(crosses & (x < x_hit), axis=1) % 2 == 1
    return inside


def _polygon(domain: DomainSpec, pits: PitSpec, h: float):
    """CCW boundary loop with per-edge tags and pit chain index ranges.

    Returns (points, tags, chain_ranges, gap_edges) where tags[k]
    labels the edge from point k to point k+1 (cyclic) and gap_edges lists
    (midpoint, length) of single-edge inter-pit gaps.
    """
    half = 0.5 * pits.width
    corners = [(c - half, c + half) for c in pits.centers]
    for (_, r1), (l2, _) in zip(corners, corners[1:]):
        if r1 >= l2:
            raise MeshGenError(f"pits overlap: corners {r1:g} and {l2:g}")
    if corners[0][0] <= domain.xmin or corners[-1][1] >= domain.xmax:
        raise MeshGenError("pit extends to or beyond the domain sides")

    pts, tags = [], []
    chain_ranges = []
    gap_edges = []

    def add(point, tag):
        pts.append(np.asarray(point, dtype=np.float64))
        tags.append(int(tag))

    def add_many(arr, tag):
        for q in arr:
            add(q, tag)

    chain0 = _pit_chain_points(pits.centers[0], pits.width, pits.depth, pits.nodes)
    s_chain = float(np.linalg.norm(chain0[1] - chain0[0]))

    # loop starts at the bottom-right rectangle corner and runs CCW
    add((domain.xmax, 0.0), BoundaryTag.RIGHT)
    add_many(_segment_nodes((domain.xmax, 0.0), (domain.xmax, domain.height),
                            h, h, h), BoundaryTag.RIGHT)
    add((domain.xmax, domain.height), BoundaryTag.TOP)
    add_many(_segment_nodes((domain.xmax, domain.height),
                            (domain.xmin, domain.height), h, h, h), BoundaryTag.TOP)
    add((domain.xmin, domain.height), BoundaryTag.LEFT)
    add_many(_segment_nodes((domain.xmin, domain.height), (domain.xmin, 0.0),
                            h, h, h), BoundaryTag.LEFT)
    add((domain.xmin, 0.0), BoundaryTag.BOTTOM)
    add_many(_segment_nodes((domain.xmin, 0.0), (corners[0][0], 0.0),
                            h, s_chain, h), BoundaryTag.BOTTOM)
    for pid, _center in enumerate(pits.centers):
        chain = _pit_chain_points(pits.centers[pid], pits.width, pits.depth,
                                  pits.nodes)
        start = len(pts)
        add_many(chain[:-1], BoundaryTag.PIT)
        chain_ranges.append((start, start + pits.nodes))
        right = corners[pid][1]
        add((right, 0.0), BoundaryTag.BOTTOM)
        if pid + 1 < len(pits.centers):
            nxt = corners[pid + 1][0]
            gap = nxt - right
            if gap < _GAP_SINGLE_EDGE:
                gap_edges.append((np.array([0.5 * (right + nxt), 0.0]), gap))
            else:
                add_many(_segment_nodes((right, 0.0), (nxt, 0.0),
                                        s_chain, s_chain, h), BoundaryTag.BOTTOM)
        else:
            add_many(_segment_nodes((right, 0.0), (domain.xmax, 0.0),
                                    s_chain, h, h), BoundaryTag.BOTTOM)
    points = np.vstack(pts)
    return points, np.asarray(tags), chain_ranges, gap_edges


def _interior_lattice(domain: DomainSpec, pits: PitSpec, poly: np.ndarray,
                      pit_edges: tuple, h: float, seed: int,
                      gap_edges) -> np.ndarray:
    rng = np.random.default_rng(seed)
    xs = np.arange(domain.xmin + 0.6 * h, domain.xmax - 0.55 * h, h)
    ys = np.arange(-pits.depth + 0.6 * h, domain.height - 0.55 * h, h)
    gx, gy = np.meshgrid(xs, ys)
    pts = np.column_stack((gx.ravel(), gy.ravel()))
    pts += rng.uniform(-0.01 * h, 0.01 * h, size=pts.shape)
    pts = pts[points_in_domain(pts, *pit_edges)]
    # a point clear of y = 0, the side walls and the top by more than
    # 0.55 h is that far from every polygon edge; the rounding margin keeps
    # every point whose computed distance could fall below 0.55 h.  The
    # distance kernel works point by point, so the candidates' distances
    # equal those of a call on all the points bit for bit
    reach = 0.55 * h + _KEPT_SLACK * max(float(np.abs(poly).max()), 1.0)
    x, y = pts[:, 0], pts[:, 1]
    near = np.flatnonzero((y < reach) | (y > domain.height - reach)
                          | (x < domain.xmin + reach)
                          | (x > domain.xmax - reach))
    dist = nearest_segment_distances(pts[near], poly, np.roll(poly, -1, axis=0))
    keep = np.ones(len(pts), dtype=bool)
    keep[near] = dist >= 0.55 * h
    pts = pts[keep]
    # a bare gap edge only stays in the Delaunay triangulation if its
    # diametral circle is empty, so clear the lattice above it
    for mid, gap in gap_edges:
        d = np.hypot(pts[:, 0] - mid[0], pts[:, 1] - mid[1])
        pts = pts[d >= 0.55 * gap + 0.3 * h]
    return pts


def build_initial_mesh(domain: DomainSpec, pits: PitSpec, target_h: float = 0.7,
                       seed: int = 0):
    """Triangulate the domain; returns (TriMesh, chains, polygon)."""
    domain.validate()
    pits.validate()
    if target_h <= 0.0:
        raise ValueError("target_h must be positive")
    poly, edge_tags, chain_ranges, gap_edges = _polygon(domain, pits, target_h)
    pit = edge_tags == BoundaryTag.PIT
    pit_edges = (poly[pit], np.roll(poly, -1, axis=0)[pit])
    interior = _interior_lattice(domain, pits, poly, pit_edges, target_h, seed,
                                 gap_edges)
    points = np.vstack((poly, interior))

    tri = Delaunay(points)
    cells = tri.simplices.astype(np.int32)
    cent = points[cells].mean(axis=1)
    cells = cells[points_in_domain(cent, *pit_edges)]

    n_poly = len(poly)
    loop = np.column_stack(
        (np.arange(n_poly), (np.arange(n_poly) + 1) % n_poly)).astype(np.int32)
    mesh = TriMesh(points, cells, loop, edge_tags.astype(np.int16))
    mesh.orient_ccw()
    report = validate(mesh)
    if not report.ok:
        raise MeshGenError(f"initial mesh invalid: {report.summary()}")

    chains = [PitChain(pid, np.arange(a, b, dtype=np.int32))
              for pid, (a, b) in enumerate(chain_ranges)]
    logger.info("initial mesh: %d vertices, %d triangles, %d pit(s)",
                mesh.n_vertices, mesh.n_triangles, len(chains))
    return mesh, chains, poly
