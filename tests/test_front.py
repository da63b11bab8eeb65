import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from pitmesh import driver
from pitmesh import electrochem as ec
from pitmesh import front
from pitmesh.crystal import Crystal, Homogeneous, orientation_from_axes
from pitmesh.electrochem import ElectroParams
from pitmesh.front import (APPROACH_FACTOR, FrontError, FrontParams,
                           MergeCandidate, advance_pit, capped_dt,
                           chain_velocities, detect_merge, merge_pits,
                           pit_area, update_corners)
from pitmesh.front import _apply_limited, _extrapolate_to_surface
from pitmesh.mesh import (BoundaryTag, PitChain, TriMesh,
                          point_segment_distances, polyline_crossings,
                          validate, validate_chain, vertex_normals)
from pitmesh.meshgen import DomainSpec, PitSpec, build_initial_mesh


@pytest.fixture
def pit_setup():
    mesh, chains, _ = build_initial_mesh(DomainSpec(), PitSpec(nodes=41),
                                         target_h=1.2, seed=0)
    return mesh, chains[0]


@pytest.fixture
def twin_setup():
    mesh, chains, _ = build_initial_mesh(
        DomainSpec(), PitSpec(centers=(-6.0, 6.0), nodes=31), target_h=1.2,
        seed=0)
    return mesh, chains


def uniform_phi(mesh, value=0.0):
    return np.full(mesh.n_vertices, value)


def advance_physical(mesh, chain, material=Homogeneous(-0.24), ep=None,
                     fp=None):
    """advance_pit at the Faraday speeds of a uniform phi = 0."""
    ep = ep or ElectroParams()
    fp = fp or FrontParams()
    vn, normals = chain_velocities(mesh, chain, uniform_phi(mesh), material,
                                   ep)
    advance_pit(mesh, chain, vn, normals, fp.dt)


def advance_with(mesh, chain, speed):
    """advance_pit at the speeds speed(positions, normals) gives."""
    fp = FrontParams()
    normals = vertex_normals(mesh, chain)
    vn = np.asarray(speed(chain.positions(mesh), normals), dtype=np.float64)
    advance_pit(mesh, chain, vn, normals, fp.dt)


def push_vertex_1(pos, normals):
    """10 micrometers/s outward at chain vertex 1, rest at rest."""
    vn = np.zeros(len(pos))
    vn[1] = 10.0
    return vn


class TestAdvance:
    def test_uniform_velocity_grows_semicircle(self, pit_setup):
        mesh, chain = pit_setup
        ep = ElectroParams()
        fp = FrontParams()
        vn = float(ec.normal_velocity(ep, -0.24, 0.0)) * 1e6
        advance_physical(mesh, chain, ep=ep, fp=fp)
        p = chain.positions(mesh)[1:-1]
        radii = np.hypot(p[:, 0], p[:, 1])
        assert np.abs(radii - (5.0 + fp.dt * vn)).max() < 1e-9

    def test_zero_velocity_hook_keeps_chain(self, pit_setup):
        mesh, chain = pit_setup
        zero = lambda pos, normals: np.zeros(len(pos))
        # first call settles the corners onto the wall extrapolation; after
        # that a zero-velocity advance is an exact fixed point
        advance_with(mesh, chain, zero)
        before = chain.positions(mesh).copy()
        advance_with(mesh, chain, zero)
        assert np.array_equal(chain.positions(mesh), before)

    def test_crystal_slow_directions_move_less(self, pit_setup):
        mesh, chain = pit_setup
        mat = Crystal(orientation_from_axes([0, 0, 1], [1, 0, 0]))
        before = chain.positions(mesh).copy()
        advance_physical(mesh, chain, mat)
        moved = np.linalg.norm(chain.positions(mesh) - before, axis=1)
        # slow <011>-type image at 45 degrees, fast <001> at the bottom
        angles = np.rad2deg(np.arctan2(before[:, 0], -before[:, 1]))
        slow = moved[1:-1][np.abs(np.abs(angles[1:-1]) - 45.0) < 6.0]
        fast = moved[1:-1][np.abs(angles[1:-1]) < 6.0]
        assert slow.max() < fast.min()

    def test_adversarial_velocities_cannot_tangle_chain(self, pit_setup):
        # alternating in/out displacements would tangle adjacent segments;
        # the envelope limiter scales the offenders back instead
        from pitmesh.mesh import polyline_self_intersects
        mesh, chain = pit_setup

        def crossing(pos, normals):
            sign = np.where(np.arange(len(pos)) % 2 == 0, 8.0, -8.0)
            return sign / FrontParams().dt

        advance_with(mesh, chain, crossing)
        assert not polyline_self_intersects(chain.positions(mesh))

    def test_bunched_vertices_freeze(self, pit_setup):
        # head-on convergence erodes clearance geometrically and then stops:
        # vertices never pass through the opposite wall
        mesh, chain = pit_setup
        squeeze = lambda pos, normals: np.full(len(pos), -0.5 / FrontParams().dt)
        for _ in range(14):
            advance_with(mesh, chain, squeeze)
        p = chain.positions(mesh)
        from pitmesh.mesh import polyline_self_intersects
        assert not polyline_self_intersects(p)
        seg = np.linalg.norm(np.diff(p, axis=0), axis=1)
        assert seg.min() > 0.0

    def test_corner_induced_crossing_rejected(self, pit_setup):
        # the limiter lets vertex 1 bulge out, and the corner re-seated by
        # extrapolating its wall drags the chain across itself; driver.run,
        # not advance_pit, keeps the state from before the step
        mesh, chain = pit_setup
        with pytest.raises(FrontError, match="self-intersect"):
            for _ in range(12):
                advance_with(mesh, chain, push_vertex_1)

    def test_velocities_match_pointwise_formula(self, pit_setup):
        mesh, chain = pit_setup
        ep = ElectroParams()
        rng = np.random.default_rng(1)
        phi = np.zeros(mesh.n_vertices)
        phi[chain.vertices] = rng.uniform(0, 0.01, chain.n_vertices)
        vn, normals = chain_velocities(mesh, chain, phi, Homogeneous(-0.24),
                                       ep)
        k = chain.n_vertices // 2
        expected = ec.normal_velocity(ep, -0.24, phi[chain.vertices[k]]) * 1e6
        assert vn[k] == pytest.approx(float(expected))


@st.composite
def limiter_cases(draw):
    """A crossing-free chain of 5-30 vertices and a displacement for each.

    The vertices sit at increasing polar angles below 6 rad about the
    origin, so spikes and near-closed loops stand in for merge ridges;
    the few chains that cross anyway, or that have an edge a mesh would
    reject as zero-length, are rejected.
    """
    n = draw(st.integers(5, 30))
    angles = np.sort(draw(st.lists(st.floats(0.0, 6.0), min_size=n,
                                   max_size=n, unique=True)))
    radii = np.array(draw(st.lists(st.floats(0.2, 5.0), min_size=n,
                                   max_size=n)))
    points = radii[:, None] * np.column_stack((np.cos(angles), np.sin(angles)))
    assume(len(polyline_crossings(points)) == 0)
    assume(np.hypot(*np.diff(points, axis=0).T).min() > 0.0)
    disp = np.array(draw(st.lists(st.tuples(st.floats(-3.0, 3.0),
                                            st.floats(-3.0, 3.0)),
                                  min_size=n, max_size=n)))
    return points, disp


class TestLimiter:
    @settings(max_examples=200, deadline=None)
    @given(limiter_cases())
    def test_limited_step_keeps_clearance_and_order(self, case):
        base, disp = case
        # a mesh of the chain's vertices alone
        mesh = TriMesh(base.copy(), np.empty((0, 3)), np.empty((0, 2)),
                       np.empty(0))
        _apply_limited(mesh, PitChain(0, np.arange(len(base))), disp)
        moved = mesh.vertices
        # every vertex ends on its own path, base + f d with f in [0, 1],
        # up to the rounding of base + f d
        sq = np.einsum("ij,ij->i", disp, disp)
        f = np.einsum("ij,ij->i", moved - base, disp) / np.where(sq > 0, sq, 1)
        f = np.clip(f, 0.0, 1.0)
        assert np.allclose(moved, base + f[:, None] * disp, rtol=0, atol=1e-12)
        # each vertex keeps APPROACH_FACTOR of its starting distance to
        # every segment not incident to it
        before = point_segment_distances(base, base[:-1], base[1:])
        after = point_segment_distances(moved, moved[:-1], moved[1:])
        seg = np.arange(len(base) - 1)
        apart = np.ones_like(before, dtype=bool)
        apart[seg, seg] = apart[seg + 1, seg] = False
        assert np.all(after[apart] >= APPROACH_FACTOR * before[apart] - 1e-12)
        assert len(polyline_crossings(moved)) == 0

    def test_step_within_dt_cap_is_not_limited(self, pit_setup):
        mesh, chain = pit_setup
        normals = vertex_normals(mesh, chain)
        vn = np.random.default_rng(3).uniform(0.5, 2.0, chain.n_vertices)
        dt = capped_dt(mesh, [chain], [(vn, normals)], 100.0)
        assert dt < 100.0
        disp = dt * vn[:, None] * normals
        disp[[0, -1]] = 0.0
        base = chain.positions(mesh).copy()
        _apply_limited(mesh, chain, disp)
        assert np.array_equal(chain.positions(mesh), base + disp)


class TestCorners:
    def test_straight_wall_fixed_point(self, pit_setup):
        mesh, chain = pit_setup
        # place the three leftmost chain vertices on a straight line that
        # already hits y=0 exactly at the corner
        c, v1, v2 = chain.vertices[0], chain.vertices[1], chain.vertices[2]
        mesh.vertices[c] = (-5.0, 0.0)
        mesh.vertices[v1] = (-4.9, -0.5)
        mesh.vertices[v2] = (-4.8, -1.0)
        before = mesh.vertices[c].copy()
        update_corners(mesh, chain)
        assert np.abs(mesh.vertices[c] - before).max() < 1e-12

    def test_extrapolation_line_by_hand(self):
        # wall through (1,-2) and (2,-1) extended to y=0 lands at x=3
        assert _extrapolate_to_surface(np.array([2.0, -1.0]),
                                       np.array([1.0, -2.0])) \
            == pytest.approx(3.0)

    def test_far_intersection_absorbs_surface_vertex(self, pit_setup,
                                                    monkeypatch):
        mesh, chain = pit_setup
        # force the far branch; both corners absorb a plain surface vertex
        monkeypatch.setattr(front, "_CORNER_CLOSE_FACTOR", 0.01)
        n_before = chain.n_vertices
        counts = (mesh.n_vertices, mesh.n_triangles, len(mesh.edge_nodes))
        v1 = chain.vertices[1]
        # steepen the wall so the intersection leaps outward
        mesh.vertices[v1] = mesh.vertices[chain.vertices[0]] + (-0.35, -0.25)
        old_corner = chain.vertices[0]
        update_corners(mesh, chain)
        assert chain.n_vertices >= n_before + 1
        assert (mesh.n_vertices, mesh.n_triangles, len(mesh.edge_nodes)) == counts
        # the old corner now sits strictly inside the pit on the wall line
        assert mesh.vertices[old_corner, 1] < 0.0
        new_corner = chain.vertices[0]
        assert mesh.vertices[new_corner, 1] == 0.0
        assert validate_chain(mesh, chain) == []

    def test_far_intersection_never_takes_facing_pit_corner(self, twin_setup,
                                                            monkeypatch):
        # one bottom edge separates the pits, so the right corner's surface
        # neighbour is the facing pit's left corner
        mesh, chains = twin_setup
        monkeypatch.setattr(front, "_CORNER_CLOSE_FACTOR", 0.01)
        corner, facing = chains[0].right_corner, chains[1].left_corner
        with pytest.raises(FrontError,
                           match=rf"corner {corner}: .* vertex {facing} "):
            update_corners(mesh, chains[0])

    def test_advance_rejects_absorbing_facing_corner(self, twin_setup,
                                                     monkeypatch):
        # the left corner absorbs a surface vertex before the right one
        # fails; the driver keeps the state from before the step
        mesh, chains = twin_setup
        monkeypatch.setattr(front, "_CORNER_CLOSE_FACTOR", 0.01)
        zero = lambda pos, normals: np.zeros(len(pos))
        with pytest.raises(FrontError, match="another pit"):
            advance_with(mesh, chains[0], zero)


class TestMergeDetect:
    def test_below_tolerance_detected(self, twin_setup):
        mesh, chains = twin_setup
        cand = detect_merge(mesh, chains, FrontParams(merge_gap_tol=2.5))
        assert cand is not None
        assert cand.gap_length == pytest.approx(2.0)

    def test_above_tolerance_none(self, twin_setup):
        mesh, chains = twin_setup
        assert detect_merge(mesh, chains, FrontParams(merge_gap_tol=1.0)) is None

    def test_three_pits_shortest_gap_first(self):
        mesh, chains, _ = build_initial_mesh(
            DomainSpec(xmin=-30, xmax=30),
            PitSpec(centers=(-11.5, 0.0, 11.8), nodes=21), target_h=1.5, seed=0)
        # gaps: 1.5 and 1.8, both below tolerance
        cand = detect_merge(mesh, chains, FrontParams(merge_gap_tol=2.4))
        assert cand is not None
        assert cand.gap_length == pytest.approx(1.5)
        assert (cand.left_chain, cand.right_chain) == (0, 1)


class TestMergePits:
    def test_symmetric_twins(self):
        mesh, chains, _ = build_initial_mesh(
            DomainSpec(), PitSpec(centers=(-5.2, 5.2), nodes=31),
            target_h=1.2, seed=0)
        counts = (mesh.n_vertices, mesh.n_triangles, len(mesh.edge_nodes))
        cand = detect_merge(mesh, chains, FrontParams(merge_gap_tol=0.5))
        assert cand is not None
        merged_chains, event = merge_pits(mesh, chains, cand)
        assert len(merged_chains) == 1
        merged = merged_chains[0]
        # apex at the gap midpoint on the surface, here x = 0 by symmetry
        assert event.apex_position[0] == pytest.approx(0.0, abs=1e-9)
        assert event.apex_position[1] == 0.0
        # vertex/cell/edge counts untouched
        assert (mesh.n_vertices, mesh.n_triangles, len(mesh.edge_nodes)) == counts
        # merged chain ordered left to right and still consistent
        x = merged.positions(mesh)[:, 0]
        assert x[0] < 0 < x[-1]
        assert validate_chain(mesh, merged) == []
        assert validate(mesh).ok
        # the moved endpoint halves the apex-to-neighbor segment
        apex_pos = int(np.where(merged.vertices == event.apex_vertex)[0][0])
        moved_id = event.moved_vertex
        pos_in_chain = int(np.where(merged.vertices == moved_id)[0][0])
        neighbor = merged.vertices[pos_in_chain + 1] \
            if pos_in_chain > apex_pos else merged.vertices[pos_in_chain - 1]
        expected = 0.5 * (mesh.vertices[event.apex_vertex]
                          + mesh.vertices[neighbor])
        # the neighbor kept its pre-merge position
        assert np.allclose(mesh.vertices[moved_id], expected)
        assert mesh.vertices[moved_id, 1] <= 0.0

    def test_merged_width_spans_both(self):
        mesh, chains, _ = build_initial_mesh(
            DomainSpec(), PitSpec(centers=(-5.2, 5.2), nodes=31),
            target_h=1.2, seed=0)
        from pitmesh.driver import diagnostics
        cand = detect_merge(mesh, chains, FrontParams(merge_gap_tol=0.5))
        merged_chains, _ = merge_pits(mesh, chains, cand)
        depth, width = diagnostics(mesh, merged_chains)
        assert width > 15.0  # both 10-wide pits plus part of the gap

    def test_self_intersecting_merged_chain_raises(self):
        # each chain is simple, but the right pit's wall dips under the
        # left pit's far-reaching vertex (2.5, -4); every cell of the fan
        # keeps its orientation, so only the crossing test can object
        from test_mesh import chain_mesh
        mesh, _ = chain_mesh([(-10.0, 0.0), (2.5, -4.0), (-1.0, 0.0),
                              (1.0, 0.0), (3.0, -6.0), (4.0, 0.0)])
        gap = 2
        mesh.edge_tags[gap] = BoundaryTag.TOP
        chains = [PitChain(0, [0, 1, 2]), PitChain(1, [3, 4, 5])]
        with pytest.raises(FrontError, match="self-intersect"):
            merge_pits(mesh, chains, MergeCandidate(gap, 0, 1, 2.0))
        assert np.all(mesh.signed_areas() > 0.0)
        assert mesh.edge_tags[gap] == BoundaryTag.TOP


class TestInvariants:
    def test_pit_area_grows_under_advance(self, pit_setup):
        mesh, chain = pit_setup
        before = pit_area(mesh, chain)
        advance_physical(mesh, chain)
        assert pit_area(mesh, chain) > before

    def test_semicircle_area_value(self, pit_setup):
        mesh, chain = pit_setup
        # half disc of radius 5, sampled by the 41-node chain
        assert pit_area(mesh, chain) == pytest.approx(np.pi * 12.5, rel=2e-3)


def surface_pit_mesh(chain_points, margin=1.0):
    """A hand-built pit: chain_points from corner to corner, a surface
    vertex margin beyond each corner on bottom edges, and a fan of cells
    to a vertex above.  Returns the mesh and the chain (vertices 1..n)."""
    pts = np.asarray(chain_points, dtype=float)
    n = len(pts)
    left = pts[0] - (margin, 0.0)
    right = pts[-1] + (margin, 0.0)
    top = (pts[:, 0].mean(), 10.0)
    verts = np.vstack((left, pts, right, top))
    apex = n + 2
    tris = [[i, i + 1, apex] for i in range(n + 1)]
    edges = [[0, 1]] + [[i, i + 1] for i in range(1, n)] + [[n, n + 1]]
    tags = [BoundaryTag.BOTTOM] + [BoundaryTag.PIT] * (n - 1) \
        + [BoundaryTag.BOTTOM]
    mesh = TriMesh(verts, np.array(tris), np.array(edges), np.array(tags))
    mesh.orient_ccw()
    return mesh, PitChain(0, np.arange(1, n + 1))


class TestChainChecks:
    """Each front function checks the chain invariants it can break.

    driver._check_state keeps only its area tests, so these states pass
    it; the front functions name them instead.
    """

    SHALLOW = [(-3.0, 0.0), (-2.0, -0.5), (-1.0, -0.5), (0.0, -0.5),
               (1.0, -0.5), (2.0, -0.5), (3.0, 0.0)]

    def test_advance_names_an_interior_vertex_above_the_surface(self):
        # the middle vertex is pushed up 1 um; the limiter lets it rise
        # 0.6 of that, to y = 0.1
        mesh, chain = surface_pit_mesh(self.SHALLOW)
        normals = np.tile([0.0, -1.0], (chain.n_vertices, 1))
        normals[3] = (0.0, 1.0)
        vn = np.zeros(chain.n_vertices)
        vn[3] = 2.0
        with pytest.raises(FrontError,
                           match=rf"pit 0: interior vertex {chain.vertices[3]} "
                                 r"above y=0"):
            advance_pit(mesh, chain, vn, normals, 0.5)
        assert mesh.vertices[chain.vertices[3], 1] > 0.0
        min_area = driver._check_state(mesh, [chain], 1, -np.inf)
        assert min_area > 0.0

    def test_corner_update_names_a_corner_off_the_surface(self):
        # a vertex lost to NaN extrapolates the wall to no point of y = 0
        mesh, chain = surface_pit_mesh(self.SHALLOW)
        mesh.vertices[chain.vertices[1], 0] = np.nan
        with pytest.raises(FrontError, match="pit 0: corner not on y=0"):
            update_corners(mesh, chain)

    def test_merge_names_an_untagged_chain_edge(self):
        # a stale candidate names an edge other than the gap, so the gap
        # edge joining the chains keeps its surface tag
        from test_mesh import chain_mesh
        mesh, _ = chain_mesh([(-6.0, 0.0), (-3.0, -3.0), (-1.0, 0.0),
                              (1.0, 0.0), (3.0, -3.0), (6.0, 0.0)])
        gap = 2
        mesh.edge_tags[gap] = BoundaryTag.BOTTOM
        chains = [PitChain(0, [0, 1, 2]), PitChain(1, [3, 4, 5])]
        with pytest.raises(FrontError, match=r"merging pits 0 and 1: "
                                             r"pit 0: edge \(2,3\) not tagged"):
            merge_pits(mesh, chains, MergeCandidate(0, 0, 1, 2.0))
        assert mesh.edge_tags[gap] == BoundaryTag.BOTTOM
        min_area = driver._check_state(mesh, chains, 1, -np.inf)
        assert min_area > 0.0
