import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from pitmesh import front
from pitmesh.front import FrontParams, detect_merge, merge_pits, update_corners
from pitmesh.mesh import (_KEPT_SLACK, BoundaryTag, MeshError,
                          NearestSegments, PitChain, TriMesh, chains_from_tags,
                          min_distance_to_pit, nearest_segment_distances,
                          point_segment_distances, polyline_crossings,
                          polyline_self_intersects, validate, validate_chain,
                          vertex_normals, vertex_roles)
from pitmesh.meshgen import DomainSpec, PitSpec, build_initial_mesh

from oracles import (affine_map, all_pairs_crossings, make_rect_mesh,
                     vertex_roles_by_tag)


def single_triangle(v0, v1, v2):
    return TriMesh(np.array([v0, v1, v2], dtype=float), np.array([[0, 1, 2]]),
                   np.array([[0, 1], [1, 2], [2, 0]]),
                   np.array([BoundaryTag.BOTTOM, BoundaryTag.RIGHT,
                             BoundaryTag.LEFT]))


def chain_mesh(points):
    """Minimal mesh carrying a pit chain along the given polyline."""
    pts = np.asarray(points, dtype=float)
    n = len(pts)
    far = np.array([[pts[:, 0].mean(), pts[:, 1].max() + 10.0]])
    verts = np.vstack((pts, far))
    tris = np.array([[i, i + 1, n] for i in range(n - 1)], dtype=np.int32)
    edges = np.array([[i, i + 1] for i in range(n - 1)], dtype=np.int32)
    mesh = TriMesh(verts, tris, edges,
                   np.full(n - 1, BoundaryTag.PIT, dtype=np.int16))
    mesh.orient_ccw()
    return mesh, PitChain(0, np.arange(n, dtype=np.int32))


class TestAffineMap:
    def test_identity_reference(self):
        m = single_triangle((0, 0), (1, 0), (0, 1))
        am = affine_map(m, 0)
        assert np.allclose(am.jacobian, np.eye(2))
        assert am.area == pytest.approx(0.5)

    def test_uniform_scaling(self):
        m = single_triangle((0, 0), (2, 0), (0, 2))
        am = affine_map(m, 0)
        assert np.allclose(am.jacobian, 2.0 * np.eye(2))
        assert am.area == pytest.approx(2.0)

    def test_shoelace_area(self):
        # shoelace by hand: |K| = 0.5, det F' = 1
        m = single_triangle((0, 0), (1, 0), (1, 1))
        am = affine_map(m, 0)
        assert am.area == pytest.approx(0.5)
        det = np.linalg.det(am.jacobian)
        assert det == pytest.approx(1.0)

    def test_maps_reference_vertices(self):
        m = single_triangle((0.3, -0.2), (1.7, 0.4), (0.1, 2.2))
        am = affine_map(m, 0)
        ref = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        assert np.allclose(am.apply(ref), m.vertices)

    def test_degenerate_cell_reports_index(self):
        m = single_triangle((0, 0), (1, 0), (2, 0))
        with pytest.raises(MeshError, match="cell 0"):
            affine_map(m, 0)


class TestNormals:
    def test_flat_segment_points_down(self):
        mesh, chain = chain_mesh([(-1, -1), (0, -1), (1, -1)])
        vn = vertex_normals(mesh, chain)
        assert np.allclose(vn[1], (0, -1))

    def test_right_angle_average(self):
        # edges along +x then +y; averaged normal (1,-1)/sqrt(2)
        mesh, chain = chain_mesh([(0, -2), (1, -2), (1, -1)])
        vn = vertex_normals(mesh, chain)
        assert np.allclose(vn[1], (1 / np.sqrt(2), -1 / np.sqrt(2)))

    def test_semicircle_normals_radial(self):
        r = 3.0
        theta = np.pi * (1 - np.linspace(0, 1, 41))
        pts = np.column_stack((r * np.cos(theta), -r * np.sin(theta)))
        mesh, chain = chain_mesh(pts)
        vn = vertex_normals(mesh, chain)
        radial = pts / r
        err = np.abs(vn[1:-1] - radial[1:-1]).max()
        h = np.pi / 40
        assert err < 2.0 * h ** 2

    def test_unit_norm(self):
        rng = np.random.default_rng(0)
        pts = np.column_stack((np.linspace(-2, 2, 15),
                               -1 - rng.uniform(0, 0.5, 15)))
        mesh, chain = chain_mesh(pts)
        vn = vertex_normals(mesh, chain)
        assert np.abs(np.hypot(vn[:, 0], vn[:, 1]) - 1).max() < 1e-12

    def test_corner_uses_single_edge(self):
        mesh, chain = chain_mesh([(-1, 0), (0, -1), (1, 0)])
        vn = vertex_normals(mesh, chain)
        assert np.allclose(vn[0], np.array([-1, -1]) / np.sqrt(2))
        assert np.allclose(vn[-1], np.array([1, -1]) / np.sqrt(2))

    def test_zero_length_edge_raises(self):
        mesh, chain = chain_mesh([(0, -1), (0, -1), (1, -1)])
        with pytest.raises(MeshError, match="zero-length"):
            vertex_normals(mesh, chain)


class TestMinDistance:
    def test_on_vertex_is_zero(self):
        mesh, chain = chain_mesh([(-1, -1), (0, -2), (1, -1)])
        assert min_distance_to_pit(np.array([[0.0, -2.0]]), [chain],
                                   mesh)[0] == 0.0

    def test_perpendicular_foot(self):
        pts = np.column_stack((np.linspace(-5, 5, 21), np.zeros(21)))
        mesh, chain = chain_mesh(pts)
        assert min_distance_to_pit(np.array([[0.0, 2.0]]), [chain], mesh)[0] \
            == pytest.approx(2.0)

    def test_beyond_endpoint_matches_brute_force(self):
        rng = np.random.default_rng(7)
        pts = np.column_stack((np.linspace(-2, 2, 9),
                               -1 - rng.uniform(0, 1, 9)))
        mesh, chain = chain_mesh(pts)
        query = np.array([[5.0, 1.0]])
        # brute force: dense samples along every segment
        dense = []
        for a, b in zip(pts[:-1], pts[1:]):
            ts = np.linspace(0, 1, 2001)[:, None]
            dense.append(a + ts * (b - a))
        dense = np.vstack(dense)
        expected = np.min(np.hypot(*(dense - query).T))
        got = min_distance_to_pit(query, [chain], mesh)[0]
        assert got == pytest.approx(expected, abs=1e-5)

    def test_point_segment_distances_match_pairwise_loop(self):
        rng = np.random.default_rng(3)
        points = rng.uniform(-6, 6, (40, 2))
        a = rng.uniform(-4, 4, (15, 2))
        b = a + rng.normal(0, 2, (15, 2))
        b[4] = a[4]   # a zero-length segment is a point
        expected = np.empty((len(points), len(a)))
        for i, (px, py) in enumerate(points):
            for j, ((ax, ay), (bx, by)) in enumerate(zip(a, b)):
                dx, dy = bx - ax, by - ay
                l2 = dx * dx + dy * dy
                t = 0.0 if l2 == 0.0 else \
                    min(1.0, max(0.0, ((px - ax) * dx + (py - ay) * dy) / l2))
                expected[i, j] = np.hypot(px - ax - t * dx, py - ay - t * dy)
        got = point_segment_distances(points, a, b)
        assert got.shape == expected.shape
        assert np.abs(got - expected).max() <= 1e-12

    @pytest.mark.parametrize("n_points", [0, 1, 255, 256, 257, 600])
    def test_nearest_equals_full_matrix_minimum(self, n_points):
        # the block size is 256 points: empty, one, and around the edges
        rng = np.random.default_rng(n_points)
        points = rng.uniform(-6, 6, (n_points, 2))
        a = rng.uniform(-4, 4, (23, 2))
        b = a + rng.normal(0, 2, (23, 2))
        b[[0, 9]] = a[[0, 9]]   # zero-length segments
        got = nearest_segment_distances(points, a, b)
        assert got.shape == (n_points,)
        assert np.array_equal(got,
                              point_segment_distances(points, a, b).min(axis=1))

    def test_subnormal_segment_is_a_point(self):
        # the first segment's squared length, 1.6e-313, is subnormal
        points = np.array([[0.0, 0.0], [1.5, 0.0]])
        a = np.array([[0.0, -1.0], [1.0, -1.0]])
        b = np.array([[4e-157, -1.0], [2.0, -1.0]])
        full = point_segment_distances(points, a, b)
        assert np.allclose(full, [[1.0, np.hypot(1.0, 1.0)],
                                  [np.hypot(1.5, 1.0), 1.0]], rtol=1e-15, atol=0)
        nearest = nearest_segment_distances(points, a, b)
        assert np.array_equal(nearest, [1.0, 1.0])
        assert np.array_equal(nearest, full.min(axis=1))

    @settings(max_examples=30, deadline=None)
    @given(st.floats(-8, 8), st.floats(-8, 8), st.floats(-8, 8), st.floats(-8, 8))
    def test_lipschitz(self, x1, y1, x2, y2):
        pts = np.array([(-1.0, 0.0), (0.0, -2.0), (1.5, -0.5), (2.0, 0.0)])
        mesh, chain = chain_mesh(pts)
        p = np.array([x1, y1])
        q = np.array([x2, y2])
        dp = min_distance_to_pit(p[None], [chain], mesh)[0]
        dq = min_distance_to_pit(q[None], [chain], mesh)[0]
        assert abs(dp - dq) <= np.hypot(*(p - q)) + 1e-12


def random_chain(rng, n_vertices, x0):
    """A polyline wandering rightwards from (x0, 0) below y = 0."""
    steps = np.column_stack((rng.uniform(0.1, 1.0, n_vertices - 1),
                             rng.normal(0.0, 0.8, n_vertices - 1)))
    return np.vstack(([x0, 0.0], [x0, 0.0] + np.cumsum(steps, axis=0)))


def segments(chains):
    """Segment starts and ends of the polylines, in list order."""
    return (np.concatenate([c[:-1] for c in chains]),
            np.concatenate([c[1:] for c in chains]))


_DRIFTS = ("still", "small", "large", "some", "chain", "grow", "shrink",
           "reorder")


class TestNearestSegments:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), st.integers(1, 3), st.integers(1, 300),
           st.lists(st.sampled_from(_DRIFTS), min_size=1, max_size=10))
    def test_every_call_equals_the_dense_kernel(self, seed, n_chains,
                                                n_points, drifts):
        rng = np.random.default_rng(seed)
        chains = [random_chain(rng, int(rng.integers(2, 30)), x)
                  for x in np.linspace(-12.0, 6.0, n_chains)]
        points = rng.uniform((-15.0, -12.0), (15.0, 4.0), (n_points, 2))
        kept = NearestSegments()
        for drift in ("still",) + tuple(drifts):
            if drift in ("small", "large"):
                size = 1e-3 if drift == "small" else 1.0
                points = points + rng.normal(0.0, size, points.shape)
                chains = [c + rng.normal(0.0, size / 2, c.shape)
                          for c in chains]
            elif drift == "some":
                # a random subset of the points, in place, so rows go
                # stale apart and a state aliasing them would be caught
                some = rng.random(len(points)) < 0.3
                points[some] += rng.normal(0.0, 0.05, (some.sum(), 2))
            elif drift == "chain":
                k = int(rng.integers(len(chains)))
                chains[k] = chains[k] + rng.normal(0.0, 0.02, chains[k].shape)
            elif drift == "grow":
                k = int(rng.integers(len(chains)))
                chains[k] = np.vstack((chains[k], chains[k][-1] + (0.5, -0.3)))
            elif drift == "shrink":
                k = int(rng.integers(len(chains)))
                if len(chains[k]) > 2:
                    chains[k] = chains[k][:-1]
            elif drift == "reorder":
                chains = chains[1:] + chains[:1]
            a, b = segments(chains)
            got = kept.distances(points, a, b)
            assert np.array_equal(got, nearest_segment_distances(points, a, b))

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1),
           st.sampled_from([1.0 - 1e-6, 1.0, 1.0 + 1e-6]),
           st.floats(0.0, 2.0 * np.pi))
    def test_drift_on_the_acceptance_margin(self, seed, f, angle):
        rng = np.random.default_rng(seed)
        chains = [random_chain(rng, 20, -10.0), random_chain(rng, 12, 2.0)]
        a, b = segments(chains)
        points = rng.uniform((-15.0, -12.0), (15.0, 4.0), (200, 2))
        kept = NearestSegments()
        d = kept.distances(points, a, b)
        gap = kept.runner_up - d
        i = int(np.argmin(gap))
        assume(1e-3 < gap[i] < np.inf)
        # moving points and segments by v moves each by |v|, so point i's
        # test reads d_i <= d_i + gap_i - 2 |v| - slack: f = 1 lands on
        # the margin, and every other point's gap is at least gap_i
        slack = _KEPT_SLACK * max(kept.scale + gap[i], 1.0)
        v = 0.5 * f * (gap[i] - slack) * np.array([np.cos(angle),
                                                   np.sin(angle)])
        work = (kept.references, kept.dense_rows)
        got = kept.distances(points + v, a + v, b + v)
        assert np.array_equal(
            got, nearest_segment_distances(points + v, a + v, b + v))
        if f < 1.0:
            assert (kept.references, kept.dense_rows) == work
        elif f > 1.0:
            assert (kept.references, kept.dense_rows) != work

    def test_moves_inside_the_margin_add_up(self):
        # a straight chain slides along itself, each slide inside every
        # row's margin; the point 10 um off it has the smallest gap, and
        # the third slide takes the travel past it.  That row alone is
        # recomputed, then kept: the fourth slide is inside its new gap
        chain = np.column_stack((np.arange(21.0), np.zeros(21)))
        points = np.array([[10.5, 10.0]] + [[x, y] for x in (3.5, 7.5, 12.5)
                                            for y in (-3.0, 1.0, 2.0)])
        kept = NearestSegments()
        d = kept.distances(points, *segments([chain]))
        gap = kept.runner_up - d
        assert 0.3 < gap[0] < 0.31 and np.all(gap[1:] > 0.9)
        for k in range(1, 5):
            chain = chain + (0.4 * gap[0], 0.0)
            rows = kept.dense_rows
            got = kept.distances(points, *segments([chain]))
            assert np.array_equal(
                got, nearest_segment_distances(points, *segments([chain])))
            assert kept.dense_rows - rows == (k == 3)
        assert kept.references == 1

    def test_window_covers_a_short_chain(self):
        # four segments fit one window: no runner-up, and any drift passes
        chain = random_chain(np.random.default_rng(1), 5, -2.0)
        points = np.random.default_rng(2).uniform(-5.0, 5.0, (50, 2))
        kept = NearestSegments()
        kept.distances(points, *segments([chain]))
        assert np.all(kept.runner_up == np.inf)
        moved = chain + 3.0
        got = kept.distances(points - 2.0, *segments([moved]))
        assert np.array_equal(
            got, nearest_segment_distances(points - 2.0, *segments([moved])))
        assert (kept.references, kept.dense_rows) == (1, 0)

    def test_min_distance_to_pit_with_kept_state(self):
        mesh, chains, _ = build_initial_mesh(
            DomainSpec(), PitSpec(centers=(-6.0, 6.0), nodes=21),
            target_h=2.0, seed=0)
        kept = NearestSegments()
        for shift in (0.0, 0.01, 0.02):
            mesh.vertices[chains[0].vertices[1:-1], 1] -= shift
            dense = nearest_segment_distances(
                mesh.vertices,
                *segments([c.positions(mesh) for c in chains]))
            assert np.array_equal(
                min_distance_to_pit(mesh.vertices, chains, mesh, kept), dense)
            assert np.array_equal(
                min_distance_to_pit(mesh.vertices, chains, mesh), dense)
        assert kept.references == 1


class TestValidate:
    def test_valid_mesh_empty_report(self):
        mesh = make_rect_mesh(4, 3)
        report = validate(mesh)
        assert report.ok

    def test_clockwise_cell_reported(self):
        mesh = make_rect_mesh(2, 2)
        mesh.triangles[3] = mesh.triangles[3][[0, 2, 1]]
        report = validate(mesh)
        assert 3 in report.inverted_cells

    def test_duplicated_interior_edge_reported(self):
        # hand-built: tag an interior edge as boundary -> shared by two cells
        mesh = make_rect_mesh(2, 1)
        t = mesh.triangles
        pairs = np.concatenate([t[:, [0, 1]], t[:, [1, 2]], t[:, [2, 0]]])
        pairs = np.sort(pairs, axis=1)
        uniq, counts = np.unique(pairs, axis=0, return_counts=True)
        interior = uniq[counts == 2][0]
        mesh.edge_nodes = np.vstack((mesh.edge_nodes, interior)).astype(np.int32)
        mesh.edge_tags = np.append(mesh.edge_tags, BoundaryTag.BOTTOM).astype(np.int16)
        report = validate(mesh)
        assert not report.ok
        assert "tagged edge (0, 3) is not a boundary edge of exactly one cell" \
            in report.boundary_errors
        assert not any("np." in msg for msg in report.boundary_errors)

    def test_untagged_boundary_edge_reported(self):
        mesh = make_rect_mesh(2, 1)
        assert mesh.edge_nodes[0].tolist() == [0, 2]
        mesh.edge_nodes = mesh.edge_nodes[1:]
        mesh.edge_tags = mesh.edge_tags[1:]
        report = validate(mesh)
        assert report.boundary_errors == ["boundary edge (0, 2) has no tag"]

    def test_edge_counts_match_row_unique(self):
        mesh, _, _ = build_initial_mesh(DomainSpec(), PitSpec(nodes=21),
                                        target_h=2.0, seed=0)
        t = mesh.triangles
        pairs = np.sort(np.concatenate([t[:, [0, 1]], t[:, [1, 2]],
                                        t[:, [2, 0]]]), axis=1)
        uniq, counts = np.unique(pairs, axis=0, return_counts=True)
        edges, got = mesh.edge_counts()
        assert edges.dtype == uniq.dtype and np.array_equal(edges, uniq)
        assert got.dtype == counts.dtype and np.array_equal(got, counts)

    def test_generated_mesh_area_matches_polygon(self):
        mesh, chains, poly = build_initial_mesh(DomainSpec(), PitSpec(nodes=31),
                                                target_h=1.5, seed=2)
        total = mesh.signed_areas().sum()
        x, y = poly[:, 0], poly[:, 1]
        shoelace = 0.5 * abs(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))
        assert abs(total - shoelace) / shoelace < 1e-10


class TestRolesAndChains:
    def test_roles_partition(self):
        mesh, chains, _ = build_initial_mesh(DomainSpec(), PitSpec(nodes=21),
                                             target_h=2.0, seed=0)
        roles = vertex_roles(mesh)
        assert not np.any(roles.pinned & roles.slide_x)
        assert not np.any(roles.pinned & roles.slide_y)
        assert not np.any(roles.slide_x & roles.slide_y)
        # all chain vertices pinned
        assert roles.pinned[chains[0].vertices].all()
        # the four rectangle corners are pinned
        d = mesh.vertices
        for corner in ((-20, 0), (20, 0), (-20, 20), (20, 20)):
            idx = np.argmin(np.hypot(d[:, 0] - corner[0], d[:, 1] - corner[1]))
            assert roles.pinned[idx]

    def test_roles_match_the_per_tag_masks(self, monkeypatch):
        initial, _, _ = build_initial_mesh(DomainSpec(), PitSpec(nodes=21),
                                           target_h=2.0, seed=0)
        merged, twins, _ = build_initial_mesh(
            DomainSpec(), PitSpec(centers=(-5.2, 5.2), nodes=31),
            target_h=1.2, seed=0)
        merge_pits(merged, twins,
                   detect_merge(merged, twins, FrontParams(merge_gap_tol=0.5)))
        # a steep wall sends the left corner past its surface neighbour
        absorbed, (chain,), _ = build_initial_mesh(
            DomainSpec(), PitSpec(nodes=41), target_h=1.2, seed=0)
        monkeypatch.setattr(front, "_CORNER_CLOSE_FACTOR", 0.01)
        absorbed.vertices[chain.vertices[1]] = \
            absorbed.vertices[chain.vertices[0]] + (-0.35, -0.25)
        n_before = chain.n_vertices
        update_corners(absorbed, chain)
        assert chain.n_vertices > n_before
        for mesh in (initial, merged, absorbed):
            got, want = vertex_roles(mesh), vertex_roles_by_tag(mesh)
            for mask in ("pinned", "slide_x", "slide_y"):
                assert np.array_equal(getattr(got, mask), getattr(want, mask))

    def test_chains_from_tags_roundtrip(self):
        mesh, chains, _ = build_initial_mesh(DomainSpec(),
                                             PitSpec(centers=(-6.0, 6.0), nodes=21),
                                             target_h=2.0, seed=0)
        rebuilt = chains_from_tags(mesh)
        assert len(rebuilt) == 2
        for orig, new in zip(chains, rebuilt):
            assert np.array_equal(orig.vertices, new.vertices)

    def test_validate_chain_clean(self):
        mesh, chains, _ = build_initial_mesh(DomainSpec(), PitSpec(nodes=21),
                                             target_h=2.0, seed=0)
        assert validate_chain(mesh, chains[0]) == []

    def test_validate_chain_reports_vertex_shared_with_another_chain(self):
        mesh, chains, _ = build_initial_mesh(
            DomainSpec(), PitSpec(centers=(-6.0, 6.0), nodes=21),
            target_h=2.0, seed=0)
        left, right = chains
        assert validate_chain(mesh, left) == []
        assert validate_chain(mesh, right) == []
        # the left chain takes the right pit's corner across the gap edge
        gap = np.flatnonzero(
            np.isin(mesh.edge_nodes, [left.right_corner,
                                      right.left_corner]).all(axis=1))
        mesh.edge_tags[gap] = BoundaryTag.PIT
        left.vertices = np.append(left.vertices, right.left_corner)
        for chain in (left, right):
            assert any("tagged edge count" in msg
                       for msg in validate_chain(mesh, chain))

    def test_validate_chain_reports_untagged_edge(self):
        mesh, chains, _ = build_initial_mesh(DomainSpec(), PitSpec(nodes=21),
                                             target_h=2.0, seed=0)
        u, v = chains[0].vertices[3:5]
        edge = np.isin(mesh.edge_nodes, [u, v]).all(axis=1)
        mesh.edge_tags[edge] = BoundaryTag.BOTTOM
        assert validate_chain(mesh, chains[0]) == [
            f"pit 0: edge ({u},{v}) not tagged Pit",
            "pit 0: tagged edge count 19 != chain edge count 20"]

    def test_chains_numbered_by_left_corner(self):
        mesh, chains, _ = build_initial_mesh(
            DomainSpec(xmin=-30, xmax=30),
            PitSpec(centers=(-12.0, 0.0, 12.0), nodes=15), target_h=2.0, seed=0)
        # listing the right pit's edges first changes nothing
        order = np.argsort(-mesh.vertices[mesh.edge_nodes[:, 0], 0],
                           kind="stable")
        mesh.edge_nodes = mesh.edge_nodes[order]
        mesh.edge_tags = mesh.edge_tags[order]
        rebuilt = chains_from_tags(mesh)
        assert [c.pit_id for c in rebuilt] == [0, 1, 2]
        for orig, new in zip(chains, rebuilt):
            assert np.array_equal(orig.vertices, new.vertices)

    @pytest.mark.parametrize("shape, message", [
        ([(0, 1), (1, 2), (1, 3)], "branch at vertex 1"),
        ([(0, 1), (1, 2), (2, 0)], "loop")])
    def test_chains_from_tags_rejects_branch_and_loop(self, shape, message):
        mesh = make_rect_mesh(2, 2)
        mesh.edge_nodes = np.array(shape, dtype=np.int32)
        mesh.edge_tags = np.full(len(shape), BoundaryTag.PIT, dtype=np.int16)
        with pytest.raises(MeshError, match=message):
            chains_from_tags(mesh)


class TestSelfIntersection:
    def test_simple_polyline_ok(self):
        p = np.array([(0, 0), (1, -1), (2, -1), (3, 0)], dtype=float)
        assert not polyline_self_intersects(p)

    def test_crossing_detected(self):
        p = np.array([(0, 0), (2, -2), (2, -1), (0, -1.5)], dtype=float)
        assert polyline_self_intersects(p)


@st.composite
def grid_polylines(draw):
    """Polylines on a small integer grid, some with float noise added.

    The grid gives repeated points, vertical and horizontal segments,
    collinear overlaps and touching endpoints; the noise breaks them.
    """
    n = draw(st.integers(0, 18))
    coords = st.integers(-3, 3)
    pts = np.array(draw(st.lists(st.tuples(coords, coords), min_size=n,
                                 max_size=n)), dtype=float).reshape(n, 2)
    if draw(st.booleans()):
        noise = draw(st.lists(st.floats(-0.3, 0.3), min_size=2 * n,
                              max_size=2 * n))
        pts += np.reshape(noise, (n, 2))
    return pts


class TestCrossings:
    def check(self, p):
        got = polyline_crossings(p)
        want = all_pairs_crossings(p)
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)

    @settings(max_examples=300, deadline=None)
    @given(grid_polylines())
    def test_equals_all_pairs(self, p):
        self.check(p)

    def test_zigzag_crossings_in_order(self):
        # a saw folded back over itself crosses many segments
        x = np.array([0, 4, 0, 4, 0, 4, 3.5, 3.5, 0.5, 0.5])
        y = np.array([0, 1, 2, 3, 4, 5, 5.5, -1, -1, 5.5])
        p = np.column_stack((x, y))
        self.check(p)
        pairs = polyline_crossings(p)
        assert len(pairs) > 4
        assert np.all(pairs[:, 1] >= pairs[:, 0] + 2)

    def test_pit_chains_and_folded_copies(self):
        mesh, chains, _ = build_initial_mesh(
            DomainSpec(), PitSpec(centers=(-6.0, 6.0), nodes=31),
            target_h=1.5, seed=0)
        for chain in chains:
            p = chain.positions(mesh)
            self.check(p)
            folded = p.copy()
            folded[5:12, 1] *= -1.0
            self.check(folded)
