import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pitmesh.mesh import (AffineMap, BoundaryTag, MeshError, PitChain, TriMesh,
                          affine_map, chains_from_tags, face_and_vertex_normals,
                          min_distance_to_pit, point_segment_distances,
                          polyline_self_intersects, validate, validate_chain, vertex_roles)
from pitmesh.meshgen import DomainSpec, PitSpec, build_initial_mesh, make_rect_mesh


def single_triangle(v0, v1, v2):
    return TriMesh(np.array([v0, v1, v2], dtype=float), np.array([[0, 1, 2]]),
                   np.array([[0, 1], [1, 2], [2, 0]]),
                   np.array([BoundaryTag.BOTTOM, BoundaryTag.RIGHT,
                             BoundaryTag.LEFT]),
                   np.array([-1, -1, -1]))


def chain_mesh(points):
    """Minimal mesh carrying a pit chain along the given polyline."""
    pts = np.asarray(points, dtype=float)
    n = len(pts)
    far = np.array([[pts[:, 0].mean(), pts[:, 1].max() + 10.0]])
    verts = np.vstack((pts, far))
    tris = np.array([[i, i + 1, n] for i in range(n - 1)], dtype=np.int32)
    edges = np.array([[i, i + 1] for i in range(n - 1)], dtype=np.int32)
    mesh = TriMesh(verts, tris, edges,
                   np.full(n - 1, BoundaryTag.PIT, dtype=np.int16),
                   np.zeros(n - 1, dtype=np.int32))
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
        _, vn = face_and_vertex_normals(mesh, chain)
        assert np.allclose(vn[1], (0, -1))

    def test_right_angle_average(self):
        # edges along +x then +y; averaged normal (1,-1)/sqrt(2)
        mesh, chain = chain_mesh([(0, -2), (1, -2), (1, -1)])
        _, vn = face_and_vertex_normals(mesh, chain)
        assert np.allclose(vn[1], (1 / np.sqrt(2), -1 / np.sqrt(2)))

    def test_semicircle_normals_radial(self):
        r = 3.0
        theta = np.pi * (1 - np.linspace(0, 1, 41))
        pts = np.column_stack((r * np.cos(theta), -r * np.sin(theta)))
        mesh, chain = chain_mesh(pts)
        _, vn = face_and_vertex_normals(mesh, chain)
        radial = pts / r
        err = np.abs(vn[1:-1] - radial[1:-1]).max()
        h = np.pi / 40
        assert err < 2.0 * h ** 2

    def test_unit_norm(self):
        rng = np.random.default_rng(0)
        pts = np.column_stack((np.linspace(-2, 2, 15),
                               -1 - rng.uniform(0, 0.5, 15)))
        mesh, chain = chain_mesh(pts)
        _, vn = face_and_vertex_normals(mesh, chain)
        assert np.abs(np.hypot(vn[:, 0], vn[:, 1]) - 1).max() < 1e-12

    def test_corner_uses_single_edge(self):
        mesh, chain = chain_mesh([(-1, 0), (0, -1), (1, 0)])
        fn, vn = face_and_vertex_normals(mesh, chain)
        assert np.allclose(vn[0], fn[0])
        assert np.allclose(vn[-1], fn[-1])

    def test_zero_length_edge_raises(self):
        mesh, chain = chain_mesh([(0, -1), (0, -1), (1, -1)])
        with pytest.raises(MeshError, match="zero-length"):
            face_and_vertex_normals(mesh, chain)


class TestMinDistance:
    def test_on_vertex_is_zero(self):
        mesh, chain = chain_mesh([(-1, -1), (0, -2), (1, -1)])
        assert min_distance_to_pit(np.array([0.0, -2.0]), [chain], mesh) == 0.0

    def test_perpendicular_foot(self):
        pts = np.column_stack((np.linspace(-5, 5, 21), np.zeros(21)))
        mesh, chain = chain_mesh(pts)
        assert min_distance_to_pit(np.array([0.0, 2.0]), [chain], mesh) \
            == pytest.approx(2.0)

    def test_beyond_endpoint_matches_brute_force(self):
        rng = np.random.default_rng(7)
        pts = np.column_stack((np.linspace(-2, 2, 9),
                               -1 - rng.uniform(0, 1, 9)))
        mesh, chain = chain_mesh(pts)
        query = np.array([5.0, 1.0])
        # brute force: dense samples along every segment
        dense = []
        for a, b in zip(pts[:-1], pts[1:]):
            ts = np.linspace(0, 1, 2001)[:, None]
            dense.append(a + ts * (b - a))
        dense = np.vstack(dense)
        expected = np.min(np.hypot(*(dense - query).T))
        got = min_distance_to_pit(query, [chain], mesh)
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

    @settings(max_examples=30, deadline=None)
    @given(st.floats(-8, 8), st.floats(-8, 8), st.floats(-8, 8), st.floats(-8, 8))
    def test_lipschitz(self, x1, y1, x2, y2):
        pts = np.array([(-1.0, 0.0), (0.0, -2.0), (1.5, -0.5), (2.0, 0.0)])
        mesh, chain = chain_mesh(pts)
        p = np.array([x1, y1])
        q = np.array([x2, y2])
        dp = min_distance_to_pit(p, [chain], mesh)
        dq = min_distance_to_pit(q, [chain], mesh)
        assert abs(dp - dq) <= np.hypot(*(p - q)) + 1e-12


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
        interior = None
        t = mesh.triangles
        pairs = np.concatenate([t[:, [0, 1]], t[:, [1, 2]], t[:, [2, 0]]])
        pairs = np.sort(pairs, axis=1)
        uniq, counts = np.unique(pairs, axis=0, return_counts=True)
        interior = tuple(uniq[counts == 2][0])
        mesh.edge_nodes = np.vstack((mesh.edge_nodes, interior)).astype(np.int32)
        mesh.edge_tags = np.append(mesh.edge_tags, BoundaryTag.BOTTOM).astype(np.int16)
        mesh.edge_pits = np.append(mesh.edge_pits, -1).astype(np.int32)
        report = validate(mesh)
        assert not report.ok
        assert any(str(interior) in msg for msg in report.boundary_errors)

    def test_generated_mesh_area_matches_polygon(self):
        mesh, chains, poly = build_initial_mesh(DomainSpec(), PitSpec(nodes=31),
                                                target_h=1.5, seed=2)
        total = mesh.signed_areas().sum()
        x, y = poly[:, 0], poly[:, 1]
        shoelace = 0.5 * abs(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))
        assert abs(total - shoelace) / shoelace < 1e-10

    def test_pit_id_contiguity_checked(self):
        mesh, chains, _ = build_initial_mesh(DomainSpec(), PitSpec(nodes=21),
                                             target_h=2.0, seed=0)
        mesh.edge_pits[mesh.edge_pits == 0] = 1
        report = validate(mesh)
        assert any("contiguous" in msg for msg in report.tag_errors)


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


class TestSelfIntersection:
    def test_simple_polyline_ok(self):
        p = np.array([(0, 0), (1, -1), (2, -1), (3, 0)], dtype=float)
        assert not polyline_self_intersects(p)

    def test_crossing_detected(self):
        p = np.array([(0, 0), (2, -2), (2, -1), (0, -1.5)], dtype=float)
        assert polyline_self_intersects(p)
