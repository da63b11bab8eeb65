import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pitmesh.crystal import (Bicrystal, Crystal, Homogeneous,
                             max_cube_dot, orientation_from_axes,
                             transform_normal, vcorr_many)

S2 = 1.0 / np.sqrt(2.0)
S3 = 1.0 / np.sqrt(3.0)


def unit_normals():
    return st.floats(0, 2 * np.pi).map(
        lambda a: np.array([np.cos(a), np.sin(a)]))


class TestOrientation:
    def test_identity_for_001_100(self):
        o = orientation_from_axes([0, 0, 1], [1, 0, 0])
        assert np.abs(o.matrix() - np.eye(3)).max() < 1e-12

    def test_printed_101_matrix(self):
        o = orientation_from_axes([1, 0, 1], [-1, 0, 1])
        expected = np.array([[-S2, 0, S2], [0, 1, 0], [S2, 0, S2]])
        assert np.abs(o.matrix() - expected).max() < 1e-12

    def test_cross_product_j(self):
        o = orientation_from_axes([0, 0, 1], [0, 1, 0])
        assert np.allclose(o.j, [-1, 0, 0])

    def test_orthonormal(self):
        o = orientation_from_axes([1, 1, 1], [1, -1, 0])
        m = o.matrix()
        assert np.abs(m.T @ m - np.eye(3)).max() < 1e-12
        # j lies along k x i (sign may flip to match the printed convention)
        assert abs(abs(np.dot(o.j, np.cross(o.k, o.i))) - 1.0) < 1e-12

    def test_non_perpendicular_rejected(self):
        with pytest.raises(ValueError, match="dot product"):
            orientation_from_axes([0, 0, 1], [0, 1, 1])

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError, match="nonzero"):
            orientation_from_axes([0, 0, 0], [1, 0, 0])


class TestTransformNormal:
    def test_identity_map(self):
        o = orientation_from_axes([0, 0, 1], [1, 0, 0])
        assert np.allclose(transform_normal(o, np.array([0.0, -1.0])),
                           [0, -1, 0])

    def test_101_x_normal(self):
        o = orientation_from_axes([1, 0, 1], [-1, 0, 1])
        assert np.allclose(transform_normal(o, np.array([1.0, 0.0])),
                           [-S2, 0, S2])

    def test_101_y_normal(self):
        o = orientation_from_axes([1, 0, 1], [-1, 0, 1])
        assert np.allclose(transform_normal(o, np.array([0.0, 1.0])),
                           [0, 1, 0])

    @settings(max_examples=50, deadline=None)
    @given(unit_normals())
    def test_preserves_norm(self, n):
        o = orientation_from_axes([1, 0, 1], [-1, 0, 1])
        assert np.linalg.norm(transform_normal(o, n)) == pytest.approx(1.0)


class TestVcorr:
    def test_characteristic_face_potentials(self):
        o001 = orientation_from_axes([0, 0, 1], [1, 0, 0])
        # normals whose crystal-frame images hit <001>, <011>, <111>
        v001, v011 = vcorr_many(Crystal(o001), np.zeros((2, 2)),
                                np.array([[0.0, -1.0], [S2, -S2]]))
        o101 = orientation_from_axes([1, 0, 1], [-1, 0, 1])
        (v111,) = vcorr_many(Crystal(o101), np.zeros((1, 2)),
                             np.array([[np.sqrt(2.0 / 3.0), -S3]]))
        assert v001 == pytest.approx(-0.2297, abs=5e-5)
        assert v011 == pytest.approx(-0.2455, abs=5e-5)
        assert v111 == pytest.approx(-0.2525, abs=5e-5)

    def test_sign_symmetry(self):
        o = orientation_from_axes([0, 0, 1], [1, 0, 0])
        up, down = vcorr_many(Crystal(o), np.zeros((2, 2)),
                              np.array([[0.0, 1.0], [0.0, -1.0]]))
        assert up == down == pytest.approx(-0.2297, abs=5e-5)

    def test_homogeneous_constant(self):
        normals = np.array([[1.0, 0.0], [0.0, -1.0], [S2, S2]])
        positions = np.tile([3.0, -1.0], (3, 1))
        v = vcorr_many(Homogeneous(-0.24), positions, normals)
        assert np.all(v == -0.24)

    @settings(max_examples=60, deadline=None)
    @given(st.floats(0, 2 * np.pi), st.integers(0, 5), st.integers(0, 7))
    def test_cubic_symmetry(self, angle, perm_idx, sign_mask):
        # vcorr depends only on max |component| of n_CD, which is invariant
        # under coordinate permutations and sign flips
        from itertools import permutations
        n_cd = np.array([np.cos(angle) * 0.6, np.sin(angle) * 0.6, 0.8])
        n_cd /= np.linalg.norm(n_cd)
        perm = list(permutations(range(3)))[perm_idx]
        flipped = n_cd[list(perm)] * np.array(
            [1 if sign_mask & (1 << k) else -1 for k in range(3)])
        assert max_cube_dot(n_cd) == pytest.approx(max_cube_dot(flipped))

    @settings(max_examples=60, deadline=None)
    @given(unit_normals())
    def test_range_bounds(self, n):
        o = orientation_from_axes([1, 0, 1], [-1, 0, 1])
        (v,) = vcorr_many(Crystal(o), np.zeros((1, 2)), n[None, :])
        lo = Crystal.k_const - Crystal.s_const * (1 - S3)
        assert lo - 1e-12 <= v <= Crystal.k_const + 1e-12

    def test_extremes_attained(self):
        o = orientation_from_axes([0, 0, 1], [1, 0, 0])
        assert vcorr_many(Crystal(o), np.zeros((1, 2)),
                          np.array([[0.0, -1.0]]))[0] \
            == pytest.approx(Crystal.k_const)
        o101 = orientation_from_axes([1, 0, 1], [-1, 0, 1])
        (v,) = vcorr_many(Crystal(o101), np.zeros((1, 2)),
                          np.array([[np.sqrt(2.0 / 3.0), -S3]]))
        assert v == pytest.approx(Crystal.k_const - Crystal.s_const * (1 - S3))

    def test_semicircle_argmax_arcs(self):
        # identity orientation: the maximizing <001> member switches at
        # normal angles +-45 degrees from vertical
        o = orientation_from_axes([0, 0, 1], [1, 0, 0])
        cube = np.array([[1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0],
                         [0, 0, 1], [0, 0, -1]], dtype=float)
        angles = np.deg2rad(np.linspace(-89, 89, 179))
        seen = []
        for a in angles:
            n = np.array([np.sin(a), -np.cos(a)])
            n_cd = transform_normal(o, n)
            seen.append(tuple(cube[np.argmax(cube @ n_cd)]))
        uniq = sorted(set(seen))
        assert len(uniq) == 3
        switches = [k for k in range(1, len(seen)) if seen[k] != seen[k - 1]]
        assert len(switches) == 2
        assert np.rad2deg(angles[switches[0]]) == pytest.approx(-45, abs=1.1)
        assert np.rad2deg(angles[switches[1]]) == pytest.approx(45.0, abs=1.1)

    def test_bicrystal_sides(self):
        o001 = orientation_from_axes([0, 0, 1], [1, 0, 0])
        o101 = orientation_from_axes([1, 0, 1], [-1, 0, 1])
        mat = Bicrystal(0.0, o001, o101)
        # an x-normal lands on <001> for the left grain but on a <011>-type
        # image for the right grain, so it tells the two sides apart
        normals = np.tile([1.0, 0.0], (3, 1))
        left, right, boundary = vcorr_many(
            mat, np.array([[-1.0, -2.0], [1.0, -2.0], [0.0, -2.0]]),
            normals)
        assert left == pytest.approx(mat.k_const)
        assert right == pytest.approx(mat.k_const - mat.s_const * (1 - S2))
        # x exactly on the interface uses the right-side orientation
        assert boundary == right

    def test_vectorized_matches_scalar(self):
        o = orientation_from_axes([1, 0, 1], [-1, 0, 1])
        mat = Crystal(o)
        rng = np.random.default_rng(5)
        angles = rng.uniform(0, 2 * np.pi, 17)
        normals = np.column_stack((np.cos(angles), np.sin(angles)))
        pos = rng.uniform(-5, 5, (17, 2))
        many = vcorr_many(mat, pos, normals)
        each = [vcorr_many(mat, pos[k:k + 1], normals[k:k + 1])[0]
                for k in range(len(pos))]
        assert np.array_equal(many, each)
        # the batch rotates each normal as transform_normal does one
        n_cd = np.array([transform_normal(o, n) for n in normals])
        assert np.array_equal(
            many, mat.k_const - mat.s_const * (1.0 - max_cube_dot(n_cd)))

    def test_negative_s_rejected(self):
        o = orientation_from_axes([0, 0, 1], [1, 0, 0])
        with pytest.raises(ValueError, match="s_const must be >= 0"):
            Crystal(o, s_const=-0.1)
        with pytest.raises(ValueError, match="s_const must be >= 0"):
            Bicrystal(0.0, o, o, s_const=-0.1)
