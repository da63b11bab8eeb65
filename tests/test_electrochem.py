import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pitmesh import electrochem as ec
from pitmesh.electrochem import ElectroParams, OverflowGuardError


@pytest.fixture
def params():
    return ElectroParams()


class TestOverpotential:
    def test_table_values(self, params):
        assert ec.overpotential(params, -0.24, 0.0) == pytest.approx(0.10)

    def test_zero_overpotential(self, params):
        phi = params.V_app - (-0.24)
        assert ec.overpotential(params, -0.24, phi) == pytest.approx(0.0)

    def test_arithmetic(self, params):
        assert ec.overpotential(params, -0.2297, 0.05) \
            == pytest.approx(-0.14 + 0.2297 - 0.05)


class TestCurrentDensity:
    def test_exponent_value(self, params):
        # scalar evaluation with the tabulated constants
        expo = params.zf_rt * (-0.24 + 0.5 * ec.overpotential(params, -0.24, 0.0))
        assert expo == pytest.approx(-16.19, abs=0.01)
        i = ec.current_density(params, -0.24, 0.0)
        assert i == pytest.approx(params.z * ec.FARADAY * params.a_diss_si
                                  * np.exp(expo))

    def test_alpha_zero_decouples_phi(self):
        p = ElectroParams(alpha=1e-300)  # alpha must stay in (0,1]
        i1 = ec.current_density(p, -0.24, 0.0)
        i2 = ec.current_density(p, -0.24, 0.37)
        assert i1 == pytest.approx(i2)

    def test_monotone_decreasing_in_phi(self, params):
        phis = np.linspace(-0.05, 0.05, 11)
        vals = ec.current_density(params, -0.24, phis)
        assert np.all(np.diff(vals) < 0)

    def test_overflow_guard(self, params):
        with pytest.raises(OverflowGuardError, match="exceeds"):
            ec.current_density(params, 25.0, 0.0)

    @pytest.mark.parametrize("v_corr, phi, named, index", [
        # the largest v_corr (point 1) and the smallest phi (point 2) are
        # not where the exponent overflows (point 0)
        ([25.0, 30.0, 0.0], [0.0, 30.0, -10.0], "v_corr=25 V, phi=0 V", 0),
        (25.0, [0.0, -1.0, 3.0], "v_corr=25 V, phi=-1 V", 1),
    ])
    def test_overflow_names_the_overflowing_point(self, params, v_corr, phi,
                                                  named, index):
        with pytest.raises(OverflowGuardError, match=rf"\({named}\)") as err:
            ec.current_density(params, np.asarray(v_corr), np.asarray(phi))
        assert err.value.index == index


class TestNormalVelocity:
    def test_si_prefactor(self, params):
        assert params.a_diss_si / params.c_solid_si \
            == pytest.approx(4e4 / 1.43e5)

    def test_crystal_face_ordering(self, params):
        v001 = ec.normal_velocity(params, -0.2297, 0.0)
        v011 = ec.normal_velocity(params, -0.2455, 0.0)
        v111 = ec.normal_velocity(params, -0.2525, 0.0)
        assert v111 < v011 < v001

    def test_always_positive(self, params):
        rng = np.random.default_rng(0)
        vc = rng.uniform(-0.3, -0.1, 100)
        phi = rng.uniform(-0.05, 0.05, 100)
        assert np.all(ec.normal_velocity(params, vc, phi) > 0)

    @settings(max_examples=100, deadline=None)
    @given(st.floats(-0.30, -0.10), st.floats(-0.05, 0.05))
    def test_faraday_identity(self, vc, phi):
        p = ElectroParams()
        vn = ec.normal_velocity(p, vc, phi)
        i = ec.current_density(p, vc, phi)
        assert vn * p.z * ec.FARADAY * p.c_solid_si \
            == pytest.approx(i, rel=1e-12)

    def test_faraday_identity_thousand_draws(self):
        p = ElectroParams()
        rng = np.random.default_rng(7)
        vc = rng.uniform(-0.30, -0.10, 1000)
        phi = rng.uniform(-0.05, 0.05, 1000)
        vn = ec.normal_velocity(p, vc, phi)
        i = ec.current_density(p, vc, phi)
        rel = np.abs(vn * p.z * ec.FARADAY * p.c_solid_si - i) / i
        assert rel.max() < 1e-12

    def test_increasing_in_vcorr_for_alpha_below_one(self, params):
        vcs = np.linspace(-0.3, -0.2, 9)
        vals = ec.normal_velocity(params, vcs, 0.0)
        assert np.all(np.diff(vals) > 0)


class TestValidation:
    def test_defaults_valid(self, params):
        params.validate()

    def test_bad_alpha(self):
        with pytest.raises(ValueError, match="alpha"):
            ElectroParams(alpha=1.5).validate()

    def test_bad_sigma(self):
        with pytest.raises(ValueError, match="sigma_c"):
            ElectroParams(sigma_c=0.0).validate()
