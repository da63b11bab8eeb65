"""Butler-Volmer current density and Faraday front velocity.

Physics is evaluated in SI units; the 316 stainless steel defaults carry
the mixed units they are usually quoted in (mol/cm^2 s, mol/l) and are
converted once here.  Geometry elsewhere is in micrometers, so the
driver multiplies normal velocities by 1e6 before moving the front.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

EXP_GUARD = 700.0  # exp() overflows just above 709


class OverflowGuardError(ArithmeticError):
    """Butler-Volmer exponent too large to evaluate."""


@dataclass
class ElectroParams:
    z: float = 2.19           # average charge number
    F: float = 96485.0        # Faraday constant, C/mol
    R: float = 8.315          # gas constant, J/(mol K)
    T: float = 298.15         # temperature, K
    V_app: float = -0.14      # applied potential, V
    A_diss: float = 4.0       # dissolution affinity, mol/(cm^2 s)
    c_solid: float = 143.0    # solid concentration, mol/l
    alpha: float = 0.5        # transfer coefficient (not reported upstream)
    sigma_c: float = 1.0      # electrolyte conductivity, S/m (not reported)

    def validate(self) -> None:
        for name in ("z", "F", "R", "T", "A_diss", "c_solid", "sigma_c"):
            if getattr(self, name) <= 0.0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")
        if not 0.0 < self.alpha <= 1.0:
            raise ValueError(f"alpha must be in (0, 1], got {self.alpha}")

    @property
    def a_diss_si(self) -> float:
        """Dissolution affinity in mol/(m^2 s)."""
        return self.A_diss * 1.0e4

    @property
    def c_solid_si(self) -> float:
        """Solid concentration in mol/m^3."""
        return self.c_solid * 1.0e3

    @property
    def zf_rt(self) -> float:
        """z F / (R T), 1/volt."""
        return self.z * self.F / (self.R * self.T)


def overpotential(p: ElectroParams, v_corr, phi):
    """Anodic overpotential eta_a = V_app - V_corr - phi (volts)."""
    return p.V_app - np.asarray(v_corr) - np.asarray(phi)


def _exponent(p: ElectroParams, v_corr, phi):
    expo = p.zf_rt * (np.asarray(v_corr)
                      + p.alpha * overpotential(p, v_corr, phi))
    if np.any(expo > EXP_GUARD):
        worst = float(np.max(expo))
        raise OverflowGuardError(
            f"Butler-Volmer exponent {worst:.3g} exceeds {EXP_GUARD:g} "
            f"(v_corr={np.max(np.asarray(v_corr)):.4g} V, "
            f"phi={np.min(np.asarray(phi)):.4g} V)")
    return expo


def current_density(p: ElectroParams, v_corr, phi):
    """Anodic current density, A/m^2."""
    return p.z * p.F * p.a_diss_si * np.exp(_exponent(p, v_corr, phi))


def normal_velocity(p: ElectroParams, v_corr, phi):
    """Faraday front speed i/(z F c_solid), m/s; always positive."""
    return (p.a_diss_si / p.c_solid_si) * np.exp(_exponent(p, v_corr, phi))
