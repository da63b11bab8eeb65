"""Crystal orientation transforms and the corrosion potential V_corr.

The corrosion potential of a crystalline grain depends on which
crystallographic face is exposed: the exposed-face normal is rotated
into the crystal frame and scored against the six signed <001> cube
directions.  All functions are pure.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

@dataclass(frozen=True)
class ZoneOrientation:
    """Orthonormal crystal-frame axes (columns of the A^-1 transform).

    k is the zone axis (out of plane), i maps the computational x axis,
    j completes the frame along k x i with its sign chosen so j_y >= 0,
    matching the printed convention for the [101]/[-101] orientation.
    """

    i: np.ndarray
    j: np.ndarray
    k: np.ndarray

    def matrix(self) -> np.ndarray:
        return np.column_stack((self.i, self.j, self.k))


@dataclass(frozen=True)
class Homogeneous:
    v_corr: float = -0.24  # volts


@dataclass(frozen=True, kw_only=True)
class _FaceLaw:
    """V_corr = k_const - s_const (1 - max_i |n_cd . e_i|) of a grain."""

    k_const: float = -0.2297  # volts
    s_const: float = 0.054    # volts

    def __post_init__(self) -> None:
        if self.s_const < 0.0:
            raise ValueError(f"s_const must be >= 0, got {self.s_const}")


@dataclass(frozen=True)
class Crystal(_FaceLaw):
    orientation: ZoneOrientation


@dataclass(frozen=True)
class Bicrystal(_FaceLaw):
    x_interface: float  # micrometers
    left: ZoneOrientation
    right: ZoneOrientation


MaterialSpec = Union[Homogeneous, Crystal, Bicrystal]


def orientation_from_axes(zone_axis, x_direction) -> ZoneOrientation:
    """Build a ZoneOrientation from integer zone-axis and x-direction vectors.

    The inputs must be nonzero and mutually perpendicular.
    """
    k = np.asarray(zone_axis, dtype=np.float64)
    i = np.asarray(x_direction, dtype=np.float64)
    nk, ni = np.linalg.norm(k), np.linalg.norm(i)
    if nk == 0.0 or ni == 0.0:
        raise ValueError("zone_axis and x_direction must be nonzero")
    dot = float(np.dot(k, i))
    if abs(dot) > 1e-12 * nk * ni:
        raise ValueError(f"zone_axis and x_direction not perpendicular "
                         f"(dot product {dot:g})")
    k = k / nk
    i = i / ni
    j = np.cross(k, i)
    if j[1] < 0.0:
        j = -j
    return ZoneOrientation(i=i, j=j, k=k)


def transform_normal(orientation: ZoneOrientation, n: np.ndarray) -> np.ndarray:
    """Map in-plane unit normals, (2,) or (m,2), into the crystal frame."""
    n = np.asarray(n, dtype=np.float64)
    return n[..., 0, None] * orientation.i + n[..., 1, None] * orientation.j


def max_cube_dot(n_cd: np.ndarray) -> np.ndarray:
    """Max dot product of n_cd with the six signed <001> directions.

    Equal to the largest absolute component; works on (3,) or (m,3).
    """
    return np.max(np.abs(n_cd), axis=-1)


def _orientations_for(material: MaterialSpec, positions: np.ndarray):
    """Per-point orientation lookup; x == x_interface uses the right grain."""
    if isinstance(material, Crystal):
        return [(slice(None), material.orientation)]
    left = positions[:, 0] < material.x_interface
    return [(left, material.left), (~left, material.right)]


def vcorr_many(material: MaterialSpec, positions: np.ndarray,
               normals: np.ndarray) -> np.ndarray:
    """Vectorized corrosion potential for (m,2) positions and unit normals."""
    positions = np.asarray(positions, dtype=np.float64)
    normals = np.asarray(normals, dtype=np.float64)
    if isinstance(material, Homogeneous):
        return np.full(len(positions), material.v_corr)
    out = np.empty(len(positions))
    for sel, orient in _orientations_for(material, positions):
        n_cd = transform_normal(orient, normals[sel])
        out[sel] = material.k_const \
            - material.s_const * (1.0 - max_cube_dot(n_cd))
    return out
