"""Moving-mesh finite-element simulation of pitting corrosion.

A fixed-topology triangular mesh follows a growing corrosion pit: a
distance-based monitor function drives a gradient-flow mesh equation,
the electrolyte potential is solved with P1 finite elements and a
Butler-Volmer pit flux, and the pit front advances by Faraday's law
with crystallography-dependent corrosion potentials.
"""

from .mesh import BoundaryTag, MeshError, PitChain, TriMesh
from .crystal import Bicrystal, Crystal, Homogeneous, VcorrParams, ZoneOrientation
from .electrochem import ElectroParams
from .adapt import AdaptParams
from .front import FrontParams
from .driver import SimConfig, TimeSeries, PowerLawFit

__all__ = [
    "AdaptParams",
    "Bicrystal",
    "BoundaryTag",
    "Crystal",
    "ElectroParams",
    "FrontParams",
    "Homogeneous",
    "MeshError",
    "PitChain",
    "PowerLawFit",
    "SimConfig",
    "TimeSeries",
    "TriMesh",
    "VcorrParams",
    "ZoneOrientation",
]

__version__ = "0.1.0"
