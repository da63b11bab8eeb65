"""Moving-mesh finite-element simulation of pitting corrosion.

A fixed-topology triangular mesh follows a growing corrosion pit: a
distance-based monitor function drives a gradient-flow mesh equation,
the electrolyte potential is solved with P1 finite elements and a
Butler-Volmer pit flux, and the pit front advances by Faraday's law
with crystallography-dependent corrosion potentials.  Importing the
package loads no submodule; import the one you use.
"""

__version__ = "0.1.0"
