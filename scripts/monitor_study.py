#!/usr/bin/env python3
"""Mesh-density parameter study: effect of mu1 and mu2 on node clustering.

For each parameter value the initial mesh is built and smoothed, then two
statistics are reported: the shortest interior edge within 2 um of the
pit boundary (shrinks as mu1 grows) and the half-excess radius (shrinks as
mu2 grows). With E(r) the count of smoothed-mesh vertices within pit
distance r minus that of the unsmoothed mesh, the half-excess radius is the
smallest r at which E reaches half its maximum: the radius holding half of
the vertices that smoothing drew in. The maximum (the peak excess) is
printed beside it.
"""

import argparse

import numpy as np

from pitmesh.driver import SimConfig, init_mesh
from pitmesh.mesh import min_distance_to_pit
from pitmesh.meshgen import build_initial_mesh


def near_pit_min_edge(mesh, chains, radius=2.0):
    """Shortest edge with no end on a chain and its midpoint within radius of a pit."""
    edges = mesh.unique_edges()
    on_chain = np.zeros(mesh.n_vertices, dtype=bool)
    for chain in chains:
        on_chain[chain.vertices] = True
    edges = edges[~(on_chain[edges[:, 0]] | on_chain[edges[:, 1]])]
    mid = 0.5 * (mesh.vertices[edges[:, 0]] + mesh.vertices[edges[:, 1]])
    d = min_distance_to_pit(mid, chains, mesh)
    return float(mesh.edge_lengths(edges)[d <= radius].min())


def half_excess_radius(mesh, initial, chains):
    """Width of the band of vertices that smoothing drew towards the pit.

    E(r) = N(r) - N0(r) is the count of vertices within pit distance r of
    the smoothed mesh minus that of the unsmoothed one. Returns the smallest
    r at which E reaches half its maximum, and that maximum; the radius is
    None when smoothing drew no vertices in (max E <= 0).
    """
    d = np.sort(min_distance_to_pit(mesh.vertices, chains, mesh))
    d0 = np.sort(min_distance_to_pit(initial.vertices, chains, initial))
    r = np.union1d(d, d0)
    excess = (np.searchsorted(d, r, side="right")
              - np.searchsorted(d0, r, side="right"))
    peak = int(excess.max())
    if peak <= 0:
        return None, peak
    return float(r[np.argmax(excess >= 0.5 * peak)]), peak


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--target-h", type=float, default=0.7)
    parser.add_argument("--mu1", type=float, nargs="+",
                        default=[1.0, 10.0, 100.0])
    parser.add_argument("--mu2", type=float, nargs="+",
                        default=[1.0, 10.0, 20.0])
    args = parser.parse_args()

    print("mu1 sweep (mu2 = 1):")
    for mu1 in args.mu1:
        cfg = SimConfig()
        cfg.target_h = args.target_h
        cfg.adapt.mu1 = mu1
        result = init_mesh(cfg)
        print(f"  mu1 = {mu1:6g}: min near-pit edge "
              f"{near_pit_min_edge(result.mesh, result.chains):.4f} um "
              f"({len(result.smooth.trace)} smoothing iterations)")

    print("mu2 sweep (mu1 = 100):")
    for mu2 in args.mu2:
        cfg = SimConfig()
        cfg.target_h = args.target_h
        cfg.adapt.mu2 = mu2
        result = init_mesh(cfg)
        initial, _, _ = build_initial_mesh(cfg.domain, cfg.pits, cfg.target_h,
                                           cfg.seed)
        radius, peak = half_excess_radius(result.mesh, initial, result.chains)
        shown = "none" if radius is None else f"{radius:.4f} um"
        print(f"  mu2 = {mu2:6g}: half-excess radius {shown} "
              f"(peak excess {peak} vertices)")


if __name__ == "__main__":
    main()
