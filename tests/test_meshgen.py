import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from pitmesh import meshgen
from pitmesh.io import parse_config
from pitmesh.mesh import BoundaryTag
from pitmesh.meshgen import DomainSpec, PitSpec, build_initial_mesh

from oracles import points_in_polygon

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
CONFIGS = sorted(CONFIG_DIR.glob("*.cfg"))


def polygon_and_pit_edges(pits: PitSpec, h: float = 0.7):
    poly, tags, _, _ = meshgen._polygon(DomainSpec(), pits, h)
    pit = tags == BoundaryTag.PIT
    return poly, (poly[pit], np.roll(poly, -1, axis=0)[pit])


@pytest.mark.parametrize("centers", [(0.0,), (-6.0, 6.0), (-12.0, 0.0, 12.0)],
                         ids=["one-pit", "two-pit", "three-pit"])
def test_point_test_matches_the_dense_even_odd_rule(centers):
    # random points over the domain's box, above, below and on both sides
    # of y = 0, plus the lattice-like points just above and below it
    pits = PitSpec(centers=centers, width=8.0, depth=5.0, nodes=31)
    poly, pit_edges = polygon_and_pit_edges(pits)
    rng = np.random.default_rng(len(centers))
    points = np.column_stack((rng.uniform(-19.9, 19.9, 20000),
                              rng.uniform(-5.5, 19.9, 20000)))
    near = np.column_stack((rng.uniform(-19.9, 19.9, 2000),
                            rng.choice([-1e-9, 1e-9], 2000)))
    points = np.vstack((points, near))
    inside = meshgen.points_in_domain(points, *pit_edges)
    assert np.array_equal(inside, points_in_polygon(points, poly))
    assert inside.any() and not inside.all()
    assert not inside[points[:, 1] < 0.0].all()


@pytest.mark.parametrize("target_h", [0.7, 0.35])
@pytest.mark.parametrize("path", CONFIGS, ids=lambda path: path.stem)
def test_mesh_matches_the_dense_clip(path, target_h, monkeypatch):
    cfg = parse_config(str(path))
    mesh, chains, poly = build_initial_mesh(cfg.domain, cfg.pits, target_h,
                                            cfg.seed)
    monkeypatch.setattr(meshgen, "points_in_domain",
                        lambda points, a, b: points_in_polygon(points, poly))
    dense, dense_chains, _ = build_initial_mesh(cfg.domain, cfg.pits,
                                                target_h, cfg.seed)
    assert np.array_equal(mesh.vertices, dense.vertices)
    assert np.array_equal(mesh.triangles, dense.triangles)
    assert np.array_equal(mesh.edge_nodes, dense.edge_nodes)
    assert np.array_equal(mesh.edge_tags, dense.edge_tags)
    for chain, dense_chain in zip(chains, dense_chains, strict=True):
        assert np.array_equal(chain.vertices, dense_chain.vertices)


def test_memory_grows_linearly_with_the_mesh():
    # the dense clip's (points x polygon edges) tables peaked at 97 MiB
    # here; the blocked test keeps the peak near the mesh's own size
    cfg = parse_config(str(CONFIG_DIR / "twopit.cfg"))
    tracemalloc.start()
    try:
        mesh, _, _ = build_initial_mesh(cfg.domain, cfg.pits, 0.35, cfg.seed)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert mesh.n_vertices > 7000
    assert peak < 16 * 2**20
