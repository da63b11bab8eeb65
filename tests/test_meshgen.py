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
WORKLOADS = sorted((CONFIG_DIR.parent / "bench" / "workloads").glob("*.cfg"))


def polygon_and_pit_edges(pits: PitSpec, h: float = 0.7):
    poly, tags, _, _ = meshgen._polygon(DomainSpec(), pits, h)
    pit = tags == BoundaryTag.PIT
    return poly, (poly[pit], np.roll(poly, -1, axis=0)[pit])


def measure_every_lattice_point(monkeypatch):
    """Make every lattice point a clearance candidate: an infinite
    rounding margin puts them all within reach of the polygon."""
    monkeypatch.setattr(meshgen, "_KEPT_SLACK", np.inf)


def assert_same_mesh(got, want):
    """Two build_initial_mesh results are equal bit for bit."""
    (mesh, chains, poly), (dense, dense_chains, dense_poly) = got, want
    assert np.array_equal(poly, dense_poly)
    assert np.array_equal(mesh.vertices, dense.vertices)
    assert np.array_equal(mesh.triangles, dense.triangles)
    assert np.array_equal(mesh.edge_nodes, dense.edge_nodes)
    assert np.array_equal(mesh.edge_tags, dense.edge_tags)
    for chain, dense_chain in zip(chains, dense_chains, strict=True):
        assert np.array_equal(chain.vertices, dense_chain.vertices)


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
    assert_same_mesh((mesh, chains, poly),
                     build_initial_mesh(cfg.domain, cfg.pits, target_h,
                                        cfg.seed))


@pytest.mark.parametrize("target_h", [0.7, 0.35])
@pytest.mark.parametrize("path", CONFIGS + WORKLOADS,
                         ids=lambda path: f"{path.parent.name}-{path.stem}")
def test_mesh_matches_the_dense_clearance(path, target_h, monkeypatch):
    # the clearance measured on the candidates near the boundary against
    # the clearance measured on every lattice point, over four jitters
    cfg = parse_config(str(path))
    for seed in range(4):
        got = build_initial_mesh(cfg.domain, cfg.pits, target_h, seed)
        with monkeypatch.context() as patch:
            measure_every_lattice_point(patch)
            want = build_initial_mesh(cfg.domain, cfg.pits, target_h, seed)
        assert_same_mesh(got, want)


def test_clearance_decided_by_the_right_wall_and_the_top(monkeypatch):
    # the last lattice column and row sit 0.555 h from the right wall and
    # the top, so the 0.01 h jitter puts some of their points closer than
    # the 0.55 h clearance and keeps others: the side walls decide there
    h = 0.7
    pits = PitSpec()
    domain = DomainSpec(xmin=-20.0, xmax=-20.0 + (1.155 + 56) * h,
                        height=-pits.depth + (1.155 + 36) * h)
    xs = np.arange(domain.xmin + 0.6 * h, domain.xmax - 0.55 * h, h)
    ys = np.arange(-pits.depth + 0.6 * h, domain.height - 0.55 * h, h)
    assert domain.xmax - xs[-1] == pytest.approx(0.555 * h)
    assert domain.height - ys[-1] == pytest.approx(0.555 * h)
    args = (domain, pits, h)
    poly, tags, _, gaps = meshgen._polygon(*args)
    pit = tags == BoundaryTag.PIT
    pit_edges = (poly[pit], np.roll(poly, -1, axis=0)[pit])
    lattice = [meshgen._interior_lattice(domain, pits, poly, pit_edges, h,
                                         seed, gaps) for seed in range(4)]
    with monkeypatch.context() as patch:
        measure_every_lattice_point(patch)
        dense = [meshgen._interior_lattice(domain, pits, poly, pit_edges, h,
                                           seed, gaps) for seed in range(4)]
        want = [build_initial_mesh(*args, seed) for seed in range(4)]
    for seed in range(4):
        assert np.array_equal(lattice[seed], dense[seed])
        assert_same_mesh(build_initial_mesh(*args, seed), want[seed])
        # points of the last column and the top row that no other edge
        # comes near: some kept, some dropped
        pts = lattice[seed]
        inner_y = ys[(ys > 0.6 * h) & (ys < ys[-1] - 0.5 * h)]
        inner_x = xs[(xs > xs[0] + 0.5 * h) & (xs < xs[-1] - 0.5 * h)]
        column = (pts[:, 0] > xs[-1] - 0.1 * h) \
            & (pts[:, 1] > inner_y[0] - 0.1 * h) \
            & (pts[:, 1] < inner_y[-1] + 0.1 * h)
        row = (pts[:, 1] > ys[-1] - 0.1 * h) \
            & (pts[:, 0] > inner_x[0] - 0.1 * h) \
            & (pts[:, 0] < inner_x[-1] + 0.1 * h)
        assert 0 < np.count_nonzero(column) < len(inner_y)
        assert 0 < np.count_nonzero(row) < len(inner_x)


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
