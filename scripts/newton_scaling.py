#!/usr/bin/env python3
"""Newton's band solve against mesh size on the homogeneous run.

For each target_h, runs configs/homogeneous.cfg to --t-end and prints the
free vertices of the potential solve (those off the Dirichlet set), the
bandwidth of their fem.BandLayout, the median wall time of one
fem.newton_solve call, and the Jacobian factorisations and
conjugate-gradient iterations per call, with the run's own wall time
beside it.  The counts come from wrapping fem.cholesky_banded and
fem.band_solve: each factorisation is followed by one direct solve,
and each conjugate-gradient iteration makes one preconditioner solve.  Pin
BLAS to one thread, as the benchmark does, to compare timings:

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python3 scripts/newton_scaling.py
"""

import argparse
import os
import time

import numpy as np

from pitmesh import fem
from pitmesh.driver import run
from pitmesh.io import parse_config

CONFIG = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                      "configs", "homogeneous.cfg")


def newton_timed(target_h: float, t_end: float) -> dict:
    """One run's vertex counts, bandwidth, Newton call times and work."""
    cfg = parse_config(CONFIG)
    cfg.target_h = target_h
    cfg.front.t_end = t_end
    times = []
    layouts = []
    # band factorisations and solves inside newton_solve; the mesh
    # relaxation factorises through fem.cholesky_banded too
    work = {"inside": False, "factor": 0, "solve": 0}
    real, real_factor, real_solve = (fem.newton_solve, fem.cholesky_banded,
                                     fem.band_solve)

    def timed(*args, **kwargs):
        work["inside"] = True
        start = time.perf_counter()
        try:
            res = real(*args, **kwargs)
        finally:
            work["inside"] = False
        times.append(time.perf_counter() - start)
        layouts.append(kwargs["structure"].newton_layout(args[0]))
        return res

    def factor(*args, **kwargs):
        work["factor"] += work["inside"]
        return real_factor(*args, **kwargs)

    def solve(*args, **kwargs):
        work["solve"] += 1
        return real_solve(*args, **kwargs)

    fem.newton_solve, fem.cholesky_banded, fem.band_solve = (
        timed, factor, solve)
    try:
        start = time.perf_counter()
        result = run(cfg)
        wall = time.perf_counter() - start
    finally:
        fem.newton_solve, fem.cholesky_banded, fem.band_solve = (
            real, real_factor, real_solve)
    layout = layouts[-1]
    calls = len(times)
    return {"vertices": result.mesh.n_vertices, "free": len(layout.order),
            "width": layout.width, "calls": calls,
            "newton_ms": 1e3 * float(np.median(times)),
            "factors": work["factor"] / calls,
            "pcg": (work["solve"] - work["factor"]) / calls, "wall_s": wall}


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--target-h", type=float, nargs="+",
                        default=[1.0, 0.7, 0.5, 0.35])
    parser.add_argument("--t-end", type=float, default=10.0)
    args = parser.parse_args()

    print(f"homogeneous run to t = {args.t_end:g} s")
    print(f"{'target_h':>8} {'vertices':>8} {'free':>6} {'width':>5} "
          f"{'calls':>5} {'newton ms':>9} {'factors':>7} {'pcg':>5} "
          f"{'run s':>6}")
    for target_h in args.target_h:
        row = newton_timed(target_h, args.t_end)
        print(f"{target_h:8g} {row['vertices']:8d} {row['free']:6d} "
              f"{row['width']:5d} {row['calls']:5d} {row['newton_ms']:9.2f} "
              f"{row['factors']:7.2f} {row['pcg']:5.2f} {row['wall_s']:6.2f}")


if __name__ == "__main__":
    main()
