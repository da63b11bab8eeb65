#!/usr/bin/env python3
"""Paired step timings of two pitmesh checkouts in one process.

Imports each checkout's src/pitmesh under its own package name, then runs
one bench/workloads/ config through driver.run on both, pass by pass.
Pass k uses jitter seed seed + k on both sides, and the side that runs
first alternates from pass to pass.  Each pass records its set-up time
(run start to the step-0 hook), its step times (hook to hook) and its
whole time.  Runs of one revision in separate processes spread more than
the gains this is meant to see, so only pairs from one process compare.

Prints one line per pass and then, for step p50, step p90, set-up and
pass time, the median and quartiles of the per-pass ratios change /
parent and the passes the change won.  Each pass line and the summary
also give each side's step relaxation iterations and Newton iterations,
the initial solve's included, summed over RunResult.records.  A pass
whose final depth, width, step count or smallest cell area differ
between the two sides is flagged, with the largest |depth| and |width|
differences over the time series rows both sides have and the relative
difference of the smallest area; the outputs are meant to be
bit-identical.  The last line is the summary
as JSON.  Reads bench/workloads/ only and writes nothing:

    OPENBLAS_NUM_THREADS=1 python3 scripts/ab_steps.py PARENT CHANGE \\
        --workload homog --pairs 28

With --setup each pass stops at the step-0 hook, as bench/run.py's
set-up top-ups do, so a pair costs two set-ups rather than two runs; the
summary then has the set-up ratios alone, and a pair whose smoothed mesh
or step-0 phi differ between the sides is flagged.  Each pass line and
the summary also give each side's initial smoothing L-BFGS iterations,
the sum of its SmoothResult.flow_iters.
"""

import argparse
import importlib
import importlib.util
import json
import logging
import os
import statistics
import sys
import time
from pathlib import Path

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402  (after the BLAS thread pins)

WORKLOADS = Path(__file__).resolve().parent.parent / "bench" / "workloads"
SIDES = ("parent", "change")


def load_checkout(root: str, name: str):
    """root/src/pitmesh imported as package name, with driver and io."""
    src = Path(root).resolve() / "src" / "pitmesh"
    spec = importlib.util.spec_from_file_location(
        name, src / "__init__.py", submodule_search_locations=[str(src)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    importlib.import_module(f"{name}.driver")
    importlib.import_module(f"{name}.io")
    return package


class _SetupDone(Exception):
    """Raised from the step-0 hook to end a set-up-only pass."""


def setup_pass(package, config_path: Path, jitter: int) -> dict:
    """driver.run of the config at a jitter seed, up to its step-0 hook."""
    config = package.io.parse_config(str(config_path))
    config.seed = jitter
    got = {}
    smooth_mesh = package.adapt.smooth_mesh

    def counted(*args, **kwargs):
        result = smooth_mesh(*args, **kwargs)
        got["smoothing_iters"] = sum(result.flow_iters)
        return result

    package.adapt.smooth_mesh = counted
    start = time.perf_counter()

    def hook(step, t, mesh, chains, phi):
        got["setup_s"] = time.perf_counter() - start
        got["outputs"] = (mesh.vertices.tobytes(), mesh.triangles.tobytes(),
                          phi.tobytes())
        raise _SetupDone

    try:
        package.driver.run(config, step_hook=hook)
    except _SetupDone:
        return got
    finally:
        package.adapt.smooth_mesh = smooth_mesh
    raise RuntimeError("driver.run returned without calling the step-0 hook")


def iteration_totals(result) -> dict:
    """A run's step relaxation and Newton iterations."""
    records = result.records
    return {"relaxation_iters": sum(r.relaxation_iterations for r in records),
            "newton_iters": result.init.newton_iterations
            + sum(r.newton_iterations for r in records)}


def timed_pass(package, config_path: Path, jitter: int) -> dict:
    """One driver.run of the config at a jitter seed, timed at its hooks."""
    config = package.io.parse_config(str(config_path))
    config.seed = jitter
    stamps = []
    start = time.perf_counter()
    result = package.driver.run(
        config, step_hook=lambda *args: stamps.append(time.perf_counter()))
    end = time.perf_counter()
    steps = 1e3 * np.diff(stamps)
    return {"setup_s": stamps[0] - start, "pass_s": end - start,
            "p50": float(np.percentile(steps, 50)),
            "p90": float(np.percentile(steps, 90)),
            **iteration_totals(result),
            "series": (result.series.depth, result.series.width),
            "outputs": (result.series.depth[-1], result.series.width[-1],
                        result.steps, result.min_area_seen)}


def output_differences(parent: dict, change: dict) -> str:
    """The largest depth and width differences and the smallest area's."""
    rows = min(len(parent["series"][0]), len(change["series"][0]))
    depth, width = (float(np.max(np.abs(np.subtract(a[:rows], b[:rows]))))
                    for a, b in zip(parent["series"], change["series"]))
    area = change["outputs"][3] / parent["outputs"][3] - 1.0
    return (f"|d depth| {depth:.2g} um, |d width| {width:.2g} um, "
            f"smallest area {area:+.2%}")


def summary(ratios: list) -> dict:
    q1, median, q3 = statistics.quantiles(ratios, n=4)
    return {"median": statistics.median(ratios), "q1": q1, "q3": q3,
            "change_wins": sum(r < 1.0 for r in ratios), "pairs": len(ratios)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", help="root of the parent checkout")
    parser.add_argument("change", help="root of the changed checkout")
    parser.add_argument("--workload", default="homog",
                        help="bench/workloads/<name>.cfg (default homog)")
    parser.add_argument("--seed", type=int, default=0,
                        help="jitter seed of the first pass")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--setup", action="store_true",
                        help="time set-ups alone, each pass stopped at step 0")
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2")
    config_path = WORKLOADS / f"{args.workload}.cfg"
    if not config_path.is_file():
        parser.error(f"no workload config {config_path}")
    # both sides log the same warnings; keep them off the report
    logging.getLogger("pitmesh").setLevel(logging.ERROR)
    packages = {side: load_checkout(root, f"pitmesh_{side}")
                for side, root in zip(SIDES, (args.parent, args.change))}
    for package in packages.values():
        logging.getLogger(package.__name__).setLevel(logging.ERROR)

    keys = ("setup_s",) if args.setup else ("p50", "p90", "setup_s", "pass_s")
    run_pass = setup_pass if args.setup else timed_pass
    iters_keys = (("smoothing_iters",) if args.setup
                  else ("relaxation_iters", "newton_iters"))
    ratios = {key: [] for key in keys}
    iters = {key: {side: [] for side in SIDES} for key in iters_keys}
    differing = []
    for k in range(args.pairs):
        jitter = args.seed + k
        order = SIDES if k % 2 == 0 else SIDES[::-1]
        got = {side: run_pass(packages[side], config_path, jitter)
               for side in order}
        for key in keys:
            ratios[key].append(got["change"][key] / got["parent"][key])
        same = got["parent"]["outputs"] == got["change"]["outputs"]
        if not same:
            differing.append(jitter)
        parent, change = got["parent"], got["change"]
        for key in iters_keys:
            for side in SIDES:
                iters[key][side].append(got[side][key])
        if args.setup:
            times = (f"set-up {1e3 * parent['setup_s']:.2f} -> "
                     f"{1e3 * change['setup_s']:.2f} ms, smoothing "
                     f"iterations {parent['smoothing_iters']} -> "
                     f"{change['smoothing_iters']}")
        else:
            times = (f"step p50 {parent['p50']:.3f} -> {change['p50']:.3f} ms, "
                     f"p90 {parent['p90']:.3f} -> {change['p90']:.3f} ms, "
                     f"relaxation iterations {parent['relaxation_iters']} -> "
                     f"{change['relaxation_iters']}, Newton iterations "
                     f"{parent['newton_iters']} -> {change['newton_iters']}")
        flag = ""
        if not same:
            flag = "  OUTPUTS DIFFER"
            if not args.setup:
                flag += f" ({output_differences(parent, change)})"
        print(f"pass {k} seed {jitter} {order[0]} first: {times}{flag}",
              flush=True)
    result = {"workload": args.workload, "pairs": args.pairs,
              "first_seed": args.seed, "setup_only": args.setup,
              "ratios": {key: summary(ratios[key]) for key in keys},
              "outputs_differ_at_seeds": differing, **iters}
    for key in keys:
        s = result["ratios"][key]
        print(f"{key:8s} change/parent {s['median']:.3f} "
              f"(IQR {s['q1']:.3f}-{s['q3']:.3f}), change won "
              f"{s['change_wins']}/{s['pairs']}")
    print(json.dumps(result))
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
