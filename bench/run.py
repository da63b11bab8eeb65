#!/usr/bin/env python3
"""pitmesh benchmark: timed, checked runs of fixed workloads.

One workload in this process, printing a JSON result as the last line:

    python3 bench/run.py --workload homog --seed 0 --seconds 30 --trace 0

Every workload of BENCHMARK.json, each in its own child process, for
``--rounds`` interleaved rounds (seed, seed + 1, ...), with a summary:

    python3 bench/run.py --rounds 3

See bench/README.md for the metrics and what each workload is for.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io as stdio
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_ROOT = ROOT / ".bench_out"
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_SAMPLES = 3
# Final depth and width must lie this close, relative, to the jitter-seed-0
# values below.  Jitter seeds move them by about 2e-5, while the tolerance is
# under 2% of the growth over a pass, so a broken front fails.  The margin
# admits a different relaxation that reaches the same stationary meshes to
# the solver's tolerances.
REFERENCE_RTOL = 1e-3


class BenchError(Exception):
    """The benchmark cannot run here."""


@dataclass
class Sim:
    """What one `pitmesh run` pass produced, as seen from outside."""

    wall_s: float = 0.0          # config read to checked outputs on disk
    program_s: float = 0.0       # the cli call alone
    setup_s: float = 0.0
    step_times: list = field(default_factory=list)   # hook perf_counter
    sim_times: list = field(default_factory=list)    # hook simulated t
    observed: list = field(default_factory=list)     # workload observation
    result: object = None
    problems: list = field(default_factory=list)


@dataclass
class Workload:
    config: str
    passes: int                  # jitter seeds per run, one pass each
    depth: float                 # jitter-seed-0 reference at t_end, micrometers
    width: float
    observe: Callable            # (mesh, chains) -> value stored per step
    check: Callable              # (Sim) -> list of problems


def _radial_deviation(mesh, chains):
    p = chains[0].positions(mesh)
    r = (p[:, 0] ** 2 + p[:, 1] ** 2) ** 0.5
    return float(r.std() / r.mean())


def _check_homog(sim: Sim) -> list:
    worst = max(sim.observed)
    return [] if worst < 0.01 else [
        f"radial deviation {100 * worst:.3f}% exceeds 1%"]


def _sizes(mesh, chains):
    return mesh.n_vertices, mesh.n_triangles


def _check_twopit(sim: Sim) -> list:
    problems = []
    if len(sim.result.events) != 1:
        problems.append(f"{len(sim.result.events)} merges, expected 1")
    if len(set(sim.observed)) != 1:
        problems.append(f"vertex/cell counts changed: {sorted(set(sim.observed))}")
    return problems


# The triangulation jitter changes the relaxation work by about 10%, and the
# VM's speed drifts over tens of seconds, so a run pools several passes on
# different jitter seeds.  twopit must run past its merge at t = 33.5 s, so
# it stops soon after, when dt capping has just begun.
WORKLOADS = {
    "homog": Workload("homog.cfg", 4, 5.305133, 10.653281, _radial_deviation,
                      _check_homog),
    "twopit": Workload("twopit.cfg", 2, 5.979128, 24.044157, _sizes,
                       _check_twopit),
}


def jitter_seed(seed: int, index: int) -> int:
    """SimConfig.seed of a run's index-th pass or set-up."""
    return 16 * seed + index


def load_pitmesh():
    """Import pitmesh from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "pitmesh" / "__init__.py").is_file():
        raise BenchError(f"no pitmesh sources under {src}")
    sys.path.insert(0, str(src))
    import pitmesh
    import pitmesh.cli
    import pitmesh.io
    if Path(pitmesh.__file__).resolve().parent != src / "pitmesh":
        raise BenchError(f"imported pitmesh from {pitmesh.__file__}, not {src}")
    return pitmesh


class _SetupDone(Exception):
    pass


def _run_sim(pm, name: str, seed: int, tracer=None) -> Sim:
    """One `pitmesh run` of the workload through the CLI entry point.

    driver.run is wrapped to add a step hook that timestamps each step;
    the CLI resolves ``driver.run`` at call time, so it runs the wrapper.
    """
    work = WORKLOADS[name]
    sim = Sim()
    out_dir = OUT_ROOT / f"{name}-seed{seed}-pid{os.getpid()}"
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    cfg_path = out_dir / "workload.cfg"
    cfg_path.write_text((BENCH_DIR / "workloads" / work.config).read_text()
                        + f"seed = {seed}\n")
    real_run = pm.driver.run

    def stamped_run(config, step_hook=None):
        start = time.perf_counter()

        def hook(step, t, mesh, chains, phi):
            now = time.perf_counter()
            if step == 0:
                sim.setup_s = now - start
            sim.step_times.append(now)
            sim.sim_times.append(t)
            sim.observed.append(work.observe(mesh, chains))
            if step_hook is not None:
                step_hook(step, t, mesh, chains, phi)
        sim.result = real_run(config, step_hook=hook)
        return sim.result

    pm.driver.run = stamped_run
    try:
        stdout = stdio.StringIO()
        t0 = time.perf_counter()
        if tracer is not None:
            tracer.active = True
        try:
            with contextlib.redirect_stdout(stdout):
                code = pm.cli.main(["run", str(cfg_path), "-o", str(out_dir)])
        except Exception:  # a crash is a failed pass, not a benchmark error
            traceback.print_exc()
            code = None
        finally:
            if tracer is not None:
                tracer.active = False
        sim.program_s = time.perf_counter() - t0
        sim.problems = _check_outputs(pm, work, sim, code, out_dir, stdout.getvalue())
        sim.wall_s = time.perf_counter() - t0
    finally:
        pm.driver.run = real_run
        shutil.rmtree(out_dir, ignore_errors=True)
    return sim


def _check_outputs(pm, work: Workload, sim: Sim, code: Optional[int],
                   out_dir: Path, printed: str) -> list:
    if code is None:
        return ["pitmesh run raised"]
    if code != 0:
        return [f"pitmesh run exited with {code}"]
    if sim.result is None:
        return ["driver.run did not return"]
    result = sim.result
    problems = []
    report = pm.mesh.validate(result.mesh)
    if not report.ok:
        problems.append(f"final mesh invalid: {report.summary()}")
    min_area = float(result.mesh.signed_areas().min())
    if not min_area > 0.0 or not result.min_area_seen > 0.0:
        problems.append(f"non-positive cell area {min(min_area, result.min_area_seen)}")
    depth, width = result.series.depth[-1], result.series.width[-1]
    for label, got, ref in (("depth", depth, work.depth), ("width", width, work.width)):
        if not abs(got - ref) <= REFERENCE_RTOL * abs(ref):
            problems.append(f"final {label} {got:.9f} um, reference {ref:.9f} um")

    series = pm.io.read_timeseries(str(out_dir / "timeseries.csv"))
    if len(series) != result.steps + 1 or \
            abs(series.depth[-1] - depth) > 1e-8 * depth or \
            abs(series.width[-1] - width) > 1e-8 * width:
        problems.append("timeseries.csv does not match the run")
    final = pm.io.read_mesh(str(out_dir / "mesh_final.txt"))
    if (final.n_vertices, final.n_triangles) != \
            (result.mesh.n_vertices, result.mesh.n_triangles):
        problems.append("mesh_final.txt does not match the final mesh")
    if f"steps completed: {result.steps}" not in printed:
        problems.append("run summary missing the step count")
    config = pm.io.parse_config(str(out_dir / "workload.cfg"))
    vtk = ["final.vtk"]
    if config.vtk_every:
        vtk += [f"snapshot_{s:05d}.vtk"
                for s in range(0, result.steps + 1, config.vtk_every)]
    missing = [v for v in vtk if not (out_dir / v).is_file()
               or (out_dir / v).stat().st_size == 0]
    if missing:
        problems.append(f"missing VTK output {missing}")
    return problems + work.check(sim)


def _setup_only(pm, name: str, seed: int) -> float:
    """Seconds from driver.run's start to its step-0 hook."""
    work = WORKLOADS[name]
    config = pm.io.parse_config(str(BENCH_DIR / "workloads" / work.config))
    config.seed = seed
    start = time.perf_counter()
    done = []

    def hook(step, t, mesh, chains, phi):
        done.append(time.perf_counter() - start)
        raise _SetupDone

    try:
        pm.driver.run(config, step_hook=hook)
    except _SetupDone:
        return done[0]
    raise BenchError("driver.run returned without calling the step-0 hook")


def _percentile(values, q):
    """Linear-interpolated percentile q in (0, 100)."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _step_ms(sims) -> list:
    return [1e3 * (b - a) for sim in sims
            for a, b in zip(sim.step_times, sim.step_times[1:])]


def _dt_capped(sim: Sim, config) -> int:
    """Steps whose dt fell short of both dt and the time left to t_end."""
    t = sim.sim_times
    dt, t_end = config.front.dt, config.front.t_end
    return sum(1 for a, b in zip(t, t[1:])
               if b - a < min(dt, t_end - a) * (1.0 - 1e-9))


def _fail(sims, message) -> dict:
    print(message, file=sys.stderr)
    return {"correct": False, "attempted": max(1, len(sims)),
            "failed": max(1, sum(1 for s in sims if s.problems)), "metrics": {}}


def timed_run(pm, name: str, seed: int, seconds: float, provenance: dict) -> dict:
    """Cycles over the workload's jitter seeds, then set-up top-ups.

    A run makes at least one cycle, and another while it is expected to end
    within `seconds`; a partial cycle would change the mix of inputs.
    """
    work = WORKLOADS[name]
    cycle = [jitter_seed(seed, i) for i in range(work.passes)]
    sims = []
    start = time.perf_counter()
    while True:
        for jitter in cycle:
            sim = _run_sim(pm, name, jitter)
            sims.append(sim)
            if sim.problems:
                return _fail(sims, f"{name} jitter seed {jitter}: "
                             + "; ".join(sim.problems))
        elapsed = time.perf_counter() - start
        if elapsed * (len(sims) + len(cycle)) / len(sims) > seconds:
            break
    setups = [s.setup_s for s in sims]
    while len(setups) < SETUP_SAMPLES:
        setups.append(_setup_only(pm, name, jitter_seed(seed, len(setups))))
    steps = _step_ms(sims)
    provenance.update(jitter_seeds=cycle, passes=len(sims),
                      setup_samples=len(setups), step_samples=len(steps),
                      steps=[s.result.steps for s in sims[:len(cycle)]],
                      vertices=[s.result.mesh.n_vertices for s in sims[:len(cycle)]])
    metrics = {
        "wall_s": statistics.median(s.wall_s for s in sims),
        "setup_s": statistics.median(setups),
        "step_ms.p50": statistics.median(steps),
        "step_ms.p90": _percentile(steps, 90),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return {"correct": True, "attempted": len(sims), "failed": 0,
            "metrics": metrics}


def traced_run(pm, name: str, seed: int, provenance: dict) -> dict:
    """One traced cycle, then its first pass again; exact counts must agree.

    The per-layer metrics are sums over the cycle.
    """
    import layers

    work = WORKLOADS[name]
    config = pm.io.parse_config(str(BENCH_DIR / "workloads" / work.config))
    cycle = [jitter_seed(seed, i) for i in range(work.passes)]
    tracer = layers.Tracer()
    tracer.install()
    try:
        passes = []     # (metrics, cli seconds, spans recorded)
        for jitter in cycle + cycle[:1]:
            tracer.reset()
            sim = _run_sim(pm, name, jitter, tracer)
            if sim.problems:
                return _fail([sim], f"{name} jitter seed {jitter}: "
                             + "; ".join(sim.problems))
            metrics = tracer.layer_metrics()
            metrics["driver.steps"] = sim.result.steps
            metrics["driver.dt_capped"] = _dt_capped(sim, config)
            metrics["driver.run.self_s"] = metrics.pop("driver.run.s")
            passes.append((metrics, sim.program_s, len(tracer.spans)))
        spans_path = OUT_ROOT / f"spans-{name}-seed{seed}.json"
        spans_path.write_text(json.dumps(tracer.spans))
    finally:
        tracer.uninstall()

    first, again = ({k: v for k, v in m.items() if isinstance(v, int)}
                    for m in (passes[0][0], passes[-1][0]))
    if first != again:
        diff = sorted(k for k in first.keys() | again.keys()
                      if first.get(k) != again.get(k))
        return _fail([], f"{name} jitter seed {cycle[0]}: exact counts differ "
                         f"between two traced passes: {diff}")

    passes = passes[:-1]
    metrics = {key: sum(m[key] for m, _, _ in passes) for key in passes[0][0]}
    wall = sum(w for _, w, _ in passes)
    cost = layers.span_cost() * sum(n for _, _, n in passes)
    metrics["trace.coverage"] = sum(
        v for k, v in metrics.items() if k.endswith((".s", ".self_s"))) / wall
    metrics["trace.overhead"] = wall / (wall - cost)
    provenance.update(jitter_seeds=cycle, passes=len(cycle) + 1,
                      spans=sum(n for _, _, n in passes),
                      spans_file=str(spans_path.relative_to(ROOT)))
    return {"correct": True, "attempted": len(cycle) + 1, "failed": 0,
            "metrics": metrics}


def check_all(seed: int) -> int:
    """One untimed pass of every workload, with the output checks."""
    pm = load_pitmesh()
    ok = True
    for name in (w["name"] for w in load_spec()["workloads"]):
        sim = _run_sim(pm, name, jitter_seed(seed, 0))
        ok = ok and not sim.problems
        print(f"{name} jitter seed {jitter_seed(seed, 0)}: "
              + ("; ".join(sim.problems) or "ok"), flush=True)
    return 0 if ok else 1


def _git_revision() -> Optional[str]:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                             capture_output=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _provenance(pm, name: str, seed: int) -> dict:
    import numpy
    import scipy
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "pitmesh").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": name, "seed": seed, "git_revision": _git_revision(),
        "src_sha256": digest.hexdigest()[:16],
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "blas_threads": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "pitmesh": pm.__version__,
    }


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run_one(args) -> int:
    spec = load_spec()
    if args.workload not in WORKLOADS:
        raise BenchError(f"unknown workload {args.workload!r}; "
                         f"have {sorted(WORKLOADS)}")
    pm = load_pitmesh()
    provenance = _provenance(pm, args.workload, args.seed)
    if args.trace:
        result = traced_run(pm, args.workload, args.seed, provenance)
        wanted = spec["per_layer"]
    else:
        result = timed_run(pm, args.workload, args.seed, args.seconds, provenance)
        wanted = spec["end_to_end"]
    if result["correct"]:
        missing = [m["name"] for m in wanted if m["name"] not in result["metrics"]]
        if missing:
            raise BenchError(f"metrics not produced: {missing}")
        result["metrics"] = {m["name"]: {"value": result["metrics"][m["name"]],
                                         "unit": m["unit"]} for m in wanted}
    print("provenance " + json.dumps(provenance))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def run_suite(args) -> int:
    """Every workload, interleaved by round, one child process per run."""
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    results = {name: [] for name in names}
    for r in range(args.rounds):
        for name in names:
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed + r), "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                  timeout=900)
            lines = proc.stdout.strip().splitlines()
            try:
                result = json.loads(lines[-1])
            except (IndexError, json.JSONDecodeError):
                result = {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
            if proc.returncode != 0 or not result["correct"]:
                sys.stderr.write(proc.stderr[-2000:])
            results[name].append(result)
            print(f"round {r} {name} seed {args.seed + r}: " + json.dumps(result),
                  flush=True)

    metrics = spec["per_layer"] if args.trace else spec["end_to_end"]
    ok = True
    for name in names:
        runs = results[name]
        attempted = sum(x["attempted"] for x in runs)
        failed = sum(x["failed"] for x in runs)
        ok = ok and failed == 0 and all(x["correct"] for x in runs)
        print(f"\n{name}: {len(runs)} runs, failed_share {failed}/{attempted} = "
              f"{failed / attempted:.3f}")
        for m in metrics:
            values = [x["metrics"][m["name"]]["value"] for x in runs
                      if m["name"] in x["metrics"]]
            if not values:
                continue
            med = statistics.median(values)
            line = f"  {m['name']:<40} {med:>14.6g} {m['unit']:<6}"
            if len(values) >= 2:
                q1, _, q3 = statistics.quantiles(values, n=4)
                spread = (q3 - q1) / med if med else 0.0
                line += f" q1 {q1:.6g} q3 {q3:.6g} spread {spread:.3f}"
                if "bound" in m:
                    line += f" (bound {m['bound']})"
            print(line)
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", help="run this workload only, in this process")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="time to keep repeating passes (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--rounds", type=int, default=1,
                        help="rounds over all workloads, seeds seed, seed+1, ...")
    parser.add_argument("--check", action="store_true",
                        help="one untimed, checked pass of every workload")
    args = parser.parse_args(argv)
    for var in BLAS_THREAD_VARS:
        os.environ.setdefault(var, "1")
    try:
        if args.seconds is None:
            args.seconds = load_spec()["run_seconds"]
        if args.check:
            return check_all(args.seed)
        return run_one(args) if args.workload else run_suite(args)
    except (BenchError, OSError, ValueError) as err:
        print(f"benchmark error: {err}", file=sys.stderr)
        return 2
    except Exception:  # the program under test failed in a way no check expects
        traceback.print_exc()
        return 2


if __name__ == "__main__":
    sys.exit(main())
