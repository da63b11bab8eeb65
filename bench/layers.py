"""Outside-in per-layer tracing of the pitmesh package.

The package imports functions by name (``from .mesh import
min_distance_to_pit``), so a call resolves through the namespace of the
calling module.  ``Tracer.install`` therefore replaces every module
attribute that holds a traced function, not just the one in the defining
module, and remembers which module each wrapper sits in.

Each wrapped call records one span: its layer name, the calling module,
start and end time, and the index of the enclosing span.  Spans stay in
memory until ``Tracer.spans`` is read.  Exact work counts are read from
the public arguments and return values of the traced calls.
"""

from __future__ import annotations

import functools
import importlib
import os
import time
from collections import defaultdict


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _count_mmpde(counts, args, kwargs, result):
    counts["adapt.mmpde_step.substeps"] += result.substeps
    reason = "cap" if result.stopped == "substep-cap" else result.stopped
    counts["adapt.mmpde_step.stop_" + reason] += 1


def _count_smooth(counts, args, kwargs, result):
    counts["adapt.smooth_mesh.iters"] += len(result.trace)
    counts["adapt.smooth_mesh.unconverged"] += int(not result.converged)


def _count_distance(counts, args, kwargs, result):
    points = _arg(args, kwargs, 0, "points")
    chains = _arg(args, kwargs, 1, "chains")
    n_points = len(points) if getattr(points, "ndim", 1) > 1 else 1
    n_segments = sum(chain.n_vertices - 1 for chain in chains)
    counts["mesh.min_distance_to_pit.pairs"] += n_points * n_segments


def _count_crossings(counts, args, kwargs, result):
    n = len(_arg(args, kwargs, 0, "p")) - 1
    # non-adjacent segment pairs (i, j), j >= i + 2, tested when n >= 3
    counts["mesh.polyline_crossings.pairs"] += (n - 1) * (n - 2) // 2 if n >= 3 else 0


def _count_newton(counts, args, kwargs, result):
    counts["fem.newton_solve.iters"] += result.iterations


def _count_vcorr(counts, args, kwargs, result):
    counts["crystal.vcorr_many.points"] += len(_arg(args, kwargs, 2, "positions"))


def _count_bytes(layer, path_index):
    def count(counts, args, kwargs, result):
        path = _arg(args, kwargs, path_index, "path")
        counts[layer + ".bytes"] += os.path.getsize(path)
    return count


# (layer name, defining module, attribute, count reader)
LAYERS = (
    ("adapt.mmpde_step", "adapt", "mmpde_step", _count_mmpde),
    ("adapt.smooth_mesh", "adapt", "smooth_mesh", _count_smooth),
    ("adapt.monitor_mackenzie", "adapt", "monitor_mackenzie", None),
    ("mesh.min_distance_to_pit", "mesh", "min_distance_to_pit", _count_distance),
    ("mesh.polyline_crossings", "mesh", "polyline_crossings", _count_crossings),
    ("mesh.validate_chain", "mesh", "validate_chain", None),
    ("mesh.validate", "mesh", "validate", None),
    ("fem.newton_solve", "fem", "newton_solve", _count_newton),
    ("fem.assemble_stiffness", "fem", "assemble_stiffness", None),
    ("fem.boundary_residual_and_jacobian", "fem",
     "boundary_residual_and_jacobian", None),
    # scipy's sparse LU, as fem imports it
    ("fem.splu", "fem", "splu", None),
    ("crystal.vcorr_many", "crystal", "vcorr_many", _count_vcorr),
    ("electrochem.current_density", "electrochem", "current_density", None),
    ("electrochem.normal_velocity", "electrochem", "normal_velocity", None),
    ("front.advance_pit", "front", "advance_pit", None),
    ("front.chain_velocities", "front", "chain_velocities", None),
    ("front.detect_merge", "front", "detect_merge", None),
    ("front.merge_pits", "front", "merge_pits", None),
    ("front.pit_area", "front", "pit_area", None),
    ("meshgen.build_initial_mesh", "meshgen", "build_initial_mesh", None),
    ("driver.run", "driver", "run", None),
    ("driver.fit_power_law", "driver", "fit_power_law", None),
    ("io.parse_config", "io", "parse_config", None),
    ("io.write_vtk", "io", "write_vtk", _count_bytes("io.write_vtk", 2)),
    ("io.write_mesh", "io", "write_mesh", _count_bytes("io.write_mesh", 1)),
    ("io.write_timeseries", "io", "write_timeseries", None),
    ("io.write_summary", "io", "write_summary", None),
)

MODULES = ("adapt", "cli", "crystal", "driver", "electrochem", "fem", "front",
           "io", "mesh", "meshgen")

# work counts that stay zero on a workload where their layer does nothing
COUNT_STATS = ("adapt.mmpde_step.substeps", "adapt.mmpde_step.stop_stationary",
               "adapt.mmpde_step.stop_cap", "adapt.mmpde_step.stop_budget",
               "adapt.smooth_mesh.iters", "adapt.smooth_mesh.unconverged",
               "mesh.min_distance_to_pit.pairs", "mesh.polyline_crossings.pairs",
               "fem.newton_solve.iters", "crystal.vcorr_many.points",
               "front.advance_pit.limiter_iters", "io.write_vtk.bytes",
               "io.write_mesh.bytes")


class Tracer:
    """Wraps the LAYERS functions of a loaded pitmesh package.

    Calls record spans only while ``active`` is true, so the caller can
    check outputs with the wrapped functions without adding spans.
    """

    def __init__(self):
        self._patched = []   # (module, attribute, original)
        self.active = False
        self._stack = []
        self.spans = []      # [layer, site, start, end, parent index]
        self.counts = defaultdict(int)

    def install(self, package: str = "pitmesh") -> None:
        modules = {name: importlib.import_module(f"{package}.{name}")
                   for name in MODULES}
        for layer, home, attr, count in LAYERS:
            original = getattr(modules[home], attr)
            for site, module in modules.items():
                for name, value in list(vars(module).items()):
                    if value is original:
                        self._patched.append((module, name, original))
                        setattr(module, name,
                                self._wrap(layer, site, original, count))

    def uninstall(self) -> None:
        for module, name, original in reversed(self._patched):
            setattr(module, name, original)
        self._patched.clear()

    def reset(self) -> None:
        self.spans = []
        self.counts = defaultdict(int)
        self._stack = []

    def _wrap(self, layer, site, fn, count):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            span = [layer, site, 0.0, 0.0,
                    tracer._stack[-1] if tracer._stack else -1]
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(span)
            span[2] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                tracer._stack.pop()
            if count is not None:
                count(tracer.counts, args, kwargs, result)
            return result
        return traced

    def layer_metrics(self) -> dict:
        """Self seconds, call counts and work counts per layer.

        A span's self time is its duration minus its direct children's.
        ``front.advance_pit.limiter_iters`` counts the crossing tests the
        front module makes itself, which are the limiter's iterations.
        """
        child = [0.0] * len(self.spans)
        for layer, site, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(int)
        for layer, *_ in LAYERS:
            out[layer + ".s"] = 0.0
            out[layer + ".calls"] = 0
        for key in COUNT_STATS:
            out[key] = 0
        for (layer, site, start, end, parent), inner in zip(self.spans, child):
            out[layer + ".s"] += end - start - inner
            out[layer + ".calls"] += 1
            if layer == "mesh.polyline_crossings" and site == "front":
                out["front.advance_pit.limiter_iters"] += 1
        out.update(self.counts)
        return dict(out)


def span_cost(n: int = 20000) -> float:
    """Seconds one recorded span adds to a call, measured on a no-op."""
    tracer = Tracer()
    tracer.active = True

    def noop():
        return None

    wrapped = tracer._wrap("calibration", "bench", noop, None)
    t0 = time.perf_counter()
    for _ in range(n):
        wrapped()
    t1 = time.perf_counter()
    for _ in range(n):
        noop()
    t2 = time.perf_counter()
    return max(0.0, ((t1 - t0) - (t2 - t1)) / n)
