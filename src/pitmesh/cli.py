"""Command-line interface.

    pitmesh init-mesh <config> -o mesh.txt
    pitmesh run <config> -o outdir/
    pitmesh smooth <config> <mesh> -o mesh.txt
    pitmesh fit <csv> --column depth|width

Exit codes: 0 success, 1 validation error, 2 runtime failure.
PITMESH_LOG=debug|info|warn controls log verbosity.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys

from . import adapt, driver, io
from .driver import SimulationError
from .io import ConfigError
from .mesh import MeshError, chains_from_tags
from .meshgen import MeshGenError

logger = logging.getLogger("pitmesh")


def _setup_logging() -> None:
    level = {"debug": logging.DEBUG, "info": logging.INFO,
             "warn": logging.WARNING}.get(
        os.environ.get("PITMESH_LOG", "warn").lower(), logging.WARNING)
    logging.basicConfig(level=level,
                        format="%(levelname)s %(name)s: %(message)s")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="pitmesh",
                                     description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p_init = sub.add_parser("init-mesh", help="build and smooth the initial mesh")
    p_init.add_argument("config")
    p_init.add_argument("-o", "--output", required=True, metavar="mesh.txt")

    p_run = sub.add_parser("run", help="run the corrosion simulation")
    p_run.add_argument("config")
    p_run.add_argument("-o", "--output", required=True, metavar="outdir/")

    p_smooth = sub.add_parser("smooth", help="smooth an existing mesh")
    p_smooth.add_argument("config")
    p_smooth.add_argument("mesh")
    p_smooth.add_argument("-o", "--output", required=True, metavar="mesh.txt")

    p_fit = sub.add_parser("fit", help="fit a power law to a time series CSV")
    p_fit.add_argument("csv")
    p_fit.add_argument("--column", choices=("depth", "width"), default="depth")
    return parser


def _cmd_init_mesh(args) -> int:
    config = io.parse_config(args.config)
    result = driver.init_mesh(config)
    io.write_mesh(result.mesh, args.output)
    print(f"wrote {args.output}: {result.mesh.n_vertices} vertices, "
          f"{result.mesh.n_triangles} triangles")
    smooth = result.smooth
    print(f"smoothing: {len(smooth.trace)} iterations, converged="
          f"{smooth.converged}, final displacement "
          f"{smooth.trace[-1] if smooth.trace else 0.0:.4g}")
    return 0


def _cmd_run(args) -> int:
    config = io.parse_config(args.config)
    io.prepare_output(args.output)

    def out(name):
        return os.path.join(args.output, name)

    def hook(step, t, mesh, chains, phi):
        if config.vtk_every and step % config.vtk_every == 0:
            io.write_vtk(mesh, phi, out(f"snapshot_{step:05d}.vtk"))

    failure = None
    try:
        result = driver.run(config, step_hook=hook)
    except SimulationError as err:
        failure, result = err, err.result
    # a merge joins two pits' widths into one: fit from the last merge on
    first = result.events[-1].step if result.events else 0
    fits = {}
    for column in ("depth", "width"):
        try:
            fits[column] = driver.fit_power_law(result.series, column, first)
        except ValueError as err:
            logger.warning("skipping %s fit: %s", column, err)
    io.write_timeseries(result.series, out("timeseries.csv"))
    io.write_mesh(result.mesh, out("mesh_final.txt"))
    io.write_vtk(result.mesh, result.phi, out("final.vtk"))
    print(io.write_summary(out("summary.txt"), config, result, fits, first,
                           failure), end="")
    if failure is not None:
        raise failure
    return 0


def _cmd_smooth(args) -> int:
    config = io.parse_config(args.config)
    mesh = io.read_mesh(args.mesh)
    chains = chains_from_tags(mesh)
    result = adapt.smooth_mesh(mesh, chains, config.adapt)
    io.write_mesh(result.mesh, args.output)
    print(f"wrote {args.output}; {len(result.trace)} smoothing iterations, "
          f"converged={result.converged}")
    return 0


def _cmd_fit(args) -> int:
    series = io.read_timeseries(args.csv)
    fit = driver.fit_power_law(series, args.column)
    print(f"{args.column}(t) = a t^b + c   (t shifted to start at 1)")
    print(f"a = {fit.a:.6g} +- {fit.se_a:.3g}")
    print(f"b = {fit.b:.6g} +- {fit.se_b:.3g}")
    print(f"c = {fit.c:.6g} +- {fit.se_c:.3g}")
    print(f"RSS = {fit.rss:.6g}, R^2 = {fit.r_squared:.8f}, "
          f"converged = {fit.converged}")
    return 0


_COMMANDS = {"init-mesh": _cmd_init_mesh, "run": _cmd_run,
             "smooth": _cmd_smooth, "fit": _cmd_fit}


def main(argv=None) -> int:
    _setup_logging()
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ConfigError, MeshGenError, ValueError, FileNotFoundError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except (SimulationError, MeshError, OSError, ArithmeticError) as err:
        print(f"runtime failure: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
