#!/usr/bin/env python3
"""Whether two pitmesh checkouts write the same run outputs, byte for byte.

Runs ``python -m pitmesh run CONFIG -o DIR`` on each config twice, once
with each checkout's src/ on PYTHONPATH, with one BLAS thread and into a
temporary directory, and compares the two output folders.  Prints, for
each config, both exit codes and every file that differs or exists on
one side only.  Exits 1 on any difference:

    python3 scripts/same_outputs.py PARENT CHANGE [CONFIG ...]

Without configs it runs every configs/*.cfg of CHANGE.
"""

import argparse
import os
import subprocess
import sys
import tempfile
from pathlib import Path

SIDES = ("parent", "change")


def run_config(checkout: Path, config: Path, out: Path) -> int:
    """Exit code of `pitmesh run config -o out` with checkout's src/."""
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    done = subprocess.run(
        [sys.executable, "-m", "pitmesh", "run", str(config), "-o", str(out)],
        cwd=out.parent, env=env, stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL)
    return done.returncode


def differences(parent: Path, change: Path) -> list:
    """One line per file that differs or exists in one folder only."""
    def files(folder):
        if not folder.is_dir():
            return set()
        return {path.relative_to(folder).as_posix()
                for path in folder.rglob("*") if path.is_file()}

    ours, theirs = files(parent), files(change)
    lines = [f"only in parent: {name}" for name in sorted(ours - theirs)]
    lines += [f"only in change: {name}" for name in sorted(theirs - ours)]
    lines += [f"differs: {name}" for name in sorted(ours & theirs)
              if (parent / name).read_bytes() != (change / name).read_bytes()]
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("configs", nargs="*", type=Path)
    args = parser.parse_args(argv)
    checkouts = (args.parent.resolve(), args.change.resolve())
    configs = args.configs or sorted((checkouts[1] / "configs").glob("*.cfg"))
    same = True
    with tempfile.TemporaryDirectory() as tmp:
        for k, config in enumerate(configs):
            outs = [Path(tmp) / side / f"{k}-{config.stem}" for side in SIDES]
            codes = []
            for checkout, out in zip(checkouts, outs):
                out.parent.mkdir(exist_ok=True)
                codes.append(run_config(checkout, config.resolve(), out))
            lines = differences(*outs)
            ok = codes[0] == codes[1] and not lines
            same &= ok
            print(f"{config}: exit {codes[0]} / {codes[1]}, "
                  + ("same" if ok else "DIFFERENT"))
            for line in lines:
                print(f"  {line}")
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
