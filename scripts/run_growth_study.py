#!/usr/bin/env python3
"""Reproduce the pit-growth study: three materials, power-law fits.

Runs configs/homogeneous.cfg, crystal_001.cfg and bicrystal.cfg as
shipped, writes one time-series CSV per case, and prints the a t^b + c
fit parameters for depth and width.
"""

import argparse
import os
import time

from pitmesh.driver import fit_power_law, run
from pitmesh.io import parse_config, write_timeseries

CONFIG_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                          os.pardir, "configs")
CASES = ("homogeneous", "crystal_001", "bicrystal")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("-o", "--out-dir", default="growth_study")
    args = parser.parse_args()
    os.makedirs(args.out_dir, exist_ok=True)

    for name in CASES:
        cfg = parse_config(os.path.join(CONFIG_DIR, f"{name}.cfg"))
        start = time.time()
        result = run(cfg)
        path = os.path.join(args.out_dir, f"{name}.csv")
        write_timeseries(result.series, path)
        print(f"{name}: {result.steps} steps in {time.time() - start:.0f}s "
              f"-> {path}")
        for column in ("width", "depth"):
            fit = fit_power_law(result.series, column)
            print(f"  {column}: a = {fit.a:.4f}({fit.se_a:.1g})  "
                  f"b = {fit.b:.4f}({fit.se_b:.1g})  "
                  f"c = {fit.c:.4f}({fit.se_c:.1g})  R^2 = {fit.r_squared:.6f}")


if __name__ == "__main__":
    main()
