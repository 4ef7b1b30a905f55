#!/usr/bin/env python3
"""Trend study over decreasing epsilon: residual, correction, energy gap.

Prints a table of |R|_*, |phi|_* and |E(tower) - prediction| / eps at the
critical scales, for both regimes, plus the fitted log-log slopes.  Each
point is reduction.sweep_point, the computation behind `bubbletower sweep`.
"""

import argparse

import numpy as np

from bubbletower import (ModelParams, PotentialSpec, ReductionConfig,
                         energy_constants, sweep_point)

KEYS = ("residual_star", "phi_star", "energy_gap_ratio")


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--eps-list", default="1e-2,3e-3,1e-3")
    ap.add_argument("--h", type=float, default=0.01)
    args = ap.parse_args()
    eps_list = [float(t) for t in args.eps_list.split(",")]
    pot = PotentialSpec.constant(-1.0)
    config = ReductionConfig(h=args.h)

    for q, label in ((4.0, "concentrating (q=4)"), (7.0, "flat (q=7)")):
        constants = energy_constants(3, q)
        for k in (1, 2):
            rows = [sweep_point(ModelParams.make(3, q, eps, k=k, potential=pot),
                                constants, config) for eps in eps_list]
            print(f"\n{label}, k={k}")
            print(f"{'eps':>10} {'|R|_*':>12} {'|phi|_*':>12} {'gap/eps':>12}")
            for row in rows:
                print(f"{row['eps']:10.2e}"
                      + "".join(f" {row[key]:12.4e}" for key in KEYS))
            le = np.log(eps_list)
            for key, name in zip(KEYS, ("|R|_*", "|phi|_*", "gap/eps")):
                slope = np.polyfit(le, np.log([row[key] for row in rows]), 1)[0]
                print(f"  slope {name}: {slope:.3f}")


if __name__ == "__main__":
    main()
