#!/usr/bin/env python3
"""End-to-end run: reduction, assembly, shooting.

Solves the reduced problem at the requested epsilon, assembles the radial
solution, locates the same solution independently by shooting, and prints
the agreement metrics.  The regime follows from q: below p* = 5 (N = 3)
the tower concentrates and the shots run outward, above it the tower is
flat and the shots run backward from the far field (--q 7).
"""

import argparse
import time

import numpy as np

from bubbletower import (Classification, ModelParams, PotentialSpec,
                         ReductionConfig, TowerConfig, assemble_solution, compare,
                         energy_constants, find_tower, predicted_tower,
                         solve_reduced, tower_amplitudes)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--q", type=float, default=4.0)
    ap.add_argument("--eps", type=float, default=5e-2)
    ap.add_argument("--k", type=int, default=1)
    ap.add_argument("--v0", type=float, default=-1.0)
    ap.add_argument("--h", type=float, default=0.01)
    args = ap.parse_args()

    params = ModelParams.make(3, args.q, args.eps, k=args.k,
                              potential=PotentialSpec.constant(args.v0))
    constants = energy_constants(3, args.q)

    t0 = time.time()
    lam_eps, state = solve_reduced(params, constants, ReductionConfig(h=args.h))
    print(f"reduction: Lambda_eps = {lam_eps}, "
          f"max|c| = {np.max(np.abs(state.c)):.2e}, "
          f"|phi|_* = {state.star_norm_phi:.3e}  [{time.time()-t0:.1f}s]")

    solution = assemble_solution(state, params)
    residual = solution.radial_residual(solution.residual_radii(100))
    print(f"assembled: peak height = {solution.peak_height():.4f}, "
          f"max radial residual = {np.max(residual):.2e}")

    t0 = time.time()
    # the shooting finds its own height; the solved tower only seeds the scan
    solved = TowerConfig(lam_eps, state.xi, tower_amplitudes(lam_eps, constants, params),
                         params.regime)
    found = find_tower(params, solved)
    if found.classification is not Classification.DECAYING:
        raise SystemExit(f"shot is {found.classification.value}, not decaying")
    xi1 = float(state.xi[0])
    metrics = compare(solution.ef, found.ef_image, (xi1 - 2.0, xi1 + 2.0))
    print(f"shooting:  u0 = {found.u0:.4f} ({found.peak_count_ef} peak(s)), "
          f"sup rel err near peak = {metrics.sup_rel:.4f}  [{time.time()-t0:.1f}s]")
    tower = predicted_tower(params, constants)
    print(f"predicted peak (tower formula): "
          f"{params.gamma * np.sum(np.exp(tower.xi)):.4f}")


if __name__ == "__main__":
    main()
