#!/usr/bin/env python3
"""Layer timings: each layer of the construction timed by a direct library call.

    PYTHONPATH=src python bench/layers.py [--passes 5] [--tag TAG]

Every input is N = 3, q = 4, V = -1 (``layers``): the energy constants; a
TowerField build, one ProjectedSolver and one solve_values at the
closed-form k = 2, eps = 1e-2, h = 0.02 spikes (n = 3,648 nodes); one
solve_correction from phi = 0 at the same spikes; solve_reduced at k = 1, 2
(h = 0.02) and 3 (h = 0.03), eps = 1e-2; find_tower on the solved state of
perfbench's ``verify-const`` case; and ``cli.main`` on perfbench's
``reduce-k2`` and ``verify-const`` argv (read from perfbench/cases.py).

One warm-up pass calls each layer once; each of the ``--passes`` passes
that follow calls each layer once more, and the JSON reports the median
and quartiles of those times in ms.  A last, separate pass counts what
explains them, with the library's functions wrapped from outside, so that
no timed call carries the wrappers: corrections per solve_reduced, Newton
steps per correction (ReductionState.iterations), the tridiagonal factor
and solve calls (numerics.TridiagonalLU, the reduction's and the verify
spline's) and the shots per find_tower search.
The JSON also holds numpy's version, its LAPACK (``cli._LAPACK``), Python,
nproc, the commit and a hash of src/bubbletower/*.py.  It is printed, and
written to BENCH_<tag>.json next to this script when --tag is given.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import hashlib
import io
import json
import os
import platform
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

import numpy as np

import bubbletower
from bubbletower import (ModelParams, PotentialSpec, ProjectedSolver, ReductionConfig,
                         TowerField, cli, critical_scales, energy_constants,
                         find_tower, grid_for_spikes, reduction, solve_correction,
                         solve_reduced, spike_locations, verifier)
from bubbletower.numerics import TridiagonalLU

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "perfbench"))
import cases  # noqa: E402  (perfbench/cases.py, read only)

N, Q, V = 3, 4.0, PotentialSpec.constant(-1.0)


def _params(k: int, eps: float) -> ModelParams:
    return ModelParams.make(N, Q, eps, k=k, potential=V)


def _argv(workload: str, name: str) -> list:
    return next(list(c.argv) for c in cases.build(workload, 0).cases if c.name == name)


def _run_cli(argv: list, out: str) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        if cli.main(argv + ["--out", out]) != 0:
            raise RuntimeError(f"cli.main({argv}) did not exit 0")


def layers(out: str) -> dict:
    """Name -> zero-argument call of each timed layer; the inputs each one
    reads are built here, outside the timed calls."""
    constants = energy_constants(N, Q)
    params = _params(2, 1e-2)
    xi = spike_locations(critical_scales(constants, params), params.epsilon, params)
    grid = grid_for_spikes(xi, 0.02, reduction.PAD)
    tower = TowerField(xi, params, grid)
    solver = ProjectedSolver(tower)
    rhs = tower.newton_system(np.zeros(grid.n))[0]
    verify_argv = _argv("verify", "verify-const")
    verify_args = cli._parser().parse_args(verify_argv)
    verify_params = cli.build_params(verify_args)
    found_state = solve_reduced(verify_params, constants, ReductionConfig(verify_args.h))[1]
    reduce_argv = _argv("tower", "reduce-k2")
    calls = {
        "energy_constants": lambda: energy_constants(N, Q),
        "tower_field": lambda: TowerField(xi, params, grid),
        "projected_solver": lambda: ProjectedSolver(tower),
        "solve_values": lambda: solver.solve_values(rhs),
        "solve_correction": lambda: solve_correction(xi, params, ReductionConfig(0.02)),
    }
    for k, h in ((1, 0.02), (2, 0.02), (3, 0.03)):
        calls[f"solve_reduced_k{k}"] = functools.partial(
            solve_reduced, _params(k, 1e-2), constants, ReductionConfig(h))
    calls["find_tower"] = lambda: find_tower(verify_params, found_state)
    calls["cli_reduce_k2"] = lambda: _run_cli(reduce_argv, out)
    calls["cli_verify_const"] = lambda: _run_cli(verify_argv, out)
    return calls


@contextlib.contextmanager
def counting(counts: Counter, steps: list):
    """Count the tridiagonal factors and solves (TridiagonalLU), the
    corrections (the Newton steps of each that returns appended to
    ``steps``) and find_tower's shots, by wrapping what the library looks up
    at call time."""
    factor, solve = TridiagonalLU.__init__, TridiagonalLU.solve
    correction, search = reduction.solve_correction, verifier._search

    def counted_factor(self, *bands):
        counts["tridiagonal_factors"] += 1
        factor(self, *bands)

    def counted_solve(self, rhs):
        counts["tridiagonal_solves"] += 1
        return solve(self, rhs)

    def counted_correction(*args, **kwargs):
        counts["corrections"] += 1
        state = correction(*args, **kwargs)
        steps.append(state.iterations)
        return state

    def counted_search(shoot_at, gap, values):
        def shot(value):
            counts["shots"] += 1
            return shoot_at(value)
        return search(shot, gap, values)

    TridiagonalLU.__init__, TridiagonalLU.solve = counted_factor, counted_solve
    reduction.solve_correction, verifier._search = counted_correction, counted_search
    try:
        yield
    finally:
        TridiagonalLU.__init__, TridiagonalLU.solve = factor, solve
        reduction.solve_correction, verifier._search = correction, search


def environment() -> dict:
    src = Path(bubbletower.__file__).resolve().parent
    digest = hashlib.sha256()
    for path in sorted(src.glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    git = lambda *args: subprocess.run(["git", "-C", str(src), *args], capture_output=True,
                                       text=True, timeout=30)
    try:
        commit = git("rev-parse", "HEAD").stdout.strip() or None
        dirty = bool(commit) and git("diff", "--quiet", "HEAD", "--", ".").returncode != 0
    except OSError:
        commit, dirty = None, False
    # the CPUs this process may run on, as nproc counts them
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return {"commit": commit, "src_dirty": dirty, "src_sha256": digest.hexdigest(),
            "python": platform.python_version(), "numpy": np.__version__,
            "lapack": cli._LAPACK, "nproc": nproc}


def main(argv=None) -> dict:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--passes", type=int, default=5, help="timed passes after the warm-up")
    parser.add_argument("--tag", help="also write BENCH_<tag>.json next to this script")
    args = parser.parse_args(argv)
    if args.passes < 1:
        parser.error("--passes must be at least 1")
    with tempfile.TemporaryDirectory() as out:
        calls = layers(out)
        times = {name: [] for name in calls}
        for timed in [False] + [True] * args.passes:
            for name, call in calls.items():
                t0 = time.perf_counter()
                call()
                if timed:
                    times[name].append(time.perf_counter() - t0)
        counts = {}
        for name, call in calls.items():
            tally, steps = Counter(), []
            with counting(tally, steps):
                call()
            counts[name] = {**tally, "newton_steps": steps} if steps else dict(tally)
    result = {"inputs": {"N": N, "q": Q, "V": "const:-1"}, "passes": args.passes,
              "environment": environment(), "layers": {}}
    for name, samples in times.items():
        q1, median, q3 = np.percentile(samples, [25, 50, 75]) * 1e3
        result["layers"][name] = {"median_ms": round(median, 4), "q1_ms": round(q1, 4),
                                  "q3_ms": round(q3, 4), "counts": counts[name]}
    text = json.dumps(result, indent=2)
    print(text)
    if args.tag:
        (HERE / f"BENCH_{args.tag}.json").write_text(text + "\n")
    return result


if __name__ == "__main__":
    main()
