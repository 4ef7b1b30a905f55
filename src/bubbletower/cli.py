"""Command-line front end: constants, predictions, reduction runs, verification, sweeps.

Every command computes its JSON payloads and CSV tables, then hands them to
one writer, _write_artifacts, which also writes a manifest capturing the full
configuration into the output directory, so reruns with the same manifest
reproduce the numbers bit for bit (timestamps aside).  A non-finite number in
any JSON output fails the run before a file is written.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import contextlib
import dataclasses
import json
import os
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

import numpy as np
import numpy.__config__

from . import __version__
from .errors import BubbleTowerError
from .field import tower_ansatz  # noqa: F401  read by perfbench's span self-test
from .profiles import ModelParams, PotentialSpec
from .quadrature import energy_constants
from .reduced_model import (TowerConfig, energy_expansion, predicted_tower,
                            tower_amplitudes)
from .reduction import (ReductionConfig, assemble_solution, solve_reduced,
                        sweep_point)
from .verifier import compare, find_tower

_FMT = "%.17g"
# what a library failure raises: a typed error, a ValueError from an
# argument check (such as too few grid nodes), or a Warning that the warning
# filters turn into an error (such as a numpy overflow RuntimeWarning under
# PYTHONWARNINGS=error)
_FAILURES = (BubbleTowerError, ValueError, Warning)


@contextlib.contextmanager
def _failing(prefix: str):
    """End the run in one line, '<prefix>: <error>', on a library failure."""
    try:
        yield
    except _FAILURES as exc:
        raise SystemExit(f"{prefix}: {exc}")


def parse_potential(spec: str) -> PotentialSpec:
    """Presets: const:c, the pair (c, 0), and rational:a,b, with finite values."""
    kind, _, rest = spec.partition(":")
    arity = {"const": 1, "rational": 2}.get(kind)
    if arity is None:
        raise SystemExit(f"unknown potential preset {kind!r} (use const:c or rational:a,b)")
    try:
        values = [float(t) for t in rest.split(",")]
        if len(values) != arity:
            raise ValueError(f"needs {arity} value(s)")
        return PotentialSpec(*values)
    except ValueError as exc:
        raise SystemExit(f"bad potential spec {spec!r}: {exc}")


def build_params(args) -> ModelParams:
    """Model parameters from the flags; exits unless the regime's hypothesis holds."""
    with _failing("invalid model parameters"):
        params = ModelParams.make(args.N, args.q, args.eps, k=args.k,
                                  potential=parse_potential(args.V))
    with _failing("hypothesis violation"):
        params.check_hypotheses()
    return params


def _energy_constants(args):
    """Energy constants for the flags; exits when N and q admit none."""
    with _failing("energy constants failed"):
        return energy_constants(args.N, args.q)


def _solve_reduced(args):
    """(params, constants, Lambda_eps, state) for the flags; exits if the reduction fails."""
    params, C = build_params(args), _energy_constants(args)
    with _failing("reduction failed"):
        return (params, C, *solve_reduced(params, C, ReductionConfig(h=args.h)))


def _json(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True, allow_nan=False)


# the LAPACK numpy was built with, which the tridiagonal solver calls
_LAPACK = {key: numpy.__config__.CONFIG["Build Dependencies"]["lapack"][key]
           for key in ("name", "version")}


def _write_artifacts(args, payloads: Dict[str, object],
                     tables: Dict[str, Tuple[List[str], Union[np.ndarray, list]]],
                     shown) -> None:
    """Write a command's JSON payloads, CSV tables and manifest; print shown.

    Every payload, shown (printed as JSON unless it is text) and the manifest
    are serialized first, so a non-finite number fails the run before any
    file is written.  Each table is (header, rows), rows a 2-D float array
    or a list of equal-length row lists, one value per header column.  Its
    values, flattened in row order, go through one % template in one call:
    the row template (strings as %s, numbers as %.17g, after the first
    row's types) repeated once per row.
    """
    manifest = {
        "tool": "bubbletower",
        "version": __version__,
        "numpy": np.__version__, "lapack": _LAPACK,
        "config": {k: v for k, v in vars(args).items() if k != "func"},
        "outputs": sorted([*payloads, *tables]),
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
    }
    try:
        texts = {name: _json(obj) for name, obj in payloads.items()}
        texts["manifest.json"] = _json(manifest)
        if not isinstance(shown, str):
            shown = _json(shown)
    except ValueError:
        raise SystemExit("non-finite value in output; run failed")
    out = Path(args.out or os.environ.get("BUBBLETOWER_OUT", "runs")) / args.command
    out.mkdir(parents=True, exist_ok=True)
    for name, (header, rows) in tables.items():
        values = (rows.ravel().tolist() if isinstance(rows, np.ndarray)
                  else [v for r in rows for v in r])
        width = len(header)
        row = "\n" + ",".join("%s" if isinstance(c, str) else _FMT
                              for c in values[:width])
        body = row * (len(values) // width) % tuple(values)
        (out / name).write_text(",".join(header) + body + "\n")
    for name, text in texts.items():
        (out / name).write_text(text)
    print(shown)


def cmd_constants(args) -> int:
    C = _energy_constants(args)
    values = {name: getattr(C, name)
              for name in ("a1", "a2", "a3", "a4", "a5", "a5_hat", "c_n")}
    rows = [[name, val, C.err.get(name, 0.0)]
            for name, val in values.items() if val is not None]
    _write_artifacts(
        args, {"constants.json": {"n_dim": args.N, "q": args.q, "values": values,
                                  "err": C.err}},
        {"constants.csv": (["constant", "value", "err"], rows)},
        "\n".join(f"{name:7s} {_FMT % val}  (err {err:.2e})"
                  for name, val, err in rows))
    return 0


def cmd_predict(args) -> int:
    params = build_params(args)
    C = _energy_constants(args)
    with _failing("prediction failed"):
        tower = predicted_tower(params, C)
    breakdown = energy_expansion(tower.lambdas, params.epsilon, C, params)
    payload = {
        "params": {"N": args.N, "q": args.q, "eps": args.eps, "k": args.k,
                   "regime": params.regime.value, "V": args.V},
        "lambda_star": list(tower.lambdas),
        "xi": list(tower.xi),
        "alpha": list(tower.alpha),
        "energy": dataclasses.asdict(breakdown),
    }
    rows = [[i + 1, tower.lambdas[i], tower.xi[i], tower.alpha[i]]
            for i in range(params.k)]
    _write_artifacts(args, {"predict.json": payload},
                     {"tower.csv": (["j", "lambda", "xi", "alpha"], rows)}, payload)
    return 0


def cmd_reduce(args) -> int:
    params, _, lam_eps, state = _solve_reduced(args)
    grid = state.phi.grid
    ubar, phi = state.field.ubar.values, state.phi.values
    table = np.column_stack((grid.x, ubar, phi, ubar + phi))
    summary = {
        "lambda_eps": list(lam_eps),
        "xi": list(state.xi),
        "multipliers": list(state.c),
        "star_norm_phi": state.star_norm_phi,
        "iterations": state.iterations,
        "converged": state.converged,
        "orth_defect": state.orth_defect,
        "grid": {"x0": grid.x0, "h": grid.h, "n": grid.n},
        "sigma": state.field.frame.sigma,
        "eps": params.epsilon,
    }
    _write_artifacts(args, {"reduction.json": summary},
                     {"profile.csv": (["x", "ubar", "phi", "v"], table)},
                     {k: summary[k] for k in ("lambda_eps", "multipliers",
                                              "star_norm_phi", "iterations")})
    return 0


def cmd_verify(args) -> int:
    params, C, lam_eps, state = _solve_reduced(args)
    with _failing("verification failed"):
        solution = assemble_solution(state, params)
        # the shooting finds its own height; the solved tower only seeds the scan
        solved = TowerConfig(lam_eps, state.xi, tower_amplitudes(lam_eps, C, params))
        found = find_tower(params, solved)
    xi1, xik = float(state.xi[0]), float(state.xi[-1])
    metrics = compare(solution.ef, found.ef_image, (xi1 - 2.0, xi1 + 2.0))
    tower_metrics = compare(solution.ef, found.ef_image, (xi1 - 2.0, xik + 2.0))
    residual = solution.radial_residual(solution.residual_radii(100))
    payload = {
        "shot_u0": found.u0,
        "classification": found.classification.value,
        "ef_peaks": found.peak_count_ef,
        "sup_rel_near_peak": metrics.sup_rel,
        "sup_rel_tower": tower_metrics.sup_rel,
        "l2_rel_near_peak": metrics.l2_rel,
        "max_radial_residual": float(np.max(residual)),
        "multipliers": list(state.c),
    }
    shot = np.column_stack((found.r, found.u))
    _write_artifacts(args, {"verify.json": payload},
                     {"shot.csv": (["r", "u"], shot)}, payload)
    return 0


def cmd_sweep(args) -> int:
    eps_list = [float(t) for t in args.eps_list.split(",")]
    potential = parse_potential(args.V)
    C = _energy_constants(args)
    cfg = ReductionConfig(h=args.h)

    def point(eps: float):
        """The point's metrics, or the text of the error that stopped it."""
        try:
            params = ModelParams.make(args.N, args.q, eps, k=args.k,
                                      potential=potential)
            return sweep_point(params, C, cfg)
        except _FAILURES as exc:    # record and continue
            return f"{type(exc).__name__}: {exc}"

    with concurrent.futures.ThreadPoolExecutor(max_workers=args.workers) as pool:
        results = list(pool.map(point, eps_list))
    ok = [r for r in results if not isinstance(r, str)]
    errors = {str(eps): r for eps, r in zip(eps_list, results) if isinstance(r, str)}
    slopes = {}
    if len(ok) >= 2:
        le = np.log([r["eps"] for r in ok])
        for key in ("residual_star", "phi_star", "energy_gap_ratio"):
            slopes[key] = float(np.polyfit(le, np.log([r[key] for r in ok]), 1)[0])
    columns = ["eps", "residual_star", "phi_star", "energy_gap_ratio"]
    payload = {"points": ok, "slopes": slopes, "errors": errors}
    # one point file per distinct epsilon, named by its repr as the errors keys
    payloads = {f"point_{r['eps']!r}.json": r for r in ok}
    payloads["sweep.json"] = payload
    _write_artifacts(args, payloads,
                     {"sweep.csv": (columns, [[r[c] for c in columns] for r in ok])},
                     payload)
    return 0 if ok else 1     # the report is written either way


def _checked(cast, ok, what: str):
    """argparse type: cast the flag's text, then reject values failing ok."""
    def parse(text: str):
        val = cast(text)
        if not ok(val):
            raise argparse.ArgumentTypeError(f"{text!r} must be {what}")
        return val
    parse.__name__ = cast.__name__     # "invalid float value" on a cast error
    return parse


_POSITIVE = _checked(float, lambda v: 0.0 < v < np.inf, "finite and > 0")
_DIMENSION = _checked(int, lambda v: v >= 3, ">= 3")
_COUNT = _checked(int, lambda v: v >= 1, ">= 1")
_UNIT = _checked(float, lambda v: 0.0 < v < 1.0, "in (0, 1)")
_FINITE = _checked(float, np.isfinite, "finite")


def _eps_list(text: str) -> str:
    """argparse type: at least 2 strictly decreasing values in (0, 1), kept as text."""
    vals = [float(t) for t in text.split(",")]
    if len(vals) < 2 or not all(0.0 < b < a < 1.0 for a, b in zip(vals, vals[1:])):
        raise argparse.ArgumentTypeError(
            f"{text!r} must be at least 2 strictly decreasing values in (0, 1)")
    return text


def _add_constants_args(sp):
    sp.add_argument("--N", type=_DIMENSION, default=3, help="dimension (>= 3)")
    sp.add_argument("--q", type=_FINITE, required=True, help="competing exponent")


def _add_model_args(sp, eps_required=True):
    _add_constants_args(sp)
    if eps_required:
        sp.add_argument("--eps", type=_UNIT, required=True, help="supercritical shift")
    sp.add_argument("--k", type=_COUNT, default=1, help="tower height")
    sp.add_argument("--V", type=str, default="const:-1",
                    help="potential preset (const:c | rational:a,b)")


def _add_grid_args(sp):
    sp.add_argument("--h", type=_POSITIVE, default=0.02, help="grid spacing")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="bubbletower",
        description="Bubble-tower constructions for a competing-powers "
                    "semilinear equation: constants, predictions, reduction "
                    "runs and shooting verification.")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", type=str, default=None,
                        help="output root (default $BUBBLETOWER_OUT or ./runs)")
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("constants", help="energy constants table", parents=[common])
    _add_constants_args(sp)
    sp.set_defaults(func=cmd_constants)

    sp = sub.add_parser("predict", help="closed-form tower prediction", parents=[common])
    _add_model_args(sp)
    sp.set_defaults(func=cmd_predict)

    # reduce and verify take the same flags and share one reduction step
    for name, what, func in (("reduce", "run the discretized reduction", cmd_reduce),
                             ("verify", "reduction + independent shooting", cmd_verify)):
        sp = sub.add_parser(name, help=what, parents=[common])
        _add_model_args(sp)
        _add_grid_args(sp)
        sp.set_defaults(func=func)

    sp = sub.add_parser("sweep", help="trend metrics over decreasing epsilon", parents=[common])
    _add_model_args(sp, eps_required=False)
    _add_grid_args(sp)
    sp.add_argument("--eps-list", dest="eps_list", type=_eps_list, required=True,
                    help="comma-separated decreasing epsilon values")
    sp.add_argument("--workers", type=_COUNT, default=4)
    sp.set_defaults(func=cmd_sweep)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
