"""Command-line front end: constants, predictions, reduction runs, verification, sweeps.

Every run writes its artifacts (CSV/JSON) plus a manifest capturing the full
configuration into the output directory, so reruns with the same manifest
reproduce the numbers bit for bit (timestamps aside).
"""

from __future__ import annotations

import argparse
import concurrent.futures
import dataclasses
import json
import os
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

from . import __version__
from .errors import BubbleTowerError
from .field import tower_ansatz  # noqa: F401  read by perfbench's span self-test
from .profiles import ModelParams, PotentialSpec, Regime
from .quadrature import energy_constants
from .reduced_model import energy_expansion, predicted_tower
from .reduction import (ReductionConfig, assemble_solution, solve_reduced,
                        sweep_point)
from .verifier import compare, find_tower

_FMT = "%.17g"


def _fmt(x) -> str:
    return _FMT % float(x)


def parse_potential(spec: str) -> PotentialSpec:
    """Presets: const:c and rational:a,b (V = a + b r^2/(1+r^2))."""
    kind, _, rest = spec.partition(":")
    try:
        if kind == "const":
            return PotentialSpec.constant(float(rest))
        if kind == "rational":
            a, b = (float(t) for t in rest.split(","))
            return PotentialSpec.rational(a, b)
    except ValueError as exc:
        raise SystemExit(f"bad potential spec {spec!r}: {exc}")
    raise SystemExit(f"unknown potential preset {kind!r} (use const:c or rational:a,b)")


def build_params(args) -> ModelParams:
    """Model parameters from the flags; exits unless the regime's hypothesis holds."""
    regime = None
    if args.regime:
        regime = Regime.SUB_Q if args.regime == "sub" else Regime.SUPER_Q
    try:
        params = ModelParams.make(args.N, args.q, args.eps, k=args.k,
                                  potential=parse_potential(args.V), regime=regime)
    except ValueError as exc:
        raise SystemExit(f"invalid model parameters: {exc}")
    try:
        params.check_hypotheses()
    except BubbleTowerError as exc:
        raise SystemExit(f"hypothesis violation: {exc}")
    return params


def _out_dir(args) -> Path:
    root = args.out or os.environ.get("BUBBLETOWER_OUT", "runs")
    path = Path(root) / args.command
    path.mkdir(parents=True, exist_ok=True)
    return path


def _write_manifest(path: Path, args, outputs: List[str]):
    cfg = {k: v for k, v in vars(args).items() if k not in ("func",)}
    manifest = {
        "tool": "bubbletower",
        "version": __version__,
        "config": cfg,
        "outputs": sorted(outputs),
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
    }
    (path / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True))


def _write_csv(path: Path, header: List[str], rows) -> str:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(c if isinstance(c, str) else _fmt(c) for c in row))
    path.write_text("\n".join(lines) + "\n")
    return path.name


def _check_finite(values) -> None:
    arr = np.asarray([v for v in values if not isinstance(v, str)], dtype=float)
    if arr.size and not np.all(np.isfinite(arr)):
        raise SystemExit("non-finite value in output; run failed")


def cmd_constants(args) -> int:
    out = _out_dir(args)
    C = energy_constants(args.N, args.q, tol=args.tol)
    names = ["a1", "a2", "a3", "a4", "a5", "a5_hat", "c_n"]
    rows = []
    record: Dict[str, Optional[float]] = {}
    for name in names:
        val = getattr(C, name)
        record[name] = val
        if val is None:
            continue
        rows.append([name, val, C.err.get(name, 0.0)])
        _check_finite([val])
    csv_name = _write_csv(out / "constants.csv", ["constant", "value", "err"], rows)
    json_path = out / "constants.json"
    json_path.write_text(json.dumps({"n_dim": args.N, "q": args.q, "values": record,
                                     "err": C.err}, indent=2, sort_keys=True))
    _write_manifest(out, args, [csv_name, json_path.name])
    for row in rows:
        print(f"{row[0]:7s} {_fmt(row[1])}  (err {row[2]:.2e})")
    return 0


def cmd_predict(args) -> int:
    out = _out_dir(args)
    params = build_params(args)
    C = energy_constants(args.N, args.q, tol=args.tol)
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
    _check_finite(list(tower.lambdas) + list(tower.xi) + list(tower.alpha)
                  + [breakdown.total])
    (out / "predict.json").write_text(json.dumps(payload, indent=2, sort_keys=True))
    rows = [[i + 1, tower.lambdas[i], tower.xi[i], tower.alpha[i]]
            for i in range(params.k)]
    csv_name = _write_csv(out / "tower.csv", ["j", "lambda", "xi", "alpha"], rows)
    _write_manifest(out, args, ["predict.json", csv_name])
    print(json.dumps(payload, indent=2, sort_keys=True))
    return 0


def _reduction_config(args) -> ReductionConfig:
    return ReductionConfig(h=args.h, window_m=args.window_M)


def cmd_reduce(args) -> int:
    out = _out_dir(args)
    params = build_params(args)
    C = energy_constants(args.N, args.q, tol=args.tol)
    cfg = _reduction_config(args)
    try:
        lam_eps, state = solve_reduced(params, C, cfg)
    except BubbleTowerError as exc:
        raise SystemExit(f"reduction failed: {exc}")
    grid = state.phi.grid
    ubar = state.field.ubar
    v_vals = ubar.values + state.phi.values
    rows = zip(grid.x, ubar.values, state.phi.values, v_vals)
    csv_name = _write_csv(out / "profile.csv", ["x", "ubar", "phi", "v"], rows)
    sol_name = _write_csv(out / "solution.csv", ["x", "value"],
                          zip(grid.x, v_vals))
    summary = {
        "lambda_eps": list(lam_eps),
        "xi": list(state.xi),
        "multipliers": list(state.c),
        "star_norm_phi": state.star_norm_phi,
        "iterations": state.iterations,
        "converged": state.converged,
        "orth_defect": state.orth_defect,
        "grid": {"x0": grid.x0, "h": grid.h, "n": grid.n},
        "sigma": state.frame.sigma,
        "eps": params.epsilon,
    }
    _check_finite(list(lam_eps) + list(state.c) + [state.star_norm_phi])
    (out / "reduction.json").write_text(json.dumps(summary, indent=2, sort_keys=True))
    _write_manifest(out, args, [csv_name, sol_name, "reduction.json"])
    print(json.dumps({k: summary[k] for k in
                      ("lambda_eps", "multipliers", "star_norm_phi", "iterations")},
                     indent=2, sort_keys=True))
    return 0


def cmd_verify(args) -> int:
    out = _out_dir(args)
    params = build_params(args)
    C = energy_constants(args.N, args.q, tol=args.tol)
    cfg = _reduction_config(args)
    try:
        lam_eps, state = solve_reduced(params, C, cfg)
        solution = assemble_solution(state, params)
        tower = predicted_tower(params, C)
        found = find_tower(params, tower)
    except BubbleTowerError as exc:
        raise SystemExit(f"verification failed: {exc}")
    csv_name = _write_csv(out / "shot.csv", ["r", "u"], zip(found.r, found.u))
    xi1 = float(state.xi[0])
    metrics = compare(solution.ef, found.ef_image, (xi1 - 2.0, xi1 + 2.0))
    residual = solution.radial_residual(solution.residual_radii(100))
    payload = {
        "shot_u0": found.u0,
        "classification": found.classification.value,
        "ef_peaks": found.peak_count_ef,
        "sup_rel_near_peak": metrics.sup_rel,
        "l2_rel_near_peak": metrics.l2_rel,
        "max_radial_residual": float(np.max(residual)),
        "multipliers": list(state.c),
    }
    _check_finite([found.u0, metrics.sup_rel, float(np.max(residual))])
    (out / "verify.json").write_text(json.dumps(payload, indent=2, sort_keys=True))
    _write_manifest(out, args, [csv_name, "verify.json"])
    print(json.dumps(payload, indent=2, sort_keys=True))
    return 0


def cmd_sweep(args) -> int:
    out = _out_dir(args)
    eps_list = [float(t) for t in args.eps_list.split(",")]
    if len(eps_list) < 2 or any(b >= a for a, b in zip(eps_list, eps_list[1:])):
        raise SystemExit("sweep needs at least 2 strictly decreasing epsilon values")
    potential = parse_potential(args.V)
    try:
        C = energy_constants(args.N, args.q, tol=args.tol)
    except (BubbleTowerError, ValueError) as exc:
        raise SystemExit(f"energy constants failed: {exc}")
    cfg = _reduction_config(args)

    def point(eps: float) -> Dict[str, float]:
        params = ModelParams.make(args.N, args.q, eps, k=args.k, potential=potential)
        return sweep_point(params, C, cfg)

    results: List[Optional[Dict[str, float]]] = [None] * len(eps_list)
    errors: Dict[float, str] = {}
    with concurrent.futures.ThreadPoolExecutor(max_workers=args.workers) as pool:
        futures = {pool.submit(point, eps): i for i, eps in enumerate(eps_list)}
        for fut in concurrent.futures.as_completed(futures):
            i = futures[fut]
            try:
                results[i] = fut.result()
            except Exception as exc:           # record and continue
                errors[eps_list[i]] = f"{type(exc).__name__}: {exc}"
    ok = [r for r in results if r is not None]
    for r in ok:    # per-point artifacts; the merged report follows
        (out / f"point_{r['eps']:.6g}.json").write_text(
            json.dumps(r, indent=2, sort_keys=True))
    slopes = {}
    if len(ok) >= 2:
        le = np.log([r["eps"] for r in ok])
        for key in ("residual_star", "phi_star", "energy_gap_ratio"):
            slopes[key] = float(np.polyfit(le, np.log([r[key] for r in ok]), 1)[0])
    rows = [[r["eps"], r["residual_star"], r["phi_star"], r["energy_gap_ratio"]]
            for r in ok]
    csv_name = _write_csv(out / "sweep.csv",
                          ["eps", "residual_star", "phi_star", "energy_gap_ratio"], rows)
    payload = {"points": ok, "slopes": slopes,
               "errors": {str(k): v for k, v in errors.items()}}
    (out / "sweep.json").write_text(json.dumps(payload, indent=2, sort_keys=True))
    _write_manifest(out, args, [csv_name, "sweep.json"]
                    + [f"point_{r['eps']:.6g}.json" for r in ok])
    print(json.dumps(payload, indent=2, sort_keys=True))
    return 0


def _checked(cast, ok, what: str):
    """argparse type: cast the flag's text, then reject values failing ok."""
    def parse(text: str):
        val = cast(text)
        if not ok(val):
            raise argparse.ArgumentTypeError(f"{text!r} must be {what}")
        return val
    parse.__name__ = cast.__name__     # "invalid float value" on a cast error
    return parse


_POSITIVE = _checked(float, lambda v: v > 0.0, "> 0")


def _add_model_args(sp, eps_required=True):
    sp.add_argument("--N", type=int, default=3, help="dimension (>= 3)")
    sp.add_argument("--q", type=float, required=True, help="competing exponent")
    if eps_required:
        sp.add_argument("--eps", required=True, help="supercritical shift",
                        type=_checked(float, lambda v: 0.0 < v < 1.0, "in (0, 1)"))
    sp.add_argument("--k", type=int, default=1, help="tower height")
    sp.add_argument("--V", type=str, default="const:-1",
                    help="potential preset (const:c | rational:a,b)")
    sp.add_argument("--regime", choices=("sub", "super"), default=None,
                    help="override the regime inferred from q")
    sp.add_argument("--tol", type=float, default=1e-12, help="quadrature tolerance")


def _add_grid_args(sp):
    sp.add_argument("--h", type=_POSITIVE, default=0.02, help="grid spacing")
    sp.add_argument("--window-M", dest="window_M", type=_POSITIVE, default=10.0,
                    help="window constant M")


def _load_config_defaults(argv):
    """key = value lines from --config FILE become argparse defaults."""
    if "--config" not in argv:
        return argv, {}
    i = argv.index("--config")
    try:
        path = argv[i + 1]
    except IndexError:
        raise SystemExit("--config needs a file path")
    defaults = {}
    for line in Path(path).read_text().splitlines():
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        key, _, val = line.partition("=")
        defaults[key.strip().replace("-", "_")] = val.strip()
    return argv[:i] + argv[i + 2:], defaults


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    argv, config_defaults = _load_config_defaults(argv)
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
    sp.add_argument("--N", type=int, default=3)
    sp.add_argument("--q", type=float, required=True)
    sp.add_argument("--tol", type=float, default=1e-12)
    sp.set_defaults(func=cmd_constants)

    sp = sub.add_parser("predict", help="closed-form tower prediction", parents=[common])
    _add_model_args(sp)
    sp.set_defaults(func=cmd_predict)

    sp = sub.add_parser("reduce", help="run the discretized reduction", parents=[common])
    _add_model_args(sp)
    _add_grid_args(sp)
    sp.set_defaults(func=cmd_reduce)

    sp = sub.add_parser("verify", help="reduction + independent shooting", parents=[common])
    _add_model_args(sp)
    _add_grid_args(sp)
    sp.set_defaults(func=cmd_verify)

    sp = sub.add_parser("sweep", help="trend metrics over decreasing epsilon", parents=[common])
    _add_model_args(sp, eps_required=False)
    _add_grid_args(sp)
    sp.add_argument("--eps-list", dest="eps_list", type=str, required=True,
                    help="comma-separated decreasing epsilon values")
    sp.add_argument("--workers", type=_checked(int, lambda v: v >= 1, ">= 1"), default=4)
    sp.set_defaults(func=cmd_sweep)

    if config_defaults:
        # config supplies subcommand flags as defaults; explicit flags win
        for key, val in config_defaults.items():
            flag = "--" + key.replace("_", "-")
            if flag not in argv and key != "command":
                argv += [flag, val]
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
