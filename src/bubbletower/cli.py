"""Command-line front end: constants, predictions, reduction runs, verification, sweeps.

Every command computes its JSON payloads and CSV tables, then hands them to
one writer, _write_artifacts, which also writes a manifest capturing the full
configuration into the output directory, so reruns with the same manifest
reproduce the numbers bit for bit (timestamps and stage times aside).  A
non-finite number in any JSON output fails the run before a file is written.
The flags are declared once (_FLAGS, _COMMANDS); main builds the parser on
its first call and reuses it for the rest of the process.

CSV numbers read as ``'%.17g' % v``.  Large float-array tables go through
_float_csv, which computes the same bytes in numpy: the 17 digits come from
|v| 10^(16-X) formed to within 1.4e-14, enough to round it, and any
value whose rounding that error could decide, or whose magnitude is zero,
non-finite or outside [1e-280, 1e290), is formatted by ``%`` itself.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import contextlib
import dataclasses
import functools
import json
import math
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
from .reduced_model import energy_expansion, predicted_tower
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
    """(params, Lambda_eps, state) for the flags; exits if the reduction fails."""
    params, C = build_params(args), _energy_constants(args)
    with _failing("reduction failed"):
        return (params, *solve_reduced(params, C, ReductionConfig(h=args.h)))


def _json(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True, allow_nan=False)


# the LAPACK numpy was built with, which the tridiagonal solver calls
_LAPACK = {key: numpy.__config__.CONFIG["Build Dependencies"]["lapack"][key]
           for key in ("name", "version")}


# float tables of fewer values go through the % template: _float_csv's
# fixed cost of about 0.14 ms makes it the faster path only from 350-450
# values (measured on 2- and 4-column tables)
_ENCODE_MIN = 500
# the Veltkamp split 2**27 + 1, and the margin that a rounding must clear:
# about 60 times the 1.4e-14 error bound of _scaled
_SPLIT = 134217729.0
_MARGIN = 2.0 ** -40


def _pow10(k: int) -> Tuple[float, float]:
    """10**k as a pair hi + lo of doubles, to 2**-105 relative."""
    if k >= 0:
        p = 10 ** k
        hi = float(p)
        return hi, float(p - int(hi))
    d = 10 ** -k
    shift = d.bit_length() + 120
    q = (1 << shift) // d           # 2**shift / 10**-k to 120 bits
    hi = float(q)
    return math.ldexp(hi, -shift), math.ldexp(float(q - int(hi)), -shift)


def _scaled(a: np.ndarray, i: np.ndarray, hh: np.ndarray, hl: np.ndarray,
            lo: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """(int64 floor, fraction) of a 10^k, with 10^k = hh[i] + hl[i] + lo[i].

    hh + hl is the Veltkamp split of the leading double of 10^k, so
    Dekker's two-product gives a (hh + hl) = P + E exactly.  The sum
    P + E + a lo is then within 1.4e-14 of a 10^k below 1e17: 2.5e-15 from
    the pair, 9e-16 from rounding a lo (at most 11), 4e-15 from the sum.
    """
    hh, hl = hh.take(i), hl.take(i)
    ah = a * _SPLIT
    al = ah - a
    ah -= al                        # the leading 26 bits of a
    np.subtract(a, ah, out=al)
    P = hh + hl
    P *= a
    E = ah * hh
    E -= P
    ah *= hl
    E += ah
    hh *= al
    E += hh
    hl *= al
    E += hl
    lo = lo.take(i, out=hh)
    lo *= a
    E += lo
    floor = np.floor(E, out=ah)
    E -= floor
    M, whole = hl.view(np.int64), hh.view(np.int64)     # spent buffers
    np.copyto(M, P, casting="unsafe")
    np.copyto(whole, floor, casting="unsafe")
    M += whole
    return M, E


def _float_csv(values: np.ndarray, width: int) -> np.ndarray:
    """The CSV lines of a width-column float table, as '%.17g' % v would write.

    Per value: X = floor(log10|v|), stepped by one where |v| 10^(16-X)
    (_scaled) leaves [1e16, 1e17); the rounded product M is the 17 digits.
    A value is laid out here only where the product is further than _MARGIN
    from a rounding midpoint and, at the ends of [1e16, 1e17), from an
    integer.  Every other value, and any of magnitude 0, inf, nan or outside
    [1e-280, 1e290), takes '%.17g' % v.  The layout is C's %g: fixed for
    -4 <= X < 17, else d.ddd with an exponent of at least two digits;
    trailing zeros and a bare point dropped.  Each value is a 25-byte record
    built column by column: '-' or NUL, the digits with the point (columns
    1-22), the exponent (19-23, where exponent notation ends its digits by
    18), then ',' or a newline after the row's last value.  The NULs are
    dropped at the end.  Returns the bytes as a uint8 array.
    """
    v = np.ascontiguousarray(values, dtype=np.float64).ravel()
    n = v.size
    a = np.abs(v)
    decided = a >= 1e-280
    decided &= a < 1e290
    a[~decided] = 1.0
    X = np.log10(a)
    X = np.floor(X, out=X).astype(np.int32)
    x0 = int(X.min()) - 1
    pairs = np.array([_pow10(16 - x) for x in range(x0, int(X.max()) + 2)])
    hi, lo = pairs[:, 0], pairs[:, 1]
    hh = hi * _SPLIT
    hh -= hh - hi
    hl = hi - hh
    M, frac = _scaled(a, X - x0, hh, hl, lo)
    high = M >= 10 ** 17
    off = M < 10 ** 16
    off |= high
    if off.any():                   # log10 misjudged X by one
        j = np.flatnonzero(off)
        X[j] += np.where(high[j], 1, -1)
        Mj, frac[j] = _scaled(a[j], X[j] - x0, hh, hl, lo)
        M[j] = Mj
        decided[j] &= (Mj >= 10 ** 16) & (Mj < 10 ** 17)
    up = frac > 0.5
    frac -= 0.5
    np.abs(frac, out=frac)
    decided &= frac > _MARGIN
    edge = frac > 0.5 - _MARGIN     # near an integer: is X itself decided?
    if edge.any():
        decided[edge] &= ~np.isin(M[edge], (10 ** 16 - 1, 10 ** 16,
                                            10 ** 17 - 1, 10 ** 17))
    del a, frac                     # free for the digits below
    M += up
    carry = M == 10 ** 17
    M[carry] = 10 ** 16
    X += carry
    # digits: the 21 of M 10^(4 - s), with the s = -X leading zeros of fixed
    # notation below 1, as 1 + 5 x 4 digits: M // 10^s and the last four
    below1 = X < 0
    below1 &= X >= -4
    last4 = np.zeros(n, np.uint16)
    j = np.flatnonzero(below1)
    p = np.power(10, -X[j], dtype=np.int64)
    Mj = M[j]
    M[j] = Mj // p
    last4[j] = (Mj - M[j] * p) * (10 ** 4 // p)
    upper = M // 10 ** 8
    M -= upper * 10 ** 8
    lower, upper = M.astype(np.uint32), upper.astype(np.uint32)
    k0 = upper // 10 ** 8
    upper -= k0 * 10 ** 8
    chunks = np.empty((5, n), np.uint16)
    np.floor_divide(upper, 10 ** 4, out=chunks[0], casting="unsafe")
    np.floor_divide(lower, 10 ** 4, out=chunks[2], casting="unsafe")
    chunks[1] = upper - chunks[0] * np.uint32(10 ** 4)
    chunks[3] = lower - chunks[2] * np.uint32(10 ** 4)
    chunks[4] = last4
    work = np.empty((3, 25, n), np.uint8)
    F, A, O = work
    F[0] = k0
    for row in (4, 3, 2):           # each chunk's digits, last first
        tens = chunks // 10
        np.subtract(chunks, tens * 10, out=F[row:21:4], casting="unsafe")
        chunks = tens
    F[1:21:4] = chunks
    # the stream: F[j] before the point at q, F[j - 1] after it, up to the
    # last nonzero digit or the point
    col = np.arange(25, dtype=np.uint8)[:, None]
    flags = A.view(bool)
    np.not_equal(F[:21], 0, out=flags[:21])
    np.multiply(A[:21], col[:21], out=A[:21])
    last = A[:21].max(axis=0)
    F[:21] += 48
    F[21] = 0
    exp = X < -4
    exp |= X >= 17
    fixed = below1 | exp
    np.logical_not(fixed, out=fixed)
    q = X.astype(np.uint8)
    q *= fixed.view(np.uint8)
    q += 1                          # X + 1 where fixed at or above 1, else 1
    end = np.maximum(q, last + 1)
    end += end > q
    end += 1                        # the stream starts in column 1
    np.greater(col[1:22], q, out=flags[1:22])
    np.negative(A[1:22], out=A[1:22])
    np.bitwise_xor(F[1:22], F[:21], out=O[2:23])
    np.bitwise_and(O[2:23], A[1:22], out=O[2:23])
    np.bitwise_xor(O[2:23], F[1:22], out=O[2:23])
    O[1] = F[0]
    point = q.astype(np.intp)
    point += 1
    point *= n
    point += np.arange(n)
    O.ravel()[point] = 46
    np.less(col[1:23], end, out=flags[1:23])
    np.multiply(O[1:23], A[1:23], out=O[1:23])
    np.multiply(np.signbit(v).view(np.uint8), 45, out=O[0])
    O[23] = 0
    if exp.any():
        e = exp.view(np.uint8)
        ax = np.abs(X).astype(np.uint16)
        hundreds, tens = ax // 100, ax // 10
        ones = ax - tens * 10
        tens -= hundreds * 10
        three = (hundreds != 0).view(np.uint8)
        O[19] += e * 101
        O[20] += e * (43 + 2 * (X < 0).view(np.uint8))
        O[21] += (tens + (hundreds - tens) * three + 48) * e
        O[22] += (ones + (tens - ones) * three + 48) * e
        O[23] += (ones + 48) * three * e
    O[24] = 44
    O[24, width - 1::width] = 10
    records = F.reshape(n, 25)
    np.copyto(records, O.T)
    for i in np.flatnonzero(~decided).tolist():
        text = (_FMT % v[i]).encode()
        records[i, :24] = 0
        records[i, :len(text)] = np.frombuffer(text, np.uint8)
    flat = records.ravel()
    keep = A.reshape(-1).view(bool)
    np.not_equal(flat, 0, out=keep)
    return flat[keep]


def _csv_body(rows: Union[np.ndarray, list], width: int) -> Union[bytes, np.ndarray]:
    """A table's lines: '%.17g' for numbers, '%s' for strings, ',' and '\n'.

    A float array of at least _ENCODE_MIN values goes through _float_csv;
    other tables through one % template, the row's (after the first row's
    types) repeated once per row, over the flattened values.
    """
    if isinstance(rows, np.ndarray) and rows.size >= _ENCODE_MIN:
        return _float_csv(rows, width)
    values = (rows.ravel().tolist() if isinstance(rows, np.ndarray)
              else [v for r in rows for v in r])
    row = ",".join("%s" if isinstance(c, str) else _FMT for c in values[:width]) + "\n"
    return (row * (len(values) // width) % tuple(values)).encode()


def _write_artifacts(args, payloads: Dict[str, object],
                     tables: Dict[str, Tuple[List[str], Union[np.ndarray, list]]],
                     shown) -> None:
    """Write a command's JSON payloads, CSV tables and manifest; print shown.

    Every table is encoded (_csv_body), and every payload, shown (printed
    as JSON unless it is text) and the manifest serialized, before any file
    is written, so a non-finite number fails the run without artifacts.
    Each table is (header, rows), rows a 2-D float array or a list of
    equal-length row lists, one value per header column.  The manifest's
    stages hold run_s, the command's time before this writer (None unless
    main started it), and tables_s, the time to encode the tables.  An
    OSError from mkdir or a write ends the run in one line.
    """
    started = time.perf_counter()
    csv = {name: ((",".join(header) + "\n").encode(), _csv_body(rows, len(header)))
           for name, (header, rows) in tables.items()}
    command_start = vars(args).get("started")
    manifest = {
        "tool": "bubbletower",
        "version": __version__,
        "numpy": np.__version__, "lapack": _LAPACK,
        "config": {k: v for k, v in vars(args).items() if k != "started"},
        "outputs": sorted([*payloads, *tables]),
        "stages": {"run_s": None if command_start is None else started - command_start,
                   "tables_s": time.perf_counter() - started},
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
    }
    try:
        texts = {name: _json(obj) for name, obj in payloads.items()}
        texts["manifest.json"] = _json(manifest)
        if not isinstance(shown, str):
            shown = _json(shown)
    except ValueError:
        raise SystemExit("non-finite value in output; run failed")
    out = Path(args.out or os.environ.get("BUBBLETOWER_OUT") or "runs") / args.command
    # a rerun first removes the files that the directory's manifest lists,
    # so the directory ends up holding what the new manifest lists and the
    # files that the CLI never wrote; a listed path that leaves the
    # directory, such as ../x, names none of its files
    previous = set()
    with contextlib.suppress(OSError, ValueError, KeyError, TypeError):
        previous = set(json.loads((out / "manifest.json").read_text())["outputs"])
    try:
        out.mkdir(parents=True, exist_ok=True)
        for path in [p for p in out.iterdir() if p.name in previous and p.is_file()]:
            path.unlink()
        for name, (header, body) in csv.items():
            with open(out / name, "wb") as f:
                f.write(header)
                f.write(body)
        for name, text in texts.items():
            (out / name).write_text(text)
    except OSError as exc:
        raise SystemExit(f"cannot write artifacts: {exc}")
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
    params, C = build_params(args), _energy_constants(args)
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
    params, lam_eps, state = _solve_reduced(args)
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
    params, _, state = _solve_reduced(args)
    with _failing("verification failed"):
        solution = assemble_solution(state, params)
        # the shooting finds its own height; the solved spikes only seed the scan
        found = find_tower(params, state)
    xi1, xik = float(state.xi[0]), float(state.xi[-1])
    metrics = compare(solution.ef, found.ef_image, (xi1 - 2.0, xi1 + 2.0))
    tower_metrics = (metrics if xik == xi1     # the same window at k = 1
                     else compare(solution.ef, found.ef_image, (xi1 - 2.0, xik + 2.0)))
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


# every flag's add_argument keywords, declared once
_FLAGS = {
    "--out": dict(type=str, default=None,
                  help="output root (default $BUBBLETOWER_OUT or ./runs)"),
    "--N": dict(type=_DIMENSION, default=3, help="dimension (>= 3)"),
    "--q": dict(type=_FINITE, required=True, help="competing exponent"),
    "--eps": dict(type=_UNIT, required=True, help="supercritical shift"),
    "--k": dict(type=_COUNT, default=1, help="tower height"),
    "--V": dict(type=str, default="const:-1", help="potential preset (const:c | rational:a,b)"),
    "--h": dict(type=_POSITIVE, default=0.02, help="grid spacing"),
    "--eps-list": dict(type=_eps_list, required=True,
                       help="comma-separated decreasing epsilon values"),
    "--workers": dict(type=_COUNT, default=4, help="threads that solve the sweep's points"),
}
# each command's handler, help and flags; every command also takes --out,
# listed first in its --help
_MODEL = ("--N", "--q", "--eps", "--k", "--V")
_COMMANDS = {
    "constants": (cmd_constants, "energy constants table", ("--N", "--q")),
    "predict": (cmd_predict, "closed-form tower prediction", _MODEL),
    "reduce": (cmd_reduce, "run the discretized reduction", (*_MODEL, "--h")),
    "verify": (cmd_verify, "reduction + independent shooting", (*_MODEL, "--h")),
    "sweep": (cmd_sweep, "trend metrics over decreasing epsilon",
              ("--N", "--q", "--k", "--V", "--h", "--eps-list", "--workers")),
}


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command tree of _COMMANDS and _FLAGS, built on the first main call."""
    parser = argparse.ArgumentParser(
        prog="bubbletower",
        description="Bubble-tower constructions for a competing-powers semilinear equation: "
                    "constants, predictions, reduction runs and shooting verification.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, what, flags) in _COMMANDS.items():
        sp = sub.add_parser(name, help=what)
        for flag in ("--out", *flags):
            sp.add_argument(flag, **_FLAGS[flag])
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = _parser().parse_args(argv)
    args.started = time.perf_counter()
    return _COMMANDS[args.command][0](args)


if __name__ == "__main__":
    raise SystemExit(main())
