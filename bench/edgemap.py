#!/usr/bin/env python3
"""The edge map: `verify` at N = 7-10, in both regimes, out to eps = 5e-2.

    PYTHONPATH=src python bench/edgemap.py

Runs 80 cases through ``bubbletower.cli.main`` in this process, each with
V = -1 and h = 0.02, at k = 1 and 2 and eps = 5e-2 and 1e-2, for three
concentrating and two flat q at each N (``CASES``).  A case verifies when
``verify`` exits 0, which it does only with a decaying shot of k peaks.
Writes one JSON line per case to ``edgemap.jsonl`` next to this script: its
flags, the verdict, ``sup_rel_tower`` to three digits, and the type and
first line of the error that stopped it.  Prints the verified count and the
failures grouped by the first line of their error, with numbers masked.
"""

from __future__ import annotations

import collections
import contextlib
import io
import json
import re
import tempfile
import time
from pathlib import Path

from bubbletower import cli

RECORDS = Path(__file__).resolve().parent / "edgemap.jsonl"
# N: (concentrating q, flat q)
CASES = {7: ((1.5, 1.6, 1.75), (2.0, 2.3)),
         8: ((1.4, 1.5, 1.6), (1.9, 2.1)),
         9: ((1.35, 1.45, 1.55), (1.8, 2.0)),
         10: ((1.3, 1.4, 1.45), (1.7, 1.9))}
KS = (1, 2)
EPSILONS = (5e-2, 1e-2)
NUMBER = re.compile(r"[-+]?(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?")
ARRAY = re.compile(r"\[[#,\s]*\]")


def masked(line: str) -> str:
    """The line with each number, and each array of numbers, as one #."""
    return ARRAY.sub("[#]", NUMBER.sub("#", line))


def run_case(n_dim: int, q: float, k: int, eps: float, regime: str, out: str) -> dict:
    """One verify run as a record.  A failure's type is that of the library
    error behind the CLI's one-line exit, or of the exception itself."""
    record = {"N": n_dim, "q": q, "k": k, "eps": eps, "regime": regime,
              "verdict": "failed", "sup_rel_tower": None, "error_type": None,
              "error": None}
    argv = ["verify", "--N", str(n_dim), "--q", repr(q), "--k", str(k),
            "--eps", repr(eps), "--h", "0.02", "--V", "const:-1", "--out", out]
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            cli.main(argv)
    except (SystemExit, Exception) as exc:
        cause = exc.__context__ if isinstance(exc, SystemExit) else exc
        record["error_type"] = type(cause or exc).__name__
        record["error"] = (str(exc) or record["error_type"]).splitlines()[0]
        return record
    payload = json.loads((Path(out) / "verify" / "verify.json").read_text())
    record["verdict"] = "verified"
    record["sup_rel_tower"] = float(f"{payload['sup_rel_tower']:.3g}")
    return record


def main() -> None:
    started = time.perf_counter()
    with tempfile.TemporaryDirectory() as out:
        records = [run_case(n_dim, q, k, eps, regime, out)
                   for n_dim, regimes in CASES.items()
                   for regime, qs in zip(("concentrating", "flat"), regimes)
                   for q in qs for k in KS for eps in EPSILONS]
    RECORDS.write_text("".join(json.dumps(r) + "\n" for r in records))
    failures = collections.Counter((r["error_type"], masked(r["error"]))
                                   for r in records if r["verdict"] != "verified")
    print(f"verified {len(records) - sum(failures.values())} of {len(records)} in "
          f"{time.perf_counter() - started:.1f} s; records in {RECORDS}")
    for (error_type, line), count in failures.most_common():
        print(f"{count:3d}  {error_type}: {line}")


if __name__ == "__main__":
    main()
