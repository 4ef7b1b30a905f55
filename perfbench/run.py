#!/usr/bin/env python3
"""Benchmark of the bubbletower pipeline; run it from the root of a checkout.

    python3 perfbench/run.py --workload tower --seed 0 --seconds 15 --trace 0

Imports ``bubbletower`` from the checkout's ``src/`` (it need not be
installed) and runs each case of the workload through
``bubbletower.cli.main`` in this process, each with a fresh ``--out``
directory, repeating whole passes over the cases until ``--seconds`` have
elapsed (at least one pass).  Every result is checked against the gates in
``cases.py``.

With ``--trace 0`` the metrics are the end-to-end ones: ``setup_s`` (median
over fresh processes of the time from process start until ``bubbletower``
is imported and the first case can begin), ``wall_s`` (median time of one
pass) and ``peak_rss_mb`` (peak resident memory through the first pass).
With ``--trace 1`` the untraced passes are followed by one pass with span
wrappers installed at each layer boundary (``spans.py``), and the metrics
are the per-layer ones, plus the tracing overhead (traced pass minus median
untraced pass).

The lines before the last one on stdout are a readable report; the last is
one JSON object ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

import cases
import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

SETUP_PROBES = 5
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}

# name -> (unit, better); what each should move is tabled in README.md
PER_LAYER = {
    "quadrature.constants_calls": ("count", "lower"),
    "quadrature.constants_s": ("s", "lower"),
    "quadrature.integrand_evals": ("count", "lower"),
    "reduced_model.s": ("s", "lower"),
    "field.s": ("s", "lower"),
    "field.tower_ansatz_calls": ("count", "lower"),
    "reduction.factor_calls": ("count", "lower"),
    "reduction.factor_s": ("s", "lower"),
    "reduction.factor_nnz": ("count", "lower"),
    "reduction.solve_calls": ("count", "lower"),
    "reduction.solve_s": ("s", "lower"),
    "reduction.corrections": ("count", "lower"),
    "reduction.picard_iters": ("count", "lower"),
    "reduction.corrections_per_solve": ("ratio", "lower"),
    "reduction.solve_reduced_s": ("s", "lower"),
    "reduction.assemble_s": ("s", "lower"),
    "reduction.max_c": ("ratio", "lower"),
    "verifier.shots": ("count", "lower"),
    "verifier.rhs_evals": ("count", "lower"),
    "verifier.rhs_evals_per_shot": ("ratio", "lower"),
    "verifier.ivp_s": ("s", "lower"),
    "verifier.find_tower_s": ("s", "lower"),
    "verifier.compare_s": ("s", "lower"),
    "verifier.sup_rel": ("ratio", "lower"),
    "verifier.probe_s": ("s", "lower"),
    "verifier.probe_failures": ("count", "lower"),
    "cli.s": ("s", "lower"),
    "cli.bytes_written": ("B", "lower"),
    "cli.busy_ratio": ("ratio", "higher"),
    "trace.overhead_s": ("s", "lower"),
}


@dataclass
class Op:
    """One CLI call: its time, its failure (if any) and its parsed result."""

    case: str
    seconds: float
    error: Optional[str] = None
    misses: List[str] = field(default_factory=list)
    result: dict = field(default_factory=dict)
    bytes_written: int = 0

    @property
    def failed(self) -> bool:
        return self.error is not None or bool(self.misses)


@dataclass
class Probe:
    seconds: float
    failed: bool
    outcome: str


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def load_library():
    """Import bubbletower from this checkout's src/, with BLAS threads capped."""
    if not (SRC / "bubbletower" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no bubbletower package under {SRC}")
    for var in THREAD_VARS:
        os.environ[var] = str(nproc())
    sys.path.insert(0, str(SRC))
    import bubbletower
    import bubbletower.cli
    resolved = Path(bubbletower.__file__).resolve()
    if SRC.resolve() not in resolved.parents:
        raise SystemExit(f"perfbench: bubbletower resolved to {resolved}, not under {SRC}")
    return bubbletower


def environment(bt) -> dict:
    import numpy
    import scipy
    digest = hashlib.sha256()
    for path in sorted((SRC / "bubbletower").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists() and shutil.which("git"):
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() or None
    return {"bubbletower": str(Path(bt.__file__).resolve()), "commit": commit,
            "src_sha256": digest.hexdigest(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "nproc": nproc(), "threads": {v: os.environ[v] for v in THREAD_VARS}}


def measure_setup(n: int) -> float:
    """Median time from spawning a fresh interpreter until it is ready to run.

    One extra probe runs first and is discarded: it writes the bytecode
    caches and warms the file cache.
    """
    times = []
    for i in range(n + 1):
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, str(HERE / "run.py"), "--setup-probe"],
                                cwd=str(ROOT), stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, text=True)
        line = proc.stdout.readline()
        t1 = time.perf_counter()
        try:
            _, err = proc.communicate(timeout=120)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise SystemExit("perfbench: setup probe did not exit")
        if proc.returncode != 0 or line.strip() != "ready":
            raise SystemExit(f"perfbench: setup probe failed ({proc.returncode}): {err}")
        if i:
            times.append(t1 - t0)
    return statistics.median(times)


def run_case(bt, case: cases.Case, out: Path,
             tracer: Optional[spans.Tracer] = None) -> Op:
    argv = list(case.argv) + ["--out", str(out)]
    span = tracer.span(spans.CLI_SPAN, "cli") if tracer else contextlib.nullcontext()
    error = None
    t0 = time.perf_counter()
    try:
        with span, contextlib.redirect_stdout(io.StringIO()):
            code = bt.cli.main(argv)
        if code:
            error = f"exit code {code}"
    except SystemExit as exc:
        if exc.code not in (0, None):
            error = f"exit: {exc.code}"
    except bt.BubbleTowerError as exc:
        error = f"{type(exc).__name__}: {exc}"
    except Exception:            # any other crash is a failed operation, not a crash
        error = traceback.format_exc(limit=3)
    op = Op(case.name, time.perf_counter() - t0, error)
    if error is None:
        try:
            op.result = json.loads((out / case.result_file).read_text())
            op.misses = case.check(op.result)
        except (OSError, ValueError) as exc:
            op.misses = [f"unreadable result: {exc}"]
    op.bytes_written = sum(p.stat().st_size for p in out.rglob("*") if p.is_file())
    shutil.rmtree(out, ignore_errors=True)
    return op


def run_pass(bt, work: cases.Workload, tmp: Path, ops: List[Op],
             tracer: Optional[spans.Tracer] = None) -> float:
    t0 = time.perf_counter()
    for case in work.cases:
        ops.append(run_case(bt, case, tmp / f"op{len(ops)}", tracer))
    return time.perf_counter() - t0


def run_probe(bt, eps: float) -> Probe:
    """find_tower on the predicted k = 2 tower at q = 4, V = -1.

    Known to raise ConvergenceError at the seed commit (every bracket shot
    blows up).  It is timed and reported on its own, outside ``wall_s``.
    """
    params = bt.ModelParams.make(3, 4.0, eps, k=2, potential=bt.PotentialSpec.constant(-1.0))
    tower = bt.predicted_tower(params, bt.energy_constants(3, 4.0))
    t0 = time.perf_counter()
    try:
        shot = bt.find_tower(params, tower)
        failed = not (shot.classification is bt.Classification.DECAYING
                      and shot.peak_count_ef == 2)
        outcome = f"{shot.classification.value} shot with {shot.peak_count_ef} peaks"
    except bt.BubbleTowerError as exc:
        failed, outcome = True, f"{type(exc).__name__}: {str(exc)[:160]}"
    return Probe(time.perf_counter() - t0, failed, outcome)


def output_metrics(ops: List[Op]) -> Dict[str, float]:
    """max|c| over converged reductions and the worst sup_rel, 0 when absent."""
    max_c = [cases.max_abs(op.result["multipliers"]) for op in ops
             if not op.error and "multipliers" in op.result]
    sup = [float(op.result["sup_rel_near_peak"]) for op in ops
           if not op.error and "sup_rel_near_peak" in op.result]
    return {"max_c": max(max_c, default=0.0), "sup_rel": max(sup, default=0.0)}


def per_layer_metrics(tracer: spans.Tracer, ops: List[Op], traced_ops: List[Op],
                      probe: Optional[Probe], overhead_s: float) -> Dict[str, float]:
    """Every PER_LAYER metric: span-derived ones plus the run's own outputs."""
    metrics = spans.layer_metrics(tracer)
    quality = output_metrics(ops)
    metrics.update({
        "reduction.max_c": quality["max_c"],
        "verifier.sup_rel": quality["sup_rel"],
        "verifier.probe_s": probe.seconds if probe else 0.0,
        "verifier.probe_failures": int(probe.failed) if probe else 0,
        "cli.bytes_written": sum(op.bytes_written for op in traced_ops),
        "trace.overhead_s": overhead_s,
    })
    return {name: metrics[name] for name in PER_LAYER}


def summary(result: dict) -> str:
    """The gated quantities of one CLI result, for the readable report."""
    keys = ("sup_rel_near_peak", "max_radial_residual", "slopes")
    out = {k: result[k] for k in keys if k in result}
    if "multipliers" in result:
        out["max_c"] = cases.max_abs(result["multipliers"])
    return json.dumps(out, sort_keys=True)


def report(metrics: Dict[str, float], units: Dict[str, str]) -> List[str]:
    return [f"metric {name} {value!r} {units[name]}" for name, value in metrics.items()]


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(cases.WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if not args.setup_probe and args.workload is None:
        ap.error("--workload is required")
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    bt = load_library()
    if args.setup_probe:
        print("ready", flush=True)
        return 0
    work = cases.build(args.workload, args.seed)
    print("env " + json.dumps(environment(bt), sort_keys=True))
    setup_s = measure_setup(SETUP_PROBES) if not args.trace else None

    OUT.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    ops: List[Op] = []
    try:
        walls = []
        start = time.perf_counter()
        while not walls or time.perf_counter() - start < args.seconds:
            walls.append(run_pass(bt, work, tmp, ops))
            if len(walls) == 1:
                # later passes add only allocator growth, and how many run
                # depends on speed: a faster program must not read as bigger
                peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        probe = run_probe(bt, work.probe_eps) if work.probe_eps else None
        if args.trace:
            tracer = spans.Tracer()
            undo = spans.install(tracer)
            traced_ops: List[Op] = []
            try:
                traced_wall = run_pass(bt, work, tmp, traced_ops, tracer)
            finally:
                spans.uninstall(undo)
            ops += traced_ops
            trace_file = OUT / f"trace-{args.workload}-seed{args.seed}.json"
            trace_file.write_text(json.dumps(tracer.dump()))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    for i, op in enumerate(ops):
        status = "ok" if not op.failed else f"FAILED {op.error or '; '.join(op.misses)}"
        print(f"op {i} {op.case} {op.seconds:.3f} s {status} {summary(op.result)}")
    wall_s = statistics.median(walls)
    failed = sum(op.failed for op in ops)
    quality = output_metrics(ops)
    print(f"passes {len(walls)}: " + " ".join(f"{w:.3f}" for w in walls) + " s")
    print(f"fail_ratio {failed}/{len(ops)} = {failed / len(ops):.4g}")
    print(f"max_c {quality['max_c']:.3g} (gate < {cases.MAX_C:g}, 0 = no reduction)")
    print(f"sup_rel {quality['sup_rel']:.3g} (gate < {cases.MAX_SUP_REL:g}, 0 = no shooting)")
    if probe:
        print(f"probe k=2 find_tower eps={work.probe_eps:.6g}: {probe.seconds:.3f} s, "
              f"{'FAILED' if probe.failed else 'ok'}: {probe.outcome}")

    if args.trace:
        metrics = per_layer_metrics(tracer, ops, traced_ops, probe, traced_wall - wall_s)
        units = {name: unit for name, (unit, _) in PER_LAYER.items()}
        print(f"spans {len(tracer.spans)} written to {trace_file.relative_to(ROOT)}")
    else:
        metrics = {"setup_s": setup_s, "wall_s": wall_s, "peak_rss_mb": peak_rss_mb}
        units = END_TO_END
    for line in report(metrics, units):
        print(line)
    print(json.dumps({
        "correct": failed == 0, "attempted": len(ops), "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
