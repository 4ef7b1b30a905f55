"""Self-tests of the benchmark: gates, metric names, tracing and seeding.

Run from the repository root:  python3 -m pytest -q perfbench
"""

import json
import re
import sys
import threading
import types
from pathlib import Path

import pytest

import cases
import run
import spans

BENCH = json.loads((run.ROOT / "BENCHMARK.json").read_text())
GOOD_REDUCE = {"converged": True, "multipliers": [1e-11, -3e-12]}
GOOD_VERIFY = {"classification": "decaying", "ef_peaks": 1, "sup_rel_near_peak": 7e-4,
               "multipliers": [5e-11], "max_radial_residual": 6e-5}
GOOD_SWEEP = {"errors": {}, "points": [{}] * 6,
              "slopes": {"residual_star": 0.82, "phi_star": 0.84, "energy_gap_ratio": -0.07}}


def test_good_results_pass_their_gates():
    assert cases.check_reduce(GOOD_REDUCE) == []
    assert cases.check_verify(GOOD_VERIFY) == []
    assert cases.check_sweep(GOOD_SWEEP, 6) == []


@pytest.mark.parametrize("check,good,change", [
    (cases.check_reduce, GOOD_REDUCE, {"multipliers": [1e-6]}),
    (cases.check_reduce, GOOD_REDUCE, {"converged": False}),
    (cases.check_verify, GOOD_VERIFY, {"multipliers": [1e-6]}),
    (cases.check_verify, GOOD_VERIFY, {"classification": "crossing"}),
    (cases.check_verify, GOOD_VERIFY, {"ef_peaks": 2}),
    (cases.check_verify, GOOD_VERIFY, {"sup_rel_near_peak": 0.3}),
    (cases.check_verify, GOOD_VERIFY, {"max_radial_residual": 1e-2}),
    (cases.check_verify, GOOD_VERIFY, {"max_radial_residual": float("nan")}),
    (lambda r: cases.check_sweep(r, 6), GOOD_SWEEP, {"errors": {"0.01": "ConvergenceError"}}),
    (lambda r: cases.check_sweep(r, 6), GOOD_SWEEP, {"points": [{}] * 5}),
    (lambda r: cases.check_sweep(r, 6), GOOD_SWEEP,
     {"slopes": {"residual_star": 0.3, "phi_star": 0.84}}),
])
def test_corrupted_result_misses_its_gate(check, good, change):
    assert check({**good, **change})


def _fake_library(write_result=None, raise_exc=None):
    """A stand-in for the bubbletower package whose CLI writes a chosen result."""
    class FakeError(Exception):
        pass

    def main(argv):
        out = Path(argv[argv.index("--out") + 1]) / "verify"
        out.mkdir(parents=True)
        if raise_exc is not None:
            raise raise_exc
        (out / "verify.json").write_text(json.dumps(write_result))
        return 0

    return types.SimpleNamespace(cli=types.SimpleNamespace(main=main),
                                 BubbleTowerError=FakeError)


@pytest.mark.parametrize("result,exc", [
    ({**GOOD_VERIFY, "multipliers": [1e-6]}, None),
    ({**GOOD_VERIFY, "classification": "crossing"}, None),
    (None, SystemExit("verification failed: no crossing")),
    (None, ValueError("unexpected")),
])
def test_failed_operation_is_counted(tmp_path, result, exc):
    case = cases.build("verify", 0).cases[0]
    op = run.run_case(_fake_library(result, exc), case, tmp_path / "op0")
    assert op.failed
    assert not (tmp_path / "op0").exists()


def test_passing_operation_is_not_counted(tmp_path):
    case = cases.build("verify", 0).cases[0]
    op = run.run_case(_fake_library(GOOD_VERIFY), case, tmp_path / "op0")
    assert not op.failed and op.bytes_written > 0


def test_metric_tables_match_benchmark_json():
    e2e = {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
    assert e2e == run.END_TO_END
    assert all(m["better"] == "lower" and 0 < m["bound"] <= 0.25 for m in BENCH["end_to_end"])
    setup = [m for m in BENCH["end_to_end"] if m["name"] == "setup_s"][0]
    assert setup["bound"] == max(m["bound"] for m in BENCH["end_to_end"])
    layer = {m["name"]: (m["unit"], m["better"]) for m in BENCH["per_layer"]}
    assert layer == run.PER_LAYER


def test_printed_metrics_match_benchmark_json():
    declared = {m["name"]: m["unit"] for m in BENCH["end_to_end"] + BENCH["per_layer"]}
    metrics = run.per_layer_metrics(spans.Tracer(), [], [], None, 0.0)
    assert list(metrics) == list(run.PER_LAYER)
    units = {n: u for n, (u, _) in run.PER_LAYER.items()}
    e2e = {"setup_s": 0.8, "wall_s": 20.0, "peak_rss_mb": 120.0}
    for line in run.report(metrics, units) + run.report(e2e, run.END_TO_END):
        _, name, value, unit = line.split()
        assert declared[name] == unit
        float(value)


def test_benchmark_json_records_workloads_and_layer_mapping():
    assert {w["name"]: w["why"] for w in BENCH["workloads"]} == cases.WORKLOADS
    assert all(0 < len(w["why"]) <= 200 for w in BENCH["workloads"])
    readme = (run.HERE / "README.md").read_text()
    mapped = set(re.findall(r"^\| `([a-z_.]+)` \|", readme, flags=re.M))
    assert set(run.PER_LAYER) <= mapped
    assert set(run.END_TO_END) <= mapped
    assert BENCH["command"] == ["python3", "perfbench/run.py"]
    assert BENCH["paths"] == ["perfbench"]


def test_seed_zero_is_nominal_and_other_seeds_jitter_within_ten_percent():
    def eps_of(work):
        out = []
        for case in work.cases:
            argv = list(case.argv)
            key = "--eps" if "--eps" in argv else "--eps-list"
            out += [float(t) for t in argv[argv.index(key) + 1].split(",")]
        return out + ([work.probe_eps] if work.probe_eps else [])

    nominal = {"tower": [1e-2, 1e-2], "verify": [5e-2, 2e-2, 3e-2],
               "sweep": list(cases.SWEEP_EPS) * 2}
    for name in cases.WORKLOADS:
        assert eps_of(cases.build(name, 0)) == nominal[name]
        jittered = eps_of(cases.build(name, 7))
        assert jittered == eps_of(cases.build(name, 7))
        assert jittered != nominal[name]
        assert all(0.9 <= j / n <= 1.1 for j, n in zip(jittered, nominal[name]))


def test_self_time_subtracts_the_union_of_children():
    s = [spans.Span(1, "cli.main", "cli", 0.0, 10.0, None, "main"),
         spans.Span(2, "a", "field", 1.0, 4.0, 1, "t1"),
         spans.Span(3, "b", "field", 3.0, 6.0, 1, "t2"),
         spans.Span(4, "c", "field", 2.0, 3.0, 2, "t1")]
    own = spans.self_times(s)
    assert own == {1: 5.0, 2: 2.0, 3: 3.0, 4: 1.0}


def test_tracer_is_thread_safe_under_contention():
    tracer = spans.Tracer()
    n_threads, per_thread = 6, 400
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with tracer.span(spans.CLI_SPAN, "cli"):
            def work():
                for _ in range(per_thread):
                    with tracer.span("field.star_norm", "field"):
                        tracer.add("picard_iters")
            threads = [threading.Thread(target=work) for _ in range(n_threads)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(old)
    assert len(tracer.spans) == n_threads * per_thread + 1
    assert len({s.id for s in tracer.spans}) == len(tracer.spans)
    root = [s for s in tracer.spans if s.name == spans.CLI_SPAN][0]
    assert all(s.parent == root.id for s in tracer.spans if s is not root)
    assert tracer.counts["picard_iters"] == n_threads * per_thread


def test_install_wraps_every_reference_and_uninstall_restores():
    bt = run.load_library()
    originals = (bt.cli.tower_ansatz, bt.reduction.tower_ansatz,
                 bt.ProjectedSolver.__init__, bt.verifier.solve_ivp)
    tracer = spans.Tracer()
    undo = spans.install(tracer)
    try:
        assert bt.cli.tower_ansatz is bt.reduction.tower_ansatz is bt.field.tower_ansatz
        assert bt.cli.tower_ansatz is not originals[0]
        with tracer.span(spans.CLI_SPAN, "cli"):
            bt.cli.energy_constants(3, 4.0)
    finally:
        spans.uninstall(undo)
    assert (bt.cli.tower_ansatz, bt.reduction.tower_ansatz,
            bt.ProjectedSolver.__init__, bt.verifier.solve_ivp) == originals
    metrics = spans.layer_metrics(tracer)
    assert metrics["quadrature.constants_calls"] == 1
    assert metrics["quadrature.integrand_evals"] > 1000
    assert 0.0 < metrics["cli.busy_ratio"] <= 1.0
