import argparse
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bubbletower import (ModelParams, PotentialSpec, ReductionConfig, cli,
                         solve_reduced)
from bubbletower.cli import main, parse_potential
from bubbletower.errors import ConvergenceError


def run_cli(args):
    return main(args)


def read_manifest(path: Path):
    return json.loads((path / "manifest.json").read_text())


def run_console(args, **env_vars):
    """The CLI in a fresh interpreter, as a console run: (exit code, stderr lines)."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, **env_vars, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-m", "bubbletower.cli", *args],
                          capture_output=True, text=True, env=env, timeout=120)
    return proc.returncode, proc.stderr.splitlines()


def test_parse_potential_presets():
    c = parse_potential("const:-1.5")
    assert c.v0 == c.v_inf == -1.5
    r = parse_potential("rational:-2,1")
    assert r.v0 == -2.0 and r.v_inf == -1.0
    with pytest.raises(SystemExit):
        parse_potential("gaussian:1")


@pytest.mark.parametrize("spec", ["const:nan", "rational:nan,-1", "const:-inf",
                                  "rational:-1,inf"])
def test_non_finite_potential_is_a_bad_spec(spec, tmp_path):
    # refused with the other bad specs, before any model or solver sees it
    with pytest.raises(SystemExit, match="bad potential spec"):
        run_cli(["reduce", "--q", "4", "--eps", "5e-2", "--V", spec,
                 "--out", str(tmp_path)])
    assert not (tmp_path / "reduce").exists()


def test_constants_outputs_and_determinism(tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert run_cli(["constants", "--q", "4", "--out", str(out_a)]) == 0
    assert run_cli(["constants", "--q", "4", "--out", str(out_b)]) == 0
    csv_a = (out_a / "constants" / "constants.csv").read_text()
    csv_b = (out_b / "constants" / "constants.csv").read_text()
    assert csv_a == csv_b
    lines = csv_a.strip().splitlines()
    assert lines[0] == "constant,value,err"
    values = [float(line.split(",")[1]) for line in lines[1:]]
    assert all(np.isfinite(values))
    # 17 significant digits requested in the format
    assert any(len(line.split(",")[1].replace("-", "").replace(".", "")) >= 16
               for line in lines[1:])
    payload = json.loads((out_a / "constants" / "constants.json").read_text())
    assert payload["values"]["a5_hat"] is None


def test_manifest_captures_config(tmp_path):
    run_cli(["constants", "--q", "7", "--out", str(tmp_path)])
    manifest = read_manifest(tmp_path / "constants")
    assert manifest["config"]["q"] == 7.0
    assert "constants.csv" in manifest["outputs"]
    assert manifest["tool"] == "bubbletower"
    assert manifest["numpy"] == np.__version__
    lapack = np.__config__.CONFIG["Build Dependencies"]["lapack"]
    assert manifest["lapack"] == {"name": lapack["name"], "version": lapack["version"]}
    assert "scipy" not in manifest


def test_predict_writes_tower(tmp_path):
    run_cli(["predict", "--q", "4", "--eps", "1e-2", "--k", "2",
             "--V", "const:-1", "--out", str(tmp_path)])
    payload = json.loads((tmp_path / "predict" / "predict.json").read_text())
    assert len(payload["lambda_star"]) == 2
    assert payload["xi"][1] > payload["xi"][0] > 0
    assert payload["energy"]["total"] == pytest.approx(
        payload["energy"]["leading"] + payload["energy"]["psi_term"]
        + payload["energy"]["a4_term"] + payload["energy"]["log_term"])


def test_predict_rejects_wrong_sign_potential(tmp_path):
    with pytest.raises(SystemExit, match="hypothesis"):
        run_cli(["predict", "--q", "4", "--eps", "1e-2", "--V", "const:1",
                 "--out", str(tmp_path)])


def test_predict_exits_when_eps_is_too_large_for_k(tmp_path):
    # at eps = 0.9 the three spike locations are not increasing from 0
    with pytest.raises(SystemExit, match="prediction failed: .*not increasing"):
        run_cli(["predict", "--q", "4", "--eps", "0.9", "--k", "3",
                 "--out", str(tmp_path)])
    assert not (tmp_path / "predict").exists()


def test_reduce_outputs(tmp_path):
    run_cli(["reduce", "--q", "4", "--eps", "5e-2", "--k", "1",
             "--V", "const:-1", "--h", "0.02", "--out", str(tmp_path)])
    payload = json.loads((tmp_path / "reduce" / "reduction.json").read_text())
    assert payload["converged"] is True
    assert max(abs(c) for c in payload["multipliers"]) < 1e-8
    header = (tmp_path / "reduce" / "profile.csv").read_text().splitlines()[0]
    assert header == "x,ubar,phi,v"


def test_reduce_writes_no_solution_csv(tmp_path):
    # profile.csv holds x and v already; the two-column copy is gone
    run_cli(["reduce", "--q", "4", "--eps", "5e-2", "--k", "1",
             "--V", "const:-1", "--h", "0.05", "--out", str(tmp_path)])
    manifest = read_manifest(tmp_path / "reduce")
    assert manifest["outputs"] == ["profile.csv", "reduction.json"]
    assert not (tmp_path / "reduce" / "solution.csv").exists()


def _per_value_csv(header, table) -> bytes:
    """The reference bytes: every value formatted on its own with %.17g."""
    lines = [",".join(header)] + [",".join("%.17g" % float(v) for v in row)
                                  for row in table]
    return ("\n".join(lines) + "\n").encode()


def test_float_table_matches_per_value_format(tmp_path):
    # the one template per table gives the bytes of a per-value writer,
    # whether the table arrives as an array or as row lists
    rng = np.random.default_rng(3)
    table = rng.normal(size=(200, 4)) * 10.0 ** rng.integers(-300, 300, (200, 4))
    table[0, :3] = (-0.0, 5e-324, 1.7976931348623157e308)
    header = ["x", "a", "b", "c"]
    named = [["a1", 0.5, 1e-13], ["c_n", 3.0 ** 0.25, 0.0]]
    tables = {"a.csv": (header, table.tolist()), "array.csv": (header, table),
              "one.csv": (header, table[:1]), "empty.csv": (header, table[:0]),
              "b.csv": (["name", "v", "e"], named)}
    args = argparse.Namespace(command="tables", out=str(tmp_path))
    cli._write_artifacts(args, {}, tables, {})
    out = tmp_path / "tables"
    for name in ("a.csv", "array.csv"):
        assert (out / name).read_bytes() == _per_value_csv(header, table)
    assert (out / "one.csv").read_bytes() == _per_value_csv(header, table[:1])
    assert (out / "empty.csv").read_bytes() == b"x,a,b,c\n"
    assert (out / "b.csv").read_text().splitlines() == [
        "name,v,e", "a1,0.5,1e-13", f"c_n,{'%.17g' % 3.0 ** 0.25},0"]


def test_reduce_profile_csv_is_the_solved_tower(tmp_path, c4):
    # x, Ubar, phi and Ubar + phi of the solved reduction, each value with
    # %.17g, byte for byte
    run_cli(["reduce", "--q", "4", "--eps", "5e-2", "--k", "1",
             "--V", "const:-1", "--h", "0.05", "--out", str(tmp_path)])
    params = ModelParams.make(3, 4.0, 5e-2, k=1, potential=PotentialSpec.constant(-1.0))
    _, state = solve_reduced(params, c4, ReductionConfig(h=0.05))
    ubar, phi = state.field.ubar.values, state.phi.values
    columns = (state.phi.grid.x, ubar, phi, ubar + phi)
    assert (tmp_path / "reduce" / "profile.csv").read_bytes() \
        == _per_value_csv(["x", "ubar", "phi", "v"], zip(*columns))


def _encoded_csv(header, table) -> bytes:
    """The header line and the array encoder's lines, as the writer joins them."""
    table = np.asarray(table, dtype=float).reshape(-1, len(header))
    return (",".join(header) + "\n").encode() + bytes(cli._float_csv(table, len(header)))


def _bits(patterns) -> np.ndarray:
    return np.array(patterns, dtype=np.uint64).view(np.float64)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 2 ** 64 - 1), min_size=1, max_size=60))
def test_encoder_matches_per_value_format_on_bit_patterns(patterns):
    # every exponent, subnormals, signed zeros, infinities and NaN payloads
    table = _bits(patterns)
    assert _encoded_csv(["v"], table) == _per_value_csv(["v"], table[:, None])


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.floats(), st.floats()), min_size=1, max_size=30))
def test_encoder_matches_per_value_format_on_floats(rows):
    table = np.array(rows)
    assert _encoded_csv(["a", "b"], table) == _per_value_csv(["a", "b"], table)


def test_encoder_matches_per_value_format_at_hard_values():
    # powers of ten and their neighbours, where log10 misjudges the exponent
    # and the product rounds at an end of [1e16, 1e17); integers near 2**53
    # and 10**17, where 17 digits are exact; the extremes and the specials
    tens = 10.0 ** np.arange(-300, 301)
    near = np.concatenate([tens, np.nextafter(tens, 0.0), np.nextafter(tens, np.inf)])
    ints = np.concatenate([2.0 ** 53 + np.arange(-40, 41), 1e17 + 16.0 * np.arange(-40, 41),
                           1e16 + 2.0 * np.arange(-40, 41)])
    specials = [-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                1.7976931348623157e308, np.inf, -np.inf, np.nan, 0.1, 0.5, 1.0]
    values = np.concatenate([near, -near, ints, -ints, specials])
    for width in (1, 3):
        table = values[:values.size // width * width].reshape(-1, width)
        header = [f"c{j}" for j in range(width)]
        assert _encoded_csv(header, table) == _per_value_csv(header, table)


def test_small_float_table_with_specials_writes_the_reference_bytes(tmp_path):
    # a shot.csv-sized table (2 columns, 80 rows) of ordinary values with
    # nan, +-inf, +-0.0 and subnormals mixed in, through the writer and
    # through the encoder itself
    rng = np.random.default_rng(11)
    table = rng.normal(size=(80, 2)) * 10.0 ** rng.integers(-30, 30, (80, 2))
    table.flat[::7] = [np.nan, np.inf, -np.inf, 0.0, -0.0, 5e-324, -1.5e-310,
                       4e-320, 1e-5, -1e-4, 0.001, 1e16, 1e17, 123456789.0,
                       -2.5, 1e300, 7e-300, 0.1, -0.2, 3.0, 1e-280, 9.99e289, 1.2e290][:23]
    header = ["r", "u"]
    assert _encoded_csv(header, table) == _per_value_csv(header, table)
    args = argparse.Namespace(command="tables", out=str(tmp_path))
    cli._write_artifacts(args, {}, {"shot.csv": (header, table)}, {})
    assert (tmp_path / "tables" / "shot.csv").read_bytes() == _per_value_csv(header, table)


def test_writer_encodes_only_float_arrays_of_the_crossover_size(tmp_path, monkeypatch):
    encoded = []
    original = cli._float_csv

    def counted(values, width):
        encoded.append(values.size)
        return original(values, width)

    monkeypatch.setattr(cli, "_float_csv", counted)
    big = np.linspace(-3.0, 3.0, cli._ENCODE_MIN).reshape(-1, 1)
    tables = {"big.csv": (["x"], big), "small.csv": (["x"], big[1:]),
              "rows.csv": (["x"], big.tolist())}
    cli._write_artifacts(argparse.Namespace(command="tables", out=str(tmp_path)),
                         {}, tables, {})
    assert encoded == [cli._ENCODE_MIN]
    for name, rows in (("big.csv", big), ("small.csv", big[1:]), ("rows.csv", big)):
        assert (tmp_path / "tables" / name).read_bytes() == _per_value_csv(["x"], rows)


def test_row_list_tables_keep_their_bytes(tmp_path):
    # constants.csv, with its name column, and sweep.csv go through the
    # % template, one value at a time as %s or %.17g
    run_cli(["constants", "--q", "4", "--out", str(tmp_path)])
    payload = json.loads((tmp_path / "constants" / "constants.json").read_text())
    lines = ["constant,value,err"] + [
        f"{name},{'%.17g' % val},{'%.17g' % payload['err'].get(name, 0.0)}"
        for name, val in payload["values"].items() if val is not None]
    assert (tmp_path / "constants" / "constants.csv").read_text() == "\n".join(lines) + "\n"
    run_cli(["sweep", "--q", "4", "--k", "1", "--eps-list", "1e-2,5e-3", "--h", "0.05",
             "--workers", "2", "--out", str(tmp_path)])
    points = json.loads((tmp_path / "sweep" / "sweep.json").read_text())["points"]
    columns = ["eps", "residual_star", "phi_star", "energy_gap_ratio"]
    assert (tmp_path / "sweep" / "sweep.csv").read_bytes() == _per_value_csv(
        columns, [[p[c] for c in columns] for p in points])


def test_manifest_records_stage_times(tmp_path):
    run_cli(["reduce", "--q", "4", "--eps", "5e-2", "--h", "0.05", "--out", str(tmp_path)])
    manifest = read_manifest(tmp_path / "reduce")
    stages = manifest["stages"]
    assert set(stages) == {"run_s", "tables_s"}
    assert 0.0 < stages["tables_s"] < stages["run_s"] < 60.0
    assert "started" not in manifest["config"]
    # a writer called without main has no command start to measure from
    cli._write_artifacts(argparse.Namespace(command="tables", out=str(tmp_path)),
                         {}, {}, {})
    assert read_manifest(tmp_path / "tables")["stages"]["run_s"] is None


def test_sweep_requires_decreasing_eps(tmp_path):
    with pytest.raises(SystemExit):
        run_cli(["sweep", "--q", "4", "--eps-list", "1e-2",
                 "--out", str(tmp_path)])
    with pytest.raises(SystemExit):
        run_cli(["sweep", "--q", "4", "--eps-list", "1e-3,1e-2",
                 "--out", str(tmp_path)])


@pytest.mark.parametrize("q,k", [(4, 1), (4, 2), (7, 1), (7, 2)],
                         ids=["q4-k1", "q4-k2", "q7-k1", "q7-k2"])
def test_sweep_reports_slopes(q, k, tmp_path):
    # both regimes, one and two spikes; slopes measured 0.83-0.87
    run_cli(["sweep", "--q", str(q), "--k", str(k), "--V", "const:-1",
             "--eps-list", "1e-2,3e-3", "--h", "0.02", "--workers", "2",
             "--out", str(tmp_path)])
    payload = json.loads((tmp_path / "sweep" / "sweep.json").read_text())
    assert set(payload["slopes"]) == {"residual_star", "phi_star",
                                      "energy_gap_ratio"}
    assert len(payload["points"]) == 2
    assert payload["errors"] == {}
    # acceptance criterion 08: both decay at least like sqrt(eps)
    assert payload["slopes"]["residual_star"] >= 0.5
    assert payload["slopes"]["phi_star"] >= 0.5


def test_sweep_determinism(tmp_path):
    args = ["sweep", "--q", "4", "--k", "1", "--V", "const:-1",
            "--eps-list", "1e-2,5e-3", "--h", "0.05", "--workers", "2"]
    run_cli(args + ["--out", str(tmp_path / "a")])
    run_cli(args + ["--out", str(tmp_path / "b")])
    assert (tmp_path / "a" / "sweep" / "sweep.csv").read_text() \
        == (tmp_path / "b" / "sweep" / "sweep.csv").read_text()
    assert (tmp_path / "a" / "sweep" / "sweep.json").read_text() \
        == (tmp_path / "b" / "sweep" / "sweep.json").read_text()


def test_output_root_from_environment(tmp_path, monkeypatch):
    monkeypatch.setenv("BUBBLETOWER_OUT", str(tmp_path / "envroot"))
    run_cli(["constants", "--q", "4"])
    assert (tmp_path / "envroot" / "constants" / "constants.csv").exists()


def test_sweep_point_files_are_distinct_for_close_eps(tmp_path):
    # 1.0000001e-2 and 1e-2 agree to 6 significant digits; each point still
    # gets its own file, and the manifest lists every output once
    run_cli(["sweep", "--q", "4", "--k", "1", "--V", "const:-1",
             "--eps-list", "1.0000001e-2,1e-2,5e-3", "--h", "0.05",
             "--out", str(tmp_path)])
    out = tmp_path / "sweep"
    points = sorted(p.name for p in out.glob("point_*.json"))
    assert points == ["point_0.005.json", "point_0.01.json",
                      "point_0.010000001.json"]
    close = json.loads((out / "point_0.010000001.json").read_text())
    assert close["eps"] == 1.0000001e-2
    outputs = read_manifest(out)["outputs"]
    assert len(outputs) == len(set(outputs))
    assert set(points) <= set(outputs)


def test_sweep_records_per_point_failures(tmp_path):
    # second epsilon is fine, first one violates the spike window for k=2
    assert run_cli(["sweep", "--q", "4", "--k", "2", "--V", "const:-1",
                    "--eps-list", "0.9,1e-2", "--h", "0.05",
                    "--out", str(tmp_path)]) == 0
    payload = json.loads((tmp_path / "sweep" / "sweep.json").read_text())
    assert len(payload["points"]) == 1
    assert "0.9" in payload["errors"]


def test_sweep_with_no_surviving_point_exits_nonzero(tmp_path):
    # both epsilons violate the spike window for k=2; the report is still
    # written, but a script must be able to tell the sweep failed
    assert run_cli(["sweep", "--q", "4", "--k", "2", "--V", "const:-1",
                    "--eps-list", "0.9,0.8", "--h", "0.05",
                    "--out", str(tmp_path)]) != 0
    payload = json.loads((tmp_path / "sweep" / "sweep.json").read_text())
    assert payload["points"] == []
    assert set(payload["errors"]) == {"0.9", "0.8"}


def test_sweep_lets_programming_errors_through(tmp_path, monkeypatch):
    # a point records model and solver failures, not a bug in the code
    def broken_point(params, constants, config):
        raise TypeError("unsupported operand")

    monkeypatch.setattr(cli, "sweep_point", broken_point)
    with pytest.raises(TypeError, match="unsupported operand"):
        run_cli(["sweep", "--q", "4", "--eps-list", "1e-2,5e-3",
                 "--out", str(tmp_path)])
    assert not (tmp_path / "sweep").exists()


def test_sweep_with_non_finite_metric_writes_no_report(tmp_path, monkeypatch):
    # a NaN would reach sweep.json as a literal NaN, which is not JSON
    def nan_point(params, constants, config):
        return {"eps": params.epsilon, "residual_star": float("nan"),
                "phi_star": 1.0, "energy_gap_ratio": 1.0}

    monkeypatch.setattr(cli, "sweep_point", nan_point)
    with pytest.raises(SystemExit, match="non-finite") as info:
        run_cli(["sweep", "--q", "4", "--eps-list", "1e-2,5e-3",
                 "--out", str(tmp_path)])
    assert info.value.code not in (0, None)
    assert not (tmp_path / "sweep" / "sweep.json").exists()


def test_verify_pipeline_outputs(tmp_path):
    run_cli(["verify", "--q", "4", "--eps", "5e-2", "--k", "1",
             "--V", "const:-1", "--h", "0.02", "--out", str(tmp_path)])
    payload = json.loads((tmp_path / "verify" / "verify.json").read_text())
    assert payload["classification"] == "decaying"
    assert payload["ef_peaks"] == 1
    assert payload["sup_rel_near_peak"] < 0.2
    shot_header = (tmp_path / "verify" / "shot.csv").read_text().splitlines()[0]
    assert shot_header == "r,u"


@pytest.mark.parametrize("k,eps,h", [(2, "0.01", "0.02"), (3, "0.01", "0.03")])
def test_benchmark_reduce_cases_raise_no_warning(k, eps, h, tmp_path):
    # the tower benchmark's cases: their solved spikes stay inside the window
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_cli(["reduce", "--N", "3", "--q", "4", "--V", "const:-1", "--k", str(k),
                        "--eps", eps, "--h", h, "--out", str(tmp_path)]) == 0


def test_impossible_grid_is_refused_before_allocation(tmp_path):
    # 66 units of line at h = 1e-6 ask for 6.6e7 nodes (500 MB per array);
    # the grid refuses them before numpy allocates
    tiny_h = ["--q", "4", "--h", "1e-6", "--out", str(tmp_path)]
    with pytest.raises(SystemExit, match="^reduction failed: grid of 6.6e\\+07 nodes "
                                         "above the ceiling"):
        run_cli(["reduce", "--eps", "1e-2", *tiny_h])
    assert run_cli(["sweep", "--eps-list", "1e-2,5e-3", *tiny_h]) == 1
    errors = json.loads((tmp_path / "sweep" / "sweep.json").read_text())["errors"]
    assert set(errors) == {"0.01", "0.005"}
    assert all(e.startswith("ValueError: grid of 6.6e+07 nodes") for e in errors.values())
    # sigma = 1e-7 just above p^s = 3 weighs only the star norm: the grid
    # keeps its 66 units, where a window of 10/sigma asked for 1e10 nodes
    assert run_cli(["reduce", "--q", "3.0000001", "--eps", "1e-2", "--out", str(tmp_path)]) == 0
    payload = json.loads((tmp_path / "reduce" / "reduction.json").read_text())
    assert payload["converged"] and payload["grid"]["n"] == 3301
    assert payload["star_norm_phi"] == pytest.approx(0.00825, rel=1e-3)


def test_overflowing_critical_scale_exits_with_one_line(tmp_path):
    # at exponent gap 5e-3 Lambda_1* = (...)^(1/gap) overflows a float: the
    # console run ends in one line, and a sweep records each point
    assert run_console(["predict", "--q", "4.995", "--eps", "1e-2", "--out", str(tmp_path)]) \
        == (1, ["prediction failed: Lambda_1* overflows at exponent gap 0.005"])
    assert run_cli(["sweep", "--q", "4.995", "--eps-list", "1e-2,5e-3",
                    "--out", str(tmp_path)]) == 1
    errors = json.loads((tmp_path / "sweep" / "sweep.json").read_text())["errors"]
    assert set(errors) == {"0.01", "0.005"}
    assert all(e.startswith("WindowViolationError: Lambda_1* overflows")
               for e in errors.values())


def test_constants_overflow_exits_with_one_line(tmp_path):
    # at N = 34 the a2 integrand overflows math.exp; the console run ends
    # in the CLI's one-line message, not in a traceback
    assert run_console(["constants", "--N", "34", "--q", "1.2", "--out", str(tmp_path)]) \
        == (1, ["energy constants failed: integrand overflowed: math range error"])
    assert not (tmp_path / "constants").exists()


def test_small_gap_tower_reduces_with_every_warning_an_error(tmp_path):
    # at exponent gap 0.02 the solved spikes drift 19-21 units past the
    # closed-form ones; the grid follows them, so the console run ends
    # with nothing on stderr
    args = ["reduce", "--q", "4.98", "--k", "2", "--eps", "1e-2", "--h", "0.03",
            "--out", str(tmp_path)]
    assert run_console(args, PYTHONWARNINGS="error") == (0, [])
    assert json.loads((tmp_path / "reduce" / "reduction.json").read_text())["converged"]


@pytest.mark.parametrize("q", ["27", "30", "40"])
def test_large_exponent_gaps_reduce_and_sweep(q, tmp_path):
    # N = 3, exponent gap 22 to 35: the potential weight passes exp's range
    # at the grid's left end unless clipped; with warnings as errors both
    # commands converge
    model = ["--q", q, "--k", "2", "--h", "0.03", "--out", str(tmp_path)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_cli(["reduce", "--eps", "1e-2", *model]) == 0
        assert run_cli(["sweep", "--eps-list", "1e-2,5e-3", "--workers", "1", *model]) == 0
    reduced = json.loads((tmp_path / "reduce" / "reduction.json").read_text())
    assert reduced["converged"] and max(map(abs, reduced["multipliers"])) < 1e-10
    swept = json.loads((tmp_path / "sweep" / "sweep.json").read_text())
    assert not swept["errors"] and len(swept["points"]) == 2


@pytest.mark.parametrize("command", ["reduce", "verify"])
def test_reduction_failure_exits_the_same_way(command, tmp_path, monkeypatch):
    # reduce and verify share one reduction step and its failure message
    def failing(params, constants, config):
        raise ConvergenceError("outer solve stalled")

    monkeypatch.setattr(cli, "solve_reduced", failing)
    with pytest.raises(SystemExit, match="^reduction failed: outer solve stalled"):
        run_cli([command, "--q", "4", "--eps", "5e-2", "--out", str(tmp_path)])
    assert not (tmp_path / command).exists()


@pytest.mark.parametrize("failure", [ValueError("bad value"), UserWarning("noted")],
                         ids=["ValueError", "UserWarning"])
def test_library_failures_end_every_command_the_same_way(failure, tmp_path, monkeypatch):
    # predict, verify and a sweep point catch one set of library failures:
    # typed errors, ValueErrors and Warnings that the filters made errors
    def failing(*args):
        raise failure

    for name in ("predicted_tower", "find_tower", "sweep_point"):
        monkeypatch.setattr(cli, name, failing)
    for argv, prefix in ((["predict"], "prediction"),
                         (["verify", "--h", "0.05"], "verification")):
        with pytest.raises(SystemExit, match=f"^{prefix} failed: {failure}$"):
            run_cli(argv + ["--q", "4", "--eps", "5e-2", "--out", str(tmp_path)])
        assert not (tmp_path / argv[0]).exists()
    assert run_cli(["sweep", "--q", "4", "--eps-list", "1e-2,5e-3", "--workers", "1",
                    "--out", str(tmp_path)]) == 1
    errors = json.loads((tmp_path / "sweep" / "sweep.json").read_text())["errors"]
    assert errors == {eps: f"{type(failure).__name__}: {failure}" for eps in ("0.01", "0.005")}


@pytest.mark.parametrize("warnings_filter", [None, "error"], ids=["default", "error"])
@pytest.mark.parametrize("model", [
    ["--q", "4", "--k", "2", "--eps", "1e-200"],
    ["--N", "10", "--q", "1.3", "--k", "2", "--eps", "1e-60"],
    ["--q", "4", "--k", "1", "--eps", "1e-300"],
    ["--q", "7", "--k", "2", "--eps", "1e-150"],
], ids=["q4-k2", "n10-k2", "q4-k1-r0", "q7-k2"])
def test_verify_beyond_float_range_exits_with_one_line(model, warnings_filter, tmp_path):
    # the seed tower's heights (concentrating), its start radius, or a flat
    # shot's radii pass a float's range: find_tower refuses the seed before
    # any shot, so numpy never warns and the console shows one line
    env = {"PYTHONWARNINGS": warnings_filter} if warnings_filter else {}
    code, lines = run_console(["verify", *model, "--h", "0.05", "--out", str(tmp_path)],
                              **env)
    assert code == 1 and len(lines) == 1, lines
    assert lines[0].startswith("verification failed: seed "), lines
    assert "beyond float range" in lines[0]
    assert not (tmp_path / "verify").exists()


_FOOTPRINT_SCRIPT = """
import json, sys
from bubbletower import cli
out = sys.argv[1]
for argv in (["constants", "--q", "4"],
             ["predict", "--q", "4", "--eps", "1e-2", "--k", "2"],
             ["reduce", "--q", "4", "--eps", "5e-2", "--k", "1", "--h", "0.05"],
             ["sweep", "--q", "4", "--eps-list", "1e-2,5e-3", "--h", "0.05"]):
    assert cli.main(argv + ["--out", out]) == 0
assert cli.main(["verify", "--q", "4", "--eps", "5e-2", "--k", "1", "--out", out]) == 0
print(json.dumps(sorted(name for name in sys.modules
                        if name == "scipy" or name.startswith("scipy."))))
"""


def test_model_commands_import_no_scipy(tmp_path):
    # a fresh interpreter: constants, predict, reduce, sweep and verify
    # load no scipy module
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", _FOOTPRINT_SCRIPT, str(tmp_path)],
                          capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == []
    payload = json.loads((tmp_path / "verify" / "verify.json").read_text())
    assert payload["classification"] == "decaying"
    assert payload["ef_peaks"] == 1


@pytest.mark.parametrize("n_dim,q,k,eps,h,pot,max_sup", [
    # V(0) = V(inf) = -1 but a non-constant V in between
    (3, 7, 1, "5e-2", "0.02", "rational:-0.5,-0.5", 0.2),
    # a two-spike flat tower; sup_rel measured 6.8e-5
    (3, 7, 2, "1e-2", "0.02", "const:-1", 1e-3),
    # V(0) > 0 > V(inf): overshooting shots blow up; sup_rel measured 1.7e-5
    (3, 7, 1, "5e-2", "0.01", "rational:1,-2", 1e-3),
    # q above p* = (N+2)/(N-2) in N = 4, 5, 6; sup_rel measured 2.0-4.1e-5
    (4, 5, 1, "5e-2", "0.02", "const:-1", 1e-3),
    (4, 5, 2, "1e-2", "0.02", "const:-1", 1e-3),
    (5, 4, 1, "5e-2", "0.02", "const:-1", 1e-3),
    (5, 4, 2, "1e-2", "0.02", "const:-1", 1e-3),
    (6, 3, 1, "5e-2", "0.02", "const:-1", 1e-3),
    (6, 3, 2, "1e-2", "0.02", "const:-1", 1e-3),
    # the N = 3 flat tower of the README's example; sup_rel measured 1.7e-5
    (3, 7, 1, "5e-2", "0.01", "const:-1", 1e-3),
    # N = 9 and 10, whose closed-form spikes lie beyond the outer bound
    # (1/gap + k - 1) log(1/eps) + k log 10 of an a-priori window
    (9, 2.0, 2, "1e-2", "0.02", "const:-1", 1e-3),
    (10, 1.9, 1, "1e-2", "0.02", "const:-1", 1e-3),
    (10, 1.9, 2, "1e-2", "0.02", "const:-1", 1e-3),
], ids=["k1-rational", "k2-const", "k1-v0-positive",
        "N4-k1", "N4-k2", "N5-k1", "N5-k2", "N6-k1", "N6-k2", "k1-const",
        "N9-k2", "N10-k1", "N10-k2"])
def test_verify_flat_regime(n_dim, q, k, eps, h, pot, max_sup, tmp_path):
    run_cli(["verify", "--N", str(n_dim), "--q", str(q), "--k", str(k), "--V", pot,
             "--eps", eps, "--h", h, "--out", str(tmp_path)])
    payload = json.loads((tmp_path / "verify" / "verify.json").read_text())
    assert payload["classification"] == "decaying"
    assert payload["ef_peaks"] == k
    assert payload["sup_rel_near_peak"] < max_sup
    # on [xi_1 - 2, xi_k + 2]; the same window as near_peak at k = 1
    assert payload["sup_rel_tower"] < max_sup
    assert max(abs(c) for c in payload["multipliers"]) < 1e-8


_CONCENTRATING_GRID = [(n_dim, q, k, eps, "0.02", "const:-1", 1e-2 if n_dim == 3 else 1e-3)
                       for n_dim, q in ((3, "4"), (4, "2.5"), (5, "2"), (6, "1.8"))
                       for k in (1, 2) for eps in ("5e-2", "1e-2")]


@pytest.mark.parametrize("n_dim,q,k,eps,h,pot,max_sup", [
    # tower heights where a fixed series start r0 = 1e-6 lay far outside
    # the spike core
    (3, "4", 2, "3e-2", "0.01", "const:-1", 1e-2),
    (3, "4", 3, "1e-2", "0.02", "const:-1", 1e-2),
    # V(0) = -1 < 0 < V(inf) = 1: only the concentrating hypothesis holds
    (3, "4", 1, "5e-2", "0.01", "rational:-1,2", 0.2),
    # N = 3-6 inside N/(N-2) < q < p*, seeded from the solved tower
    *_CONCENTRATING_GRID,
    # exponent gap p* - q = 0.2 (the other gap case, N = 6, q = 1.8, k = 1,
    # eps = 5e-2, is in the grid)
    (3, "4.8", 1, "1e-2", "0.03", "const:-1", 1e-3),
], ids=["2-3e-2-0.01-const:-1-0.01", "3-1e-2-0.02-const:-1-0.01",
        "1-5e-2-0.01-rational:-1,2-0.2",
        *(f"N{n}-q{q}-k{k}-{eps}" for n, q, k, eps, *_ in _CONCENTRATING_GRID),
        "gap-N3-q4.8-k1-1e-2"])
def test_verify_concentrating(n_dim, q, k, eps, h, pot, max_sup, tmp_path):
    run_cli(["verify", "--N", str(n_dim), "--q", q, "--k", str(k), "--V", pot,
             "--eps", eps, "--h", h, "--out", str(tmp_path)])
    payload = json.loads((tmp_path / "verify" / "verify.json").read_text())
    assert payload["classification"] == "decaying"
    assert payload["ef_peaks"] == k
    assert payload["sup_rel_near_peak"] < max_sup
    assert payload["sup_rel_tower"] < max_sup
    assert max(abs(c) for c in payload["multipliers"]) < 1e-8


def test_verify_n8_searches_on_the_search_value(tmp_path, monkeypatch):
    # N = 8, q = 1.5, k = 2: Brent's bracket read from g alone closes in at
    # most 16 shots (25 when it was rebuilt from the shots' labels)
    import bubbletower.verifier as verifier_module
    heights = []
    original = verifier_module.shoot

    def recorded(height, params):
        heights.append(height)
        return original(height, params)

    monkeypatch.setattr(verifier_module, "shoot", recorded)
    run_cli(["verify", "--N", "8", "--q", "1.5", "--k", "2", "--eps", "1e-2",
             "--h", "0.02", "--out", str(tmp_path)])
    payload = json.loads((tmp_path / "verify" / "verify.json").read_text())
    assert payload["classification"] == "decaying"
    assert payload["ef_peaks"] == 2
    assert len(heights) <= 16


@pytest.mark.parametrize("argv", [
    ["reduce", "--q", "4", "--eps", "5e-2", "--h", "0"],
    ["reduce", "--q", "4", "--eps", "5e-2", "--h", "-0.01"],
    ["reduce", "--q", "4", "--eps", "1.5"],
    ["verify", "--q", "4", "--eps", "nan"],
    ["predict", "--q", "4", "--eps", "0"],
    ["sweep", "--q", "4", "--eps-list", "1e-2,5e-3", "--workers", "0"],
    ["sweep", "--q", "4", "--eps-list", "1e-2,abc"],
    ["sweep", "--q", "4", "--eps-list", "1e-2,2e-2"],
    ["sweep", "--q", "4", "--eps-list", "1.5,1e-2"],
    # --tol and --config are not flags: argparse refuses them
    ["constants", "--q", "4", "--tol", "0"],
    ["constants", "--N", "2", "--q", "4"],
    ["constants", "--q", "1"],
    ["constants", "--q", "5"],
    ["verify", "--q", "4", "--eps", "5e-2", "--tol", "-1"],
    ["reduce", "--q", "4", "--eps", "5e-2", "--tol", "nan"],
    ["predict", "--N", "2", "--q", "4", "--eps", "1e-2"],
    ["reduce", "--q", "1", "--eps", "5e-2"],
    ["sweep", "--q", "1", "--eps-list", "1e-2,5e-3"],
    ["sweep", "--q", "4", "--k", "0", "--eps-list", "1e-2,5e-3"],
    ["sweep", "--q", "4", "--eps-list", "1e-2,5e-3", "--V", "gaussian:1"],
    ["constants", "--q", "inf"],
    ["constants", "--q", "nan"],
    ["verify", "--q", "inf", "--eps", "5e-2"],
    ["sweep", "--q", "-inf", "--eps-list", "1e-2,5e-3"],
    ["reduce", "--config", "nofile.cfg", "--eps", "5e-2"],
    ["reduce", "--q", "4", "--eps", "5e-2", "--h", "inf"],
    ["sweep", "--q", "4", "--eps-list", "1e-2,5e-3", "--h", "inf"],
    ["reduce", "--q", "4", "--eps", "5e-2", "--h", "1e3"],
    ["verify", "--q", "4", "--eps", "5e-2", "--h", "1e3"],
])
def test_bad_grid_and_run_arguments_exit_at_parse_time(argv, tmp_path):
    with pytest.raises(SystemExit):
        run_cli(argv + ["--out", str(tmp_path)])
    assert not (tmp_path / argv[0]).exists()


def _built_parser(monkeypatch):
    """The parser main parses with, caught as main calls parse_args."""
    class Caught(Exception):
        pass

    def catch(self, args=None, namespace=None):
        raise Caught(self)

    with monkeypatch.context() as patched, pytest.raises(Caught) as info:
        patched.setattr(argparse.ArgumentParser, "parse_args", catch)
        main(["constants"])
    return info.value.args[0]


_OUT = ("--out", "out", None, False, "str")
_MODEL = {_OUT, ("--N", "N", 3, False, "int"), ("--q", "q", None, True, "float"),
          ("--k", "k", 1, False, "int"), ("--V", "V", "const:-1", False, "str")}
_EPS = ("--eps", "eps", None, True, "float")
_H = ("--h", "h", 0.02, False, "float")


def test_parser_pins_every_flag(monkeypatch):
    # each subcommand's (option, dest, default, required, type name); the
    # dests are the manifest's config keys
    parser = _built_parser(monkeypatch)
    assert parser.prog == "bubbletower"
    sub, = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    assert sub.dest == "command" and sub.required
    flags = {name: {(s, a.dest, a.default, a.required, getattr(a.type, "__name__", None))
                    for a in sp._actions if a.dest != "help" for s in a.option_strings}
             for name, sp in sub.choices.items()}
    assert flags == {
        "constants": {_OUT, ("--N", "N", 3, False, "int"), ("--q", "q", None, True, "float")},
        "predict": _MODEL | {_EPS},
        "reduce": _MODEL | {_EPS, _H},
        "verify": _MODEL | {_EPS, _H},
        "sweep": _MODEL | {_H, ("--eps-list", "eps_list", None, True, "_eps_list"),
                           ("--workers", "workers", 4, False, "int")},
    }


def test_main_builds_one_parser_per_process(tmp_path, monkeypatch):
    # the root and its five subcommands, once for any number of main calls
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    cli._parser.cache_clear()
    for _ in range(2):
        assert run_cli(["constants", "--q", "4", "--out", str(tmp_path)]) == 0
    assert sorted(built) == ["bubbletower", *(f"bubbletower {name}" for name in sorted(
        ("constants", "predict", "reduce", "verify", "sweep")))]


_IMPORT_SCRIPT = """
import argparse
built = []
init = argparse.ArgumentParser.__init__

def counted(self, *args, **kwargs):
    built.append(kwargs.get("prog"))
    init(self, *args, **kwargs)

argparse.ArgumentParser.__init__ = counted
import bubbletower.cli
print(len(built))
"""


def test_import_builds_no_parser():
    # a fresh interpreter: importing the CLI constructs no ArgumentParser
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", _IMPORT_SCRIPT], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0"]


@pytest.mark.parametrize("command", [[], ["constants"], ["predict"], ["reduce"],
                                     ["verify"], ["sweep"]],
                         ids=["root", "constants", "predict", "reduce", "verify", "sweep"])
def test_help_exits_zero(command, capsys):
    with pytest.raises(SystemExit) as info:
        run_cli([*command, "--help"])
    assert info.value.code == 0
    assert capsys.readouterr().out.startswith(" ".join(["usage: bubbletower", *command]))


def test_unwritable_output_ends_in_one_line(tmp_path):
    # --out names a file, so the command's directory cannot be made; and a
    # directory in place of a table cannot be opened for writing
    blocker = tmp_path / "file"
    blocker.write_text("")
    taken = tmp_path / "taken"
    (taken / "constants" / "constants.csv").mkdir(parents=True)
    for out in (blocker, taken):
        argv = ["constants", "--q", "4", "--out", str(out)]
        with pytest.raises(SystemExit, match="^cannot write artifacts: ") as info:
            run_cli(argv)
        assert info.value.code != 0
        code, lines = run_console(argv)
        assert code == 1 and len(lines) == 1, lines
        assert lines[0].startswith("cannot write artifacts: ")
    assert blocker.read_text() == ""


def test_readme_flag_tables_match_the_parser(monkeypatch):
    # each command's README table lists its flags in --help order, and says
    # "required" exactly where the parser requires the flag
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text().splitlines()
    sub, = (a for a in _built_parser(monkeypatch)._actions
            if isinstance(a, argparse._SubParsersAction))
    for name, sp in sub.choices.items():
        start = readme.index(f"| `{name}` flag | value | default |") + 2
        rows = [line.split(" | ") for line in readme[start:readme.index("", start)]]
        assert [(row[0].strip("|` "), row[-1].strip("| ") == "required") for row in rows] \
            == [(a.option_strings[0], a.required) for a in sp._actions if a.dest != "help"]
