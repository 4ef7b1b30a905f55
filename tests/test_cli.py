import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from bubbletower import cli
from bubbletower.cli import main, parse_potential


def run_cli(args):
    return main(args)


def read_manifest(path: Path):
    return json.loads((path / "manifest.json").read_text())


def test_parse_potential_presets():
    c = parse_potential("const:-1.5")
    assert c.v0 == c.v_inf == -1.5
    r = parse_potential("rational:-2,1")
    assert r.v0 == -2.0 and r.v_inf == -1.0
    with pytest.raises(SystemExit):
        parse_potential("gaussian:1")


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


def test_float_table_matches_per_value_format(tmp_path):
    # the one row template per table gives the bytes of a per-value writer
    def _fmt(x) -> str:
        return "%.17g" % float(x)

    rng = np.random.default_rng(3)
    table = rng.normal(size=(200, 4)) * 10.0 ** rng.integers(-300, 300, (200, 4))
    table[0, :3] = (-0.0, 5e-324, 1.7976931348623157e308)
    header = ["x", "a", "b", "c"]
    named = [["a1", 0.5, 1e-13], ["c_n", 3.0 ** 0.25, 0.0]]
    args = argparse.Namespace(command="tables", out=str(tmp_path))
    cli._write_artifacts(args, {}, {"a.csv": (header, table.tolist()),
                                    "b.csv": (["name", "v", "e"], named)}, {})
    expected = [",".join(header)] + [",".join(_fmt(v) for v in row) for row in table]
    assert (tmp_path / "tables" / "a.csv").read_bytes() \
        == ("\n".join(expected) + "\n").encode()
    assert (tmp_path / "tables" / "b.csv").read_text().splitlines() == [
        "name,v,e", "a1,0.5,1e-13", f"c_n,{_fmt(3.0 ** 0.25)},0"]


def test_sweep_requires_decreasing_eps(tmp_path):
    with pytest.raises(SystemExit):
        run_cli(["sweep", "--q", "4", "--eps-list", "1e-2",
                 "--out", str(tmp_path)])
    with pytest.raises(SystemExit):
        run_cli(["sweep", "--q", "4", "--eps-list", "1e-3,1e-2",
                 "--out", str(tmp_path)])


def test_sweep_reports_slopes(tmp_path):
    run_cli(["sweep", "--q", "4", "--k", "1", "--V", "const:-1",
             "--eps-list", "1e-2,3e-3", "--h", "0.02", "--workers", "2",
             "--out", str(tmp_path)])
    payload = json.loads((tmp_path / "sweep" / "sweep.json").read_text())
    assert set(payload["slopes"]) == {"residual_star", "phi_star",
                                      "energy_gap_ratio"}
    assert len(payload["points"]) == 2
    assert payload["errors"] == {}


def test_sweep_determinism(tmp_path):
    args = ["sweep", "--q", "4", "--k", "1", "--V", "const:-1",
            "--eps-list", "1e-2,5e-3", "--h", "0.05", "--workers", "2"]
    run_cli(args + ["--out", str(tmp_path / "a")])
    run_cli(args + ["--out", str(tmp_path / "b")])
    assert (tmp_path / "a" / "sweep" / "sweep.csv").read_text() \
        == (tmp_path / "b" / "sweep" / "sweep.csv").read_text()
    assert (tmp_path / "a" / "sweep" / "sweep.json").read_text() \
        == (tmp_path / "b" / "sweep" / "sweep.json").read_text()


@pytest.mark.parametrize("flag", [["--h", "0.04"], ["--h=0.04"]],
                         ids=["separate", "joined"])
def test_config_file_defaults_and_flag_override(flag, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("q = 4\neps = 5e-2\nV = const:-1\nh = 0.05\n")
    out = tmp_path / "from_config"
    run_cli(["reduce", "--config", str(cfg)] + flag + ["--out", str(out)])
    payload = json.loads((out / "reduce" / "reduction.json").read_text())
    assert payload["grid"]["h"] == pytest.approx(0.04)   # flag wins over file
    assert payload["eps"] == pytest.approx(5e-2)         # file supplied


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
], ids=["k1-rational", "k2-const", "k1-v0-positive",
        "N4-k1", "N4-k2", "N5-k1", "N5-k2", "N6-k1", "N6-k2"])
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
])
def test_bad_grid_and_run_arguments_exit_at_parse_time(argv, tmp_path):
    with pytest.raises(SystemExit):
        run_cli(argv + ["--out", str(tmp_path)])
    assert not (tmp_path / argv[0]).exists()
