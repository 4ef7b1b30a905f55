import runpy
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


@pytest.mark.parametrize("script,args,expected", [
    ("end_to_end.py", [], "sup rel err near peak"),
    ("epsilon_sweep.py", ["--eps-list", "1e-2,3e-3", "--h", "0.02"], "slope |phi|_*"),
    # q > p*: the flat regime's backward shots
    ("end_to_end.py", ["--q", "7"], "sup rel err near peak"),
])
def test_script_runs(script, args, expected, monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", [script] + args)
    runpy.run_path(str(SCRIPTS / script), run_name="__main__")
    assert expected in capsys.readouterr().out
