"""The example scripts the README documents run to completion."""
import runpy
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


@pytest.mark.parametrize("name", ["game_demo.py", "epsilon_scan.py", "entropy_convergence.py"])
def test_script_runs(name, monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", [name])
    with pytest.raises(SystemExit) as done:
        runpy.run_path(str(SCRIPTS / name), run_name="__main__")
    assert done.value.code == 0
    assert capsys.readouterr().out.strip()
