"""The example scripts the README documents run to completion and print,
byte for byte, the output pinned in ``script_goldens/<script>.txt``."""
import runpy
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
SCRIPTS = HERE.parent / "scripts"
GOLDENS = HERE / "script_goldens"


@pytest.mark.parametrize("name", ["game_demo.py", "epsilon_scan.py", "entropy_convergence.py"])
def test_script_runs(name, monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", [name])
    with pytest.raises(SystemExit) as done:
        runpy.run_path(str(SCRIPTS / name), run_name="__main__")
    assert done.value.code == 0
    golden = GOLDENS / name.replace(".py", ".txt")
    assert capsys.readouterr().out == golden.read_text()
