"""The ln k! row the process shares, against a fresh build.

Above EXACT_BINOMIAL_MAX_N, ``numerics.binomials`` reads its logs from one
row of ln k! that grows to the largest n asked for. Whatever was asked
before, the logs must be those of a row built afresh for this n, bit for
bit: ``util.reference_log_factorials`` is that build.
"""
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from szilard import numerics
from szilard.numerics import binomials

from util import reference_binomial_logs

ROOT = Path(__file__).resolve().parent.parent
NS = (2049, 3000, 10**4, 6 * 10**4, 10**5)


def bits(a: np.ndarray) -> np.ndarray:
    return a.view(np.int64)


@pytest.mark.parametrize("order", [NS, NS[::-1]], ids=["ascending", "descending"])
def test_binomials_match_a_fresh_build_in_any_order(order, monkeypatch):
    monkeypatch.setattr(numerics, "_log_factorial_row", np.empty(0))
    for n in order:
        logs, exact = binomials(n)
        assert exact is None
        assert np.array_equal(bits(logs), bits(reference_binomial_logs(n))), n
    # grown to exactly the largest n asked for, not past it
    assert numerics._log_factorial_row.size == max(order) + 1


def test_the_row_grows_only_its_missing_entries(monkeypatch):
    monkeypatch.setattr(numerics, "_log_factorial_row", np.empty(0))
    first = numerics._log_factorials(3000)
    row = numerics._log_factorials(5000)
    assert np.array_equal(bits(row[:3001]), bits(first))
    assert numerics._log_factorials(4000).base is row.base


def test_the_row_is_read_only():
    row = numerics._log_factorials(3000)
    assert not row.flags.writeable
    with pytest.raises(ValueError):
        row[0] = 1.0


def test_pins_hold_when_the_largest_n_comes_first():
    # a fresh process whose first distribution is n = 1e5, so every later
    # one reads a slice of that row
    probe = (
        "import json\n"
        "from test_class_path_pins import EPSILONS, PINS, SPECS, case_key, figures\n"
        "pins = json.loads(PINS.read_text())\n"
        "specs = sorted(SPECS, key=lambda s: -int(s.rstrip(')').rsplit('^', 1)[1]))\n"
        "print(json.dumps([case_key(s, e) for s in specs for e in EPSILONS\n"
        "                  if figures(s, e) != pins[case_key(s, e)]]))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT / "tests")]))
    done = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == []
