"""The binomial rows the process shares, against fresh builds.

Up to EXACT_BINOMIAL_MAX_N, ``numerics.binomials`` returns the read-only
rows of ``numerics._exact_row``, kept for the last eight n asked for:
whatever was asked before, they must hold ``math.comb`` and its
``math.log2`` for this n. Above that it reads its logs from one row of
ln k! that grows to the largest n asked for; the logs must be those of a
row built afresh for this n, bit for bit: ``util.reference_log_factorials``
is that build.
"""
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from szilard import cli, numerics
from szilard.numerics import binomials

from util import reference_binomial_logs

ROOT = Path(__file__).resolve().parent.parent
NS = (2049, 3000, 10**4, 6 * 10**4, 10**5)
#: twelve distinct n up to EXACT_BINOMIAL_MAX_N, more than the eight rows kept
EXACT_NS = (0, 1, 2, 7, 64, 100, 999, 1000, 1001, 1600, 2047, 2048)
SHUFFLED = tuple(np.random.default_rng(20261021).permutation(EXACT_NS).tolist())


def bits(a: np.ndarray) -> np.ndarray:
    return a.view(np.int64)


@pytest.fixture
def no_exact_rows():
    """An empty row cache before and after the test, whatever ran before."""
    numerics._exact_row.cache_clear()
    yield numerics._exact_row
    numerics._exact_row.cache_clear()


@pytest.mark.parametrize(
    "order", [EXACT_NS, EXACT_NS[::-1], SHUFFLED], ids=["ascending", "descending", "shuffled"]
)
def test_exact_rows_match_a_fresh_build_in_any_order(order, no_exact_rows):
    # twice through twelve n: the second pass asks again for evicted rows
    for n in order + order:
        logs, exact = binomials(n)
        assert exact.tolist() == [math.comb(n, k) for k in range(n + 1)], n
        assert [x.hex() for x in logs.tolist()] == [
            math.log2(math.comb(n, k)).hex() for k in range(n + 1)
        ], n
        assert no_exact_rows.cache_info().currsize <= 8
    assert no_exact_rows.cache_info().misses == 2 * len(EXACT_NS)


def test_an_exact_row_is_shared_and_read_only(no_exact_rows):
    logs, exact = binomials(1000)
    again = binomials(1000)
    assert again[0] is logs and again[1] is exact
    for a, value in ((logs, 1.0), (exact, 1)):
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[0] = value


def test_no_row_above_the_exact_range_is_kept(no_exact_rows):
    binomials(numerics.EXACT_BINOMIAL_MAX_N)
    for n in (numerics.EXACT_BINOMIAL_MAX_N + 1, 3000, 10**4):
        assert binomials(n)[1] is None
    info = no_exact_rows.cache_info()
    assert (info.hits, info.misses, info.currsize) == (0, 1, 1)


def test_table1_builds_one_row_for_its_three_families(no_exact_rows):
    # the README's table1 and entropy at n = 1000 share the row of that n
    cli.cmd_table1(2e-4, 300.0, 1000)
    assert no_exact_rows.cache_info().misses == 1
    cli.cmd_entropy("bernoulli(0.7)^1000", 2e-4)
    assert no_exact_rows.cache_info().misses == 1


def test_the_readme_commands_fit_the_kept_rows(no_exact_rows, capsys):
    # eight distinct n up to 2048: a second pass over the six commands builds no row
    golden = json.loads((ROOT / "perfbench/golden/cli_readme.json").read_text())
    for _ in range(2):
        for want in golden.values():
            cli.main(list(want["argv"]))
    capsys.readouterr()
    info = no_exact_rows.cache_info()
    assert (info.misses, info.currsize) == (8, 8)


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
