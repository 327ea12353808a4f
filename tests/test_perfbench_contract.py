"""The benchmark's use of the library, checked in process: a few small ops
of the explicit game workloads run through the plain and the traced
dispatcher of ``perfbench/`` and pass the benchmark's own checks."""
import importlib
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.mark.parametrize("name", ["ExplicitRiskfree", "GamblerGame"])
def test_small_game_ops_pass_the_benchmark_checks(monkeypatch, name):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    wl = getattr(importlib.import_module("workloads"), name)(3)
    ops = [op for op in next(wl.blocks()) if op.n <= 14][:3]
    assert len(ops) == 3
    tracer = tracing.Tracer()
    for op in ops:
        for call in (tracing.call_plain, tracer):
            assert wl.check(op, wl.run(call, op)) == []
    # the traced runs read each strategy's bets and its plan's dense permutation
    assert tracer.plan_bytes == sum(8 << op.n for op in ops)
