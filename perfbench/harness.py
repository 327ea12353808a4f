"""The measuring loop behind run.py: closed-loop passes over a workload's
blocks, the checker self-test, and the untraced and traced runs."""
from __future__ import annotations

import ctypes
import resource
import statistics
import time
import tracemalloc
from pathlib import Path

import tracing

#: tail percentiles tried, highest first, when the workload's own has fewer
#: than TAIL_BEYOND samples beyond it
TAIL_FALLBACK = (99, 95, 90, 80, 75, 70, 50)
TAIL_BEYOND = 10

try:
    _malloc_trim = ctypes.CDLL(None).malloc_trim
except (OSError, AttributeError):  # not glibc: nothing to trim
    _malloc_trim = None


def release_freed_memory():
    """Hand the heap's free pages back to the OS between ops.

    Without it, which freed chunks a later op can reuse depends on the order
    of earlier allocations, and the end-of-run peak RSS of explicit_riskfree
    reads 629 MB on some seeds and 709 MB on others. Called outside the
    timed region.
    """
    if _malloc_trim is not None:
        _malloc_trim(0)


def percentile(values, pct: float) -> float:
    """Linear interpolation between closest ranks."""
    s = sorted(values)
    pos = (len(s) - 1) * pct / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def tail(values, preferred: float) -> tuple[float, float]:
    """(percentile, value) for the highest percentile, starting at the
    workload's own, with at least TAIL_BEYOND samples beyond it."""
    for pct in (preferred, *(p for p in TAIL_FALLBACK if p < preferred)):
        value = percentile(values, pct)
        if sum(v > value for v in values) >= TAIL_BEYOND:
            return pct, value
    return 50.0, percentile(values, 50.0)


class Loop:
    """Runs ops one after another and keeps latencies and failures."""

    def __init__(self, wl):
        self.wl = wl
        self.latencies: list[int] = []
        self.failures: list[tuple[str, list[str]]] = []

    def run_op(self, call, op):
        start = time.perf_counter_ns()
        try:
            out, error = self.wl.run(call, op), None
        except Exception as exc:  # a failing op is counted, not fatal
            out, error = None, f"{type(exc).__name__}: {exc}"
        end = time.perf_counter_ns()
        self.latencies.append(end - start)
        problems = [error] if error else self.wl.check(op, out)
        if problems:
            self.failures.append((op.label, problems))
        return out, start, end

    def run_block(self, call, block, tracer=None):
        """Run a block; with a tracer, also its op spans and probes."""
        for op in block:
            if tracer is not None:
                tracer.op, tracer.parent = op.label, "op"
            out, start, end = self.run_op(call, op)
            if tracer is not None:
                tracer.op_span(op.label, start, end, out is None)
                if out is not None:
                    tracer.parent = "probe"
                    for name, args in self.wl.probes(op, out):
                        _keep_going(call, name, *args)
            del out
            release_freed_memory()


def _keep_going(call, name, *args):
    """A probe that raises is counted in `<fn>.errors` by the span the
    tracer records, and the traced run goes on."""
    try:
        call(name, *args)
    except Exception:
        pass


def self_test(wl) -> list[str]:
    """The checker must pass a real output and flag a corrupted copy of it.

    Runs before timing, so it also warms the library up.
    """
    op = wl.warmup or next(wl.blocks())[0]
    try:
        out = wl.run(tracing.call_plain, op)
    except Exception as exc:  # reported through `correct`, like a failing op
        return [f"self-test: {op.label} raised {type(exc).__name__}: {exc}"]
    problems = []
    if wl.check(op, out):
        problems.append(f"self-test: {op.label} failed its check before corruption")
    if not wl.check(op, wl.corrupt(out)):
        problems.append(f"self-test: corrupted output of {op.label} passed its check")
    return problems


def run_plain(wl, seconds: float) -> tuple[Loop, dict]:
    """Whole blocks until `seconds` have passed; end-to-end metrics."""
    loop = Loop(wl)
    first_block_rss_kb = None
    start = time.monotonic()
    for block in wl.blocks():
        loop.run_block(tracing.call_plain, block)
        first_block_rss_kb = first_block_rss_kb or resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if time.monotonic() - start >= seconds:
            break
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    lat = loop.latencies
    pct, tail_ns = tail(lat, wl.tail_pct)
    metrics = {
        # ops over the time spent in ops; the checks between ops are not timed
        "throughput_ops_s": len(lat) / (sum(lat) / 1e9),
        "latency_p50_ms": statistics.median(lat) / 1e6,
        "latency_tail_ms": tail_ns / 1e6,
        "peak_rss_mb": peak_rss_kb / 1024.0,
    }
    info = {
        "tail_percentile": pct,
        "timed_ops": len(lat),
        # growth past the first block, which runs every input size once,
        # is memory kept across ops
        "peak_rss_first_block_mb": first_block_rss_kb / 1024.0,
    }
    return loop, {"metrics": metrics, **info}


def run_traced(wl, seconds: float, import_ms: float, spans_path: Path) -> tuple[Loop, dict]:
    """Each block untraced, then traced, until `seconds` have passed; then a
    tracemalloc pass over the first block and the layer table."""
    loop = Loop(wl)
    tracer = tracing.Tracer()
    untraced_ns = 0
    first = None
    start = time.monotonic()
    for block in wl.blocks():
        first = first or block
        before = len(loop.latencies)
        loop.run_block(tracing.call_plain, block)
        untraced_ns += sum(loop.latencies[before:])
        loop.run_block(tracer, block, tracer)
        if time.monotonic() - start >= seconds:
            break
    metrics = tracer.call_metrics()
    allocs = tracing.Tracer(alloc=True)
    tracemalloc.start()
    try:
        loop.run_block(allocs, first, allocs)
    finally:
        tracemalloc.stop()
    for name, peak in allocs.peak_alloc.items():
        metrics[f"{name}.peak_alloc_mb"] = peak / 2**20
    metrics["trace.overhead_ratio"] = tracer.op_total_ns() / untraced_ns
    metrics.update(tracing.layer_table(import_ms))
    tracer.write_spans(spans_path)
    return loop, {"metrics": metrics, "spans": str(spans_path)}
