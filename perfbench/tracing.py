"""Per-layer measurement: spans around the calls the benchmark makes into
each module of ``szilard``, counters at the same boundaries, peak
allocations under ``tracemalloc``, and a one-shot layer table at fixed sizes.

Nothing here patches the library. Workloads call the library through a
dispatcher, and a span covers exactly one such call, so work the library
does inside a call is charged to that call.
"""
from __future__ import annotations

import json
import statistics
import time
import tracemalloc

from szilard import cli, compress, entropy, game, numerics, probdist

#: every library function the benchmark times, by ``<module>.<function>``
FUNCTIONS = {
    "cli.parse_spec": cli.parse_spec,
    "cli.to_distribution": cli.to_distribution,
    "probdist.explicit_of": probdist.explicit_of,
    "probdist.make_explicit": probdist.make_explicit,
    "probdist.to_type_classes": probdist.to_type_classes,
    "numerics.log2_binomials": numerics.log2_binomials,
    "entropy.smooth_report": entropy.smooth_report,
    "entropy.h_max_smooth": entropy.h_max_smooth,
    "entropy.h_min_smooth": entropy.h_min_smooth,
    "compress.canonical_permutation": compress.canonical_permutation,
    "game.work_bounds": game.work_bounds,
    "game.riskfree_work_executable": game.riskfree_work_executable,
    "game.build_riskfree_strategy": game.build_riskfree_strategy,
    "game.build_gambler_strategy": game.build_gambler_strategy,
    "game.exact_evaluate": game.exact_evaluate,
    "game.monte_carlo": game.monte_carlo,
    "game.check_inequalities": game.check_inequalities,
}

#: functions whose peak allocation is measured in the tracemalloc pass
ALLOC_FUNCTIONS = (
    "probdist.explicit_of",
    "compress.canonical_permutation",
    "game.build_riskfree_strategy",
    "game.build_gambler_strategy",
    "game.monte_carlo",
)

#: the figures ROADMAP "State" quotes for the rows of the layer table
ROADMAP_MS = {
    "table.import_szilard_cli_ms": 210.0,
    "table.smooth_report.iid_n1000_ms": 2.2,
    "table.smooth_report.iid_n10000_ms": 12.0,
    "table.smooth_report.iid_n100000_ms": 98.0,
    "table.canonical_permutation.explicit_n22_ms": 533.0,
    "table.smooth_report.explicit_n22_ms": 418.0,
}
TABLE_REPEATS = 3


def call_plain(name, *args):
    """The untraced dispatcher."""
    return FUNCTIONS[name](*args)


class Tracer:
    """Dispatcher that records a span per call, or, with ``alloc``, the peak
    traced allocation of the calls in ALLOC_FUNCTIONS instead."""

    def __init__(self, alloc: bool = False):
        self.alloc = alloc
        self.origin = time.perf_counter_ns()
        self.spans: list[tuple] = []  # (name, start_ns, end_ns, parent, op, error)
        self.parent = "op"
        self.op = None
        self.peak_alloc = {name: 0 for name in ALLOC_FUNCTIONS}
        self.outcome_space = 0
        self.support_size = 0
        self.plan_bytes = 0
        self.mc_samples = 0

    def __call__(self, name, *args):
        fn = FUNCTIONS[name]
        if self.alloc:
            if name not in self.peak_alloc:
                return fn(*args)
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            out = fn(*args)
            peak = tracemalloc.get_traced_memory()[1] - base
            self.peak_alloc[name] = max(self.peak_alloc[name], peak)
            return out
        start = time.perf_counter_ns()
        error = True
        try:
            out = fn(*args)
            error = False
        finally:
            self.spans.append((name, start, time.perf_counter_ns(), self.parent, self.op, error))
        self._count(name, args, out)
        return out

    def _count(self, name, args, out):
        if name in ("probdist.explicit_of", "probdist.make_explicit"):
            self.outcome_space += 1 << out.n
            self.support_size += out.support_size
        elif name in ("game.build_riskfree_strategy", "game.build_gambler_strategy"):
            self.plan_bytes += out.plan.permutation.nbytes
        elif name == "game.monte_carlo":
            self.mc_samples += args[2].n_samples

    def op_span(self, op, start: int, end: int, error: bool):
        self.spans.append(("op", start, end, None, op, error))

    def call_metrics(self) -> dict[str, float]:
        durations = {name: [] for name in FUNCTIONS}
        errors = dict.fromkeys(FUNCTIONS, 0)
        for name, start, end, _, _, error in self.spans:
            if name in durations:
                durations[name].append(end - start)
                errors[name] += error
        metrics = {}
        for name, ds in durations.items():
            metrics[f"{name}.calls"] = len(ds)
            metrics[f"{name}.busy_ms"] = sum(ds) / 1e6
            metrics[f"{name}.call_p50_ms"] = statistics.median(ds) / 1e6 if ds else 0.0
            metrics[f"{name}.errors"] = errors[name]
        mc_ns = sum(durations["game.monte_carlo"])
        metrics.update({
            "probdist.outcome_space": self.outcome_space,
            "probdist.support_size": self.support_size,
            "compress.plan_bytes": self.plan_bytes,
            "compress.support_fraction": (
                self.support_size / self.outcome_space if self.outcome_space else 0.0
            ),
            "game.monte_carlo.samples": self.mc_samples,
            "game.monte_carlo.ns_per_sample": mc_ns / self.mc_samples if self.mc_samples else 0.0,
        })
        return metrics

    def op_total_ns(self) -> int:
        return sum(end - start for name, start, end, *_ in self.spans if name == "op")

    def write_spans(self, path):
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op, error in self.spans:
                fh.write(json.dumps({
                    "name": name,
                    "start_ms": (start - self.origin) / 1e6,
                    "end_ms": (end - self.origin) / 1e6,
                    "parent": parent,
                    "op": op,
                    "error": error,
                }) + "\n")


def _median_ms(fn, *args) -> float:
    samples = []
    for _ in range(TABLE_REPEATS):
        start = time.perf_counter_ns()
        fn(*args)
        samples.append(time.perf_counter_ns() - start)
    return statistics.median(samples) / 1e6


def layer_table(import_ms: float) -> dict[str, float]:
    """The ROADMAP "State" rows, each the median of TABLE_REPEATS calls."""
    eps = 1e-3
    out = {"table.import_szilard_cli_ms": import_ms}
    for n in (1000, 10_000, 100_000):
        dist = probdist.bernoulli_product(0.7, n)
        out[f"table.smooth_report.iid_n{n}_ms"] = _median_ms(entropy.smooth_report, dist, eps)
    table = probdist.explicit_of(probdist.bernoulli_product(0.7, 22))
    out["table.canonical_permutation.explicit_n22_ms"] = _median_ms(
        compress.canonical_permutation, table
    )
    out["table.smooth_report.explicit_n22_ms"] = _median_ms(entropy.smooth_report, table, eps)
    return out
