"""Benchmark runner for szilard.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the library is imported from
``src/``. Each invocation is one fresh process that runs one workload as a
closed loop with one client: an op starts when the previous one has
finished. Inputs come from the seed alone. Every op's output is checked
outside the timed region.

With ``--trace 0`` the last line of stdout is the JSON result with the
end-to-end metrics. With ``--trace 1`` it carries the per-layer metrics
instead: spans around the benchmark's calls into each module, counters,
peak allocations and the ROADMAP layer table. Spans and a run record go to
``perfbench/out/``. See ``perfbench/NOTES.md`` for what each workload and
metric is for.
"""
import os
import sys

# One BLAS/OpenMP thread, set before numpy can load.
THREAD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}
os.environ.update(THREAD_ENV)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = HERE / "out"

#: fresh interpreters timed for setup_s; the median is reported
SETUP_SAMPLES = 9
IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); "
    "t = time.perf_counter(); import szilard.cli; print(time.perf_counter() - t)"
)


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def measure_setup() -> list[float]:
    """Seconds to `import szilard.cli`, each in a fresh interpreter."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        done = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE, str(SRC)], cwd=ROOT,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=60,
        )
        if done.returncode != 0:
            raise BenchError(f"import szilard.cli failed:\n{done.stderr}")
        samples.append(float(done.stdout.strip()))
    return samples


def metadata(args, setup) -> dict:
    import numpy
    import scipy

    try:
        # the ceiling keeps git from finding a repository above the checkout
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
        ).stdout.strip() or "unavailable"
    except OSError:
        sha = "unavailable"
    try:
        l3 = Path("/sys/devices/system/cpu/cpu0/cache/index3/size").read_text().strip()
    except OSError:
        l3 = "unavailable"
    digest = hashlib.sha256()
    for path in sorted((SRC / "szilard").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": len(os.sched_getaffinity(0)),
        "mem_total_gib": os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE") / 2**30,
        "l3_cache": l3,
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
        "thread_env": {k: os.environ.get(k) for k in THREAD_ENV},
        "setup_samples_s": setup,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "szilard" / "__init__.py").is_file():
        raise BenchError(f"no library source at {SRC}; run from a source checkout")
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in declared["workloads"]}:
        raise BenchError(f"unknown workload {args.workload!r}")
    if args.seconds <= 0:
        raise BenchError("--seconds must be positive")

    setup = measure_setup()
    sys.path.insert(0, str(SRC))
    import szilard

    if Path(szilard.__file__).resolve().parent != SRC / "szilard":
        raise BenchError(f"szilard imported from {szilard.__file__}, not {SRC}")
    import harness
    import tracing
    import workloads

    wl = workloads.WORKLOADS[args.workload](args.seed)
    self_test_problems = harness.self_test(wl)

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        loop, info = harness.run_traced(
            wl, args.seconds, 1e3 * statistics.median(setup), OUT_DIR / f"spans-{tag}.jsonl"
        )
        wanted = declared["per_layer"]
    else:
        loop, info = harness.run_plain(wl, args.seconds)
        wanted = declared["end_to_end"]
    metrics = info.pop("metrics")

    checks = wl.verify(tracing.call_plain)
    loop.failures += [(label, problems) for label, problems in checks if problems]
    attempted = len(loop.latencies) + len(checks)
    failed = len(loop.failures)
    if not args.trace:
        metrics["setup_s"] = statistics.median(setup)
        metrics["success_ratio"] = (attempted - failed) / attempted

    units = {m["name"]: m["unit"] for m in wanted}
    if set(metrics) != set(units):
        raise BenchError(f"metrics {sorted(set(metrics) ^ set(units))} disagree with BENCHMARK.json")
    result = {
        "correct": failed == 0 and not self_test_problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    record = {
        "meta": metadata(args, setup),
        "failure_ratio": failed / attempted,
        "self_test": self_test_problems or "ok",
        "failures": loop.failures[:50],
        **info,
        "result": result,
    }
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"run-{tag}.json").write_text(json.dumps(record, indent=1) + "\n")

    print("meta " + json.dumps(record["meta"]))
    for key, value in info.items():
        print(f"{key}: {value}")
    print(f"failure_ratio: {record['failure_ratio']} ({failed} of {attempted})")
    for label, problems in loop.failures[:10]:
        print(f"FAILED {label}: {'; '.join(problems)}")
    for problem in self_test_problems:
        print(f"FAILED {problem}")
    for name in units:
        roadmap = tracing.ROADMAP_MS.get(name)
        note = f" (ROADMAP: {roadmap} ms)" if roadmap else ""
        print(f"{name} = {metrics[name]} {units[name]}{note}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        sys.exit(2)
