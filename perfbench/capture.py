"""Regenerate the benchmark's reference files under perfbench/golden/.

    python3 perfbench/capture.py

Writes the stdout and exit code of each README command (compared byte for
byte by the cli_readme workload) and the reference grid of the iid_classes
workload. Both were captured before any optimisation of the library and
must only be regenerated when a change is meant to alter these outputs.
"""
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import tracing  # noqa: E402
import workloads  # noqa: E402

GRID = (
    ("bernoulli(0.7)^1000", 1000, 2e-4),
    ("bernoulli(0.7)^1000", 1000, 1e-5),
    ("bernoulli(0.7)^1000", 1000, 1e-2),
    ("bernoulli(0.7)^10000", 10000, 1e-3),
    ("bernoulli(0.7)^100000", 100000, 1e-3),
    ("bernoulli(0.6)^2048", 2048, 1e-4),
    ("bernoulli(0.6)^2049", 2049, 1e-4),
    ("bernoulli(0.8)^30000", 30000, 1e-2),
    ("mix(0.5: bernoulli(1.0)^1000, 0.5: bernoulli(0.5)^1000)", 1000, 2e-4),
    ("mix(0.5: bernoulli(1.0)^5000, 0.5: bernoulli(0.7)^5000)", 5000, 1e-5),
    ("mix(0.5: bernoulli(1.0)^50000, 0.5: bernoulli(0.65)^50000)", 50000, 3e-3),
)


def main():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    golden = {}
    for label, argv, _ in workloads.README_COMMANDS:
        done = subprocess.run(
            [sys.executable, "-m", "szilard", *argv], cwd=ROOT, env=env,
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, check=False,
        )
        golden[label] = {
            "argv": argv,
            "exit_code": done.returncode,
            "stdout": done.stdout.decode("utf-8"),
        }
    workloads.GOLDEN_DIR.mkdir(exist_ok=True)
    (workloads.GOLDEN_DIR / "cli_readme.json").write_text(json.dumps(golden, indent=1) + "\n")

    iid = workloads.IidClasses(0)
    grid = []
    for spec, n, eps in GRID:
        out = iid.run(tracing.call_plain, workloads.IidOp("grid", spec, n, 0.0, eps))
        grid.append({"spec": spec, "n": n, "epsilon": eps, "values": workloads.grid_values(out)})
    (workloads.GOLDEN_DIR / "reference_grid.json").write_text(json.dumps(grid, indent=1) + "\n")


if __name__ == "__main__":
    main()
