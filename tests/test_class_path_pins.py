"""Bit-exact pins of the type-class path.

``class_path_pins.json`` holds ``float.hex`` of every figure the
``iid_classes`` benchmark op computes (the six ``smooth_report`` figures,
``work_bounds`` and ``riskfree_work_executable``) for both of its spec
kinds, on both sides of EXACT_BINOMIAL_MAX_N and up to n = 1e5, at two
epsilons. A speed-up of the class path must leave every one unchanged.

Regenerate the file only from a commit whose figures are the reference:

    PYTHONPATH=src python tests/test_class_path_pins.py
"""
import json
from pathlib import Path

import pytest

from szilard import cli, riskfree_work_executable, smooth_report, work_bounds, work_unit

PINS = Path(__file__).resolve().parent / "class_path_pins.json"
C = work_unit(300.0).joules
NS = (1000, 2048, 2049, 10**4, 10**5)
SPECS = [f"bernoulli(0.7)^{n}" for n in NS] + [
    f"mix(0.5: bernoulli(1.0)^{n}, 0.5: bernoulli(0.6437)^{n})" for n in NS
]
EPSILONS = (1e-3, 2e-5)


def figures(spec: str, eps: float) -> dict[str, str]:
    """Every float the iid_classes op computes, as float.hex, in op order."""
    dist = cli.to_distribution(cli.parse_spec(spec))
    report = smooth_report(dist, eps)
    bounds = work_bounds(dist, eps, C)
    executable = riskfree_work_executable(dist, eps, C)
    values = {
        name: getattr(report, name)
        for name in ("shannon", "h_min", "h_max", "epsilon", "h_min_smooth", "h_max_smooth")
    }
    for side in ("min_work", "max_work"):
        for unit in ("bits", "joules", "ev"):
            values[f"{side}.{unit}"] = getattr(getattr(bounds, side), unit)
    for unit in ("bits", "joules", "ev"):
        values[f"executable.{unit}"] = getattr(executable, unit)
    return {name: float(v).hex() for name, v in values.items()}


def case_key(spec: str, eps: float) -> str:
    return f"{spec} eps={eps!r}"


@pytest.mark.parametrize("eps", EPSILONS)
@pytest.mark.parametrize("spec", SPECS)
def test_class_path_figures_are_bit_identical_to_the_pins(spec, eps):
    pins = json.loads(PINS.read_text())
    assert figures(spec, eps) == pins[case_key(spec, eps)]


def test_pins_cover_every_case():
    assert sorted(json.loads(PINS.read_text())) == sorted(
        case_key(s, e) for s in SPECS for e in EPSILONS
    )


if __name__ == "__main__":
    table = {case_key(s, e): figures(s, e) for s in SPECS for e in EPSILONS}
    PINS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
