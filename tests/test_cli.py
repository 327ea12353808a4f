import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from szilard import (
    ExplicitDistribution,
    MixtureOfProducts,
    canonical_permutation,
    compress,
    probdist,
    riskfree_work_executable,
    smooth_report,
    work_bounds,
    work_unit,
)
from szilard.cli import (
    SpecBernoulli,
    SpecDet,
    SpecExplicit,
    SpecMix,
    cmd_entropy,
    cmd_table1,
    cmd_work,
    main,
    parse_spec,
    to_distribution,
)
from szilard.errors import ArityMismatch, ParseError, WeightSumError
from szilard.oracle import BIASED, apply_permutation, bennett_work, bit_profile

from util import prob_of, random_explicit

C300_EV = 0.0179192407638041


# ----------------------------------------------------------------- parsing


def test_parse_mixture_structure():
    node = parse_spec("mix(0.5: bernoulli(1.0)^20, 0.5: bernoulli(0.5)^20)")
    dist = to_distribution(node)
    assert isinstance(dist, MixtureOfProducts)
    assert dist.n == 20
    assert dist.components == ((0.5, 1.0), (0.5, 0.5))


def test_parse_det_is_point_mass():
    dist = to_distribution(parse_spec("det(LR)"))
    assert isinstance(dist, ExplicitDistribution)
    assert dist.as_dict() == {"LR": 1.0}


def test_parse_det_all_same_letter_stays_structured():
    dist = to_distribution(parse_spec("det(LLLL)"))
    assert isinstance(dist, MixtureOfProducts)
    assert dist.components == ((1.0, 1.0),)


def test_parse_uniform_and_explicit():
    assert to_distribution(parse_spec("uniform^3")).components == ((1.0, 0.5),)
    d = to_distribution(parse_spec("explicit{LL: 0.25, LR: 0.75}"))
    assert d.as_dict() == pytest.approx({"LL": 0.25, "LR": 0.75})


def test_parse_probability_out_of_range_with_position():
    with pytest.raises(ParseError) as err:
        parse_spec("bernoulli(1.2)^5")
    assert err.value.line == 1
    assert err.value.col == 11


def test_parse_reports_expected_token():
    with pytest.raises(ParseError) as err:
        parse_spec("gaussian(0.5)^3")
    assert err.value.expected == "term"
    with pytest.raises(ParseError):
        parse_spec("bernoulli(0.5)^3 trailing")


def test_parse_weight_sum_error():
    with pytest.raises(WeightSumError):
        parse_spec("mix(0.5: bernoulli(0.5)^2, 0.6: bernoulli(0.7)^2)")


def test_parse_arity_mismatch():
    with pytest.raises(ArityMismatch):
        parse_spec("mix(0.5: bernoulli(0.5)^2, 0.5: bernoulli(0.7)^3)")
    with pytest.raises(ArityMismatch):
        parse_spec("explicit{LL: 0.5, R: 0.5}")


def test_mix_of_non_product_terms_becomes_explicit():
    d = to_distribution(parse_spec("mix(0.5: det(LRL), 0.5: uniform^3)"))
    assert isinstance(d, ExplicitDistribution)
    assert prob_of(d, "LRL") == pytest.approx(0.5 + 0.5 / 8)
    assert prob_of(d, "LLL") == pytest.approx(0.5 / 8)


# (spec text, the tree it denotes), each built from the same drawn values
_terms = st.one_of(
    st.builds(
        lambda q, n: (f"bernoulli({q!r})^{n}", SpecBernoulli(q, n)),
        st.floats(min_value=0.0, max_value=1.0),
        st.integers(1, 50),
    ),
    st.builds(lambda n: (f"uniform^{n}", SpecBernoulli(0.5, n)), st.integers(1, 50)),
    st.builds(
        lambda bits: (f"det({bits})", SpecDet(bits)),
        st.lists(st.integers(0, 1), min_size=1, max_size=8).map(
            lambda bits: "".join("LR"[b] for b in bits)
        ),
    ),
)


@settings(max_examples=60)
@given(_terms)
def test_plain_terms_parse_to_their_tree(case):
    text, node = case
    assert parse_spec(text) == node


@settings(max_examples=60)
@given(
    st.lists(st.floats(min_value=0.05, max_value=1.0), min_size=2, max_size=4),
    st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=4, max_size=4),
    st.integers(1, 30),
)
def test_mixtures_parse_to_their_tree(raw_weights, qs, n):
    total = math.fsum(raw_weights)
    weights = [w / total for w in raw_weights]
    text = "mix(" + ", ".join(
        f"{w!r}: bernoulli({q!r})^{n}" for w, q in zip(weights, qs)
    ) + ")"
    assert parse_spec(text) == SpecMix(
        tuple((w, SpecBernoulli(q, n)) for w, q in zip(weights, qs))
    )


@settings(max_examples=40)
@given(
    st.dictionaries(
        st.integers(0, 7), st.floats(min_value=0.05, max_value=1.0),
        min_size=1, max_size=8,
    )
)
def test_explicit_parses_to_its_tree(table):
    total = math.fsum(table.values())
    pairs = tuple(
        (format(i, "03b").replace("0", "L").replace("1", "R"), p / total)
        for i, p in table.items()
    )
    text = "explicit{" + ", ".join(f"{o}: {p!r}" for o, p in pairs) + "}"
    assert parse_spec(text) == SpecExplicit(pairs)


# ---------------------------------------------------------------- commands


def test_cmd_entropy_matches_library():
    out = cmd_entropy("bernoulli(0.7)^1000", 2e-4)
    assert out["n"] == 1000
    assert out["h_max_smooth"] == pytest.approx(931.377, abs=1e-3)
    assert out["h_min"] == pytest.approx(514.573, abs=1e-3)


def test_cmd_work_fully_known_string():
    out = cmd_work("det(LLLL)", 1e-3, 300.0)
    assert out["min_work"]["bits"] == 4.0
    assert out["min_work_executable"]["bits"] == 4.0
    expected_max = 4.0 + math.log2(1 / 1e-3) + math.log2(1 - 1e-3)
    assert out["max_work"]["bits"] == pytest.approx(expected_max, abs=1e-4)
    assert out["bennett"]["bits"] == 4.0
    assert out["shannon_limit"]["bits"] == 4.0


def test_cmd_work_executable_counts_boxes_exactly():
    # 2^39 + 1 outcomes survive this budget, so no box can be bet
    eps = (2**39 - 0.5) * 0.001 * 2.0**-40
    out = cmd_work("mix(0.999: bernoulli(1.0)^40, 0.001: uniform^40)", eps, 300.0)
    assert out["min_work_executable"]["bits"] == 0.0


def test_cmd_work_reports_both_unit_systems():
    out = cmd_work("uniform^4", 1e-3, 300.0)
    assert out["work_value"]["ev"] == pytest.approx(C300_EV, rel=1e-5)
    assert out["min_work"]["joules"] == pytest.approx(0.0, abs=1e-30)
    assert out["bennett"]["bits"] == 0.0


def _explicit_spec(dist) -> str:
    return "explicit{" + ", ".join(f"{o}: {p!r}" for o, p in dist.items()) + "}"


def test_cmd_work_bennett_matches_the_compressed_profile(rng):
    figures = 0
    for trial in range(240):
        n = int(rng.integers(1, 9))
        kind = trial % 4
        if kind == 0:  # flat on 2^j outcomes
            d = random_explicit(rng, n, 1 << int(rng.integers(0, n + 1)), levels=(1.0,))
        elif kind == 1:  # flat on any number of outcomes
            d = random_explicit(rng, n, levels=(1.0,))
        elif kind == 2:
            d = random_explicit(rng, n, levels=(1.0, 2.0, 3.0))
        else:
            d = random_explicit(rng, n)
        text = _explicit_spec(d)
        bennett = cmd_work(text, 1e-3, 300.0)["bennett"]
        d = to_distribution(parse_spec(text))
        profile = bit_profile(apply_permutation(d, canonical_permutation(d).permutation))
        if any(b.kind == BIASED for b in profile):
            assert bennett is None, text
        else:
            assert bennett["bits"] == bennett_work(profile, 1.0), text
            figures += 1
    assert figures >= 60


def test_explicit_mixture_merge_matches_a_running_sum(rng):
    for _ in range(60):
        n = int(rng.integers(1, 7))
        terms = []
        for i in range(int(rng.integers(2, 4))):
            if i == 0 or rng.random() < 0.6:  # one explicit term keeps the mixture a table
                terms.append(_explicit_spec(random_explicit(rng, n)))
            else:
                terms.append(f"bernoulli({float(rng.random())!r})^{n}")
        raw = rng.random(len(terms)) + 0.05
        weights = (raw / raw.sum()).tolist()
        node = parse_spec("mix(" + ", ".join(f"{w!r}: {t}" for w, t in zip(weights, terms)) + ")")
        d = to_distribution(node)
        # reference: add each term's entries into a dict, one at a time
        total = math.fsum(w for w, _ in node.terms)
        dense: dict[int, float] = {}
        for w, term in node.terms:
            part = to_distribution(term)
            if not isinstance(part, ExplicitDistribution):
                part = probdist.explicit_of(part)
            for idx, p in zip(part.indices.tolist(), part.probs.tolist()):
                dense[idx] = dense.get(idx, 0.0) + w / total * p
        keys = sorted(dense)
        assert d.indices.tolist() == keys
        assert d.probs.tolist() == [dense[k] for k in keys]


@pytest.mark.parametrize(
    "spec, bits",
    [
        ("uniform^1000", 0.0),
        ("det(" + "L" * 32 + ")", 32.0),
        ("mix(0.5: bernoulli(1.0)^1000, 0.5: bernoulli(0.0)^1000)", 999.0),
        ("mix(0.3: uniform^1000, 0.7: uniform^1000)", 0.0),
        # flat only within the profile tolerance: its boxes are biased
        ("explicit{LL: 0.25, LR: 0.25, RL: 0.2500000000001, RR: 0.2499999999999}", None),
        # above n = 2048 only a level of all n + 1 classes has an exact count
        ("uniform^2049", 0.0),
        ("uniform^3000", 0.0),
        ("mix(0.3: uniform^3000, 0.7: uniform^3000)", 0.0),
        ("mix(0.5: bernoulli(1.0)^3000, 0.5: bernoulli(0.0)^3000)", None),
    ],
)
def test_cmd_work_bennett_from_the_spectrum(spec, bits):
    bennett = cmd_work(spec, 1e-3, 300.0)["bennett"]
    assert (None if bennett is None else bennett["bits"]) == bits


def test_cmd_work_expands_and_compresses_nothing(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("cmd_work must not expand or compress")

    monkeypatch.setattr(probdist, "explicit_of", refuse)
    monkeypatch.setattr(compress, "canonical_permutation", refuse)
    out = cmd_work("bernoulli(0.7)^20", 1e-3, 300.0)
    assert out["bennett"] is None
    assert out["min_work_executable"]["bits"] == 0.0


def test_cmd_table1_rows(capsys):
    import csv as csv_mod
    import io

    assert main(["table1", "--epsilon", "2e-4", "--n", "1000"]) == 0
    text = capsys.readouterr().out
    rows = list(csv_mod.reader(io.StringIO(text)))
    assert rows[0] == ["row", "distribution", "min_work_bits", "max_work_bits",
                       "min_work_eV", "max_work_eV"]
    assert len(rows) == 5
    assert float(rows[2][4]) == pytest.approx(1.22967, abs=1e-4)
    assert float(rows[2][5]) == pytest.approx(3.43153, abs=1e-4)
    assert float(rows[4][2]) == 999.0
    assert float(rows[3][2]) <= 2.0  # half-deterministic mixture: nearly no sure work


def test_cmd_table1_byte_identical(capsys):
    main(["table1", "--epsilon", "1e-3"])
    first = capsys.readouterr().out
    main(["table1", "--epsilon", "1e-3"])
    assert capsys.readouterr().out == first


def test_cmd_figure3_convergence(capsys):
    assert main(["figure3"]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0] == "n,h_min_smooth,shannon,h_max_smooth,epsilon,p"
    last = lines[-1].split(",")
    n = int(last[0])
    assert n == 1600
    assert abs(float(last[3]) / n - 0.8813) <= 0.06
    assert abs(float(last[1]) / n - 0.8813) <= 0.06


def test_cmd_game_riskfree_clean(capsys):
    code = main(
        ["game", "--spec", "explicit{LL: 0.5, RR: 0.5}", "--epsilon", "0",
         "--seed", "9", "--samples", "2000"]
    )
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["violations"] == []
    assert out["exact"]["success_prob"] == 1.0
    assert out["monte_carlo"]["success_rate"] == 1.0
    assert out["strategy"]["bets"] == [{"position": 0, "guess": "L"}]


def test_cmd_game_gambler(capsys):
    code = main(
        ["game", "--spec", "bernoulli(0.7)^3", "--strategy", "gambler",
         "--bet-size", "2", "--seed", "4", "--samples", "5000"]
    )
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["exact"]["success_prob"] == pytest.approx(0.49, abs=1e-9)
    assert len(out["strategy"]["bets"]) == 2
    mc = out["monte_carlo"]
    assert abs(mc["success_rate"] - 0.49) <= 4 * mc["stderr"]


def test_cmd_game_replay_byte_identical(capsys):
    argv = ["game", "--spec", "bernoulli(0.6)^4", "--seed", "77", "--samples", "3000"]
    main(argv)
    first = capsys.readouterr().out
    main(argv)
    assert capsys.readouterr().out == first


def test_cli_error_envelope_parse(capsys):
    code = main(["entropy", "--spec", "bernoulli(1.2)^5"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    envelope = json.loads(captured.err)
    assert envelope["code"] == "ParseError"
    assert envelope["line"] == 1
    assert envelope["col"] == 11


def test_cli_error_envelope_missing_spec(capsys):
    code = main(["work"])
    envelope = json.loads(capsys.readouterr().err)
    assert code == 1
    assert envelope["code"] == "SzilardError"


@pytest.mark.parametrize(
    "argv, code",
    [
        (["game", "--spec", "uniform^2", "--samples", "0"], "BadSampleCount"),
        (["game", "--spec", "uniform^2", "--samples", "-5"], "BadSampleCount"),
        (["figure3", "--n-list", "100,abc"], "BadNList"),
        (["entropy", "--spec", "explicit{L: 0.5, R: 0.4999999999}",
          "--epsilon", "0.99999999999"], "BadEpsilon"),
        (["game", "--spec", "explicit{L: 0.5, R: 0.4999999999}",
          "--epsilon", "0.99999999999"], "BadEpsilon"),
        (["game", "--spec", "uniform^2", "--samples", "1000000000000"], "TooLarge"),
        (["entropy", "--spec", "bernoulli(0.7)^1000000000000"], "TooLarge"),
        (["game", "--spec", "bernoulli(0.7)^4", "--seed", "-1"], "BadSeed"),
        (["game", "--spec", "bernoulli(0.7)^4", "--strategy", "gambler", "--bet-size", "2",
          "--seed", "-1"], "BadSeed"),
        (["oracle", "--spec", "bernoulli(0.7)^4", "--seed", "-1"], "BadSeed"),
        (["work", "--spec", "uniform^2", "--temperature-kelvin", "nan"], "NonpositiveTemperature"),
        (["work", "--spec", "uniform^2", "--temperature-kelvin", "inf"], "NonpositiveTemperature"),
        (["game", "--spec", "uniform^2", "--temperature-kelvin", "nan"], "NonpositiveTemperature"),
        (["game", "--spec", "uniform^2", "--temperature-kelvin", "inf"], "NonpositiveTemperature"),
        (["table1", "--n", "10", "--temperature-kelvin", "nan"], "NonpositiveTemperature"),
        (["table1", "--n", "10", "--temperature-kelvin", "inf"], "NonpositiveTemperature"),
        # mix weights must be positive and finite, whatever the terms
        (["entropy", "--spec", "mix(2: explicit{L: 1.0}, -1: det(R))"], "WeightSumError"),
        (["game", "--spec", "mix(2: explicit{L: 1.0}, -1: det(R))"], "WeightSumError"),
        (["entropy", "--spec", "mix(1.0: explicit{L: 1.0}, 0.0: explicit{R: 1.0})"],
         "WeightSumError"),
        (["entropy", "--spec", "mix(2: bernoulli(0.5)^2, -1: bernoulli(0.7)^2)"], "WeightSumError"),
        (["entropy", "--spec", "mix(1e999: bernoulli(0.5)^2, -1e999: bernoulli(0.7)^2)"],
         "WeightSumError"),
        (["entropy", "--spec", "mix(1e999: explicit{L: 1.0}, -1e999: det(R))"], "WeightSumError"),
        # an outcome index must fit int64: det(R L...L) on 64 and 70 boxes
        (["entropy", "--spec", f"mix(0.5: det(R{'L' * 63}), 0.5: det({'L' * 63}R))"],
         "SupportOverflow"),
        (["entropy", "--spec", f"mix(0.5: det(R{'L' * 69}), 0.5: det({'L' * 69}R))"],
         "SupportOverflow"),
        (["game", "--spec", f"det(R{'L' * 69})"], "SupportOverflow"),
        # a spec file that is missing, a directory, or not UTF-8
        (["entropy", "--spec-file", "{tmp}/missing.txt"], "UnreadableSpecFile"),
        (["entropy", "--spec-file", "{tmp}"], "UnreadableSpecFile"),
        (["entropy", "--spec-file", "{tmp}/latin1.txt"], "UnreadableSpecFile"),
        # the spec comes from one place: a spec file beside --spec is refused, not ignored
        (["entropy", "--spec", "uniform^2", "--spec-file", "{tmp}/missing.txt"], "UsageError"),
        # spec integers are ASCII digits: a superscript or an Arabic-Indic digit is no integer
        (["entropy", "--spec", "bernoulli(0.5)^\u00b2"], "ParseError"),
        (["entropy", "--spec", "uniform^\u0663"], "ParseError"),
        # command lines argparse rejects
        (["game", "--spec", "uniform^2", "--strategy", "foo"], "UsageError"),
        # the risk-free bet count comes from eps: a bet size beside it is refused, not ignored
        (["game", "--spec", "uniform^2", "--strategy", "riskfree", "--bet-size", "1"], "UsageError"),
        (["game", "--spec", "uniform^2", "--bet-size", "1"], "UsageError"),
        (["entropy", "--spec", "uniform^2", "--epsilon", "abc"], "UsageError"),
        ([], "UsageError"),
    ],
)
def test_cli_bad_arguments_are_input_errors(argv, code, tmp_path, capsys):
    (tmp_path / "latin1.txt").write_bytes("explicit{L: 0.5, R: 0.5} \xe9".encode("latin-1"))
    argv = [arg.replace("{tmp}", str(tmp_path)) for arg in argv]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err)["code"] == code


def test_readme_commands_match_the_golden_stdout(capsys):
    golden_path = Path(__file__).resolve().parent.parent / "perfbench/golden/cli_readme.json"
    golden = json.loads(golden_path.read_text())
    assert len(golden) == 6
    for label, want in golden.items():
        assert main(list(want["argv"])) == want["exit_code"], label
        assert capsys.readouterr().out == want["stdout"], label


def test_mixture_specs_match_the_golden_stdout(capsys):
    # mixes of explicit, det, uniform and bernoulli terms, ties and n up to 8,
    # and an all-L det in a 30-box mix, which takes no 2^30 expansion: every
    # printed figure of a table mixture is pinned byte for byte
    golden = json.loads((Path(__file__).resolve().parent / "mixture_goldens.json").read_text())
    assert len(golden) == 88
    for label, want in golden.items():
        assert main(list(want["argv"])) == want["exit_code"], label
        captured = capsys.readouterr()
        assert captured.out == want["stdout"], label
        assert captured.err == "", label


def test_every_command_and_format_matches_the_golden_output(capsys):
    # the CSV of entropy, work and game (an empty max_work at eps 0, a gambler
    # bet), table1 and figure3 in both formats, the hidden oracle command, and
    # the stderr envelopes of parse and argument errors, byte for byte
    golden = json.loads((Path(__file__).resolve().parent / "cli_format_goldens.json").read_text())
    assert len(golden) == 41
    for label, want in golden.items():
        assert main(list(want["argv"])) == want["exit_code"], label
        captured = capsys.readouterr()
        assert captured.out == want["stdout"], label
        assert captured.err == want["stderr"], label


def test_cli_import_leaves_scipy_unloaded():
    # n = 3000 takes its log-binomials from the Stirling row, not big-int binomials
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    probe = (
        "import sys, szilard.cli; print('scipy' in sys.modules); "
        "szilard.cli.cmd_entropy('bernoulli(0.7)^3000', 1e-3); print('scipy' in sys.modules)"
    )
    done = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["False", "False"]


def test_reference_grid_without_scipy(monkeypatch):
    # the benchmark's pinned class-path figures, n = 1000..100000, to its 1e-6 bits
    monkeypatch.setitem(sys.modules, "scipy", None)
    grid_path = Path(__file__).resolve().parent.parent / "perfbench/golden/reference_grid.json"
    grid = json.loads(grid_path.read_text())
    c = work_unit(300.0).joules
    assert len(grid) == 11
    for entry in grid:
        eps, want = entry["epsilon"], entry["values"]
        dist = to_distribution(parse_spec(entry["spec"]))
        report, bounds = smooth_report(dist, eps), work_bounds(dist, eps, c)
        got = {
            "shannon": report.shannon,
            "h_min": report.h_min,
            "h_max": report.h_max,
            "h_min_smooth": report.h_min_smooth,
            "h_max_smooth": report.h_max_smooth,
            "riskfree_bits": bounds.min_work.bits,
            "gambler_bits": bounds.max_work.bits,
            "executable_bits": riskfree_work_executable(dist, eps, c).bits,
        }
        assert got.keys() == want.keys()
        assert got["executable_bits"] == want["executable_bits"], (entry["spec"], eps)
        for key, value in want.items():
            assert abs(got[key] - value) <= 1e-6, (entry["spec"], eps, key)


def test_cli_spec_file(tmp_path, capsys):
    path = tmp_path / "spec.txt"
    path.write_text("uniform^2\n")
    assert main(["entropy", "--spec-file", str(path)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["shannon"] == 2.0


def test_cli_entropy_csv_format(capsys):
    main(["entropy", "--spec", "uniform^2", "--format", "csv"])
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0].startswith("n,epsilon,shannon")
    assert lines[1].startswith("2,0.001,2")


def test_cli_hidden_oracle_command(capsys):
    code = main(["oracle", "--spec", "explicit{LL: 0.5, LR: 0.3, RR: 0.2}",
                 "--epsilon", "0.25"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["brute_h_max_smooth"] == out["greedy_h_max_smooth"]
    assert out["brute_h_min_smooth"] <= out["greedy_h_min_smooth"] + 1e-6


def test_cli_oracle_prints_a_point_mass_zero_as_0(capsys):
    main(["oracle", "--spec", "det(LR)", "--epsilon", "0"])
    value = json.loads(capsys.readouterr().out)["brute_h_min_smooth"]
    assert value == 0.0 and math.copysign(1.0, value) == 1.0


def test_cli_oracle_agrees_where_the_budget_buys_whole_outcomes(capsys):
    # 0.625 = 5 / 8 deletes five of the eight outcomes of uniform^3
    main(["oracle", "--spec", "uniform^3", "--epsilon", "0.625"])
    out = json.loads(capsys.readouterr().out)
    assert out["greedy_h_max_smooth"] == out["brute_h_max_smooth"] == 1.58496


def test_cli_table1_json_format(capsys):
    main(["table1", "--format", "json", "--n", "100"])
    rows = json.loads(capsys.readouterr().out)
    assert [r["row"] for r in rows] == [1, 2, 3, 4]
    assert rows[3]["min_work_bits"] == 99.0


def test_cli_builds_one_spectrum_per_spec(monkeypatch):
    aggregate, unique = probdist.to_type_classes, np.unique
    classes, sorts = [], []

    def counting_classes(m):
        classes.append(m)
        return aggregate(m)

    def counting_unique(*args, **kwargs):
        sorts.append(args)
        return unique(*args, **kwargs)

    monkeypatch.setattr(probdist, "to_type_classes", counting_classes)
    monkeypatch.setattr(np, "unique", counting_unique)
    cmd_work("bernoulli(0.7)^3000", 1e-3, 300.0)
    cmd_work("mix(0.5: bernoulli(1.0)^40, 0.5: uniform^40)", 1e-3, 300.0)
    assert len(classes) == 2
    cmd_table1(1e-3, 300.0, 1000)
    assert len(classes) == 5  # rows 2 to 4, one spectrum each
    cmd_work("explicit{LL: 0.5, LR: 0.25, RR: 0.25}", 1e-3, 300.0)
    assert len(sorts) == 1
