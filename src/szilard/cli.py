"""Command-line front end.

Distribution specs use a tiny grammar:

    spec    := term | "mix(" wterm ("," wterm)+ ")"
    wterm   := number ":" term
    term    := "bernoulli(" number ")" "^" integer
             | "det(" [LR]+ ")"
             | "uniform" "^" integer
             | "explicit{" pair ("," pair)* "}"
    pair    := [LR]+ ":" number
    integer := [0-9]+
    number  := [0-9.eE+-]+, as Python's float() reads it

Integers and numbers are ASCII: any other Unicode digit is a ParseError.
Whitespace may separate tokens.

Mix weights must be positive and finite and sum to 1 within 1e-9. The
module only parses and prints: ``probdist.mixture`` forms a mix, a product
family when every term is one (bernoulli, uniform, an all-L or all-R det)
and an explicit table otherwise.

Commands emit JSON (stable key order) or CSV (comma separator, header row,
Unix newlines); errors go to stderr as a JSON envelope with a stable
``code`` field. Exit codes: 0 ok, 1 input error (a bad spec or spec file,
or a bad command line), 2 internal invariant violation.
"""
from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import sys
from dataclasses import dataclass

from . import entropy, game, oracle, probdist
from .errors import (
    ArityMismatch,
    BadNList,
    ParseError,
    SzilardError,
    UnreadableSpecFile,
    UsageError,
    WeightSumError,
)
from .rng import make_rng


# ---------------------------------------------------------------- spec AST


@dataclass(frozen=True)
class SpecBernoulli:
    q: float
    n: int


@dataclass(frozen=True)
class SpecDet:
    bits: str  # the L/R string


@dataclass(frozen=True)
class SpecExplicit:
    pairs: tuple[tuple[str, float], ...]  # (L/R string, probability)


@dataclass(frozen=True)
class SpecMix:
    terms: tuple[tuple[float, object], ...]


def spec_arity(node) -> int:
    if isinstance(node, SpecBernoulli):
        return node.n
    if isinstance(node, SpecDet):
        return len(node.bits)
    if isinstance(node, SpecExplicit):
        return len(node.pairs[0][0])
    if isinstance(node, SpecMix):
        return spec_arity(node.terms[0][1])
    raise TypeError(node)


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def error(self, message: str, expected: str | None = None, at: int | None = None):
        at = self.pos if at is None else at
        prefix = self.text[:at]
        line = prefix.count("\n") + 1
        col = at - (prefix.rfind("\n") + 1) + 1
        raise ParseError(message, line, col, expected)

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def accept(self, literal: str) -> bool:
        self.skip_ws()
        if not self.text.startswith(literal, self.pos):
            return False
        self.pos += len(literal)
        return True

    def expect(self, literal: str):
        if not self.accept(literal):
            self.error(f"expected {literal!r}", expected=literal)

    def scan(self, allowed: str) -> tuple[int, str]:
        """The longest run of characters in ``allowed`` after any whitespace,
        with the position where it starts."""
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos] in allowed:
            self.pos += 1
        return start, self.text[start : self.pos]

    def number(self) -> float:
        start, token = self.scan("0123456789.eE+-")
        try:
            return float(token)
        except ValueError:
            self.error(f"expected a number, got {token!r}", expected="number", at=start)

    def integer(self) -> int:
        start, token = self.scan("0123456789")
        if not token:
            self.error("expected an integer", expected="integer", at=start)
        return int(token)

    def lr_string(self) -> str:
        start, token = self.scan("LR")
        if not token:
            self.error("expected an L/R string", expected="[LR]+", at=start)
        return token

    def probability(self) -> float:
        self.skip_ws()
        start = self.pos
        value = self.number()
        if not 0.0 <= value <= 1.0:
            self.error(f"probability {value} out of range [0, 1]", at=start)
        return value

    def term(self):
        if self.accept("bernoulli"):
            self.expect("(")
            q = self.probability()
            self.expect(")")
            self.expect("^")
            return SpecBernoulli(q, self.integer())
        if self.accept("det"):
            self.expect("(")
            bits = self.lr_string()
            self.expect(")")
            return SpecDet(bits)
        if self.accept("uniform"):
            self.expect("^")
            return SpecBernoulli(0.5, self.integer())
        if self.accept("explicit"):
            self.expect("{")
            pairs = [self.pair()]
            while self.accept(","):
                pairs.append(self.pair())
            self.expect("}")
            if len({len(bits) for bits, _ in pairs}) != 1:
                raise ArityMismatch("explicit outcomes differ in length")
            return SpecExplicit(tuple(pairs))
        self.error(
            "expected bernoulli(...), det(...), uniform^n or explicit{...}",
            expected="term",
        )

    def pair(self) -> tuple[str, float]:
        bits = self.lr_string()
        self.expect(":")
        return bits, self.number()

    def spec(self):
        if self.accept("mix"):
            self.expect("(")
            terms = [self.wterm()]
            while self.accept(","):
                terms.append(self.wterm())
            self.expect(")")
            if len(terms) < 2:
                self.error("mix(...) needs at least two weighted terms")
            node = SpecMix(tuple(terms))
            weights = [w for w, _ in node.terms]
            if not all(math.isfinite(w) for w in weights):  # fsum raises on inf - inf
                raise WeightSumError(f"mixture weights must be finite, got {weights}")
            if abs(math.fsum(weights) - 1.0) > 1e-9:
                raise WeightSumError(f"mixture weights sum to {math.fsum(weights)!r}")
            arities = {spec_arity(t) for _, t in node.terms}
            if len(arities) != 1:
                raise ArityMismatch(f"mixture terms have box counts {sorted(arities)}")
            return node
        return self.term()

    def wterm(self) -> tuple[float, object]:
        w = self.number()
        self.expect(":")
        return w, self.term()


def parse_spec(text: str):
    parser = _Parser(text)
    node = parser.spec()
    parser.skip_ws()
    if parser.pos != len(parser.text):
        parser.error("trailing input after spec")
    return node


# ------------------------------------------------------- AST -> distribution


def _term(node) -> probdist.MixtureOfProducts | probdist.ExplicitDistribution:
    """One term's distribution: a product family where the term is one, else a table."""
    if isinstance(node, SpecExplicit):
        return probdist.make_explicit(spec_arity(node), node.pairs)
    if isinstance(node, SpecDet):
        if len(set(node.bits)) > 1:
            return probdist.point_mass(node.bits)
        return probdist.bernoulli_product(1.0 if node.bits[0] == "L" else 0.0, len(node.bits))
    return probdist.bernoulli_product(node.q, node.n)


def to_distribution(node):
    """The distribution a parsed spec denotes; ``probdist.mixture`` forms a mix
    from its weights, normalised as the parser lets them sum to 1 within 1e-9."""
    if isinstance(node, SpecMix):
        total = math.fsum(w for w, _ in node.terms)
        weights = [w / total for w, _ in node.terms]
        return probdist.mixture(weights, [_term(t) for _, t in node.terms])
    return _term(node)


# ----------------------------------------------------------------- rendering


def _sig6(x: float) -> float:
    return float(f"{x:.6g}")


def _work_dict(w: game.Work) -> dict:
    return {"bits": _sig6(w.bits), "joules": _sig6(w.joules), "ev": _sig6(w.ev)}


# ----------------------------------------------------------------- commands


def cmd_entropy(spec_text: str, eps: float) -> dict:
    dist = to_distribution(parse_spec(spec_text))
    report = entropy.smooth_report(dist, eps)
    return {
        "n": report.n,
        "epsilon": report.epsilon,
        "shannon": _sig6(report.shannon),
        "h_min": _sig6(report.h_min),
        "h_max": _sig6(report.h_max),
        "h_min_smooth": _sig6(report.h_min_smooth),
        "h_max_smooth": _sig6(report.h_max_smooth),
    }


def cmd_work(spec_text: str, eps: float, temperature: float) -> dict:
    dist = to_distribution(parse_spec(spec_text))
    c = game.work_unit(temperature)
    out = {
        "n": dist.n,
        "epsilon": eps,
        "temperature_kelvin": temperature,
        "work_value": _work_dict(c),
        "min_work": _work_dict(game.riskfree_work(dist, eps, c.joules)),
        "min_work_executable": _work_dict(
            game.riskfree_work_executable(dist, eps, c.joules)
        ),
        "max_work": (
            _work_dict(game.gambler_work_bound(dist, eps, c.joules)) if eps > 0 else None
        ),
        "shannon_limit": None,
        "bennett": None,
    }
    if isinstance(dist, probdist.MixtureOfProducts) and len(dist.components) == 1:
        q = dist.components[0][1]
        out["shannon_limit"] = _work_dict(game.shannon_limit_work(q, dist.n, c.joules))
    # compression leaves every box known or uniform exactly when the
    # distribution is flat on 2^j outcomes; then j boxes are unknown
    count = dist.levels.count
    if count is not None and count.size == 1:
        k = int(count[0])
        if k & (k - 1) == 0:
            known = dist.n - (k.bit_length() - 1)
            out["bennett"] = _work_dict(game.Work.from_bits(known, c.joules))
    return out


def cmd_game(
    spec_text: str,
    strategy_kind: str,
    bet_size: int | None,
    config: game.GameConfig,
) -> dict:
    if bet_size is not None and strategy_kind != "gambler":
        raise UsageError("--bet-size applies to --strategy gambler only")
    dist = probdist.explicit_of(to_distribution(parse_spec(spec_text)))
    c = config.work_value
    if strategy_kind == "riskfree":
        strategy = game.build_riskfree_strategy(dist, config.epsilon, c)
    else:
        m = bet_size if bet_size is not None else dist.n
        strategy = game.build_gambler_strategy(dist, m, c)
    exact = game.exact_evaluate(dist, strategy)
    mc = game.monte_carlo(dist, strategy, config)
    violations = game.check_inequalities(dist, strategy, exact, config.epsilon, c)
    bounds = game.work_bounds(dist, config.epsilon, c) if config.epsilon > 0 else None
    return {
        "n": dist.n,
        "epsilon": config.epsilon,
        "temperature_kelvin": config.temperature,
        "strategy": {
            "kind": strategy_kind,
            "bets": [{"position": p, "guess": "LR"[v]} for p, v in strategy.bets],
            "committed_work": _work_dict(game.Work.from_bits(strategy.bet_count, c)),
        },
        "exact": {
            "success_prob": _sig6(exact.success_prob),
            "expected_work": _work_dict(game.Work.from_bits(exact.expected_work / c, c)),
        },
        "monte_carlo": {
            "success_rate": _sig6(mc.success_rate),
            "mean_work": _work_dict(game.Work.from_bits(mc.mean_work / c, c)),
            "stderr": _sig6(mc.stderr),
            "seed": mc.seed,
            "n_samples": mc.n_samples,
        },
        "theorem_bounds": (
            {
                "min_work": _work_dict(bounds.min_work),
                "max_work": _work_dict(bounds.max_work),
            }
            if bounds is not None
            else None
        ),
        "violations": violations,
    }


def cmd_table1(eps: float, temperature: float, n: int) -> tuple[list[str], list[list]]:
    c = game.work_unit(temperature)
    header = ["row", "distribution", "min_work_bits", "max_work_bits", "min_work_eV", "max_work_eV"]
    rows: list[list] = []
    limit = game.shannon_limit_work(0.7, n, c.joules)
    rows.append([1, f"bernoulli(0.7)^{n} (n->infinity limit)", limit.bits, limit.bits, limit.ev, limit.ev])
    for row_id, spec_text in (
        (2, f"bernoulli(0.7)^{n}"),
        (3, f"mix(0.5: bernoulli(1.0)^{n}, 0.5: bernoulli(0.5)^{n})"),
        (4, f"mix(0.5: bernoulli(1.0)^{n}, 0.5: bernoulli(0.0)^{n})"),
    ):
        dist = to_distribution(parse_spec(spec_text))
        bounds = game.work_bounds(dist, eps, c.joules)
        rows.append(
            [row_id, spec_text, bounds.min_work.bits, bounds.max_work.bits,
             bounds.min_work.ev, bounds.max_work.ev]
        )
    return header, rows


def cmd_figure3(p: float, eps: float, n_list: list[int]) -> tuple[list[str], list[list]]:
    header = ["n", "h_min_smooth", "shannon", "h_max_smooth", "epsilon", "p"]
    rows: list[list] = []
    for n in n_list:
        dist = probdist.bernoulli_product(p, n)
        report = entropy.smooth_report(dist, eps)
        rows.append(
            [n, report.h_min_smooth, report.shannon, report.h_max_smooth, eps, p]
        )
    return header, rows


def cmd_oracle(spec_text: str, eps: float, seed: int) -> dict:
    dist = probdist.explicit_of(to_distribution(parse_spec(spec_text)))
    return {
        "n": dist.n,
        "epsilon": eps,
        "brute_h_max_smooth": _sig6(oracle.brute_hmax_smooth(dist, eps)),
        "brute_h_min_smooth": _sig6(
            oracle.brute_hmin_smooth(dist, eps, rng=make_rng(seed))
        ),
        "greedy_h_max_smooth": _sig6(entropy.h_max_smooth(dist, eps)),
        "greedy_h_min_smooth": _sig6(entropy.h_min_smooth(dist, eps)),
    }


# --------------------------------------------------------------- entry point


def _read_spec(args) -> str:
    if args.spec is not None and args.spec_file is not None:
        raise UsageError("give --spec or --spec-file, not both")
    if args.spec is not None:
        return args.spec
    if args.spec_file is not None:
        try:
            with open(args.spec_file, encoding="utf-8") as fh:
                return fh.read().strip()
        except (OSError, UnicodeDecodeError) as exc:
            raise UnreadableSpecFile(f"cannot read --spec-file: {exc}") from None
    raise SzilardError("one of --spec or --spec-file is required")


class _ArgumentParser(argparse.ArgumentParser):
    """Usage errors are input errors, reported in the JSON envelope with exit
    code 1; subparsers are built from the same class."""

    def error(self, message: str):
        raise UsageError(message)


#: every flag once, with its argparse keywords; game defaults are GameConfig's
_FLAGS = {
    "--spec": {"help": "distribution spec text"},
    "--spec-file": {"help": "file containing the spec text"},
    "--p": {"type": float, "default": 0.7},
    "--epsilon": {"type": float, "default": game.GameConfig.epsilon},
    "--temperature-kelvin": {"type": float, "default": game.GameConfig.temperature},
    "--seed": {"type": int, "default": game.GameConfig.seed},
    "--samples": {"type": int, "default": game.GameConfig.n_samples},
    "--strategy": {"choices": ["riskfree", "gambler"], "default": "riskfree"},
    "--bet-size": {"type": int},
    "--n": {"type": int, "default": 1000},
    "--n-list": {"default": "100,200,400,800,1600"},
}

#: every command once: its help (None hides it), its default --format (None
#: for JSON only, without the flag) and its other flags in --help order
_COMMANDS = {
    "entropy": ("entropy report for a distribution spec", "json", "--spec --spec-file --epsilon"),
    "work": ("risk-free and gambling work figures", "json",
             "--spec --spec-file --epsilon --temperature-kelvin"),
    "game": ("play the extraction game: exact + Monte Carlo", "json",
             "--spec --spec-file --epsilon --temperature-kelvin "
             "--seed --samples --strategy --bet-size"),
    "table1": ("benchmark work-value table (four families)", "csv",
               "--epsilon --temperature-kelvin --n"),
    "figure3": ("entropy convergence scan over n", "csv", "--p --epsilon --n-list"),
    "oracle": (None, None, "--spec --spec-file --epsilon --seed"),  # brute-force cross-check
}


@functools.cache
def build_arg_parser() -> argparse.ArgumentParser:
    """The argument tree, built on first use and shared by every later call."""
    top = _ArgumentParser(
        prog="szilard",
        description="Smooth entropies and work extraction for two-state boxes.",
    )
    listed = [name for name, (help_text, _, _) in _COMMANDS.items() if help_text]
    subs = top.add_subparsers(dest="command", required=True, metavar="{%s}" % ",".join(listed))
    for name, (help_text, form, flags) in _COMMANDS.items():
        p = subs.add_parser(name, **({"help": help_text} if help_text else {}))
        for flag in flags.split():
            p.add_argument(flag, **_FLAGS[flag])
        if form:
            p.add_argument("--format", choices=["json", "csv"], default=form)
    return top


def _parse_n_list(text: str) -> list[int]:
    try:
        return [int(x) for x in text.split(",") if x.strip()]
    except ValueError:
        raise BadNList(f"--n-list needs comma-separated integers, got {text!r}") from None


def _rows_to_json(header: list[str], rows: list[list]) -> list[dict]:
    return [
        {key: (_sig6(v) if isinstance(v, float) else v) for key, v in zip(header, row)}
        for row in rows
    ]


def _one_row(flat: dict) -> tuple[list[str], list[list]]:
    return list(flat), [list(flat.values())]


def run(argv: list[str] | None = None) -> int:
    """Each command computes its JSON result and its CSV header and rows;
    one step writes the form ``--format`` names (the hidden ``oracle`` is
    JSON only). Exit code 2 when the game reports violations."""
    args = build_arg_parser().parse_args(argv)
    code = 0
    if args.command == "entropy":
        result = cmd_entropy(_read_spec(args), args.epsilon)
        header, rows = _one_row(result)
    elif args.command == "work":
        result = cmd_work(_read_spec(args), args.epsilon, args.temperature_kelvin)
        max_work = result["max_work"] or {"bits": "", "ev": ""}
        header, rows = _one_row({
            "n": result["n"],
            "epsilon": result["epsilon"],
            "temperature_kelvin": result["temperature_kelvin"],
            "min_work_bits": result["min_work"]["bits"],
            "max_work_bits": max_work["bits"],
            "min_work_eV": result["min_work"]["ev"],
            "max_work_eV": max_work["ev"],
        })
    elif args.command == "game":
        config = game.GameConfig(
            temperature=args.temperature_kelvin,
            epsilon=args.epsilon,
            seed=args.seed,
            n_samples=args.samples,
        )
        result = cmd_game(_read_spec(args), args.strategy, args.bet_size, config)
        header, rows = _one_row({
            "n": result["n"],
            "epsilon": result["epsilon"],
            "success_prob": result["exact"]["success_prob"],
            "mc_success_rate": result["monte_carlo"]["success_rate"],
            "mc_stderr": result["monte_carlo"]["stderr"],
            "committed_work_bits": result["strategy"]["committed_work"]["bits"],
            "violations": ";".join(result["violations"]),
        })
        code = 2 if result["violations"] else 0
    elif args.command == "oracle":
        result = cmd_oracle(_read_spec(args), args.epsilon, args.seed)
    else:
        if args.command == "table1":
            header, rows = cmd_table1(args.epsilon, args.temperature_kelvin, args.n)
        else:
            header, rows = cmd_figure3(args.p, args.epsilon, _parse_n_list(args.n_list))
        result = _rows_to_json(header, rows)
    if getattr(args, "format", "json") == "json":
        sys.stdout.write(json.dumps(result, indent=2) + "\n")
    else:
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([f"{v:.6g}" if isinstance(v, float) else v for v in row])
    return code


def main(argv: list[str] | None = None) -> int:
    try:
        return run(argv)
    except ParseError as exc:
        envelope = {
            "code": "ParseError",
            "message": exc.message,
            "line": exc.line,
            "col": exc.col,
        }
        if exc.expected:
            envelope["expected"] = exc.expected
        sys.stderr.write(json.dumps(envelope) + "\n")
        return 1
    except SzilardError as exc:
        sys.stderr.write(
            json.dumps({"code": type(exc).__name__, "message": str(exc)}) + "\n"
        )
        return 1
    except Exception as exc:  # internal invariant violation
        sys.stderr.write(
            json.dumps({"code": "InternalError", "message": f"{type(exc).__name__}: {exc}"})
            + "\n"
        )
        return 2


if __name__ == "__main__":
    sys.exit(main())
