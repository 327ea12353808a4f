"""Command-line front end.

Distribution specs use a tiny grammar:

    spec   := term | "mix(" wterm ("," wterm)+ ")"
    wterm  := number ":" term
    term   := "bernoulli(" number ")" "^" integer
            | "det(" [LR]+ ")"
            | "uniform" "^" integer
            | "explicit{" pair ("," pair)* "}"
    pair   := [LR]+ ":" number

Commands emit JSON (stable key order) or CSV (comma separator, header row,
Unix newlines); errors go to stderr as a JSON envelope with a stable
``code`` field. Exit codes: 0 ok, 1 input error, 2 internal invariant
violation.
"""
from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from dataclasses import dataclass

import numpy as np

from . import entropy, game, oracle, probdist
from .errors import ArityMismatch, BadNList, ParseError, SzilardError, WeightSumError

DEFAULT_EPSILON = 1e-3
DEFAULT_TEMPERATURE = 300.0
DEFAULT_SAMPLES = 100_000
DEFAULT_SEED = 0


# ---------------------------------------------------------------- spec AST


@dataclass(frozen=True)
class SpecBernoulli:
    q: float
    n: int


@dataclass(frozen=True)
class SpecDet:
    bits: tuple[int, ...]


@dataclass(frozen=True)
class SpecUniform:
    n: int


@dataclass(frozen=True)
class SpecExplicit:
    pairs: tuple[tuple[tuple[int, ...], float], ...]


@dataclass(frozen=True)
class SpecMix:
    terms: tuple[tuple[float, object], ...]


def spec_arity(node) -> int:
    if isinstance(node, (SpecBernoulli, SpecUniform)):
        return node.n
    if isinstance(node, SpecDet):
        return len(node.bits)
    if isinstance(node, SpecExplicit):
        return len(node.pairs[0][0])
    if isinstance(node, SpecMix):
        return spec_arity(node.terms[0][1])
    raise TypeError(node)


def render_spec(node) -> str:
    """Canonical text form; reparsing it yields an identical AST."""
    if isinstance(node, SpecBernoulli):
        return f"bernoulli({node.q!r})^{node.n}"
    if isinstance(node, SpecDet):
        return f"det({''.join('LR'[b] for b in node.bits)})"
    if isinstance(node, SpecUniform):
        return f"uniform^{node.n}"
    if isinstance(node, SpecExplicit):
        inner = ", ".join(
            f"{''.join('LR'[b] for b in bits)}: {p!r}" for bits, p in node.pairs
        )
        return f"explicit{{{inner}}}"
    if isinstance(node, SpecMix):
        inner = ", ".join(f"{w!r}: {render_spec(t)}" for w, t in node.terms)
        return f"mix({inner})"
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

    def expect(self, literal: str):
        self.skip_ws()
        if not self.text.startswith(literal, self.pos):
            self.error(f"expected {literal!r}", expected=literal)
        self.pos += len(literal)

    def peek(self, literal: str) -> bool:
        self.skip_ws()
        return self.text.startswith(literal, self.pos)

    def number(self) -> float:
        self.skip_ws()
        start = self.pos
        allowed = "0123456789.eE+-"
        while self.pos < len(self.text) and self.text[self.pos] in allowed:
            self.pos += 1
        token = self.text[start : self.pos]
        try:
            return float(token)
        except ValueError:
            self.error(f"expected a number, got {token!r}", expected="number", at=start)

    def integer(self) -> int:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if start == self.pos:
            self.error("expected an integer", expected="integer", at=start)
        return int(self.text[start : self.pos])

    def lr_string(self) -> tuple[int, ...]:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos] in "LR":
            self.pos += 1
        if start == self.pos:
            self.error("expected an L/R string", expected="[LR]+", at=start)
        return tuple(0 if ch == "L" else 1 for ch in self.text[start : self.pos])

    def probability(self) -> float:
        self.skip_ws()
        start = self.pos
        value = self.number()
        if not 0.0 <= value <= 1.0:
            self.error(f"probability {value} out of range [0, 1]", at=start)
        return value

    def term(self):
        self.skip_ws()
        if self.peek("bernoulli"):
            self.expect("bernoulli")
            self.expect("(")
            q = self.probability()
            self.expect(")")
            self.expect("^")
            n = self.integer()
            return SpecBernoulli(q, n)
        if self.peek("det"):
            self.expect("det")
            self.expect("(")
            bits = self.lr_string()
            self.expect(")")
            return SpecDet(bits)
        if self.peek("uniform"):
            self.expect("uniform")
            self.expect("^")
            return SpecUniform(self.integer())
        if self.peek("explicit"):
            self.expect("explicit")
            self.expect("{")
            pairs = [self.pair()]
            while self.peek(","):
                self.expect(",")
                pairs.append(self.pair())
            self.expect("}")
            if len({len(bits) for bits, _ in pairs}) != 1:
                raise ArityMismatch("explicit outcomes differ in length")
            return SpecExplicit(tuple(pairs))
        self.error(
            "expected bernoulli(...), det(...), uniform^n or explicit{...}",
            expected="term",
        )

    def pair(self) -> tuple[tuple[int, ...], float]:
        bits = self.lr_string()
        self.expect(":")
        return bits, self.number()

    def spec(self):
        self.skip_ws()
        if self.peek("mix"):
            self.expect("mix")
            self.expect("(")
            terms = [self.wterm()]
            while self.peek(","):
                self.expect(",")
                terms.append(self.wterm())
            self.expect(")")
            if len(terms) < 2:
                self.error("mix(...) needs at least two weighted terms")
            node = SpecMix(tuple(terms))
            weights = [w for w, _ in node.terms]
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


def _product_left_prob(node) -> float | None:
    """Left probability when the term is an i.i.d. product, else None."""
    if isinstance(node, SpecBernoulli):
        return node.q
    if isinstance(node, SpecUniform):
        return 0.5
    if isinstance(node, SpecDet):
        if all(b == 0 for b in node.bits):
            return 1.0
        if all(b == 1 for b in node.bits):
            return 0.0
    return None


def _term_explicit(node) -> probdist.ExplicitDistribution:
    if isinstance(node, SpecDet):
        return probdist.point_mass(probdist.Outcome(node.bits))
    if isinstance(node, SpecExplicit):
        n = len(node.pairs[0][0])
        return probdist.make_explicit(
            n, [(probdist.Outcome(bits), p) for bits, p in node.pairs]
        )
    q = _product_left_prob(node)
    return probdist.explicit_of(probdist.bernoulli_product(q, spec_arity(node)))


def to_distribution(node):
    """Structured (mixture) representation when possible, else explicit."""
    if isinstance(node, SpecMix):
        weights = [w for w, _ in node.terms]
        total = math.fsum(weights)
        weights = [w / total for w in weights]  # parser tolerates 1e-9 slack
        lefts = [_product_left_prob(t) for _, t in node.terms]
        if all(q is not None for q in lefts):
            return probdist.mixture(
                weights,
                [probdist.bernoulli_product(q, spec_arity(node)) for q in lefts],
            )
        parts = [_term_explicit(t) for _, t in node.terms]
        # bincount adds in input order, term by term, as a running sum would
        indices, inverse = np.unique(
            np.concatenate([part.indices for part in parts]), return_inverse=True
        )
        probs = np.bincount(
            inverse, weights=np.concatenate([w * part.probs for w, part in zip(weights, parts)])
        )
        return probdist._from_arrays(spec_arity(node), indices, probs)
    q = _product_left_prob(node)
    if q is not None:
        return probdist.bernoulli_product(q, spec_arity(node))
    return _term_explicit(node)


# ----------------------------------------------------------------- rendering


def _sig6(x: float) -> float:
    return float(f"{x:.6g}")


def _work_dict(w: game.Work) -> dict:
    return {"bits": _sig6(w.bits), "joules": _sig6(w.joules), "ev": _sig6(w.ev)}


def _emit_json(obj) -> str:
    return json.dumps(obj, indent=2) + "\n"


def _emit_csv(header: list[str], rows: list[list]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([f"{v:.6g}" if isinstance(v, float) else v for v in row])
    return buf.getvalue()


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
    dist = to_distribution(parse_spec(spec_text))
    if not isinstance(dist, probdist.ExplicitDistribution):
        dist = probdist.explicit_of(dist)
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
            "committed_work": _work_dict(
                game.Work.from_bits(len(strategy.bets), c)
            ),
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
    dist = to_distribution(parse_spec(spec_text))
    if not isinstance(dist, probdist.ExplicitDistribution):
        dist = probdist.explicit_of(dist)
    from .rng import make_rng

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
    if getattr(args, "spec", None):
        return args.spec
    if getattr(args, "spec_file", None):
        with open(args.spec_file, encoding="utf-8") as fh:
            return fh.read().strip()
    raise SzilardError("one of --spec or --spec-file is required")


def _add_spec_flags(sub):
    sub.add_argument("--spec", help="distribution spec text")
    sub.add_argument("--spec-file", help="file containing the spec text")


def build_arg_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="szilard",
        description="Smooth entropies and work extraction for two-state boxes.",
    )
    subs = top.add_subparsers(
        dest="command", required=True, metavar="{entropy,work,game,table1,figure3}"
    )

    p = subs.add_parser("entropy", help="entropy report for a distribution spec")
    _add_spec_flags(p)
    p.add_argument("--epsilon", type=float, default=DEFAULT_EPSILON)
    p.add_argument("--format", choices=["json", "csv"], default="json")

    p = subs.add_parser("work", help="risk-free and gambling work figures")
    _add_spec_flags(p)
    p.add_argument("--epsilon", type=float, default=DEFAULT_EPSILON)
    p.add_argument("--temperature-kelvin", type=float, default=DEFAULT_TEMPERATURE)
    p.add_argument("--format", choices=["json", "csv"], default="json")

    p = subs.add_parser("game", help="play the extraction game: exact + Monte Carlo")
    _add_spec_flags(p)
    p.add_argument("--epsilon", type=float, default=DEFAULT_EPSILON)
    p.add_argument("--temperature-kelvin", type=float, default=DEFAULT_TEMPERATURE)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--samples", type=int, default=DEFAULT_SAMPLES)
    p.add_argument("--strategy", choices=["riskfree", "gambler"], default="riskfree")
    p.add_argument("--bet-size", type=int, default=None)
    p.add_argument("--format", choices=["json", "csv"], default="json")

    p = subs.add_parser("table1", help="benchmark work-value table (four families)")
    p.add_argument("--epsilon", type=float, default=DEFAULT_EPSILON)
    p.add_argument("--temperature-kelvin", type=float, default=DEFAULT_TEMPERATURE)
    p.add_argument("--n", type=int, default=1000)
    p.add_argument("--format", choices=["json", "csv"], default="csv")

    p = subs.add_parser("figure3", help="entropy convergence scan over n")
    p.add_argument("--p", type=float, default=0.7)
    p.add_argument("--epsilon", type=float, default=DEFAULT_EPSILON)
    p.add_argument("--n-list", default="100,200,400,800,1600")
    p.add_argument("--format", choices=["json", "csv"], default="csv")

    p = subs.add_parser("oracle")  # hidden: brute-force cross-check
    _add_spec_flags(p)
    p.add_argument("--epsilon", type=float, default=DEFAULT_EPSILON)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)

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


def run(argv: list[str] | None = None) -> int:
    args = build_arg_parser().parse_args(argv)
    if args.command == "entropy":
        result = cmd_entropy(_read_spec(args), args.epsilon)
        if args.format == "csv":
            keys = list(result)
            sys.stdout.write(_emit_csv(keys, [[result[k] for k in keys]]))
        else:
            sys.stdout.write(_emit_json(result))
        return 0
    if args.command == "work":
        result = cmd_work(_read_spec(args), args.epsilon, args.temperature_kelvin)
        if args.format == "csv":
            flat = {
                "n": result["n"],
                "epsilon": result["epsilon"],
                "temperature_kelvin": result["temperature_kelvin"],
                "min_work_bits": result["min_work"]["bits"],
                "max_work_bits": result["max_work"]["bits"] if result["max_work"] else "",
                "min_work_eV": result["min_work"]["ev"],
                "max_work_eV": result["max_work"]["ev"] if result["max_work"] else "",
            }
            sys.stdout.write(_emit_csv(list(flat), [list(flat.values())]))
        else:
            sys.stdout.write(_emit_json(result))
        return 0
    if args.command == "game":
        config = game.GameConfig(
            temperature=args.temperature_kelvin,
            epsilon=args.epsilon,
            seed=args.seed,
            n_samples=args.samples,
        )
        result = cmd_game(_read_spec(args), args.strategy, args.bet_size, config)
        if args.format == "csv":
            flat = {
                "n": result["n"],
                "epsilon": result["epsilon"],
                "success_prob": result["exact"]["success_prob"],
                "mc_success_rate": result["monte_carlo"]["success_rate"],
                "mc_stderr": result["monte_carlo"]["stderr"],
                "committed_work_bits": result["strategy"]["committed_work"]["bits"],
                "violations": ";".join(result["violations"]),
            }
            sys.stdout.write(_emit_csv(list(flat), [list(flat.values())]))
        else:
            sys.stdout.write(_emit_json(result))
        return 2 if result["violations"] else 0
    if args.command == "table1":
        header, rows = cmd_table1(args.epsilon, args.temperature_kelvin, args.n)
        if args.format == "json":
            sys.stdout.write(_emit_json(_rows_to_json(header, rows)))
        else:
            sys.stdout.write(_emit_csv(header, rows))
        return 0
    if args.command == "figure3":
        n_list = _parse_n_list(args.n_list)
        header, rows = cmd_figure3(args.p, args.epsilon, n_list)
        if args.format == "json":
            sys.stdout.write(_emit_json(_rows_to_json(header, rows)))
        else:
            sys.stdout.write(_emit_csv(header, rows))
        return 0
    if args.command == "oracle":
        sys.stdout.write(_emit_json(cmd_oracle(_read_spec(args), args.epsilon, args.seed)))
        return 0
    raise AssertionError(f"unhandled command {args.command}")


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
