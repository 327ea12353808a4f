"""The benchmark's workloads: inputs drawn from a seed, the op each input
drives through the library, and the check of every op's output.

Every workload hands out its inputs in *blocks*. A block is balanced: it
covers each stratum of the input sizes once, in a fixed order, so a run that
stops at a block boundary measures the same mix of sizes whatever the seed,
and the op in one position of a block (its *slot*) has the same size in
every block. The seed decides the values inside the strata.

The ops call the library through ``call(name, *args)``, where ``name`` is a
key of ``tracing.FUNCTIONS``. The untraced run passes a plain dispatcher and
the traced run one that records a span around each call, so the traced run
times the calls the benchmark makes without tracing inside the library.
"""
from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from szilard import cli, entropy, game, probdist

HERE = Path(__file__).resolve().parent
GOLDEN_DIR = HERE / "golden"

#: work value of one box at 300 K, in joules (the CLI's default temperature)
C = game.work_unit(300.0).joules
#: plays per Monte Carlo call, as in the CLI default
MC_SAMPLES = 100_000
#: eps is drawn log-uniform in this range on every workload
EPS_RANGE = (1e-5, 1e-2)
#: per-box L probability is drawn uniformly in this range
Q_RANGE = (0.6, 0.8)

# The six README commands, each with the spec texts its command parses. The
# traced run probes cli.parse_spec and cli.to_distribution on those specs.
README_COMMANDS = (
    ("entropy", ["entropy", "--spec", "bernoulli(0.7)^1000", "--epsilon", "2e-4"],
     ["bernoulli(0.7)^1000"]),
    ("work", ["work", "--spec", "mix(0.5: bernoulli(1.0)^20, 0.5: bernoulli(0.5)^20)"],
     ["mix(0.5: bernoulli(1.0)^20, 0.5: bernoulli(0.5)^20)"]),
    ("game_riskfree", ["game", "--spec", "explicit{LL: 0.5, RR: 0.5}", "--epsilon", "0",
                       "--seed", "9"],
     ["explicit{LL: 0.5, RR: 0.5}"]),
    ("game_gambler", ["game", "--spec", "bernoulli(0.7)^8", "--strategy", "gambler",
                      "--bet-size", "4"],
     ["bernoulli(0.7)^8"]),
    ("table1", ["table1", "--epsilon", "2e-4", "--temperature-kelvin", "300", "--n", "1000"],
     ["bernoulli(0.7)^1000", "mix(0.5: bernoulli(1.0)^1000, 0.5: bernoulli(0.5)^1000)",
      "mix(0.5: bernoulli(1.0)^1000, 0.5: bernoulli(0.0)^1000)"]),
    ("figure3", ["figure3", "--p", "0.7", "--epsilon", "1e-3", "--n-list",
                 "100,200,400,800,1600"],
     []),
)


class InputRefused(Exception):
    """A generated input lies outside what the benchmark may run."""


def refuse_over_cap(n: int):
    """Refuse an explicit table whose outcome space exceeds the default cap.

    The cap stays at 2^24: with a raised cap, a sparse table at n = 30 asks
    numpy for 8 GiB and fails with an untyped MemoryError (see NOTES.md).
    """
    if n < 1 or (1 << n) > probdist.DEFAULT_EXPLICIT_CAP:
        raise InputRefused(
            f"explicit table on {n} boxes exceeds the cap {probdist.DEFAULT_EXPLICIT_CAP}"
        )


def log_uniform(lo: float, hi: float, u: float) -> float:
    return lo * (hi / lo) ** u


def draw_q(u: float) -> float:
    """The per-box L probability at position u of Q_RANGE, to 4 digits."""
    return round(Q_RANGE[0] + (Q_RANGE[1] - Q_RANGE[0]) * u, 4)


def strata(rng: np.random.Generator, k: int) -> np.ndarray:
    """k points of [0, 1), one in each of k equal strata, in random order."""
    return (rng.permutation(k) + rng.random(k)) / k


def spec_text(kind: int, q: float, n: int) -> str:
    """The paper's i.i.d. family (kind 0) or its half-deterministic mixture (kind 1)."""
    if kind == 0:
        return f"bernoulli({q})^{n}"
    return f"mix(0.5: bernoulli(1.0)^{n}, 0.5: bernoulli({q})^{n})"


def mc_close(exact: float, rate: float, samples: int) -> bool:
    """Monte Carlo rate within 5 standard errors of the exact success.

    The standard error comes from the exact probability. Five plays' worth
    is added so that a rare-failure table (one expected failing play in
    1e5) cannot fail the check on a Poisson fluctuation.
    """
    sigma = math.sqrt(max(exact * (1.0 - exact), 0.0) / samples)
    return abs(rate - exact) <= 5.0 * sigma + 5.0 / samples


def _bits(x: float) -> str:
    return f"{x:.17g}"


# --------------------------------------------------------------- iid_classes


@dataclass(frozen=True)
class IidOp:
    label: str
    spec: str
    n: int
    q: float
    eps: float


@dataclass(frozen=True)
class IidOut:
    dist: object
    report: object
    bounds: object
    executable: object


class IidClasses:
    """Spec text to work figures on the type-class path, n in [1e3, 1e5]."""

    name = "iid_classes"
    tail_pct = 95
    n_strata = 8
    grid_tol = 1e-6
    cross_tol = 1e-10

    def __init__(self, seed: int):
        self.seed = seed
        self.rng = np.random.default_rng([seed, 1])
        self.warmup = IidOp("warmup", spec_text(0, 0.7, 1000), 1000, 0.7, 1e-3)

    def blocks(self):
        rng, k = self.rng, 2 * self.n_strata
        count = 0
        while True:
            # one op per (stratum of log n, spec kind), so each slot's cost is unimodal
            un = (np.arange(k) // 2 + rng.random(k)) / self.n_strata
            ue, uq = strata(rng, k), strata(rng, k)
            ops = []
            for i in range(k):
                n = round(log_uniform(1e3, 1e5, un[i]))
                q = draw_q(uq[i])
                eps = log_uniform(*EPS_RANGE, ue[i])
                ops.append(IidOp(f"op{count}", spec_text(i % 2, q, n), n, q, eps))
                count += 1
            yield ops

    def run(self, call, op: IidOp) -> IidOut:
        dist = call("cli.to_distribution", call("cli.parse_spec", op.spec))
        report = call("entropy.smooth_report", dist, op.eps)
        bounds = call("game.work_bounds", dist, op.eps, C)
        executable = call("game.riskfree_work_executable", dist, op.eps, C)
        return IidOut(dist, report, bounds, executable)

    def check(self, op: IidOp, out: IidOut) -> list[str]:
        r, tol, problems = out.report, 1e-9, []
        if r.n != op.n:
            problems.append(f"report has n={r.n}, spec has {op.n}")
        if not r.h_min <= r.h_min_smooth + tol:
            problems.append(f"h_min {_bits(r.h_min)} > h_min_smooth {_bits(r.h_min_smooth)}")
        if not r.h_max_smooth <= r.h_max + tol:
            problems.append(f"h_max_smooth {_bits(r.h_max_smooth)} > h_max {_bits(r.h_max)}")
        if not r.h_min - tol <= r.shannon <= r.h_max + tol:
            problems.append(f"shannon {_bits(r.shannon)} outside [h_min, h_max]")
        riskfree = out.bounds.min_work.bits
        if abs(riskfree - (op.n - r.h_max_smooth)) > tol:
            problems.append(f"risk-free work {_bits(riskfree)} != n - h_max_smooth")
        if not riskfree - 1.0 - tol <= out.executable.bits <= riskfree + tol:
            problems.append(
                f"executable work {_bits(out.executable.bits)} not within one box "
                f"below {_bits(riskfree)}"
            )
        return problems

    def corrupt(self, out: IidOut) -> IidOut:
        report = dataclasses.replace(out.report, h_max_smooth=out.report.h_max + 1.0)
        return dataclasses.replace(out, report=report)

    def probes(self, op: IidOp, out: IidOut):
        return [
            ("probdist.to_type_classes", (out.dist,)),
            ("numerics.log2_binomials", (op.n,)),
            ("entropy.h_max_smooth", (out.dist, op.eps)),
            ("entropy.h_min_smooth", (out.dist, op.eps)),
        ]

    def verify(self, call) -> list[tuple[str, list[str]]]:
        """Reference grid (<= 1e-6 bits) and class path vs explicit_of at n <= 16."""
        results = []
        grid = json.loads((GOLDEN_DIR / "reference_grid.json").read_text())
        for entry in grid:
            op = IidOp("grid", entry["spec"], entry["n"], 0.0, entry["epsilon"])
            try:
                got = grid_values(self.run(call, op))
            except Exception as exc:  # a failing op is a failed check
                results.append((f"grid {op.spec} eps={op.eps}", [repr(exc)]))
                continue
            problems = [
                f"{key}: {_bits(got[key])} vs reference {_bits(want)}"
                for key, want in entry["values"].items()
                if not abs(got[key] - want) <= self.grid_tol
            ]
            results.append((f"grid {op.spec} eps={op.eps}", problems))
        rng = np.random.default_rng([self.seed, 101])
        for _ in range(8):
            n = int(rng.integers(4, 17))
            q = draw_q(float(rng.random()))
            spec = spec_text(int(rng.integers(2)), q, n)
            eps = log_uniform(*EPS_RANGE, float(rng.random()))
            try:
                problems = cross_path_gaps(spec, eps, self.cross_tol)
            except Exception as exc:
                problems = [repr(exc)]
            results.append((f"cross-path {spec} eps={eps}", problems))
        return results


def grid_values(out: IidOut) -> dict[str, float]:
    r = out.report
    return {
        "shannon": r.shannon,
        "h_min": r.h_min,
        "h_max": r.h_max,
        "h_min_smooth": r.h_min_smooth,
        "h_max_smooth": r.h_max_smooth,
        "riskfree_bits": out.bounds.min_work.bits,
        "gambler_bits": out.bounds.max_work.bits,
        "executable_bits": out.executable.bits,
    }


def cross_path_gaps(spec: str, eps: float, tol: float) -> list[str]:
    """Criterion 9: the class path and its explicit expansion agree."""
    structured = cli.to_distribution(cli.parse_spec(spec))
    explicit = probdist.explicit_of(structured)
    problems = []
    for fn in (entropy.shannon, entropy.h_min, entropy.h_max):
        a, b = fn(structured), fn(explicit)
        if not abs(a - b) <= tol:
            problems.append(f"{fn.__name__}: {_bits(a)} vs {_bits(b)}")
    for fn in (entropy.h_min_smooth, entropy.h_max_smooth):
        a, b = fn(structured, eps), fn(explicit, eps)
        if not abs(a - b) <= tol:
            problems.append(f"{fn.__name__}: {_bits(a)} vs {_bits(b)}")
    a = game.riskfree_work(structured, eps, 1.0).bits
    b = game.riskfree_work(explicit, eps, 1.0).bits
    if not abs(a - b) <= tol:
        problems.append(f"riskfree_work: {_bits(a)} vs {_bits(b)}")
    return problems


# ---------------------------------------------------------- explicit_riskfree


@dataclass(frozen=True)
class ExplicitOp:
    label: str
    n: int
    q: float
    eps: float
    seed: int
    spec: str | None = None                    # dense table from a spec
    entries: list | None = None                # sparse table: (index, prob) pairs


@dataclass(frozen=True)
class GameOut:
    table: probdist.ExplicitDistribution
    strategy: game.Strategy
    exact: game.ExactResult
    mc: game.MonteCarloEstimate
    violations: list
    mixture: object = None
    report: object = None


def _draw_sparse(rng: np.random.Generator, n: int, support: int) -> list:
    indices = rng.choice(1 << n, size=support, replace=False)
    probs = rng.random(support) + 0.01
    probs /= probs.sum()
    return list(zip(indices.tolist(), probs.tolist()))


def _play(call, table, strategy, eps: float, seed: int):
    exact = call("game.exact_evaluate", table, strategy)
    config = game.GameConfig(epsilon=eps, seed=seed, n_samples=MC_SAMPLES)
    mc = call("game.monte_carlo", table, strategy, config)
    violations = call("game.check_inequalities", table, strategy, exact, eps, C)
    return exact, mc, violations


def _game_problems(out: GameOut) -> list[str]:
    problems = []
    if not mc_close(out.exact.success_prob, out.mc.success_rate, out.mc.n_samples):
        problems.append(
            f"Monte Carlo {_bits(out.mc.success_rate)} vs exact "
            f"{_bits(out.exact.success_prob)} over {out.mc.n_samples} plays"
        )
    if out.violations:
        problems.append(f"check_inequalities: {out.violations}")
    return problems


class ExplicitRiskfree:
    """Explicit tables through the risk-free game: dense 2^12..2^22, sparse to 2^24."""

    name = "explicit_riskfree"
    tail_pct = 85
    dense_ns = range(12, 23)
    sparse_ns = range(20, 25)

    def __init__(self, seed: int):
        self.rng = np.random.default_rng([seed, 2])
        self.warmup = ExplicitOp("warmup", 12, 0.7, 1e-3, 0, spec=spec_text(0, 0.7, 12))

    def blocks(self):
        rng = self.rng
        count = 0
        while True:
            nd, ns = len(self.dense_ns), len(self.sparse_ns)
            ue, uq = strata(rng, nd + ns), strata(rng, nd)
            ops = []
            for i, n in enumerate(self.dense_ns):
                refuse_over_cap(n)
                q = draw_q(uq[i])
                # the mixture is ~10% cheaper, so each n keeps one kind: even
                # n (n = 22 included) the i.i.d. family, odd n the mixture
                ops.append(ExplicitOp(
                    f"op{count + i}", n, q, log_uniform(*EPS_RANGE, ue[i]),
                    int(rng.integers(2**32)), spec=spec_text(n % 2, q, n),
                ))
            for j, n in enumerate(self.sparse_ns):
                refuse_over_cap(n)
                # support 2^8 at n = 20 up to 2^16 at n = 24
                support = 1 << (8 + 2 * (n - self.sparse_ns[0]))
                ops.append(ExplicitOp(
                    f"op{count + nd + j}", n, 0.7, log_uniform(*EPS_RANGE, ue[nd + j]),
                    int(rng.integers(2**32)), entries=_draw_sparse(rng, n, support),
                ))
            count += len(ops)
            yield ops

    def run(self, call, op: ExplicitOp) -> GameOut:
        mixture = None
        if op.spec is not None:
            mixture = call("cli.to_distribution", call("cli.parse_spec", op.spec))
            table = call("probdist.explicit_of", mixture)
        else:
            table = call("probdist.make_explicit", op.n, op.entries)
        report = call("entropy.smooth_report", table, op.eps)
        strategy = call("game.build_riskfree_strategy", table, op.eps, C)
        exact, mc, violations = _play(call, table, strategy, op.eps, op.seed)
        return GameOut(table, strategy, exact, mc, violations, mixture, report)

    def check(self, op: ExplicitOp, out: GameOut) -> list[str]:
        problems = _game_problems(out)
        if not out.exact.success_prob >= 1.0 - op.eps - 1e-12:
            problems.append(
                f"exact success {_bits(out.exact.success_prob)} < 1 - eps ({op.eps})"
            )
        if not out.report.h_max_smooth <= out.report.h_max + 1e-9:
            problems.append("h_max_smooth > h_max")
        return problems

    def corrupt(self, out: GameOut) -> GameOut:
        p = out.exact.success_prob - 2.0 * EPS_RANGE[1]
        return dataclasses.replace(out, exact=game.ExactResult(p, p * C))

    def probes(self, op: ExplicitOp, out: GameOut):
        probes = [
            ("numerics.log2_binomials", (op.n,)),
            ("entropy.h_max_smooth", (out.table, op.eps)),
            ("entropy.h_min_smooth", (out.table, op.eps)),
            ("compress.canonical_permutation", (out.table,)),
        ]
        if out.mixture is not None:
            probes.insert(0, ("probdist.to_type_classes", (out.mixture,)))
        return probes

    def verify(self, call):
        return []


# -------------------------------------------------------------- gambler_game


@dataclass(frozen=True)
class GamblerOp:
    label: str
    spec: str
    n: int
    m: int
    q: float
    eps: float
    seed: int


class GamblerGame:
    """The gambler's bet on m of n boxes, every (n, m) with n in 10..14 per block."""

    name = "gambler_game"
    tail_pct = 90
    ns = range(10, 15)
    kyfan_tol = 1e-12

    def __init__(self, seed: int):
        self.rng = np.random.default_rng([seed, 3])
        self.warmup = GamblerOp("warmup", spec_text(0, 0.7, 10), 10, 1, 0.7, 1e-3, 0)

    def blocks(self):
        rng = self.rng
        pairs = [(n, m) for n in self.ns for m in range(1, n)]
        k = len(pairs)
        # each slot alternates between the two spec kinds from block to block
        kinds = rng.permutation(np.arange(k) % 2)
        count = 0
        while True:
            ue, uq = strata(rng, k), strata(rng, k)
            ops = []
            for i, (n, m) in enumerate(pairs):
                refuse_over_cap(n)
                q = draw_q(uq[i])
                ops.append(GamblerOp(
                    f"op{count + i}", spec_text(int(kinds[i]), q, n), n, m, q,
                    log_uniform(*EPS_RANGE, ue[i]), int(rng.integers(2**32)),
                ))
            count += k
            kinds = 1 - kinds
            yield ops

    def run(self, call, op: GamblerOp) -> GameOut:
        mixture = call("cli.to_distribution", call("cli.parse_spec", op.spec))
        table = call("probdist.explicit_of", mixture)
        strategy = call("game.build_gambler_strategy", table, op.m, C)
        exact, mc, violations = _play(call, table, strategy, op.eps, op.seed)
        return GameOut(table, strategy, exact, mc, violations, mixture)

    def check(self, op: GamblerOp, out: GameOut) -> list[str]:
        problems = _game_problems(out)
        if len(out.strategy.bets) != op.m:
            problems.append(f"{len(out.strategy.bets)} bets, asked for {op.m}")
        # Ky-Fan: the best m-box guess wins on the top 2^(n-m) outcomes
        top = math.fsum(np.sort(out.table.probs)[::-1][: 1 << (op.n - op.m)].tolist())
        if not abs(out.exact.success_prob - top) <= self.kyfan_tol:
            problems.append(
                f"exact success {_bits(out.exact.success_prob)} vs top-2^(n-m) "
                f"mass {_bits(top)}"
            )
        return problems

    def corrupt(self, out: GameOut) -> GameOut:
        p = out.exact.success_prob + 1e-9
        return dataclasses.replace(out, exact=game.ExactResult(p, p * C))

    def probes(self, op: GamblerOp, out: GameOut):
        return [
            ("probdist.to_type_classes", (out.mixture,)),
            ("numerics.log2_binomials", (op.n,)),
            ("entropy.h_max_smooth", (out.table, op.eps)),
            ("entropy.h_min_smooth", (out.table, op.eps)),
            ("compress.canonical_permutation", (out.table,)),
        ]

    def verify(self, call):
        return []


# ---------------------------------------------------------------- cli_readme


@dataclass(frozen=True)
class CliOp:
    label: str
    argv: tuple
    specs: tuple


@dataclass(frozen=True)
class CliOut:
    exit_code: int
    stdout: bytes


class CliReadme:
    """The six README commands, each one call of `szilard.cli.main` in this
    process with its stdout captured.

    Interpreter start and `import szilard.cli`, which a shell user also pays
    per command, are measured by `setup_s`; run as subprocesses they made up
    nearly all of an op and spread with the host by more than the bound.
    `table1` runs twice a block, so the median op falls inside one
    command's latencies rather than on the gap between two commands.
    """

    name = "cli_readme"
    tail_pct = 95

    def __init__(self, seed: int):
        # the README commands are fixed, so the seed has nothing to draw
        self.warmup = None
        self.golden = json.loads((GOLDEN_DIR / "cli_readme.json").read_text())

    def blocks(self):
        ops = [CliOp(label, tuple(argv), tuple(specs)) for label, argv, specs in README_COMMANDS]
        ops += [op for op in ops if op.label == "table1"]
        while True:
            yield ops

    def run(self, call, op: CliOp) -> CliOut:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            exit_code = cli.main(list(op.argv))
        return CliOut(exit_code, buf.getvalue().encode("utf-8"))

    def check(self, op: CliOp, out: CliOut) -> list[str]:
        want = self.golden[op.label]
        problems = []
        if out.exit_code != want["exit_code"]:
            problems.append(f"exit code {out.exit_code}, golden {want['exit_code']}")
        if out.stdout != want["stdout"].encode("utf-8"):
            problems.append("stdout differs from the golden bytes")
        return problems

    def corrupt(self, out: CliOut) -> CliOut:
        flipped = bytes([out.stdout[0] ^ 1]) + out.stdout[1:]
        return dataclasses.replace(out, stdout=flipped)

    def probes(self, op: CliOp, out: CliOut):
        probes = []
        for spec in op.specs:
            node = cli.parse_spec(spec)
            probes += [("cli.parse_spec", (spec,)), ("cli.to_distribution", (node,))]
        return probes

    def verify(self, call):
        return []


WORKLOADS = {w.name: w for w in (IidClasses, ExplicitRiskfree, GamblerGame, CliReadme)}
