"""The three workloads: seeded inputs, timed rounds, and the correctness gate.

Each workload is one closed-loop caller.  A round is a unit of work whose
inputs are generated, then timed, then checked; generation and checking
stay outside the timed region.  ``run_round`` returns a ``RoundResult`` and
``check_round`` the problems found in it, one string per failed op.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import subprocess
import sys
from array import array
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import alephcalc as ac
import alephcalc.cli

import calibrate
import contexts
from reference import (
    SRC,
    Expectations,
    card_text,
    golden_sessions,
    is_atom,
    is_successor_card,
    ord_text,
    ordinal_text,
    record_problem,
    succ_oracle,
)

ROUND_ENGINE_OPS = 500
TRACE_ENGINE_ROUNDS = 20
ROUND_CLI_OPS = 2
TRACE_CLI_PASSES = 5  # one in-process pass takes about 0.1 s, too short to time alone


class Workload:
    name: str

    def scale(self) -> float:
        """Factor that maps a timing of this workload taken now to the reference speed."""
        return calibrate.scale()

    def close(self) -> None:
        """Stop any process the workload started."""


@dataclass
class RoundResult:
    attempted: int
    elapsed: float
    latencies: array
    outputs: list = field(default_factory=list)
    crash: str | None = None
    peak_rss_kb: int = 0


class _StampedWriter:
    """Output stream for run_batch: each record write marks one finished op."""

    def __init__(self):
        self.chunks: list[str] = []
        self.stamps = array("d")

    def write(self, text: str) -> int:
        self.stamps.append(perf_counter())
        self.chunks.append(text)
        return len(text)


# --- generators ---------------------------------------------------------------


def random_cnf(rng: random.Random, depth: int, max_terms: int, max_coeff: int):
    if depth <= 0 or rng.random() < 0.3:
        return ac.from_int(rng.randrange(0, max_coeff + 1))
    exps = {random_cnf(rng, depth - 1, 2, 3) for _ in range(rng.randrange(1, max_terms + 1))}
    terms = tuple((e, rng.randrange(1, max_coeff + 1)) for e in sorted(exps, reverse=True))
    return ac.CnfOrdinal(terms)


def random_aleph(rng: random.Random, base_depth: int, cnf_depth: int, max_terms: int, max_coeff: int):
    tail = random_cnf(rng, cnf_depth, max_terms, max_coeff)
    if base_depth > 0 and rng.random() < 0.5:
        base = random_aleph(rng, base_depth - 1, cnf_depth, max_terms, max_coeff)
        if base.base is not None or base.tail.terms:
            return ac.Aleph(base, tail)
    return ac.Aleph(None, tail)


@dataclass
class State:
    """What the generator knows a session has assumed."""

    gch: bool = False
    vl: bool = False
    sharp: bool | None = None

    def allows(self, kind: str) -> bool:
        if kind in ("V=L", "no-sharp"):
            return self.sharp is not True
        if kind == "sharp":
            return self.sharp is not False
        return True

    def assume(self, kind: str) -> None:
        if kind == "GCH":
            self.gch = True
        elif kind == "V=L":
            self.gch, self.vl, self.sharp = True, True, False
        elif kind in ("sharp", "no-sharp"):
            self.sharp = kind == "sharp"


QUERY_NAMES = (
    "cf", "reg", "succ", "lambda_r", "lambda_star", "closed", "almost_closed", "exp_lt",
    "two_lt", "triangle", "l_cf", "colimit_bound", "internal_size", "rank_excluded",
    "existence_window", "existence_at", "no_model_rule", "hilbert_card", "hilbert_internal",
    "wo_size", "shelah_card", "shelah_internal",
)


class Vocabulary:
    """A few dozen cardinals that DSL queries draw their arguments from."""

    RANDOM_CARDS = 25

    def __init__(self, card_rng: random.Random, exp: Expectations, rng: random.Random):
        self.rng = rng
        self.exp = exp
        w = ac.OMEGA
        core = [
            ac.aleph(0), ac.aleph(1), ac.aleph(2), ac.aleph(3), ac.aleph(w),
            ac.aleph(ac.cnf_add(w, ac.ORD_ONE)), ac.aleph(ac.omega_power(ac.ORD_ONE, 2)),
            ac.Aleph(ac.ALEPH1), ac.Aleph(ac.ALEPH1, ac.ORD_ONE),
            ac.CardinalAtom("theta", True), ac.CardinalAtom("kappa", True),
        ]
        seen = {card_text(c) for c in core}
        cards = list(core)
        # The vocabulary is the same for every seed, so that seeds give
        # sessions of similar cost; its random cardinals are stratified by
        # printed length, every other one a successor.
        for i in range(self.RANDOM_CARDS):
            target = 10 + round(1.4 * i)
            while True:
                c = random_aleph(card_rng, 1, 2, 2, 3)
                if i % 2:
                    c = succ_oracle(c)
                text = card_text(c)
                if abs(len(text) - target) <= 1 and text not in seen:
                    break
            seen.add(text)
            cards.append(c)
        self.all = cards
        self.alephs = [c for c in cards if not is_atom(c)]
        self.atoms = [c for c in cards if is_atom(c)]
        self.uncountable = [c for c in cards if c != ac.ALEPH0]
        self.regular = [c for c in cards if exp.is_regular(c)]
        self.regular_alephs = [c for c in self.regular if not is_atom(c)]
        self.singular = [c for c in self.alephs if not exp.is_regular(c)]

    def pick(self, pool):
        return self.rng.choice(pool)

    def cf(self, c):
        return self.exp.o.cf_oracle(c)

    def params(self, mu=None):
        """(mu, LS) accepted by ClassParams: mu regular, LS >= mu, cf(LS) >= mu."""
        mu = mu or self.pick(self.regular_alephs)
        ls = self.pick([c for c in self.all if c >= mu and self.cf(c) >= mu])
        return mu, ls

    def query(self, name: str) -> tuple:
        """Arguments for one query that satisfy its preconditions."""
        p, v = self.pick, self
        if name in ("cf", "reg", "lambda_r", "l_cf", "hilbert_internal"):
            return (p(v.all),)
        if name in ("succ", "lambda_star"):
            return (p(v.alephs),)
        if name in ("closed", "almost_closed"):
            mu = p(v.regular_alephs)
            return (p([c for c in v.all if c >= mu]), mu)
        if name == "exp_lt":
            return (p(v.all), p(v.regular))
        if name == "two_lt":
            return (p(v.regular),)
        if name in ("triangle", "existence_window"):
            mu = p(v.regular)
            return (mu, p([c for c in v.regular if c >= mu]))
        if name == "colimit_bound":
            return (p(v.alephs), p(v.alephs))
        if name == "internal_size":
            return (*v.params(), p(v.all))
        if name == "rank_excluded":
            if self.rng.random() < 0.1:
                return (ac.ALEPH0, ac.ALEPH0)
            return (p(v.atoms), p(v.regular_alephs))
        if name == "existence_at":
            while True:
                mu, ls = v.params()
                above = [c for c in v.all if c > ls]
                if above:
                    return (mu, ls, p(above), self.rng.random() < 0.5)
        if name == "no_model_rule":
            while True:
                mu, ls = v.params(p(v.regular_alephs[1:]))
                lams = [c for c in v.singular if c > ls and v.cf(c) < mu]
                if lams:
                    break
            lam = p(lams)
            if self.rng.random() < 0.5:
                up = succ_oracle(lam)
                return (mu, ls, lam, lam, up, up)
            lo, hi = sorted((p(v.all), p(v.all)))
            return (mu, ls, lam, lo, hi, p(v.all))
        if name == "hilbert_card":
            return (p(v.uncountable),)
        if name == "wo_size":
            lam = p(v.all)
            tail = random_cnf(self.rng, 1, 2, 3)
            bases = [c for c in v.uncountable if not is_atom(c) and (is_atom(lam) or c <= lam)]
            if bases and self.rng.random() < 0.5:
                return (("ord", p(bases), tail), lam)
            return (("ord", None, tail), lam)
        if name in ("shelah_card", "shelah_internal"):
            mu = p(v.regular_alephs)
            return (mu, p([c for c in v.alephs if c >= mu]))
        raise ValueError(name)


def arg_text(a) -> str:
    if isinstance(a, bool):
        return "true" if a else "false"
    if isinstance(a, tuple):
        return ordinal_text(a[1], a[2])
    return card_text(a)


def query_text(name: str, args: tuple) -> str:
    return f"{name}({', '.join(arg_text(a) for a in args)})"


@dataclass
class Line:
    text: str
    records: int  # records the line must produce: 0 (assume/comment) or 1
    verdicts: frozenset = frozenset()
    expected: tuple | None = None  # (verdict, value) from a reference


OK_VERDICTS = frozenset(("determined", "independent"))
REASK_SHARE = 0.3
VOCABULARY_SEED = "alephcalc vocabulary"
ERROR = frozenset(("error",))


def bad_line(rng: random.Random, vocab: Vocabulary, state: State) -> Line:
    """A line that must come back as exactly one error record."""
    a, b = card_text(rng.choice(vocab.all)), card_text(rng.choice(vocab.all))
    s = card_text(rng.choice(vocab.singular))
    options = [
        f"cf({a}", f"exp_lt({a},)", f"frobnicate({a})", f"cf({a}, {b})", f"exp_lt({a}, {s})",
        "succ(inacc(theta))", "aleph(2)+aleph(1)", f"reg({a}) $", "assume GCH; cf(",
    ]
    if state.sharp is True:
        options.append("assume no-sharp")
    elif state.sharp is False:
        options.append("assume sharp")
    return Line(rng.choice(options), 1, ERROR)


def generate_lines(rng: random.Random, vocab: Vocabulary, exp: Expectations, state: State,
                   count: int, names: list[str]) -> list[Line]:
    """One segment: queries with assumes, literals, comments and bad lines mixed in.

    ``names`` deals query kinds so every kind appears.  Later lines re-ask
    queries of the same segment, as a user does after adding an assumption.
    """
    lines: list[Line] = []
    asked: list = []
    while len(lines) < count:
        roll = rng.random()
        if roll < 0.03:
            lines.append(bad_line(rng, vocab, state))
        elif roll < 0.08:
            kind = rng.choice(("GCH", "V=L", "sharp", "no-sharp", "SCH"))
            if not state.allows(kind):
                continue
            if kind == "SCH":
                mu = rng.choice(vocab.regular_alephs)
                scope = rng.choice((
                    f">= {card_text(rng.choice(vocab.all))}",
                    f"below {card_text(rng.choice(vocab.alephs))}",
                    "{" + ", ".join(card_text(rng.choice(vocab.alephs)) for _ in range(2)) + "}",
                ))
                lines.append(Line(f"assume SCH({card_text(mu)}, {scope})", 0))
            else:
                state.assume(kind)
                lines.append(Line(f"assume {kind}", 0))
        elif roll < 0.12:
            text = card_text(rng.choice(vocab.all)) if rng.random() < 0.5 else ord_text(
                random_cnf(rng, 2, 2, 3))
            lines.append(Line(text, 1, OK_VERDICTS, ("determined", text)))
        elif roll < 0.14:
            lines.append(Line(rng.choice(("", "# generated session")), 0))
        else:
            if asked and rng.random() < REASK_SHARE:
                name, args = rng.choice(asked)
            else:
                if not names:
                    names.extend(QUERY_NAMES)
                    rng.shuffle(names)
                name = names.pop()
                args = vocab.query(name)
                asked.append((name, args))
            plain = tuple(a[1:] if isinstance(a, tuple) else a for a in args)
            lines.append(Line(query_text(name, args), 1, OK_VERDICTS, exp.line(name, plain, state)))
    return lines


def check_records(lines: list[Line], records: list[str]) -> list[str]:
    """Match one segment's records to its lines; one problem per failed op."""
    problems = []
    pos = 0
    for line in lines:
        if not line.records:
            continue
        if pos >= len(records):
            problems.append(f"{line.text}: no record")
            continue
        problem = record_problem(records[pos].rstrip("\n"), line.text, line.verdicts, line.expected)
        pos += 1
        if problem:
            problems.append(problem)
    if pos < len(records):
        problems.append(f"{len(records) - pos} records more than query lines")
    return problems


# --- batch_session ---------------------------------------------------------------


class BatchSession(Workload):
    """run_batch in JSON mode over a generated session plus both golden sessions.

    The session has ``GROUPS`` groups of 24 segments; a round runs one group
    and then both golden sessions, and rounds cycle through the groups.  The
    slowest lines set the tail, so there are enough of them that their cost
    differs little from seed to seed.
    """

    name = "batch_session"
    GROUPS = 30
    SEGMENT_LINES = 100

    def __init__(self, seed: int):
        rng = random.Random(seed)
        self.exp = Expectations()
        vocab = Vocabulary(random.Random(VOCABULARY_SEED), self.exp, rng)
        self.ctx = contexts.build(self.name)
        names: list[str] = []
        goldens = []  # (start context name, lines, expected JSONL or None)
        for _, script, expected in golden_sessions():
            lines = [Line(t, 0 if not t.strip() or t.lstrip().startswith(("#", "assume")) else 1)
                     for t in script]
            goldens.append(("none", lines, expected))
        self.groups = []
        for _ in range(self.GROUPS):
            segments = []
            for start in list(contexts.SEGMENT_STARTS) * 4:
                state = State(*contexts.SEGMENT_STARTS[start])
                lines = generate_lines(rng, vocab, self.exp, state, self.SEGMENT_LINES, names)
                segments.append((start, lines, None))
            self.groups.append(segments + goldens)
        self.next_group = 0
        self._checked: dict[int, int] = {}  # group -> digest of its fully checked output

    def next_round(self) -> int:
        group = self.next_group
        self.next_group = (group + 1) % self.GROUPS
        return group

    def trace_rounds(self):
        return [0]

    def run_round(self, group: int) -> RoundResult:
        run_batch = ac.evaluator.run_batch
        segments = self.groups[group]
        latencies = array("d")
        outputs = []
        crash = None
        elapsed = 0.0
        for start, lines, _ in segments:
            out = _StampedWriter()
            texts = [line.text for line in lines]
            begin = perf_counter()
            try:
                run_batch(texts, self.ctx[start], out, as_json=True)
            except Exception as err:  # the lines it never reached count as failed
                crash = f"run_batch raised {type(err).__name__}: {err}"
            end = perf_counter()
            elapsed += end - begin
            prev = begin
            for stamp in out.stamps:
                latencies.append(stamp - prev)
                prev = stamp
            outputs.append(out.chunks)
        attempted = sum(line.records for _, lines, _ in segments for line in lines)
        return RoundResult(attempted, elapsed, latencies, outputs, crash)

    def check_round(self, group: int, result: RoundResult) -> list[str]:
        digest = output_digest(result.outputs)
        if result.crash is None and digest == self._checked.get(group):
            return []
        problems = []
        for (_, lines, expected), chunks in zip(self.groups[group], result.outputs):
            if expected is not None:
                got = "".join(chunks)
                if got != expected:
                    problems.extend(golden_diff(got, expected))
            else:
                problems.extend(check_records(lines, "".join(chunks).splitlines()))
        if result.crash is not None:
            problems[:1] = [f"{result.crash}; {problems[0]}" if problems else result.crash]
        elif not problems:
            self._checked[group] = digest
        return problems


def output_digest(outputs: list) -> int:
    """Hash of a round's records, segment by segment.  It is kept instead of
    the text, so the benchmark's memory does not grow with the rounds it has
    checked; hashlib is not used because it maps a crypto library into RSS."""
    return hash(tuple("".join(chunks) for chunks in outputs))


def golden_diff(got: str, expected: str) -> list[str]:
    want = expected.splitlines()
    have = got.splitlines()
    bad = [f"golden record {i}: {h!r} != {w!r}" for i, (h, w) in enumerate(zip(have, want)) if h != w]
    bad.extend(f"golden record {i}: missing" for i in range(len(have), len(want)))
    return bad or ["golden output differs in bytes"]


# --- engine_sweep ---------------------------------------------------------------


ENGINE_FUNCTIONS = (
    "exp_lt", "two_lt", "is_mu_closed", "is_almost_mu_closed", "triangle", "l_cofinality",
    "internal_size_of_cardinality", "existence_at", "rank_excluded_at",
    "hilbert_count_by_cardinality", "shelah_count_by_cardinality",
    "shelah_count_by_internal_size", "wellorder_internal_size", "cofinality", "lambda_r",
    "lambda_star",
)


class EngineSweep(Workload):
    """Direct calls into the public engine functions on distinct deep cardinals."""

    name = "engine_sweep"

    TAILS = 4096

    def __init__(self, seed: int):
        self.seed = seed
        self.rng = random.Random(seed)
        self.exp = Expectations()
        self.ctx = contexts.build(self.name)
        self.ctx_names = list(self.ctx)
        # Inputs nest bases up to three deep over CNF tails three deep with up
        # to four terms, deeper than the test generators, so equal cardinals
        # are rare.  Tails come from a seeded pool because building CNF
        # ordinals costs more than the calls under test.
        tail_rng = random.Random(f"tails-{seed}")
        self.tails = [random_cnf(tail_rng, 3, 4, 6) for _ in range(self.TAILS)]

    def aleph_card(self, rng, depth: int = 3):
        tail = rng.choice(self.tails)
        if depth > 0 and rng.random() < 0.5:
            base = self.aleph_card(rng, depth - 1)
            if base.base is not None or base.tail.terms:
                return ac.Aleph(base, tail)
        return ac.Aleph(None, tail)

    def card(self, rng):
        if rng.random() < 0.03:
            return ac.CardinalAtom(rng.choice(("theta", "kappa")), True)
        return self.aleph_card(rng)

    def regular(self, rng, atoms: bool = True):
        roll = rng.random()
        if roll < 0.1:
            return ac.ALEPH0
        if atoms and roll < 0.15:
            return ac.CardinalAtom(rng.choice(("theta", "kappa")), True)
        return succ_oracle(self.aleph_card(rng))

    def at_least(self, rng, lo, pick):
        while True:
            c = pick(rng)
            if c >= lo:
                return c

    def params(self, rng, intersections: bool = False):
        mu = self.regular(rng, atoms=False)
        ls = self.at_least(rng, mu, lambda r: self.aleph_card(r) if r.random() < 0.5 else self.regular(r, False))
        while self.exp.o.cf_oracle(ls) < mu:
            ls = succ_oracle(ls)
        return ac.ClassParams(mu=mu, ls=ls, admits_intersections=intersections)

    def op(self, rng, name: str):
        ctx = self.ctx[rng.choice(self.ctx_names)]
        c = self.card
        if name == "exp_lt":
            return (c(rng), self.regular(rng), ctx)
        if name == "two_lt":
            return (self.regular(rng), ctx)
        if name in ("is_mu_closed", "is_almost_mu_closed"):
            mu = self.regular(rng, atoms=False)
            return (self.at_least(rng, mu, c), mu, ctx)
        if name == "triangle":
            mu = self.regular(rng)
            return (mu, self.at_least(rng, mu, self.regular), ctx)
        if name == "l_cofinality":
            return (c(rng), ctx)
        if name in ("internal_size_of_cardinality", "existence_at"):
            params = self.params(rng, rng.random() < 0.5)
            lam = c(rng)
            if name == "existence_at" and not lam > params.ls:
                lam = succ_oracle(params.ls)
            return (params, lam, ctx)
        if name == "rank_excluded_at":
            return (ac.CardinalAtom(rng.choice(("theta", "kappa")), True), self.regular(rng, atoms=False), ctx)
        if name == "hilbert_count_by_cardinality":
            return (self.at_least(rng, ac.ALEPH1, c), ctx)
        if name in ("shelah_count_by_cardinality", "shelah_count_by_internal_size"):
            mu = self.regular(rng, atoms=False)
            return (mu, self.at_least(rng, mu, self.aleph_card), ctx)
        if name == "wellorder_internal_size":
            lam = c(rng)
            tail = rng.choice(self.tails)
            if rng.random() < 0.5:
                return (None, tail, lam)
            base = self.aleph_card(rng)
            if base.base is None and not base.tail.terms:
                base = ac.ALEPH1
            if not is_atom(lam) and base > lam:  # keep alpha within the class: base <= lam
                base, lam = lam, base
                if base == ac.ALEPH0:
                    return (None, tail, lam)
            return (base, tail, lam)
        return (c(rng),) if name != "lambda_star" else (self.aleph_card(rng),)

    def _ops(self, rng, count: int):
        return [(name, self.op(rng, name)) for name in
                (rng.choice(ENGINE_FUNCTIONS) for _ in range(count))]

    def next_round(self):
        return self._ops(self.rng, ROUND_ENGINE_OPS)

    def trace_rounds(self):
        rng = random.Random(self.seed)
        return [self._ops(rng, ROUND_ENGINE_OPS) for _ in range(TRACE_ENGINE_ROUNDS)]

    def run_round(self, ops) -> RoundResult:
        funcs = {name: getattr(ac, name) for name in ENGINE_FUNCTIONS}
        calls = [(funcs[name], args) for name, args in ops]
        latencies = array("d")
        outputs = []
        elapsed = 0.0
        for fn, args in calls:
            begin = perf_counter()
            try:
                out = fn(*args)
            except Exception as err:  # an exception is a failed op, not a crash
                out = err
            end = perf_counter()
            elapsed += end - begin
            latencies.append(end - begin)
            outputs.append(out)
        return RoundResult(len(ops), elapsed, latencies, outputs)

    def check_round(self, ops, result: RoundResult) -> list[str]:
        problems = []
        for (name, args), out in zip(ops, result.outputs):
            problem = self.check(name, args, out)
            if problem:
                problems.append(f"{name}{args}: {problem}")
        return problems

    def check(self, name: str, args: tuple, out) -> str | None:
        if isinstance(out, Exception):
            return f"raised {type(out).__name__}: {out}"
        o = self.exp.o
        ctx = args[-1] if isinstance(args[-1], ac.HypothesisContext) else None
        if name == "cofinality":
            return None if out == o.cf_oracle(args[0]) else f"cf {out}"
        if name == "lambda_r":
            c = args[0]
            want = c if o.cf_oracle(c) == c else succ_oracle(c)
            return None if out == want else f"lambda_r {out}, want {want}"
        if name == "lambda_star":
            c = args[0]
            want = succ_oracle(c) if is_successor_card(c) else c
            return None if out == want else f"lambda_star {out}, want {want}"
        if name == "wellorder_internal_size":
            want = self.exp.wellorder(args[0], args[1])
            return None if out == want else f"wo {out}, want {want}"
        if name.startswith(("hilbert", "shelah")):
            if not isinstance(out, (ac.Finite, ac.Card, ac.AtLeastCard, ac.ZeroCount, ac.UndeterminedCount)):
                return f"not a count: {out!r}"
            if name == "hilbert_count_by_cardinality" and ctx.gch:
                n = self.exp.hilbert_count(args[0])
                ok = out == (ac.ZeroCount(("GCH",)) if n == 0 else ac.Finite(n, ("GCH",)))
                return None if ok else f"hilbert {out!r}, want {n}"
            if name == "shelah_count_by_cardinality" and (ctx.v_equals_l or ctx.zero_sharp is ac.ZeroSharp.EXISTS):
                want = self.exp.shelah_count(args[0], args[1], ctx.v_equals_l)
                got = str(out.n) if isinstance(out, ac.Finite) else card_text(out.value) if isinstance(out, ac.Card) else None
                return None if got == want else f"shelah {out!r}, want {want}"
            return None
        if name == "internal_size_of_cardinality":
            if not isinstance(out, (ac.BelowLS, ac.Exact, ac.TwoCandidates, ac.SizeInterval, ac.Undetermined)):
                return f"not a size verdict: {out!r}"
            params, lam = args[0], args[1]
            if ctx.gch:
                if lam <= params.ls:
                    ok = isinstance(out, ac.BelowLS)
                elif o.is_bad_successor(lam, params.mu):
                    ok = isinstance(out, ac.TwoCandidates) and out.hi == lam and succ_oracle(out.lo) == lam
                else:
                    ok = isinstance(out, ac.Exact) and out.value == lam
                return None if ok else f"size {out!r} under GCH"
            return None
        if not isinstance(out, (ac.Determined, ac.Independent)):
            return f"not a verdict: {out!r}"
        if name == "exp_lt" and ctx.gch:
            want = o.gch_exp_lt(args[0], args[1])
            ok = isinstance(out, ac.Determined) and out.value == want
            return None if ok else f"exp_lt {out!r}, want {want}"
        if name == "is_mu_closed":
            if o.is_bad_successor(args[0], args[1]):
                return None if out == ac.Determined(False) else f"closed {out!r}, want false"
            if ctx.gch:
                ok = isinstance(out, ac.Determined) and out.value is True
                return None if ok else f"closed {out!r}, want true"
        return None


# --- cli_oneshot ---------------------------------------------------------------


@dataclass
class CliCall:
    stmt: str
    flags: tuple
    expected_line: str | None = None  # golden record, byte for byte
    expected: tuple | None = None  # (verdict, value) from an oracle

    def argv(self) -> list[str]:
        argv = ["eval", "-e", self.stmt, "--json"]
        return argv + (["--assume", ",".join(self.flags)] if self.flags else [])


CLI_FLAG_OF = {"GCH": "gch", "V=L": "v=l", "sharp": "sharp", "no-sharp": "no-sharp"}


def golden_cli_calls() -> list[CliCall]:
    calls = []
    for _, script, expected in golden_sessions():
        records = iter(expected.splitlines())
        flags: tuple = ()
        for text in script:
            text = text.strip()
            if not text or text.startswith("#"):
                continue
            if text.startswith("assume "):
                flags += (CLI_FLAG_OF[text.split()[1]],)
                continue
            calls.append(CliCall(text, flags, expected_line=next(records)))
    return calls


class CliOneshot(Workload):
    """One `python -m alephcalc eval` process per op, one at a time."""

    name = "cli_oneshot"
    GENERATED = 64

    def __init__(self, seed: int):
        rng = random.Random(seed)
        self.exp = Expectations()
        self.ctx = contexts.build(self.name)
        vocab = Vocabulary(random.Random(VOCABULARY_SEED), self.exp, rng)
        self.calls = golden_cli_calls()
        names = list(QUERY_NAMES) * 3
        rng.shuffle(names)
        for name in names[: self.GENERATED]:
            flags = rng.choice(contexts.CLI_FLAGS)
            state = State()
            for kind, flag in CLI_FLAG_OF.items():
                if flag in flags:
                    state.assume(kind)
            args = vocab.query(name)
            plain = tuple(a[1:] if isinstance(a, tuple) else a for a in args)
            self.calls.append(CliCall(query_text(name, args), flags,
                                      expected=self.exp.line(name, plain, state)))
        rng.shuffle(self.calls)
        self.pos = 0
        self.in_process = False
        self._spawner = None

    def next_round(self):
        out = [self.calls[(self.pos + i) % len(self.calls)] for i in range(ROUND_CLI_OPS)]
        self.pos += ROUND_CLI_OPS
        return out

    def trace_rounds(self):
        return [[call] for call in self.calls] * TRACE_CLI_PASSES

    def _run_spawned(self, argv: list[str]) -> dict:
        if self._spawner is None:
            self._spawner = subprocess.Popen(
                [sys.executable, "-S", str(Path(__file__).with_name("spawner.py"))],
                stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
                env=dict(os.environ, PYTHONPATH=str(SRC)), cwd=SRC.parent,
            )
        self._spawner.stdin.write(json.dumps(argv) + "\n")
        self._spawner.stdin.flush()
        return json.loads(self._spawner.stdout.readline())

    def _spawn(self, call: CliCall) -> tuple[int, str, int, float]:
        reply = self._run_spawned([sys.executable, "-m", "alephcalc", *call.argv()])
        return reply["status"], reply["output"], reply["maxrss_kb"], reply["seconds"]

    def scale(self) -> float:
        # An eval process is mostly interpreter start and imports.  The
        # in-process loop follows the machine's speed for those poorly, so
        # the scale comes from a reference process started the same way: an
        # interpreter that runs the loop once and uses no alephcalc code.
        reply = self._run_spawned([sys.executable, str(Path(calibrate.__file__).resolve())])
        if reply["status"] != 0:
            raise RuntimeError(f"reference process failed: {reply['output'][-500:]}")
        return calibrate.REFERENCE_PROCESS_S / reply["seconds"]

    def _in_process(self, call: CliCall) -> tuple[int, str, int, None]:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            status = alephcalc.cli.main(call.argv())
        return status, buf.getvalue(), 0, None

    def close(self) -> None:
        if self._spawner is not None:
            self._spawner.stdin.close()
            self._spawner.stdout.read()
            self._spawner.stdout.close()
            self._spawner.wait(timeout=60)
            self._spawner = None

    def run_round(self, calls) -> RoundResult:
        run = self._in_process if self.in_process else self._spawn
        latencies = array("d")
        outputs = []
        peak = 0
        for call in calls:
            begin = perf_counter()
            try:
                out = run(call)
            except Exception as err:  # an exception is a failed op
                out = (None, f"raised {type(err).__name__}: {err}", 0, None)
            # A spawned op is timed by the spawner, from process start to exit.
            latencies.append(out[3] if out[3] is not None else perf_counter() - begin)
            outputs.append(out)
            peak = max(peak, out[2])
        return RoundResult(len(calls), sum(latencies), latencies, outputs, peak_rss_kb=peak)

    def check_round(self, calls, result: RoundResult) -> list[str]:
        problems = []
        for call, (status, text, _, _) in zip(calls, result.outputs):
            if status != 0:
                problems.append(f"{call.stmt} {call.flags}: exit status {status}: {text[:200]!r}")
            elif call.expected_line is not None:
                if text != call.expected_line + "\n":
                    problems.append(f"{call.stmt} {call.flags}: {text!r} != golden {call.expected_line!r}")
            else:
                problem = check_records([Line(call.stmt, 1, OK_VERDICTS, call.expected)], text.splitlines())
                problems.extend(problem)
        return problems


WORKLOADS = {cls.name: cls for cls in (BatchSession, EngineSweep, CliOneshot)}
