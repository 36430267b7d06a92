"""Soundness as metamorphic relations over random queries.

Each relation compares records of the same line under related contexts
(Chen, Cheung & Yiu, HKUST-CS98-01, 1998):

* (a) provenance: a ``determined`` record evaluates to the same value under
  the context built from its ``assumptions_used`` alone;
* (b) monotonicity: extending a context keeps a ``determined`` record
  ``determined``, and its new value refines the old one;
* (c) error stability: whether a line is an ``error``, and its note, do not
  depend on the context;
* (d) the 0# case split: ZFC proves that 0# exists or does not, so under a
  context that leaves 0# open, a line ``determined`` with the same value
  under both ``sharp`` and ``no-sharp`` is ``determined`` with that value.

The queries are ``conftest.random_statement`` queries on a fixed seed, plus
lines that once broke (b) or (c).
"""

from __future__ import annotations

import random
from functools import lru_cache

from alephcalc import EMPTY_CONTEXT, HypothesisContext, ZeroSharp
from alephcalc.dsl import Query, format_statement, parse_assumptions
from alephcalc.evaluator import QueryResult, apply_assumption, evaluate_line

from conftest import random_statement
from oracles import refines

SEED = 20261018
N_QUERIES = 2000

# Lines whose verdict once hung on the context: an atom count that was
# determined only under no-sharp, and a no-model rule that was an error
# exactly when an assumption settled lam^<mu = lam.
EXPLICIT = (
    "shelah_card(aleph(1), inacc(theta))",
    "no_model_rule(aleph(1), aleph(1), aleph(2), aleph(2), aleph(3), aleph(3))",
)

SCH_1 = "SCH(aleph(1), >= aleph(2))"
CONTEXTS = (
    "",
    "GCH",
    "V=L",
    "sharp",
    "no-sharp",
    "GCH, sharp",
    f"no-sharp, {SCH_1}",
    "SCH(aleph(2), >= aleph(3)), SCH(aleph(1), below aleph(w))",
)

# (smaller, larger): every assumption of the first holds in the second.
EXTENSIONS = (
    ("", "GCH"),
    ("", "no-sharp"),
    ("", "sharp"),
    ("GCH", "V=L"),
    ("no-sharp", "V=L"),
    ("GCH", "GCH, sharp"),
    ("sharp", "GCH, sharp"),
    (f"no-sharp, {SCH_1}", f"V=L, {SCH_1}"),
)


@lru_cache(maxsize=None)
def context(spec: str) -> HypothesisContext:
    ctx = EMPTY_CONTEXT
    for item in parse_assumptions(spec) if spec else ():
        ctx = apply_assumption(ctx, item)
    return ctx


@lru_cache(maxsize=None)
def record(spec: str, line: str) -> QueryResult:
    (result,), _ = evaluate_line(line, context(spec))
    return result


def _queries() -> tuple[str, ...]:
    rng = random.Random(SEED)
    lines: list[str] = []
    while len(lines) < N_QUERIES:
        ast = random_statement(rng)
        if isinstance(ast, Query):
            lines.append(format_statement(ast))
    return EXPLICIT + tuple(lines)


QUERIES = _queries()


def _report(violations: list[str]) -> str:
    return f"{len(violations)} violation(s), first ones:\n" + "\n".join(violations[:5])


def test_provenance_sufficiency():
    violations = []
    for spec in CONTEXTS:
        for line in QUERIES:
            rec = record(spec, line)
            if rec.verdict != "determined":
                continue
            again = record(", ".join(rec.assumptions_used), line)
            if (again.verdict, again.value) != ("determined", rec.value):
                violations.append(f"{line} under [{spec}]: {rec.value} via {rec.assumptions_used}, "
                                  f"then {again.verdict} {again.value}")
    assert not violations, _report(violations)


def test_context_monotonicity():
    violations = []
    for small, large in EXTENSIONS:
        for line in QUERIES:
            before = record(small, line)
            if before.verdict != "determined":
                continue
            after = record(large, line)
            if after.verdict != "determined" or not refines(after.value, before.value):
                violations.append(f"{line}: [{small}] {before.value} -> [{large}] "
                                  f"{after.verdict} {after.value} {after.notes}")
    assert not violations, _report(violations)


def test_error_stability():
    violations = []
    for line in QUERIES:
        outcomes = {}
        for spec in CONTEXTS:
            rec = record(spec, line)
            outcomes[spec] = rec.notes if rec.verdict == "error" else None
        if len(set(outcomes.values())) > 1:
            violations.append(f"{line}: {outcomes}")
    assert not violations, _report(violations)


def test_zero_sharp_case_split():
    violations = []
    for spec in CONTEXTS:
        if context(spec).zero_sharp is not ZeroSharp.UNKNOWN:
            continue
        for line in QUERIES:
            sharp, no_sharp = (record(f"{spec}, {flag}" if spec else flag, line) for flag in ("sharp", "no-sharp"))
            if not (sharp.verdict == no_sharp.verdict == "determined" and sharp.value == no_sharp.value):
                continue
            rec = record(spec, line)
            if (rec.verdict, rec.value) != ("determined", sharp.value):
                violations.append(f"{line} under [{spec}]: {rec.verdict} {rec.value} {rec.notes}, "
                                  f"but {sharp.value} under both sharp and no-sharp")
    assert not violations, _report(violations)
