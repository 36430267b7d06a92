"""Query dispatch: route parsed statements to engine operations.

Every query evaluates to a ``QueryResult`` with the fixed field order
{query, verdict, value, assumptions_used, notes}; ``to_json_line`` renders
exactly one machine-readable line so batch output is byte-deterministic.
Independent verdicts surface their missing assumptions as ``missing:``
notes; engine errors surface verbatim with verdict ``error``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable, Iterable, TextIO

from . import arithmetic, sizes, spectra
from .cardinals import (
    ALEPH0,
    CardinalExpr,
    cofinality,
    is_regular,
    lambda_r,
    lambda_star,
    successor,
)
from .dsl import (
    Assume,
    AssumeGch,
    AssumeSharp,
    AssumeVEqualsL,
    Assumption,
    Ast,
    BoolLiteral,
    CardinalLiteral,
    OrdinalLiteral,
    ParseError,
    Query,
    Session,
    format_statement,
    parse,
)
from .hypotheses import (
    Determined,
    HypothesisContext,
    Independent,
    Verdict,
    ZeroSharp,
    extend_context,
    l_cofinality,
)
from .ordinals import OMEGA, ORD_ZERO


class QueryError(Exception):
    pass


@dataclass(frozen=True)
class QueryResult:
    query: str
    verdict: str  # 'determined' | 'independent' | 'error'
    value: str | None
    assumptions_used: tuple[str, ...] = ()
    notes: tuple[str, ...] = ()

    def to_json_line(self) -> str:
        return json.dumps(
            {
                "query": self.query,
                "verdict": self.verdict,
                "value": self.value,
                "assumptions_used": list(self.assumptions_used),
                "notes": list(self.notes),
            }
        )

    def pretty(self) -> str:
        if self.verdict == "determined":
            head = f"= {self.value}"
            if self.assumptions_used:
                head += f"   [via {', '.join(self.assumptions_used)}]"
        elif self.verdict == "independent":
            head = "independent" + (f" (value would be {self.value})" if self.value else "")
        else:
            head = "error"
        lines = [head]
        lines.extend(f"  {note}" for note in self.notes)
        return "\n".join(lines)


_KIND_NAMES = {"card": "a cardinal", "ord": "an ordinal", "bool": "true or false"}


def _coerce(name: str, i: int, kind: str, arg: Ast):
    """The value of literal ``arg`` as argument ``i`` (0-based) of query ``name``."""
    if kind == "card" and isinstance(arg, CardinalLiteral):
        return arg.value
    if kind == "bool" and isinstance(arg, BoolLiteral):
        return arg.value
    if kind == "ord":
        if isinstance(arg, OrdinalLiteral):
            return arg.base, arg.tail
        if isinstance(arg, CardinalLiteral):
            # A cardinal used in ordinal position denotes its initial ordinal.
            if arg.value == ALEPH0:
                return None, OMEGA
            return arg.value, ORD_ZERO
    raise QueryError(f"argument {i + 1} of {name} must be {_KIND_NAMES[kind]}")


# Caveats every record of a shaped answer carries, after the caller's notes.
_CAVEATS: dict[type, tuple[str, ...]] = {
    sizes.SizeInterval: ("certified bounds only; the interval is not known to be tight",),
    spectra.AtLeastCard: ("lower bound only; exactness is open",),
}


def _from_verdict(name: str, v: Verdict | sizes.SizeVerdict | spectra.CountValue, *,
                  independent_value: str | None = None,
                  notes: tuple[str, ...] = ()) -> QueryResult:
    """The record of any engine answer: a verdict, or a shaped size or count."""
    if isinstance(v, Independent):
        return QueryResult(
            name,
            "independent",
            independent_value,
            v.used,
            notes + tuple(f"missing: {m}" for m in v.missing),
        )
    value = v.value if isinstance(v, Determined) else v
    text = ("true" if value else "false") if isinstance(value, bool) else str(value)
    return QueryResult(name, "determined", text, v.used, notes + _CAVEATS.get(type(v), ()))


def _succ_str(c: CardinalExpr) -> str:
    # Successors of opaque atoms have no aleph notation; render them as text.
    try:
        return str(successor(c))
    except ValueError:
        return f"the successor of {c}"


# --- queries -----------------------------------------------------------------


def _internal_size(name, ctx, mu, ls, lam):
    v = sizes.internal_size_of_cardinality(sizes.ClassParams(mu=mu, ls=ls), lam, ctx)
    if isinstance(v, sizes.BelowLS):
        return _from_verdict(name, Determined(f"<={ls}"),
                             notes=(f"presentability rank at most {_succ_str(ls)}",))
    if isinstance(v, Determined):
        notes = (f"presentability rank {_succ_str(v.value)}",)
    elif isinstance(v, sizes.TwoCandidates):
        notes = (f"presentability rank {_succ_str(v.lo)} or {_succ_str(v.hi)}",)
    else:
        notes = ()
    return _from_verdict(name, v, notes=notes)


def _existence_window(name, ctx, mu, lam):
    lo, hi = sizes.existence_window(mu, lam, ctx)
    if isinstance(hi, Determined):
        hi = Determined(f"[{lo}, {hi.value}]", hi.used)
    return _from_verdict(name, hi, independent_value=f"[{lo}, {lo}^<{mu}]")


def _existence_at(name, ctx, mu, ls, lam, intersections):
    params = sizes.ClassParams(mu=mu, ls=ls, admits_intersections=intersections,
                               arbitrarily_large_models=True)
    return _from_verdict(name, sizes.existence_at(params, lam, ctx))


def _no_model_rule(name, ctx, mu, ls, lam, gap_lo, gap_hi, categorical):
    params = sizes.ClassParams(mu=mu, ls=ls)
    facts = sizes.SpectrumFacts(
        no_models_in_cardinality_interval=(gap_lo, gap_hi),
        categorical_in_cardinality=categorical,
    )
    return _from_verdict(name, sizes.no_model_of_internal_size(params, lam, facts, ctx))


# Every query: its argument kinds in order ('card', 'ord' or 'bool') and a
# handler called as handler(statement, ctx, *coerced_args).
QUERIES: dict[str, tuple[tuple[str, ...], Callable[..., QueryResult]]] = {
    "cf": (("card",), lambda n, ctx, c: _from_verdict(n, Determined(cofinality(c)))),
    "reg": (("card",), lambda n, ctx, c: _from_verdict(n, Determined(is_regular(c)))),
    "succ": (("card",), lambda n, ctx, c: _from_verdict(n, Determined(successor(c)))),
    "lambda_r": (("card",), lambda n, ctx, c: _from_verdict(n, Determined(lambda_r(c)))),
    "lambda_star": (("card",), lambda n, ctx, c: _from_verdict(n, Determined(lambda_star(c)))),
    "closed": (("card", "card"), lambda n, ctx, lam, mu:
               _from_verdict(n, arithmetic.is_mu_closed(lam, mu, ctx))),
    "almost_closed": (("card", "card"), lambda n, ctx, lam, mu:
                      _from_verdict(n, arithmetic.is_almost_mu_closed(lam, mu, ctx))),
    "exp_lt": (("card", "card"), lambda n, ctx, lam, mu:
               _from_verdict(n, arithmetic.exp_lt(lam, mu, ctx), independent_value=f"{lam}^<{mu}")),
    "two_lt": (("card",), lambda n, ctx, mu:
               _from_verdict(n, arithmetic.two_lt(mu, ctx), independent_value=f"2^<{mu}")),
    "triangle": (("card", "card"), lambda n, ctx, mu, lam:
                 _from_verdict(n, arithmetic.triangle(mu, lam, ctx))),
    "l_cf": (("card",), lambda n, ctx, lam: _from_verdict(n, l_cofinality(lam, ctx))),
    "colimit_bound": (("card", "card"), lambda n, ctx, index, sup:
                      _from_verdict(n, Determined(sizes.colimit_presentability_bound(index, sup)))),
    "internal_size": (("card", "card", "card"), _internal_size),
    "rank_excluded": (("card", "card"), lambda n, ctx, theta, mu:
                      _from_verdict(n, sizes.rank_excluded_at(theta, mu, ctx))),
    "existence_window": (("card", "card"), _existence_window),
    "existence_at": (("card", "card", "card", "bool"), _existence_at),
    "no_model_rule": (("card",) * 6, _no_model_rule),
    "hilbert_card": (("card",), lambda n, ctx, lam:
                     _from_verdict(n, spectra.hilbert_count_by_cardinality(lam, ctx),
                                   notes=("counting infinite-dimensional spaces only",))),
    "hilbert_internal": (("card",), lambda n, ctx, lam:
                         _from_verdict(n, spectra.hilbert_count_by_internal_size(lam))),
    "wo_size": (("ord", "card"), lambda n, ctx, alpha, lam:
                _from_verdict(n, Determined(spectra.wellorder_internal_size(*alpha, lam)))),
    "shelah_card": (("card", "card"), lambda n, ctx, mu, lam:
                    _from_verdict(n, spectra.shelah_count_by_cardinality(mu, lam, ctx))),
    "shelah_internal": (("card", "card"), lambda n, ctx, mu, lam:
                        _from_verdict(n, spectra.shelah_count_by_internal_size(mu, lam, ctx))),
}

QUERY_SIGNATURES: dict[str, tuple[str, ...]] = {name: kinds for name, (kinds, _) in QUERIES.items()}


def apply_assumption(ctx: HypothesisContext, item: Assumption) -> HypothesisContext:
    """Fold one parsed assumption into ctx; conflicts raise ValueError."""
    if isinstance(item, AssumeGch):
        return extend_context(ctx, gch=True)
    if isinstance(item, AssumeVEqualsL):
        return extend_context(ctx, v_equals_l=True)
    if isinstance(item, AssumeSharp):
        return extend_context(ctx, zero_sharp=ZeroSharp.EXISTS if item.exists else ZeroSharp.NOT_EXISTS)
    return extend_context(ctx, sch=(item,))


def evaluate(ast: Ast, ctx: HypothesisContext) -> tuple[list[QueryResult], HypothesisContext]:
    """Evaluate one statement (or session); assume items fold into the context."""
    if isinstance(ast, Session):
        results: list[QueryResult] = []
        for item in ast.items:
            sub, ctx = evaluate(item, ctx)
            results.extend(sub)
        return results, ctx
    if isinstance(ast, Assume):
        return [], apply_assumption(ctx, ast.item)
    name = format_statement(ast)
    if isinstance(ast, (CardinalLiteral, OrdinalLiteral, BoolLiteral)):
        return [QueryResult(name, "determined", name)], ctx
    assert isinstance(ast, Query)
    entry = QUERIES.get(ast.name)
    if entry is None:
        raise QueryError(f"unknown query name: {ast.name}")
    kinds, handler = entry
    if len(ast.args) != len(kinds):
        raise QueryError(f"{ast.name} takes {len(kinds)} argument(s), got {len(ast.args)}")
    args = [_coerce(ast.name, i, kind, arg) for i, (kind, arg) in enumerate(zip(kinds, ast.args))]
    return [handler(name, ctx, *args)], ctx


def evaluate_line(text: str, ctx: HypothesisContext) -> tuple[list[QueryResult], HypothesisContext]:
    """Parse and evaluate, converting all engine errors into error records."""
    try:
        ast = parse(text)
    except ParseError as err:
        return [QueryResult(text.strip(), "error", None, (), (f"error: {err}",))], ctx
    try:
        return evaluate(ast, ctx)
    except (QueryError, ValueError) as err:
        return [QueryResult(format_statement(ast), "error", None, (), (f"error: {err}",))], ctx


def run_batch(lines: Iterable[str], ctx: HypothesisContext, out: TextIO, *, as_json: bool) -> int:
    """One record per query line; assume lines mutate the context forward-only.

    Returns the exit status: nonzero iff any line produced an error record.
    """
    status = 0
    for raw in lines:
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        results, ctx = evaluate_line(line, ctx)
        for result in results:
            if result.verdict == "error":
                status = 1
            if as_json:
                out.write(result.to_json_line() + "\n")
            else:
                out.write(f"{result.query}\n{result.pretty()}\n")
    return status
