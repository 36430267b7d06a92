"""Query dispatch: route parsed statements to engine operations.

Every query evaluates to a ``QueryResult`` with the fixed field order
{query, verdict, value, assumptions_used, notes}; ``to_json_line`` writes
exactly one machine-readable line so batch output is byte-deterministic.
Independent verdicts surface their missing assumptions as ``missing:``
notes; engine errors surface verbatim with verdict ``error``.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable
from io import TextIOBase

try:
    from _json import encode_basestring_ascii  # the C escaping json.encoder uses, without importing json
except ImportError:
    from json.encoder import encode_basestring_ascii

import alephcalc as _pkg  # _pkg.sizes etc. import an entry module when a query first needs it
from .cardinals import (
    Aleph,
    CardinalExpr,
    cofinality,
    initial_ordinal,
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
    _clip,
    format_statement,
    parse,
)
from .hypotheses import (
    Determined,
    HypothesisContext,
    Independent,
    Verdict,
    _EXISTS,
    _NOT_EXISTS,
    extend_context,
    l_cofinality,
)
from .ordinals import _Record, _set


class QueryError(Exception):
    pass


class QueryResult(_Record):
    """One record.  ``to_json_line`` writes it as the JSON object of its five fields in order, the
    line ``json.dumps`` gives for it, built by hand from the same ASCII string escaping."""

    __slots__ = ("query", "verdict", "value", "assumptions_used", "notes")
    def __init__(self, query: str, verdict: str, value: str | None,
                 assumptions_used: tuple[str, ...] = (), notes: tuple[str, ...] = ()) -> None:
        _set(self, "query", query)
        _set(self, "verdict", verdict)  # 'determined' | 'independent' | 'error'
        _set(self, "value", value)
        _set(self, "assumptions_used", assumptions_used)
        _set(self, "notes", notes)

    def to_json_line(self) -> str:
        """``json.dumps`` of the dict of the five fields, tuples as lists, without its generic encoder:
        each string goes through ``encode_basestring_ascii``, the escaping ``json.dumps`` applies with
        its default ``ensure_ascii``, and the separators are its defaults, ``", "`` and ``": "``."""
        quote = encode_basestring_ascii
        value = "null" if self.value is None else quote(self.value)
        return (f'{{"query": {quote(self.query)}, "verdict": {quote(self.verdict)}, "value": {value}, '
                f'"assumptions_used": [{", ".join(map(quote, self.assumptions_used))}], '
                f'"notes": [{", ".join(map(quote, self.notes))}]}}')

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
            return initial_ordinal(arg.value)
    raise QueryError(f"argument {i + 1} of {name} must be {_KIND_NAMES[kind]}")


# Caveats every record of a shaped answer carries, after the caller's notes, by the answer's class name,
# so that building the table imports neither sizes nor spectra.
_CAVEATS: dict[str, tuple[str, ...]] = {
    "SizeInterval": ("certified bounds only; the interval is not known to be tight",),
    "AtLeastCard": ("lower bound only; exactness is open",),
}


def _from_verdict(name: str, v: Verdict | _pkg.sizes.SizeVerdict | _pkg.spectra.CountValue, *,
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
    return QueryResult(name, "determined", text, v.used, notes + _CAVEATS.get(type(v).__name__, ()))


def _succ_str(c: CardinalExpr) -> str:
    # Successors of opaque atoms have no aleph notation; render them as text.
    return str(successor(c)) if isinstance(c, Aleph) else f"the successor of {c}"


# --- queries -----------------------------------------------------------------


def _internal_size(name, ctx, mu, ls, lam):
    v = _pkg.sizes.internal_size_of_cardinality(_pkg.sizes.ClassParams(mu=mu, ls=ls), lam, ctx)
    if isinstance(v, _pkg.sizes.BelowLS):
        return _from_verdict(name, Determined(f"<={ls}"),
                             notes=(f"presentability rank at most {_succ_str(ls)}",))
    if isinstance(v, Determined):
        notes = (f"presentability rank {_succ_str(v.value)}",)
    elif isinstance(v, _pkg.sizes.TwoCandidates):
        notes = (f"presentability rank {_succ_str(v.lo)} or {_succ_str(v.hi)}",)
    else:
        notes = ()
    return _from_verdict(name, v, notes=notes)


def _existence_window(name, ctx, mu, lam):
    lo, hi = _pkg.sizes.existence_window(mu, lam, ctx)
    if isinstance(hi, Determined):
        hi = Determined(f"[{lo}, {hi.value}]", hi.used)
    return _from_verdict(name, hi, independent_value=f"[{lo}, {lo}^<{mu}]")


def _existence_at(name, ctx, mu, ls, lam, intersections):
    params = _pkg.sizes.ClassParams(mu=mu, ls=ls, admits_intersections=intersections)
    return _from_verdict(name, _pkg.sizes.existence_at(params, lam, ctx))


def _no_model_rule(name, ctx, mu, ls, lam, gap_lo, gap_hi, categorical):
    params = _pkg.sizes.ClassParams(mu=mu, ls=ls)
    facts = _pkg.sizes.SpectrumFacts(
        no_models_in_cardinality_interval=(gap_lo, gap_hi),
        categorical_in_cardinality=categorical,
    )
    return _from_verdict(name, _pkg.sizes.no_model_of_internal_size(params, lam, facts, ctx))


# Every query: its argument kinds in order ('card', 'ord' or 'bool') and a
# handler called as handler(statement, ctx, *coerced_args).
QUERIES: dict[str, tuple[tuple[str, ...], Callable[..., QueryResult]]] = {
    "cf": (("card",), lambda n, ctx, c: _from_verdict(n, Determined(cofinality(c)))),
    "reg": (("card",), lambda n, ctx, c: _from_verdict(n, Determined(is_regular(c)))),
    "succ": (("card",), lambda n, ctx, c: _from_verdict(n, Determined(successor(c)))),
    "lambda_r": (("card",), lambda n, ctx, c: _from_verdict(n, Determined(lambda_r(c)))),
    "lambda_star": (("card",), lambda n, ctx, c: _from_verdict(n, Determined(lambda_star(c)))),
    "closed": (("card", "card"), lambda n, ctx, lam, mu:
               _from_verdict(n, _pkg.arithmetic.is_mu_closed(lam, mu, ctx))),
    "almost_closed": (("card", "card"), lambda n, ctx, lam, mu:
                      _from_verdict(n, _pkg.arithmetic.is_almost_mu_closed(lam, mu, ctx))),
    "exp_lt": (("card", "card"), lambda n, ctx, lam, mu:
               _from_verdict(n, _pkg.arithmetic.exp_lt(lam, mu, ctx), independent_value=f"{lam}^<{mu}")),
    "two_lt": (("card",), lambda n, ctx, mu:
               _from_verdict(n, _pkg.arithmetic.two_lt(mu, ctx), independent_value=f"2^<{mu}")),
    "triangle": (("card", "card"), lambda n, ctx, mu, lam:
                 _from_verdict(n, _pkg.arithmetic.triangle(mu, lam, ctx))),
    "l_cf": (("card",), lambda n, ctx, lam: _from_verdict(n, l_cofinality(lam, ctx))),
    "colimit_bound": (("card", "card"), lambda n, ctx, index, sup:
                      _from_verdict(n, Determined(_pkg.sizes.colimit_presentability_bound(index, sup)))),
    "internal_size": (("card", "card", "card"), _internal_size),
    "rank_excluded": (("card", "card"), lambda n, ctx, theta, mu:
                      _from_verdict(n, _pkg.sizes.rank_excluded_at(theta, mu, ctx))),
    "existence_window": (("card", "card"), _existence_window),
    "existence_at": (("card", "card", "card", "bool"), _existence_at),
    "no_model_rule": (("card",) * 6, _no_model_rule),
    "hilbert_card": (("card",), lambda n, ctx, lam:
                     _from_verdict(n, _pkg.spectra.hilbert_count_by_cardinality(lam, ctx),
                                   notes=("counting infinite-dimensional spaces only",))),
    "hilbert_internal": (("card",), lambda n, ctx, lam:
                         _from_verdict(n, _pkg.spectra.hilbert_count_by_internal_size(lam))),
    "wo_size": (("ord", "card"), lambda n, ctx, alpha, lam:
                _from_verdict(n, Determined(_pkg.spectra.wellorder_internal_size(*alpha, lam)))),
    "shelah_card": (("card", "card"), lambda n, ctx, mu, lam:
                    _from_verdict(n, _pkg.spectra.shelah_count_by_cardinality(mu, lam, ctx))),
    "shelah_internal": (("card", "card"), lambda n, ctx, mu, lam:
                        _from_verdict(n, _pkg.spectra.shelah_count_by_internal_size(mu, lam, ctx))),
}

QUERY_SIGNATURES: dict[str, tuple[str, ...]] = {name: kinds for name, (kinds, _) in QUERIES.items()}


def apply_assumption(ctx: HypothesisContext, item: Assumption) -> HypothesisContext:
    """Fold one parsed assumption into ctx; conflicts raise ValueError."""
    if isinstance(item, AssumeGch):
        return extend_context(ctx, gch=True)
    if isinstance(item, AssumeVEqualsL):
        return extend_context(ctx, v_equals_l=True)
    if isinstance(item, AssumeSharp):
        return extend_context(ctx, zero_sharp=_EXISTS if item.exists else _NOT_EXISTS)
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
    if not isinstance(ast, Query):
        return [QueryResult(name, "determined", name)], ctx
    entry = QUERIES.get(ast.name)
    if entry is None:
        raise QueryError(f"unknown query name: {_clip(ast.name)}")
    kinds, handler = entry
    if len(ast.args) != len(kinds):
        raise QueryError(f"{ast.name} takes {len(kinds)} argument(s), got {len(ast.args)}")
    args = [_coerce(ast.name, i, kind, arg) for i, (kind, arg) in enumerate(zip(kinds, ast.args))]
    return [handler(name, ctx, *args)], ctx


def _evaluate(text: str, ctx: HypothesisContext, literals: dict | None, ast: Ast | None = None
              ) -> tuple[list[QueryResult], HypothesisContext, Ast | None]:
    """``evaluate_line``, evaluating ``ast`` instead of parsing ``text`` (with ``parse``'s ``literals``)
    when given.  Also returns the AST of ``text``, or None if it did not parse."""
    try:
        if ast is None:
            ast = parse(text, literals)
        return *evaluate(ast, ctx), ast
    except (ParseError, QueryError, ValueError) as err:
        note = f"error: {err}"
    except Exception as err:  # a parser or engine bug: one visible record, not a traceback
        note = f"internal: {type(err).__name__}: {err}"
    query = text.strip() if ast is None else format_statement(ast)
    return [QueryResult(query, "error", None, (), (note,))], ctx, ast


def evaluate_line(text: str, ctx: HypothesisContext) -> tuple[list[QueryResult], HypothesisContext]:
    """Parse and evaluate ``text``, turning any exception into one error record.

    A ``ParseError``, ``QueryError`` or ``ValueError`` gives an ``error:`` note, any other exception (a parser
    or engine bug) an ``internal:`` one; the record's query is the stripped text if parsing failed."""
    return _evaluate(text, ctx, None)[:2]


def run_batch(lines: Iterable[str], ctx: HypothesisContext, out: TextIOBase, *, as_json: bool) -> int:
    """One record per query line; assume lines mutate the context forward-only.

    A repeated line is parsed once per call, across assume lines, and evaluated once per context.  A
    repeated aleph(...) literal of at most four levels of parentheses is parsed once per distinct text
    and its value kept alive until the call returns.  Returns the exit status: nonzero iff any line
    produced an error record.
    """
    status = 0
    # Stripped line -> (its AST or None if it did not parse, the context its records were rendered under
    # or None if the line changed the context, those records, whether one is an error).  An AST does not
    # depend on the context, so it is reused under a new one; the records are replayed only under the
    # same one.  4,096 lines bound the table.  literals is parse's table of aleph(...) values.
    table: dict[str, tuple[Ast | None, HypothesisContext | None, tuple[str, ...], bool]] = {}
    literals: dict = {}
    for raw in lines:
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        entry = table.get(line)
        if entry is None or entry[1] is not ctx:
            results, new_ctx, ast = _evaluate(line, ctx, literals, entry and entry[0])
            entry = (ast, ctx if new_ctx is ctx else None,
                     tuple(r.to_json_line() + "\n" if as_json else f"{r.query}\n{r.pretty()}\n" for r in results),
                     any(r.verdict == "error" for r in results))
            if len(table) < 4096 or line in table:
                table[line] = entry
            ctx = new_ctx
        _, _, records, error = entry
        status |= error
        for record in records:
            out.write(record)
    return status
