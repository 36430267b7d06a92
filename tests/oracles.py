"""Independent oracles the tests check the engine against.

* Ordinals below w^4 encoded as coefficient 4-tuples (w^3, w^2, w, 1):
  comparison is plain tuple comparison, addition is the absorb-and-merge
  rule written directly on tuples.
* The classical GCH exponentiation recursion lambda^kappa, lifted to
  lambda^{<mu} by a case split on the exponent bound.
* A standalone cofinality/"successor of small cofinality" classifier that
  inspects the index structure directly.
* The refinement order on record value text: when does one answer say at
  least as much as another (Cousot & Cousot, POPL 1977)?
* The DSL scanner written one regex match at a time, which ``dsl._scan``
  replaced with one ``findall``.
* The SCH lookups scanning every declared instance in turn, with no grouping
  of the instances by level.
* The DSL text of ordinals and cardinals, written from a plain-tuple form of
  their fields, with the parentheses an exponent needs read off its text.
"""

from __future__ import annotations

import re
from itertools import product

from alephcalc import (
    ALEPH0,
    Aleph,
    AtLeast,
    CardinalAtom,
    CardinalExpr,
    CnfOrdinal,
    Determined,
    ExplicitSet,
    HypothesisContext,
    Independent,
    SuccessorCard,
    UnboundedBelow,
    Verdict,
    card_index_classify,
    successor,
)
from alephcalc.cardinals import IDENT, card_max, require_level
from alephcalc.dsl import CardinalLiteral, ParseError, parse
from alephcalc.ordinals import from_int

Tup = tuple[int, int, int, int]


def all_tuples(max_coeff: int) -> list[Tup]:
    rng = range(max_coeff + 1)
    return list(product(rng, rng, rng, rng))


def tuple_compare(a: Tup, b: Tup) -> int:
    return (a > b) - (a < b)


def tuple_add(a: Tup, b: Tup) -> Tup:
    lead = next((i for i in range(4) if b[i] > 0), None)
    if lead is None:
        return a
    merged = list(b)
    merged[lead] += a[lead]
    return tuple(a[:lead]) + tuple(merged[lead:])


def tuple_to_cnf(t: Tup) -> CnfOrdinal:
    out: list[tuple[CnfOrdinal, int]] = []
    for power, coeff in zip((3, 2, 1, 0), t):
        if coeff:
            out.append((from_int(power), coeff))
    return CnfOrdinal(tuple(out))


def cnf_to_tuple(o: CnfOrdinal) -> Tup:
    t = [0, 0, 0, 0]
    for exp, coeff in o.terms:
        t[3 - exp.as_int()] = coeff
    return tuple(t)


# --- GCH exponentiation --------------------------------------------------------


def cf_oracle(c: CardinalExpr) -> CardinalExpr:
    """Cofinality recomputed from the raw index structure."""
    if isinstance(c, CardinalAtom):
        assert c.weakly_inaccessible
        return c
    assert isinstance(c, Aleph)
    if not c.tail.terms:
        return ALEPH0 if c.base is None else cf_oracle(c.base)
    last_exp, _ = c.tail.terms[-1]
    if not last_exp.terms:
        return c
    return ALEPH0


def gch_pow(lam: CardinalExpr, kappa: CardinalExpr) -> CardinalExpr:
    """lambda^kappa under GCH: kappa^+ if lambda <= kappa; lambda^+ if
    cf(lambda) <= kappa < lambda; lambda if kappa < cf(lambda)."""
    if lam <= kappa:
        return successor(kappa)
    if cf_oracle(lam) <= kappa:
        return successor(lam)
    return lam


def gch_exp_lt(lam: CardinalExpr, mu: CardinalExpr) -> CardinalExpr:
    """lambda^{<mu} under GCH."""
    if mu == ALEPH0:
        return lam
    if isinstance(mu, CardinalAtom):
        # Weakly inaccessible bound: sup over kappa < mu.
        if lam < mu:
            return mu
        return successor(lam) if cf_oracle(lam) < mu else lam
    assert isinstance(mu, Aleph)
    pred_tail = mu.tail.terms[-1]
    assert not pred_tail[0].terms, "mu must be a successor here"
    if pred_tail[1] > 1:
        pred = Aleph(mu.base, CnfOrdinal(mu.tail.terms[:-1] + ((pred_tail[0], pred_tail[1] - 1),)))
    else:
        pred = Aleph(mu.base, CnfOrdinal(mu.tail.terms[:-1]))
    return gch_pow(lam, pred)


def is_bad_successor(lam: CardinalExpr, mu: CardinalExpr) -> bool:
    """Is lam the successor of a cardinal of cofinality below mu?"""
    if isinstance(lam, CardinalAtom):
        return False
    assert isinstance(lam, Aleph)
    if not lam.tail.terms:
        return False
    last_exp, coeff = lam.tail.terms[-1]
    if last_exp.terms:
        return False
    if coeff > 1:
        pred = Aleph(lam.base, CnfOrdinal(lam.tail.terms[:-1] + ((last_exp, coeff - 1),)))
    else:
        pred = Aleph(lam.base, CnfOrdinal(lam.tail.terms[:-1]))
    return cf_oracle(pred) < mu


# --- refinement order on value text ---------------------------------------------


def _cardinal(text: str) -> CardinalExpr | None:
    """The cardinal a value text names, or None for any other text."""
    try:
        ast = parse(text)
    except ParseError:
        return None
    return ast.value if isinstance(ast, CardinalLiteral) else None


def refines(new: str, old: str) -> bool:
    """Does value text ``new`` say at least as much as ``old``?

    A value refines itself; a member refines ``[lo, hi]`` or ``{lo, hi}``;
    any cardinal ``>= x``, or ``>=y`` with y >= x, refines ``>=x``; any
    value ``<= x`` (a cardinal or ``<=y``) refines ``<=x``.
    """
    if new == old:
        return True
    if old.startswith((">=", "<=")):
        bound = _cardinal(old[2:])
        value = _cardinal(new[2:] if new.startswith(old[:2]) else new)
        if bound is None or value is None:
            return False
        return value >= bound if old[0] == ">" else value <= bound
    if old[:1] in ("[", "{") and old[-1:] in ("]", "}"):
        ends = [_cardinal(t) for t in old[1:-1].split(", ")]
        value = _cardinal(new)
        if len(ends) != 2 or None in ends or value is None:
            return False
        lo, hi = ends
        return lo <= value <= hi if old[0] == "[" else value in (lo, hi)
    return False


# --- the DSL scanner --------------------------------------------------------------

_SCANNER = re.compile(
    r"(?P<nat>\d+)|(?P<ident>" + IDENT.pattern + r")|(?P<symbol>>=|[-(){},;+*^=])|(?P<space>\s+)|(?P<bad>.)"
)


def reference_scan(text: str) -> list[tuple[str, str, int]]:
    """(kind, text, start offset) of each token, ending in ``('eof', '', len(text))``.

    A character no token can start raises the ``ParseError`` the DSL gives for it.
    """
    tokens = []
    for m in _SCANNER.finditer(text):
        kind, word, pos = m.lastgroup, m.group(), m.start()
        if kind == "bad":
            raise ParseError(text.count("\n", 0, pos) + 1, pos - text.rfind("\n", 0, pos), ("a token",), repr(word))
        if kind != "space":
            tokens.append((word if kind == "symbol" else kind, word, pos))
    return tokens + [("eof", "", len(text))]


# --- SCH lookups ------------------------------------------------------------------


def sch_scan_point(ctx: HypothesisContext, mu: CardinalExpr, card: CardinalExpr) -> Verdict:
    """``ctx_implies_sch``, comparing every instance's level with mu."""
    require_level(mu, card, what="card")
    if mu == ALEPH0:
        return Determined(True)
    if ctx.gch:
        return Determined(True, ("GCH",))
    for a in ctx.sch:
        if a.mu < mu:
            continue
        scope = a.scope
        if isinstance(scope, AtLeast):
            covers = card >= card_max(scope.threshold, a.mu)
        elif isinstance(scope, ExplicitSet):
            covers = card in scope.cards
        else:
            covers = isinstance(card, Aleph) and successor(card) == scope.limit
        if covers:
            return Determined(True, (a.describe(),))
    return Independent((f"SCH({mu}) at {card}",))


def sch_scan_below(ctx: HypothesisContext, mu: CardinalExpr, lam: CardinalExpr) -> Verdict:
    """``sch_holds_at``, comparing every instance's level with mu at a limit lam."""
    require_level(mu, lam)
    if mu == ALEPH0:
        return Determined(True)
    if ctx.gch:
        return Determined(True, ("GCH",))
    kind = card_index_classify(lam)
    if isinstance(kind, SuccessorCard):
        if kind.pred < mu:
            return Independent((f"SCH({mu}) below {lam}",))
        return sch_scan_point(ctx, mu, kind.pred)
    for a in ctx.sch:
        if a.mu < mu:
            continue
        scope = a.scope
        if isinstance(scope, UnboundedBelow) and scope.limit == lam:
            return Determined(True, (a.describe(),))
        if isinstance(scope, AtLeast) and card_max(scope.threshold, a.mu) < lam:
            return Determined(True, (a.describe(),))
    return Independent((f"SCH({mu}) below {lam}",))


# --- value text -------------------------------------------------------------------


def cnf_tree(o: CnfOrdinal) -> tuple:
    """o as plain nested tuples ``((exponent tree, coefficient), ...)``: the encoding of
    ``cnf_to_tuple`` with each exponent spelt out, so it reaches every ordinal below epsilon_0."""
    return tuple((cnf_tree(exp), coeff) for exp, coeff in o.terms)


def _bare_exponent(text: str) -> bool:
    """Can ``text`` follow ``^`` without parentheses: has it no '+' or '*' outside parentheses?"""
    while "(" in text:
        text = re.sub(r"\([^()]*\)", "", text)
    return "+" not in text and "*" not in text


def tree_text(tree: tuple) -> str:
    """The DSL text of an ordinal given as ``cnf_tree`` gives it."""
    out = []
    for exp, coeff in tree:
        if not exp:
            out.append(str(coeff))
            continue
        power = tree_text(exp)
        power = "w" if power == "1" else f"w^{power}" if _bare_exponent(power) else f"w^({power})"
        out.append(power if coeff == 1 else f"{power}*{coeff}")
    return "+".join(out) or "0"


def card_text(c: CardinalExpr) -> str:
    """The DSL text of a cardinal: ``aleph(index)``, ``inacc(name)`` or ``atom(name)``."""
    if isinstance(c, CardinalAtom):
        return f"{'inacc' if c.weakly_inaccessible else 'atom'}({c.name})"
    tail = tree_text(cnf_tree(c.tail))
    if c.base is None:
        return f"aleph({tail})"
    return f"aleph({card_text(c.base)})" if tail == "0" else f"aleph({card_text(c.base)}+{tail})"
