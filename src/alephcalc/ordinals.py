"""Ordinals below epsilon_0 in Cantor normal form.

A ``CnfOrdinal`` is a finite sequence of (exponent, coefficient) terms with
strictly decreasing exponents and coefficients >= 1; the empty sequence is 0.
The representation is unique: structural equality is ordinal equality.  These
ordinals index alephs and carry the exponent arithmetic the cardinal layer
needs; multiplication and exponentiation are deliberately absent.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass


class Ordering(enum.Enum):
    LESS = -1
    EQUAL = 0
    GREATER = 1


@dataclass(frozen=True, repr=False)
class CnfOrdinal:
    terms: tuple[tuple["CnfOrdinal", int], ...] = ()

    def __post_init__(self) -> None:
        prev = None
        for exp, coeff in self.terms:
            if not isinstance(exp, CnfOrdinal) or coeff < 1:
                raise ValueError("CNF term needs a CnfOrdinal exponent and coefficient >= 1")
            if prev is not None and cnf_compare(exp, prev) is not Ordering.LESS:
                raise ValueError("CNF exponents must strictly decrease")
            prev = exp

    @classmethod
    def _raw(cls, terms: tuple[tuple["CnfOrdinal", int], ...]) -> "CnfOrdinal":
        # Construction bypass for results that are valid by construction
        # (validation costs a comparison per adjacent term pair).
        obj = object.__new__(cls)
        object.__setattr__(obj, "terms", terms)
        return obj

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def is_nat(self) -> bool:
        """True for finite ordinals (0 or a single exponent-0 term)."""
        return not self.terms or (len(self.terms) == 1 and self.terms[0][0].is_zero)

    def as_int(self) -> int:
        if not self.is_nat:
            raise ValueError(f"{self} is infinite")
        return self.terms[0][1] if self.terms else 0

    def __lt__(self, other: "CnfOrdinal") -> bool:
        return cnf_compare(self, other) is Ordering.LESS

    def __le__(self, other: "CnfOrdinal") -> bool:
        return cnf_compare(self, other) is not Ordering.GREATER

    def __gt__(self, other: "CnfOrdinal") -> bool:
        return cnf_compare(self, other) is Ordering.GREATER

    def __ge__(self, other: "CnfOrdinal") -> bool:
        return cnf_compare(self, other) is not Ordering.LESS

    def __add__(self, other: "CnfOrdinal") -> "CnfOrdinal":
        return cnf_add(self, other)

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        return "+".join(_term_str(e, c) for e, c in self.terms)

    def __repr__(self) -> str:
        return str(self)


def _exp_needs_parens(exp: CnfOrdinal) -> bool:
    # Unparenthesised exponents are exactly what the grammar's exponent
    # position accepts: a natural, or a coefficient-1 single term (w, w^w, ...).
    if exp.is_nat:
        return False
    return not (len(exp.terms) == 1 and exp.terms[0][1] == 1)


def _term_str(exp: CnfOrdinal, coeff: int) -> str:
    if exp.is_zero:
        return str(coeff)
    if exp == ORD_ONE:
        body = "w"
    else:
        e = str(exp)
        body = f"w^({e})" if _exp_needs_parens(exp) else f"w^{e}"
    return body if coeff == 1 else f"{body}*{coeff}"


def from_int(n: int) -> CnfOrdinal:
    if n < 0:
        raise ValueError("ordinals are nonnegative")
    return CnfOrdinal(((ORD_ZERO, n),)) if n else ORD_ZERO


def omega_power(exp: CnfOrdinal, coeff: int = 1) -> CnfOrdinal:
    return CnfOrdinal(((exp, coeff),))


ORD_ZERO = CnfOrdinal(())
ORD_ONE = CnfOrdinal(((ORD_ZERO, 1),))
OMEGA = CnfOrdinal(((ORD_ONE, 1),))


def cnf_compare(a: CnfOrdinal, b: CnfOrdinal) -> Ordering:
    """Total order on CNF ordinals: lexicographic on (exponent, coefficient)."""
    for (ea, ca), (eb, cb) in zip(a.terms, b.terms):
        by_exp = cnf_compare(ea, eb)
        if by_exp is not Ordering.EQUAL:
            return by_exp
        if ca != cb:
            return Ordering.LESS if ca < cb else Ordering.GREATER
    if len(a.terms) != len(b.terms):
        return Ordering.LESS if len(a.terms) < len(b.terms) else Ordering.GREATER
    return Ordering.EQUAL


def cnf_add(a: CnfOrdinal, b: CnfOrdinal) -> CnfOrdinal:
    """Ordinal sum a + b: terms of a below b's leading exponent are absorbed."""
    if not b.terms:
        return a
    lead = b.terms[0][0]
    kept = []
    merged_coeff = b.terms[0][1]
    for exp, coeff in a.terms:
        cmp = cnf_compare(exp, lead)
        if cmp is Ordering.GREATER:
            kept.append((exp, coeff))
        elif cmp is Ordering.EQUAL:
            merged_coeff += coeff
            break
        else:
            break
    kept.append((lead, merged_coeff))
    kept.extend(b.terms[1:])
    return CnfOrdinal._raw(tuple(kept))


@dataclass(frozen=True)
class Zero:
    pass


@dataclass(frozen=True)
class Successor:
    pred: CnfOrdinal


@dataclass(frozen=True)
class Limit:
    pass


OrdinalKind = Zero | Successor | Limit


def ord_classify(a: CnfOrdinal) -> OrdinalKind:
    """Zero, Successor (with predecessor), or Limit."""
    if not a.terms:
        return Zero()
    exp, coeff = a.terms[-1]
    if not exp.is_zero:
        return Limit()
    if coeff > 1:
        pred = CnfOrdinal._raw(a.terms[:-1] + ((exp, coeff - 1),))
    else:
        pred = CnfOrdinal._raw(a.terms[:-1])
    return Successor(pred)
