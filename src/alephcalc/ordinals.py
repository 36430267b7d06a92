"""Ordinals below epsilon_0 in Cantor normal form.

A ``CnfOrdinal`` is a finite sequence of (exponent, coefficient) terms with
strictly decreasing exponents and coefficients >= 1; the empty sequence is 0.
The representation is unique, and values are interned: equal ordinals are
one object.  These ordinals index alephs and carry the exponent arithmetic
the cardinal layer needs; multiplication and exponentiation are absent.

The engine compares two interned values with ``is``, never ``==``, which
would dispatch through the Python-level comparison slot of the class.
Function bodies read ``Ordering`` members from the module constants
``_LESS``, ``_EQUAL`` and ``_GREATER``, since on Python 3.10 and 3.11 a
read through an enum class goes through ``EnumType.__getattr__``.
"""

from __future__ import annotations

import enum
import threading
import weakref
from _weakref import _remove_dead_weakref


class Ordering(enum.Enum):
    LESS = -1
    EQUAL = 0
    GREATER = 1


_LESS, _EQUAL, _GREATER = Ordering.LESS, Ordering.EQUAL, Ordering.GREATER

_TABLE: dict[tuple, _Ref] = {}
_LOCK = threading.Lock()
# Writes a field of a record; only constructors call it.
_set = object.__setattr__


class _Ref(weakref.ref):
    __slots__ = ("key",)


def _interned(cls, fields: tuple, check: bool):
    """Hash-consing: the one live ``cls`` object with these field values.  A miss
    builds it, runs ``_check`` if asked and publishes a weak reference."""
    key = (cls, *fields)
    obj = (ref := _TABLE.get(key)) and ref()
    if obj is not None:
        return obj
    obj = object.__new__(cls)
    for name, value in zip(cls.__slots__, fields):
        _set(obj, name, value)
    _set(obj, "_str", None)
    if check:
        obj._check()
    with _LOCK:  # another thread may have published an equal object meanwhile
        found = (ref := _TABLE.get(key)) and ref()
        if found is not None:
            return found
        ref = _TABLE[key] = _Ref(obj, _forget)
        ref.key = key
    return obj


def _forget(ref: _Ref) -> None:
    # Deletes the entry atomically and only while dead: a republished key stays.
    _remove_dead_weakref(_TABLE, ref.key)


class _Record:
    """An immutable value with the fields its class's ``__slots__`` names, which
    the constructor takes in that order.  Equal only to a record of the same
    class with equal fields; hashed as the tuple of its fields; shown as
    ``Class(field=value, ...)``."""

    __slots__ = ()

    def __setattr__(self, name: str, value: object = None) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable")

    __delattr__ = __setattr__

    def _fields(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __reduce__(self):
        return type(self), self._fields()

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        inner = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({inner})"


class _HashConsed(_Record):
    """A record built by ``_interned``: equal values are one object, so ``==``
    and ``hash`` are identity, and ``_render`` runs once for ``str``."""

    __slots__ = ("_str", "__weakref__")
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __str__(self) -> str:
        if self._str is None:
            _set(self, "_str", self._render())
        return self._str

    __repr__ = __str__


class CnfOrdinal(_HashConsed):
    __slots__ = ("terms",)

    def __new__(cls, terms: tuple[tuple[CnfOrdinal, int], ...] = ()) -> CnfOrdinal:
        return _interned(cls, (terms,), check=True)

    def _check(self) -> None:
        prev = None
        for exp, coeff in self.terms:
            if not isinstance(exp, CnfOrdinal) or coeff < 1:
                raise ValueError("CNF term needs a CnfOrdinal exponent and coefficient >= 1")
            if prev is not None and cnf_compare(exp, prev) is not _LESS:
                raise ValueError("CNF exponents must strictly decrease")
            prev = exp

    @classmethod
    def _raw(cls, terms: tuple[tuple[CnfOrdinal, int], ...]) -> CnfOrdinal:
        # For results valid by construction: skips a comparison per term pair.
        return _interned(cls, (terms,), check=False)

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
        return cnf_compare(self, other) is _LESS

    def __le__(self, other: "CnfOrdinal") -> bool:
        return cnf_compare(self, other) is not _GREATER

    def __gt__(self, other: "CnfOrdinal") -> bool:
        return cnf_compare(self, other) is _GREATER

    def __ge__(self, other: "CnfOrdinal") -> bool:
        return cnf_compare(self, other) is not _LESS

    def __add__(self, other: "CnfOrdinal") -> "CnfOrdinal":
        return cnf_add(self, other)

    def _render(self) -> str:
        parts = []
        for exp, coeff in self.terms:
            if not exp.terms:
                parts.append(str(coeff))
                continue
            # Unparenthesised exponents are exactly what the grammar's exponent position
            # accepts: a natural, or a coefficient-1 single term (w, w^w, ...).
            text = exp._str or str(exp)
            t = exp.terms
            bare = len(t) == 1 and (t[0][1] == 1 or not t[0][0].terms)
            body = "w" if exp is ORD_ONE else "w^" + text if bare else "w^(" + text + ")"
            parts.append(body if coeff == 1 else f"{body}*{coeff}")
        return "+".join(parts) or "0"


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
    """Total order on CNF ordinals: lexicographic on (exponent, coefficient).
    Distinct interned objects are unequal, so no equal pair is walked."""
    if a is b:
        return _EQUAL
    for (ea, ca), (eb, cb) in zip(a.terms, b.terms):
        if ea is not eb:
            return cnf_compare(ea, eb)
        if ca != cb:
            return _LESS if ca < cb else _GREATER
    return _LESS if len(a.terms) < len(b.terms) else _GREATER


def cnf_sum(*terms: tuple[CnfOrdinal, int]) -> CnfOrdinal:
    """The ordinal sum of w^exp*coeff over the terms, in the order given: a
    term absorbs the smaller terms before it and merges with an equal one."""
    out: list[tuple[CnfOrdinal, int]] = []
    for exp, coeff in terms:
        if not coeff:
            continue
        while out and cnf_compare(out[-1][0], exp) is _LESS:
            out.pop()
        if out and out[-1][0] is exp:
            out[-1] = (exp, out[-1][1] + coeff)
        else:
            out.append((exp, coeff))
    return CnfOrdinal._raw(tuple(out))


def cnf_add(a: CnfOrdinal, b: CnfOrdinal) -> CnfOrdinal:
    """Ordinal sum a + b: terms of a below b's leading exponent are absorbed."""
    if not b.terms:
        return a
    lead, coeff = b.terms[0]
    for i, (exp, c) in enumerate(a.terms):
        if exp is lead:
            return CnfOrdinal._raw(a.terms[:i] + ((lead, c + coeff),) + b.terms[1:])
        if cnf_compare(exp, lead) is _LESS:
            return CnfOrdinal._raw(a.terms[:i] + b.terms)
    return CnfOrdinal._raw(a.terms + b.terms)


class Zero(_Record):
    __slots__ = ()


class Successor(_Record):
    __slots__ = ("pred",)
    def __init__(self, pred: CnfOrdinal) -> None:
        _set(self, "pred", pred)


class Limit(_Record):
    __slots__ = ()


OrdinalKind = Zero | Successor | Limit


def ord_classify(a: CnfOrdinal) -> OrdinalKind:
    """Zero, Successor (with predecessor), or Limit."""
    if not a.terms:
        return Zero()
    exp, coeff = a.terms[-1]
    if exp is not ORD_ZERO:
        return Limit()
    last = ((exp, coeff - 1),) if coeff > 1 else ()
    return Successor(CnfOrdinal._raw(a.terms[:-1] + last))
