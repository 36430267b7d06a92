"""Value semantics of the engine's record classes (answers, scopes, contexts, AST nodes).

A record compares equal only to a record of the same class with equal
fields, hashes like the tuple of its fields, prints as ``Class(field=...)``,
is read-only, and survives ``copy``, ``deepcopy`` and ``pickle``.
"""

import copy
import json
import pickle

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from alephcalc import build_context, exp_lt, internal_size_of_cardinality
from alephcalc.cardinals import ALEPH0, ALEPH1, ALEPH2, Aleph, LimitCard, SuccessorCard, aleph
from alephcalc.dsl import (
    Assume,
    AssumeGch,
    AssumeSharp,
    AssumeVEqualsL,
    BoolLiteral,
    CardinalLiteral,
    OrdinalLiteral,
    Query,
    Session,
)
from alephcalc.evaluator import QueryResult
from alephcalc.hypotheses import (
    AtLeast,
    CardinalInterval,
    Determined,
    ExplicitSet,
    HypothesisContext,
    Independent,
    SchAssumption,
    UnboundedBelow,
    ZeroSharp,
)
from alephcalc.ordinals import OMEGA, ORD_ONE, Limit, Successor, Zero
from alephcalc.sizes import BelowLS, ClassParams, SizeInterval, SpectrumFacts, TwoCandidates
from alephcalc.spectra import AtLeastCard, Finite, ZeroCount

ALEPH_W = aleph(OMEGA)
SCH = SchAssumption(ALEPH1, AtLeast(ALEPH2))

# One value of every record class, with every field set away from its default
# where there is one.
EXAMPLES = [
    Zero(),
    Successor(ORD_ONE),
    Limit(),
    SuccessorCard(ALEPH1),
    LimitCard(),
    Determined(ALEPH1, ("GCH",)),
    Independent(("SCH(aleph(1)) at aleph(2)",), ("no-sharp",)),
    CardinalInterval(ALEPH0, ALEPH1),
    AtLeast(ALEPH2),
    UnboundedBelow(ALEPH_W),
    ExplicitSet((ALEPH2, ALEPH1)),
    SCH,
    HypothesisContext(False, False, ZeroSharp.NOT_EXISTS, (SCH,)),
    ClassParams(ALEPH1, ALEPH2, True, False),
    BelowLS(),
    TwoCandidates(ALEPH1, ALEPH2, ("GCH",)),
    SizeInterval(ALEPH1, ALEPH2, True, ("GCH",)),
    SpectrumFacts((ALEPH1, ALEPH2), ALEPH1),
    Finite(2, ("GCH",)),
    AtLeastCard(ALEPH1, ("V=L",)),
    ZeroCount(("GCH",)),
    CardinalLiteral(ALEPH1),
    OrdinalLiteral(ALEPH1, OMEGA),
    BoolLiteral(True),
    Query("cf", (CardinalLiteral(ALEPH_W),)),
    AssumeGch(),
    AssumeVEqualsL(),
    AssumeSharp(False),
    Assume(AssumeSharp(True)),
    Session((Assume(AssumeGch()), Query("reg", (CardinalLiteral(ALEPH1),)))),
    QueryResult("cf(aleph(w))", "determined", "aleph(0)", ("GCH",), ("a note",)),
]

IDS = [type(x).__name__ for x in EXAMPLES]


# The fields of each class in constructor order; classes not named have none.
FIELDS = {
    "Successor": ("pred",),
    "SuccessorCard": ("pred",),
    "Determined": ("value", "used"),
    "Independent": ("missing", "used"),
    "CardinalInterval": ("lo", "hi"),
    "AtLeast": ("threshold",),
    "UnboundedBelow": ("limit",),
    "ExplicitSet": ("cards",),
    "SchAssumption": ("mu", "scope"),
    "HypothesisContext": ("gch", "v_equals_l", "zero_sharp", "sch"),
    "ClassParams": ("mu", "ls", "admits_intersections", "arbitrarily_large_models"),
    "TwoCandidates": ("lo", "hi", "used"),
    "SizeInterval": ("lo", "hi", "tight", "used"),
    "SpectrumFacts": ("no_models_in_cardinality_interval", "categorical_in_cardinality"),
    "Finite": ("n", "used"),
    "AtLeastCard": ("value", "used"),
    "ZeroCount": ("used",),
    "CardinalLiteral": ("value",),
    "OrdinalLiteral": ("base", "tail"),
    "BoolLiteral": ("value",),
    "Query": ("name", "args"),
    "AssumeSharp": ("exists",),
    "Assume": ("item",),
    "Session": ("items",),
    "QueryResult": ("query", "verdict", "value", "assumptions_used", "notes"),
}


def field_names(x) -> tuple[str, ...]:
    return FIELDS.get(type(x).__name__, ())


def fields(x) -> tuple:
    return tuple(getattr(x, name) for name in field_names(x))


def test_every_class_appears_once():
    assert len(set(IDS)) == len(IDS) == 31


@pytest.mark.parametrize("x", EXAMPLES, ids=IDS)
def test_equal_fields_mean_equal_values_and_equal_hashes(x):
    twin = copy.copy(x)
    assert twin == x and not (twin != x)
    assert hash(twin) == hash(x)
    # A dataclass hashes the tuple of its fields; set and dict order rest on it.
    assert hash(x) == hash(fields(x))


@pytest.mark.parametrize("x", EXAMPLES, ids=IDS)
def test_repr_names_every_field_in_order(x):
    inner = ", ".join(f"{name}={value!r}" for name, value in zip(field_names(x), fields(x)))
    assert repr(x) == f"{type(x).__name__}({inner})"
    assert type(x)(*fields(x)) == x


def test_classes_with_the_same_fields_stay_unequal():
    assert Determined(ALEPH1) != AtLeastCard(ALEPH1)
    assert AtLeast(ALEPH1) != UnboundedBelow(ALEPH1)
    assert Determined(ALEPH1).__eq__(AtLeastCard(ALEPH1)) is NotImplemented
    assert Zero() != Limit() and AssumeGch() != AssumeVEqualsL()
    assert Determined(ALEPH1) != (ALEPH1, ())
    assert len({Determined(ALEPH1), AtLeastCard(ALEPH1), Determined(ALEPH1)}) == 2


def test_different_fields_mean_unequal_values():
    assert Determined(ALEPH1) != Determined(ALEPH2)
    assert Determined(ALEPH1) != Determined(ALEPH1, ("GCH",))
    assert HypothesisContext() != HypothesisContext(gch=True)


def test_reprs_are_unchanged():
    gch = build_context(gch=True)
    assert repr(exp_lt(ALEPH_W, ALEPH1, gch)) == "Determined(value=aleph(w+1), used=('GCH',))"
    params = ClassParams(mu=ALEPH1, ls=ALEPH1)
    assert repr(internal_size_of_cardinality(params, Aleph(ALEPH1), gch)) == (
        "Determined(value=aleph(aleph(1)), used=('GCH',))"
    )
    assert repr(HypothesisContext(gch=True)) == (
        "HypothesisContext(gch=True, v_equals_l=False, zero_sharp=<ZeroSharp.UNKNOWN: 'unknown'>, sch=())"
    )
    assert repr(Zero()) == "Zero()"
    assert repr(Independent(("x",))) == "Independent(missing=('x',), used=())"
    assert repr(QueryResult("q", "error", None)) == (
        "QueryResult(query='q', verdict='error', value=None, assumptions_used=(), notes=())"
    )


@pytest.mark.parametrize("x", EXAMPLES, ids=IDS)
def test_str_without_its_own_text_is_the_repr(x):
    if type(x).__str__ is object.__str__:
        assert str(x) == repr(x)


def test_keyword_construction_and_defaults():
    assert HypothesisContext(gch=True) == HypothesisContext(True, False, ZeroSharp.UNKNOWN, ())
    interval = SizeInterval(ALEPH1, ALEPH2)
    assert (interval.lo, interval.hi, interval.tight, interval.used) == (ALEPH1, ALEPH2, False, ())
    assert Determined(value=ALEPH1, used=("GCH",)) == Determined(ALEPH1, ("GCH",))
    assert Determined(ALEPH1).used == ()
    assert Independent(missing=("x",)).used == ()
    params = ClassParams(mu=ALEPH1, ls=ALEPH1)
    assert (params.admits_intersections, params.arbitrarily_large_models) == (False, True)
    assert SpectrumFacts() == SpectrumFacts(None, None)
    assert QueryResult(query="q", verdict="determined", value="v") == QueryResult("q", "determined", "v", (), ())
    assert Finite(n=3).used == ZeroCount().used == AtLeastCard(value=ALEPH1).used == ()


def test_construction_canonicalises():
    assert ExplicitSet((ALEPH2, ALEPH1, ALEPH2)).cards == (ALEPH1, ALEPH2)
    assert ExplicitSet([ALEPH2, ALEPH1]) == ExplicitSet((ALEPH1, ALEPH2))
    assert HypothesisContext(v_equals_l=True).zero_sharp is ZeroSharp.NOT_EXISTS


@pytest.mark.parametrize(
    "build",
    [
        lambda: Independent(()),
        lambda: CardinalInterval(ALEPH2, ALEPH1),
        lambda: ExplicitSet(()),
        lambda: HypothesisContext(sch=(SchAssumption(ALEPH_W, AtLeast(ALEPH_W)),)),
        lambda: ClassParams(ALEPH1, ALEPH0),
        lambda: TwoCandidates(ALEPH1, ALEPH1),
        lambda: SizeInterval(ALEPH2, ALEPH1),
        lambda: SpectrumFacts((ALEPH2, ALEPH1)),
        lambda: Finite(0),
    ],
    ids=["Independent", "CardinalInterval", "ExplicitSet", "HypothesisContext", "ClassParams",
         "TwoCandidates", "SizeInterval", "SpectrumFacts", "Finite"],
)
def test_construction_checks_still_raise(build):
    with pytest.raises(ValueError):
        build()


@pytest.mark.parametrize("x", EXAMPLES, ids=IDS)
def test_fields_are_read_only(x):
    for name in field_names(x) or ("anything",):
        with pytest.raises(AttributeError):
            setattr(x, name, None)
        with pytest.raises(AttributeError):
            delattr(x, name)


@pytest.mark.parametrize("x", EXAMPLES, ids=IDS)
def test_copy_deepcopy_and_pickle_round_trip(x):
    for twin in (copy.copy(x), copy.deepcopy(x), pickle.loads(pickle.dumps(x))):
        assert type(twin) is type(x)
        assert twin == x
        assert repr(twin) == repr(x)


# Any text, lone surrogates included, with quotes, backslashes and control characters drawn often.
ANY_TEXT = st.text(st.one_of(st.characters(exclude_categories=()), st.sampled_from('"\\\x00\x1f\x7f\n\t/')))


@given(ANY_TEXT, st.sampled_from(["determined", "independent", "error"]), st.none() | ANY_TEXT,
       st.lists(ANY_TEXT, max_size=3).map(tuple), st.lists(ANY_TEXT, max_size=3).map(tuple))
@example("cf(\u00e9) \U0001d54f \ud800", "error", None, (), ())
@example('q"\\\x00\x1f\x7f\u2028', "independent", "", ("GCH", "\udfff"), ('"', "\\", "\n\r\t\b\f"))
def test_a_json_line_is_the_json_dumps_of_its_fields(query, verdict, value, used, notes):
    result = QueryResult(query, verdict, value, used, notes)
    expected = json.dumps({"query": query, "verdict": verdict, "value": value,
                           "assumptions_used": list(used), "notes": list(notes)})
    assert result.to_json_line() == expected
