"""Hash-consing of CnfOrdinal, Aleph and CardinalAtom: equal values are one object."""

import copy
import gc
import io
import pickle
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from alephcalc import EMPTY_CONTEXT, dsl, evaluate_line, ordinals, run_batch
from alephcalc.cardinals import ALEPH1, ALEPH2, Aleph, CardinalAtom, card_compare, card_index_classify, successor
from alephcalc.dsl import ParseError, parse, tokenize
from alephcalc.ordinals import (
    OMEGA,
    ORD_ONE,
    ORD_ZERO,
    CnfOrdinal,
    Ordering,
    cnf_add,
    cnf_compare,
    from_int,
    omega_power,
    ord_classify,
)

from conftest import alephs, cnf_ordinals
from test_dsl import _check_against_reference


def rebuild(x: CnfOrdinal) -> CnfOrdinal:
    """An equal ordinal built bottom-up from fresh tuples."""
    return CnfOrdinal(tuple((rebuild(e), c) for e, c in x.terms))


def rebuild_aleph(c: Aleph) -> Aleph:
    return Aleph(None if c.base is None else rebuild_aleph(c.base), rebuild(c.tail))


def plus_one(x: CnfOrdinal) -> CnfOrdinal:
    """x + 1, built directly from its terms."""
    if x.terms and x.terms[-1][0].is_zero:
        return CnfOrdinal(x.terms[:-1] + ((ORD_ZERO, x.terms[-1][1] + 1),))
    return CnfOrdinal(x.terms + ((ORD_ZERO, 1),))


def tower(height: int) -> CnfOrdinal:
    """w^w^...^1 with ``height`` omegas."""
    x = ORD_ONE
    for _ in range(height):
        x = omega_power(x)
    return x


@given(cnf_ordinals(), cnf_ordinals())
def test_an_ordinal_rebuilt_by_another_path_is_the_same_object(x, y):
    assert CnfOrdinal(x.terms) is x
    assert rebuild(x) is x
    assert parse(str(x)).tail is x
    assert cnf_add(x, y) is cnf_add(rebuild(x), rebuild(y))
    assert cnf_add(x, ORD_ONE) is plus_one(rebuild(x))
    assert ord_classify(plus_one(x)).pred is x
    assert copy.copy(x) is x
    assert copy.deepcopy(x) is x
    assert pickle.loads(pickle.dumps(x)) is x


@given(alephs())
def test_an_aleph_rebuilt_by_another_path_is_the_same_object(c):
    assert Aleph(c.base, c.tail) is c
    assert rebuild_aleph(c) is c
    assert parse(str(c)).value is c
    assert successor(c) is Aleph(c.base, plus_one(rebuild(c.tail)))
    assert card_index_classify(successor(c)).pred is c
    assert copy.copy(c) is c
    assert copy.deepcopy(c) is c
    assert pickle.loads(pickle.dumps(c)) is c


@pytest.mark.parametrize("value, field", [(OMEGA, "terms"), (ALEPH1, "tail"), (ALEPH1, "base")])
def test_fields_are_read_only(value, field):
    before = getattr(value, field)
    with pytest.raises(AttributeError):
        setattr(value, field, before)
    with pytest.raises(AttributeError):
        delattr(value, field)
    assert getattr(value, field) is before


def test_the_table_does_not_retain_values():
    gc.collect()
    before = len(ordinals._TABLE)
    values = [Aleph(ALEPH2, omega_power(from_int(i + 1), 3)) for i in range(10_000)]
    assert len(ordinals._TABLE) >= before + 20_000
    del values
    gc.collect()
    assert len(ordinals._TABLE) == before


class Stream:
    """A batch's output: calls ``on_write`` before it keeps each record."""

    def __init__(self, on_write=lambda: None):
        self.on_write, self.records = on_write, []

    def write(self, record: str) -> None:
        self.on_write()
        self.records.append(record)


def fresh_lines(offset: int, count: int = 40) -> list[str]:
    """Batch lines whose cardinals nothing else keeps alive."""
    return [f"succ(aleph(w*{offset + i}+{i + 1}))" for i in range(count)]


def reference_records(lines: list[str]) -> list[str]:
    """The JSON records of evaluating each line afresh."""
    ctx, records = EMPTY_CONTEXT, []
    for line in lines:
        results, ctx = evaluate_line(line, ctx)
        records += [r.to_json_line() + "\n" for r in results]
    return records


def live_literal(offset: int, i: int) -> Aleph | None:
    """The live value of the literal on line ``i`` of ``fresh_lines(offset)``, looked up without building it."""
    ref = ordinals._TABLE.get((CnfOrdinal, ((ORD_ONE, offset + i), (ORD_ZERO, i + 1))))
    tail = ref and ref()
    ref = tail and ordinals._TABLE.get((Aleph, None, tail))
    return ref and ref()


def live_literals(offset: int, count: int = 40) -> int:
    gc.collect()
    return sum(live_literal(offset, i) is not None for i in range(count))


def count_index_exprs(monkeypatch) -> list[int]:
    """The threads of the ``_Parser.index_expr`` calls made from now on, in order."""
    calls, index_expr = [], dsl._Parser.index_expr

    def counted(parser):
        calls.append(threading.get_ident())
        return index_expr(parser)

    monkeypatch.setattr(dsl._Parser, "index_expr", counted)
    return calls


def per_record(marks: list[int]) -> list[int]:
    """The counts between successive marks, from a mark of 0 before the first."""
    return [b - a for a, b in zip([0] + marks, marks)]


def test_a_batch_keeps_the_literals_it_parses_until_it_returns():
    gc.collect()
    before = len(ordinals._TABLE)
    live = []
    out = Stream(lambda: live.append(live_literals(8_100_000)))
    assert run_batch(fresh_lines(8_100_000), EMPTY_CONTEXT, out, as_json=True) == 0
    assert live == list(range(1, 41))  # at each record, every literal parsed so far
    gc.collect()
    assert live_literals(8_100_000) == 0
    assert len(ordinals._TABLE) == before


def test_a_batch_that_raises_midway_drops_its_values():
    gc.collect()
    before = len(ordinals._TABLE)
    live = []

    def fail_on_the_fifth_record():
        if len(out.records) == 4:
            live.append(live_literals(8_200_000))
            raise OSError("no space left on the output")

    out = Stream(fail_on_the_fifth_record)
    with pytest.raises(OSError, match="no space"):
        run_batch(fresh_lines(8_200_000), EMPTY_CONTEXT, out, as_json=False)
    assert len(out.records) == 4 and live == [5]
    gc.collect()
    assert len(ordinals._TABLE) == before


def test_a_nested_batch_restores_the_outer_literal_table(monkeypatch):
    lines = fresh_lines(8_800_000, 3)
    lines += [line.replace("succ", "cf") for line in lines]  # the same literals again
    inner_lines = [lines[3], lines[0]] + fresh_lines(8_700_000, 2)
    calls = count_index_exprs(monkeypatch)
    marks, nested = [], []

    def nest():
        marks.append(len(calls))
        if not nested:
            inner = io.StringIO()
            assert run_batch(inner_lines, EMPTY_CONTEXT, inner, as_json=True) == 0
            nested.extend([len(calls) - marks[0], inner.getvalue()])

    out = Stream(nest)
    assert run_batch(lines, EMPTY_CONTEXT, out, as_json=True) == 0
    # Two calls parse a line afresh, one reuses its literal.  The inner batch parses the literal
    # the outer one already holds afresh, and the outer batch still reuses it afterwards.
    inner_calls, inner_output = nested
    assert inner_calls == 2 + 1 + 2 + 2
    outer_calls = per_record(marks)
    outer_calls[1] -= inner_calls
    assert outer_calls == [2, 2, 2, 1, 1, 1]
    assert inner_output == "".join(reference_records(inner_lines))
    assert "".join(out.records) == "".join(reference_records(lines))


def test_a_nested_batch_restores_the_outer_pins():
    inner_live, outer_live = [], []

    def nest():
        outer_live.append(live_literals(8_400_000, 3))
        if len(outer_live) == 1:
            inner = Stream(lambda: inner_live.append((live_literals(8_300_000, 3), live_literals(8_400_000, 3))))
            assert run_batch(fresh_lines(8_300_000, 3), EMPTY_CONTEXT, inner, as_json=True) == 0
            inner_live.append((live_literals(8_300_000, 3), live_literals(8_400_000, 3)))

    out = Stream(nest)
    assert run_batch(fresh_lines(8_400_000, 3), EMPTY_CONTEXT, out, as_json=True) == 0
    # The inner batch keeps its own literals alive until it returns, and the outer batch's
    # literals stay alive across it.
    assert inner_live == [(1, 1), (2, 1), (3, 1), (0, 1)]
    assert outer_live == [1, 2, 3]
    assert live_literals(8_400_000, 3) == 0
    assert "".join(out.records) == "".join(reference_records(fresh_lines(8_400_000, 3)))


def test_values_built_in_another_thread_during_a_batch_are_not_pinned():
    seen = []

    def build_elsewhere():
        if seen:
            return
        gc.collect()
        before = len(ordinals._TABLE)

        def build():
            values = [Aleph(ALEPH1, from_int(9_100_000 + i)) for i in range(100)]
            return len(ordinals._TABLE) - before >= 200

        with ThreadPoolExecutor(1) as pool:
            seen.append(pool.submit(build).result(timeout=60))
        gc.collect()
        seen.append(len(ordinals._TABLE) - before)

    run_batch(fresh_lines(8_500_000, 3), EMPTY_CONTEXT, Stream(build_elsewhere), as_json=True)
    assert seen == [True, 0]


def test_a_batch_drops_its_literal_table_on_return_and_on_error(monkeypatch):
    lines = fresh_lines(8_600_000, 5)
    lines += [line.replace("succ", "cf") for line in lines]
    gc.collect()
    before = len(ordinals._TABLE)
    calls = count_index_exprs(monkeypatch)
    for _ in range(2):  # the second batch starts with an empty table again
        marks = []
        out = Stream(lambda: marks.append(len(calls)))
        assert run_batch(lines, EMPTY_CONTEXT, out, as_json=True) == 0
        assert per_record(marks) == [2] * 5 + [1] * 5
        calls.clear()
        gc.collect()
        assert len(ordinals._TABLE) == before

    def fail_on_the_seventh_record():
        if len(out.records) == 6:
            raise OSError("no space left on the output")

    out = Stream(fail_on_the_seventh_record)
    with pytest.raises(OSError, match="no space"):
        run_batch(lines, EMPTY_CONTEXT, out, as_json=True)
    gc.collect()
    assert len(ordinals._TABLE) == before
    _check_against_reference(lines, EMPTY_CONTEXT)


def test_another_thread_parses_without_the_batch_literal_table(monkeypatch):
    line = "succ(aleph(w*9100000+1))"  # the first batch line, whose literal the batch holds
    calls = count_index_exprs(monkeypatch)
    seen = []

    def parse_elsewhere():
        if seen:
            return

        def read():
            return threading.get_ident(), parse(line)

        with ThreadPoolExecutor(1) as pool:
            ident, ast = pool.submit(read).result(timeout=60)
        seen.extend([calls.count(ident), ast])

    lines = fresh_lines(9_100_000, 3)
    run_batch(lines, EMPTY_CONTEXT, Stream(parse_elsewhere), as_json=True)
    assert seen == [2, parse(line)]
    _check_against_reference(lines, EMPTY_CONTEXT)


def test_the_literal_table_stops_at_its_cap(monkeypatch):
    lines = [f"cf(aleph({i}))" for i in range(4_200)] + [f"succ(aleph({i}))" for i in (0, 4_095, 4_096, 4_199)]
    calls = count_index_exprs(monkeypatch)
    marks = []
    run_batch(lines, EMPTY_CONTEXT, Stream(lambda: marks.append(len(calls))), as_json=True)
    assert per_record(marks) == [2] * 4_200 + [1, 1, 2, 2]
    _check_against_reference(lines, EMPTY_CONTEXT)


def test_a_rejected_value_leaves_no_entry():
    before = len(ordinals._TABLE)
    with pytest.raises(ValueError, match="strictly decrease"):
        CnfOrdinal(((ORD_ZERO, 1), (tower(2), 1)))
    with pytest.raises(ValueError, match="coefficient >= 1"):
        CnfOrdinal(((tower(2), 0),))
    assert len(ordinals._TABLE) == before


def test_threads_building_the_same_fresh_values_get_the_same_objects():
    threads, count, offset = 4, 1_000, 7_340_000
    start = threading.Barrier(threads)

    def build():
        start.wait(timeout=30)
        return [Aleph(ALEPH1, from_int(offset + i)) for i in range(count)]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads often, so that misses race
    try:
        with ThreadPoolExecutor(threads) as pool:
            results = [f.result(timeout=60) for f in [pool.submit(build) for _ in range(threads)]]
    finally:
        sys.setswitchinterval(interval)
    assert [len(r) for r in results] == [count] * threads
    for other in results[1:]:
        assert all(a is b for a, b in zip(results[0], other))
        assert all(a.tail is b.tail for a, b in zip(results[0], other))


def test_deep_equal_values_compare_without_recursion():
    x, rebuilt = tower(3_000), tower(3_000)
    assert hash(x) == hash(rebuilt)
    assert x == rebuilt
    assert rebuilt in {x}
    assert cnf_compare(x, rebuilt) is Ordering.EQUAL
    assert card_compare(Aleph(None, x), Aleph(None, rebuilt)) is Ordering.EQUAL


# Atom names are DSL identifiers of 2 to 8 characters: a one-character string
# may be a cached object, and the test needs an equal string that is another.
@given(st.from_regex(r"[^\W\d]\w{1,7}", fullmatch=True), st.booleans())
def test_equal_atoms_are_one_object(name, inacc):
    atom = CardinalAtom(name, weakly_inaccessible=inacc)
    fresh_name = "".join(list(name))  # an equal string that is another object
    assert CardinalAtom(fresh_name, inacc) is atom
    assert CardinalAtom(fresh_name, weakly_inaccessible=not inacc) is not atom
    assert card_compare(atom, CardinalAtom(fresh_name, inacc)) is Ordering.EQUAL
    assert str(atom) == repr(atom) == (f"inacc({name})" if inacc else f"atom({name})")
    assert copy.copy(atom) is atom
    assert copy.deepcopy(atom) is atom
    assert pickle.loads(pickle.dumps(atom)) is atom
    with pytest.raises(AttributeError):
        atom.name = fresh_name


def test_a_parsed_atom_is_the_constructed_one():
    assert parse("inacc(theta)").value is CardinalAtom("theta", weakly_inaccessible=True)


def reads_as_one_identifier(text: str) -> bool:
    try:
        tokens = tokenize(text)
    except ParseError:
        return False
    return [(t.kind, t.text) for t in tokens[:-1]] == [("ident", text)]


@example("x), inacc(y")
@example("")
@example("1x")
@example(" x")
@example("_k2")
@given(st.text(max_size=6))
def test_an_atom_name_is_exactly_what_the_dsl_reads_back(name):
    before = len(ordinals._TABLE)
    if reads_as_one_identifier(name):
        atom = CardinalAtom(name, weakly_inaccessible=True)
        assert parse(str(atom)).value is atom
    else:
        with pytest.raises(ValueError, match="identifier"):
            CardinalAtom(name, weakly_inaccessible=True)
        assert len(ordinals._TABLE) == before


@pytest.mark.parametrize("name", [None, 3, b"theta"])
def test_an_atom_name_must_be_a_string(name):
    with pytest.raises(ValueError, match="identifier"):
        CardinalAtom(name)
