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

from alephcalc import EMPTY_CONTEXT, ordinals, run_batch
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


def test_a_batch_keeps_the_values_it_builds_until_it_returns():
    gc.collect()
    before = len(ordinals._TABLE)
    held, alive = [], []
    out = Stream(lambda: (held.append(len(ordinals._PINS.held)), alive.append(len(ordinals._TABLE))))
    assert run_batch(fresh_lines(8_100_000), EMPTY_CONTEXT, out, as_json=True) == 0
    assert len(out.records) == 40
    assert held == sorted(held) and held[0] > 0 and held[-1] >= 40 * 3
    assert alive[-1] >= before + 40 * 3  # the first line's values outlive it
    assert ordinals._PINS.held is None
    gc.collect()
    assert len(ordinals._TABLE) == before


def test_a_batch_that_raises_midway_drops_its_values():
    gc.collect()
    before = len(ordinals._TABLE)

    def fail_on_the_fifth_record():
        if len(out.records) == 4:
            raise OSError("no space left on the output")

    out = Stream(fail_on_the_fifth_record)
    with pytest.raises(OSError, match="no space"):
        run_batch(fresh_lines(8_200_000), EMPTY_CONTEXT, out, as_json=False)
    assert len(out.records) == 4
    assert ordinals._PINS.held is None
    gc.collect()
    assert len(ordinals._TABLE) == before


def test_a_nested_batch_restores_the_outer_pins():
    seen = []

    def nest():
        if not seen:
            outer = ordinals._PINS.held
            inner = Stream(lambda: seen.append(ordinals._PINS.held))
            run_batch(fresh_lines(8_300_000, 3), EMPTY_CONTEXT, inner, as_json=True)
            seen.extend([outer, ordinals._PINS.held])

    out = Stream(nest)
    run_batch(fresh_lines(8_400_000, 3), EMPTY_CONTEXT, out, as_json=True)
    inner_pins, outer, restored = seen[0], seen[-2], seen[-1]
    assert len(seen) == 5 and all(pins is inner_pins for pins in seen[:3])
    assert inner_pins is not outer and restored is outer and isinstance(outer, list)
    assert len(out.records) == 3 and ordinals._PINS.held is None


def test_values_built_in_another_thread_during_a_batch_are_not_pinned():
    seen = []

    def build_elsewhere():
        if seen:
            return
        gc.collect()
        before, pins = len(ordinals._TABLE), len(ordinals._PINS.held)

        def build():
            values = [Aleph(ALEPH1, from_int(9_100_000 + i)) for i in range(100)]
            return ordinals._PINS.held, len(ordinals._TABLE) - before >= 200

        with ThreadPoolExecutor(1) as pool:
            seen.append(pool.submit(build).result(timeout=60))
        gc.collect()
        seen.append((len(ordinals._TABLE) - before, len(ordinals._PINS.held) - pins))

    run_batch(fresh_lines(8_500_000, 3), EMPTY_CONTEXT, Stream(build_elsewhere), as_json=True)
    assert seen == [(None, True), (0, 0)]


def test_a_batch_drops_its_literal_table_on_return_and_on_error():
    lines = fresh_lines(8_600_000, 5)
    tables = []
    out = Stream(lambda: tables.append(ordinals._PINS.literals))
    assert run_batch(lines + lines[::-1], EMPTY_CONTEXT, out, as_json=True) == 0
    assert len(tables) == 10 and all(table is tables[0] for table in tables) and len(tables[0]) == 5
    assert ordinals._PINS.literals is None

    def fail_on_the_third_record():
        if len(out.records) == 2:
            raise OSError("no space left on the output")

    out = Stream(fail_on_the_third_record)
    with pytest.raises(OSError, match="no space"):
        run_batch(lines, EMPTY_CONTEXT, out, as_json=True)
    assert ordinals._PINS.literals is None
    _check_against_reference(lines + lines[::-1], EMPTY_CONTEXT)


def test_a_nested_batch_restores_the_outer_literal_table():
    seen = []

    def nest():
        if not seen:
            outer = ordinals._PINS.literals
            inner = Stream(lambda: seen.append(ordinals._PINS.literals))
            run_batch(fresh_lines(8_700_000, 3), EMPTY_CONTEXT, inner, as_json=True)
            seen.extend([outer, ordinals._PINS.literals])

    lines = fresh_lines(8_800_000, 3)
    out = Stream(nest)
    run_batch(lines, EMPTY_CONTEXT, out, as_json=True)
    inner_table, outer, restored = seen[0], seen[-2], seen[-1]
    assert len(seen) == 5 and all(table is inner_table for table in seen[:3]) and len(inner_table) == 3
    assert restored is outer and isinstance(outer, dict) and len(outer) == 3
    assert len(out.records) == 3 and ordinals._PINS.literals is None
    _check_against_reference(lines, EMPTY_CONTEXT)


def test_another_thread_parses_without_the_batch_literal_table():
    seen = []

    def parse_elsewhere():
        if seen:
            return
        table = ordinals._PINS.literals
        size = len(table)

        def read():
            return ordinals._PINS.literals, parse("succ(aleph(w*9100000+1))")

        with ThreadPoolExecutor(1) as pool:
            other_table, _ = pool.submit(read).result(timeout=60)
        seen.extend([other_table, len(table) - size])

    lines = fresh_lines(9_100_000, 3)
    run_batch(lines, EMPTY_CONTEXT, Stream(parse_elsewhere), as_json=True)
    assert seen == [None, 0]
    _check_against_reference(lines, EMPTY_CONTEXT)


def test_the_literal_table_stops_at_its_cap():
    lines = [f"cf(aleph({i}))" for i in range(4_200)] + [f"succ(aleph({i}))" for i in (0, 4_095, 4_096, 4_199)]
    sizes = []
    run_batch(lines, EMPTY_CONTEXT, Stream(lambda: sizes.append(len(ordinals._PINS.literals))), as_json=True)
    assert sizes[4_095] == 4_096 and max(sizes) == sizes[-1] == 4_096
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
