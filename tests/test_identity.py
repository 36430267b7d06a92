"""The engine's two shortcuts on hot paths: it compares interned values with ``is`` instead of
``==``, and it reads enum members from module constants instead of through their class."""

import ast
import copy
import importlib
import pickle
from pathlib import Path

import pytest
from hypothesis import given

import alephcalc
from alephcalc.cardinals import SuccessorCard, card_index_classify, is_regular, successor
from alephcalc.hypotheses import ZeroSharp
from alephcalc.ordinals import ORD_ONE, CnfOrdinal, Ordering, Successor, cnf_add, ord_classify

from conftest import cardinals, cnf_ordinals
from oracles import card_text, cf_oracle, cnf_tree

SRC = Path(alephcalc.__file__).parent
MEMBERS = {"Ordering": {m.name for m in Ordering}, "ZeroSharp": {m.name for m in ZeroSharp}}
CONSTANTS = {"_LESS": Ordering.LESS, "_EQUAL": Ordering.EQUAL, "_GREATER": Ordering.GREATER,
             "_EXISTS": ZeroSharp.EXISTS, "_NOT_EXISTS": ZeroSharp.NOT_EXISTS, "_UNKNOWN": ZeroSharp.UNKNOWN}


def enum_reads_in_function_bodies(source: str) -> set[tuple[int, str]]:
    """(line, 'Enum.MEMBER') for each read of an ``Ordering`` or ``ZeroSharp`` member through its
    class inside a function body.  Default argument values and module-level code are not bodies."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        for stmt in node.body if isinstance(node.body, list) else [node.body]:
            for sub in ast.walk(stmt):
                if not isinstance(sub, ast.Attribute):
                    continue
                owner = sub.value
                name = owner.id if isinstance(owner, ast.Name) else getattr(owner, "attr", None)
                if sub.attr in MEMBERS.get(name, ()):
                    found.add((sub.lineno, f"{name}.{sub.attr}"))
    return found


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda path: path.name)
def test_no_function_body_reads_an_enum_member_through_its_class(path):
    assert enum_reads_in_function_bodies(path.read_text()) == set()


def test_the_guard_sees_reads_in_bodies_and_not_in_defaults_or_module_code():
    source = ("X = Ordering.LESS\n"
              "def f(z=ZeroSharp.UNKNOWN):\n"
              "    return Ordering.EQUAL if z else (lambda: hypotheses.ZeroSharp.EXISTS)()\n")
    assert enum_reads_in_function_bodies(source) == {(3, "Ordering.EQUAL"), (3, "ZeroSharp.EXISTS")}


def test_each_module_constant_is_its_enum_member():
    modules = [importlib.import_module(f"alephcalc.{path.stem}")
               for path in sorted(SRC.glob("*.py")) if path.stem not in ("__init__", "__main__")]
    defined = {name for name in CONSTANTS for module in modules if hasattr(module, name)}
    assert defined == set(CONSTANTS)
    for module in modules:
        for name, member in CONSTANTS.items():
            assert getattr(module, name, member) is member, (module.__name__, name)


def rebuilt(x):
    """x built again by other paths: copies, a pickle round trip, and the successor of its
    predecessor when it has one."""
    out = [copy.copy(x), copy.deepcopy(x), pickle.loads(pickle.dumps(x))]
    if isinstance(x, CnfOrdinal):
        kind = ord_classify(x)
        if isinstance(kind, Successor):
            out.append(cnf_add(kind.pred, ORD_ONE))
    else:
        kind = card_index_classify(x)
        if isinstance(kind, SuccessorCard):
            out.append(successor(kind.pred))
    return out


@given(cardinals(with_atoms=True), cardinals(with_atoms=True))
def test_two_cardinals_are_equal_exactly_when_they_are_one_object(a, b):
    for x, y in [(a, b), (b, a), *((a, c) for c in rebuilt(a))]:
        assert (x == y) is (x is y)
        assert (x != y) is (x is not y)
        assert (card_text(x) == card_text(y)) is (x is y)


@given(cnf_ordinals(), cnf_ordinals())
def test_two_ordinals_are_equal_exactly_when_they_are_one_object(a, b):
    for x, y in [(a, b), (b, a), *((a, c) for c in rebuilt(a))]:
        assert (x == y) is (x is y)
        assert (x != y) is (x is not y)
        assert (cnf_tree(x) == cnf_tree(y)) is (x is y)


@given(cardinals(with_atoms=True))
def test_is_regular_agrees_with_the_cofinality_oracle(c):
    assert is_regular(c) is (card_text(cf_oracle(c)) == card_text(c))
