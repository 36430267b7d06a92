"""The engine's public answers, frozen.

``data/engine_answers.expected.txt`` holds one line per call of a fixed,
seeded list of calls into the 16 public functions that the ``engine_sweep``
benchmark times, under six kinds of context: the ``repr`` of the result, or
``Type: message`` for an exception.  A change that only makes the engine
faster must leave every line as it is.  To write the file again after a
deliberate change of an answer, run
``PYTHONPATH=src python tests/test_engine_answers.py > tests/data/engine_answers.expected.txt``.
"""

from __future__ import annotations

import random
import sys
from pathlib import Path

import alephcalc as ac
from alephcalc import ALEPH0, ALEPH1, ALEPH2, Aleph, CardinalAtom, SchAssumption, aleph, successor
from alephcalc.ordinals import OMEGA, ORD_ONE, cnf_add, from_int, omega_power

from conftest import random_cardinal, random_cnf
from oracles import cf_oracle

EXPECTED = Path(__file__).parent / "data" / "engine_answers.expected.txt"

FUNCTIONS = (
    "exp_lt", "two_lt", "is_mu_closed", "is_almost_mu_closed", "triangle", "l_cofinality",
    "internal_size_of_cardinality", "existence_at", "rank_excluded_at",
    "hilbert_count_by_cardinality", "shelah_count_by_cardinality",
    "shelah_count_by_internal_size", "wellorder_internal_size", "cofinality", "lambda_r",
    "lambda_star",
)
ROUNDS = 11  # calls per function and context; 16 * 6 * 11 = 1,056 calls

W1 = cnf_add(OMEGA, ORD_ONE)
CONTEXTS = (
    ac.EMPTY_CONTEXT,
    ac.build_context(gch=True),
    ac.build_context(v_equals_l=True),
    ac.build_context(zero_sharp=ac.ZeroSharp.EXISTS),
    ac.build_context(zero_sharp=ac.ZeroSharp.NOT_EXISTS),
    ac.build_context(sch=(
        SchAssumption(ALEPH1, ac.AtLeast(aleph(omega_power(from_int(2))))),
        SchAssumption(ALEPH1, ac.ExplicitSet((aleph(OMEGA), aleph(W1), Aleph(ALEPH1)))),
        SchAssumption(ALEPH2, ac.UnboundedBelow(Aleph(ALEPH1, ORD_ONE))),
        SchAssumption(aleph(3), ac.AtLeast(Aleph(ALEPH1))),
        SchAssumption(aleph(W1), ac.UnboundedBelow(aleph(omega_power(OMEGA)))),
    )),
)


def _card(rng: random.Random):
    if rng.random() < 0.03:
        return CardinalAtom("x")  # declares no property: the calls that need one raise
    return random_cardinal(rng, allow_atom=True)


def _regular(rng: random.Random, atoms: bool = True):
    roll = rng.random()
    if roll < 0.1:
        return ALEPH0
    if atoms and roll < 0.15:
        return CardinalAtom(rng.choice(("theta", "kappa")), weakly_inaccessible=True)
    return successor(random_cardinal(rng))


def _at_least(rng: random.Random, lo, pick):
    while True:
        c = pick(rng)
        if c >= lo:
            return c


def _params(rng: random.Random):
    mu = _regular(rng, atoms=False)
    ls = _at_least(rng, mu, random_cardinal if rng.random() < 0.5 else lambda r: _regular(r, atoms=False))
    while cf_oracle(ls) < mu:
        ls = successor(ls)
    return ac.ClassParams(mu, ls, admits_intersections=rng.random() < 0.5)


def _args(rng: random.Random, name: str, ctx) -> tuple:
    if name == "exp_lt":
        return _card(rng), _regular(rng), ctx
    if name == "two_lt":
        return _regular(rng), ctx
    if name in ("is_mu_closed", "is_almost_mu_closed"):
        mu = _regular(rng, atoms=False)
        return _at_least(rng, mu, _card), mu, ctx
    if name == "triangle":
        mu = _regular(rng)
        return mu, _at_least(rng, mu, _regular), ctx
    if name in ("l_cofinality", "hilbert_count_by_cardinality"):
        return _card(rng), ctx
    if name in ("internal_size_of_cardinality", "existence_at"):
        params = _params(rng)
        lam = _card(rng)
        if name == "existence_at" and rng.random() < 0.8 and not lam > params.ls:
            lam = successor(params.ls)
        return params, lam, ctx
    if name == "rank_excluded_at":
        return CardinalAtom(rng.choice(("theta", "kappa")), True), _regular(rng, atoms=False), ctx
    if name in ("shelah_count_by_cardinality", "shelah_count_by_internal_size"):
        mu = _regular(rng, atoms=False)
        return mu, _at_least(rng, mu, random_cardinal), ctx
    if name == "wellorder_internal_size":
        base = random_cardinal(rng) if rng.random() < 0.5 else None
        return (None if base is ALEPH0 else base), random_cnf(rng), _card(rng)
    return (_card(rng),) if name != "lambda_star" else (random_cardinal(rng),)


def calls() -> list[tuple[str, tuple]]:
    """The frozen calls: every function under every context, ROUNDS times, from one seeded generator."""
    rng = random.Random("engine-answers")
    return [(name, _args(rng, name, ctx)) for _ in range(ROUNDS) for ctx in CONTEXTS for name in FUNCTIONS]


def answer(name: str, args: tuple) -> str:
    try:
        return repr(getattr(ac, name)(*args))
    except Exception as err:  # an error is an answer too
        return f"{type(err).__name__}: {err}"


def test_the_engine_gives_the_frozen_answers():
    frozen = calls()
    got = [answer(name, args) for name, args in frozen]
    expected = EXPECTED.read_text(encoding="utf-8").splitlines()
    assert len(got) == len(expected)
    for i, ((name, args), line, want) in enumerate(zip(frozen, got, expected)):
        assert line == want, f"call {i}: {name}{args!r}"
    assert EXPECTED.read_bytes() == "".join(line + "\n" for line in got).encode()


if __name__ == "__main__":
    sys.stdout.writelines(answer(name, args) + "\n" for name, args in calls())
