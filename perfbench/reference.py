"""References the benchmark checks the engine's outputs against.

Nothing here asks the engine for an answer.  Expected values come from
``tests/oracles.py`` (the GCH exponentiation recursion and the structural
cofinality classifier the acceptance tests use), from the frozen golden
sessions in ``tests/data``, and from the closed forms the README states.
Cardinals and ordinals are printed by this module's own canonical printer,
so a change to the engine's formatter cannot move the reference with it.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
DATA = ROOT / "tests" / "data"
ORACLES = ROOT / "tests" / "oracles.py"
GOLDEN = ("golden_session", "golden_vl_session")
RECORD_KEYS = ["query", "verdict", "value", "assumptions_used", "notes"]


def load_oracles():
    spec = importlib.util.spec_from_file_location("perfbench_oracles", ORACLES)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def golden_sessions() -> list[tuple[str, list[str], str]]:
    """(name, script lines, expected JSONL text) for each frozen session."""
    return [
        (name, (DATA / f"{name}.txt").read_text().splitlines(),
         (DATA / f"{name}.expected.jsonl").read_text())
        for name in GOLDEN
    ]


# --- canonical printer (the DSL grammar in the README) ---------------------


def ord_text(o) -> str:
    if not o.terms:
        return "0"
    return "+".join(_term_text(e, c) for e, c in o.terms)


def _is_nat(o) -> bool:
    return not o.terms or (len(o.terms) == 1 and not o.terms[0][0].terms)


def _term_text(exp, coeff: int) -> str:
    if not exp.terms:
        return str(coeff)
    if len(exp.terms) == 1 and exp.terms[0][1] == 1 and not exp.terms[0][0].terms:
        body = "w"
    elif _is_nat(exp) or (len(exp.terms) == 1 and exp.terms[0][1] == 1):
        body = f"w^{ord_text(exp)}"
    else:
        body = f"w^({ord_text(exp)})"
    return body if coeff == 1 else f"{body}*{coeff}"


def card_text(c) -> str:
    if not hasattr(c, "tail"):
        return f"inacc({c.name})"
    if c.base is None:
        return f"aleph({ord_text(c.tail)})"
    if not c.tail.terms:
        return f"aleph({card_text(c.base)})"
    return f"aleph({card_text(c.base)}+{ord_text(c.tail)})"


def ordinal_text(base, tail) -> str:
    """An ordinal argument aleph_base + tail (base None: a countable tail)."""
    if base is None:
        return ord_text(tail)
    if not tail.terms:
        return card_text(base)
    return f"{card_text(base)}+{ord_text(tail)}"


# --- structural facts the README states -------------------------------------


def is_atom(c) -> bool:
    return not hasattr(c, "tail")


def is_successor_card(c) -> bool:
    return not is_atom(c) and bool(c.tail.terms) and not c.tail.terms[-1][0].terms


def succ_oracle(c):
    """aleph_{i+1} for aleph_i, by adding one to the last CNF term."""
    terms = c.tail.terms
    if terms and not terms[-1][0].terms:
        new = terms[:-1] + ((terms[-1][0], terms[-1][1] + 1),)
    else:
        new = terms + ((type(c.tail)(()), 1),)
    return type(c)(c.base, type(c.tail)(new))


def pred_oracle(c):
    """aleph_i for a successor aleph_{i+1}."""
    terms = c.tail.terms
    exp, coeff = terms[-1]
    new = terms[:-1] + (((exp, coeff - 1),) if coeff > 1 else ())
    return type(c)(c.base, type(c.tail)(new))


class Expectations:
    """Expected (verdict, value) pairs where an oracle applies; None elsewhere."""

    def __init__(self):
        self.o = load_oracles()

    def cf(self, c) -> str:
        return card_text(self.o.cf_oracle(c))

    def is_regular(self, c) -> bool:
        return self.o.cf_oracle(c) == c

    def line(self, name: str, args: tuple, state) -> tuple[str, str] | None:
        """Oracle answer for a DSL query line under a session state, if any."""
        o = self.o
        if name == "cf":
            return "determined", self.cf(args[0])
        if name == "exp_lt" and state.gch:
            return "determined", card_text(o.gch_exp_lt(args[0], args[1]))
        if name == "closed":
            lam, mu = args
            if o.is_bad_successor(lam, mu):
                return "determined", "false"
            if state.gch:
                return "determined", "true"
            return None
        if name == "internal_size" and state.gch:
            mu, ls, lam = args
            if lam <= ls:
                return "determined", f"<={card_text(ls)}"
            if o.is_bad_successor(lam, mu):
                return "determined", f"{{{card_text(pred_oracle(lam))}, {card_text(lam)}}}"
            return "determined", card_text(lam)
        if name == "hilbert_card" and state.gch:
            return "determined", str(self.hilbert_count(args[0]))
        if name == "shelah_card" and (state.vl or state.sharp is True):
            return "determined", self.shelah_count(args[0], args[1], state.vl)
        return None

    def hilbert_count(self, lam) -> int:
        if self.o.cf_oracle(lam) == self.o.ALEPH0:
            return 0
        return 2 if self.o.is_bad_successor(lam, succ_oracle(self.o.ALEPH0)) else 1

    def shelah_count(self, mu, lam, vl: bool) -> str:
        if vl and self.o.cf_oracle(lam) < mu:
            return "1"
        return card_text(succ_oracle(lam))

    def wellorder(self, base, tail):
        """cf(alpha) + aleph_0 for alpha = aleph_base + tail."""
        if not tail.terms and base is not None:
            return self.o.cf_oracle(base)
        return self.o.ALEPH0


def record_problem(text: str, line: str, expected_verdict: set[str],
                   expected: tuple[str, str] | None) -> str | None:
    """Why one JSON record is not a well-formed answer to ``line``; None if it is."""
    try:
        rec = json.loads(text)
    except ValueError:
        return f"not JSON: {text!r}"
    if not isinstance(rec, dict) or list(rec) != RECORD_KEYS:
        return f"bad record fields: {text!r}"
    if rec["verdict"] not in expected_verdict:
        return f"{line}: verdict {rec['verdict']} not in {sorted(expected_verdict)}"
    if not (isinstance(rec["assumptions_used"], list) and isinstance(rec["notes"], list)):
        return f"{line}: bad list fields"
    if rec["verdict"] == "error":
        if rec["value"] is not None or not rec["notes"] or not rec["notes"][0].startswith("error: "):
            return f"{line}: malformed error record {text!r}"
        return None
    if rec["query"] != line:
        return f"{line}: query echoed as {rec['query']!r}"
    if rec["value"] is not None and not isinstance(rec["value"], str):
        return f"{line}: value is not a string"
    if expected is not None and (rec["verdict"], rec["value"]) != expected:
        return f"{line}: got {rec['verdict']} {rec['value']!r}, oracle says {expected}"
    return None
