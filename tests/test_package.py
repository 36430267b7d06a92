"""The package's public surface and its first-use imports, each checked in a fresh interpreter.

``import alephcalc`` loads no submodule; a public name or submodule is imported on first access.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

# The 85 public names, by the submodule that defines each.
PUBLIC = {
    "ordinals": ["OMEGA", "ORD_ONE", "ORD_ZERO", "CnfOrdinal", "Limit", "Ordering", "Successor", "Zero",
                 "cnf_add", "cnf_compare", "from_int", "omega_power", "ord_classify"],
    "cardinals": ["ALEPH0", "ALEPH1", "ALEPH2", "Aleph", "CardinalAtom", "CardinalExpr", "LimitCard",
                  "SuccessorCard", "UnclassifiedAtomError", "aleph", "card_compare", "card_index_classify",
                  "cofinality", "is_regular", "lambda_r", "lambda_star", "successor"],
    "hypotheses": ["EMPTY_CONTEXT", "AtLeast", "CardinalInterval", "Determined", "ExplicitSet",
                   "HypothesisContext", "InconsistentContextError", "Independent", "SchAssumption",
                   "UnboundedBelow", "Verdict", "ZeroSharp", "build_context", "ctx_implies_sch",
                   "extend_context", "l_cofinality", "sch_holds_at"],
    "arithmetic": ["exp_lt", "is_almost_mu_closed", "is_mu_closed", "triangle", "two_lt"],
    "sizes": ["BelowLS", "ClassParams", "Exact", "SizeInterval", "SizeVerdict", "SpectrumFacts",
              "TwoCandidates", "Undetermined", "colimit_presentability_bound", "existence_at",
              "existence_window", "internal_size_of_cardinality", "no_model_of_internal_size",
              "rank_excluded_at"],
    "spectra": ["AtLeastCard", "Card", "CountValue", "Finite", "UndeterminedCount", "ZeroCount",
                "hilbert_count_by_cardinality", "hilbert_count_by_internal_size",
                "shelah_count_by_cardinality", "shelah_count_by_internal_size", "wellorder_internal_size"],
    "dsl": ["ParseError", "format_statement", "parse"],
    "evaluator": ["QueryError", "QueryResult", "evaluate", "evaluate_line", "run_batch"],
}

# Two records of the golden session: one from sizes, one from spectra with its caveat.
INTERNAL_SIZE = ('{"query": "internal_size(aleph(1), aleph(1), aleph(1))", "verdict": "determined", '
                 '"value": "<=aleph(1)", "assumptions_used": [], "notes": ["presentability rank at most aleph(2)"]}')
SHELAH_INTERNAL = ('{"query": "shelah_internal(aleph(1), aleph(2))", "verdict": "determined", "value": ">=aleph(3)", '
                   '"assumptions_used": [], "notes": ["lower bound only; exactness is open"]}')


def run_fresh(code: str) -> str:
    out = subprocess.run(
        [sys.executable, "-S", "-c", code],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert out.returncode == 0, out.stderr
    return out.stdout


def test_the_public_names_are_unchanged_and_each_is_its_defining_modules():
    assert sum(map(len, PUBLIC.values())) == 85
    code = f"""
import importlib, sys
public = {PUBLIC!r}
namespace = {{}}
exec("from alephcalc import *", namespace)
import alephcalc
del namespace["__builtins__"]
assert set(namespace) == set(alephcalc.__all__) == {{n for names in public.values() for n in names}}
assert len(alephcalc.__all__) == 85
for module, names in public.items():
    defining = importlib.import_module("alephcalc." + module)
    for n in names:
        assert getattr(alephcalc, n) is getattr(defining, n) is namespace[n], n
assert alephcalc.Exact is alephcalc.Card is alephcalc.Determined
assert alephcalc.Undetermined is alephcalc.UndeterminedCount is alephcalc.Independent
assert "__all__" in dir(alephcalc) and set(alephcalc.__all__) <= set(dir(alephcalc))
assert not hasattr(alephcalc, "no_such_name")
print("ok")
"""
    assert run_fresh(code) == "ok\n"


def test_import_alephcalc_loads_no_submodule():
    code = "import sys, alephcalc; print(sorted(m for m in sys.modules if m.startswith('alephcalc')))"
    assert run_fresh(code) == "['alephcalc']\n"


def test_the_evaluator_imports_first_and_alone():
    code = """
import alephcalc.evaluator as evaluator
from alephcalc.hypotheses import EMPTY_CONTEXT
results, _ = evaluator.evaluate_line("internal_size(aleph(1), aleph(1), aleph(1))", EMPTY_CONTEXT)
print(results[0].to_json_line())
"""
    assert run_fresh(code) == INTERNAL_SIZE + "\n"


def test_threads_that_first_need_an_entry_module_at_once_get_identical_records():
    # Each thread's first query imports sizes, its second spectra, unless another thread got there first.
    # A first use that let a thread see a half-run module failed here in about half of the interpreters,
    # so five run.
    code = """
import sys, threading
import alephcalc.evaluator as evaluator
from alephcalc.hypotheses import EMPTY_CONTEXT
assert not {"alephcalc.sizes", "alephcalc.spectra"} & set(sys.modules)
queries = ["internal_size(aleph(1), aleph(1), aleph(1))", "shelah_internal(aleph(1), aleph(2))"]
start = threading.Barrier(8)
records = [None] * 8

def ask(i):
    start.wait()
    records[i] = [r.to_json_line() for q in queries for r in evaluator.evaluate_line(q, EMPTY_CONTEXT)[0]]

sys.setswitchinterval(1e-6)
try:
    threads = [threading.Thread(target=ask, args=(i,)) for i in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=30)
finally:
    sys.setswitchinterval(0.005)
assert not any(t.is_alive() for t in threads)
assert all(r == records[0] for r in records), records
print("\\n".join(records[0]))
"""
    for _ in range(5):
        assert run_fresh(code) == f"{INTERNAL_SIZE}\n{SHELAH_INTERNAL}\n"
