"""Exact symbolic arithmetic for infinite cardinals under set-theoretic hypotheses.

The engine answers size questions about mu-abstract elementary classes —
internal size versus cardinality, presentability-rank bounds, existence
windows, and categoricity spectra for the worked Hilbert-space, well-order,
and constructible-model classes — relative to declared axioms (GCH, SCH
instances, V=L, the status of 0#).  Answers are three-valued: determined
with the assumptions used, or independent with the missing ones named.

``import alephcalc`` loads no submodule: each public name, and each submodule
named in ``_EXPORTS``, is imported on first access (PEP 562) and then kept.
"""

from importlib import import_module

__version__ = "0.1.0"

# Each defining submodule and the public names the package takes from it.
_EXPORTS = {
    "ordinals": ("OMEGA", "ORD_ONE", "ORD_ZERO", "CnfOrdinal", "Limit", "Ordering", "Successor", "Zero",
                 "cnf_add", "cnf_compare", "from_int", "omega_power", "ord_classify"),
    "cardinals": ("ALEPH0", "ALEPH1", "ALEPH2", "Aleph", "CardinalAtom", "CardinalExpr", "LimitCard",
                  "SuccessorCard", "UnclassifiedAtomError", "aleph", "card_compare", "card_index_classify",
                  "cofinality", "is_regular", "lambda_r", "lambda_star", "successor"),
    "hypotheses": ("EMPTY_CONTEXT", "AtLeast", "CardinalInterval", "Determined", "ExplicitSet",
                   "HypothesisContext", "InconsistentContextError", "Independent", "SchAssumption",
                   "UnboundedBelow", "Verdict", "ZeroSharp", "build_context", "ctx_implies_sch",
                   "extend_context", "l_cofinality", "sch_holds_at"),
    "arithmetic": ("exp_lt", "is_almost_mu_closed", "is_mu_closed", "triangle", "two_lt"),
    "sizes": ("BelowLS", "ClassParams", "Exact", "SizeInterval", "SizeVerdict", "SpectrumFacts",
              "TwoCandidates", "Undetermined", "colimit_presentability_bound", "existence_at",
              "existence_window", "internal_size_of_cardinality", "no_model_of_internal_size",
              "rank_excluded_at"),
    "spectra": ("AtLeastCard", "Card", "CountValue", "Finite", "UndeterminedCount", "ZeroCount",
                "hilbert_count_by_cardinality", "hilbert_count_by_internal_size",
                "shelah_count_by_cardinality", "shelah_count_by_internal_size", "wellorder_internal_size"),
    "dsl": ("ParseError", "format_statement", "parse"),
    "evaluator": ("QueryError", "QueryResult", "evaluate", "evaluate_line", "run_batch"),
}
_ORIGIN = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_ORIGIN)


def __getattr__(name: str):
    """A submodule named in ``_EXPORTS``, or a public name from its defining submodule, imported now.

    The import runs under the module's import lock, so threads that ask at once all get the one module."""
    if name in _EXPORTS:
        return import_module(f"{__name__}.{name}")  # the import binds it on the package
    if name not in _ORIGIN:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f"{__name__}.{_ORIGIN[name]}"), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
