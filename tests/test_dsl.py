import io
import json
import random
import re
import time
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from alephcalc import (
    ALEPH0,
    ALEPH1,
    ALEPH2,
    Aleph,
    CardinalAtom,
    EMPTY_CONTEXT,
    ParseError,
    ZeroSharp,
    aleph,
    build_context,
    evaluate_line,
    format_statement,
    parse,
    run_batch,
)
from alephcalc import arithmetic, dsl, evaluator
from alephcalc.dsl import (
    MAX_FOUND,
    MAX_NESTING,
    Assume,
    AssumeGch,
    AssumeSch,
    AssumeSharp,
    AssumeVEqualsL,
    CardinalLiteral,
    OrdinalLiteral,
    Query,
    Session,
    parse_assumptions,
    tokenize,
)
from alephcalc.evaluator import QUERIES, QUERY_SIGNATURES
from alephcalc.hypotheses import AtLeast, ExplicitSet, UnboundedBelow
from alephcalc.ordinals import OMEGA, ORD_ONE, ORD_ZERO, cnf_add, from_int, omega_power

from conftest import random_statement
from oracles import reference_scan

A_W1 = aleph(cnf_add(OMEGA, ORD_ONE))
GOLDEN_LINES = [
    line
    for name in ("golden_session.txt", "golden_vl_session.txt")
    for line in (Path(__file__).parent / "data" / name).read_text().splitlines()
    if line.strip() and not line.lstrip().startswith("#")
]
# Inputs that once escaped the parser as ValueError or RecursionError.
SUPERSCRIPT_DIGIT = "cf(aleph(\u00b2))"
LONG_NATURAL = "aleph(" + "1" * 5000 + ")"
LONG_SUM = "9" * 4300 + "+" + "9" * 4300
DEEP_TOWER = "w^" * 200 + "1"


class TestParse:
    def test_spec_examples(self):
        assert parse("aleph(w+1)") == CardinalLiteral(A_W1)
        assert parse("cf(aleph(aleph(1)))") == Query("cf", (CardinalLiteral(Aleph(ALEPH1)),))
        with pytest.raises(ParseError) as err:
            parse("aleph(")
        assert err.value.col == 7 and err.value.line == 1

    def test_sugar(self):
        assert parse("aleph_0") == CardinalLiteral(ALEPH0)
        assert parse("aleph_1") == CardinalLiteral(ALEPH1)
        assert parse("aleph_w") == CardinalLiteral(aleph(OMEGA))

    def test_index_grammar(self):
        assert parse("aleph(0)") == CardinalLiteral(ALEPH0)
        assert parse("aleph(w^2*3+w*2+5)") == CardinalLiteral(
            aleph(cnf_add(cnf_add(omega_power(from_int(2), 3), omega_power(ORD_ONE, 2)), from_int(5)))
        )
        # precedence: ^ > * > +, right-associative exponent chains
        assert parse("aleph(w^w^2)") == CardinalLiteral(aleph(omega_power(omega_power(from_int(2)))))
        assert parse("aleph(w^(w*2))") == CardinalLiteral(aleph(omega_power(omega_power(ORD_ONE, 2))))
        assert parse("aleph(w^w*2)") == CardinalLiteral(aleph(omega_power(OMEGA, 2)))

    def test_nested_and_based_indexes(self):
        assert parse("aleph(aleph(1))") == CardinalLiteral(Aleph(ALEPH1))
        assert parse("aleph(aleph(1)+w)") == CardinalLiteral(Aleph(ALEPH1, OMEGA))
        # aleph_0 in index position is the ordinal w
        assert parse("aleph(aleph(0))") == CardinalLiteral(aleph(OMEGA))
        assert parse("aleph(aleph(0)+1)") == CardinalLiteral(A_W1)

    def test_index_absorption(self):
        assert parse("aleph(1+w)") == CardinalLiteral(aleph(OMEGA))
        assert parse("aleph(w+aleph(1))") == CardinalLiteral(Aleph(ALEPH1))

    def test_non_dominating_cardinal_term_rejected(self):
        with pytest.raises(ParseError, match="dominating"):
            parse("aleph(aleph(w)+aleph(1))")

    def test_atom_literal(self):
        assert parse("inacc(theta)") == CardinalLiteral(CardinalAtom("theta", weakly_inaccessible=True))

    def test_atom_cannot_index_an_aleph(self):
        with pytest.raises(ParseError, match="fixed point"):
            parse("aleph(inacc(theta))")

    def test_ordinal_statements(self):
        assert parse("w*2+1") == OrdinalLiteral(None, cnf_add(omega_power(ORD_ONE, 2), ORD_ONE))
        assert parse("0") == OrdinalLiteral(None, ORD_ZERO)
        assert parse("aleph(1)+w") == OrdinalLiteral(ALEPH1, OMEGA)

    def test_assume_statements(self):
        assert parse("assume GCH") == Assume(AssumeGch())
        assert parse("assume V=L") == Assume(AssumeVEqualsL())
        assert parse("assume sharp") == Assume(AssumeSharp(True))
        assert parse("assume no-sharp") == Assume(AssumeSharp(False))
        assert parse("assume SCH(aleph_1, >= aleph_2)") == Assume(AssumeSch(ALEPH1, AtLeast(ALEPH2)))
        assert parse("assume SCH(aleph(1), below aleph(w))") == Assume(
            AssumeSch(ALEPH1, UnboundedBelow(aleph(OMEGA)))
        )
        assert parse("assume SCH(aleph(1), {aleph(2), aleph(3)})") == Assume(
            AssumeSch(ALEPH1, ExplicitSet((ALEPH2, aleph(3))))
        )

    def test_sessions(self):
        ast = parse("assume GCH; exp_lt(aleph(w), aleph(1))")
        assert isinstance(ast, Session) and len(ast.items) == 2

    def test_error_positions_and_expectations(self):
        with pytest.raises(ParseError) as err:
            parse("exp_lt(aleph(w), )")
        assert err.value.col == 18
        assert any("aleph" in e for e in err.value.expected)
        with pytest.raises(ParseError):
            parse("assume HCG")
        with pytest.raises(ParseError):
            parse("w*0")

    def test_assumption_list(self):
        assert parse_assumptions("gch, V=L,no-sharp,SCH(aleph(1), {aleph(2), aleph(3)})") == (
            AssumeGch(),
            AssumeVEqualsL(),
            AssumeSharp(False),
            AssumeSch(ALEPH1, ExplicitSet((ALEPH2, aleph(3)))),
        )
        for bad in ("", "gch,", "gch;sharp", "cf(aleph(1))"):
            with pytest.raises(ParseError):
                parse_assumptions(bad)

    def test_whitespace_insensitive(self):
        assert parse(" exp_lt( aleph(w) ,aleph(1) ) ") == parse("exp_lt(aleph(w), aleph(1))")


class TestFormat:
    def test_spec_examples(self):
        assert format_statement(CardinalLiteral(aleph(cnf_add(omega_power(ORD_ONE, 2), ORD_ONE)))) == "aleph(w*2+1)"
        assert format_statement(CardinalLiteral(Aleph(ALEPH1))) == "aleph(aleph(1))"

    def test_a_value_that_is_not_an_ast_node_is_a_type_error(self):
        with pytest.raises(TypeError, match="not an AST node"):
            format_statement(object())

    def test_canonical_rendering(self):
        assert format_statement(parse("assume SCH(aleph_1, >= aleph_2)")) == "assume SCH(aleph(1), >= aleph(2))"
        assert format_statement(parse("ASSUME gch")) == "assume GCH"
        assert format_statement(parse("wo_size(aleph(1)+w, aleph(1))")) == "wo_size(aleph(1)+w, aleph(1))"

    def test_round_trip_generated(self):
        rng = random.Random(11)
        for _ in range(400):
            ast = random_statement(rng)
            text = format_statement(ast)
            assert parse(text) == ast, text


class TestEvaluate:
    def test_spec_eval_examples(self):
        results, _ = evaluate_line("assume GCH; exp_lt(aleph(w), aleph(1))", EMPTY_CONTEXT)
        assert [r.verdict for r in results] == ["determined"]
        assert results[0].value == "aleph(w+1)"
        assert results[0].assumptions_used == ("GCH",)

        results, _ = evaluate_line("exp_lt(aleph(w), aleph(1))", EMPTY_CONTEXT)
        assert results[0].verdict == "independent"
        assert any("SCH(aleph(1)) at aleph(w)" in n for n in results[0].notes)

        results, _ = evaluate_line("assume V=L; shelah_card(aleph(1), aleph(w))", EMPTY_CONTEXT)
        assert results[0].verdict == "determined"
        assert results[0].value == "1"

    def test_count_rendering(self):
        gch = build_context(gch=True)
        results, _ = evaluate_line("hilbert_card(aleph(w+1))", gch)
        assert results[0].value == "2"
        results, _ = evaluate_line("hilbert_card(aleph(w))", gch)
        assert results[0].value == "0"
        results, _ = evaluate_line("shelah_internal(aleph(1), aleph(2))", EMPTY_CONTEXT)
        assert results[0].value == ">=aleph(3)"

    def test_interval_and_window_rendering(self):
        gch = build_context(gch=True)
        results, _ = evaluate_line("existence_window(aleph(1), aleph(2))", gch)
        assert results[0].value == "[aleph(2), aleph(2)]"
        results, _ = evaluate_line("existence_window(aleph(1), aleph(2))", EMPTY_CONTEXT)
        assert results[0].verdict == "independent"
        assert results[0].value == "[aleph(2), aleph(2)^<aleph(1)]"
        sharp = build_context(zero_sharp=ZeroSharp.EXISTS)
        results, _ = evaluate_line("l_cf(aleph(w))", sharp)
        assert results[0].value == "aleph(w)"
        no_sharp = build_context(zero_sharp=ZeroSharp.NOT_EXISTS)
        results, _ = evaluate_line("l_cf(aleph(w))", no_sharp)
        assert results[0].value == "[aleph(0), aleph(1)]"

    def test_internal_size_rendering_and_rank_notes(self):
        gch = build_context(gch=True)
        results, _ = evaluate_line("internal_size(aleph(1), aleph(1), aleph(3))", gch)
        assert results[0].value == "aleph(3)"
        assert "presentability rank aleph(4)" in results[0].notes
        results, _ = evaluate_line("internal_size(aleph(1), aleph(1), aleph(w+1))", gch)
        assert results[0].value == "{aleph(w), aleph(w+1)}"
        results, _ = evaluate_line("internal_size(aleph(1), aleph(1), aleph(1))", gch)
        assert results[0].value == "<=aleph(1)"
        assert "presentability rank at most aleph(2)" in results[0].notes

    def test_size_interval_rendering(self):
        results, _ = evaluate_line(
            "assume SCH(aleph(1), {aleph(1)}); internal_size(aleph(1), aleph(1), aleph(w+1))",
            EMPTY_CONTEXT,
        )
        assert results[0].verdict == "determined"
        assert results[0].value == "[aleph(2), aleph(w+1)]"
        assert any("not known to be tight" in n for n in results[0].notes)

    def test_atom_rank_note_renders_without_aleph_notation(self):
        results, _ = evaluate_line(
            "assume GCH; internal_size(aleph(1), aleph(1), inacc(theta))", EMPTY_CONTEXT
        )
        assert results[0].value == "inacc(theta)"
        assert "presentability rank the successor of inacc(theta)" in results[0].notes

    @pytest.mark.parametrize("line, record", [
        ("internal_size(aleph(1), aleph(1), aleph(w+1))",
         '{"query": "internal_size(aleph(1), aleph(1), aleph(w+1))", "verdict": "independent", '
         '"value": null, "assumptions_used": [], "notes": ["missing: mu-closedness of aleph(w+1) '
         'at aleph(1) is undecided and no mu-closed regular cardinal in (aleph(1), aleph(w+1)] '
         'is certified (missing: SCH(aleph(1)) below aleph(w+1))"]}'),
        ("hilbert_card(aleph(1))",
         '{"query": "hilbert_card(aleph(1))", "verdict": "independent", "value": null, '
         '"assumptions_used": [], "notes": ["counting infinite-dimensional spaces only", '
         '"missing: count is |beta|+1 where lam^{aleph_0} = aleph_{alpha+beta} with alpha least '
         'such that aleph_alpha^{aleph_0} = lam^{aleph_0}; this needs the continuum function '
         '(assume GCH)"]}'),
        ("shelah_internal(aleph(1), aleph(w))",
         '{"query": "shelah_internal(aleph(1), aleph(w))", "verdict": "independent", "value": null, '
         '"assumptions_used": [], "notes": ["missing: neither regularity nor mu-closedness of '
         'aleph(w) nor SCH(aleph(1)) below aleph(w) is available"]}'),
        ("shelah_card(aleph(2), aleph(w))",
         '{"query": "shelah_card(aleph(2), aleph(w))", "verdict": "independent", "value": null, '
         '"assumptions_used": [], "notes": ["missing: the status of 0# (with sharp: aleph(w+1); '
         'without: 1)"]}'),
        ("shelah_card(aleph(1), aleph(2))",
         '{"query": "shelah_card(aleph(1), aleph(2))", "verdict": "independent", "value": null, '
         '"assumptions_used": [], "notes": ["missing: the status of 0# (with sharp: aleph(3); '
         'without: >=aleph(2))"]}'),
        ("shelah_card(aleph(1), aleph(w))",
         '{"query": "shelah_card(aleph(1), aleph(w))", "verdict": "independent", "value": null, '
         '"assumptions_used": [], "notes": ["missing: the status of 0# (with sharp: aleph(w+1); '
         'without: undetermined)"]}'),
    ])
    def test_undetermined_size_and_count_records(self, line, record):
        results, _ = evaluate_line(line, EMPTY_CONTEXT)
        assert [r.to_json_line() for r in results] == [record]

    def test_unknown_query_and_arity_errors(self):
        results, _ = evaluate_line("frobnicate(aleph(1))", EMPTY_CONTEXT)
        assert results[0].verdict == "error"
        assert "unknown query name" in results[0].notes[0]
        results, _ = evaluate_line("cf(aleph(1), aleph(2))", EMPTY_CONTEXT)
        assert results[0].verdict == "error"
        assert "argument" in results[0].notes[0]

    @pytest.mark.parametrize(
        "line, note",
        [
            ("cf(w+1)", "argument 1 of cf must be a cardinal"),
            ("wo_size(true, aleph(1))", "argument 1 of wo_size must be an ordinal"),
            ("existence_at(aleph(1), aleph(1), aleph(3), aleph(1))", "argument 4 of existence_at must be true or false"),
            # Argument kinds are checked before any engine call (aleph(w) is singular).
            ("existence_at(aleph(w), aleph(1), true, true)", "argument 3 of existence_at must be a cardinal"),
            ("cf(aleph(1), aleph(2))", "cf takes 1 argument(s), got 2"),
        ],
    )
    def test_argument_error_notes(self, line, note):
        results, _ = evaluate_line(line, EMPTY_CONTEXT)
        assert results[0].verdict == "error"
        assert results[0].notes == (f"error: {note}",)

    @pytest.mark.parametrize("read, line, col, expected", [
        (evaluate_line, "@", 1, "a token, found '@'"),
        (evaluate_line, "assume foo", 8, "GCH, V=L, sharp, no-sharp, SCH, found foo"),
        (evaluate_line, "assume 3", 8, "GCH, V=L, sharp, no-sharp, SCH, found 3"),
        (evaluate_line, "assume", 7, "GCH, V=L, sharp, no-sharp, SCH, found end of input"),
        (evaluate_line, "assume V x", 10, "'=', found x"),
        (evaluate_line, "assume V=x", 10, "L, found x"),
        (evaluate_line, "assume no sharp", 11, "'-', found sharp"),
        (evaluate_line, "assume no-x", 11, "sharp, found x"),
        (evaluate_line, "assume GCH x", 12, "';' or end of input, found x"),
        (evaluate_line, "assume SCH", 11, "'(', found end of input"),
        (evaluate_line, "assume SCH(aleph(1) x", 21, "',', found x"),
        (evaluate_line, "assume SCH(aleph(1), >= aleph(2) x", 34, "')', found x"),
        (evaluate_line, "assume SCH(aleph(1), x)", 22, "'>=', below, '{', found x"),
        (evaluate_line, "assume SCH(w, >= aleph(1))", 13, "a cardinal expression, found ,"),
        (evaluate_line, "assume SCH(aleph(1), {aleph(2) x)", 32, "'}', found x"),
        (evaluate_line, "aleph(w^(aleph(1)))", 18, "an ordinal exponent, found )"),
        (evaluate_line, "w^(w", 5, "')', found end of input"),
        (evaluate_line, "w^)", 3, "a number, w, '(', found )"),
        (evaluate_line, "w*0", 3, "a positive coefficient, found 0"),
        (evaluate_line, "w*x", 3, "a positive coefficient, found x"),
        (evaluate_line, "inacc x", 7, "'(', found x"),
        (evaluate_line, "inacc(3)", 7, "an atom name, found 3"),
        (evaluate_line, "inacc(x", 8, "')', found end of input"),
        (evaluate_line, "aleph", 6, "'(', found end of input"),
        (evaluate_line, "aleph(w", 8, "')', found end of input"),
        (evaluate_line, "aleph(inacc(theta))", 1, "an aleph index (atoms are their own fixed points), found aleph"),
        (evaluate_line, "aleph(aleph(w)+aleph(1))", 16, "a cardinal term dominating the preceding ones, found aleph"),
        pytest.param(evaluate_line, "aleph_" + "1" * 4001, 1,
                     "a number of at most 4000 digits, found aleph_11111111111111111111111111...", id="long_aleph"),
        pytest.param(evaluate_line, "w^" * (MAX_NESTING + 1) + "1", 131,
                     "at most 64 levels of nesting, found 1", id="deep_tower"),
        (evaluate_line, "cf(aleph(1)", 12, "')', found end of input"),
        (evaluate_line, "cf(aleph(1),)", 13, "a number, w, aleph(...), inacc(...), found )"),
        (parse_assumptions, "gch x", 5, "',' or end of input, found x"),
        (parse_assumptions, "gch,", 5, "GCH, V=L, sharp, no-sharp, SCH, found end of input"),
    ])
    def test_syntax_error_notes(self, read, line, col, expected):
        if read is evaluate_line:
            results, _ = evaluate_line(line, EMPTY_CONTEXT)
            (record,) = results
            assert record.verdict == "error"
            (note,) = record.notes
        else:
            with pytest.raises(ParseError) as err:
                read(line)
            note = f"error: {err.value}"
        assert note == f"error: syntax error at line 1, column {col}: expected {expected}"

    def test_module_errors_surface_verbatim(self):
        results, _ = evaluate_line("rank_excluded(aleph(1), aleph(1))", EMPTY_CONTEXT)
        assert results[0].verdict == "error"
        assert "not a limit regular cardinal" in results[0].notes[0]
        results, _ = evaluate_line("assume sharp; assume V=L", EMPTY_CONTEXT)
        assert results[0].verdict == "error"
        assert "inconsistent context" in results[0].notes[0]

    def test_assume_threads_context_forward(self):
        ctx = EMPTY_CONTEXT
        results, ctx = evaluate_line("assume GCH", ctx)
        assert results == []
        assert ctx.gch
        results, ctx = evaluate_line("two_lt(aleph(1))", ctx)
        assert results[0].value == "aleph(1)"

    def test_literal_statement_normalises(self):
        results, _ = evaluate_line("aleph(1+w)", EMPTY_CONTEXT)
        assert results[0].value == "aleph(w)"


class TestBatch:
    def _run(self, text, ctx=EMPTY_CONTEXT):
        out = io.StringIO()
        status = run_batch(text.splitlines(), ctx, out, as_json=True)
        return status, out.getvalue()

    def test_three_valid_queries(self):
        status, out = self._run("cf(aleph(w))\nsucc(aleph(0))\nreg(aleph(1))\n")
        assert status == 0
        assert len(out.strip().splitlines()) == 3

    def test_error_line_embeds_and_sets_status(self):
        status, out = self._run("cf(aleph(w))\ncf(\nreg(aleph(1))\n")
        lines = out.strip().splitlines()
        assert status == 1
        assert len(lines) == 3
        assert '"verdict": "error"' in lines[1]

    def test_empty_input(self):
        status, out = self._run("")
        assert status == 0 and out == ""

    def test_comments_and_blank_lines_skipped(self):
        status, out = self._run("# heading\n\ncf(aleph(w))\n")
        assert status == 0
        assert len(out.strip().splitlines()) == 1

    def test_assume_lines_emit_no_records_but_mutate_forward(self):
        status, out = self._run("assume GCH\nexp_lt(aleph(w), aleph(1))\n")
        lines = out.strip().splitlines()
        assert status == 0
        assert len(lines) == 1
        assert '"value": "aleph(w+1)"' in lines[0]

    def test_text_mode(self):
        out = io.StringIO()
        status = run_batch(["# c", "assume GCH", "exp_lt(aleph(w), aleph(1))", "cf(oops"],
                           EMPTY_CONTEXT, out, as_json=False)
        assert status == 1
        assert out.getvalue() == (
            "exp_lt(aleph(w), aleph(1))\n= aleph(w+1)   [via GCH]\ncf(oops\nerror\n"
            "  error: syntax error at line 1, column 4: expected a number, w, aleph(...), inacc(...), found oops\n"
        )

    def test_determinism(self):
        text = "assume GCH\nexp_lt(aleph(w), aleph(1))\ninternal_size(aleph(1), aleph(1), aleph(w+1))\n"
        assert self._run(text) == self._run(text)

    def test_reask_across_a_context_change(self):
        _, out = self._run("two_lt(aleph(1))\nassume GCH\ntwo_lt(aleph(1))\ntwo_lt(aleph(1))\n")
        assert [json.loads(r)["verdict"] for r in out.splitlines()] == ["independent", "determined", "determined"]
        _, out = self._run("assume GCH; two_lt(aleph(1))\n" * 3)
        records = out.splitlines()
        assert len(records) == 3 and len(set(records)) == 1
        assert json.loads(records[0])["verdict"] == "determined"

    @pytest.mark.parametrize("seed", range(8))
    def test_repeated_lines_match_a_line_by_line_reference(self, seed):
        rng = random.Random(seed)
        for ctx in (EMPTY_CONTEXT, build_context(gch=True), build_context(zero_sharp=ZeroSharp.EXISTS)):
            _check_against_reference(batch_session_lines(rng, [], 120), ctx)

    def test_more_distinct_lines_than_the_memo_holds(self):
        lines = batch_session_lines(random.Random(4096), [f"cf(aleph({i}))" for i in range(4200)], 400)
        assert len({line.strip() for line in lines}) > 4096
        _check_against_reference(lines, EMPTY_CONTEXT)

    def test_a_cached_literal_does_not_answer_for_a_different_token_split(self):
        lines = ["aleph(10)", "aleph(1 0)", "cf(aleph(w*2+1))", "cf(aleph(w*2 +1))", "cf(aleph(w * 21))"]
        _check_against_reference(lines, EMPTY_CONTEXT)
        _, out = self._run("\n".join(lines))
        assert [json.loads(r)["verdict"] for r in out.splitlines()] == ["determined", "error"] + ["determined"] * 3

    def test_a_cached_literal_keeps_the_nesting_bound(self):
        literal = "aleph(aleph(w+1))"  # two levels, cached first at depth 0
        levels = (63, 64, 65, 64, 65, 63)
        lines = [literal] + ["f(" * (n - 2) + literal + ")" * (n - 2) for n in levels]
        _check_against_reference(lines, EMPTY_CONTEXT)
        _, out = self._run("\n".join(lines))
        nesting_errors = [f"at most {MAX_NESTING} levels of nesting" in r for r in out.splitlines()]
        assert nesting_errors == [False] + [n > MAX_NESTING for n in levels]


BATCH_ASSUMES = ["assume GCH", "assume V=L", "assume sharp", "assume no-sharp", "assume SCH(aleph(1), >= aleph(2))"]
BATCH_BAD_LINES = ["cf(", "cf(oops", "nope(aleph(1))", "two_lt(aleph(1), aleph(2))", "succ(inacc(theta))", "@"]


def batch_session_lines(rng, lines, count):
    """``lines`` extended by ``count`` batch lines: canonical statements, re-asks
    of earlier lines, assumes (some conflicting), ``assume GCH; ...`` sessions,
    bad lines, blank lines and comments, some with surrounding whitespace."""
    for _ in range(count):
        roll = rng.random()
        if lines and roll < 0.3:
            line = rng.choice(lines)
        elif roll < 0.4:
            line = rng.choice(BATCH_ASSUMES)
        elif roll < 0.45:
            line = "assume GCH; " + format_statement(random_statement(rng))
        elif roll < 0.5:
            line = rng.choice(BATCH_BAD_LINES)
        elif roll < 0.55:
            line = rng.choice(("", "  ", "# note"))
        else:
            line = format_statement(random_statement(rng))
        lines.append(rng.choice(("", " ", "\t")) + line + rng.choice(("", " ")))
    return lines


def _check_against_reference(lines, ctx):
    """run_batch gives the output and status of evaluating every line afresh."""
    for as_json in (True, False):
        expected, status = [], 0
        ref_ctx = ctx
        for raw in lines:
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            results, ref_ctx = evaluate_line(line, ref_ctx)
            for r in results:
                status |= r.verdict == "error"
                expected.append(r.to_json_line() + "\n" if as_json else f"{r.query}\n{r.pretty()}\n")
        out = io.StringIO()
        assert (run_batch(lines, ctx, out, as_json=as_json), out.getvalue()) == (status, "".join(expected))


ONE_PATH_CONTEXTS = (
    EMPTY_CONTEXT,
    build_context(gch=True),
    build_context(v_equals_l=True),
    build_context(zero_sharp=ZeroSharp.NOT_EXISTS),
    evaluate_line("assume SCH(aleph(1), >= aleph(2))", EMPTY_CONTEXT)[1],
)


@settings(derandomize=True, deadline=None, max_examples=200)
@given(st.randoms(use_true_random=False), st.sampled_from(ONE_PATH_CONTEXTS))
def test_evaluate_line_is_evaluate_of_the_parse(rng, ctx):
    """A line's records and context are ``evaluate``'s on its AST; where the line gives an error
    record, ``evaluate`` raises, and the record's note carries the exception's text."""
    line = format_statement(random_statement(rng))
    results, new_ctx = evaluate_line(line, ctx)
    if all(r.verdict != "error" for r in results):
        assert evaluator.evaluate(parse(line), ctx) == (results, new_ctx)
        return
    [record] = results
    with pytest.raises(Exception) as raised:
        evaluator.evaluate(parse(line), ctx)
    assert str(raised.value) in record.notes[0]


def test_a_batch_parses_each_kind_of_line_once_across_a_context_change(monkeypatch):
    """A bare literal, a session and a line that parses but fails in the engine, each asked again
    after ``assume GCH``, are parsed once; each is evaluated again from its AST."""
    literal, session, failing = "aleph(w +1)", "two_lt(aleph(1)); cf(aleph(w))", "exp_lt(aleph(1),  aleph(w))"
    lines = [literal, session, failing, "assume GCH", literal, session, failing]
    parsed = []
    parse_line = evaluator.parse
    monkeypatch.setattr(evaluator, "parse", lambda text, *rest: parsed.append(text) or parse_line(text, *rest))
    out = io.StringIO()
    assert run_batch(lines, EMPTY_CONTEXT, out, as_json=True) == 1
    assert parsed == [literal, session, failing, "assume GCH"]
    records = [json.loads(record) for record in out.getvalue().splitlines()]
    assert [(r["query"], r["verdict"], r["value"], r["assumptions_used"]) for r in records] == [
        ("aleph(w+1)", "determined", "aleph(w+1)", []),
        ("two_lt(aleph(1))", "independent", "2^<aleph(1)", []),
        ("cf(aleph(w))", "determined", "aleph(0)", []),
        ("exp_lt(aleph(1), aleph(w))", "error", None, []),
        ("aleph(w+1)", "determined", "aleph(w+1)", []),
        ("two_lt(aleph(1))", "determined", "aleph(1)", ["GCH"]),
        ("cf(aleph(w))", "determined", "aleph(0)", []),
        ("exp_lt(aleph(1), aleph(w))", "error", None, []),
    ]
    monkeypatch.undo()
    _check_against_reference(lines, EMPTY_CONTEXT)


def test_every_query_is_in_a_golden_session():
    data = Path(__file__).parent / "data"
    called = set()
    for name in ("golden_session.txt", "golden_vl_session.txt"):
        for line in (data / name).read_text().splitlines():
            if not line.lstrip().startswith("#"):
                called.update(re.findall(r"\b(\w+)\(", line))
    assert set(QUERY_SIGNATURES) <= called


# Each builder writes an input with exactly n levels of nesting.
NESTERS = {
    "aleph": lambda n: "aleph(" * n + "1" + ")" * n,
    "tower": lambda n: "w^" * n + "2",
    "parenthesised exponent": lambda n: "w^" * (n % 2) + "w^(" * (n // 2) + "w" + ")" * (n // 2),
    "query": lambda n: "f(" * n + "1" + ")" * n,
}


class TestFrontEndContract:
    @pytest.mark.parametrize(
        "line",
        [SUPERSCRIPT_DIGIT, LONG_NATURAL, LONG_SUM, DEEP_TOWER],
        ids=["superscript_digit", "long_natural", "long_sum", "deep_tower"],
    )
    def test_bad_input_is_one_syntax_error_record(self, line):
        results, _ = evaluate_line(line, EMPTY_CONTEXT)
        assert len(results) == 1
        assert results[0].verdict == "error"
        assert results[0].notes[0].startswith("error: syntax error at line 1, column ")

    @pytest.mark.parametrize("line", ["aleph(" + "1" * 5000 + ")", "cf(" + "x" * 5000 + ")"],
                             ids=["long_natural", "long_identifier"])
    def test_long_token_gives_a_short_note(self, line):
        results, _ = evaluate_line(line, EMPTY_CONTEXT)
        assert len(results) == 1
        assert results[0].query == line
        (note,) = results[0].notes
        assert len(note) < 200
        assert note.endswith(", found " + line[line.index("(") + 1:][:MAX_FOUND] + "...")

    @pytest.mark.parametrize("length", [MAX_FOUND, MAX_FOUND + 1, 5000])
    def test_a_long_unknown_query_name_gives_a_short_note(self, length):
        line = "x" * length + "(1)"
        results, ctx = evaluate_line(line, EMPTY_CONTEXT)
        name = "x" * MAX_FOUND + ("..." if length > MAX_FOUND else "")
        assert ctx is EMPTY_CONTEXT
        assert [(r.query, r.verdict, r.notes) for r in results] == [
            (line, "error", (f"error: unknown query name: {name}",))
        ]

    def test_batch_keeps_going_past_a_deep_line(self):
        out = io.StringIO()
        status = run_batch(["cf(aleph(1))", DEEP_TOWER, "cf(aleph(2))"], EMPTY_CONTEXT, out, as_json=True)
        records = out.getvalue().splitlines()
        assert status == 1
        assert len(records) == 3
        assert '"verdict": "error"' in records[1]

    def test_an_unexpected_engine_error_is_one_internal_record(self, monkeypatch):
        def broken(name, ctx, c):
            raise RuntimeError("broken handler")

        monkeypatch.setitem(QUERIES, "cf", (("card",), broken))
        results, ctx = evaluate_line("cf(aleph(w))", EMPTY_CONTEXT)
        assert ctx is EMPTY_CONTEXT
        assert [(r.query, r.verdict, r.value, r.notes) for r in results] == [
            ("cf(aleph(w))", "error", None, ("internal: RuntimeError: broken handler",))
        ]
        out = io.StringIO()
        status = run_batch(["cf(aleph(1))", "succ(aleph(1))", "assume GCH", "cf(aleph(2))", "two_lt(aleph(1))"],
                           EMPTY_CONTEXT, out, as_json=True)
        records = [json.loads(line) for line in out.getvalue().splitlines()]
        assert status == 1
        assert [(r["verdict"], r["value"]) for r in records] == [
            ("error", None), ("determined", "aleph(2)"), ("error", None), ("determined", "aleph(1)")
        ]
        assert records[2]["notes"] == ["internal: RuntimeError: broken handler"]

    def test_a_parser_bug_is_one_internal_record(self, monkeypatch):
        def broken(parser):
            raise IndexError("boom")

        monkeypatch.setattr(dsl._Parser, "session", broken)
        results, ctx = evaluate_line("cf(aleph(1))", EMPTY_CONTEXT)
        assert ctx is EMPTY_CONTEXT
        assert [(r.query, r.verdict, r.value, r.notes) for r in results] == [
            ("cf(aleph(1))", "error", None, ("internal: IndexError: boom",))
        ]
        out = io.StringIO()
        status = run_batch(["  cf(aleph(1)) ", "assume GCH", "two_lt(aleph(1))"], EMPTY_CONTEXT, out, as_json=True)
        records = [json.loads(line) for line in out.getvalue().splitlines()]
        assert status == 1
        assert [(r["query"], r["verdict"], r["notes"]) for r in records] == [
            (line, "error", ["internal: IndexError: boom"])
            for line in ("cf(aleph(1))", "assume GCH", "two_lt(aleph(1))")
        ]

    @pytest.mark.parametrize("kind", sorted(NESTERS))
    def test_nesting_bound(self, kind):
        text = NESTERS[kind](MAX_NESTING)
        ast = parse(text)
        assert parse(format_statement(ast)) == ast
        with pytest.raises(ParseError, match=f"at most {MAX_NESTING} levels of nesting"):
            parse(NESTERS[kind](MAX_NESTING + 1))

    def test_nesting_error_is_at_the_first_token_beyond_the_bound(self):
        with pytest.raises(ParseError) as err:
            parse(NESTERS["aleph"](MAX_NESTING + 1))
        assert (err.value.line, err.value.col) == (1, len("aleph(") * (MAX_NESTING + 1) + 1)
        assert err.value.found == "1"

    def test_positions_on_a_second_line(self):
        tokens = tokenize("cf(\n  aleph(1))")
        assert [(t.kind, t.line, t.col) for t in tokens[2:4]] == [("ident", 2, 3), ("(", 2, 8)]
        assert (tokens[-1].line, tokens[-1].col) == (2, 12)
        with pytest.raises(ParseError) as err:
            parse("cf(aleph(1),\n  aleph(2) @)")
        assert (err.value.line, err.value.col) == (2, 12)
        assert err.value.found == "'@'"


@st.composite
def mutated_golden_lines(draw):
    line = draw(st.sampled_from(GOLDEN_LINES))
    for _ in range(draw(st.integers(min_value=1, max_value=4))):
        i = draw(st.integers(min_value=0, max_value=len(line)))
        j = draw(st.integers(min_value=i, max_value=min(len(line), i + 6)))
        insert = draw(st.text(alphabet="()[]{},;+*^=->_ 019wW\u00b2\nalephincsu", max_size=4))
        line = line[:i] + insert + line[j:]
    return line


@settings(derandomize=True, deadline=None, max_examples=300)
@given(st.one_of(st.text(), mutated_golden_lines()))
@example(SUPERSCRIPT_DIGIT)
@example(LONG_NATURAL)
@example(LONG_SUM)
@example(DEEP_TOWER)
def test_evaluate_line_never_raises(text):
    results, _ = evaluate_line(text, EMPTY_CONTEXT)
    if not results:
        ast = parse(text)
        items = ast.items if isinstance(ast, Session) else (ast,)
        assert all(isinstance(item, Assume) for item in items)


def _line_col(text, pos):
    """Line and column of offset ``pos``, counted one character at a time."""
    line, col = 1, 1
    for ch in text[:pos]:
        if ch == "\n":
            line, col = line + 1, 1
        else:
            col += 1
    return line, col


DSL_TEXT = st.text(
    alphabet=st.sampled_from(list("()[]{},;+*^=->_ 019wWalephincsutrfGCHSVL\n\t\r\u00b2\u00e9\u03bb\u2003")),
    max_size=40,
)


@settings(derandomize=True, deadline=None, max_examples=300)
@given(st.one_of(DSL_TEXT, mutated_golden_lines(), st.lists(st.sampled_from(GOLDEN_LINES), max_size=4).map("\n".join)))
@example("cf(aleph(1)\n")
@example("cf(\n\r\taleph(1)) @")
@example("cf(\u03bb,\n  \u00e9(1))\n\n")
def test_positions_match_a_character_count(text):
    try:
        tokens = tokenize(text)
    except ParseError:
        pass
    else:
        pos = 0
        for tok in tokens[:-1]:
            pos = text.index(tok.text, pos)  # only whitespace lies between tokens
            assert (tok.line, tok.col) == _line_col(text, pos)
            pos += len(tok.text)
        assert (tokens[-1].line, tokens[-1].col) == _line_col(text, len(text))
    offsets = {_line_col(text, i): i for i in range(len(text) + 1)}
    for read in (tokenize, parse, parse_assumptions):
        try:
            read(text)
        except ParseError as err:
            pos = offsets[err.line, err.col]
            if err.found == "end of input":
                assert pos == len(text)
            else:
                assert text.startswith(err.found.removesuffix("..."), pos) or err.found == repr(text[pos])


SCANNER_TEXT = st.lists(
    st.sampled_from(list("()[]{},;+*^=->_ 019wWaleph\t\n\r\u0663\u00b2\u2265\u00e9\u2003") + [">="]),
    max_size=40,
).map("".join)


@settings(derandomize=True, deadline=None, max_examples=500)
@given(st.one_of(SCANNER_TEXT, st.text(), mutated_golden_lines()))
@example("aleph(\u0663)")  # a Unicode decimal digit is a nat
@example(SUPERSCRIPT_DIGIT)  # isdigit() but not isdecimal(): an identifier
@example("SCH(aleph(1), > aleph(2))")
@example("SCH(aleph(1),\t>=\naleph(2)) >")
@example("aleph(1) \u2265 aleph(0)")
def test_the_scanner_matches_the_reference(text):
    """``_scan``, ``tokenize`` and a scanning error agree with the match-at-a-time scanner."""
    def outcome(read):
        try:
            return read()
        except ParseError as err:
            return err.line, err.col, err.expected, err.found

    expected = outcome(lambda: reference_scan(text))
    got_scan = outcome(lambda: dsl._scan(text))
    got_tokens = outcome(lambda: [(t.kind, t.text, t.line, t.col) for t in tokenize(text)])
    if isinstance(expected, tuple):
        assert got_scan == got_tokens == expected
    else:
        assert got_scan == ([kind for kind, _, _ in expected], [word for _, word, _ in expected])
        assert got_tokens == [(kind, word, *_line_col(text, pos)) for kind, word, pos in expected]


# aleph(...) literals and the levels of nesting each opens.
NESTED_LITERALS = [("aleph(1)", 1), ("aleph(aleph(w+1))", 2), ("aleph(aleph(w +1))", 2),
                   ("aleph(w^(w+1)*2+aleph(3))", 3), ("aleph(inacc(theta))", 2)]


@st.composite
def wrapped_literals(draw):
    """A literal alone, or inside queries that bring it to 60 to 66 levels of nesting."""
    literal, levels = draw(st.sampled_from(NESTED_LITERALS))
    wraps = draw(st.one_of(st.just(0), st.integers(min_value=60 - levels, max_value=66 - levels)))
    return "f(" * wraps + literal + ")" * wraps


def _parse_outcome(read):
    try:
        return repr(read())
    except ParseError as err:
        return str(err), err.line, err.col, err.expected, err.found


@settings(derandomize=True, deadline=None, max_examples=300)
@given(st.lists(st.one_of(st.randoms(use_true_random=False).map(lambda rng: format_statement(random_statement(rng))),
                          mutated_golden_lines(), wrapped_literals()), min_size=1, max_size=12))
@example(["aleph(10)", "aleph(1 0)"])
@example(["f(" * 62 + "aleph(aleph(w+1))" + ")" * 62, "aleph(aleph(w+1))", "f(" * 63 + "aleph(aleph(w+1))" + ")" * 63])
def test_a_shared_literal_table_parses_as_a_plain_parse(texts):
    """``parse`` with one table kept across the texts gives what ``parse`` gives without one."""
    table = {}
    for text in texts:
        assert _parse_outcome(lambda: parse(text, table)) == _parse_outcome(lambda: parse(text))


def _token_level_outcome(text):
    """What the parser gives ``text`` read token by token, with no literal table."""
    return _parse_outcome(lambda: dsl._Parser(text, dsl._scan(text)).session())


LITERAL_CASES = [
    # whitespace and a newline inside a literal
    "aleph(w + 1)", "aleph(w\n+1)", "cf(aleph(\n aleph(1)\t))", "aleph( 1 0 )", "aleph(w^(w +1) * 2)",
    # ',', ';' or '{' inside a literal
    "aleph(1, 2)", "cf(aleph(1; aleph(2)))", "aleph({1})", "assume SCH(aleph(1), {aleph({2})})",
    # words that only look like aleph(...)
    "aleph (1)", "xaleph(1)", "2aleph(1)", "alephs(1)", "aleph_1", "cf(aleph (1))", "cf(xaleph(1))",
    "cf(2aleph(1))", "cf(alephs(1))", "cf(aleph_1)", "aleph(1)aleph(2)",
    "aleph(inacc(theta))", "cf(aleph(1) + aleph(inacc(theta)))",
    # unbalanced
    "aleph((1)", "aleph(1))", "cf(aleph((1))", "cf(aleph(1)))",
    # at the bound of four levels of parentheses, and one level deeper
    "aleph(aleph(aleph(aleph(1))))", "aleph(aleph(aleph(aleph(aleph(1)))))",
    "aleph(w^(w^(w^(2))))", "aleph(w^(w^(w^(w^(2)))))", "aleph(aleph(w^(w^(w^(2)))))",
    "aleph(aleph(aleph(aleph(aleph(1))))) + aleph(aleph(aleph(aleph(aleph(2)))))",
]
# Literals of 1 to 7 levels of nesting, wrapped in queries to 60 to 66 levels.
LITERAL_CASES += ["f(" * (total - levels) + literal + ")" * (total - levels)
                  for literal, levels in [("aleph(1)", 1), ("aleph(aleph(w+1))", 2),
                                          ("aleph(aleph(aleph(aleph(1))))", 4),
                                          ("aleph(aleph(aleph(aleph(aleph(1)))))", 5),
                                          ("aleph(w^(w^(w^(2))))", 7)]
                  for total in range(60, 67)]


@pytest.mark.parametrize("order", [1, -1])
def test_a_batch_parse_equals_the_token_level_parse(order):
    """Each case, asked twice with one table shared by all of them, parses as it does token by token:
    the same AST, or the same error, message, line, column, expectation and token."""
    table = {}
    for text in LITERAL_CASES[::order]:
        expected = _token_level_outcome(text)
        assert _parse_outcome(lambda: parse(text, table)) == expected, text
        assert _parse_outcome(lambda: parse(text, table)) == expected, text
    assert table  # the cases did fill the table


@pytest.mark.parametrize("text", [
    "cf(oops", "cf(aleph(1)", "cf(aleph(1)))", "cf(aleph(1 0))", "aleph(aleph(aleph(aleph(aleph(1))))) +",
    "assume SCH(aleph(1), {aleph(2)}",
    pytest.param("exp_lt(aleph(1),\n aleph(" + "9" * 4_001 + "))", id="a-natural-past-the-digit-bound"),
])
def test_a_failing_line_finds_its_token_starts_once(monkeypatch, text):
    """Only the token-level read of a failing line places its error: the literal-token pass before
    it builds no message, line or column, and the error is the token-level one."""
    calls = []
    starts = dsl._starts
    monkeypatch.setattr(dsl, "_starts", lambda line: calls.append(line) or starts(line))
    outcome = _parse_outcome(lambda: parse(text, {}))
    assert calls == [text]
    assert outcome == _token_level_outcome(text)


@pytest.mark.parametrize("line", [
    "aleph(" * 20_000 + "1",
    "aleph(" + "()" * 50_000,
    ("aleph(" + "()" * 50) * 2_000,
    "cf(" + "aleph(1)+" * 30_000 + "1)",
], ids=["open-alephs", "empty-pairs", "repeated-open-literals", "long-sum"])
def test_a_long_adversarial_line_is_one_error_record_in_linear_time(line):
    """A long line that a backtracking literal pattern would stall on gives the token-level error."""
    out = io.StringIO()
    begin = time.perf_counter()
    status = run_batch([line], EMPTY_CONTEXT, out, as_json=True)
    elapsed = time.perf_counter() - begin
    records = [json.loads(record) for record in out.getvalue().splitlines()]
    message = _token_level_outcome(line)[0]
    assert status == 1
    assert [(r["query"], r["verdict"], r["notes"]) for r in records] == [(line, "error", [f"error: {message}"])]
    assert elapsed < 5.0


# Flat lines, name(literal, ..., literal), and lines one step away from that shape.
FLAT_LINE_CASES = [
    "assume(aleph(1))", "Assume(aleph(1))", "true(aleph(1))", "TRUE(aleph(1))", "false(aleph(1))",
    "w(aleph(1))", "W(aleph(1))", "aleph_1(aleph(1))", "aleph_w(aleph(1))", "inacc(aleph(1))",
    "f()", "f(aleph(1),)", "f(aleph(1) aleph(2))", "f(aleph(1)+1)", "f(aleph(1),,aleph(2))",
    "f(aleph(aleph(aleph(aleph(aleph(1))))))", "f(aleph(inacc(t)))", "cf(aleph(0))",
    "cf(aleph(1)); cf(aleph(2))", "cf(aleph(1)) aleph(2)", "f(aleph(1)", "f(aleph(1)))",
    "f(aleph(oops))", "f(aleph(1 0))", "f(aleph(1), true)", "f(aleph(w), aleph(w))",
    "no_model_rule(aleph(1), aleph(1), aleph(w+1), aleph(2), aleph(3), aleph(4))",
]
FLAT_NAMES = ["cf", "f", "no_model_rule", "W", "alephs", "x1"]
NOT_FLAT_NAMES = ["assume", "ASSUME", "true", "True", "false", "FALSE", "w", "aleph", "aleph_0", "aleph_12",
                  "aleph_w", "inacc"]
FLAT_ARGS = [literal for literal, _ in NESTED_LITERALS] + ["aleph(0)", "aleph(1 0)", "aleph(oops)", "aleph(w^2*3+7)"]
NOT_FLAT_ARGS = ["aleph(aleph(aleph(aleph(aleph(1)))))", "aleph(w)+1", "aleph(1) aleph(2)", "1", "w", "true",
                 "inacc(t)", "aleph_1", ""]


@st.composite
def flat_lines(draw):
    """name(arg, ..., arg): a flat line, or one with some parts that no flat line has."""
    flat = draw(st.booleans())
    name = draw(st.sampled_from(FLAT_NAMES if flat else FLAT_NAMES + NOT_FLAT_NAMES))
    args = draw(st.lists(st.sampled_from(FLAT_ARGS if flat else FLAT_ARGS + NOT_FLAT_ARGS),
                         min_size=flat, max_size=6))
    sep = draw(st.sampled_from([", ", ",", " , "] if flat else [", ", " ", ",,"]))
    end = draw(st.sampled_from([")", " ) "] if flat else [")", "", "),", ");cf(aleph(1))"]))
    return f"{name}({sep.join(args)}{end}"


def _general_outcome(text):
    """What the general parser gives ``text`` read token by token, with no literal token."""
    return _parse_outcome(lambda: dsl._Parser(text, dsl._split(text)).session())


@settings(derandomize=True, deadline=None, max_examples=300)
@given(st.lists(flat_lines(), min_size=1, max_size=12))
@example(FLAT_LINE_CASES)
def test_lines_sharing_a_literal_table_parse_as_read_token_by_token(texts):
    """With one literal table shared by the lines, each parses to the general parser's AST or error."""
    table = {}
    for text in texts:
        assert _parse_outcome(lambda: parse(text, table)) == _general_outcome(text), text


@pytest.mark.parametrize("text, literal_args", [
    ("cf(aleph(1))", True), ("cf(aleph(0))", True), ("hilbert_card(aleph(aleph(w+1)))", True),
    ("no_model_rule(aleph(1), aleph(1), aleph(w+1), aleph(2), aleph(3), aleph(4))", True),
    ("cf(aleph(w)+1)", False), ("W(aleph(1))", True), ("w(aleph(1))", False), ("TRUE(aleph(1))", False),
    ("assume(aleph(1))", False), ("inacc(aleph(1))", False), ("aleph_1(aleph(1))", False),
    ("f(aleph(1), true)", False), ("f(aleph(aleph(aleph(aleph(aleph(1))))))", False),
])
def test_a_line_parses_with_a_literal_table_as_read_token_by_token(text, literal_args):
    """Each line, of the form ``NAME(literal, ..., literal)`` (``literal_args``) or not, parses with a
    literal table to the general parser's AST or error."""
    outcome = _parse_outcome(lambda: parse(text, {}))
    assert outcome == _general_outcome(text)


@pytest.mark.parametrize("text", ["cf(aleph(1))", "hilbert_card(aleph(aleph(w+1)))",
                                  "no_model_rule(aleph(1), aleph(1), aleph(w+1), aleph(2), aleph(3), aleph(4))"])
def test_parse_leaves_the_literal_table_as_a_statement_walk_does(text):
    """The literal table after ``parse`` holds what a walk from ``statement`` leaves: each value at
    the depth of a query argument."""
    parsed, walked = {}, {}
    parse(text, parsed)
    parser = dsl._Parser(text, dsl._split(text, dsl._LITERAL_TOKEN), walked)
    assert parser.statement() == parse(text)
    assert parsed == walked and parsed


def test_a_batch_parses_a_line_once_across_a_context_change(monkeypatch):
    """A line asked, then asked again after ``assume GCH``, is parsed once and evaluated twice, and
    its second record is the GCH answer."""
    line = "exp_lt(aleph(w), aleph(1))"
    lines = [line, "assume GCH", " " + line, "two_lt(aleph(1))", line]
    parsed, evaluated = [], []
    parse_line, exp_lt = evaluator.parse, arithmetic.exp_lt
    monkeypatch.setattr(evaluator, "parse", lambda text, *rest: parsed.append(text) or parse_line(text, *rest))
    monkeypatch.setattr(arithmetic, "exp_lt", lambda *args: evaluated.append(args) or exp_lt(*args))
    out = io.StringIO()
    assert run_batch(lines, EMPTY_CONTEXT, out, as_json=True) == 0
    assert parsed == [line, "assume GCH", "two_lt(aleph(1))"]
    assert len(evaluated) == 2
    records = [json.loads(record) for record in out.getvalue().splitlines()]
    assert [(r["query"], r["verdict"], r["value"], r["assumptions_used"]) for r in records] == [
        (line, "independent", "aleph(w)^<aleph(1)", []),
        (line, "determined", "aleph(w+1)", ["GCH"]),
        ("two_lt(aleph(1))", "determined", "aleph(1)", ["GCH"]),
        (line, "determined", "aleph(w+1)", ["GCH"]),
    ]
    monkeypatch.undo()
    _check_against_reference(lines, EMPTY_CONTEXT)


def test_a_batch_applies_a_repeated_assume_again_instead_of_replaying_it(monkeypatch):
    """An ``assume`` line changes the context, so a batch keeps its AST but not its records: asked
    again after ``assume GCH`` it is applied again, without being parsed again."""
    sch, query = "assume SCH(aleph(1), >= aleph(2))", "exp_lt(aleph(w), aleph(1))"
    lines = [sch, query, "assume GCH", query, sch, query]
    parsed, applied = [], []
    parse_line, apply_assumption = evaluator.parse, evaluator.apply_assumption
    monkeypatch.setattr(evaluator, "parse", lambda text, *rest: parsed.append(text) or parse_line(text, *rest))
    monkeypatch.setattr(evaluator, "apply_assumption",
                        lambda ctx, item: applied.append(format_statement(Assume(item))) or apply_assumption(ctx, item))
    out = io.StringIO()
    assert run_batch(lines, EMPTY_CONTEXT, out, as_json=True) == 0
    assert parsed == [sch, query, "assume GCH"]
    assert applied == [sch, "assume GCH", sch]
    records = [json.loads(record) for record in out.getvalue().splitlines()]
    assert [(r["query"], r["verdict"], r["value"], r["assumptions_used"]) for r in records] == [
        (query, "determined", "aleph(w+1)", ["SCH(aleph(1), >= aleph(2))"]),
        (query, "determined", "aleph(w+1)", ["GCH"]),
        (query, "determined", "aleph(w+1)", ["GCH"]),
    ]
    monkeypatch.undo()
    _check_against_reference(lines, EMPTY_CONTEXT)


def test_an_aleph_plus_an_aleph_is_the_larger_aleph():
    """``aleph(1)+aleph(2)`` is the ordinal aleph(2) + 0, which prints without its zero tail."""
    assert parse("aleph(1)+aleph(2)") == OrdinalLiteral(aleph(2), ORD_ZERO)
    results, _ = evaluate_line("aleph(1)+aleph(2)", EMPTY_CONTEXT)
    assert [(r.query, r.verdict, r.value) for r in results] == [("aleph(2)", "determined", "aleph(2)")]
