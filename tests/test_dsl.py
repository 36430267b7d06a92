import io
import random
import re
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
from alephcalc.evaluator import QUERY_SIGNATURES
from alephcalc.hypotheses import AtLeast, ExplicitSet, UnboundedBelow
from alephcalc.ordinals import OMEGA, ORD_ONE, ORD_ZERO, cnf_add, from_int, omega_power

from conftest import random_statement

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

    def test_determinism(self):
        text = "assume GCH\nexp_lt(aleph(w), aleph(1))\ninternal_size(aleph(1), aleph(1), aleph(w+1))\n"
        assert self._run(text) == self._run(text)


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

    def test_batch_keeps_going_past_a_deep_line(self):
        out = io.StringIO()
        status = run_batch(["cf(aleph(1))", DEEP_TOWER, "cf(aleph(2))"], EMPTY_CONTEXT, out, as_json=True)
        records = out.getvalue().splitlines()
        assert status == 1
        assert len(records) == 3
        assert '"verdict": "error"' in records[1]

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
