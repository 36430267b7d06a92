import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from alephcalc import EMPTY_CONTEXT, run_batch

SRC = Path(__file__).resolve().parent.parent / "src"
DATA = Path(__file__).resolve().parent / "data"

def run_cli(*argv, input_text=None):
    return subprocess.run(
        [sys.executable, "-m", "alephcalc", *argv],
        capture_output=True,
        text=True,
        input=input_text,
        timeout=60,
    )


class TestEval:
    def test_determined_query(self):
        out = run_cli("eval", "-e", "exp_lt(aleph(w), aleph(1))", "--assume", "gch", "--json")
        assert out.returncode == 0
        record = json.loads(out.stdout)
        assert record["value"] == "aleph(w+1)"
        assert record["assumptions_used"] == ["GCH"]

    def test_sch_assume_flag(self):
        out = run_cli(
            "eval", "-e", "exp_lt(aleph(w+1), aleph(1))", "--assume", "SCH(aleph(1), >= aleph(2))", "--json"
        )
        assert out.returncode == 0
        record = json.loads(out.stdout)
        assert record["verdict"] == "determined"
        assert record["value"] == "aleph(w+1)"
        assert record["assumptions_used"] == ["SCH(aleph(1), >= aleph(2))"]

    def test_session_with_inline_assume(self):
        out = run_cli("eval", "-e", "assume V=L; shelah_card(aleph(1), aleph(w))", "--json")
        assert out.returncode == 0
        assert json.loads(out.stdout)["value"] == "1"

    def test_pretty_mode_default(self):
        out = run_cli("eval", "-e", "succ(aleph(0))")
        assert out.returncode == 0
        assert out.stdout.startswith("= aleph(1)")

    def test_query_error_exit_code(self):
        out = run_cli("eval", "-e", "cf(")
        assert out.returncode == 1

    def test_usage_error_exit_code(self):
        assert run_cli("eval").returncode == 2
        assert run_cli("nonsense").returncode == 2
        assert run_cli("eval", "-e", "cf(aleph(0))", "--assume", "zfc+").returncode == 2
        assert run_cli("eval", "-e", "cf(aleph(0))", "--assume", "v=l,sharp").returncode == 2
        assert run_cli("eval", "-e", "cf(aleph(0))", "--assume", "gch,").returncode == 2
        assert run_cli("eval", "-e", "cf(aleph(0))", "--assume", "SCH(aleph(w), >= aleph(w+1))").returncode == 2

    def test_an_empty_assume_flag_means_no_assumptions(self):
        for expr in ("two_lt(aleph(1))", "cf(oops"):
            plain = run_cli("eval", "-e", expr, "--json")
            empty = run_cli("eval", "-e", expr, "--json", "--assume", "")
            assert (empty.returncode, empty.stdout) == (plain.returncode, plain.stdout)

    def test_version(self):
        out = run_cli("--version")
        assert out.returncode == 0
        assert "alephcalc" in out.stdout


class TestBatch:
    def test_mixed_file(self, tmp_path):
        script = tmp_path / "session.acq"
        script.write_text("# demo\nassume GCH\nexp_lt(aleph(w), aleph(1))\ncf(aleph(aleph(1)))\n")
        out = run_cli("batch", str(script), "--json")
        assert out.returncode == 0
        lines = out.stdout.strip().splitlines()
        assert len(lines) == 2
        assert json.loads(lines[0])["value"] == "aleph(w+1)"
        assert json.loads(lines[1])["value"] == "aleph(1)"

    def test_error_line_gives_exit_one(self, tmp_path):
        script = tmp_path / "bad.acq"
        script.write_text("cf(aleph(0))\ncf(oops\ncf(aleph(1))\n")
        out = run_cli("batch", str(script), "--json")
        assert out.returncode == 1
        assert len(out.stdout.strip().splitlines()) == 3

    def test_text_mode(self, tmp_path):
        script = tmp_path / "s.acq"
        script.write_text("# c\nassume GCH\nexp_lt(aleph(w), aleph(1))\ncf(oops\n")
        out = run_cli("batch", str(script))
        assert out.returncode == 1
        assert out.stdout == (
            "exp_lt(aleph(w), aleph(1))\n= aleph(w+1)   [via GCH]\ncf(oops\nerror\n"
            "  error: syntax error at line 1, column 4: expected a number, w, aleph(...), inacc(...), found oops\n"
        )

    def test_missing_file_is_usage_error(self):
        assert run_cli("batch", "/nonexistent/x.acq").returncode == 2

    def test_a_file_that_is_not_utf8_is_a_usage_error(self, tmp_path):
        script = tmp_path / "latin.acq"
        script.write_bytes(b"cf(aleph(1))\n\xff\xfe\n")
        out = run_cli("batch", str(script))
        assert out.returncode == 2
        assert out.stdout == "" and f"cannot read {script}: 'utf-8' codec can't decode" in out.stderr
        assert "Traceback" not in out.stderr

    def test_a_byte_order_mark_at_the_start_of_a_file_is_not_read_as_text(self, tmp_path):
        plain, marked = tmp_path / "plain.acq", tmp_path / "marked.acq"
        plain.write_bytes(b"cf(aleph(1))\nassume GCH\nexp_lt(aleph(w), aleph(1))\n")
        marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        expected = run_cli("batch", str(plain), "--json")
        out = run_cli("batch", str(marked), "--json")
        assert (out.returncode, out.stdout, out.stderr) == (0, expected.stdout, "")
        assert json.loads(out.stdout.splitlines()[0])["query"] == "cf(aleph(1))"

    def test_a_reader_that_closes_early_gets_no_traceback(self, tmp_path):
        script = tmp_path / "big.acq"
        script.write_text("".join(f"cf(aleph({i}))\n" for i in range(20_000)))  # far more than a pipe holds
        proc = subprocess.Popen([sys.executable, "-m", "alephcalc", "batch", str(script), "--json"],
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        first = proc.stdout.readline()
        proc.stdout.close()
        _, err = proc.communicate(timeout=60)
        assert json.loads(first)["value"] == "aleph(0)"
        assert (proc.returncode, err) == (141, b"")

    def test_initial_assume_flag(self, tmp_path):
        script = tmp_path / "s.acq"
        script.write_text("two_lt(aleph(1))\n")
        out = run_cli("batch", str(script), "--json", "--assume", "gch")
        assert json.loads(out.stdout)["value"] == "aleph(1)"

    def test_an_empty_assume_flag_means_no_assumptions(self, tmp_path):
        script = tmp_path / "s.acq"
        script.write_text("two_lt(aleph(1))\nassume GCH\ntwo_lt(aleph(1))\ncf(oops\n")
        plain = run_cli("batch", str(script))
        empty = run_cli("batch", str(script), "--assume", "")
        assert (empty.returncode, empty.stdout) == (plain.returncode, plain.stdout)

    def test_byte_determinism(self, tmp_path):
        script = tmp_path / "s.acq"
        script.write_text(
            "assume GCH\ninternal_size(aleph(1), aleph(1), aleph(w+1))\nhilbert_card(aleph(w+1))\n"
        )
        first = run_cli("batch", str(script), "--json")
        second = run_cli("batch", str(script), "--json")
        assert first.stdout == second.stdout
        assert first.stdout.encode() == second.stdout.encode()

    @pytest.mark.parametrize("name", ["golden_session", "golden_vl_session"])
    def test_golden_sessions_in_text_mode(self, name):
        """The text-mode records of both golden sessions are frozen, in-process and through the CLI."""
        script = DATA / f"{name}.txt"
        expected = (DATA / f"{name}.expected.txt").read_bytes()
        out = io.StringIO()
        assert run_batch(script.read_text().splitlines(), EMPTY_CONTEXT, out, as_json=False) == 0
        assert out.getvalue().encode() == expected
        proc = subprocess.run([sys.executable, "-m", "alephcalc", "batch", str(script)], capture_output=True, timeout=60)
        assert (proc.returncode, proc.stdout) == (0, expected)


class TestRepl:
    def test_session(self):
        out = run_cli("repl", input_text="assume GCH\nexp_lt(aleph(w), aleph(1))\ncontext\nquit\n")
        assert out.returncode == 0
        assert "= aleph(w+1)" in out.stdout
        assert "context: GCH" in out.stdout

    def test_initial_assume_flag(self):
        out = run_cli("repl", "--assume", "gch", input_text="two_lt(aleph(1))\nquit\n")
        assert out.returncode == 0
        assert "= aleph(1)   [via GCH]\n" in out.stdout

    def test_a_bad_assume_flag_is_a_usage_error_before_the_banner(self):
        out = run_cli("repl", "--assume", "gch,", input_text="quit\n")
        assert (out.returncode, out.stdout) == (2, "")
        assert "--assume: " in out.stderr

    def test_a_redundant_assumption_still_echoes_the_context(self):
        out = run_cli("repl", input_text="assume GCH\nassume GCH\nquit\n")
        assert out.returncode == 0
        assert out.stdout.count("context: GCH\n") == 2


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    # Both cost milliseconds of every process's start; the CLI needs neither.
    code = "import sys, alephcalc.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    out = subprocess.run(
        [sys.executable, "-S", "-c", code],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    assert out.stdout == "[]\n"


@pytest.mark.parametrize("stmt, loaded", [
    ("cf(aleph(1))", []),
    ("exp_lt(aleph(w), aleph(1))", ["alephcalc.arithmetic"]),
    ("shelah_card(aleph(1), aleph(w+1))", ["alephcalc.spectra"]),
])
def test_an_eval_process_loads_only_the_entry_modules_its_statement_needs(stmt, loaded):
    # Every module an eval process imports is compiled in it when no bytecode is cached.
    code = ("import contextlib, io, sys, alephcalc.cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    status = alephcalc.cli.main(['eval', '-e', {stmt!r}, '--json'])\n"
            "names = {'alephcalc.arithmetic', 'alephcalc.sizes', 'alephcalc.spectra', 'json'}\n"
            "print(status, sorted(names & set(sys.modules)))")
    out = subprocess.run(
        [sys.executable, "-S", "-c", code],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    assert out.stdout == f"0 {loaded}\n"
