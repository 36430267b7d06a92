"""Command-line interface: one-shot eval, REPL, and batch processing.

Exit codes: 0 success, 1 query error, 2 usage error (also an unreadable or
non-UTF-8 batch file), 141 when the reader closes standard output early, as
in ``alephcalc batch FILE | head -1``; nothing is printed to stderr then.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import __version__
from .dsl import ParseError, parse_assumptions
from .evaluator import apply_assumption, evaluate_line, run_batch
from .hypotheses import EMPTY_CONTEXT

_ASSUME_HELP = (
    "comma list of DSL assumptions: GCH, V=L, sharp, no-sharp or SCH(mu, scope), "
    "e.g. 'gch,SCH(aleph(1), >= aleph(2))'"
)


def _cmd_eval(args, ctx, parser) -> int:
    results, _ = evaluate_line(args.expr, ctx)
    for result in results:
        sys.stdout.write((result.to_json_line() if args.json else result.pretty()) + "\n")
    return int(any(result.verdict == "error" for result in results))


def _cmd_repl(args, ctx, parser) -> int:
    print(f"alephcalc {__version__} — cardinal arithmetic under declared hypotheses")
    print("enter statements (e.g. 'assume GCH' or 'exp_lt(aleph(w), aleph(1))'); 'quit' to leave")
    while True:
        try:
            line = input("> ")
        except EOFError:
            print()
            return 0
        stripped = line.strip()
        if not stripped:
            continue
        if stripped in ("quit", "exit"):
            return 0
        # A line with no records, such as the ``context`` command, shows the context.
        results, ctx = ([], ctx) if stripped == "context" else evaluate_line(stripped, ctx)
        if not results:
            print(f"context: {ctx.describe()}")
        for result in results:
            print(result.pretty())


def _cmd_batch(args, ctx, parser) -> int:
    try:
        with open(args.file, encoding="utf-8-sig") as handle:
            lines = handle.readlines()
    except (OSError, UnicodeDecodeError) as err:
        parser.error(f"cannot read {args.file}: {err}")
    return run_batch(lines, ctx, sys.stdout, as_json=args.json)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="alephcalc",
        description="exact infinite-cardinal arithmetic under declared set-theoretic hypotheses",
    )
    parser.add_argument("--version", action="version", version=f"alephcalc {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="evaluate one statement (or ';'-separated session)")
    p_eval.add_argument("-e", "--expr", required=True, help="statement to evaluate")
    p_eval.add_argument("--assume", help=_ASSUME_HELP)
    p_eval.add_argument("--json", action="store_true", help="machine-readable one-line records")
    p_eval.set_defaults(func=_cmd_eval)

    p_repl = sub.add_parser("repl", help="interactive session")
    p_repl.add_argument("--assume", help=_ASSUME_HELP)
    p_repl.set_defaults(func=_cmd_repl)

    p_batch = sub.add_parser("batch", help="run a file of statements, one per line")
    p_batch.add_argument("file", help="input file; '#' lines are comments")
    p_batch.add_argument("--assume", help=_ASSUME_HELP)
    p_batch.add_argument("--json", action="store_true", help="machine-readable one-line records")
    p_batch.set_defaults(func=_cmd_batch)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    ctx = EMPTY_CONTEXT
    if args.assume:
        try:
            for item in parse_assumptions(args.assume):
                ctx = apply_assumption(ctx, item)
        except (ParseError, ValueError) as err:
            parser.error(f"--assume: {err}")
    try:
        return args.func(args, ctx, parser)
    except BrokenPipeError:
        # Later writes, and the interpreter's flush at exit, go to devnull instead of raising again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141  # 128 + SIGPIPE, the status a shell reports when SIGPIPE ends a writer
