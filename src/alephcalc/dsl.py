"""Surface syntax for cardinals, ordinals, assumptions, and queries.

Index grammar (precedence ^ > * > +), longest-match tokenisation::

    statement := 'assume' assumption | query | literal
    assumption:= 'GCH' | 'V=L' | 'sharp' | 'no-sharp'
               | 'SCH' '(' cardinal ',' scope ')'
    scope     := '>=' cardinal | 'below' cardinal
               | '{' cardinal (',' cardinal)* '}'
    query     := NAME '(' arg (',' arg)* ')'
    arg       := 'true' | 'false' | index
    literal   := index
    index     := term ('+' term)*
    term      := 'w' ['^' exponent] ['*' NAT] | NAT | cardinal
    exponent  := NAT | 'w' ['^' exponent] | '(' index ')'   -- no cardinals
    cardinal  := 'aleph' '(' index ')' | 'aleph_0' | 'aleph_1' | 'aleph_w'
               | 'inacc' '(' NAME ')'

A cardinal term must dominate everything before it in an index sum (ordinal
absorption); ``aleph(0)`` in index position contributes the ordinal ``w``.
``parse(format(ast)) == ast`` for canonical ASTs.  ``parse_assumptions``
reads ``assumption (',' assumption)*``, the form the CLI's ``--assume`` takes.

A NAT is a run of decimal digits, at most ``MAX_DIGITS`` long.  Nesting is
bounded: ``aleph(...)``, a query's argument list, a parenthesised exponent
and each ``^`` of an exponent tower are one level each, and at most
``MAX_NESTING`` levels may be open at once.  ``tokenize``, ``parse`` and
``parse_assumptions`` raise nothing but ``ParseError`` on any string, so a
malformed line always becomes a ``syntax error`` record, never a crash.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Callable, NamedTuple, TypeVar, Union

from .cardinals import ALEPH0, Aleph, CardinalAtom, CardinalExpr, card_compare
from .hypotheses import AtLeast, ExplicitSet, SchAssumption, SchScope, UnboundedBelow
from .ordinals import OMEGA, ORD_ONE, ORD_ZERO, CnfOrdinal, Ordering, cnf_add, from_int, omega_power

# Deeper input would exhaust the interpreter's stack in the engine or the
# formatter; a probe found both safe to about 160 levels of w^.
MAX_NESTING = 64
# Below int()'s 4300-digit string limit with room to spare, so that any sum
# of naturals written on one line still converts back to a string.
MAX_DIGITS = 4000
# An error names at most this many characters of the token it stopped at.
MAX_FOUND = 32

T = TypeVar("T")


class ParseError(Exception):
    def __init__(self, line: int, col: int, expected: tuple[str, ...], found: str):
        self.line = line
        self.col = col
        self.expected = expected
        self.found = found if len(found) <= MAX_FOUND else found[:MAX_FOUND] + "..."
        want = ", ".join(expected)
        super().__init__(f"syntax error at line {line}, column {col}: expected {want}, found {self.found}")


# --- AST ---------------------------------------------------------------------


@dataclass(frozen=True)
class CardinalLiteral:
    value: CardinalExpr


@dataclass(frozen=True)
class OrdinalLiteral:
    base: CardinalExpr | None
    tail: CnfOrdinal


@dataclass(frozen=True)
class BoolLiteral:
    value: bool


@dataclass(frozen=True)
class Query:
    name: str
    args: tuple["Ast", ...]


@dataclass(frozen=True)
class AssumeGch:
    pass


@dataclass(frozen=True)
class AssumeVEqualsL:
    pass


@dataclass(frozen=True)
class AssumeSharp:
    exists: bool


AssumeSch = SchAssumption

Assumption = Union[AssumeGch, AssumeVEqualsL, AssumeSharp, AssumeSch]


@dataclass(frozen=True)
class Assume:
    item: Assumption


@dataclass(frozen=True)
class Session:
    items: tuple["Ast", ...]


Ast = Union[CardinalLiteral, OrdinalLiteral, BoolLiteral, Query, Assume, Session]


# --- tokenizer ---------------------------------------------------------------


class Token(NamedTuple):
    kind: str  # 'nat', 'ident', a symbol, or 'eof'
    text: str
    line: int
    col: int


_SCANNER = re.compile(
    r"(?P<nat>\d+)|(?P<ident>[^\W\d]\w*)|(?P<symbol>>=|[-(){},;+*^=])"
    r"|(?P<newline>\n)|(?P<space>[^\S\n]+)|(?P<bad>.)"
)


def tokenize(text: str) -> list[Token]:
    tokens: list[Token] = []
    line, line_start = 1, 0
    for m in _SCANNER.finditer(text):
        kind = m.lastgroup
        if kind == "space":
            continue
        if kind == "newline":
            line += 1
            line_start = m.end()
            continue
        word = m.group()
        col = m.start() - line_start + 1
        if kind == "bad":
            raise ParseError(line, col, ("a token",), repr(word))
        tokens.append(Token(word if kind == "symbol" else kind, word, line, col))
    tokens.append(Token("eof", "", line, len(text) - line_start + 1))
    return tokens


# --- parser ------------------------------------------------------------------

# Identifiers that begin a cardinal term: aleph(...), inacc(...), aleph_N, aleph_w.
_CARDINAL_WORD = re.compile(r"aleph|inacc|aleph_(?:w|\d+)")


class _Parser:
    def __init__(self, text: str):
        self.tokens = tokenize(text)
        self.pos = 0
        self.depth = 0

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def fail(self, *expected: str) -> ParseError:
        tok = self.peek()
        found = tok.text if tok.kind != "eof" else "end of input"
        return ParseError(tok.line, tok.col, expected, found)

    def expect(self, kind: str, what: str | None = None) -> Token:
        if self.peek().kind != kind:
            raise self.fail(what or repr(kind))
        return self.advance()

    def accept(self, kind: str) -> Token | None:
        if self.peek().kind == kind:
            return self.advance()
        return None

    def at_keyword(self, *words: str) -> bool:
        tok = self.peek()
        return tok.kind == "ident" and tok.text.lower() in words

    def expect_word(self, word: str) -> None:
        if not self.at_keyword(word.lower()):
            raise self.fail(word)
        self.advance()

    def nat(self, tok: Token, start: int = 0) -> int:
        """The natural written by the digits ``tok.text[start:]``."""
        digits = tok.text[start:]
        if len(digits) > MAX_DIGITS:
            raise ParseError(tok.line, tok.col, (f"a number of at most {MAX_DIGITS} digits",), tok.text)
        return int(digits)

    def nested(self, read: Callable[[], T]) -> T:
        """``read()`` one nesting level deeper, failing at its first token past the bound."""
        if self.depth == MAX_NESTING:
            raise self.fail(f"at most {MAX_NESTING} levels of nesting")
        self.depth += 1
        value = read()
        self.depth -= 1
        return value

    # statements

    def session(self) -> Ast:
        items = [self.statement()]
        while self.accept(";"):
            items.append(self.statement())
        self.expect("eof", "';' or end of input")
        return items[0] if len(items) == 1 else Session(tuple(items))

    def statement(self) -> Ast:
        if self.at_keyword("assume"):
            self.advance()
            return Assume(self.assumption())
        return self.arg()

    def assumption(self) -> Assumption:
        tok = self.peek()
        if tok.kind != "ident":
            raise self.fail("GCH", "V=L", "sharp", "no-sharp", "SCH")
        word = tok.text.lower()
        if word == "gch":
            self.advance()
            return AssumeGch()
        if word == "v":
            self.advance()
            self.expect("=", "'='")
            self.expect_word("L")
            return AssumeVEqualsL()
        if word == "sharp":
            self.advance()
            return AssumeSharp(True)
        if word == "no":
            self.advance()
            self.expect("-", "'-'")
            self.expect_word("sharp")
            return AssumeSharp(False)
        if word == "sch":
            self.advance()
            self.expect("(", "'('")
            mu = self.cardinal_arg()
            self.expect(",", "','")
            scope = self.scope()
            self.expect(")", "')'")
            return AssumeSch(mu, scope)
        raise self.fail("GCH", "V=L", "sharp", "no-sharp", "SCH")

    def scope(self) -> SchScope:
        if self.accept(">="):
            return AtLeast(self.cardinal_arg())
        if self.at_keyword("below"):
            self.advance()
            return UnboundedBelow(self.cardinal_arg())
        if self.accept("{"):
            cards = [self.cardinal_arg()]
            while self.accept(","):
                cards.append(self.cardinal_arg())
            self.expect("}", "'}'")
            return ExplicitSet(tuple(cards))
        raise self.fail("'>='", "below", "'{'")

    def cardinal_arg(self) -> CardinalExpr:
        node = self.index_expr()
        if isinstance(node, CardinalLiteral):
            return node.value
        raise self.fail("a cardinal expression")

    # arguments and literals

    def arg(self) -> Ast:
        if self.at_keyword("true"):
            self.advance()
            return BoolLiteral(True)
        if self.at_keyword("false"):
            self.advance()
            return BoolLiteral(False)
        tok = self.peek()
        if tok.kind == "ident" and tok.text != "w" and not _CARDINAL_WORD.fullmatch(tok.text):
            nxt = self.tokens[self.pos + 1]
            if nxt.kind == "(":
                return self.query(tok)
        return self.index_expr()

    def query(self, name_tok: Token) -> Query:
        self.advance()
        self.expect("(", "'('")
        args = [self.nested(self.arg)]
        while self.accept(","):
            args.append(self.nested(self.arg))
        self.expect(")", "')'")
        return Query(name_tok.text, tuple(args))

    def index_expr(self) -> CardinalLiteral | OrdinalLiteral:
        """Sum of index terms folded into (cardinal base, CNF tail)."""
        base: CardinalExpr | None = None
        tail = ORD_ZERO
        single_cardinal: CardinalExpr | None = None
        first = True
        while True:
            tok = self.peek()
            if tok.kind == "nat":
                self.advance()
                tail = cnf_add(tail, from_int(self.nat(tok)))
                single_cardinal = None
            elif tok.kind == "ident" and tok.text == "w":
                tail = cnf_add(tail, self.omega_term())
                single_cardinal = None
            elif tok.kind == "ident" and _CARDINAL_WORD.fullmatch(tok.text):
                card = self.cardinal_primary()
                if card == ALEPH0:
                    # In a composite index aleph_0 contributes its initial
                    # ordinal w; standing alone it stays the cardinal.
                    tail = cnf_add(tail, OMEGA)
                    single_cardinal = card if first else None
                else:
                    if base is not None and card_compare(base, card) is not Ordering.LESS:
                        raise ParseError(
                            tok.line, tok.col,
                            ("a cardinal term dominating the preceding ones",), tok.text,
                        )
                    base = card
                    tail = ORD_ZERO
                    single_cardinal = card if first else None
            else:
                raise self.fail("a number", "w", "aleph(...)", "inacc(...)")
            first = False
            if not self.accept("+"):
                break
        if single_cardinal is not None:
            return CardinalLiteral(single_cardinal)
        return OrdinalLiteral(base, tail)

    def omega_term(self) -> CnfOrdinal:
        self.advance()  # 'w'
        exp = ORD_ONE
        if self.accept("^"):
            exp = self.nested(self.exponent)
        coeff = 1
        if self.accept("*"):
            tok = self.expect("nat", "a positive coefficient")
            coeff = self.nat(tok)
            if coeff < 1:
                raise ParseError(tok.line, tok.col, ("a positive coefficient",), tok.text)
        return omega_power(exp, coeff)

    def exponent(self) -> CnfOrdinal:
        tok = self.peek()
        if tok.kind == "nat":
            self.advance()
            return from_int(self.nat(tok))
        if tok.kind == "ident" and tok.text == "w":
            self.advance()
            if self.accept("^"):
                return omega_power(self.nested(self.exponent))
            return OMEGA
        if self.accept("("):
            node = self.nested(self.index_expr)
            if not isinstance(node, OrdinalLiteral) or node.base is not None:
                raise self.fail("an ordinal exponent")
            self.expect(")", "')'")
            return node.tail
        raise self.fail("a number", "w", "'('")

    def cardinal_primary(self) -> CardinalExpr:
        tok = self.advance()
        if tok.text == "inacc":
            self.expect("(", "'('")
            name = self.expect("ident", "an atom name")
            self.expect(")", "')'")
            return CardinalAtom(name.text, weakly_inaccessible=True)
        if tok.text == "aleph_w":
            return Aleph(None, OMEGA)
        if tok.text != "aleph":  # aleph_N
            return Aleph(None, from_int(self.nat(tok, len("aleph_"))))
        self.expect("(", "'('")
        inner = self.nested(self.index_expr)
        self.expect(")", "')'")
        if isinstance(inner, CardinalLiteral):
            base, tail = (None, OMEGA) if inner.value == ALEPH0 else (inner.value, ORD_ZERO)
        else:
            base, tail = inner.base, inner.tail
        if isinstance(base, CardinalAtom):
            raise ParseError(tok.line, tok.col, ("an aleph index (atoms are their own fixed points)",), tok.text)
        return Aleph(base, tail)


def parse(text: str) -> Ast:
    return _Parser(text).session()


def parse_assumptions(text: str) -> tuple[Assumption, ...]:
    """A comma-separated list of assumptions, e.g. ``gch,SCH(aleph(1), >= aleph(2))``."""
    parser = _Parser(text)
    items = [parser.assumption()]
    while parser.accept(","):
        items.append(parser.assumption())
    parser.expect("eof", "',' or end of input")
    return tuple(items)


# --- canonical formatting -----------------------------------------------------


def format_statement(ast: Ast) -> str:
    if isinstance(ast, CardinalLiteral):
        return str(ast.value)
    if isinstance(ast, OrdinalLiteral):
        if ast.base is None:
            return str(ast.tail)
        if ast.tail.is_zero:
            return str(ast.base)
        return f"{ast.base}+{ast.tail}"
    if isinstance(ast, BoolLiteral):
        return "true" if ast.value else "false"
    if isinstance(ast, Query):
        return f"{ast.name}({', '.join(format_statement(a) for a in ast.args)})"
    if isinstance(ast, Assume):
        return f"assume {_format_assumption(ast.item)}"
    if isinstance(ast, Session):
        return "; ".join(format_statement(item) for item in ast.items)
    raise TypeError(f"not an AST node: {ast!r}")


def _format_assumption(item: Assumption) -> str:
    if isinstance(item, AssumeGch):
        return "GCH"
    if isinstance(item, AssumeVEqualsL):
        return "V=L"
    if isinstance(item, AssumeSharp):
        return "sharp" if item.exists else "no-sharp"
    return item.describe()
