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

``parse`` reads an ``aleph(...)`` literal of at most four levels of
parentheses as one token and looks its value up by the literal's exact text
in a table the caller may keep across calls.  A line that does not parse so
is read again token by token, so its error does not depend on the table.
"""

from __future__ import annotations

import re
from collections import namedtuple
from collections.abc import Callable

from .cardinals import ALEPH0, IDENT, Aleph, CardinalAtom, CardinalExpr, card_compare, index_text, initial_ordinal
from .hypotheses import AtLeast, ExplicitSet, SchAssumption, SchScope, UnboundedBelow
from .ordinals import OMEGA, ORD_ONE, ORD_ZERO, CnfOrdinal, _LESS, _Record, _set, cnf_sum, from_int, omega_power

# Deeper input would exhaust the interpreter's stack in the engine or the
# formatter; a probe found both safe to about 160 levels of w^.
MAX_NESTING = 64
# Below int()'s 4300-digit string limit with room to spare, so that any sum
# of naturals written on one line still converts back to a string.
MAX_DIGITS = 4000
# An error names at most this many characters of the token it stopped at.
MAX_FOUND = 32


def _clip(token: str) -> str:
    """token as an error names it: at most MAX_FOUND characters, then '...' if it was longer."""
    return token if len(token) <= MAX_FOUND else token[:MAX_FOUND] + "..."


class ParseError(Exception):
    def __init__(self, line: int, col: int, expected: tuple[str, ...], found: str):
        self.line = line
        self.col = col
        self.expected = expected
        self.found = _clip(found)
        want = ", ".join(expected)
        super().__init__(f"syntax error at line {line}, column {col}: expected {want}, found {self.found}")


# --- AST ---------------------------------------------------------------------


class CardinalLiteral(_Record):
    __slots__ = ("value",)
    def __init__(self, value: CardinalExpr) -> None:
        _set(self, "value", value)


class OrdinalLiteral(_Record):
    __slots__ = ("base", "tail")
    def __init__(self, base: CardinalExpr | None, tail: CnfOrdinal) -> None:
        _set(self, "base", base)
        _set(self, "tail", tail)


class BoolLiteral(_Record):
    __slots__ = ("value",)
    def __init__(self, value: bool) -> None:
        _set(self, "value", value)


class Query(_Record):
    __slots__ = ("name", "args")
    def __init__(self, name: str, args: tuple["Ast", ...]) -> None:
        _set(self, "name", name)
        _set(self, "args", args)


class AssumeGch(_Record):
    __slots__ = ()


class AssumeVEqualsL(_Record):
    __slots__ = ()


class AssumeSharp(_Record):
    __slots__ = ("exists",)
    def __init__(self, exists: bool) -> None:
        _set(self, "exists", exists)


AssumeSch = SchAssumption

Assumption = AssumeGch | AssumeVEqualsL | AssumeSharp | AssumeSch


class Assume(_Record):
    __slots__ = ("item",)
    def __init__(self, item: Assumption) -> None:
        _set(self, "item", item)


class Session(_Record):
    __slots__ = ("items",)
    def __init__(self, items: tuple["Ast", ...]) -> None:
        _set(self, "items", items)


Ast = CardinalLiteral | OrdinalLiteral | BoolLiteral | Query | Assume | Session


# --- tokenizer ---------------------------------------------------------------


# kind is 'nat', 'ident', a symbol, or 'eof'; line and col count from 1.
Token = namedtuple("Token", ("kind", "text", "line", "col"))


_TOKEN = re.compile(r"\d+|" + IDENT.pattern + r"|>=|[-(){},;+*^=]|\S")
# The first character no token can start: one outside the token alphabet, or a '>' not before '='.
_BAD = re.compile(r"[^\w\s(){},;+*^=-](?<!>(?==))")
_SYMBOLS = frozenset(("(", ")", "{", "}", ",", ";", "+", "*", "^", "=", "-", ">="))
# parse()'s tokens: _TOKEN's, except that an aleph(...) literal of at most this many levels of
# parentheses is one token.
_LITERAL_LEVELS = 4


def _balanced(levels: int) -> str:
    r"""A pattern for text whose parentheses balance and nest at most ``levels`` deep.  Each level is
    unrolled as [^()]*(?:\( inner \)[^()]*)*, which matches a text one way only, so a literal that
    does not close costs time linear in what the pattern read."""
    return rf"[^()]*(?:\({_balanced(levels - 1)}\)[^()]*)*" if levels else "[^()]*"


_LITERAL_TOKEN = re.compile(rf"aleph\({_balanced(_LITERAL_LEVELS - 1)}\)|" + _TOKEN.pattern)


def _where(text: str, pos: int) -> tuple[int, int]:
    """Line and column of offset ``pos``; only an error and ``tokenize`` need them."""
    return text.count("\n", 0, pos) + 1, pos - text.rfind("\n", 0, pos)


def _split(text: str, pattern: re.Pattern[str] = _TOKEN) -> tuple[list[str], list[str]]:
    """Kinds ending in 'eof' and texts ending in "" of the tokens ``pattern`` finds in ``text``, one findall."""
    texts = pattern.findall(text)
    kinds = [word if word in _SYMBOLS else "nat" if word[0].isdecimal() else "ident" if word[-1] != ")"
             else "literal" for word in texts]
    kinds.append("eof")
    texts.append("")
    return kinds, texts


def _scan(text: str, pattern: re.Pattern[str] = _TOKEN) -> tuple[list[str], list[str]]:
    """``_split``, after one search for a bad character."""
    bad = _BAD.search(text)
    if bad:
        raise ParseError(*_where(text, bad.start()), ("a token",), repr(bad.group()))
    return _split(text, pattern)


def _starts(text: str) -> list[int]:
    """Start offsets of ``_scan``'s tokens, ending in ``len(text)``; only errors and ``tokenize`` need them."""
    return [m.start() for m in _TOKEN.finditer(text)] + [len(text)]


def tokenize(text: str) -> list[Token]:
    return [Token(kind, word, *_where(text, pos)) for kind, word, pos in zip(*_scan(text), _starts(text))]


# --- parser ------------------------------------------------------------------

# Identifiers that begin a cardinal term: aleph(...), inacc(...), aleph_N, aleph_w.
_CARDINAL_WORD = re.compile(r"aleph|inacc|aleph_(?:w|\d+)")

# The flag assumptions as the DSL writes them.  The parser finds one by its
# first word in any case, then expects the symbol and the word that follow it.
_FLAGS: dict[str, Assumption] = {
    "GCH": AssumeGch(), "V=L": AssumeVEqualsL(), "sharp": AssumeSharp(True), "no-sharp": AssumeSharp(False),
}
_FLAG_TEXT = {item: text for text, item in _FLAGS.items()}
_FLAG_WORDS = {first.lower(): (rest, item)
               for text, item in _FLAGS.items() for first, *rest in [re.split("([=-])", text)]}


class _Parser:
    """Reads the scanner's lists by index; ``pos`` is the index of the next token."""

    def __init__(self, text: str, tokens: tuple[list[str], list[str]],
                 literals: dict[str, tuple[Aleph, int]] | None = None):
        self.text = text
        self.kinds, self.texts = tokens
        self.pos = 0
        self.depth = 0
        self.literals = literals

    def fail(self, *expected: str, at: int | None = None) -> ParseError:
        if self.literals is not None:  # parse() reads the line again token by token for its error
            return ParseError(0, 0, expected, "")
        i = self.pos if at is None else at
        found = self.texts[i] if self.kinds[i] != "eof" else "end of input"
        return ParseError(*_where(self.text, _starts(self.text)[i]), expected, found)

    def expect(self, kind: str, what: str | None = None) -> int:
        i = self.pos
        if self.kinds[i] != kind:
            raise self.fail(what or repr(kind))
        self.pos = i + 1
        return i

    def accept(self, kind: str) -> bool:
        hit = self.kinds[self.pos] == kind
        self.pos += hit
        return hit

    def accept_word(self, *words: str) -> bool:
        """Consume the next token if it is an identifier among ``words`` in any case."""
        i = self.pos
        hit = self.kinds[i] == "ident" and self.texts[i].lower() in words
        self.pos = i + hit
        return hit

    def nat(self, i: int, start: int = 0) -> int:
        """The natural written by the digits ``texts[i][start:]``."""
        digits = self.texts[i][start:]
        if len(digits) > MAX_DIGITS:
            raise self.fail(f"a number of at most {MAX_DIGITS} digits", at=i)
        return int(digits)

    def nested(self, read: Callable[[], object]) -> object:
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
        if self.accept_word("assume"):
            return Assume(self.assumption())
        return self.arg()

    def assumption(self) -> Assumption:
        word = self.texts[self.pos].lower()  # only an identifier's text can be a word below
        if word == "sch":
            self.pos += 1
            self.expect("(")
            mu = self.cardinal_arg()
            self.expect(",")
            scope = self.scope()
            self.expect(")")
            return AssumeSch(mu, scope)
        if word not in _FLAG_WORDS:
            raise self.fail(*_FLAGS, "SCH")
        self.pos += 1
        rest, item = _FLAG_WORDS[word]
        if rest:  # e.g. ['=', 'L']
            self.expect(rest[0])
            if not self.accept_word(rest[1].lower()):
                raise self.fail(rest[1])
        return item

    def scope(self) -> SchScope:
        if self.accept(">="):
            return AtLeast(self.cardinal_arg())
        if self.accept_word("below"):
            return UnboundedBelow(self.cardinal_arg())
        if self.accept("{"):
            cards = [self.cardinal_arg()]
            while self.accept(","):
                cards.append(self.cardinal_arg())
            self.expect("}")
            return ExplicitSet(tuple(cards))
        raise self.fail("'>='", "below", "'{'")

    def cardinal_arg(self) -> CardinalExpr:
        node = self.index_expr()
        if isinstance(node, CardinalLiteral):
            return node.value
        raise self.fail("a cardinal expression")

    # arguments and literals

    def arg(self) -> Ast:
        i = self.pos
        if self.accept_word("true", "false"):
            return BoolLiteral(self.texts[i].lower() == "true")
        text = self.texts[i]
        if self.kinds[i] == "ident" and text != "w" and not _CARDINAL_WORD.fullmatch(text) and self.kinds[i + 1] == "(":
            self.pos = i + 2
            args = [self.nested(self.arg)]
            while self.accept(","):
                args.append(self.nested(self.arg))
            self.expect(")")
            return Query(text, tuple(args))
        return self.index_expr()

    def index_expr(self) -> CardinalLiteral | OrdinalLiteral:
        """Sum of index terms folded into (cardinal base, CNF tail)."""
        base: CardinalExpr | None = None
        terms: list[tuple[CnfOrdinal, int]] = []
        card: CardinalExpr | None = None
        count = 0
        while True:
            i = self.pos
            kind, text = self.kinds[i], self.texts[i]
            if kind == "nat":
                self.pos = i + 1
                terms.append((ORD_ZERO, self.nat(i)))
            elif kind == "ident" and text == "w":
                terms.append(self.omega_term())
            elif kind == "literal" or kind == "ident" and _CARDINAL_WORD.fullmatch(text):
                card = self.cardinal_primary()
                if card is ALEPH0:
                    # In a composite index aleph_0 contributes its initial
                    # ordinal w; standing alone it stays the cardinal.
                    terms.append((ORD_ONE, 1))
                else:
                    if base is not None and card_compare(base, card) is not _LESS:
                        raise self.fail("a cardinal term dominating the preceding ones", at=i)
                    base = card
                    terms = []
            else:
                raise self.fail("a number", "w", "aleph(...)", "inacc(...)")
            count += 1
            if not self.accept("+"):
                break
        if count == 1 and card is not None:
            return CardinalLiteral(card)
        return OrdinalLiteral(base, cnf_sum(*terms))

    def omega_term(self) -> tuple[CnfOrdinal, int]:
        self.pos += 1  # 'w'
        exp = ORD_ONE
        if self.accept("^"):
            exp = self.nested(self.exponent)
        coeff = 1
        if self.accept("*"):
            i = self.expect("nat", "a positive coefficient")
            coeff = self.nat(i)
            if coeff < 1:
                raise self.fail("a positive coefficient", at=i)
        return exp, coeff

    def exponent(self) -> CnfOrdinal:
        i = self.pos
        if self.kinds[i] == "nat":
            self.pos = i + 1
            return from_int(self.nat(i))
        if self.kinds[i] == "ident" and self.texts[i] == "w":
            self.pos = i + 1
            if self.accept("^"):
                return omega_power(self.nested(self.exponent))
            return OMEGA
        if self.accept("("):
            node = self.nested(self.index_expr)
            if not isinstance(node, OrdinalLiteral) or node.base is not None:
                raise self.fail("an ordinal exponent")
            self.expect(")")
            return node.tail
        raise self.fail("a number", "w", "'('")

    def cardinal_primary(self) -> CardinalExpr:
        i = self.pos
        self.pos = i + 1
        kind, text = self.kinds[i], self.texts[i]
        if kind == "literal":
            # literals maps an aleph(...) token's text to its value and the deepest depth it parsed
            # at, for 4,096 literals at most.  As in a packrat parser (Ford, ICFP 2002), a hit skips
            # the parse: a literal parses alike at any depth up to one it parsed at, since the only
            # depth check, in nested(), is monotone.  A miss parses the text inside the parentheses,
            # which parse() already searched for bad characters, in place of the line's tokens.
            hit = self.literals.get(text)
            if hit is not None and self.depth <= hit[1]:
                return hit[0]
            outer = self.kinds, self.texts
            self.kinds, self.texts = _split(text[len("aleph("):-1], _LITERAL_TOKEN)
            self.pos = 0
            inner = self.nested(self.index_expr)
            self.expect("eof")
            self.kinds, self.texts = outer
            self.pos = i + 1
        elif text == "inacc":
            self.expect("(")
            name = self.texts[self.expect("ident", "an atom name")]
            self.expect(")")
            return CardinalAtom(name, weakly_inaccessible=True)
        elif text == "aleph_w":
            return Aleph(None, OMEGA)
        elif text != "aleph":  # aleph_N
            return Aleph(None, from_int(self.nat(i, len("aleph_"))))
        else:
            self.expect("(")
            inner = self.nested(self.index_expr)
            self.expect(")")
        if isinstance(inner, CardinalLiteral):
            base, tail = initial_ordinal(inner.value)
        else:
            base, tail = inner.base, inner.tail
        if isinstance(base, CardinalAtom):
            raise self.fail("an aleph index (atoms are their own fixed points)", at=i)
        value = Aleph(base, tail)
        if kind == "literal" and (hit is not None or len(self.literals) < 4096):
            self.literals[text] = (value, self.depth)
        return value


def parse(text: str, literals: dict[str, tuple[Aleph, int]] | None = None) -> Ast:
    """The AST of ``text``.  ``literals`` is a table of aleph(...) values the caller keeps across
    calls, empty at first; without one the call uses a fresh table.  The result does not depend on
    the table: each aleph(...) literal of at most four levels of parentheses is one token, looked up
    by its exact text.  A line that does not parse so is read again token by token, which raises its
    error with the message, line and column of a token-level parse."""
    tokens = _scan(text, _LITERAL_TOKEN)
    try:
        return _Parser(text, tokens, {} if literals is None else literals).session()
    except ParseError:
        return _Parser(text, _split(text)).session()


def parse_assumptions(text: str) -> tuple[Assumption, ...]:
    """A comma-separated list of assumptions, e.g. ``gch,SCH(aleph(1), >= aleph(2))``."""
    parser = _Parser(text, _scan(text))
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
        return index_text(ast.base, ast.tail)
    if isinstance(ast, BoolLiteral):
        return "true" if ast.value else "false"
    if isinstance(ast, Query):
        return f"{ast.name}({', '.join(format_statement(a) for a in ast.args)})"
    if isinstance(ast, Assume):
        return f"assume {_FLAG_TEXT.get(ast.item) or ast.item.describe()}"
    if isinstance(ast, Session):
        return "; ".join(format_statement(item) for item in ast.items)
    raise TypeError(f"not an AST node: {ast!r}")
