"""Textual parser for datalog programs.

Supported syntax (a superset of the examples in the paper, e.g. Example 2.1)::

    Italic(X) :- label_i(X).
    Italic(X) :- Italic(X0), firstchild(X0, X).
    Italic(X) :- Italic(X0), nextsibling(X0, X).

* ``:-`` and the arrow ``<-`` are both accepted as the rule separator.
* Identifiers starting with an uppercase letter or ``_`` are variables;
  everything else (including quoted strings and numbers) is a constant.
* ``not`` or ``!`` in front of a body atom negates it.
* ``%`` and ``#`` start line comments.
"""

from __future__ import annotations

import re
from typing import FrozenSet, Iterable, List, NamedTuple, Optional

from .ast import Atom, Constant, Literal, Program, Rule, Span, Term, Variable, set_span


class DatalogSyntaxError(ValueError):
    """Raised when a program text cannot be parsed.

    Carries the 1-based source position (``line``, ``column``) when the
    failure can be localised, so tooling (:mod:`repro.analysis`) can point
    at the offending rule text.
    """

    def __init__(
        self,
        message: str,
        line: Optional[int] = None,
        column: Optional[int] = None,
    ) -> None:
        if line is not None:
            message = f"{message} (line {line}, col {column})"
        super().__init__(message)
        self.line = line
        self.column = column


_TOKEN_PATTERN = re.compile(
    r"""
    (?P<WS>\s+)
  | (?P<COMMENT>[%#][^\n]*)
  | (?P<ARROW>:-|<-|←)
  | (?P<LPAREN>\()
  | (?P<RPAREN>\))
  | (?P<COMMA>,)
  | (?P<DOT>\.)
  | (?P<NOT>\bnot\b|!)
  | (?P<STRING>"(?:[^"\\]|\\.)*"|'(?:[^'\\]|\\.)*')
  | (?P<NUMBER>-?\d+(?:\.\d+)?)
  | (?P<NAME>[A-Za-z_][A-Za-z0-9_\-*+]*)
    """,
    re.VERBOSE,
)


#: The escapes ``repr`` writes into a ``str`` literal (``Constant.__str__``
#: prints string constants with ``repr``).  The trailing ``?`` lets a
#: backslash followed by anything else match on its own, so it is reported.
_ESCAPE = re.compile(r"\\(?:([\\'\"nrt])|x([0-9a-fA-F]{2})|u([0-9a-fA-F]{4})|U([0-9a-fA-F]{8}))?")
_SIMPLE_ESCAPES = {"\\": "\\", "'": "'", '"': '"', "n": "\n", "r": "\r", "t": "\t"}


class Token(NamedTuple):
    kind: str
    value: str
    line: int  # 1-based
    column: int  # 1-based


def _tokenize(text: str) -> List[Token]:
    tokens: List[Token] = []
    position = 0
    line = 1
    line_start = 0
    while position < len(text):
        match = _TOKEN_PATTERN.match(text, position)
        if match is None:
            raise DatalogSyntaxError(
                f"unexpected character {text[position]!r}",
                line,
                position - line_start + 1,
            )
        kind = match.lastgroup or ""
        value = match.group()
        token_line, token_column = line, position - line_start + 1
        newlines = value.count("\n")
        if newlines:
            line += newlines
            line_start = position + value.rindex("\n") + 1
        position = match.end()
        if kind in ("WS", "COMMENT"):
            continue
        tokens.append(Token(kind, value, token_line, token_column))
    return tokens


class _TokenStream:
    def __init__(self, tokens: List[Token]) -> None:
        self._tokens = tokens
        self._position = 0

    def peek(self) -> Optional[Token]:
        if self._position < len(self._tokens):
            return self._tokens[self._position]
        return None

    def last(self) -> Optional[Token]:
        if self._position:
            return self._tokens[self._position - 1]
        return None

    def next(self) -> Token:
        token = self.peek()
        if token is None:
            last = self.last()
            raise DatalogSyntaxError(
                "unexpected end of input",
                last.line if last else None,
                last.column if last else None,
            )
        self._position += 1
        return token

    def expect(self, kind: str) -> str:
        token = self.next()
        if token.kind != kind:
            raise DatalogSyntaxError(
                f"expected {kind}, found {token.value!r}", token.line, token.column
            )
        return token.value

    def at_end(self) -> bool:
        return self._position >= len(self._tokens)


def _decode_string(token: Token) -> str:
    """The value of a STRING token: its quotes stripped, its escapes decoded."""
    text = token.value

    def decode(match: "re.Match[str]") -> str:
        simple, *hexadecimal = match.groups()
        if simple is not None:
            return _SIMPLE_ESCAPES[simple]
        digits = next((group for group in hexadecimal if group is not None), None)
        if digits is not None and int(digits, 16) <= 0x10FFFF:
            return chr(int(digits, 16))
        # Locate the backslash (``match`` indexes the unquoted body).
        offset = match.start() + 1
        line_start = text.rfind("\n", 0, offset)
        shown = match.group() if digits is not None else text[offset : offset + 2]
        raise DatalogSyntaxError(
            f"invalid escape {shown!r} in string",
            token.line + text.count("\n", 0, offset),
            token.column + offset if line_start < 0 else offset - line_start,
        )

    return _ESCAPE.sub(decode, text[1:-1])


def _parse_term(stream: _TokenStream) -> Term:
    token = stream.next()
    kind, value = token.kind, token.value
    if kind == "STRING":
        return Constant(_decode_string(token))
    if kind == "NUMBER":
        number = float(value)
        if number.is_integer():
            return Constant(int(number))
        return Constant(number)
    if kind == "NAME":
        if value[0].isupper() or value[0] == "_":
            return Variable(value)
        return Constant(value)
    raise DatalogSyntaxError(
        f"expected a term, found {value!r}", token.line, token.column
    )


def _parse_atom(stream: _TokenStream) -> Atom:
    predicate = stream.expect("NAME")
    terms: List[Term] = []
    token = stream.peek()
    if token is not None and token[0] == "LPAREN":
        stream.next()
        token = stream.peek()
        if token is not None and token[0] != "RPAREN":
            terms.append(_parse_term(stream))
            while stream.peek() is not None and stream.peek()[0] == "COMMA":
                stream.next()
                terms.append(_parse_term(stream))
        stream.expect("RPAREN")
    return Atom(predicate, tuple(terms))


def _parse_literal(stream: _TokenStream) -> Literal:
    token = stream.peek()
    negated = False
    if token is not None and token[0] == "NOT":
        stream.next()
        negated = True
    return Literal(_parse_atom(stream), negated=negated)


def _parse_rule(stream: _TokenStream) -> Rule:
    start = stream.peek()
    head = _parse_atom(stream)
    token = stream.peek()
    body: List[Literal] = []
    if token is not None and token[0] == "ARROW":
        stream.next()
        body.append(_parse_literal(stream))
        while stream.peek() is not None and stream.peek()[0] == "COMMA":
            stream.next()
            body.append(_parse_literal(stream))
    stream.expect("DOT")
    rule = Rule(head, tuple(body))
    end = stream.last()
    if start is not None and end is not None:
        set_span(rule, Span(start.line, start.column, end.line, end.column))
    return rule


def parse_rules(text: str) -> List[Rule]:
    """Parse a sequence of rules/facts from program text."""
    stream = _TokenStream(_tokenize(text))
    rules: List[Rule] = []
    while not stream.at_end():
        rules.append(_parse_rule(stream))
    return rules


def parse_program(
    text: str,
    edb_predicates: Iterable[str] = (),
) -> Program:
    """Parse program text into a :class:`Program`.

    ``edb_predicates`` declares the extensional predicates; when omitted,
    every predicate that never occurs in a rule head is treated as EDB.
    """
    rules = parse_rules(text)
    declared: FrozenSet[str] = frozenset(edb_predicates)
    if not declared:
        heads = {rule.head.predicate for rule in rules}
        body_predicates = {
            literal.atom.predicate for rule in rules for literal in rule.body
        }
        declared = frozenset(body_predicates - heads)
    return Program(rules=rules, edb_predicates=declared)
