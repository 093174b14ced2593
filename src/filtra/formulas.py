"""Propositional formulas over a declared, finite atom set.

The abstract syntax keeps only negation and disjunction.  The surface
grammar also accepts ``&``, ``->`` and ``<->``, which are desugared at
parse time, so everything downstream pattern-matches on exactly three
node kinds.

Grammar (loosest to tightest binding)::

    iff  := imp ('<->' iff)?          right associative
    imp  := or  ('->' imp)?           right associative
    or   := and ('|' and)*
    and  := neg ('&' neg)*
    neg  := '~' neg | atom | '(' iff ')'

Atom names are identifiers: a letter followed by letters, digits or
underscores.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, Union

ATOM_NAME = re.compile(r"[A-Za-z][A-Za-z0-9_]*")


class FormulaError(ValueError):
    """Base class for errors raised while building formulas."""


class FormulaSyntaxError(FormulaError):
    """Malformed formula text.  ``position`` is a 1-based column."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (column {position})")
        self.position = position


class UnknownAtomError(FormulaError):
    """A formula mentions an atom outside the declared atom set."""

    def __init__(self, name: str, position: int | None = None):
        where = "" if position is None else f" (column {position})"
        super().__init__(f"unknown atom {name!r}{where}")
        self.name = name
        self.position = position


@dataclass(frozen=True)
class Atom:
    name: str


@dataclass(frozen=True)
class Not:
    operand: "Formula"


@dataclass(frozen=True)
class Or:
    left: "Formula"
    right: "Formula"


Formula = Union[Atom, Not, Or]


def conj(left: Formula, right: Formula) -> Formula:
    """left & right, as ~(~left | ~right)."""
    return Not(Or(Not(left), Not(right)))


def implies(left: Formula, right: Formula) -> Formula:
    """left -> right, as ~left | right."""
    return Or(Not(left), right)


def iff(left: Formula, right: Formula) -> Formula:
    """left <-> right, as (left -> right) & (right -> left)."""
    return conj(implies(left, right), implies(right, left))


def print_formula(formula: Formula) -> str:
    """Fully parenthesized canonical text.

    ``parse_formula(print_formula(f), atoms)`` is structurally equal
    to ``f`` for any atom set covering the formula.  The text is the
    desugared tree, so a ``<->`` chain's text doubles per ``<->``.  A
    formula nested too deeply for the recursion raises FormulaError.
    """
    try:
        return _print(formula)
    except RecursionError:
        raise FormulaError("formula nested too deeply to print") from None


def _print(formula: Formula) -> str:
    if isinstance(formula, Atom):
        return formula.name
    if isinstance(formula, Not):
        return f"(~{_print(formula.operand)})"
    return f"({_print(formula.left)} | {_print(formula.right)})"


_TOKEN_RE = re.compile(
    r"\s*(?:(?P<atom>[A-Za-z][A-Za-z0-9_]*)|(?P<op><->|->|[~&|()]))"
)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    # (kind, lexeme, 1-based column)
    tokens = []
    pos = 0
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if match is None:
            rest = text[pos:].lstrip()
            if not rest:
                break
            column = len(text) - len(rest) + 1
            raise FormulaSyntaxError(f"unexpected character {rest[0]!r}", column)
        if match.group("atom") is not None:
            tokens.append(("atom", match.group("atom"), match.start("atom") + 1))
        else:
            op = match.group("op")
            tokens.append((op, op, match.start("op") + 1))
        pos = match.end()
    tokens.append(("end", "", len(text) + 1))
    return tokens


class _Parser:
    def __init__(self, text: str, atoms: frozenset[str]):
        self.tokens = _tokenize(text)
        self.atoms = atoms
        self.index = 0

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.index]

    def advance(self) -> tuple[str, str, int]:
        token = self.tokens[self.index]
        self.index += 1
        return token

    def expect(self, kind: str) -> tuple[str, str, int]:
        token = self.peek()
        if token[0] != kind:
            raise FormulaSyntaxError(
                f"expected {kind!r}, found {token[1] or 'end of input'!r}", token[2]
            )
        return self.advance()

    def parse(self) -> Formula:
        formula = self.iff()
        kind, lexeme, column = self.peek()
        if kind != "end":
            raise FormulaSyntaxError(f"unexpected {lexeme!r}", column)
        return formula

    def iff(self) -> Formula:
        left = self.imp()
        if self.peek()[0] == "<->":
            self.advance()
            return iff(left, self.iff())
        return left

    def imp(self) -> Formula:
        left = self.disjunction()
        if self.peek()[0] == "->":
            self.advance()
            return implies(left, self.imp())
        return left

    def disjunction(self) -> Formula:
        left = self.conjunction()
        while self.peek()[0] == "|":
            self.advance()
            left = Or(left, self.conjunction())
        return left

    def conjunction(self) -> Formula:
        left = self.negation()
        while self.peek()[0] == "&":
            self.advance()
            left = conj(left, self.negation())
        return left

    def negation(self) -> Formula:
        kind, _, _ = self.peek()
        if kind == "~":
            self.advance()
            return Not(self.negation())
        return self.primary()

    def primary(self) -> Formula:
        kind, lexeme, column = self.advance()
        if kind == "atom":
            if lexeme not in self.atoms:
                raise UnknownAtomError(lexeme, column)
            return Atom(lexeme)
        if kind == "(":
            inner = self.iff()
            self.expect(")")
            return inner
        raise FormulaSyntaxError(
            f"expected an atom, '~' or '(', found {lexeme or 'end of input'!r}", column
        )


def parse_formula(text: str, atoms: Iterable[str]) -> Formula:
    """Parse ``text`` against the declared atom set.

    Raises FormulaSyntaxError on malformed input, text nested too
    deeply for the recursive descent included, and UnknownAtomError
    when the text mentions an undeclared atom; both carry the column.
    """
    try:
        return _Parser(text, frozenset(atoms)).parse()
    except RecursionError:
        raise FormulaSyntaxError("formula nested too deeply to parse", 1) from None
