"""Parser and evaluator for polynomial component expressions.

Metric and structure components in configuration files are written as
strings in the coordinates ``x1 .. x<dim>`` using ``+ - * / ^`` and
parentheses, for example ``"1 + 0.5*x1^2 - x1*x2"``.  Number literals may
carry a decimal exponent (``1e6``, ``2.5e-3``); exponents of ``^`` must be
integer literals.  Parsing is recursive descent; errors carry the line and
column where they occurred.  Compiled expressions evaluate on plain or
numpy floats or on ``Dual`` scalars alike.  Literals are numpy floats, so a
constant subexpression that divides by zero or overflows gives inf or nan,
as the dual path does, and the finiteness check then names the cell.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .errors import ExpressionError

_NUMBER_CHARS = "0123456789."


@dataclass(frozen=True)
class Token:
    kind: str  # "number", "name", "op", "end"
    text: str
    line: int
    column: int


def _tokenize(text: str) -> List[Token]:
    tokens: List[Token] = []
    line, col = 1, 1
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            col += 1
            i += 1
            continue
        start_line, start_col = line, col
        if ch.isdigit() or ch == ".":
            j = i
            seen_dot = False
            while j < n and text[j] in _NUMBER_CHARS:
                if text[j] == ".":
                    if seen_dot:
                        raise ExpressionError(
                            "malformed number", start_line, start_col
                        )
                    seen_dot = True
                j += 1
            if text[i:j] == ".":
                raise ExpressionError("malformed number", start_line, start_col)
            if j < n and text[j] in "eE":
                j += 2 if text[j + 1 : j + 2] in ("+", "-") else 1
                if j >= n or not text[j].isdigit():
                    raise ExpressionError(
                        "malformed exponent", start_line, start_col
                    )
                while j < n and text[j].isdigit():
                    j += 1
            lit = text[i:j]
            tokens.append(Token("number", lit, start_line, start_col))
            col += j - i
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(Token("name", text[i:j], start_line, start_col))
            col += j - i
            i = j
            continue
        if ch in "+-*/^()":
            tokens.append(Token("op", ch, start_line, start_col))
            col += 1
            i += 1
            continue
        raise ExpressionError(f"unexpected character {ch!r}", start_line, start_col)
    tokens.append(Token("end", "", line, col))
    return tokens


class Expr:
    """Compiled expression tree node."""

    def evaluate(self, coords: Sequence):
        raise NotImplementedError


@dataclass(frozen=True)
class Num(Expr):
    value: float

    def evaluate(self, coords):
        return self.value


@dataclass(frozen=True)
class Var(Expr):
    index: int

    def evaluate(self, coords):
        return coords[self.index]


@dataclass(frozen=True)
class BinOp(Expr):
    op: str
    left: Expr
    right: Expr

    def evaluate(self, coords):
        a = self.left.evaluate(coords)
        b = self.right.evaluate(coords)
        if self.op == "+":
            return a + b
        if self.op == "-":
            return a - b
        if self.op == "*":
            return a * b
        return a / b


@dataclass(frozen=True)
class Neg(Expr):
    operand: Expr

    def evaluate(self, coords):
        return -self.operand.evaluate(coords)


@dataclass(frozen=True)
class Pow(Expr):
    base: Expr
    exponent: int

    def evaluate(self, coords):
        return self.base.evaluate(coords) ** self.exponent


class _Parser:
    def __init__(self, tokens: List[Token], n_vars: int) -> None:
        self.tokens = tokens
        self.pos = 0
        self.n_vars = n_vars

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, text: str) -> Token:
        tok = self.peek()
        if tok.kind != "op" or tok.text != text:
            raise ExpressionError(
                f"expected {text!r}, found {tok.text or 'end of input'!r}",
                tok.line,
                tok.column,
            )
        return self.advance()

    def parse(self) -> Expr:
        node = self.parse_sum()
        tok = self.peek()
        if tok.kind != "end":
            raise ExpressionError(
                f"unexpected trailing input {tok.text!r}", tok.line, tok.column
            )
        return node

    def parse_sum(self) -> Expr:
        node = self.parse_product()
        while True:
            tok = self.peek()
            if tok.kind == "op" and tok.text in "+-":
                self.advance()
                node = BinOp(tok.text, node, self.parse_product())
            else:
                return node

    def parse_product(self) -> Expr:
        node = self.parse_unary()
        while True:
            tok = self.peek()
            if tok.kind == "op" and tok.text in "*/":
                self.advance()
                node = BinOp(tok.text, node, self.parse_unary())
            else:
                return node

    def parse_unary(self) -> Expr:
        tok = self.peek()
        if tok.kind == "op" and tok.text in "+-":
            self.advance()
            operand = self.parse_unary()
            return operand if tok.text == "+" else Neg(operand)
        return self.parse_power()

    def parse_power(self) -> Expr:
        base = self.parse_atom()
        tok = self.peek()
        if tok.kind == "op" and tok.text == "^":
            self.advance()
            return Pow(base, self.parse_exponent())
        return base

    def parse_exponent(self) -> int:
        sign = 1
        tok = self.peek()
        if tok.kind == "op" and tok.text in "+-":
            self.advance()
            if tok.text == "-":
                sign = -1
            tok = self.peek()
        if tok.kind != "number" or not tok.text.isdigit():
            raise ExpressionError(
                "exponent must be an integer literal", tok.line, tok.column
            )
        self.advance()
        return sign * int(tok.text)

    def parse_atom(self) -> Expr:
        tok = self.peek()
        if tok.kind == "number":
            self.advance()
            return Num(np.float64(tok.text))
        if tok.kind == "name":
            self.advance()
            return Var(self._var_index(tok))
        if tok.kind == "op" and tok.text == "(":
            self.advance()
            node = self.parse_sum()
            self.expect_op(")")
            return node
        raise ExpressionError(
            f"expected a number, variable, or '(', found "
            f"{tok.text or 'end of input'!r}",
            tok.line,
            tok.column,
        )

    def _var_index(self, tok: Token) -> int:
        name = tok.text
        if name.startswith("x") and name[1:].isdigit():
            k = int(name[1:])
            if 1 <= k <= self.n_vars:
                return k - 1
        raise ExpressionError(
            f"unknown variable {name!r} (expected x1 .. x{self.n_vars})",
            tok.line,
            tok.column,
        )


def parse_expression(text: str, n_vars: int) -> Expr:
    """Compile one component expression over ``n_vars`` coordinates."""
    return _Parser(_tokenize(text), n_vars).parse()
