"""Parser and evaluator for polynomial component expressions.

Metric and structure components in configuration files are written as
strings in the coordinates ``x1 .. x<dim>`` using ``+ - * / ^`` and
parentheses, for example ``"1 + 0.5*x1^2 - x1*x2"``.  Number literals may
carry a decimal exponent (``1e6``, ``2.5e-3``); exponents of ``^`` must be
integer literals.  Only ASCII is read: any other character is an error.
One regular expression splits the text into tokens and one
operator-precedence loop turns them into a postfix program, which
``Expr.evaluate`` runs on a stack.  Nothing recurses, so length and nesting
have no limit.  Errors carry the line and column where they occurred.
Compiled expressions evaluate on floats, plain stacks or ``Dual`` values
alike, each binary operation computing its left operand first, and ``^`` is
``aegeom.dual.power``, so floats and duals agree bit for bit.  Literals are
numpy floats, so a constant subexpression that divides by zero or overflows
gives inf or nan, as the dual path does, and the finiteness check then
names the cell.
"""

from __future__ import annotations

import operator
import re
from typing import List, Sequence, Tuple

import numpy as np

from .dual import power
from .errors import ExpressionError

# ``other`` takes any character the alternatives before it do not, so the
# matches cover the whole text and every character is accounted for.
_TOKEN = re.compile(
    r"(?P<space>[ \t\r\n]+)"
    r"|(?P<number>(?P<mantissa>[\d.]+)(?:[eE][+-]?\d+|(?P<badexp>[eE][+-]?))?)"
    r"|(?P<name>[A-Za-z_]\w*)"
    r"|(?P<op>[-+*/^()])"
    r"|(?P<other>.)",
    re.ASCII | re.DOTALL,
)

_BINARY = {
    "+": operator.add,
    "-": operator.sub,
    "*": operator.mul,
    "/": operator.truediv,
}
# Unary minus binds tighter than a product, and ``^`` applies to its atom
# as soon as it is read; an open parenthesis holds back what it encloses.
_PRECEDENCE = {"(": 0, "+": 1, "-": 1, "*": 2, "/": 2, "neg": 3}


def _tokenize(text: str) -> List[Tuple[str, str, int, int]]:
    """``(kind, text, line, column)`` per token; an operator's kind is its text."""
    tokens = []
    line, line_start = 1, 0
    for m in _TOKEN.finditer(text):
        kind, lexeme = m.lastgroup, m.group()
        column = m.start() - line_start + 1
        if kind == "space":
            if "\n" in lexeme:
                line += lexeme.count("\n")
                line_start = m.start() + lexeme.rindex("\n") + 1
            continue
        if kind == "other":
            raise ExpressionError(f"unexpected character {lexeme!r}", line, column)
        if kind == "number":
            mantissa = m.group("mantissa")
            if mantissa == "." or mantissa.count(".") > 1:
                raise ExpressionError("malformed number", line, column)
            if m.group("badexp") is not None:
                raise ExpressionError("malformed exponent", line, column)
        tokens.append((lexeme if kind == "op" else kind, lexeme, line, column))
    tokens.append(("end", "", line, len(text) - line_start + 1))
    return tokens


class Expr:
    """A compiled expression: a postfix program of ``(op, argument)`` steps.

    ``op`` is ``"num"`` (push the literal), ``"var"`` (push the coordinate
    at the index), ``"neg"``, ``"^"`` (raise the top to the integer
    argument) or a binary operator applied to the top two entries.
    """

    def __init__(self, program: Sequence[Tuple[str, object]]) -> None:
        self.program = tuple(program)

    def evaluate(self, coords: Sequence):
        stack = []
        for op, arg in self.program:
            if op == "num":
                stack.append(arg)
            elif op == "var":
                stack.append(coords[arg])
            elif op == "neg":
                stack[-1] = -stack[-1]
            elif op == "^":
                stack[-1] = power(stack[-1], arg)
            else:
                right = stack.pop()
                stack[-1] = _BINARY[op](stack[-1], right)
        return stack[0]


def _var_index(name: str, n_vars: int, line: int, column: int) -> int:
    digits = name[1:].lstrip("0") if name.startswith("x") else ""
    if digits.isdigit() and len(digits) <= len(str(n_vars)) and int(digits) <= n_vars:
        return int(digits) - 1
    raise ExpressionError(
        f"unknown variable {name!r} (expected x1 .. x{n_vars})", line, column
    )


def parse_expression(text: str, n_vars: int) -> Expr:
    """Compile one component expression over ``n_vars`` coordinates."""
    tokens = iter(_tokenize(text))
    program: List[Tuple[str, object]] = []
    pending: List[str] = []  # "(", "neg" and binary operators not yet emitted
    depth = 0
    while True:
        # an operand: signs and open parentheses, then a number or a variable
        kind, lexeme, line, column = next(tokens)
        if kind == "(":
            pending.append("(")
            depth += 1
            continue
        if kind in ("+", "-"):
            if kind == "-":
                pending.append("neg")
            continue
        if kind == "number":
            program.append(("num", np.float64(lexeme)))
        elif kind == "name":
            program.append(("var", _var_index(lexeme, n_vars, line, column)))
        else:
            raise ExpressionError(
                f"expected a number, variable, or '(', found "
                f"{lexeme or 'end of input'!r}",
                line,
                column,
            )
        # after an atom: at most one power, then close parentheses, each
        # of which ends an atom that may take its own power
        kind, lexeme, line, column = next(tokens)
        while True:
            if kind == "^":
                kind, lexeme, line, column = next(tokens)
                sign = -1 if kind == "-" else 1
                if kind in ("+", "-"):
                    kind, lexeme, line, column = next(tokens)
                if kind != "number" or not lexeme.isdigit():
                    raise ExpressionError(
                        "exponent must be an integer literal", line, column
                    )
                try:
                    program.append(("^", sign * int(lexeme)))
                except ValueError:  # int() refuses more than 4300 digits
                    raise ExpressionError("exponent has too many digits", line, column)
                kind, lexeme, line, column = next(tokens)
            if kind != ")" or not depth:
                break
            while pending[-1] != "(":
                program.append((pending.pop(), None))
            pending.pop()
            depth -= 1
            kind, lexeme, line, column = next(tokens)
        if kind in _BINARY:
            while pending and _PRECEDENCE[pending[-1]] >= _PRECEDENCE[kind]:
                program.append((pending.pop(), None))
            pending.append(kind)
        elif kind == "end" and not depth:
            program.extend((op, None) for op in reversed(pending))
            return Expr(program)
        elif depth:
            raise ExpressionError(
                f"expected ')', found {lexeme or 'end of input'!r}", line, column
            )
        else:
            raise ExpressionError(
                f"unexpected trailing input {lexeme!r}", line, column
            )
