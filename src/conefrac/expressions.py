"""Tiny arithmetic expression language for perturbations and boundary data.

Grammar (standard precedence, ``^`` right-associative, unary minus):

    expr   := term (('+' | '-') term)*
    term   := unary (('*' | '/') unary)*
    unary  := '-' unary | power
    power  := atom ('^' unary)?
    atom   := NUMBER | IDENT | IDENT '(' expr (',' expr)* ')' | '(' expr ')'

Identifiers are restricted to the variables {x1, x2, r, theta, t} and the
function names {sin, cos, exp, log, abs, pow}.  Evaluation is numpy-aware so
grid functions can be produced in one call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ExpressionError

__all__ = ["Expression", "parse_expression"]

VARIABLES = ("x1", "x2", "r", "theta", "t")
FUNCTIONS = {
    "sin": (np.sin, 1),
    "cos": (np.cos, 1),
    "exp": (np.exp, 1),
    "log": (np.log, 1),
    "abs": (np.abs, 1),
    "pow": (None, 2),
}


# ---------------------------------------------------------------------------
# AST nodes
# ---------------------------------------------------------------------------

class Node:
    def eval(self, bindings):  # pragma: no cover - abstract
        raise NotImplementedError

    def render(self, parent_prec=0):  # pragma: no cover - abstract
        raise NotImplementedError


@dataclass(frozen=True)
class Num(Node):
    value: float

    def eval(self, bindings):
        return self.value

    def render(self, parent_prec=0):
        if abs(self.value) < 1e15 and self.value == int(self.value):
            return str(int(self.value))
        return repr(self.value)


@dataclass(frozen=True)
class Var(Node):
    name: str

    def eval(self, bindings):
        if self.name not in bindings:
            raise ExpressionError(
                f"unbound variable '{self.name}' (have {sorted(bindings)})")
        return bindings[self.name]

    def render(self, parent_prec=0):
        return self.name


_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "neg": 3, "^": 4}


@dataclass(frozen=True)
class BinOp(Node):
    op: str
    left: Node
    right: Node

    def eval(self, bindings):
        a = self.left.eval(bindings)
        b = self.right.eval(bindings)
        if self.op == "+":
            return a + b
        if self.op == "-":
            return a - b
        if self.op == "*":
            return a * b
        if self.op == "/":
            if np.any(np.asarray(b) == 0):
                raise ExpressionError(
                    f"division by zero in '{self.render()}' with "
                    f"bindings {_fmt_bindings(bindings)}")
            return a / b
        if self.op == "^":
            return _power(a, b, self.render(), bindings)
        raise ExpressionError(f"unknown operator {self.op}")

    def render(self, parent_prec=0):
        prec = _PREC[self.op]
        left = self.left.render(prec)
        # left-assoc ops need a tighter right side; ^ is right-assoc
        right_prec = prec if self.op == "^" else prec + 1
        right = self.right.render(right_prec)
        text = f"{left} {self.op} {right}" if self.op != "^" \
            else f"{left}^{right}"
        if prec < parent_prec:
            return f"({text})"
        return text


@dataclass(frozen=True)
class Neg(Node):
    child: Node

    def eval(self, bindings):
        return -self.child.eval(bindings)

    def render(self, parent_prec=0):
        text = f"-{self.child.render(_PREC['neg'])}"
        if _PREC["neg"] < parent_prec:
            return f"({text})"
        return text


@dataclass(frozen=True)
class Call(Node):
    name: str
    args: tuple

    def eval(self, bindings):
        vals = [a.eval(bindings) for a in self.args]
        if self.name == "pow":
            return _power(vals[0], vals[1], self.render(), bindings)
        if self.name == "log":
            if np.any(np.asarray(vals[0]) <= 0):
                raise ExpressionError(
                    f"log of non-positive value in '{self.render()}' with "
                    f"bindings {_fmt_bindings(bindings)}")
        fn, _ = FUNCTIONS[self.name]
        return fn(vals[0])

    def render(self, parent_prec=0):
        inner = ", ".join(a.render(0) for a in self.args)
        return f"{self.name}({inner})"


def _power(a, b, text, bindings):
    with np.errstate(invalid="raise", divide="raise", over="raise"):
        try:
            return np.power(a, b) if isinstance(a, np.ndarray) \
                or isinstance(b, np.ndarray) else math.pow(a, b)
        except (FloatingPointError, ValueError, OverflowError) as exc:
            raise ExpressionError(
                f"invalid power in '{text}' with bindings "
                f"{_fmt_bindings(bindings)}: {exc}") from exc


def _fmt_bindings(bindings):
    parts = []
    for key in sorted(bindings):
        val = bindings[key]
        parts.append(f"{key}={val:.6g}" if np.isscalar(val)
                     else f"{key}=<array>")
    return "{" + ", ".join(parts) + "}"


# ---------------------------------------------------------------------------
# tokenizer and parser
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _Token:
    kind: str
    text: str
    pos: int


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdigit() or (ch == "." and i + 1 < n and text[i + 1].isdigit()):
            j = i
            seen_e = False
            while j < n and (text[j].isdigit() or text[j] == "."
                             or text[j] in "eE"
                             or (seen_e and text[j] in "+-"
                                 and text[j - 1] in "eE")):
                if text[j] in "eE":
                    seen_e = True
                j += 1
            tokens.append(_Token("num", text[i:j], i))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(_Token("ident", text[i:j], i))
            i = j
            continue
        if ch in "+-*/^(),":
            tokens.append(_Token(ch, ch, i))
            i += 1
            continue
        raise ExpressionError(f"unexpected character {ch!r}", position=i)
    tokens.append(_Token("end", "", n))
    return tokens


class _Parser:
    def __init__(self, tokens: list[_Token], source: str):
        self.tokens = tokens
        self.source = source
        self.idx = 0

    @property
    def tok(self) -> _Token:
        return self.tokens[self.idx]

    def advance(self) -> _Token:
        tok = self.tok
        self.idx += 1
        return tok

    def expect(self, kind: str) -> _Token:
        if self.tok.kind != kind:
            raise ExpressionError(
                f"expected {kind!r}, found {self.tok.text or 'end of input'!r}",
                position=self.tok.pos)
        return self.advance()

    def parse(self) -> Node:
        node = self.expr()
        if self.tok.kind != "end":
            raise ExpressionError(
                f"trailing input {self.tok.text!r}", position=self.tok.pos)
        return node

    def expr(self) -> Node:
        node = self.term()
        while self.tok.kind in ("+", "-"):
            op = self.advance().kind
            node = BinOp(op, node, self.term())
        return node

    def term(self) -> Node:
        node = self.unary()
        while self.tok.kind in ("*", "/"):
            op = self.advance().kind
            node = BinOp(op, node, self.unary())
        return node

    def unary(self) -> Node:
        if self.tok.kind == "-":
            self.advance()
            return Neg(self.unary())
        if self.tok.kind == "+":
            self.advance()
            return self.unary()
        return self.power()

    def power(self) -> Node:
        base = self.atom()
        if self.tok.kind == "^":
            self.advance()
            return BinOp("^", base, self.unary())
        return base

    def atom(self) -> Node:
        tok = self.tok
        if tok.kind == "num":
            self.advance()
            try:
                return Num(float(tok.text))
            except ValueError:
                raise ExpressionError(
                    f"malformed number {tok.text!r}", position=tok.pos)
        if tok.kind == "ident":
            self.advance()
            name = tok.text
            if self.tok.kind == "(":
                if name not in FUNCTIONS:
                    raise ExpressionError(
                        f"unknown function {name!r}", position=tok.pos)
                self.advance()
                args = [self.expr()]
                while self.tok.kind == ",":
                    self.advance()
                    args.append(self.expr())
                self.expect(")")
                _, arity = FUNCTIONS[name]
                if len(args) != arity:
                    raise ExpressionError(
                        f"{name} takes {arity} argument(s), got {len(args)}",
                        position=tok.pos)
                return Call(name, tuple(args))
            if name == "pi":
                return Num(math.pi)
            if name not in VARIABLES:
                raise ExpressionError(
                    f"unknown identifier {name!r} "
                    f"(variables: {', '.join(VARIABLES)})", position=tok.pos)
            return Var(name)
        if tok.kind == "(":
            self.advance()
            node = self.expr()
            self.expect(")")
            return node
        raise ExpressionError(
            f"expected a value, found {tok.text or 'end of input'!r}",
            position=tok.pos)


# ---------------------------------------------------------------------------
# public facade
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Expression:
    """Parsed arithmetic expression.  Evaluation accepts scalars or numpy
    arrays in the bindings."""

    root: Node
    source: str

    def eval(self, bindings: dict):
        """Value at the bindings; a non-finite result raises."""
        with np.errstate(over="ignore", invalid="ignore"):
            value = self.root.eval(bindings)
        if not np.all(np.isfinite(value)):
            raise ExpressionError(
                f"non-finite value of '{self.to_string()}' with bindings "
                f"{_fmt_bindings(bindings)}")
        return value

    def variables(self) -> frozenset[str]:
        """The variables the expression reads."""
        return frozenset(tok.text for tok in _tokenize(self.source)
                         if tok.text in VARIABLES)

    def to_string(self) -> str:
        return self.root.render()

    def is_zero(self) -> bool:
        return isinstance(self.root, Num) and self.root.value == 0.0

    def __str__(self):
        return self.to_string()


def parse_expression(text: str) -> Expression:
    """Parse ``text`` into an Expression; raises ExpressionError with the
    offending position on malformed input."""
    tokens = _tokenize(text)
    root = _Parser(tokens, text).parse()
    return Expression(root, text)
