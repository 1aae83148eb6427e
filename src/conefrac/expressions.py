"""Arithmetic expression language for perturbations and boundary data.

An expression is Python expression syntax with ``^`` as the power, read by
``ast.parse`` and kept only if every node lies in a whitelist:

- decimal literals (``2``, ``.5``, ``5.``, ``1e-3``; no underscores,
  prefixes or imaginary parts) and the constant ``pi``;
- the variables {x1, x2, r, theta, t};
- binary ``+ - * / ^`` and unary ``+ -``, with Python's precedence (``^``
  binds tighter than unary minus and is right-associative);
- the calls sin, cos, exp, log, abs (one argument) and pow (two).

Python's own ``**``, ``//``, ``%``, comparisons, attributes, keywords,
comments, strings and trailing commas are rejected.  Nothing is compiled or
executed: a private evaluator walks the tree, numpy-aware so grid functions
come in one call.  Error positions index the source text.
"""

from __future__ import annotations

import ast
import math
import operator
import re
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

_BINOPS = {ast.Add: operator.add, ast.Sub: operator.sub,
           ast.Mult: operator.mul, ast.Div: operator.truediv,
           ast.Pow: None}
# characters outside the language, Python's power and a trailing comma
_FOREIGN = re.compile(r"[^0-9A-Za-z_.+\-*/^(),\s]|\*\*|,\s*\)")
_DECIMAL = re.compile(r"(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?")
# deeper trees are rejected, so evaluating and printing never recurse far
_MAX_DEPTH = 100


def _power(a, b, node, bindings):
    with np.errstate(invalid="raise", divide="raise", over="raise"):
        try:
            return np.power(a, b) if isinstance(a, np.ndarray) \
                or isinstance(b, np.ndarray) else math.pow(a, b)
        except (FloatingPointError, ValueError, OverflowError) as exc:
            raise ExpressionError(
                f"invalid power in '{_render(node)}' with bindings "
                f"{_fmt_bindings(bindings)}: {exc}") from exc


def _fmt_bindings(bindings):
    parts = []
    for key in sorted(bindings):
        val = bindings[key]
        parts.append(f"{key}={val:.6g}" if np.isscalar(val)
                     else f"{key}=<array>")
    return "{" + ", ".join(parts) + "}"


def _render(node) -> str:
    return ast.unparse(node).replace("**", "^")


def _check(node, text: str, cols: list, depth: int = 0) -> None:
    """Raise unless every node under ``node`` is in the language; ``text``
    is the parsed Python text and ``cols[i]`` the source index of its i-th
    character."""
    def fail(message):
        return ExpressionError(message, position=cols[node.col_offset])

    if depth > _MAX_DEPTH:
        raise fail(f"expression nested deeper than {_MAX_DEPTH} levels")
    children = ()
    if isinstance(node, ast.Constant):
        literal = text[node.col_offset:node.end_col_offset]
        if not _DECIMAL.fullmatch(literal):
            raise fail(f"malformed number {literal!r}")
        if not math.isfinite(float(literal)):
            raise fail(f"non-finite value {literal}")
    elif isinstance(node, ast.Name):
        if node.id not in VARIABLES and node.id != "pi":
            raise fail(f"unknown identifier {node.id!r} "
                       f"(variables: {', '.join(VARIABLES)})")
    elif isinstance(node, ast.UnaryOp) and isinstance(node.op,
                                                      (ast.UAdd, ast.USub)):
        children = (node.operand,)
    elif isinstance(node, ast.BinOp) and type(node.op) in _BINOPS:
        children = (node.left, node.right)
    elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
            and node.func.col_offset == node.col_offset and not node.keywords:
        # called by its bare name, so (sin)(1) is rejected
        name = node.func.id
        if name not in FUNCTIONS:
            raise fail(f"unknown function {name!r}")
        if len(node.args) != FUNCTIONS[name][1]:
            raise fail(f"{name} takes {FUNCTIONS[name][1]} argument(s), "
                       f"got {len(node.args)}")
        children = node.args
    else:
        raise fail(f"unsupported syntax {type(node).__name__}")
    for child in children:
        _check(child, text, cols, depth + 1)


def _value(node, bindings):
    """Value of a checked tree at the bindings."""
    if isinstance(node, ast.Constant):
        return float(node.value)
    if isinstance(node, ast.Name):
        if node.id == "pi":
            return math.pi
        if node.id not in bindings:
            raise ExpressionError(
                f"unbound variable '{node.id}' (have {sorted(bindings)})")
        return bindings[node.id]
    if isinstance(node, ast.UnaryOp):
        v = _value(node.operand, bindings)
        return -v if isinstance(node.op, ast.USub) else v
    if isinstance(node, ast.Call):
        args = [_value(a, bindings) for a in node.args]
        name = node.func.id
        if name == "pow":
            return _power(*args, node, bindings)
        if name == "log" and np.any(np.asarray(args[0]) <= 0):
            raise ExpressionError(
                f"log of non-positive value in '{_render(node)}' with "
                f"bindings {_fmt_bindings(bindings)}")
        return FUNCTIONS[name][0](args[0])
    a = _value(node.left, bindings)
    b = _value(node.right, bindings)
    if isinstance(node.op, ast.Pow):
        return _power(a, b, node, bindings)
    if isinstance(node.op, ast.Div) and np.any(np.asarray(b) == 0):
        raise ExpressionError(
            f"division by zero in '{_render(node)}' with "
            f"bindings {_fmt_bindings(bindings)}")
    return _BINOPS[type(node.op)](a, b)


@dataclass(frozen=True)
class Expression:
    """Parsed arithmetic expression.  Evaluation accepts scalars or numpy
    arrays in the bindings."""

    root: ast.expr
    source: str

    def eval(self, bindings: dict):
        """Value at the bindings; a non-finite result raises."""
        with np.errstate(over="ignore", invalid="ignore"):
            value = _value(self.root, bindings)
        if not np.all(np.isfinite(value)):
            raise ExpressionError(
                f"non-finite value of '{self.to_string()}' with bindings "
                f"{_fmt_bindings(bindings)}")
        return value

    def variables(self) -> frozenset[str]:
        """The variables the expression reads."""
        return frozenset(node.id for node in ast.walk(self.root)
                         if isinstance(node, ast.Name)
                         and node.id in VARIABLES)

    def to_string(self) -> str:
        return _render(self.root)

    def is_zero(self) -> bool:
        return isinstance(self.root, ast.Constant) and self.root.value == 0

    def __str__(self):
        return self.to_string()


def parse_expression(text: str) -> Expression:
    """Parse ``text`` into an Expression; raises ExpressionError with the
    offending position on malformed input."""
    if m := _FOREIGN.search(text):
        raise ExpressionError(f"unexpected {m.group()!r}", position=m.start())
    # Python reads one line without leading blanks, and ** for ^
    lead = len(text) - len(text.lstrip())
    source = re.sub(r"\s", " ", text[lead:]).replace("^", "**")
    cols = [i for i in range(lead, len(text))
            for _ in range(2 if text[i] == "^" else 1)] + [len(text)]
    try:
        root = ast.parse(source, mode="eval").body
    except SyntaxError as exc:
        col = min(max((exc.offset or 1) - 1, 0), len(cols) - 1)
        raise ExpressionError(exc.msg, position=cols[col]) from None
    except (RecursionError, MemoryError):   # the parser's own depth limits
        raise ExpressionError("expression nested too deeply") from None
    _check(root, source, cols)
    return Expression(root, text)
