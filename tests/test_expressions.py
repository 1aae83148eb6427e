"""Parser and evaluator behaviour, cross-checked against Python's own
arithmetic as a second evaluator."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conefrac.errors import ExpressionError
from conefrac.expressions import parse_expression


def test_constant():
    e = parse_expression("1")
    assert e.eval({}) == 1.0
    assert e.eval({"x1": 5.0}) == 1.0


def test_arithmetic_example():
    e = parse_expression("x1^2 - x2")
    assert e.eval({"x1": 2.0, "x2": 1.0}) == pytest.approx(3.0)


def test_second_evaluator_cross_check():
    e = parse_expression("exp(-1/(r*r))")
    ours = e.eval({"r": 1.0})
    theirs = math.exp(-1.0 / (1.0 * 1.0))
    assert ours == pytest.approx(theirs, rel=1e-15)
    for r in (0.5, 2.0, 3.7):
        assert e.eval({"r": r}) == pytest.approx(math.exp(-1.0 / (r * r)),
                                                 rel=1e-14)


def test_precedence_and_unary():
    assert parse_expression("2 + 3 * 4").eval({}) == 14.0
    assert parse_expression("2 * 3 ^ 2").eval({}) == 18.0
    assert parse_expression("-3 ^ 2").eval({}) == -9.0     # unary binds last
    assert parse_expression("2 ^ -1").eval({}) == 0.5
    assert parse_expression("2 ^ 3 ^ 2").eval({}) == 512.0  # right assoc
    assert parse_expression("(2 + 3) * 4").eval({}) == 20.0


def test_functions():
    assert parse_expression("sin(pi/2)").eval({}) == pytest.approx(1.0)
    assert parse_expression("abs(-3)").eval({}) == 3.0
    assert parse_expression("pow(2, 10)").eval({}) == 1024.0
    assert parse_expression("log(exp(2))").eval({}) == pytest.approx(2.0)


def test_vectorized_eval():
    e = parse_expression("x1 * x2 + 1")
    x = np.array([1.0, 2.0])
    y = np.array([3.0, -1.0])
    np.testing.assert_allclose(e.eval({"x1": x, "x2": y}), [4.0, -1.0])


def test_parse_error_position():
    with pytest.raises(ExpressionError) as err:
        parse_expression("sin(")
    assert err.value.position is not None
    with pytest.raises(ExpressionError):
        parse_expression("1 + * 2")
    with pytest.raises(ExpressionError):
        parse_expression("2 $ 3")


def test_unknown_identifier():
    with pytest.raises(ExpressionError):
        parse_expression("x3 + 1")
    with pytest.raises(ExpressionError):
        parse_expression("foo(2)")


def test_variables_read():
    e = parse_expression("sin(x1) * r^2 + pow(t, -theta) / (1 - pi)")
    assert e.variables() == {"x1", "r", "t", "theta"}
    assert parse_expression("2 * pi").variables() == set()


def test_unbound_variable_at_eval():
    e = parse_expression("x1 + x2")
    with pytest.raises(ExpressionError):
        e.eval({"x1": 1.0})


def test_division_by_zero_reports_bindings():
    e = parse_expression("1 / x1")
    with pytest.raises(ExpressionError) as err:
        e.eval({"x1": 0.0})
    assert "x1" in str(err.value)


def test_log_domain():
    with pytest.raises(ExpressionError):
        parse_expression("log(x1)").eval({"x1": -1.0})


def test_arity_check():
    with pytest.raises(ExpressionError):
        parse_expression("pow(2)")
    with pytest.raises(ExpressionError):
        parse_expression("sin(1, 2)")


def test_round_trip_fixed_point():
    samples = [
        "x1^2 - x2",
        "-x1 * (x2 + 3) / 2",
        "sin(x1) * cos(x2) + exp(-r)",
        "pow(x1, 2) + abs(x2 - 1)",
        "1 + 2 * 3 ^ 2 - 4 / 5",
        "-(x1 + x2)^2",
    ]
    for text in samples:
        e1 = parse_expression(text)
        printed = e1.to_string()
        e2 = parse_expression(printed)
        assert e2.to_string() == printed
        bindings = {"x1": 0.7, "x2": -1.3, "r": 0.4, "theta": 1.0, "t": 0.2}
        assert e1.eval(bindings) == pytest.approx(e2.eval(bindings),
                                                  rel=1e-14)


_leaf = st.sampled_from(["x1", "x2", "r", "2", "0.5", "3"])
_ops = st.sampled_from(["+", "-", "*"])


@st.composite
def _expr_text(draw, depth=0):
    if depth > 3 or draw(st.booleans()):
        return draw(_leaf)
    a = draw(_expr_text(depth=depth + 1))
    b = draw(_expr_text(depth=depth + 1))
    op = draw(_ops)
    fn = draw(st.sampled_from(["", "sin", "cos", "exp"]))
    body = f"({a} {op} {b})"
    return f"{fn}{body}" if fn else body


@given(_expr_text())
@example("sin(exp(exp((x1 + 3) + 3) * x2) + x1)")   # exp overflows
@settings(max_examples=150, deadline=None)
def test_round_trip_property(text):
    e1 = parse_expression(text)
    printed = e1.to_string()
    e2 = parse_expression(printed)
    assert e2.to_string() == printed
    bindings = {"x1": 0.3, "x2": 1.7, "r": 2.0}
    try:
        value = e1.eval(bindings)
    except ExpressionError:
        with pytest.raises(ExpressionError):
            e2.eval(bindings)
        return
    assert value == pytest.approx(e2.eval(bindings), rel=1e-12)


def test_non_finite_values_raise():
    with pytest.raises(ExpressionError):
        parse_expression("sin(exp(exp((x1 + 3) + 3) * x2) + x1)").eval(
            {"x1": 0.3, "x2": 1.7})
    with pytest.raises(ExpressionError):
        parse_expression("exp(x1)").eval({"x1": np.array([0.0, 1e3])})
    with pytest.raises(ExpressionError):
        parse_expression("x1 ^ 400").eval({"x1": np.array([1.0, 10.0])})


def test_symbolic_derivative_against_finite_differences():
    cases = [
        ("x1^2 * x2", "x1"),
        ("sin(x1 * x2)", "x2"),
        ("exp(-x1) / (1 + x2^2)", "x1"),
        ("pow(x1, 3) - 2 * x1", "x1"),
        ("log(1 + x1^2)", "x1"),
    ]
    pt = {"x1": 0.8, "x2": -0.6}
    for text, var in cases:
        e = parse_expression(text)
        d = e.diff(var)
        eps = 1e-6
        hi = dict(pt)
        lo = dict(pt)
        hi[var] += eps
        lo[var] -= eps
        fd = (e.eval(hi) - e.eval(lo)) / (2 * eps)
        assert d.eval(pt) == pytest.approx(fd, rel=1e-7, abs=1e-9)


def test_derivative_of_constant_is_zero():
    assert parse_expression("3 * pi").diff("x1").eval({}) == 0.0
