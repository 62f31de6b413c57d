import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from kinbench.errors import ExpressionError
from kinbench.expressions import (
    CompiledExpression,
    differentiate,
    evaluate,
    parse,
)


@pytest.mark.parametrize("text, x, expected", [
    ("1 + x^2", 3.0, 10.0),
    ("-x", 2.0, -2.0),
    ("-x^2", 2.0, -4.0),            # unary minus binds below ^
    ("2^3^2", 0.0, 512.0),          # ^ is right associative
    ("8/4/2", 0.0, 1.0),            # / is left associative
    ("exp(0)", 5.0, 1.0),
    ("ln(exp(x))", 1.7, 1.7),
    ("x^(-1.5)", 4.0, 0.125),
    ("(1 + x)*(1 - x)", 0.5, 0.75),
    ("1 - 2 - 3", 0.0, -4.0),
    ("x ", 2.0, 2.0),
    ("1 + x^2\n", 3.0, 10.0),
])
def test_evaluate_known_values(text, x, expected):
    assert CompiledExpression(text)(x) == pytest.approx(expected, rel=1e-14)


def test_vectorized_evaluation():
    e = CompiledExpression("x^2 + 1")
    xs = np.array([0.0, 1.0, 2.0])
    assert np.allclose(e(xs), [1.0, 2.0, 5.0])


def test_multidimensional_variables():
    e = CompiledExpression("x1*x2 + x2^2", dimension=2)
    pt = np.array([2.0, 3.0])
    assert e(pt) == pytest.approx(15.0)
    pts = np.array([[2.0, 3.0], [1.0, 1.0]])
    assert np.allclose(e(pts), [15.0, 2.0])


@pytest.mark.parametrize("bad", ["", "1 +", "x0", "x3", "foo(2)", "2 **", "(1", "1 @ 2"])
def test_parse_errors(bad):
    with pytest.raises(ExpressionError):
        parse(bad, dimension=2)


@pytest.mark.parametrize("text, dtext_value, x", [
    ("x^2", 6.0, 3.0),
    ("exp(-x^2/2)", -1.0 * np.exp(-0.5), 1.0),
    ("ln(1 + x^2)", 2 * 2.0 / 5.0, 2.0),
    ("1/x", -0.25, 2.0),
    ("x^x", (np.log(2.0) + 1) * 4.0, 2.0),
])
def test_differentiate_known(text, dtext_value, x):
    d = CompiledExpression(text).derivative()
    assert d(x) == pytest.approx(dtext_value, rel=1e-12)


def _exprs(max_depth=3):
    leaf = st.one_of(
        st.floats(min_value=0.1, max_value=3.0).map(lambda v: ("num", float(v))),
        st.just(("var", 0)),
    )

    def extend(children):
        binop = st.tuples(st.sampled_from(["+", "-", "*", "/"]), children, children) \
            .map(lambda t: (t[0], t[1], t[2]))
        unop = st.tuples(st.sampled_from(["neg", "exp"]), children).map(
            lambda t: (t[0], t[1]))
        powop = st.tuples(children, st.floats(min_value=0.5, max_value=3.0)).map(
            lambda t: ("^", t[0], ("num", float(t[1]))))
        return st.one_of(binop, unop, powop)

    return st.recursive(leaf, extend, max_leaves=8)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@given(_exprs(), st.floats(min_value=0.3, max_value=1.8))
def test_derivative_matches_finite_difference(node, x):
    d = differentiate(node)
    v = evaluate(d, x)
    h = 1e-6
    fd = (evaluate(node, x + h) - evaluate(node, x - h)) / (2 * h)
    if np.isfinite(v) and np.isfinite(fd) and abs(v) < 1e6:
        assert v == pytest.approx(fd, rel=2e-4, abs=2e-4)


def test_an_expression_keeps_its_source_text():
    e = CompiledExpression("-(1.0)*x + exp(-x^2/2)")
    assert e.text == "-(1.0)*x + exp(-x^2/2)"
    assert repr(e) == "CompiledExpression('-(1.0)*x + exp(-x^2/2)')"
    # a derivative is built from a tree, so it has no text to write back
    d = e.derivative()
    assert d.text is None
    assert repr(d) == f"CompiledExpression({d.node!r})"
