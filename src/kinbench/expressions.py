"""Minimal arithmetic expression grammar for coefficient fields.

Grammar (whitespace-insensitive)::

    expr   := term (('+' | '-') term)*
    term   := factor (('*' | '/') factor)*
    factor := '-' factor | power
    power  := atom ('^' factor)?          # right associative
    atom   := NUMBER | FUNC '(' expr ')' | VAR | '(' expr ')'

Functions: ``exp``, ``ln``.  Variables: ``x1`` .. ``xn``; ``x`` is an
alias for ``x1``.  Exponentiation uses ``^``.  Expressions evaluate
vectorized over numpy arrays and support symbolic differentiation, which
is what gives catalog coefficients analytic derivatives.
"""

from __future__ import annotations

import re

import numpy as np

from .errors import ExpressionError

_TOKEN = re.compile(
    r"\s*(?:(?P<num>\d+\.?\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<op>[-+*/^()]))"
)

_FUNCS = ("exp", "ln")


def _tokenize(text):
    text = text.rstrip()  # each token consumes the whitespace before it
    pos = 0
    tokens = []
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            raise ExpressionError(f"bad character at position {pos}: {text[pos:]!r}")
        if m.group("num") is not None:
            tokens.append(("num", float(m.group("num"))))
        elif m.group("name") is not None:
            tokens.append(("name", m.group("name")))
        else:
            tokens.append(("op", m.group("op")))
        pos = m.end()
    return tokens


class _Parser:
    def __init__(self, tokens, dimension):
        self.tokens = tokens
        self.i = 0
        self.dimension = dimension

    def peek(self):
        return self.tokens[self.i] if self.i < len(self.tokens) else (None, None)

    def take(self):
        tok = self.peek()
        self.i += 1
        return tok

    def expect_op(self, op):
        kind, val = self.take()
        if kind != "op" or val != op:
            raise ExpressionError(f"expected {op!r}, found {val!r}")

    def parse(self):
        node = self.expr()
        if self.i != len(self.tokens):
            raise ExpressionError(f"trailing input: {self.tokens[self.i:]}")
        return node

    def expr(self):
        node = self.term()
        while self.peek() == ("op", "+") or self.peek() == ("op", "-"):
            _, op = self.take()
            rhs = self.term()
            node = (op, node, rhs)
        return node

    def term(self):
        node = self.factor()
        while self.peek() == ("op", "*") or self.peek() == ("op", "/"):
            _, op = self.take()
            rhs = self.factor()
            node = (op, node, rhs)
        return node

    def factor(self):
        if self.peek() == ("op", "-"):
            self.take()
            return ("neg", self.factor())
        return self.power()

    def power(self):
        base = self.atom()
        if self.peek() == ("op", "^"):
            self.take()
            expo = self.factor()
            return ("^", base, expo)
        return base

    def atom(self):
        kind, val = self.take()
        if kind == "num":
            return ("num", val)
        if kind == "name":
            if val in _FUNCS:
                self.expect_op("(")
                arg = self.expr()
                self.expect_op(")")
                return (val, arg)
            return ("var", self._var_index(val))
        if kind == "op" and val == "(":
            node = self.expr()
            self.expect_op(")")
            return node
        raise ExpressionError(f"unexpected token {val!r}")

    def _var_index(self, name):
        if name == "x":
            return 0
        m = re.fullmatch(r"x(\d+)", name)
        if m is None:
            raise ExpressionError(f"unknown name {name!r} (variables are x1..xn)")
        k = int(m.group(1)) - 1
        if k < 0 or k >= self.dimension:
            raise ExpressionError(f"variable {name!r} out of range for dimension {self.dimension}")
        return k


def parse(text, dimension=1):
    """Parse ``text`` into an expression tree."""
    tokens = _tokenize(text)
    if not tokens:
        raise ExpressionError("empty expression")
    return _Parser(tokens, dimension).parse()


def evaluate(node, x, dimension=1):
    """Evaluate an expression tree.

    For dimension 1, ``x`` is a scalar or an array of sample points.
    For dimension n, ``x`` has shape (..., n) and variable k maps to
    ``x[..., k]``.
    """
    tag = node[0]
    if tag == "num":
        return node[1]
    if tag == "var":
        x = np.asarray(x, dtype=float)
        if dimension == 1:
            if node[1] != 0:
                raise ExpressionError(f"point has no component x{node[1] + 1}")
            return x
        if x.ndim >= 1 and x.shape[-1] == dimension:
            return x[..., node[1]]
        raise ExpressionError(
            f"expected point with {dimension} components, got shape {x.shape}")
    if tag == "neg":
        return -evaluate(node[1], x, dimension)
    if tag == "exp":
        return np.exp(evaluate(node[1], x, dimension))
    if tag == "ln":
        return np.log(evaluate(node[1], x, dimension))
    l = evaluate(node[1], x, dimension)
    r = evaluate(node[2], x, dimension)
    if tag == "+":
        return l + r
    if tag == "-":
        return l - r
    if tag == "*":
        return l * r
    if tag == "/":
        return l / r
    if tag == "^":
        return np.power(l, r)
    raise ExpressionError(f"corrupt node {node!r}")


def _is_num(node, value=None):
    return node[0] == "num" and (value is None or node[1] == value)


def _num(v):
    return ("num", float(v))


def _add(l, r):
    if _is_num(l) and _is_num(r):
        return _num(l[1] + r[1])
    if _is_num(l, 0.0):
        return r
    if _is_num(r, 0.0):
        return l
    return ("+", l, r)


def _sub(l, r):
    if _is_num(l) and _is_num(r):
        return _num(l[1] - r[1])
    if _is_num(r, 0.0):
        return l
    if _is_num(l, 0.0):
        return ("neg", r)
    return ("-", l, r)


def _mul(l, r):
    if _is_num(l) and _is_num(r):
        return _num(l[1] * r[1])
    if _is_num(l, 0.0) or _is_num(r, 0.0):
        return _num(0.0)
    if _is_num(l, 1.0):
        return r
    if _is_num(r, 1.0):
        return l
    return ("*", l, r)


def _div(l, r):
    if _is_num(l, 0.0):
        return _num(0.0)
    if _is_num(r, 1.0):
        return l
    if _is_num(l) and _is_num(r):
        return _num(l[1] / r[1])
    return ("/", l, r)


def _pow(l, r):
    if _is_num(r, 1.0):
        return l
    if _is_num(r, 0.0):
        return _num(1.0)
    if _is_num(l) and _is_num(r):
        return _num(l[1] ** r[1])
    return ("^", l, r)


def differentiate(node, var=0):
    """Return the expression for the partial derivative along ``var``."""
    tag = node[0]
    if tag == "num":
        return _num(0.0)
    if tag == "var":
        return _num(1.0 if node[1] == var else 0.0)
    if tag == "neg":
        return ("neg", differentiate(node[1], var))
    if tag == "exp":
        return _mul(("exp", node[1]), differentiate(node[1], var))
    if tag == "ln":
        return _div(differentiate(node[1], var), node[1])
    if tag == "+":
        return _add(differentiate(node[1], var), differentiate(node[2], var))
    if tag == "-":
        return _sub(differentiate(node[1], var), differentiate(node[2], var))
    if tag == "*":
        l, r = node[1], node[2]
        return _add(_mul(differentiate(l, var), r), _mul(l, differentiate(r, var)))
    if tag == "/":
        l, r = node[1], node[2]
        num = _sub(_mul(differentiate(l, var), r), _mul(l, differentiate(r, var)))
        return _div(num, _pow(r, _num(2.0)))
    if tag == "^":
        base, expo = node[1], node[2]
        if _is_num(expo):
            # power rule keeps negative bases with integer exponents valid
            c = expo[1]
            return _mul(_mul(_num(c), _pow(base, _num(c - 1.0))), differentiate(base, var))
        # f^g = exp(g ln f)
        inner = _add(_mul(differentiate(expo, var), ("ln", base)),
                     _mul(expo, _div(differentiate(base, var), base)))
        return _mul(node, inner)
    raise ExpressionError(f"corrupt node {node!r}")


_PRECEDENCE = {"+": 1, "-": 1, "*": 2, "/": 2, "neg": 3, "^": 4}


def to_text(node, parent_prec=0):
    """Render back to grammar text (semantics-preserving)."""
    tag = node[0]
    if tag == "num":
        v = node[1]
        if v < 0:
            return to_text(("neg", _num(-v)), parent_prec)
        return f"{v:.17g}"
    if tag == "var":
        return f"x{node[1] + 1}" if node[1] > 0 else "x"
    if tag in ("exp", "ln"):
        return f"{tag}({to_text(node[1])})"
    if tag == "neg":
        body = f"-{to_text(node[1], _PRECEDENCE['neg'])}"
        return f"({body})" if parent_prec > _PRECEDENCE["neg"] else body
    prec = _PRECEDENCE[tag]
    # right operand of - and / needs a bump to keep associativity
    left = to_text(node[1], prec)
    right = to_text(node[2], prec + (1 if tag in ("-", "/", "^") else 0))
    if tag == "^":
        left = to_text(node[1], prec + 1)
    body = f"{left} {tag} {right}" if tag in ("+", "-") else f"{left}{tag}{right}"
    return f"({body})" if prec < parent_prec else body


class CompiledExpression:
    """Callable expression with cached symbolic derivatives."""

    def __init__(self, text_or_node, dimension=1):
        if isinstance(text_or_node, str):
            self.node = parse(text_or_node, dimension)
        else:
            self.node = text_or_node
        self.dimension = dimension
        self._derivatives = {}

    def __call__(self, x):
        return evaluate(self.node, x, self.dimension)

    def derivative(self, var=0):
        if var not in self._derivatives:
            self._derivatives[var] = CompiledExpression(
                differentiate(self.node, var), self.dimension)
        return self._derivatives[var]

    @property
    def text(self):
        return to_text(self.node)

    def __repr__(self):
        return f"CompiledExpression({self.text!r})"
