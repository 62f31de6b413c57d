"""Maximum-principle checks and constructive order-obstruction certificates.

A differential operator that satisfies the maximum principle has order at
most two with nonnegative leading coefficient.  For any higher-order term
a local-maximum polynomial witnesses the violation: the certificate built
here is that computable witness (point, neighborhood radius, and the
strictly positive operator value at the maximum).

Derivatives of test functions follow the one rule of
:func:`kinbench.generator.derivatives`: exact for polynomials and compiled
expressions, finite differences for other callables.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from numpy.polynomial import Polynomial

from .errors import (
    NoViolationAtPoint,
    OrderTooLow,
    PreconditionViolated,
    ShapeError,
)
from .generator import derivatives

DEFAULT_EPSILON = 0.1


@dataclass(frozen=True)
class TruncatedOperator:
    """Differential operator sum_m c_m(x) d^m/dx^m with no zeroth-order term.

    1-D coefficients are keyed by integer order; n-D coefficients by
    multi-index tuples (one entry per axis, orders summing to the term
    order).
    """

    order: int
    coefficients: dict
    dimension: int = 1

    def __post_init__(self):
        if self.order < 1:
            raise OrderTooLow("operator order must be >= 1")
        for key in self.coefficients:
            m = key if isinstance(key, int) else sum(key)
            if m < 1:
                raise PreconditionViolated("zeroth-order terms are not allowed")
            if m > self.order:
                raise PreconditionViolated(f"coefficient {key} exceeds declared order")

    def coefficient(self, key):
        c = self.coefficients.get(key)
        if c is None:
            return lambda x: 0.0
        if callable(c):
            return c
        return lambda x, _v=float(c): _v

    def leading_keys(self):
        """Coefficient keys of maximal order."""
        out = []
        for key in self.coefficients:
            m = key if isinstance(key, int) else sum(key)
            if m == self.order:
                out.append(key)
        return out


def apply_operator(op, f, x):
    """Evaluate the truncated operator on a function at a point (1-D)."""
    if op.dimension != 1:
        raise ShapeError("apply_operator handles 1-D operators; n-D certificates "
                         "are evaluated through their exact monomial derivatives")
    x = float(x)
    keys = sorted(k for k in op.coefficients if isinstance(k, int))
    ds = derivatives(f, x, keys[-1]) if keys else []
    total = 0.0
    for key in keys:
        c = float(op.coefficient(key)(x))
        if c == 0.0:
            continue
        total += c * ds[key]
    return total


@dataclass(frozen=True)
class PawulaCertificate:
    """Witness that an operator of order >= 3 breaks the maximum principle.

    g has a strict local maximum 0 at x0, g <= 0 within validity_radius,
    and the operator applied to g at x0 equals ``value`` > 0.
    """

    x0: object
    epsilon: float
    amplitude: float
    order: int
    value: float
    validity_radius: float
    dimension: int = 1
    multi_index: tuple | None = None

    def polynomial(self):
        """The 1-D witness as a numpy Polynomial in x (not shifted)."""
        if self.dimension != 1:
            raise ShapeError("polynomial() is 1-D only")
        u = Polynomial([-self.x0, 1.0])
        return -self.epsilon * u**2 + self.amplitude * u**self.order

    def g(self, x):
        """Evaluate the witness polynomial at points."""
        if self.dimension == 1:
            u = np.asarray(x, dtype=float) - self.x0
            return -self.epsilon * u**2 + self.amplitude * u**self.order
        pt = np.asarray(x, dtype=float) - np.asarray(self.x0, dtype=float)
        mono = self.amplitude * np.prod(
            pt[..., [i for i, _ in self.multi_index]]
            ** np.array([a for _, a in self.multi_index]), axis=-1)
        return mono - self.epsilon * np.sum(pt**2, axis=-1)

    def describe(self):
        if self.dimension == 1:
            return (f"g(x) = -{self.epsilon:g}*(x - {self.x0:g})^2 "
                    f"+ {self.amplitude:g}*(x - {self.x0:g})^{self.order}")
        mono = "*".join(f"(x{i + 1} - {self.x0[i]:g})^{a}" for i, a in self.multi_index)
        return (f"g(x) = {self.amplitude:g}*{mono} "
                f"- {self.epsilon:g}*|x - x0|^2")


@dataclass(frozen=True)
class MaxPrincipleReport:
    passed: bool
    min_offdiag: float
    max_abs_rowsum: float
    worst_entry: tuple

    def __bool__(self):
        return self.passed


def maximum_principle_check(Q):
    """Discrete maximum-principle check on a rate matrix.

    Passes iff all off-diagonal entries are >= -1e-12 and every row sums
    to zero within 1e-10.  Accepts DiscreteGenerator, sparse, or dense
    input; non-square input raises ShapeError.
    """
    mat = getattr(Q, "Q", Q)
    if sp.issparse(mat):
        dense = mat.toarray()
    else:
        dense = np.asarray(mat, dtype=float)
    if dense.ndim != 2 or dense.shape[0] != dense.shape[1]:
        raise ShapeError(f"expected a square matrix, got shape {dense.shape}")
    off = dense.copy()
    np.fill_diagonal(off, np.inf)
    i, j = np.unravel_index(np.argmin(off), off.shape)
    min_off = float(off[i, j]) if dense.shape[0] > 1 else 0.0
    rowsums = dense.sum(axis=1)
    max_rs = float(np.max(np.abs(rowsums))) if rowsums.size else 0.0
    passed = min_off >= -1e-12 and max_rs <= 1e-10
    return MaxPrincipleReport(passed, min_off, max_rs, (int(i), int(j), min_off))


def pawula_counterexample(op, x0, epsilon=DEFAULT_EPSILON, amplitude=None):
    """Construct the local-maximum witness for an operator of order >= 3.

    The default amplitude sign(c_k(x0)) * (2 eps |c2(x0)| + 1) /
    (k! |c_k(x0)|) makes the witness value at least 1; any amplitude with
    the right sign works and may be supplied explicitly.
    """
    k = op.order
    if k <= 2:
        raise OrderTooLow(f"order {k} operator satisfies the order bound; nothing to violate")
    if epsilon <= 0:
        raise PreconditionViolated("epsilon must be positive")
    if op.dimension == 1:
        return _counterexample_1d(op, float(x0), epsilon, amplitude)
    return _counterexample_nd(op, np.asarray(x0, dtype=float), epsilon, amplitude)


def _counterexample_1d(op, x0, epsilon, amplitude):
    k = op.order
    ck = float(op.coefficient(k)(x0))
    if ck == 0.0:
        raise NoViolationAtPoint(
            f"leading coefficient vanishes at x0 = {x0:g}; scan other points")
    c2 = float(op.coefficient(2)(x0))
    if amplitude is None:
        amplitude = math.copysign(1.0, ck) * (2 * epsilon * abs(c2) + 1.0) \
            / (math.factorial(k) * abs(ck))
    value = -2 * epsilon * c2 + math.factorial(k) * amplitude * ck
    if value <= 0:
        raise PreconditionViolated(
            f"supplied amplitude {amplitude:g} does not produce a positive value")
    radius = _validity_radius_1d(epsilon, amplitude, k)
    return PawulaCertificate(x0, epsilon, amplitude, k, value, radius)


def _validity_radius_1d(epsilon, amplitude, k):
    # g <= 0 iff a*u^(k-2) <= eps on both signs of u: for even k-2 and
    # a < 0 this holds everywhere, otherwise the binding root is at
    # (eps/|a|)^(1/(k-2))
    if (k - 2) % 2 == 0 and amplitude < 0:
        return math.inf
    return (epsilon / abs(amplitude)) ** (1.0 / (k - 2))


def _counterexample_nd(op, x0, epsilon, amplitude):
    k = op.order
    keys = [key for key in op.leading_keys() if not isinstance(key, int)]
    target = None
    ck = 0.0
    for key in keys:
        v = float(op.coefficient(key)(x0))
        if v != 0.0:
            target = key
            ck = v
            break
    if target is None:
        raise NoViolationAtPoint(f"no order-{k} coefficient is nonzero at {x0}")
    fact = 1.0
    for a in target:
        fact *= math.factorial(a)
    # second-order diagonal terms feed the -eps |u|^2 part
    c2_sum = 0.0
    n = x0.size
    for i in range(n):
        key = tuple(2 if j == i else 0 for j in range(n))
        c2_sum += float(op.coefficient(key)(x0))
    if amplitude is None:
        amplitude = math.copysign(1.0, ck) * (2 * epsilon * abs(c2_sum) + 1.0) / (fact * abs(ck))
    value = -2 * epsilon * c2_sum + fact * amplitude * ck
    if value <= 0:
        raise PreconditionViolated("supplied amplitude does not produce a positive value")
    multi = tuple((i, a) for i, a in enumerate(target) if a > 0)
    radius = _validity_radius_nd(epsilon, amplitude, multi, n)
    return PawulaCertificate(tuple(x0), epsilon, amplitude, k, value, radius,
                             dimension=n, multi_index=multi)


def _validity_radius_nd(epsilon, amplitude, multi, n, samples=2**14, seed=1234):
    """Sampled validity radius: min over quasi-random directions of the
    first positive root of g along the ray."""
    from scipy.stats import qmc

    k = sum(a for _, a in multi)
    sampler = qmc.Sobol(d=n, scramble=True, seed=seed)
    raw = sampler.random(samples)
    # map to directions on the unit sphere via inverse-gauss trick
    from scipy.special import erfinv

    z = math.sqrt(2.0) * erfinv(2 * raw - 1)
    norms = np.linalg.norm(z, axis=1)
    norms[norms == 0] = 1.0
    dirs = z / norms[:, None]
    mono = np.prod(
        dirs[:, [i for i, _ in multi]] ** np.array([a for _, a in multi]), axis=1)
    coef = amplitude * mono
    radius = np.full(samples, np.inf)
    pos = coef > 0
    radius[pos] = (epsilon / coef[pos]) ** (1.0 / (k - 2))
    return float(np.min(radius))


def scan_certificate(op, points, epsilon=DEFAULT_EPSILON):
    """First certificate over a point scan, or None when every point refuses.

    Deterministic merge: the lowest-index witness wins.
    """
    if op.order <= 2:
        raise OrderTooLow(f"order {op.order} operator; nothing to violate")
    for x0 in np.atleast_1d(points):
        try:
            return pawula_counterexample(op, x0, epsilon)
        except NoViolationAtPoint:
            continue
    return None


def second_order_sign_check(op, points):
    """Nonnegativity of the second-order coefficient over sample points.

    For GeneratorSpec input the n-D quadratic form is tested by its
    smallest eigenvalue.  Returns (passed, worst_value).
    """
    worst = math.inf
    if isinstance(op, TruncatedOperator):
        if op.order > 2:
            raise PreconditionViolated("sign check applies to operators of order <= 2")
        if op.dimension == 1:
            c2 = op.coefficient(2)
            for x in np.atleast_1d(points):
                worst = min(worst, float(c2(float(x))))
        else:
            for p in np.atleast_2d(points):
                for i in range(op.dimension):
                    key = tuple(2 if j == i else 0 for j in range(op.dimension))
                    worst = min(worst, float(op.coefficient(key)(p)))
    else:
        # GeneratorSpec-like: use the diffusion matrix
        for p in np.atleast_1d(points) if op.dimension == 1 else np.atleast_2d(points):
            amat = op.a_matrix(p)
            if op.dimension == 1:
                worst = min(worst, float(amat))
            else:
                worst = min(worst, float(np.linalg.eigvalsh(amat).min()))
    return worst >= -1e-12, worst


def cube_test(op, A, x0):
    """Value of the operator on A^3 at a zero of A.

    Pure second-order generators return 0 (within rounding) for every
    admissible A; a nonzero value flags higher-order structure.
    """
    if op.dimension != 1:
        raise ShapeError("cube_test supports 1-D operators and generators in v1")
    x0 = float(x0)
    A0 = float(A(x0))
    if abs(A0) > 1e-12:
        raise PreconditionViolated(f"A(x0) = {A0:g} is not zero")
    if hasattr(op, "a_matrix"):  # GeneratorSpec
        A0, dA0, d2A0 = derivatives(A, x0, 2)
        d1_cube = 3 * A0**2 * dA0
        d2_cube = 6 * A0 * dA0**2 + 3 * A0**2 * d2A0
        return float(op.a(x0)) * d2_cube + float(op.b(x0)) * d1_cube
    cube = A**3 if isinstance(A, Polynomial) else lambda x: float(A(x)) ** 3
    return apply_operator(op, cube, x0)
