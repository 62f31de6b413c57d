"""Maximum-principle checks and constructive order-obstruction certificates.

A differential operator that satisfies the maximum principle has order at
most two with nonnegative leading coefficient.  For any higher-order term
a local-maximum polynomial witnesses the violation: the certificate built
here is that computable witness (point, neighborhood radius, and the
strictly positive operator value at the maximum).

Coefficients are keyed by multi-indices (1-D operators may use integer
orders), so one construction serves every dimension: the witness
``A (x - x0)^a - eps |x - x0|^2`` and its closed-form validity radius.

A truncated operator differentiates its test function exactly, one
partial per unit of each multi-index through ``generator._derivative_of``,
in every dimension: every witness is a polynomial, so a test function
without exact partials (neither a 1-D numpy polynomial nor a compiled
expression) raises InsufficientSmoothness.  The checks judge truncated
operators only: a ``GeneratorSpec`` is second order by construction, and
``GeneratorSpec.check_admissible`` judges its diffusion.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import Polynomial

from .bands import BandMatrix
from .errors import (
    InsufficientSmoothness,
    NoViolationAtPoint,
    OrderTooLow,
    PreconditionViolated,
    ShapeError,
)
from .expressions import CompiledExpression
from .generator import EIG_FLOOR, _as_point, _derivative_of, _require_finite

DEFAULT_EPSILON = 0.1
OFFDIAG_TOL = 1e-12
ROWSUM_TOL = 1e-10


@dataclass(frozen=True)
class TruncatedOperator:
    """Differential operator sum_a c_a(x) d^a with no zeroth-order term.

    Coefficients are keyed by multi-indices: tuples with one derivative
    order per axis, whose sum is the order of the term.  A 1-D operator
    may key by integer order k, stored as (k,).
    """

    order: int
    coefficients: dict
    dimension: int = 1

    def __post_init__(self):
        if self.order < 1:
            raise OrderTooLow("operator order must be >= 1")
        coefficients = {self._key(key): c for key, c in self.coefficients.items()}
        object.__setattr__(self, "coefficients", coefficients)
        for key in coefficients:
            if sum(key) < 1:
                raise PreconditionViolated("zeroth-order terms are not allowed")
            if sum(key) > self.order:
                raise PreconditionViolated(f"coefficient {key} exceeds declared order")

    def _key(self, key):
        """A coefficient key as a multi-index of length ``dimension``."""
        key = (key,) if isinstance(key, int) else tuple(key)
        if len(key) != self.dimension:
            raise PreconditionViolated(f"key {key} needs {self.dimension} entries")
        if any(k < 0 for k in key):
            raise PreconditionViolated(f"key {key} has a negative entry")
        return key

    def coefficient(self, key):
        c = self.coefficients.get(self._key(key), 0.0)
        return c if callable(c) else lambda x, _v=float(c): _v


def _pure_second_order(op, x):
    """The coefficients of d^2/dx_i^2 at x, one per axis."""
    n = op.dimension
    return [float(op.coefficient(tuple(2 * (j == i) for j in range(n)))(x)) for i in range(n)]


def _exact_partial(g, axis, dimension):
    """The exact partial of test function g along ``axis``; InsufficientSmoothness
    when ``_derivative_of`` finds none."""
    g = _derivative_of(g, axis, dimension)
    if g is None:
        raise InsufficientSmoothness(
            f"no exact partial along axis {axis} of the test function: pass a numpy "
            "polynomial (1-D) or a CompiledExpression")
    return g


def apply_operator(op, f, x):
    """Evaluate the truncated operator on a test function at a point, each
    multi-index by exact partials (``_derivative_of``), in sorted key order;
    ParameterOutOfRange names the first coefficient or partial used that is
    not finite."""
    x = _as_point(x, op.dimension)
    at = np.reshape(x, (1, -1))
    total = 0.0
    for key in sorted(op.coefficients):
        g = f
        for axis in (i for i, a in enumerate(key) for _ in range(a)):
            g = _exact_partial(g, axis, op.dimension)
        c = float(op.coefficient(key)(x))
        _require_finite(f"coefficient {key}", np.array([c]), at)
        if c != 0.0:
            partial = float(g(x))
            _require_finite(f"partial {key} of the test function", np.array([partial]), at)
            total += c * partial
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
        axes, powers = zip(*self.multi_index)
        mono = self.amplitude * np.prod(pt[..., list(axes)] ** np.array(powers), axis=-1)
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


def maximum_principle_check(Q):
    """Discrete maximum-principle check on a rate matrix.

    Passes iff all off-diagonal entries are >= -OFFDIAG_TOL and every
    row sums to zero within ROWSUM_TOL.  Accepts DiscreteGenerator,
    ``BandMatrix``, sparse, or dense input; non-square input raises
    ShapeError.  Works on the diagonals and densifies only the worst row.
    Entries on no diagonal count as 0.0 off-diagonals, and ``worst_entry``
    is the first row-major position of the smallest off-diagonal (``(0, 0)``
    with value 0.0 when n <= 1; an empty matrix passes).
    """
    mat = getattr(Q, "Q", Q)
    if not isinstance(mat, BandMatrix):
        mat = BandMatrix.from_matrix(mat)
    n = mat.shape[0]
    if n == 0:
        return MaxPrincipleReport(True, 0.0, 0.0, (0, 0, 0.0))
    cols = np.arange(n) + mat.offsets[:, None]
    on = (cols >= 0) & (cols < n)
    on[mat.offsets == 0] = False
    row_min = np.where(on, mat.bands, np.inf).min(axis=0, initial=np.inf)
    implicit_zero = on.sum(axis=0) < n - 1
    row_min[implicit_zero] = np.minimum(row_min[implicit_zero], 0.0)
    i = int(np.argmin(row_min))
    row = np.zeros(n)
    row[cols[on[:, i], i]] = mat.bands[on[:, i], i]
    row[i] = np.inf
    j = int(np.argmin(row))
    min_off = float(row[j]) if n > 1 else 0.0
    max_rs = float(np.max(np.abs(mat @ np.ones(n))))
    passed = min_off >= -OFFDIAG_TOL and max_rs <= ROWSUM_TOL
    return MaxPrincipleReport(passed, min_off, max_rs, (i, j, min_off))


def pawula_counterexample(op, x0, epsilon=DEFAULT_EPSILON, amplitude=None):
    """Construct the local-maximum witness for an operator of order >= 3.

    For the first order-k multi-index a whose coefficient c_a is nonzero
    at x0, the operator maps g(u) = A u^a - eps |u|^2 at x0 to
    a! A c_a - 2 eps c2, with a! the product of factorials and c2 the
    summed pure second-order coefficients.  The default amplitude
    sign(c_a) (2 eps |c2| + 1) / (a! |c_a|) makes that value at least 1;
    any finite amplitude with the right sign works and may be supplied
    explicitly.  PreconditionViolated unless x0 is finite and epsilon and
    the value are positive and finite.
    """
    k = op.order
    if k <= 2:
        raise OrderTooLow(f"order {k} operator satisfies the order bound; nothing to violate")
    if not 0 < epsilon < math.inf:
        raise PreconditionViolated(f"epsilon = {epsilon:g} is not positive and finite")
    x0 = _as_point(x0, op.dimension)
    if not np.all(np.isfinite(x0)):
        raise PreconditionViolated(f"x0 = {x0} is not finite")
    for multi in (key for key in op.coefficients if sum(key) == k):
        ck = float(op.coefficient(multi)(x0))
        if ck != 0.0:
            break
    else:
        raise NoViolationAtPoint(
            f"every order-{k} coefficient vanishes at x0 = {x0}; scan other points")
    fact = math.prod(math.factorial(a) for a in multi)
    c2 = sum(_pure_second_order(op, x0))
    if amplitude is None:
        amplitude = math.copysign(1.0, ck) * (2 * epsilon * abs(c2) + 1.0) / (fact * abs(ck))
    value = -2 * epsilon * c2 + fact * amplitude * ck
    if not 0 < value < math.inf:  # a non-finite amplitude gives a non-finite value
        raise PreconditionViolated(
            f"amplitude {amplitude:g} gives the value {value:g}, not a positive, finite one")
    radius = _validity_radius(epsilon, amplitude, multi)
    if op.dimension == 1:
        return PawulaCertificate(x0, epsilon, amplitude, k, value, radius)
    pairs = tuple((i, a) for i, a in enumerate(multi) if a > 0)
    return PawulaCertificate(tuple(x0), epsilon, amplitude, k, value, radius, op.dimension, pairs)


def _validity_radius(epsilon, amplitude, multi):
    """Largest r with A u^a - eps |u|^2 <= 0 for |u| <= r.

    Along a unit direction d the witness is r^2 (A d^a r^(k-2) - eps), and
    |d^a| peaks at prod (a_i/k)^(a_i/2) where d_i^2 = a_i/k.  With every
    a_i even d^a >= 0, so A < 0 keeps the witness nonpositive everywhere.
    """
    if amplitude < 0 and all(a % 2 == 0 for a in multi):
        return math.inf
    k = sum(multi)
    peak = math.prod((a / k) ** (a / 2) for a in multi)
    return (epsilon / (abs(amplitude) * peak)) ** (1.0 / (k - 2))


def _truncated(op):
    """PreconditionViolated unless op is a TruncatedOperator."""
    if not isinstance(op, TruncatedOperator):
        raise PreconditionViolated(
            f"{type(op).__name__} is not a TruncatedOperator (a GeneratorSpec's "
            "diffusion is judged by its check_admissible)")


def second_order_sign_check(op, points):
    """Nonnegativity of the pure second-order coefficients over sample points.

    A non-finite coefficient raises ParameterOutOfRange naming the first
    point that has it.  Returns (passed, worst_value); no points give
    (True, inf).
    """
    _truncated(op)
    if op.order > 2:
        raise PreconditionViolated("sign check applies to operators of order <= 2")
    pts = np.reshape(np.asarray(points, dtype=float), (-1, op.dimension))
    values = np.array([_pure_second_order(op, _as_point(p, op.dimension)) for p in pts],
                      dtype=float).reshape(pts.shape)
    _require_finite("second-order coefficient", values, pts)
    worst = float(values.min(initial=np.inf))
    return worst >= EIG_FLOOR, worst


def cube_test(op, A, x0):
    """Value of the truncated operator on A^3 at a zero x0 of A.

    A^3 is taken exactly, as a polynomial or an expression, and the operator
    applied to it: a second-order operator gives 0 (within rounding) for
    every A, and a nonzero value flags higher-order structure.
    """
    _truncated(op)
    x0 = _as_point(x0, op.dimension)
    _exact_partial(A, 0, op.dimension)  # refuse A before calling it
    A0 = float(A(x0))
    if abs(A0) > 1e-12:
        raise PreconditionViolated(f"A(x0) = {A0:g} is not zero")
    # _exact_partial let only an expression or a 1-D polynomial through
    if isinstance(A, CompiledExpression):
        return apply_operator(op, CompiledExpression(("^", A.node, ("num", 3.0)), A.dimension), x0)
    return apply_operator(op, A**3, x0)
