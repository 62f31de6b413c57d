"""Finite-difference helpers used by several modules.

Point derivatives of a callable without exact derivatives follow one
rule, applied by :func:`kinbench.generator.derivatives` and, in every
dimension, ``kinbench.generator._grad_hess``: ``central_d1`` and
``central_d2`` (5-point stencils) at h = 1e-3 max(1, max|x_i|) for orders
1-2, and ``richardson_dm`` for orders 3 and up.
"""

from __future__ import annotations

import math

import numpy as np


def central_d1(f, x, h):
    """Fourth-order central first derivative of a callable."""
    return (-f(x + 2 * h) + 8 * f(x + h) - 8 * f(x - h) + f(x - 2 * h)) / (12 * h)


def central_d2(f, x, h):
    """Fourth-order central second derivative of a callable."""
    return (-f(x + 2 * h) + 16 * f(x + h) - 30 * f(x)
            + 16 * f(x - h) - f(x - 2 * h)) / (12 * h * h)


def central_dm(f, x, h, m):
    """Order-m central difference (2nd-order accurate), 1 <= m <= 6.

    Coefficients are binomial; odd m uses the half-offset average form.
    """
    k = np.arange(m + 1)
    signs = (-1.0) ** k
    binom = np.array([float(math.comb(m, int(j))) for j in k])
    offsets = (m / 2.0 - k) * h
    if m % 2 == 0:
        vals = np.array([f(x + o) for o in offsets])
        return float(np.dot(signs * binom, vals)) / h**m
    # average the two staggered stencils to land back on x
    vals_plus = np.array([f(x + o + h / 2) for o in offsets])
    vals_minus = np.array([f(x + o - h / 2) for o in offsets])
    d_plus = float(np.dot(signs * binom, vals_plus)) / h**m
    d_minus = float(np.dot(signs * binom, vals_minus)) / h**m
    return 0.5 * (d_plus + d_minus)


def richardson_dm(f, x, m):
    """Richardson-extrapolated order-m derivative at a point (about 4th order).

    Combines central differences at h = 5e-2 max(1, |x|) and h/2.
    """
    h = 5e-2 * max(1.0, abs(x))
    d_h = central_dm(f, x, h, m)
    d_h2 = central_dm(f, x, h / 2, m)
    return (4.0 * d_h2 - d_h) / 3.0


def one_sided_d1(values, x, at_start=True):
    """Second-order one-sided first derivative at a boundary node, per row of a stack."""
    if at_start:
        h1 = x[1] - x[0]
        h2 = x[2] - x[1]
        # 3-point nonuniform one-sided stencil
        c0 = -(2 * h1 + h2) / (h1 * (h1 + h2))
        c1 = (h1 + h2) / (h1 * h2)
        c2 = -h1 / (h2 * (h1 + h2))
        return c0 * values[..., 0] + c1 * values[..., 1] + c2 * values[..., 2]
    h1 = x[-1] - x[-2]
    h2 = x[-2] - x[-3]
    c0 = (2 * h1 + h2) / (h1 * (h1 + h2))
    c1 = -(h1 + h2) / (h1 * h2)
    c2 = h1 / (h2 * (h1 + h2))
    return c0 * values[..., -1] + c1 * values[..., -2] + c2 * values[..., -3]


def trapezoid_weights(x):
    """Trapezoidal quadrature weights for strictly increasing nodes."""
    x = np.asarray(x, dtype=float)
    w = np.empty_like(x)
    w[1:-1] = 0.5 * (x[2:] - x[:-2])
    w[0] = 0.5 * (x[1] - x[0])
    w[-1] = 0.5 * (x[-1] - x[-2])
    return w
