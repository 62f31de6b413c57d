"""Finite-difference helpers used by several modules.

A point derivative of a callable without exact derivatives is taken by
``kinbench.generator._grad_hess``, in every dimension, from the 5-point
stencils ``central_d1`` and ``central_d2`` at h = 1e-3 max(1, max|x_i|);
no rule here goes above order two.
"""

from __future__ import annotations

import numpy as np


def central_d1(f, x, h):
    """Fourth-order central first derivative of a callable."""
    return (-f(x + 2 * h) + 8 * f(x + h) - 8 * f(x - h) + f(x - 2 * h)) / (12 * h)


def central_d2(f, x, h):
    """Fourth-order central second derivative of a callable."""
    return (-f(x + 2 * h) + 16 * f(x + h) - 30 * f(x)
            + 16 * f(x - h) - f(x - 2 * h)) / (12 * h * h)


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
