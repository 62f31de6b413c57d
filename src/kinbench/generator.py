"""Continuous diffusion generators, their Gibbs-structure field, and the example catalog.

A generator acts on observables as ``a(x) f'' + b(x) f'`` (sums over axes in
higher dimension).  Coefficients may be plain callables, numpy polynomials
or compiled expressions (see :mod:`kinbench.expressions`).  A 1-D
coefficient takes the whole point array in one call, as assembly calls it;
an n-D one takes one point.  The checks and assembly read a and b through
``GeneratorSpec.diffusion`` and ``GeneratorSpec.drift``.

One rule differentiates: a derivative is exact where ``_derivative_of``
finds it (compiled expressions, 1-D polynomials), and
``pawula.apply_operator`` takes no other; on the 1-D grid nodes any other
callable's, in ``_on_nodes(f, x, m)``, and every node field's, the wall
flux's included, is ``np.gradient(..., edge_order=2)`` (second order at the
walls).

A reference density is analytic (``EquilibriumDensity``) or it is samples
on the grid nodes (an array, read by ``_samples``); ``compute_Hi`` and
``htheorem.boundary_term`` take either, and the grid.  In 1-D the formal
adjoint is (a rho)'' - (b rho)' = -(rho H_i)'/2, so a density is the
no-flux equilibrium exactly when its field H_i from ``compute_Hi`` is zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from numpy.polynomial import Polynomial

from .errors import (
    DomainError,
    MissingGibbsForm,
    NonEllipticCoefficient,
    ParameterOutOfRange,
    ShapeError,
    UnknownExample,
    UnsupportedTensor,
)
from .expressions import CompiledExpression

EIG_FLOOR = -1e-12


@dataclass(frozen=True)
class DomainSpec:
    """Truncated computational domain.

    kind: 'full-line' | 'half-line' | 'box'; finite bounds per axis as
    (lo, hi); half-line truncation requires lo > 0.
    """

    kind: str
    bounds: tuple
    boundary_condition: str = "no-flux"

    def __post_init__(self):
        if self.kind not in ("full-line", "half-line", "box"):
            raise DomainError(f"unknown domain kind {self.kind!r}")
        if self.boundary_condition not in ("no-flux", "absorbing"):
            raise DomainError(f"unknown boundary condition {self.boundary_condition!r}")
        bounds = tuple(tuple(float(v) for v in ax) for ax in self.bounds)
        object.__setattr__(self, "bounds", bounds)
        for lo, hi in bounds:
            if not (np.isfinite(lo) and np.isfinite(hi)):
                raise DomainError(f"bounds must be finite, got ({lo}, {hi})")
            if not lo < hi:
                raise DomainError(f"bounds must satisfy lo < hi, got ({lo}, {hi})")
            if self.kind == "half-line" and lo <= 0:
                raise DomainError("half-line truncation requires lo > 0")

    @property
    def dimension(self):
        return len(self.bounds)

    def contains(self, x, interior=False):
        """Whether every point of ``x`` lies in the domain (strictly inside
        when ``interior``); a NaN or infinite coordinate never does."""
        pt = np.atleast_1d(np.asarray(x, dtype=float))
        if pt.shape[-1] != self.dimension or not np.all(np.isfinite(pt)):
            return False
        lo, hi = np.array(self.bounds).T
        return bool(np.all((lo < pt) & (pt < hi) if interior else (lo <= pt) & (pt <= hi)))


def _as_point(x, dimension):
    """A point as coefficients take it: a float in 1-D, a vector in n-D."""
    x = np.asarray(x, dtype=float)
    if x.size != dimension:
        raise ShapeError(f"point has {x.size} coordinates, expected {dimension}")
    return x.item() if dimension == 1 else x.reshape(dimension)


def _require_finite(name, values, points):
    """ParameterOutOfRange at the first non-finite entry of the (k, ...) values
    of ``name`` at the (k, d) ``points``, row-major."""
    bad = ~np.isfinite(values)
    if bad.any():
        first = np.unravel_index(np.argmax(bad), bad.shape)
        raise ParameterOutOfRange(f"{name} = {values[first]:g} at point {first[0]} "
                                  f"(x = {points[first[0]].tolist()}) is not finite")


def _require_floor(eigenvalues, points):
    """NonEllipticCoefficient at the first of the k ``points`` where a's
    (k, d) ``eigenvalues`` dip below EIG_FLOOR."""
    low = eigenvalues.min(axis=1, initial=np.inf)
    if np.any(low < EIG_FLOOR):
        i = int(np.argmax(low < EIG_FLOOR))
        raise NonEllipticCoefficient(f"a has eigenvalue {low[i]:g} < 0 at point {i} (x = "
                                     f"{np.reshape(points, (low.size, -1))[i].tolist()})")


def _derivative_of(f, var=0, dimension=1):
    """Exact partial derivative along axis ``var`` of a compiled expression,
    or derivative of a polynomial when ``dimension`` is 1, else None."""
    if isinstance(f, CompiledExpression):
        return f.derivative(var)
    if isinstance(f, Polynomial) and dimension == 1:
        return f.deriv()
    return None


def _on_nodes(f, x, m=0):
    """[f, f', ..., f^(m)] on the 1-D node array x, each of shape x.shape."""
    out = [np.broadcast_to(np.asarray(f(x), dtype=float), x.shape)]
    for _ in range(m):
        f = _derivative_of(f)
        out.append(np.broadcast_to(np.asarray(f(x), dtype=float), x.shape) if f is not None
                   else np.gradient(out[-1], x, edge_order=2))
    return out


@dataclass(frozen=True)
class GeneratorSpec:
    """Second-order generator: diffusion field a, drift field b, domain.

    In 1-D, ``a`` and ``b`` map the whole point array to values in one
    call.  In n-D, ``a`` maps a point to a symmetric (n, n) matrix and
    ``b`` to an (n,) vector.
    """

    dimension: int
    a: Callable
    b: Callable
    domain: DomainSpec
    label: str = ""

    def __post_init__(self):
        if self.dimension < 1:
            raise DomainError("dimension must be a positive integer")
        if self.domain.dimension != self.dimension:
            raise DomainError("domain dimension does not match spec dimension")

    def diffusion(self, points):
        """Symmetrized diffusion matrices at ``points``, shape (k, d, d)."""
        return self._sample("a", points)

    def drift(self, points):
        """Drift vectors at ``points``, shape (k, d)."""
        return self._sample("b", points)

    def _sample(self, name, points):
        """Coefficient ``name`` at ``points``, shaped as ``Grid.nodes_for_eval()``
        gives them or one point: one call in 1-D (one number may stand for
        all), one per point in n-D; ShapeError or ParameterOutOfRange else."""
        d = self.dimension
        shape = (d, d) if name == "a" else (d,)
        f = getattr(self, name)
        pts = np.asarray(points, dtype=float)
        if d > 1 and pts.size % d:
            raise ShapeError(f"points need {d} coordinates each, got shape {pts.shape}")
        out = f(pts) if d == 1 else [f(p) for p in pts.reshape(-1, d)]
        try:
            if d == 1:
                out = np.broadcast_to(np.asarray(out, dtype=float), pts.shape)
            pts = pts.reshape(-1, d)
            vals = np.array(out, dtype=float).reshape((len(pts),) + shape)
        except ValueError:
            raise ShapeError(f"{name} must map each point to "
                             f"{'one number' if d == 1 else f'shape {shape}'}") from None
        _require_finite(name, vals, pts)
        return 0.5 * (vals + vals.transpose(0, 2, 1)) if name == "a" and d > 1 else vals

    def check_admissible(self, points):
        """Raise NonEllipticCoefficient at the first point where an eigenvalue of
        a is below EIG_FLOOR (ParameterOutOfRange where a is not finite)."""
        _require_floor(np.linalg.eigvalsh(self.diffusion(points)), points)


@dataclass
class EquilibriumDensity:
    """Analytic reference density: a callable ``rho_fn``, Gibbs data, or both.

    ``gibbs`` is a pair (beta, H) with density proportional to
    exp(-beta*H).  Samples on grid nodes, the chain's own pi / w among
    them, are plain arrays, such as ``on_grid`` returns.
    """

    rho_fn: Callable | None = None
    gibbs: tuple | None = None
    total_mass: float = math.nan

    @property
    def normalizable(self):
        """Whether the total mass is known and finite."""
        return math.isfinite(self.total_mass)

    def on_grid(self, grid, normalize=False):
        """Samples on the grid nodes, an array (optionally quadrature-normalized:
        ParameterOutOfRange unless their total is positive and finite)."""
        if self.rho_fn is None:
            raise MissingGibbsForm("no analytic density to sample")
        vals = np.asarray(self.rho_fn(grid.nodes_for_eval()), dtype=float)
        vals = _samples(np.broadcast_to(vals, (grid.size,)), grid).copy()
        if np.any(vals < 0):
            raise ParameterOutOfRange("equilibrium density has negative samples")
        if normalize:
            total = float(np.dot(vals, grid.weights()))
            if not 0 < total < math.inf:
                raise ParameterOutOfRange(f"equilibrium density has total {total:g} on the "
                                          f"grid; normalizing needs a positive, finite one")
            vals /= total
        return vals


def _samples(values, grid):
    """Density samples on the nodes of ``grid`` as a (grid.size,) float array;
    ShapeError for any other shape, ParameterOutOfRange at the first non-finite."""
    vals = np.asarray(values, dtype=float)
    if vals.shape != (grid.size,):
        raise ShapeError(f"density samples have shape {vals.shape}, "
                         f"expected one per grid node, ({grid.size},)")
    _require_finite("rho", vals, np.reshape(grid.nodes_for_eval(), (grid.size, -1)))
    return vals


def compute_Hi(spec, rho0, grid):
    """Departure-from-gradient-structure field 2(beta a H' - a' + b) on the 1-D grid.

    beta and H come from the Gibbs data of an EquilibriumDensity ``rho0``;
    from strictly positive samples on the nodes, beta*H = -ln(rho/max rho)
    with beta = 1, differentiated by ``np.gradient``.
    """
    if spec.dimension != 1:
        raise UnsupportedTensor("compute_Hi supports dimension 1 in v1")
    x = grid.x
    if isinstance(rho0, EquilibriumDensity):
        if rho0.gibbs is None:
            raise MissingGibbsForm("rho0 has no gibbs data; recovery needs its samples")
        beta, H = rho0.gibbs
        dh = _on_nodes(H, x, 1)[1]
    else:
        vals = _samples(rho0, grid)
        if np.any(vals <= 0):
            raise MissingGibbsForm("recovery needs strictly positive samples")
        beta, dh = 1.0, np.gradient(-np.log(vals / vals.max()), x, edge_order=2)
    a, da = _on_nodes(spec.a, x, 1)
    b, = _on_nodes(spec.b, x)
    return 2.0 * (float(beta) * a * dh - da + b)


# --------------------------------------------------------------------------
# Example catalog
# --------------------------------------------------------------------------

CATALOG_NAMES = ("appendix2a", "appendix2b", "ornstein-uhlenbeck", "pure-diffusion")


def catalog_example(name, alpha=1.0):
    """Build a cataloged generator and its analytic equilibrium density.

    Returns (GeneratorSpec, EquilibriumDensity).  The equilibrium is
    analytic; ``on_grid`` samples it on the nodes.  For the
    two parametric families the density is flagged non-normalizable for
    -1/2 <= alpha <= 0.
    """
    if name not in CATALOG_NAMES:
        raise UnknownExample(f"unknown example {name!r}; choose from {CATALOG_NAMES}")
    alpha = 1.0 if alpha is None else float(alpha)

    if name == "ornstein-uhlenbeck":
        return _example("full-line", (-8.0, 8.0), "1", "-x", name,
                        "exp(-x^2/2)", "x^2/2", math.sqrt(2 * math.pi))
    if name == "pure-diffusion":
        return _example("box", (-1.0, 1.0), "1", "0", name, "1", "0", math.inf)

    if alpha < -0.5:
        raise ParameterOutOfRange(f"alpha = {alpha:g} < -1/2")
    normalizable = alpha > 0.0
    c = 2 * alpha - 1
    label = f"{name}(alpha={alpha:g})"
    if name == "appendix2a":
        p = alpha + 0.5
        mass = math.sqrt(math.pi) * math.gamma(alpha) / math.gamma(alpha + 0.5) \
            if normalizable else math.inf
        return _example("full-line", (-10.0, 10.0), "1 + x^2", f"-{c:.17g}*x", label,
                        f"(1 + x^2)^(-({p!r}))", f"{p:.17g}*ln(1 + x^2)", mass)
    # appendix2b: degenerate half-line family
    q = 2 * alpha + 1
    return _example("half-line", (0.05, 20.0), "x^2", f"1 - {c:.17g}*x", label,
                    f"x^(-({q!r}))*exp(-1/x)", f"{q:.17g}*ln(x) + 1/x",
                    math.gamma(2 * alpha) if normalizable else math.inf)


def _example(kind, bounds, a, b, label, rho, H, mass):
    """A 1-D catalog pair from its expressions, H being the Gibbs form at beta = 1."""
    E = CompiledExpression
    spec = GeneratorSpec(1, E(a), E(b), DomainSpec(kind, (bounds,)), label=label)
    return spec, EquilibriumDensity(rho_fn=E(rho), gibbs=(1.0, E(H)), total_mass=mass)
