"""Grids and positivity-preserving Q-matrix assembly.

The exponential-fitting stencil keeps every off-diagonal nonnegative for
any drift/diffusion ratio, so the discrete maximum principle holds by
construction; central differencing is excluded because it violates it on
coarse grids; every ``DiscreteGenerator`` confirms it at construction
with ``pawula.maximum_principle_check``.  ``build_qmatrix`` is the one
assembler for every dimension: a loop over the axes whose only dimension
branch is the diagonal, which in 1-D keeps row sums exactly zero (see
``_exact_row_pair``); the coefficients come from ``GeneratorSpec.diffusion``
and ``drift``.  It writes Q's diagonals, one per axis direction and the
main one, into a ``BandMatrix``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .bands import BandMatrix
from .errors import (
    DomainError,
    NonEllipticCoefficient,
    ParameterOutOfRange,
    ShapeError,
    UnsupportedTensor,
)
from .generator import _require_floor
from .pawula import OFFDIAG_TOL, ROWSUM_TOL, MaxPrincipleReport, maximum_principle_check

DEGENERACY_THRESHOLD = 1e-14


def bernoulli_ratio(z):
    """B(z) = z / (e^z - 1), with B(0) = 1.

    Stable for all z: a Taylor branch near zero, expm1 elsewhere.  For
    large positive z the result underflows to 0 and for large negative z
    it approaches -z, both correct limits.
    """
    z = np.asarray(z, dtype=float)
    out = np.empty_like(z)
    small = np.abs(z) < 1e-5
    zs = z[small]
    out[small] = 1.0 - zs / 2 + zs**2 / 12
    with np.errstate(over="ignore"):
        zb = z[~small]
        out[~small] = np.where(np.isinf(np.exp(zb)), 0.0, zb / np.expm1(zb))
    return out


@dataclass(frozen=True)
class Grid:
    """Tensor-product node positions, finite and strictly increasing per axis;
    the domain owns the walls."""

    axes: tuple

    def __post_init__(self):
        axes = tuple(np.asarray(ax, dtype=float) for ax in self.axes)
        object.__setattr__(self, "axes", axes)
        for ax in axes:
            if ax.size < 3:
                raise DomainError("each axis needs at least 3 nodes")
            if not np.all(np.isfinite(ax)):
                raise DomainError("axis nodes must be finite")
            if np.any(np.diff(ax) <= 0):
                raise DomainError("axis nodes must be strictly increasing")

    @classmethod
    def from_domain(cls, domain, n):
        """Uniform grid over a DomainSpec; n is per-axis node count."""
        if np.isscalar(n):
            n = (int(n),) * len(domain.bounds)
        axes = tuple(np.linspace(lo, hi, k) for (lo, hi), k in zip(domain.bounds, n))
        return cls(axes)

    @property
    def ndim(self):
        return len(self.axes)

    @property
    def shape(self):
        return tuple(ax.size for ax in self.axes)

    @property
    def size(self):
        return int(np.prod(self.shape))

    @property
    def x(self):
        """1-D node coordinates (convenience accessor)."""
        if self.ndim != 1:
            raise ShapeError("x is only defined for 1-D grids")
        return self.axes[0]

    def nodes(self):
        """All node coordinates, shape (size, ndim), C-order."""
        mesh = np.meshgrid(*self.axes, indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=-1)

    def nodes_for_eval(self):
        """Coordinates in the shape coefficient callables expect."""
        return self.x if self.ndim == 1 else self.nodes()

    def weights(self):
        """Trapezoidal quadrature weights, flattened in C-order."""
        per_axis = [trapezoid_weights(ax) for ax in self.axes]
        w = per_axis[0]
        for wk in per_axis[1:]:
            w = np.multiply.outer(w, wk)
        return w.ravel()


def trapezoid_weights(x):
    """Trapezoidal quadrature weights for strictly increasing nodes."""
    x = np.asarray(x, dtype=float)
    w = np.empty_like(x)
    w[1:-1] = 0.5 * (x[2:] - x[:-2])
    w[0] = 0.5 * (x[1] - x[0])
    w[-1] = 0.5 * (x[-1] - x[-2])
    return w


@dataclass
class DiscreteGenerator:
    """Q-matrix (observable side) as a ``BandMatrix``, with assembly metadata.

    Any other Q (a dense array, nested lists or a scipy sparse matrix) is
    read into one; a non-square Q raises ShapeError and a non-finite entry
    ParameterOutOfRange, naming the first one.  Construction then runs
    ``maximum_principle_check`` once and keeps its report in
    ``maximum_principle``; a failing report raises NonEllipticCoefficient
    (an off-diagonal) or ShapeError (row sums).  A grid has one node per
    state, else ShapeError.
    """

    Q: BandMatrix
    grid: Grid | None = None
    scheme: str = "raw"
    lambda_max: float = field(init=False)
    maximum_principle: MaxPrincipleReport = field(init=False, repr=False)

    def __post_init__(self):
        if not isinstance(self.Q, BandMatrix):
            self.Q = BandMatrix.from_matrix(self.Q)
        if self.grid is not None and self.grid.size != self.size:
            raise ShapeError(f"a grid of {self.grid.size} nodes does not match "
                             f"a chain of {self.size} states")
        m, i = np.nonzero(~np.isfinite(self.Q.bands))
        if i.size:
            j = i + self.Q.offsets[m]
            first = np.lexsort((j, i))[0]
            raise ParameterOutOfRange(f"Q[{i[first]}, {j[first]}] = "
                                      f"{self.Q.bands[m[first], i[first]]:g} is not finite")
        self.lambda_max = float(np.max(np.abs(self.Q.diagonal()), initial=0.0))
        rep = self.maximum_principle = maximum_principle_check(self.Q)
        if not rep.min_offdiag >= -OFFDIAG_TOL:
            raise NonEllipticCoefficient(f"negative off-diagonal {rep.min_offdiag:g} "
                                         "breaks the discrete maximum principle")
        if not rep.max_abs_rowsum <= ROWSUM_TOL:
            raise ShapeError(f"row sums deviate from zero by {rep.max_abs_rowsum:g}")

    @property
    def size(self):
        return self.Q.shape[0]

    def node_coordinates(self):
        """Grid x-coordinates (n,) in 1-D and nodes (n, d) in n-D, or node
        indices (n,) for grid-free chains."""
        if self.grid is None:
            return np.arange(self.size, dtype=float)
        return self.grid.x if self.grid.ndim == 1 else self.grid.nodes()

    def quadrature_weights(self):
        """Grid weights, or ones for grid-free chains."""
        if self.grid is None:
            return np.ones(self.size)
        return self.grid.weights()


def _exact_row_pair(q_left, q_right):
    """Adjust the smaller neighbor rate so the row sums to zero exactly.

    With p = max, q = min, s = fl(p + q): q' = s - p is exact (Sterbenz)
    and {p, q', -s} sums to zero in every accumulation order.  A positive
    q below half an ulp of p would round to q' = 0 and cut the chain (cell
    Peclet numbers above about 37), so s steps up to the next double and
    q' is one ulp of p.  The perturbation is at most one ulp of the
    diagonal, and q' > 0 exactly when q > 0.
    """
    p = np.maximum(q_left, q_right)
    q = np.minimum(q_left, q_right)
    s = p + q
    s = np.where((q > 0) & (s == p), np.nextafter(p, np.inf), s)
    q_adj = s - p
    left_is_big = q_left >= q_right
    new_left = np.where(left_is_big, p, q_adj)
    new_right = np.where(left_is_big, q_adj, p)
    return new_left, new_right, -s


def _axis_rates(a, b, hm, hp, scheme):
    """Neighbor rates (q_minus, q_plus) for one axis of nodes.

    a, b sampled at nodes; hm/hp are distances to the neighbors (nan
    where the neighbor does not exist).  Degenerate nodes fall back
    to pure upwind drift.

    Boundary nodes are half-width finite-volume cells, which pins the
    zero-flux plane to the wall node itself (the invariant density then
    matches trapezoid cell widths and the boundary flux of evolved fields
    is second-order small).
    """
    has_m = ~np.isnan(hm)
    has_p = ~np.isnan(hp)
    hm_eff = np.where(has_m, hm, hp)
    hp_eff = np.where(has_p, hp, hm)
    span = np.where(has_m, hm, 0.0) + np.where(has_p, hp, 0.0)

    q_m = np.zeros_like(a)
    q_p = np.zeros_like(a)
    degenerate = a <= DEGENERACY_THRESHOLD
    nd = ~degenerate
    if np.any(nd):
        an = a[nd]
        bn = b[nd]
        if scheme == "exponential-fitting":
            zp = bn * hp_eff[nd] / an
            zm = bn * hm_eff[nd] / an
            q_p[nd] = (2 * an / (hp_eff[nd] * span[nd])) * bernoulli_ratio(-zp)
            q_m[nd] = (2 * an / (hm_eff[nd] * span[nd])) * bernoulli_ratio(zm)
            # B(z) underflows to 0 past a cell Peclet number of about 710; a
            # floor of one ulp of the opposite rate keeps both neighbours reachable
            q_p[nd], q_m[nd] = (np.maximum(q_p[nd], np.spacing(q_m[nd])),
                                np.maximum(q_m[nd], np.spacing(q_p[nd])))
        else:  # upwind, the one other scheme check_scheme admits
            q_p[nd] = 2 * an / (hp_eff[nd] * span[nd]) + np.maximum(bn, 0.0) / hp_eff[nd]
            q_m[nd] = 2 * an / (hm_eff[nd] * span[nd]) + np.maximum(-bn, 0.0) / hm_eff[nd]
    if np.any(degenerate):
        bd = b[degenerate]
        q_p[degenerate] = np.maximum(bd, 0.0) / hp_eff[degenerate]
        q_m[degenerate] = np.maximum(-bd, 0.0) / hm_eff[degenerate]
    q_m[~has_m] = 0.0
    q_p[~has_p] = 0.0
    return q_m, q_p


def check_scheme(name):
    """``name`` when it names a stencil ``build_qmatrix`` assembles, else DomainError."""
    if name not in ("exponential-fitting", "upwind"):
        raise DomainError(f"unknown scheme {name!r}; choose exponential-fitting or upwind")
    return name


def build_qmatrix(spec, grid, scheme="exponential-fitting"):
    """Assemble the discrete generator on a grid of any dimension.

    Each axis adds exponential-fitting (default) or upwind neighbor rates
    (``_axis_rates``) at its node stride.  ``spec.domain`` owns the walls:
    axes must end on its bounds exactly (else DomainError, before sampling),
    and by its rule no-flux walls couple inward only, absorbing walls get
    zero rows.  Diffusion tensors must be diagonal, else UnsupportedTensor.
    The diagonal is ``_exact_row_pair`` in 1-D, minus the summed rates otherwise.
    """
    check_scheme(scheme)
    if grid.ndim != spec.dimension:
        raise ShapeError("grid dimension does not match spec dimension")
    if tuple((ax[0], ax[-1]) for ax in grid.axes) != spec.domain.bounds:
        raise DomainError(f"grid axes must end on the domain's walls {spec.domain.bounds}")
    a, b = _sample_coefficients(spec, grid)
    shape = grid.shape
    n = grid.size
    idx = np.arange(n)
    multi = np.unravel_index(idx, shape)
    on_wall = np.any([(k == 0) | (k == size - 1) for k, size in zip(multi, shape)], axis=0)

    bands = {}
    diag = np.zeros(n)
    for ax, k in enumerate(multi):
        dxs = np.diff(grid.axes[ax])
        hm = np.where(k > 0, dxs[np.maximum(k - 1, 0)], np.nan)
        hp = np.where(k < shape[ax] - 1, dxs[np.minimum(k, dxs.size - 1)], np.nan)
        q_m, q_p = _axis_rates(a[:, ax], b[:, ax], hm, hp, scheme)
        if spec.domain.boundary_condition == "absorbing":
            q_m[on_wall] = 0.0
            q_p[on_wall] = 0.0
        if grid.ndim == 1:
            q_m, q_p, diag = _exact_row_pair(q_m, q_p)
        else:
            diag -= q_m + q_p
        stride = int(np.prod(shape[ax + 1:]))
        for q, step in ((q_m, -stride), (q_p, stride)):
            if np.any(q > 0):
                bands[step] = np.where(q > 0, q, 0.0)
    bands[0] = diag
    offsets = sorted(bands)
    Q = BandMatrix(offsets, np.array([bands[d] for d in offsets]), full_diagonal=True)
    return DiscreteGenerator(Q, grid, scheme)


def _sample_coefficients(spec, grid):
    """Diffusion diagonal and drift at every node, each of shape (size, ndim).

    Both are read through ``spec.diffusion`` and ``spec.drift``.  A node
    whose a has an off-diagonal entry above 1e-12 max(1, max|a|) raises
    UnsupportedTensor; the diagonal, a's eigenvalues, then passes the floor
    rule of ``check_admissible`` and is clipped at zero.
    """
    pts = grid.nodes_for_eval()
    mats = spec.diffusion(pts)
    a = np.diagonal(mats, axis1=1, axis2=2)
    off = np.abs(mats - a[..., None] * np.eye(grid.ndim)).max(axis=(1, 2))
    if np.any(off > 1e-12 * np.maximum(1.0, np.abs(mats).max(axis=(1, 2)))):
        raise UnsupportedTensor("off-diagonal diffusion entries are not supported in v1")
    _require_floor(a, pts)
    return np.maximum(a, 0.0), spec.drift(pts)
