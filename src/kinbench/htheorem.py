"""Invariant measures, convex-functional decay curves, and the dissipation identity.

Chain-level vectors here follow the measure convention (one number per
node, plain sums): with the invariant measure solved from the transpose
null space, the decay of sum_i m_i h(nu_i / m_i) is exact for every convex
h, so only rounding shows up in the monotonicity checks.  Quadrature
weights enter only where discrete fields are compared against continuum
densities and integrals; there every first derivative of a node field, the
wall flux's included, is ``np.gradient(..., edge_order=2)``.

Q's diagonals (its ``BandMatrix``) are all the lattice step reads.  Off
it, ``_closed_classes`` imports ``scipy.sparse`` and its ``csgraph`` in its
body, which load ``scipy.sparse.linalg`` and ``scipy.linalg`` too, so a
reversible chain never pays for them; GTH is the resolvent's banded
elimination at lam = 0 (``semigroup._eliminate``): O(m b^2) time and
O(m b) memory for bandwidth b, O(m^3) time for a dense chain.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .errors import (
    NoInvariantDensity,
    NonSmoothH,
    ParameterOutOfRange,
    ShapeError,
    SupportViolation,
)
from .bands import BandMatrix
from .generator import EquilibriumDensity, _on_nodes, _samples, compute_Hi
from .semigroup import _as_qmatrix, _eliminate, evolve_series

_CONVEXITY_PROBE = np.linspace(1e-6, 10.0, 1000)

# Relative flow imbalance accepted as rounding on the edges off the spanning
# tree: reversible 41x41 chains show 4e-15 (diagonal-tensor box) to 2.8e-13
# (drift -200x, pi spanning e^-12800); a chain with rotational drift shows
# 3e-3 already at rotation rate 1e-3.
BALANCE_TOL = 1e-12
_GTH_RESCALE = 2.0 ** 512  # GTH back-substitution rescales above this

_log = logging.getLogger("kinbench.htheorem")

# the built-in h functionals: name -> (h, h'', h(0))
_BUILTIN_H = {
    "xlogx": (lambda u: u * np.log(u), lambda u: 1.0 / u, 0.0),
    "square": (lambda u: u * u, lambda u: 2.0 * np.ones_like(u), 0.0),
    "abs-dev": (lambda u: np.abs(u - 1.0), None, 1.0),
    "square-dev": (lambda u: (u - 1.0) ** 2, lambda u: 2.0 * np.ones_like(u), 1.0),
}


@dataclass(frozen=True)
class HFunctional:
    """Convex function h on [0, inf) with an explicit value convention at 0.

    The built-in family: xlogx (h(0) = 0 by limit), square, abs-dev,
    square-dev, and tabulated custom functions.  Convexity is certified
    by sampled second differences at construction.
    """

    kind: str
    fn: object
    d2fn: object = None
    value_at_zero: float = 0.0
    probe: object = None

    def __post_init__(self):
        grid = _CONVEXITY_PROBE if self.probe is None else np.asarray(self.probe)
        vals = self.fn(grid)
        second = vals[2:] - 2 * vals[1:-1] + vals[:-2]
        if np.min(second) < -1e-12:
            raise ParameterOutOfRange(
                f"{self.kind}: sampled second differences dip to {np.min(second):g}; not convex")

    def __call__(self, u):
        u = np.asarray(u, dtype=float)
        if np.any(u < 0):
            raise ParameterOutOfRange("h is defined on nonnegative arguments")
        with np.errstate(divide="ignore", invalid="ignore"):
            vals = np.where(u == 0, self.value_at_zero, self.fn(np.maximum(u, 1e-300)))
        return vals if vals.ndim else float(vals)

    def d2(self, u):
        if self.d2fn is None:
            raise NonSmoothH(f"{self.kind} has no second derivative")
        return self.d2fn(np.asarray(u, dtype=float))

    @staticmethod
    def from_name(name, value_at_zero=None):
        if name not in _BUILTIN_H:
            raise ParameterOutOfRange(
                f"unknown h functional {name!r}; "
                "choose xlogx, square, abs-dev, square-dev, or build from_table")
        fn, d2fn, h0 = _BUILTIN_H[name]
        return HFunctional(name, fn, d2fn,
                           h0 if value_at_zero is None else float(value_at_zero))

    @staticmethod
    def from_table(points, values, value_at_zero=None):
        points = np.asarray(points, dtype=float)
        values = np.asarray(values, dtype=float)
        if points.size != values.size or points.size < 3:
            raise ParameterOutOfRange("table needs matching arrays of >= 3 points")
        order = np.argsort(points)
        points, values = points[order], values[order]
        fn = lambda u: np.interp(u, points, values)  # noqa: E731
        vz = values[0] if value_at_zero is None else value_at_zero
        # constant extrapolation beyond the table would fake concavity,
        # so certify convexity on the tabulated span only
        probe = np.linspace(points[0], points[-1], 1000)
        return HFunctional("custom-table", fn, None, vz, probe=probe)


@dataclass
class InvariantSolution:
    """Invariant measure(s) of a chain: pi solves Q^T pi = 0."""

    pi: np.ndarray
    unique: bool
    basis: list
    residual: float


def _class_measure(mat, defect):
    """GTH on a closed class of Q: its invariant measure, summing to 1.

    ``mat`` is the class's own Q (no rate leaves a closed class),
    eliminated by ``_eliminate`` at lam = 0; back-substitution starts from
    pi_{m-1} = 1, possibly far out in the tail: pi_i = sum_{k > i} l_ki pi_k.
    Dividing by the power of two _GTH_RESCALE whenever an entry exceeds it
    keeps pi finite, and changes no bit of a chain that never reaches it.
    """
    m = mat.shape[0]
    band, windows = _eliminate(mat, 0.0)
    b = band.shape[1] // 2
    pi = np.zeros(m + b)
    pi[m - 1] = 1.0
    for i in range(m - 2, -1, -1):
        pi[i] = windows[i][1:, 0] @ pi[i + 1:i + b + 1]
        if pi[i] > _GTH_RESCALE:
            pi[i:m] /= _GTH_RESCALE
    pi = pi[:m] / pi[:m].sum()
    _log.debug("invariant: gth path on %d states, b=%d, smallest pivot %.3g, "
               "%d entries underflowed to 0, lattice defect %.3g", m, b,
               band[:m - 1, b].min(initial=np.inf), np.sum(pi == 0.0), defect)
    return pi


def _lattice_balance(qm):
    """Detailed-balance measure along an axis-aligned spanning tree of the grid.

    Kolmogorov's criterion on the lattice: log pi accumulates
    log q_up - log q_down with ``np.cumsum`` along axis 0 at the origin of
    the later axes, then along axis 1 from there, and so on.  A chain
    without a grid is the path ``(n,)``.  Returns ``(pi, defect)`` with the
    largest relative detailed-balance defect
    ``|pi_i q_ij - pi_j q_ji| / max(...)`` over the off-diagonal entries
    that are not tree edges, or ``(None, inf)`` when a tree edge lacks a
    positive rate in either direction.  Tree edges balance by
    construction, so their defect is only the rounding of the cumsum.  The
    defect is taken in log space, where pi_i q_ij cannot underflow.
    """
    mat = qm.Q
    n = qm.size
    shape = qm.grid.shape if qm.grid is not None else (n,)
    ndim = len(shape)
    nodes = np.arange(n).reshape(shape)
    i, j, q = mat.entries()
    off = i != j
    i, j, q = i[off], j[off], q[off]
    low, step = np.minimum(i, j), np.abs(i - j)
    tree = np.zeros(i.size, dtype=bool)
    log_pi = np.zeros(shape)
    for ax in range(ndim):
        stride = int(np.prod(shape[ax + 1:]))
        head, later = (slice(None),) * ax, (0,) * (ndim - ax - 1)
        tails = nodes[head + (slice(-1),) + later]
        up = mat.diagonal(stride)[tails]
        down = mat.diagonal(-stride)[tails]
        if np.any(up <= 0) or np.any(down <= 0):
            return None, np.inf
        line = np.concatenate((np.zeros(shape[:ax] + (1,)),
                               np.cumsum(np.log(up) - np.log(down), axis=-1)), axis=-1)
        start = log_pi[head + (0,) + later]
        log_pi[head + (slice(None),) + later] = start[..., None] + line
        tree |= ((step == stride) & (low % stride == 0)
                 & (low // stride % shape[ax] < shape[ax] - 1))
    log_pi = log_pi.ravel()
    log_pi -= log_pi.max()
    pi = np.exp(log_pi)
    pi = pi / pi.sum()

    i, j, q = i[~tree], j[~tree], q[~tree]
    if not i.size:  # a path chain: every edge is a tree edge
        return pi, 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        forward = log_pi[i] + np.log(np.abs(q))
        backward = log_pi[j] + np.log(np.abs(mat[j, i]))
        rel = np.where(forward == backward, 0.0, -np.expm1(-np.abs(forward - backward)))
    return pi, float(rel.max(initial=0.0))


def _closed_classes(mat):
    """Each closed communicating class as (its nodes, ascending; its own Q), Q
    itself for a single class; transient states raise.  Nodes and Q's
    entries are grouped by class label with one stable sort each, so every
    class keeps its entries in row-major order."""
    from scipy.sparse import csgraph, csr_matrix  # deferred: see the module docstring

    n = mat.shape[0]
    rows, cols, q = mat.entries()
    edge = (rows != cols) & (q > 0)
    src, dst = rows[edge], cols[edge]
    adj = csr_matrix((np.ones(src.size, dtype=np.int8), (src, dst)), shape=(n, n))
    ncomp, labels = csgraph.connected_components(adj, directed=True, connection="strong")
    closed = np.ones(ncomp, dtype=bool)
    leaving = labels[src] != labels[dst]
    closed[labels[src][leaving]] = False
    transient = ~closed[labels]
    if np.any(transient):
        raise NoInvariantDensity(
            f"{int(np.sum(transient))} transient state(s); "
            "no strictly positive invariant density exists")
    if ncomp == 1:
        return [(np.arange(n), mat)]

    def grouped(keys):  # indices of keys, one array per class label
        ends = np.cumsum(np.bincount(keys, minlength=ncomp))[:-1]
        return np.split(np.argsort(keys, kind="stable"), ends)

    # without transient states every class is closed
    return [(nodes, BandMatrix.from_entries(*np.searchsorted(nodes, (rows[e], cols[e])),
                                            q[e], nodes.size))
            for nodes, e in zip(grouped(labels), grouped(labels[rows]))]


def solve_invariant(Q):
    """Invariant measure(s) with a uniqueness flag, in three steps.

    1. Lattice detailed balance (``_lattice_balance``): pi from a spanning
       tree of the grid, accepted when its relative detailed-balance
       defect is at or below ``BALANCE_TOL``.  Every reversible grid
       chain, in any dimension, ends here.
    2. Reachability: transient states mean no strictly positive invariant
       density exists (absorbing walls are the canonical case) and raise
       NoInvariantDensity.
    3. GTH elimination on each closed class, which keeps every entry of
       pi to full relative accuracy however widely they spread: the
       resolvent's banded elimination at lam = 0 on the class's own entries.

    Reducible chains return one basis vector per closed class with
    unique=False.  The path taken and the defect are logged at DEBUG
    under ``kinbench.htheorem``, the GTH path's with b, the smallest pivot
    and how many entries of pi underflowed to 0.
    """
    qm = _as_qmatrix(Q)
    mat = qm.Q

    pi, defect = _lattice_balance(qm)
    if defect <= BALANCE_TOL:
        _log.debug("invariant: lattice path, defect %.3g", defect)
        basis = [pi]
    else:
        basis = []
        for nodes, sub in _closed_classes(mat):
            basis.append(np.zeros(qm.size))
            basis[-1][nodes] = _class_measure(sub, defect)
    unique = len(basis) == 1
    pi = basis[0] if unique else sum(basis) / len(basis)
    residual = float(np.max(np.abs(mat.T @ pi)))
    return InvariantSolution(pi, unique, basis, residual)


def _reference_measure(Q, reference):
    """The reference measure on the chain nodes: the solved invariant measure
    for None, an InvariantSolution's pi, or a measure vector of the chain's
    length.  Anything else raises ParameterOutOfRange."""
    qm = _as_qmatrix(Q)
    if reference is None:
        return solve_invariant(qm).pi
    if isinstance(reference, InvariantSolution):
        return reference.pi
    try:
        m = np.asarray(reference, dtype=float)
    except (TypeError, ValueError):
        m = None
    if m is None or m.shape != (qm.size,):
        got = type(reference).__name__ if m is None else f"shape {m.shape}"
        raise ParameterOutOfRange(f"reference must be None, an InvariantSolution or a "
                                  f"measure vector of length {qm.size}, got {got}")
    return m


def h_function(reference, state, h):
    """Convex functional sum_i h(state_i / ref_i) ref_i of a measure vector.

    ``reference`` is a measure on the chain nodes (plain sums: the
    stochastic-matrix form).  Mass where the reference vanishes raises
    SupportViolation.
    """
    ref = np.asarray(reference, dtype=float)
    state_vals = np.asarray(state, dtype=float)
    if ref.shape != state_vals.shape:
        raise ParameterOutOfRange("reference and state lengths differ")
    dead = ref <= 0
    if np.any(dead):
        live_scale = float(np.max(np.abs(state_vals))) if state_vals.size else 0.0
        if np.any(np.abs(state_vals[dead]) > 1e-14 * max(live_scale, 1.0)):
            raise SupportViolation("state has mass where the reference density vanishes")
    alive = ~dead
    hvals = h(state_vals[alive] / ref[alive])
    return float(np.dot(hvals * ref[alive], np.ones(hvals.size)))


@dataclass
class HCurve:
    """H values along a time schedule with the worst observed increase."""

    times: np.ndarray
    H: np.ndarray
    max_increase: float
    dissipation: np.ndarray | None = None
    boundary: np.ndarray | None = None
    mass: np.ndarray | None = None

    def is_monotone(self, tol=0.0):
        return self.max_increase <= tol


def h_curve(Q, nu0, h, times, tol=1e-9, reference=None):
    """H(t) along the density evolution, against an invariant reference.

    With the default reference (the solved invariant measure) the curve
    is nonincreasing up to rounding; the worst increase is recorded.
    """
    return h_curves(Q, nu0, [h], times, tol, reference)[1][h.kind]


def h_curves(Q, nu0, hs, times, tol, reference=None, spec=None, boundary_density=None):
    """Evolve nu0 once and build one HCurve per functional in ``hs``.

    Returns ``(EvolutionResult, {h.kind: HCurve})``.  H is taken against
    the reference measure m (default: the solved invariant measure).
    Given the generator ``spec``, each curve also carries the dissipation
    rate and the boundary term of phi = nu/m at every time, with the
    density m / weights; ``boundary_density`` (for instance the analytic
    equilibrium) replaces that density in the boundary term.
    """
    qm = _as_qmatrix(Q)
    m = _reference_measure(qm, reference)
    result = evolve_series(qm, nu0, times, tol=tol)
    if spec is not None:
        phis = result.fields / m
        rho_density = m / qm.quadrature_weights()
        rho_boundary = rho_density if boundary_density is None else boundary_density
    curves = {}
    for h in hs:
        H = np.array([h_function(m, nu, h) for nu in result.fields])
        curve = HCurve(result.times, H, float(np.diff(H).max(initial=0.0)), mass=result.mass)
        if spec is not None:
            curve.dissipation = (dissipation_rate(spec, rho_density, phis, h, grid=qm.grid)
                                 if h.d2fn is not None else np.full(len(phis), np.nan))
            curve.boundary = boundary_term(spec, rho_boundary, phis, h, grid=qm.grid)
        curves[h.kind] = curve
    return result, curves


def _states(phi_tilde, grid):
    """phi_tilde as a float state (n,) or stack (k, n), n = grid.size; else ShapeError."""
    phi = np.asarray(phi_tilde, dtype=float)
    if phi.ndim not in (1, 2) or phi.shape[-1] != grid.size:
        raise ShapeError(f"states of shape {phi.shape} need one entry per grid node, n = {grid.size}")
    return phi


def dissipation_rate(spec, rho0, phi_tilde, h, grid):
    """Quadrature of -rho0 h''(phi) a (phi')^2 on ``grid``: the dissipation integral.

    ``rho0`` holds the density's samples, one finite number per node.  One
    state ``phi_tilde`` (n,) gives a float, a stack (k, n) one rate per row,
    and any other shape raises ShapeError.  The rate is nonpositive whenever
    a >= 0 and h is convex: the discrete face of the positivity/H-decay
    equivalence.
    """
    if h.d2fn is None:
        raise NonSmoothH(f"{h.kind} lacks the second derivative the identity needs")
    rho = _samples(rho0, grid)
    phi = _states(phi_tilde, grid)
    x = grid.x
    w = grid.weights()
    a, = _on_nodes(spec.a, x)
    grad = np.gradient(phi, x, axis=-1, edge_order=2)
    integrand = rho * h.d2(phi) * a * grad * grad
    rates = -np.array([np.dot(row, w) for row in integrand.reshape(-1, x.size)])
    return rates if phi.ndim > 1 else float(rates[0])


def boundary_term(spec, rho0, phi_tilde, h, grid):
    """Max magnitude of the boundary flux rho0 a d/dx h(phi) + h(phi) H_i.

    ``rho0`` is an EquilibriumDensity, sampled on the nodes of ``grid``
    with ``on_grid``, or its samples there; H_i comes from its Gibbs data
    when it has them and from the samples otherwise.  h is evaluated on the
    three nodes by each wall only, and d/dx h(phi) at a wall is the edge of
    ``np.gradient(..., edge_order=2)`` on those nodes.  One state
    ``phi_tilde`` (n,) gives a float, a stack (k, n) one flux per row; any
    other shape raises ShapeError.
    """
    analytic = isinstance(rho0, EquilibriumDensity)
    rho = rho0.on_grid(grid) if analytic else _samples(rho0, grid)
    x = grid.x
    # from n = 7 on, the gap between the two triples keeps np.gradient on its
    # nonuniform edge formulas even on a uniform grid
    walls = np.r_[0:3, max(3, x.size - 3):x.size]
    hvals = h(np.maximum(_states(phi_tilde, grid)[..., walls], 0.0))
    dh = np.gradient(hvals, x[walls], axis=-1, edge_order=2)
    Hi = compute_Hi(spec, rho0 if analytic and rho0.gibbs is not None else rho, grid)
    a_lo = float(np.asarray(spec.a(x[0]), dtype=float))
    a_hi = float(np.asarray(spec.a(x[-1]), dtype=float))
    lo = np.abs(rho[0] * a_lo * dh[..., 0] + hvals[..., 0] * Hi[0])
    hi = np.abs(rho[-1] * a_hi * dh[..., -1] + hvals[..., -1] * Hi[-1])
    flux = np.where(hi > lo, hi, lo)  # max(lo, hi) as Python takes it, NaN included
    return flux if flux.ndim else float(flux)


@dataclass
class ConsistencyReport:
    numeric_slope: float
    analytic_rate: float
    relative_gap: float
    boundary: float


def dH_dt_consistency(Q, spec, reference, nu0, h, t, dt, tol=1e-12):
    """Centered-difference dH/dt against the dissipation quadrature.

    Both sides are evaluated on the same discrete fields: the H curve is
    taken against ``reference`` (as in ``h_curves``: None for the solved
    invariant measure, an InvariantSolution, or a measure vector on the
    nodes), and the rate against its density form, so the reported gap
    isolates discretization error.
    """
    if t - dt < 0:
        raise ParameterOutOfRange("need t - dt >= 0 for the centered slope")
    if h.d2fn is None:
        raise NonSmoothH(f"{h.kind} lacks the second derivative the identity needs")
    m = _reference_measure(Q, reference)
    if np.any(m <= 0):
        raise NoInvariantDensity("reference measure must be strictly positive")
    _, curves = h_curves(Q, nu0, [h], [t - dt, t, t + dt], tol, reference=m, spec=spec)
    curve = curves[h.kind]
    slope = (curve.H[2] - curve.H[0]) / (2 * dt)
    rate, bterm = curve.dissipation[1], curve.boundary[1]
    denom = max(abs(rate), abs(slope))
    gap = 0.0 if denom < 1e-14 else abs(slope - rate) / denom
    return ConsistencyReport(float(slope), float(rate), float(gap), float(bterm))
