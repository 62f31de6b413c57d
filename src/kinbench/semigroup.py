"""Semigroup evolution by uniformization, resolvents, and the chain's moments.

Uniformization writes e^{Qt} as a Poisson mixture of powers of the
stochastic matrix P = I + Q/lambda, so nonnegativity and row sums survive
exactly up to the scalar Poisson tail; that is why it is used here instead
of Pade or Krylov exponentials.  Long horizons are split into 2^k levels
of a short-time series: squared k times as a dense kernel, with the
defect tracked, or applied 2^k times to a vector as a sparse series.

The dense kernels are built in one way only (``_kernels``), any
number per call.  P = I + Q/lambda does not depend on t, so one pass over
the powers of P gives the series on the identity of every t in the call:
the Chapman-Kolmogorov check builds P(t+s), P(t) and P(s) from one pass.
The pass is band-limited: with b the bandwidth of Q (1 in 1-D, the
last-axis stride in n-D), term k of a block of columns touches only the
rows within k*b of the block.  Until those rows span the chain, the term
is computed from P's diagonals, added in the order its rows store their
columns, so each kernel is bitwise the full n x n series.  Before each
squaring, entries below the flush floor eps*tail/n in magnitude are set
to zero, tail being the plan's per-level Poisson tail: about 2e-36 for the
Chapman-Kolmogorov kernels of appendix2a at n = 1001.  The plan keeps
tail >= 1e-17 and no dense kernel has more than 2048 states, so the floor
is at least 1.1e-36 and a product of two kept entries at least 1.1e-72:
the squarings never multiply subnormals, and each drops at most
eps*tail of mass per row, at most 2^(k+1)*eps*tail through k squarings:
under 2 eps relative to the a-priori bound tail*2^k.  The reported defect,
that bound or the row-sum defect taken before renormalization if larger,
includes it.  Each squaring skips the blocks of the kernel that are
exactly zero (``_square``), so a kernel stays cheap while the flush keeps
its band narrow; a kernel whose rows all span the chain is squared as one
``M @ M``.

The dense memory of a call is a fixed, counted set of n x n arrays, each
owned by its kernel.  The pass returns each series as its band, the
diagonals it reaches, never more doubles than one dense array; the kernels
are then finished one at a time, each band expanded into a new array and
squared against one spare, which is dropped before the kernel is yielded.
One kernel takes two n x n arrays; the Chapman-Kolmogorov check takes
three: P(t) and P(s), their product, then P(t+s) once its factors are
dropped.

(P(t) - I)/t -> Q as t -> 0, so the short-time moments of the kernel over
t tend to Q's own Kramers-Moyal moments, and the rate of jumps longer than
r to the rates of Q that reach past r.  ``chain_moments`` reads these
limits from Q's diagonals, with no kernel and in any dimension.

One cost rule picks between the two for vector evolution, once per step
length.  ``evolve_series`` groups the steps of its schedule up front,
merging steps that differ only by the schedule's rounding (within 4 ulps
of its last time), and counts the steps of each group; a one-shot
``evolve_observable`` call is one step.  Per series term, the dense
kernel is charged n*(nnz + n) element updates: its series on the
identity, with the squarings left out so that the rule leans toward
dense.  Since the identity series is band-limited, that estimate
overstates it; the rule is kept as it is because the routes of the
shipped workloads, and so their artifact bytes, depend on it.  The
vector series costs steps*2^splits*(nnz + C), where C (``_MATVEC_COST``)
is the fixed cost of one sparse matvec plus two vector updates.  A step
length goes dense iff n <= 2048 and n*(nnz + n) <= steps*2^splits*(nnz + C).
A series route that would cost more than ``_SERIES_MAX_COST`` units raises
TruncationBudgetExceeded before it starts, as a chain too large for a
dense kernel does.

Q is a ``BandMatrix``, and so is P = I + Q/lambda (``_stochastic``): the
vector series and the identity series both multiply by P's diagonals.
``resolvent`` factors lam - Q in numpy too, by a banded elimination with
no subtraction (``_eliminate``, GTH at lam = 0), so this module uses no scipy.
"""

from __future__ import annotations

import logging
import math
from collections import Counter, namedtuple
from dataclasses import dataclass

import numpy as np

from .bands import BandMatrix
from .discretize import DiscreteGenerator
from .errors import (
    NoInvariantDensity,
    ParameterOutOfRange,
    ShapeError,
    SpectrumError,
    TimeError,
    TruncationBudgetExceeded,
)

LEVEL_MEAN = 64.0        # max Poisson mean per series level
MAX_SPLITS = 60
LAMBDA_MARGIN = 1.05     # keeps P's diagonal positive under rounding
_DENSE_MAX_STATES = 2048  # larger chains never build a dense n x n kernel
# C of the cost rule, in dense element updates.  Measured on a 2-vCPU host
# (numpy 2.4, scipy 1.17): one series term on a vector has a fixed cost of
# about 10 us, and a dense element update costs 1.6-2 ns, so C is 5,000-6,000;
# the power of two below leans toward the dense route.
_MATVEC_COST = 4096
# Columns per block of the identity series.  Term k of a block spans its width
# plus 2*k*b rows, so narrow blocks waste less of the band, while each term
# costs a few numpy calls per diagonal and per kernel whatever the width.
_BLOCK = 64
# Most units of the cost rule one series route may take.  A unit took 1.7-2.4
# ns in the vector series on a 2-vCPU Xeon (n = 2049-4001), so this is about
# 20 s of work.  The costliest series route of the shipped scenarios takes
# 3.9e7 units, and of the tests 2.5e8.
_SERIES_MAX_COST = 10**10

_log = logging.getLogger("kinbench.semigroup")


def _as_qmatrix(Q):
    return Q if isinstance(Q, DiscreteGenerator) else DiscreteGenerator(Q)


def _poisson_weights(mu, tail):
    """Poisson(mu) pmf truncated once the missed mass drops below tail
    (at mu = 0 the first term, 1.0, already holds it all)."""
    w = math.exp(-mu)
    weights = [w]
    cum = w
    n = 0
    while cum < 1.0 - tail:
        n += 1
        w = w * mu / n
        weights.append(w)
        cum += w
        if w < 1e-18 and n > mu:
            break  # machine completeness reached
    return np.array(weights)


def _split_count(mu):
    if mu <= LEVEL_MEAN:
        return 0
    levels = math.log2(mu / LEVEL_MEAN)  # inf when lambda*t overflows
    if levels > MAX_SPLITS:
        raise TruncationBudgetExceeded(
            f"horizon needs more than 2^{MAX_SPLITS} splits; reduce t or lambda")
    return math.ceil(levels)


def _check_times(*ts):
    """Raise TimeError unless every t is finite and nonnegative (NaN is neither)."""
    for t in ts:
        if not 0.0 <= t < math.inf:
            raise TimeError(f"t = {t:g}: evolution times must be finite and nonnegative")


def _check_tol(tol):
    """``tol`` when it lies in (0, 1e-6], else ParameterOutOfRange."""
    if not (0.0 < tol <= 1e-6):
        raise ParameterOutOfRange(f"tol must lie in (0, 1e-6], got {tol:g}")
    return tol


def time_schedule(times):
    """``times`` as a float array; raises unless one-dimensional, nonempty,
    finite, nonnegative and nondecreasing."""
    times = np.asarray(list(times) if np.iterable(times) else times, dtype=float)
    if times.ndim != 1:
        raise ShapeError(f"a time schedule is one-dimensional, got shape {times.shape}")
    if times.size == 0:
        raise ParameterOutOfRange("empty time schedule")
    if not (np.all(np.isfinite(times)) and np.all(times >= 0) and np.all(np.diff(times) >= 0)):
        raise TimeError("a time schedule is finite, nonnegative and nondecreasing")
    return times


def _stochastic(mat, lam):
    """P = I + mat/lam as a ``BandMatrix``, bitwise scipy's
    ``identity(n) + mat / lam``, whose division multiplies by 1/lam."""
    bands = mat.bands * (1 / lam)
    bands[np.searchsorted(mat.offsets, 0)] += 1.0
    return BandMatrix(mat.offsets, bands)


def _series_matvec(P, v, weights):
    acc = weights[0] * v
    pv = v
    for w in weights[1:]:
        pv = P @ pv
        acc = acc + w * pv
    return acc


_Plan = namedtuple("_Plan", "lam mu splits tail weights")


def _uniformization(qm, t, tol):
    """Plan for e^{Qt}: rate lam, Poisson mean mu = lam*t, and 2^splits
    levels, each a Poisson(mu/2^splits) series cut at the per-level tail;
    None when e^{Qt} is the identity, at t = 0 or Q = 0."""
    if t == 0 or qm.lambda_max == 0.0:
        return None
    lam = LAMBDA_MARGIN * qm.lambda_max
    mu = lam * t
    k = _split_count(mu)
    tail = max(min(tol, 1e-13) / (2 ** k), 1e-17)
    return _Plan(lam, mu, k, tail, _poisson_weights(mu / (2 ** k), tail))


@dataclass
class TransitionKernel:
    """Row-substochastic kernel matrix P(t) with its truncation defect."""

    P: np.ndarray
    truncation: float


def _identity_series(P, weight_sets):
    """[sum_k w_k P^k for w in weight_sets] from one pass over the powers of P.

    With b the largest |i - j| over P's diagonals, P^k e_j vanishes outside
    |i - j| <= k*b.  So for each block of columns [c0, c1), power k is
    computed once, on rows [c0 - k*b, c1 + k*b) only, and added into every
    set that has a term k.  The product is taken by P's diagonals, added in
    increasing offset as ``BandMatrix`` products are, so the rows outside
    the band add only signed zeros to sums that are never -0 and each result
    is bitwise equal to _series_matvec(P, np.eye(n), w).

    A set of K terms reaches only the diagonals |i - j| <= h = (K - 1)*b, so
    its series is returned as its band when 2h + 1 < n: an (n, 2h + 1)
    array whose row j holds column j's entries on rows j - h .. j + h, zero
    off the chain (``_expand`` makes it a kernel).  Otherwise it is returned
    as the n x n series itself, so no set takes more doubles than one dense
    array.  A block's column sums are kept h rows past each end of the
    chain, all zero, so each block is copied into the band through one
    skewed view.
    """
    n = P.shape[0]
    b = int(np.max(np.abs(P.offsets)))
    terms = max(len(w) for w in weight_sets)
    widths = [2 * (len(w) - 1) * b + 1 for w in weight_sets]
    out = [np.empty((n, min(width, n))) for width in widths]
    pads = [width // 2 if width < n else 0 for width in widths]
    for c0 in range(0, n, _BLOCK):
        c1 = min(c0 + _BLOCK, n)
        lo, hi, pv = c0, c1, np.eye(c1 - c0)
        sums = [np.zeros((n + 2 * pad, c1 - c0)) for pad in pads]  # the block's columns
        for acc, pad, w in zip(sums, pads, weight_sets):
            acc[pad + c0:pad + c1] = w[0] * pv
        for k in range(1, terms):
            r0, r1 = max(c0 - k * b, 0), min(c1 + k * b, n)
            nxt = np.zeros((r1 - r0, c1 - c0))
            for d, D in zip(P.offsets.tolist(), P.bands):
                i0, i1 = max(r0, lo - d), min(r1, hi - d)
                if i0 < i1:
                    nxt[i0 - r0:i1 - r0] += D[i0:i1, None] * pv[i0 + d - lo:i1 + d - lo]
            pv, lo, hi = nxt, r0, r1
            for acc, pad, w in zip(sums, pads, weight_sets):
                if k < len(w):
                    acc[pad + lo:pad + hi] += w[k] * pv
        for M, acc in zip(out, sums):
            if M.shape[1] == n:
                M[:, c0:c1] = acc
            else:
                M[c0:c1] = _skewed(acc[c0:], c1 - c0, M.shape[1])
    return out, b


def _skewed(A, rows, width):
    """The (rows, width) view V[j, e] = A[j + e, j] of a 2-D array A: the
    diagonals of A's columns, as a band stores them."""
    row, col = A.strides
    return np.lib.stride_tricks.as_strided(A, (rows, width), (row + col, row))


def _expand(band):
    """The n x n series of a band from ``_identity_series``: the array itself
    when it is stored dense, else a new array holding the band's diagonals
    and zeros elsewhere, filled ``_BLOCK`` columns at a time."""
    n, width = band.shape
    if width == n:
        return band
    h = width // 2
    M = np.zeros((n, n))
    slab = np.zeros((_BLOCK + 2 * h, _BLOCK))  # rows c0 - h .. c1 + h of a block
    for c0 in range(0, n, _BLOCK):
        c1 = min(c0 + _BLOCK, n)
        _skewed(slab, c1 - c0, width)[...] = band[c0:c1]  # never writes the corners
        r0, r1 = max(c0 - h, 0), min(c1 + h, n)
        M[r0:r1, c0:c1] = slab[r0 - c0 + h:r1 - c0 + h, :c1 - c0]
    return M


def _flush(M, floor):
    """Zero M's nonzero entries below ``floor`` in magnitude, in place and
    ``_BLOCK`` rows at a time, so with no n x n temporary.  Returns their
    count and, per row, the first nonzero column and the column one past
    the last (n and 0 for a row of zeros)."""
    rows, n = M.shape
    count = 0
    first = np.empty(rows, dtype=np.intp)
    last = np.empty(rows, dtype=np.intp)
    for r0 in range(0, rows, _BLOCK):
        block = slice(r0, r0 + _BLOCK)
        B = M[block]
        small = B < floor
        small &= B > -floor
        small &= B != 0.0
        count += int(np.count_nonzero(small))
        B[small] = 0.0
        nonzero = B != 0.0
        kept = nonzero.any(axis=1)
        first[block] = np.where(kept, nonzero.argmax(axis=1), n)
        last[block] = np.where(kept, n - nonzero[:, ::-1].argmax(axis=1), 0)
    return count, first, last


def _square(M, out, first, last):
    """out = M @ M with no work on the blocks of M that are zero, given
    M's per-row extents [first, last) from ``_flush``; returns the
    multiply-adds issued.

    Rows I of a ``_BLOCK``-row block read only the columns K = [min
    first(I), max last(I)), and rows K only the columns J = [min first(K),
    max last(K)), so out[I, J] = M[I, K] @ M[K, J] and the rest of out[I]
    is zero.  Consecutive blocks with the same K and J are one product, so
    a kernel whose rows all span the chain is one ``np.matmul(M, M)``.
    """
    n = M.shape[0]
    runs = []  # [r0, r1, k0, k1, j0, j1]
    for r0 in range(0, n, _BLOCK):
        r1 = min(r0 + _BLOCK, n)
        k0, k1 = int(first[r0:r1].min()), int(last[r0:r1].max())
        j0, j1 = (int(first[k0:k1].min()), int(last[k0:k1].max())) if k0 < k1 else (n, 0)
        if runs and runs[-1][2:] == [k0, k1, j0, j1]:
            runs[-1][1] = r1
        else:
            runs.append([r0, r1, k0, k1, j0, j1])
    work = 0
    for r0, r1, k0, k1, j0, j1 in runs:
        if j0 < j1:
            np.matmul(M[r0:r1, k0:k1], M[k0:k1, j0:j1], out=out[r0:r1, j0:j1])
            work += (r1 - r0) * (k1 - k0) * (j1 - j0)
        out[r0:r1, :j0] = 0.0
        out[r0:r1, j1:] = 0.0
    return work


def _kernels(qm, ts, tol):
    """Yield dense e^{Qt} for each t in ``ts`` in turn, as (kernel, defect)
    pairs, by uniformization with scaling and squaring.  A chain of more
    than _DENSE_MAX_STATES states raises TruncationBudgetExceeded at the
    first kernel, before the series pass and any n x n array.

    P = I + Q/lam does not depend on t, so the series on the identity of
    every t > 0 comes from one pass over P's powers (``_identity_series``),
    logged as one DEBUG ``series`` line, each series held as its band.  The
    kernels are then finished one at a time, each in an n x n array of its
    own: the band is expanded into it (``_expand``) and dropped, and the
    kernel is squared against one spare, dropped before the kernel is
    yielded.  So a kernel its caller drops is freed, and beside the kernels
    the caller keeps, the call holds at most two n x n arrays: two for a
    single kernel, three for ``chapman_kolmogorov_defect``, which drops P(t)
    and P(s) once it has their product.
    Before each squaring, entries below the flush floor eps*tail/n in
    magnitude are set to zero, with tail the plan's per-level Poisson tail.
    That drops at most eps*tail of mass per row per squaring, so at most
    2^(k+1)*eps*tail through k squarings: under 2 eps relative to the
    a-priori bound tail*2^k.  Since tail >= 1e-17 and n <= 2048, the floor
    is at least 1.1e-36, so no product of two kept entries is subnormal
    (OpenBLAS runs several times slower on those).  Each squaring
    (``_square``) skips the blocks of the kernel that are exactly zero, for
    the first squarings most of a banded one.

    Rows are renormalized to sum to one, as rows of e^{Qt} do (Q has zero
    row sums).  The returned defect is the larger of the Poisson tail
    bound tail*2^k and the row-sum defect measured before that
    renormalization, which also carries the squaring roundoff and the
    flushed mass.  One DEBUG ``kernel`` line per kernel logs that row-sum
    defect, the flush floor, the number of flushed entries, and the
    squarings' multiply-adds over splits*n^3 (``work``; 1 when they skip
    nothing or there are none).
    """
    n = qm.size
    if n > _DENSE_MAX_STATES:
        raise TruncationBudgetExceeded(f"a dense kernel on {n} states exceeds the limit "
                                       f"of {_DENSE_MAX_STATES}; use a coarser grid")
    plans = [_uniformization(qm, t, tol) for t in ts]
    live = [plan for plan in plans if plan is not None]
    if live:
        P = _stochastic(qm.Q, live[0].lam)
        bands, b = _identity_series(P, [plan.weights for plan in live])
        terms = max(p.weights.size for p in live)
        _log.debug("series pass: n=%d b=%d block=%d kernels=%d terms=%d half=%d",
                   n, b, min(_BLOCK, n), len(live), terms, min((terms - 1) * b, n - 1))
        bands.reverse()  # popped in order, so each band is freed as its kernel is expanded
    for t, plan in zip(ts, plans):
        if plan is None:
            yield np.eye(n), 0.0
            continue
        M = _expand(bands.pop())
        floor = np.finfo(float).eps * plan.tail / n
        flushed = work = 0
        spare = np.empty((n, n)) if plan.splits else None
        for _ in range(plan.splits):
            count, first, last = _flush(M, floor)
            flushed += count
            work += _square(M, spare, first, last)
            M, spare = spare, M
        spare = None  # freed before the kernel is yielded
        rs = M.sum(axis=1)
        row_defect = float(np.max(np.abs(rs - 1.0)))
        _log.debug("kernel %.15g: n=%d b=%d terms=%d splits=%d floor=%.3g flushed=%d "
                   "work=%.4g row_sum_defect=%.17g", t, n, b, plan.weights.size,
                   plan.splits, floor, flushed,
                   work / (plan.splits * n ** 3) if plan.splits else 1.0, row_defect)
        np.divide(M, rs[:, None], out=M, where=(rs > 0)[:, None])
        yield M, max(plan.tail * 2 ** plan.splits, row_defect)
        del M  # so a kernel its caller drops is freed before the next one is built


def transition_kernel(Q, t, tol=1e-9):
    """Transition kernel P(t); rows sum to one within the reported defect."""
    _check_times(t)
    _check_tol(tol)
    (M, defect), = _kernels(_as_qmatrix(Q), [t], tol)
    return TransitionKernel(M, defect)


def _step_operator(qm, t, tol, transpose, steps):
    """v -> e^{Qt} v (e^{Q^T t} v when transpose) for a step length applied
    ``steps`` times: a copy of v when t = 0 or Q = 0, else a dense kernel or
    a sparse series, by the module's cost rule.  A series costing more than
    ``_SERIES_MAX_COST`` raises TruncationBudgetExceeded before it starts."""
    plan = _uniformization(qm, t, tol)
    if plan is None:
        return np.copy
    n, nnz, terms = qm.size, qm.Q.nnz, plan.weights.size
    dense_cost = terms * n * (nnz + n)
    series_cost = steps * 2 ** plan.splits * terms * (nnz + _MATVEC_COST)
    dense = n <= _DENSE_MAX_STATES and dense_cost <= series_cost
    _log.debug("step %.15g: n=%d nnz=%d lam=%.6g mu=%.6g splits=%d terms=%d steps=%d "
               "dense_cost=%d series_cost=%d route=%s", t, n, nnz, plan.lam, plan.mu,
               plan.splits, terms, steps, dense_cost, series_cost,
               "dense" if dense else "series")
    if not dense and series_cost > _SERIES_MAX_COST:
        raise TruncationBudgetExceeded(
            f"the vector series on {n} states would take about {series_cost:.3g} element "
            f"updates ({steps} steps of length {t:g}), over the limit of "
            f"{_SERIES_MAX_COST:.3g}; use a coarser grid or a shorter horizon (a grid graded "
            "by the diffusion, or a spectral propagator for reversible chains, would also "
            "cut the cost; neither exists yet)")
    if dense:
        (M, _), = _kernels(qm, [t], tol)
        return (lambda v: M.T @ v) if transpose else (lambda v: M @ v)
    P = _stochastic(qm.Q.T if transpose else qm.Q, plan.lam)

    def series(v):
        for _ in range(2 ** plan.splits):
            v = _series_matvec(P, v, plan.weights)
        return v

    return series


def _chain_vector(qm, v):
    v = np.asarray(v, dtype=float)
    if v.shape != (qm.size,):
        raise ShapeError(f"vector length {v.shape} does not match chain size {qm.size}")
    return v


def _require(v, ok, what):
    """ParameterOutOfRange naming the first entry of v where the mask ``ok``
    is False, if there is one."""
    bad = np.flatnonzero(~ok)
    if bad.size:
        at = int(bad[0]) if v.ndim == 1 else tuple(map(int, np.unravel_index(bad[0], v.shape)))
        raise ParameterOutOfRange(f"{what}; entry {at} is {v.flat[bad[0]]:g}")


def _density(qm, nu0):
    """nu0 as a chain vector; ParameterOutOfRange unless finite and nonnegative."""
    vals = _chain_vector(qm, nu0)
    _require(vals, (vals >= 0) & (vals < math.inf),  # NaN fails both
             "initial density must be finite and nonnegative")
    return vals


def evolve_observable(Q, f0, t, tol=1e-9):
    """Observable-side evolution e^{Qt} f0.

    Guarantees, by construction: nonnegative input stays nonnegative,
    constants stay constant within tol, and the sup norm does not grow
    beyond tol.  A NaN or infinite f0 raises ParameterOutOfRange.
    """
    _check_times(t)
    _check_tol(tol)
    qm = _as_qmatrix(Q)
    f0 = _chain_vector(qm, f0)
    _require(f0, np.isfinite(f0), "observable must be finite")
    return _step_operator(qm, t, tol, False, 1)(f0)


@dataclass
class EvolutionResult:
    """Density snapshots, one ``(len(times), n)`` array, and its per-row mass/min/sup series."""

    times: np.ndarray
    fields: np.ndarray
    mass: np.ndarray
    min_value: np.ndarray
    sup_norm: np.ndarray


def evolve_series(Q, nu0, times, tol=1e-9):
    """Evolve a density through an increasing time schedule, reusing step operators.

    Steps of the same nominal length share one step operator.  Each
    difference of two schedule values is off by at most one ulp of
    ``times[-1]``, so two nominally equal steps differ by at most two; a
    positive step joins the first group whose first step it matches within
    4 ulps of ``times[-1]``, and otherwise starts a new group.  Each group's
    operator is built at the length of its first step and chosen by the
    module's cost rule from the group's step count: a dense kernel, built
    once and then one dense matvec per sample, or a sparse series of
    2^splits*terms matvecs per sample, whose matrix and Poisson weights are
    built once.
    """
    qm = _as_qmatrix(Q)
    times = time_schedule(times)
    _check_tol(tol)

    current = _density(qm, nu0)
    dts = np.diff(times, prepend=0.0)
    same = 4 * np.spacing(times[-1])
    firsts, group = [], []
    for dt in dts[dts > 0]:
        g = next((g for g, first in enumerate(firsts) if abs(dt - first) <= same), len(firsts))
        if g == len(firsts):
            firsts.append(dt)
        group.append(g)
    counts = Counter(group)
    ops = [_step_operator(qm, dt, tol, True, counts[g]) for g, dt in enumerate(firsts)]
    step_groups = iter(group)
    fields = np.empty((times.size, qm.size))
    for row, dt in zip(fields, dts):
        if dt > 0:
            current = ops[next(step_groups)](current)
        row[:] = current
    return EvolutionResult(
        times=times,
        fields=fields,
        mass=fields.sum(axis=1),
        min_value=fields.min(axis=1),
        sup_norm=np.abs(fields).max(axis=1),
    )


def chapman_kolmogorov_defect(Q, t, s, tol=1e-9):
    """Sup-norm defect between P(t+s) and P(t) P(s), all three kernels built
    from one series pass, in at most three n x n arrays at a time."""
    _check_times(t, s)
    _check_tol(tol)
    qm = _as_qmatrix(Q)
    kernels = _kernels(qm, [t, s, t + s], tol)
    (left, _), (right, _) = next(kernels), next(kernels)
    diff = left @ right
    del left, right  # freed before P(t+s) is finished
    (whole, _), = kernels
    np.subtract(whole, diff, out=diff)
    return float(np.max(np.abs(diff, out=diff).sum(axis=1)))


def resolvent(Q, lam, g):
    """Solve (lam - Q) f = g for g of shape (n,) or a block of columns (n, k).

    lam - Q is factored once per call by ``_eliminate``, a banded
    elimination that only adds and multiplies nonnegative numbers, and every
    column is solved against that factor.  So g >= 0 gives f >= 0 exactly,
    g = 1 gives lam f = 1 to rounding, and the M-matrix structure bounds
    ||lam f|| by ||g||.  Each column's result is bitwise that of solving it
    alone.  A non-finite g raises ParameterOutOfRange; a g whose first axis
    is not n raises ShapeError.
    """
    if not 0.0 < lam < math.inf:
        raise SpectrumError(f"resolvent parameter must be positive and finite, got {lam:g}")
    qm = _as_qmatrix(Q)
    g = np.asarray(g, dtype=float)
    if g.ndim not in (1, 2) or g.shape[0] != qm.size:
        raise ShapeError(f"right-hand side of shape {g.shape} does not match chain size {qm.size}")
    _require(g, np.isfinite(g), "resolvent right-hand side must be finite")
    band, windows = _eliminate(qm.Q, lam)
    n, b = qm.size, band.shape[1] // 2
    rhs = g.reshape(n, -1)
    _log.debug("resolvent solve: n=%d b=%d lam=%.6g columns=%d", n, b, lam, rhs.shape[1])
    y = np.zeros((n + b, rhs.shape[1]))
    y[:n] = rhs
    for k, W in enumerate(windows):  # forward: y_i = g_i + sum_k l_ik y_k
        y[k + 1:k + b + 1] += W[1:, :1] * y[k]
    for k in range(n - 1, -1, -1):  # back: f_k = (y_k + sum_j N_kj f_j) / d_k
        y[k] /= band[k, b]
        j0 = max(k - b, 0)
        y[j0:k] += windows[j0][:k - j0, k - j0, None] * y[k]
    return y[:n, 0].copy() if g.ndim == 1 else y[:n]


def _eliminate(Q, lam):
    """LU factors of lam - Q for the off-diagonal rates N_ij = Q[i, j] >= 0,
    by elimination without subtraction (Grassmann, Taksar and Heyman
    1985; Alfa, Xue and Ye 2002): the resolvent's at lam > 0, GTH at 0.

    Q's rows sum to zero, so the rows of lam - Q sum to lam: the diagonal
    is lam plus the row's off-diagonal rates and is never read.  With b the
    largest |offset| of Q, row i's rates sit in ``band[i, b + j - i]`` of an
    (n + b, 2b + 1) band, zero off the chain and in the b rows past it, and
    s_i, the row's excess over its rates, starts at lam.  Step k takes the
    pivot d_k = s_k + sum_{j > k} N_kj, the multipliers l_i = N_ik / d_k,
    and sets s_i += l_i s_k and N_ij += l_i N_kj for the rows below it on
    the chain: the active rows of lam - Q keep their off-diagonals at -N and
    their row sums at s, so each quantity is a sum of nonnegative terms.  A
    step works on ``windows[k]``, the (b + 1, b + 1) view W[r, c] =
    N_{k+r, k+c} of the band.  On return the band holds l_ik below the
    diagonal, d_k on it and N_kj of the upper factor above it; elimination
    fills in only inside b.  At lam = 0 the last pivot is 0 and never
    divided by; an earlier zero pivot raises NoInvariantDensity.
    """
    n = Q.shape[0]
    b = int(np.max(np.abs(Q.offsets), initial=0))
    band = np.zeros((n + b, 2 * b + 1))
    for d, D in zip(Q.offsets.tolist(), Q.bands):
        if d:
            rows = slice(max(0, -d), min(n, n - d))
            band[rows, b + d] = D[rows]
    row, col = band.strides
    windows = np.lib.stride_tricks.as_strided(band[:, b:], (n, b + 1, b + 1),
                                              (row, row - col, col))
    excess = np.full(n + b, float(lam))
    for k, W in enumerate(windows):
        d = W[0, 0] = excess[k] + W[0, 1:].sum()
        r = min(b, n - 1 - k)  # the rows past the chain are zero and stay so
        if r and not d > 0:
            raise NoInvariantDensity(f"non-communicating state {k} in the elimination")
        low = W[1:r + 1, 0]
        low /= d
        excess[k + 1:k + r + 1] += low * excess[k]
        W[1:r + 1, 1:r + 1] += low[:, None] * W[0, 1:r + 1]  # W's diagonal is overwritten by d
    return band, windows


def generator_at_max(Q, f):
    """Value of Qf at the argmax of f (ties broken to the lowest index); a
    NaN or infinite f raises ParameterOutOfRange."""
    qm = _as_qmatrix(Q)
    vals = _chain_vector(qm, f)
    _require(vals, np.isfinite(vals), "f must be finite")
    return float((qm.Q @ vals)[int(np.argmax(vals))])


@dataclass
class ChainMoments:
    """The chain's Kramers-Moyal moments at each node, with the jump length.

    ``drift`` (n, d) and ``diffusion`` (n, d, d) have the shapes of
    ``GeneratorSpec.drift`` and ``GeneratorSpec.diffusion``.
    """

    drift: np.ndarray
    diffusion: np.ndarray
    third_abs: np.ndarray
    reach: np.ndarray


def chain_moments(Q):
    """Sum_j Q_ij g(x_j - x_i) for the moments of ``ChainMoments``: the drift
    g = dx, the diffusion g = dx dx^T / 2, the third absolute moment
    g = |dx|^3, and the reach, the longest jump with Q_ij > 0 (0 on a zero row).

    These are the limits as t -> 0 of the moments of P(t) over t, and the
    rate of jumps longer than r is zero exactly where r >= reach (Pawula 1967;
    Dynkin 1965).  Each diagonal of Q is read once, with x from
    ``node_coordinates()`` as (n, d), so no n x n array is built in any
    dimension.  Only positive rates set the reach: an n-D band stores zero
    rates where it wraps from one row of the grid to the next.  A zero row
    has zero moments and reach.
    """
    qm = _as_qmatrix(Q)
    n, x = qm.size, qm.node_coordinates()
    x = x[:, None] if x.ndim == 1 else x
    drift = np.zeros(x.shape)
    diffusion = np.zeros(x.shape + x.shape[1:])
    third_abs = np.zeros(n)
    reach = np.zeros(n)
    for d, band in zip(qm.Q.offsets.tolist(), qm.Q.bands):
        if d == 0:
            continue
        rows = slice(max(0, -d), min(n, n - d))
        rate = band[rows]
        dx = x[rows.start + d:rows.stop + d] - x[rows]
        drift[rows] += rate[:, None] * dx
        diffusion[rows] += (0.5 * rate)[:, None, None] * dx[:, :, None] * dx[:, None, :]
        jump = np.sqrt(np.einsum("ij,ij->i", dx, dx))
        third_abs[rows] += rate * jump ** 3
        reach[rows] = np.maximum(reach[rows], np.where(rate > 0, jump, 0.0))
    return ChainMoments(drift, diffusion, third_abs, reach)
