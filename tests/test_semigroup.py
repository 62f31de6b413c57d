import functools
import json
import logging
import pathlib
import re
import tracemalloc

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp
from hypothesis import given
from hypothesis import strategies as st

from kinbench.discretize import DiscreteGenerator, Grid, bernoulli_ratio, build_qmatrix
from kinbench.errors import (
    ParameterOutOfRange,
    ShapeError,
    SpectrumError,
    TimeError,
    TruncationBudgetExceeded,
)
from kinbench.expressions import CompiledExpression as CE
from kinbench.generator import CATALOG_NAMES, DomainSpec, GeneratorSpec, catalog_example
import kinbench.semigroup as sg
from kinbench.semigroup import (
    chain_moments,
    chapman_kolmogorov_defect,
    evolve_observable,
    evolve_series,
    generator_at_max,
    resolvent,
    transition_kernel,
)
from kinbench.serialize import load_generator

from conftest import band_csr, gaussian_measure, toarray

ROOT = pathlib.Path(__file__).resolve().parent.parent


# ---------------------------------------------------------------------------
# observable and density evolution
# ---------------------------------------------------------------------------

def test_two_state_closed_form(two_state):
    for t in [0.25, 1.0, 3.0]:
        f = evolve_observable(two_state, np.array([1.0, 0.0]), t, tol=1e-12)
        exact = np.array([(1 + np.exp(-2 * t)) / 2, (1 - np.exp(-2 * t)) / 2])
        assert np.allclose(f, exact, atol=1e-12)


def test_constants_are_preserved(two_state, a2a201):
    for Q in [two_state, a2a201.Q]:
        ones = np.ones(Q.size)
        out = evolve_observable(Q, ones, 2.0, tol=1e-10)
        assert np.allclose(out, 1.0, atol=1e-10)


def test_time_zero_is_identity(a2a201):
    f0 = np.sin(a2a201.x)
    assert np.array_equal(evolve_observable(a2a201.Q, f0, 0.0), f0)


def test_negative_time_rejected(two_state):
    with pytest.raises(TimeError):
        evolve_observable(two_state, np.array([1.0, 0.0]), -0.1)


@pytest.mark.parametrize("t", [-0.1, float("nan"), float("inf")])
def test_negative_nan_and_infinite_times_rejected(two_state, monkeypatch, t):
    plans = []
    plan = sg._uniformization
    monkeypatch.setattr(sg, "_uniformization", lambda *a: plans.append(a) or plan(*a))
    v = np.array([1.0, 0.0])
    for call in (lambda: transition_kernel(two_state, t),
                 lambda: evolve_observable(two_state, v, t),
                 lambda: evolve_series(two_state, v, [0.0, t]),
                 lambda: chapman_kolmogorov_defect(two_state, 0.3, t),
                 lambda: chapman_kolmogorov_defect(two_state, t, 0.3)):
        with pytest.raises(TimeError):
            call()
    assert plans == []


def test_horizon_overflowing_the_poisson_mean_is_a_budget_error():
    # lambda*t overflows to inf although t is finite
    fast = DiscreteGenerator([[-10.0, 10.0], [10.0, -10.0]])
    with pytest.raises(TruncationBudgetExceeded):
        transition_kernel(fast, 1e308)


@pytest.mark.parametrize("name", ["appendix2a", "ornstein-uhlenbeck"])
@pytest.mark.parametrize("tol", [1e-9, 1e-15])
def test_poisson_series_stays_short_up_to_the_split_cap(name, tol):
    # _split_count keeps each level's mean at or below LEVEL_MEAN, so the
    # series length is bounded by the worst mean and tail, whatever t is
    qm = _1d_chain(name, 401, "exponential-fitting")
    lam = sg._uniformization(qm, 1.0, tol).lam
    cap = sg.LEVEL_MEAN * 2.0 ** sg.MAX_SPLITS / lam  # t at which the splits run out
    ts = np.concatenate([np.geomspace(1e-6, cap, 1001)[:-1],
                         [sg.LEVEL_MEAN / lam, cap * (1 - 1e-12)]])
    assert sg._uniformization(qm, ts[-1], tol).splits == sg.MAX_SPLITS
    assert max(sg._uniformization(qm, t, tol).weights.size for t in ts) <= 150
    with pytest.raises(TruncationBudgetExceeded):
        sg._uniformization(qm, 2 * cap, tol)


def test_tolerance_validated(two_state):
    with pytest.raises(ParameterOutOfRange):
        evolve_observable(two_state, np.array([1.0, 0.0]), 1.0, tol=1e-3)


def test_density_mass_conservation_from_delta(a2a201):
    nu0 = np.zeros(a2a201.grid.size)
    nu0[np.argmin(np.abs(a2a201.x))] = 1.0
    for t in [0.01, 0.5, 5.0]:
        vals = evolve_series(a2a201.Q, nu0, [t], tol=1e-9).fields[0]
        assert vals.sum() == pytest.approx(1.0, abs=1e-9)
        assert vals.min() >= 0.0


def test_two_state_density_limit(two_state):
    nu = evolve_series(two_state, np.array([1.0, 0.0]), [50.0], tol=1e-10).fields[0]
    assert np.allclose(nu, [0.5, 0.5], atol=1e-10)


def _absorbing_chain(n):
    spec = GeneratorSpec(1, CE("1"), CE("-x"),
                         DomainSpec("full-line", ((-4.0, 4.0),), "absorbing"))
    return build_qmatrix(spec, Grid.from_domain(spec.domain, n))


def test_absorbing_chain_interior_mass_decreases():
    Q = _absorbing_chain(81)
    nu0 = gaussian_measure(Q.grid.x, 0.0, 1.0)
    res = evolve_series(Q, nu0, [0.0, 1.0, 2.0, 4.0], tol=1e-10)
    interior = [float(np.sum((f.values if hasattr(f, "values") else f)[1:-1]))
                for f in res.fields]
    assert all(b < a for a, b in zip(interior, interior[1:]))
    # total mass including the wall states stays put
    assert np.allclose(res.mass, res.mass[0], atol=1e-10)


def test_evolution_budget_cap(two_state):
    with pytest.raises(TruncationBudgetExceeded):
        evolve_observable(two_state, np.array([1.0, 0.0]), 1e21, tol=1e-9)


# ---------------------------------------------------------------------------
# dense kernel vs. vector series: the cost rule
# ---------------------------------------------------------------------------

def _box_spec():
    """chain-2d's generator on [-4, 4]^2: a = diag(1 + x^2/4, 1), b = (-x, -2y)."""
    return GeneratorSpec(2, lambda p: np.diag([1.0 + p[0] ** 2 / 4.0, 1.0]),
                         lambda p: np.array([-p[0], -2.0 * p[1]]),
                         DomainSpec("box", ((-4.0, 4.0), (-4.0, 4.0))))


def _box_chain(n):
    """``_box_spec``'s chain on an n x n grid, with a Gaussian start."""
    spec = _box_spec()
    grid = Grid.from_domain(spec.domain, n)
    nu0 = np.exp(-np.sum((grid.nodes() - [1.0, -0.5]) ** 2, axis=1) / (2 * 0.7**2))
    return build_qmatrix(spec, grid), nu0 / nu0.sum()


def _count_kernel_builds(monkeypatch):
    """The (qm, ts, tol) arguments of every ``_kernels`` call."""
    calls = []
    build = sg._kernels
    monkeypatch.setattr(sg, "_kernels", lambda *a: calls.append(a) or build(*a))
    return calls


def _logged_lines(caplog, prefix):
    """key=value fields of each line logged under kinbench.semigroup that
    starts with ``prefix``."""
    out = []
    for r in caplog.records:
        if r.name == "kinbench.semigroup" and r.getMessage().startswith(prefix):
            fields = dict(f.split("=") for f in r.getMessage().split()[2:])
            out.append({k: v if k == "route" else float(v) for k, v in fields.items()})
    return out


def test_2d_chain_with_few_steps_builds_no_dense_kernel(monkeypatch):
    Q, nu0 = _box_chain(15)
    times = np.linspace(0.0, 2.0, 21)
    tol = 1e-14
    assert sg._uniformization(Q, 0.1, tol).splits == 0
    calls = _count_kernel_builds(monkeypatch)
    res = evolve_series(Q, nu0, times, tol=tol)
    assert calls == []
    ref, t_now = nu0, 0.0
    for t, field in zip(times, res.fields):
        if t > t_now:
            ref, t_now = transition_kernel(Q, t - t_now, tol=tol).P.T @ ref, t
        assert np.abs(field - ref).sum() <= 1e-12
    tail = sg._uniformization(Q, 0.1, tol).tail
    assert np.max(np.abs(res.mass - 1.0)) <= (times.size - 1) * tail


def test_appendix2a_series_builds_one_dense_kernel_per_step_key(a2a201, monkeypatch):
    nu0 = gaussian_measure(a2a201.x, 2.0, 1.0)
    calls = _count_kernel_builds(monkeypatch)
    evolve_series(a2a201.Q, nu0, np.linspace(0.0, 10.0, 201), tol=1e-12)
    # the 200 steps round to 0.05 and 0.05 +- 1 ulp of 10; one kernel, at 0.05
    assert [ts for _, ts, _ in calls] == [[0.05]]


def test_one_shot_density_agrees_across_routes(a2a201, monkeypatch):
    nu0 = gaussian_measure(a2a201.x, 2.0, 1.0)
    calls = _count_kernel_builds(monkeypatch)
    out = {}
    for route, patch in [("dense", ("_MATVEC_COST", 10**12)),
                         ("series", ("_DENSE_MAX_STATES", 0))]:
        with monkeypatch.context() as m:
            m.setattr(sg, *patch)
            before = len(calls)
            out[route] = evolve_series(a2a201.Q, nu0, [1.0], tol=1e-12).fields[0]
            assert len(calls) - before == (route == "dense")
    assert np.abs(out["dense"] - out["series"]).sum() <= 1e-12


def test_series_over_the_work_limit_fails_before_it_starts(monkeypatch, caplog):
    caplog.set_level(logging.DEBUG, logger="kinbench.semigroup")
    monkeypatch.setattr(sg, "_DENSE_MAX_STATES", 0)  # every step takes the series
    matvecs = []
    matvec = sg._series_matvec
    monkeypatch.setattr(sg, "_series_matvec", lambda *a: matvecs.append(1) or matvec(*a))
    qm = _1d_chain("appendix2a", 51, "exponential-fitting")
    nu0 = gaussian_measure(qm.node_coordinates(), 2.0, 1.0)
    times = np.linspace(0.0, 1.0, 21)
    evolve_series(qm, nu0, times, tol=1e-12)
    (line,) = _logged_lines(caplog, "step ")
    cost = int(line["series_cost"])
    monkeypatch.setattr(sg, "_SERIES_MAX_COST", cost)  # at the limit it runs
    matvecs.clear()
    evolve_series(qm, nu0, times, tol=1e-12)
    assert len(matvecs) == 20 * 2 ** line["splits"]
    monkeypatch.setattr(sg, "_SERIES_MAX_COST", cost - 1)
    matvecs.clear()
    with pytest.raises(TruncationBudgetExceeded,
                       match=re.escape(f"on 51 states would take about {cost:.3g} element "
                                       f"updates (20 steps of length 0.05), over the limit "
                                       f"of {cost - 1:.3g}; use a coarser grid")):
        evolve_series(qm, nu0, times, tol=1e-12)
    assert matvecs == []


def test_route_is_logged_once_per_step_key(a2a201, caplog):
    caplog.set_level(logging.DEBUG, logger="kinbench.semigroup")
    nu0 = gaussian_measure(a2a201.x, 2.0, 1.0)
    evolve_series(a2a201.Q, nu0, np.linspace(0.0, 10.0, 201), tol=1e-12)
    Q, nu0 = _box_chain(15)
    evolve_series(Q, nu0, np.linspace(0.0, 2.0, 21), tol=1e-12)
    lines = _logged_lines(caplog, "step ")
    assert [(line["n"], line["steps"]) for line in lines] == [(201, 200), (225, 20)]
    for line in lines:
        assert set(line) == {"n", "nnz", "lam", "mu", "splits", "terms", "steps",
                             "dense_cost", "series_cost", "route"}
        assert line["route"] == ("dense" if line["dense_cost"] <= line["series_cost"]
                                 else "series")
    assert [line["route"] for line in lines] == ["dense", "series"]


def _logged_steps(caplog, Q, times):
    caplog.clear()
    evolve_series(Q, np.full(Q.size, 1.0 / Q.size), times, tol=1e-12)
    messages = [r.getMessage() for r in caplog.records if r.getMessage().startswith("step ")]
    return [(float(m.split()[1].rstrip(":")), int(m.split("steps=")[1].split()[0]))
            for m in messages]


def test_steps_equal_up_to_rounding_share_one_operator(caplog):
    caplog.set_level(logging.DEBUG, logger="kinbench.semigroup")
    spec, _ = catalog_example("ornstein-uhlenbeck")
    Q = build_qmatrix(spec, Grid.from_domain(spec.domain, 41))
    times = np.linspace(0.0, 10.0, 201)
    assert len({round(dt, 15) for dt in np.diff(times)}) == 3
    assert _logged_steps(caplog, Q, times) == [(0.05, 200)]
    # genuinely different steps keep their own operators
    assert _logged_steps(caplog, Q, [0.0, 0.05, 0.1, 0.3]) == [(0.05, 2), (0.2, 1)]


def test_tiny_steps_of_different_length_are_not_merged():
    rate = 1e14
    Q = DiscreteGenerator([[-rate, rate], [rate, -rate]])
    times = [0.0, 1e-16, 3e-16]
    res = evolve_series(Q, np.array([1.0, 0.0]), times, tol=1e-12)
    for t, field in zip(times, res.fields):
        assert field[0] == pytest.approx(0.5 * (1 + np.exp(-2 * rate * t)), abs=1e-12)
    one_shot = evolve_series(Q, [1.0, 0.0], [3e-16]).fields[0]
    assert res.fields[2][0] == pytest.approx(one_shot[0], abs=1e-12)


def test_wrong_length_vector_is_rejected_before_any_step(two_state):
    with pytest.raises(ShapeError):
        evolve_series(two_state, [1.0, 0.0, 0.0], [0.0])
    with pytest.raises(ShapeError):
        evolve_observable(two_state, [1.0, 0.0, 0.0], 0.0)


def test_evolve_series_fields_is_one_array(a2a201):
    times = np.linspace(0.0, 1.0, 11)
    res = evolve_series(a2a201.Q, gaussian_measure(a2a201.x, 2.0, 1.0), times)
    assert isinstance(res.fields, np.ndarray)
    assert res.fields.shape == (times.size, a2a201.grid.size)
    assert np.array_equal(res.mass, res.fields.sum(axis=1))


# ---------------------------------------------------------------------------
# transition kernels
# ---------------------------------------------------------------------------

def test_zero_generator_kernel_is_identity():
    Q = DiscreteGenerator(np.zeros((4, 4)))
    for t in [0.0, 1.0, 7.0]:
        K = transition_kernel(Q, t, tol=1e-10)
        assert np.array_equal(K.P, np.eye(4))


def test_two_state_kernel_closed_form(two_state):
    K = transition_kernel(two_state, np.log(2) / 2, tol=1e-12)
    assert np.allclose(K.P, [[0.75, 0.25], [0.25, 0.75]], atol=1e-12)


def test_kernel_rows_stochastic(a2a201):
    for t in [0.1, 1.0, 10.0]:
        K = transition_kernel(a2a201.Q, t, tol=1e-10)
        assert np.max(np.abs(K.P.sum(axis=1) - 1.0)) <= 1e-10
        assert K.P.min() >= 0.0


@pytest.mark.parametrize("t", [0.3, 1.0, 10.0])
def test_kernel_truncation_bounds_error_against_expm(a2a201, t):
    # the reported defect must cover the measured error, which includes
    # squaring roundoff that row renormalization would otherwise hide
    K = transition_kernel(a2a201.Q, t, tol=1e-12)
    exact = sla.expm(toarray(a2a201.Q.Q) * t)
    assert np.max(np.abs(K.P - exact).sum(axis=1)) <= K.truncation


def test_chapman_kolmogorov(two_state, a2a201):
    assert chapman_kolmogorov_defect(two_state, 0.5, 0.5, tol=1e-12) <= 1e-10
    assert chapman_kolmogorov_defect(two_state, 0.0, 0.8, tol=1e-12) <= 1e-12
    assert chapman_kolmogorov_defect(a2a201.Q, 0.3, 0.7, tol=1e-12) <= 3e-10


def _bits(x):
    return np.asarray(x, dtype=float).view(np.int64)


def test_kernels_of_one_call_are_bitwise_separate_builds(a2a201):
    ts = [1.0, 0.3, 0.0, 0.7, 0.3]
    together = list(sg._kernels(a2a201.Q, ts, 1e-12))
    assert len(together) == len(ts)
    for t, (M, defect) in zip(ts, together):
        (ref, ref_defect), = sg._kernels(a2a201.Q, [t], 1e-12)
        assert np.array_equal(_bits(M), _bits(ref))
        assert _bits(defect) == _bits(ref_defect)


def _ck_from_separate_builds(qm, t, s, tol):
    (whole, _), = sg._kernels(qm, [t + s], tol)
    (left, _), = sg._kernels(qm, [t], tol)
    (right, _), = sg._kernels(qm, [s], tol)
    return float(np.max(np.abs(whole - left @ right).sum(axis=1)))


@pytest.mark.parametrize("t, s", [(0.3, 0.7), (0.0, 0.8), (0.5, 0.0), (0.25, 0.25)])
def test_chapman_kolmogorov_is_bitwise_three_separate_builds(a2a201, t, s):
    box, _ = _box_chain(9)
    for qm in [a2a201.Q, box]:
        got = chapman_kolmogorov_defect(qm, t, s, tol=1e-12)
        assert _bits(got) == _bits(_ck_from_separate_builds(qm, t, s, 1e-12))


@pytest.mark.parametrize("t, s, kernels", [(0.3, 0.7, 3), (0.0, 0.8, 2)])
def test_chapman_kolmogorov_runs_one_series_pass(a2a201, monkeypatch, caplog, t, s, kernels):
    caplog.set_level(logging.DEBUG, logger="kinbench.semigroup")
    passes = []
    series = sg._identity_series
    monkeypatch.setattr(sg, "_identity_series", lambda *a: passes.append(a) or series(*a))
    chapman_kolmogorov_defect(a2a201.Q, t, s, tol=1e-12)
    assert len(passes) == 1
    assert len(passes[0][1]) == kernels
    (line,) = _logged_lines(caplog, "series ")
    terms = max(sg._uniformization(a2a201.Q, u, 1e-12).weights.size for u in [t + s, t, s] if u)
    assert line == {"n": 201, "b": 1, "block": 64, "kernels": kernels, "terms": terms,
                    "half": terms - 1}
    assert len(_logged_lines(caplog, "kernel ")) == kernels


def _lowest_floor(two_state):
    """The lowest flush floor a plan gives: its tail is at least 1e-17, as
    at a long horizon, and a dense kernel has at most 2048 states."""
    assert sg._uniformization(two_state, 1e15, 1e-12).tail == 1e-17
    floor = np.finfo(float).eps * 1e-17 / sg._DENSE_MAX_STATES
    assert floor * floor > np.finfo(float).tiny  # products of kept entries stay normal
    return floor


def test_flush_zeroes_the_entries_below_the_threshold_in_magnitude(two_state):
    f = _lowest_floor(two_state)
    vals = [0.0, -0.0, 5e-324, -5e-324, 0.5 * f, -0.5 * f, np.nextafter(f, 0),
            -np.nextafter(f, 0), f, -f, 1.0, -1.0, np.inf, -np.inf, np.nan]
    M = np.array([np.roll(vals, k) for k in range(len(vals))])
    small = (np.abs(M) < f) & (M != 0.0)
    ref = M.copy()
    ref[small] = 0.0
    count, first, last = sg._flush(M, f)
    assert count == np.count_nonzero(small) == 6 * len(vals)
    assert np.array_equal(_bits(M), _bits(ref))
    _assert_extents(ref, first, last)


def _assert_extents(M, first, last):
    n = M.shape[1]
    for row, j0, j1 in zip(M, first, last):
        nonzero = np.flatnonzero(row)
        assert (j0, j1) == ((nonzero[0], nonzero[-1] + 1) if nonzero.size else (n, 0))


def test_flush_reports_each_rows_extent_across_blocks():
    rng = np.random.default_rng(3)
    n = 2 * sg._BLOCK + 7
    M = np.abs(np.subtract.outer(np.arange(n), np.arange(n))) <= 5
    M = M * rng.uniform(1e-3, 1.0, size=(n, n))
    M[10] = rng.uniform(1e-3, 1.0, size=n)  # no zeros
    M[70] = 1e-6  # all below the floor: becomes a row of zeros
    M[80, :3] = 1e-6  # flushed far tail of a banded row
    small = (M != 0.0) & (M < 1e-4)
    ref = np.where(small, 0.0, M)
    count, first, last = sg._flush(M, 1e-4)
    assert count == np.count_nonzero(small) == n + 3
    assert np.array_equal(M, ref)
    assert (first[10], last[10]) == (0, n)
    assert (first[70], last[70]) == (n, 0)
    assert (first[80], last[80]) == (75, 86)
    _assert_extents(M, first, last)


def _checked_squarings(monkeypatch):
    """Patch sg._square to check each squaring against M @ M: the same
    nonzero pattern and values within 1e-14 relative; returns the list the
    issued multiply-adds are appended to."""
    works = []
    square = sg._square

    def checked(M, out, first, last):
        out[...] = np.nan  # every entry must be written
        works.append(square(M, out, first, last))
        ref = M @ M
        assert np.array_equal(out != 0.0, ref != 0.0)
        assert np.all(np.abs(out - ref) <= 1e-14 * np.abs(ref))
        return works[-1]

    monkeypatch.setattr(sg, "_square", checked)
    return works


@pytest.mark.parametrize("name", CATALOG_NAMES)
def test_block_squarings_match_full_products(name, monkeypatch):
    works = _checked_squarings(monkeypatch)
    for n in [5, 63, 64, 65, 129, 401]:
        before = len(works)
        qm = _1d_chain(name, n, "exponential-fitting")
        list(sg._kernels(qm, [3.0, 0.3], 1e-9))
        splits = sum(sg._uniformization(qm, t, 1e-9).splits for t in [3.0, 0.3])
        assert len(works) - before == splits
    assert len(works) > 0


def test_block_squarings_match_full_products_off_1d_catalog(monkeypatch):
    works = _checked_squarings(monkeypatch)
    box, _ = _box_chain(17)
    for qm, t in [(_absorbing_chain(301), 1.0), (box, 2.0)]:
        assert sg._uniformization(qm, t, 1e-9).splits > 0
        before = len(works)
        list(sg._kernels(qm, [t], 1e-9))
        assert len(works) - before == sg._uniformization(qm, t, 1e-9).splits
    assert works[0] < 301 ** 3  # the absorbing chain's band skipped blocks


def test_square_of_a_full_kernel_is_bitwise_the_full_product(two_state):
    n = 300
    M = sg._series_matvec(sp.identity(n, format="csr")
                          + sp.csr_matrix(_random_chain(np.random.default_rng(5), n)) / (2.0 * n),
                          np.eye(n), [0.5, 0.3, 0.2])
    assert np.all(M != 0.0)
    _, first, last = sg._flush(M, _lowest_floor(two_state))
    out = np.full_like(M, np.nan)
    assert sg._square(M, out, first, last) == n ** 3
    assert np.array_equal(_bits(out), _bits(M @ M))


def _series_inputs(qm, t, tol=1e-9):
    plan = sg._uniformization(qm, t, tol)
    return sg._stochastic(qm.Q, plan.lam), plan


def _csr_stochastic(qm, lam):
    """P = I + Q/lam as scipy builds it from Q's CSR."""
    return sp.identity(qm.size, format="csr") + band_csr(qm.Q) / lam


def _1d_chain(name, n, scheme):
    spec, _ = catalog_example(name)
    return build_qmatrix(spec, Grid.from_domain(spec.domain, n), scheme)


def _assert_identity_series_is_dense_series(qm, ts, bandwidth):
    P, plan = _series_inputs(qm, ts[0])
    weight_sets = [sg._uniformization(qm, t, 1e-9).weights for t in ts]
    bands, b = sg._identity_series(P, weight_sets)
    assert b == bandwidth
    assert len(bands) == len(weight_sets)
    for band, weights in zip(bands, weight_sets):
        half = min((weights.size - 1) * b, qm.size)
        assert band.shape == (qm.size, min(2 * half + 1, qm.size))
        M = sg._expand(band)
        ref = sg._series_matvec(_csr_stochastic(qm, plan.lam), np.eye(qm.size), weights)
        assert np.array_equal(M.view(np.int64), ref.view(np.int64))


# one block up to _BLOCK = 64 columns, several above it
_BLOCK_EDGE_SIZES = [5, 63, 64, 65, 128, 129, 257, 401]


@pytest.mark.parametrize("name", CATALOG_NAMES)
@pytest.mark.parametrize("scheme", ["exponential-fitting", "upwind"])
def test_identity_series_is_bitwise_the_dense_series(name, scheme):
    assert sg._BLOCK == 64
    for n in _BLOCK_EDGE_SIZES:
        _assert_identity_series_is_dense_series(_1d_chain(name, n, scheme), [0.3], 1)


def test_identity_series_is_bitwise_the_dense_series_off_1d_catalog():
    Q, _ = _box_chain(17)
    _assert_identity_series_is_dense_series(Q, [0.3], 17)
    _assert_identity_series_is_dense_series(Q, [1.0, 0.3, 0.05], 17)
    _assert_identity_series_is_dense_series(_absorbing_chain(301), [0.3], 1)
    _assert_identity_series_is_dense_series(_absorbing_chain(301), [0.7, 0.3, 0.01], 1)
    # an unstructured chain: b = n - 1, so every power spans all 2n - 1 diagonals
    dense = DiscreteGenerator(_random_chain(np.random.default_rng(0), 150))
    _assert_identity_series_is_dense_series(dense, [0.3], 149)


@pytest.mark.parametrize("n", _BLOCK_EDGE_SIZES)
def test_identity_series_sets_of_unequal_length_share_one_pass(n):
    qm = _1d_chain("appendix2a", n, "exponential-fitting")
    ts = [1.0, 0.3, 1e-4, 0.7, 0.3]
    terms = [sg._uniformization(qm, t, 1e-9).weights.size for t in ts]
    assert len(set(terms)) >= 3
    _assert_identity_series_is_dense_series(qm, ts, 1)


def _box_50x(n):
    spec = GeneratorSpec(1, CE("1"), CE("-50*x"), DomainSpec("box", ((-8.0, 8.0),)))
    return build_qmatrix(spec, Grid.from_domain(spec.domain, n))


def _unflushed_kernel(qm, t, tol):
    """_kernels for one t, with the dense identity series and no flush."""
    P, plan = _series_inputs(qm, t, tol)
    M = sg._series_matvec(P, np.eye(qm.size), plan.weights)
    for _ in range(plan.splits):
        M = M @ M
    rs = M.sum(axis=1)
    defect = max(plan.tail * 2 ** plan.splits, float(np.max(np.abs(rs - 1.0))))
    good = rs > 0
    M[good] /= rs[good, None]
    return M, defect


@pytest.mark.parametrize("t", [0.01, 1.0])
def test_flushed_squarings_match_unflushed_kernel(t):
    Q = _box_50x(401)
    assert sg._uniformization(Q, t, 1e-9).splits > 0
    (M, defect), = sg._kernels(Q, [t], 1e-9)
    ref, _ = _unflushed_kernel(Q, t, 1e-9)
    assert np.max(np.abs(M - ref).sum(axis=1)) <= defect
    for size, rtol in [(1e-10, 1e-13), (1e-20, 1e-12)]:
        big = np.abs(ref) >= size
        assert np.all(np.abs(M[big] - ref[big]) <= rtol * ref[big])
    # the squarings never multiply subnormals, so none reach the kernel
    tiny = np.finfo(float).tiny
    subnormal = lambda A: np.count_nonzero((A != 0) & (np.abs(A) < tiny))
    assert subnormal(ref) > 0
    assert subnormal(M) == 0


def _traced_peak(call):
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _widest_band_bytes(qm, ts, tol):
    """Bytes of the widest series band of a 1-D chain's kernels at ``ts``."""
    terms = max(sg._uniformization(qm, t, tol).weights.size for t in ts)
    return qm.size * (2 * (terms - 1) + 1) * 8


def test_chapman_kolmogorov_holds_no_more_than_three_kernels():
    # P(t), P(s) and their product, then P(t+s) once its factors are dropped: one
    # more n x n array alive at any point exceeds this
    qm = _1d_chain("appendix2a", 401, "exponential-fitting")
    n = qm.size
    band = _widest_band_bytes(qm, [0.3, 0.7, 1.0], 1e-12)
    assert band < n * n * 8  # the series are held as bands
    peak = _traced_peak(lambda: chapman_kolmogorov_defect(qm, 0.3, 0.7, tol=1e-12))
    assert peak < 3 * n * n * 8 + band + 2 * n * sg._BLOCK * 8


def test_transition_kernel_holds_the_kernel_and_one_spare():
    qm = _1d_chain("appendix2a", 401, "exponential-fitting")
    n = qm.size
    band = _widest_band_bytes(qm, [0.3], 1e-12)
    assert _traced_peak(lambda: transition_kernel(qm, 0.3, tol=1e-12)) < 2 * n * n * 8 + band


@pytest.mark.parametrize("which", [0, 1])
def test_kernel_diagnostics_hold_the_kernel_and_one_spare(which):
    # the moment and continuity diagnostics are chain_moments, which reads Q's
    # diagonals once and so holds far less than one kernel: [0] a 1-D chain of
    # 20001 states, [1] a 2-D box of 141^2, whose bands hold row wraps
    qm = _1d_chain("appendix2a", 20001, "exponential-fitting") if which == 0 \
        else _box_chain(141)[0]
    n = qm.size
    qm.node_coordinates()
    peak = _traced_peak(lambda: chain_moments(qm))
    assert peak < 2 * n * n * 8 + 2 * n * sg._BLOCK * 8
    assert peak < n * n * 8 / 100  # one n x n array would be 3.2 GB


def test_kernels_past_the_dense_limit_fail_before_any_n_by_n_buffer():
    qm = _1d_chain("appendix2a", sg._DENSE_MAX_STATES + 1, "exponential-fitting")
    n = qm.size
    limit = f"dense kernel on {n} states exceeds the limit of 2048; use a coarser grid"

    def check():
        with pytest.raises(TruncationBudgetExceeded, match=limit):
            chapman_kolmogorov_defect(qm, 0.3, 0.7, tol=1e-12)

    assert _traced_peak(check) < n * n * 8 / 100
    with pytest.raises(TruncationBudgetExceeded, match=limit):
        transition_kernel(qm, 0.3)


def test_chain_moments_are_the_dense_row_sums():
    qm = _1d_chain("appendix2b", 101, "exponential-fitting")
    x = qm.node_coordinates()
    gap = x[None, :] - x[:, None]
    Q = toarray(qm.Q)
    mom = chain_moments(qm)
    for got, g in [(mom.drift[:, 0], gap), (mom.diffusion[:, 0, 0], gap ** 2 / 2),
                   (mom.third_abs, np.abs(gap) ** 3)]:
        ref = np.einsum("ij,ij->i", Q, g)
        assert np.all(np.abs(got - ref) <= 1e-12 * np.abs(Q * g).sum(axis=1))
    assert np.array_equal(mom.reach, np.where(Q > 0, np.abs(gap), 0.0).max(axis=1))


def test_kernel_build_is_logged_with_its_row_sum_defect(a2a201, caplog):
    caplog.set_level(logging.DEBUG, logger="kinbench.semigroup")
    nu0 = gaussian_measure(a2a201.x, 2.0, 1.0)
    evolve_series(a2a201.Q, nu0, np.linspace(0.0, 10.0, 201), tol=1e-12)
    lines = _logged_lines(caplog, "kernel ")
    assert len(lines) == 1
    for line in lines:
        assert set(line) == {"n", "b", "terms", "splits", "floor", "flushed", "work",
                             "row_sum_defect"}
        assert (line["n"], line["b"]) == (201, 1)
    caplog.clear()
    for t in [0.05, 1.0]:
        K = transition_kernel(a2a201.Q, t, tol=1e-12)
        (line,) = _logged_lines(caplog, f"kernel {t:.15g}: ")
        plan = sg._uniformization(a2a201.Q, t, 1e-12)
        assert (line["terms"], line["splits"]) == (plan.weights.size, plan.splits)
        assert K.truncation == max(plan.tail * 2 ** plan.splits, line["row_sum_defect"])
        floor = np.finfo(float).eps * plan.tail / 201
        assert line["floor"] == float(f"{floor:.3g}")
        caplog.clear()
    # the squarings skip the zero blocks of the banded kernel
    assert line["splits"] > 0 and line["work"] < 1


# ---------------------------------------------------------------------------
# resolvent
# ---------------------------------------------------------------------------

def test_resolvent_zero_generator_equality_case():
    Q = DiscreteGenerator(np.zeros((3, 3)))
    g = np.array([1.0, -2.0, 0.5])
    f = resolvent(Q, 2.0, g)
    assert np.allclose(f, g / 2.0, rtol=1e-14)


def test_resolvent_two_state(two_state):
    f = resolvent(two_state, 1.0, np.array([1.0, 0.0]))
    assert np.allclose(f, [2.0 / 3.0, 1.0 / 3.0], rtol=1e-12)


def test_resolvent_constant_input(a2a201):
    f = resolvent(a2a201.Q, 2.5, np.ones(a2a201.grid.size))
    vals = f.values if hasattr(f, "values") else f
    assert np.allclose(vals, 1.0 / 2.5, rtol=1e-10)


def test_resolvent_spectrum_error(two_state):
    with pytest.raises(SpectrumError):
        resolvent(two_state, 0.0, np.array([1.0, 0.0]))


@pytest.mark.parametrize("lam", [float("nan"), float("inf")])
def test_resolvent_rejects_a_nonfinite_parameter(two_state, lam):
    with pytest.raises(SpectrumError):
        resolvent(two_state, lam, np.array([1.0, 0.0]))


@given(st.integers(0, 2 ** 31 - 1), st.sampled_from([0.1, 1.0, 10.0]))
def test_resolvent_contraction_bound(seed, lam):
    rng = np.random.default_rng(seed)
    Q = DiscreteGenerator(_random_chain(rng, 12))
    g = rng.standard_normal(12)
    f = resolvent(Q, lam, g)
    assert lam * np.abs(f).max() <= np.abs(g).max() * (1 + 1e-12)


def _random_chain(rng, n):
    Q = rng.uniform(0.0, 2.0, size=(n, n))
    np.fill_diagonal(Q, 0.0)
    mask = rng.uniform(size=(n, n)) < 0.6
    Q = np.where(mask, Q, 0.0)
    np.fill_diagonal(Q, -Q.sum(axis=1))
    return Q


@functools.cache
def _resolvent_chains():
    """(name, chain) pairs: every 1-D catalog entry at n = 101 under both
    schemes, the absorbing scenario, a 9 x 9 box and a dense chain."""
    chains = [(f"{name}/{scheme}", _1d_chain(name, 101, scheme))
              for name in CATALOG_NAMES for scheme in ("exponential-fitting", "upwind")]
    doc = json.loads((ROOT / "scenarios" / "absorbing.json").read_text())
    spec, _ = load_generator(doc["generator"])
    chains.append(("absorbing", build_qmatrix(spec, Grid.from_domain(spec.domain,
                                                                     doc["grid"]["n"]))))
    chains.append(("box9", _box_chain(9)[0]))
    chains.append(("dense", DiscreteGenerator(_random_chain(np.random.default_rng(5), 30))))
    return chains


def _resolvent_block(n, rng):
    """Three signed columns, their magnitudes and the constant 1."""
    G = rng.standard_normal((n, 3))
    return np.column_stack([G, np.abs(G), np.ones(n)])


@pytest.mark.parametrize("lam", [0.1, 1.0, 10.0])
def test_resolvent_matches_a_dense_solve(lam):
    rng = np.random.default_rng(11)
    for name, qm in _resolvent_chains():
        g = _resolvent_block(qm.size, rng)
        f = resolvent(qm, lam, g)
        ref = np.linalg.solve(lam * np.eye(qm.size) - toarray(qm.Q), g)
        scale = np.abs(ref).max(axis=0)
        assert np.all(np.abs(f - ref) <= 1e-10 * np.abs(ref) + 1e-13 * scale), name


def test_resolvent_block_is_bitwise_its_columns():
    rng = np.random.default_rng(12)
    for name, qm in _resolvent_chains():
        g = _resolvent_block(qm.size, rng)
        f = resolvent(qm, 1.0, g)
        cols = np.column_stack([resolvent(qm, 1.0, g[:, j]) for j in range(g.shape[1])])
        assert f.shape == g.shape
        assert np.array_equal(_bits(f), _bits(cols)), name


@pytest.mark.parametrize("lam", [0.1, 1.0, 10.0])
def test_resolvent_keeps_positivity_and_constants(lam, a2a401):
    rng = np.random.default_rng(13)
    for name, qm in [*_resolvent_chains(), ("appendix2a-401", a2a401.Q)]:
        g = np.abs(rng.standard_normal((qm.size, 4)))
        g[rng.uniform(size=g.shape) < 0.3] = 0.0
        assert resolvent(qm, lam, g).min() >= 0.0, name
        f = resolvent(qm, lam, np.ones(qm.size))
        assert np.abs(lam * f - 1.0).max() <= 1e-13, name


def test_resolvent_logs_one_line_per_call(caplog):
    caplog.set_level(logging.DEBUG, logger="kinbench.semigroup")
    Q = _box_chain(9)[0]
    resolvent(Q, 0.5, np.ones((Q.size, 7)))
    resolvent(Q, 2.0, np.ones(Q.size))
    lines = _logged_lines(caplog, "resolvent solve")
    assert lines == [{"n": 81.0, "b": 9.0, "lam": 0.5, "columns": 7.0},
                     {"n": 81.0, "b": 9.0, "lam": 2.0, "columns": 1.0}]


# ---------------------------------------------------------------------------
# positivity / contraction / dissipativity properties
# ---------------------------------------------------------------------------

@given(st.integers(0, 2 ** 31 - 1), st.floats(0.0, 3.0))
def test_positivity_and_contraction(seed, t):
    rng = np.random.default_rng(seed)
    Q = DiscreteGenerator(_random_chain(rng, 10))
    nu0 = rng.uniform(0.0, 1.0, size=10)
    nut = evolve_series(Q, nu0, [t], tol=1e-10).fields[0]
    assert nut.min() >= -1e-10 * nu0.max()
    assert nut.sum() == pytest.approx(nu0.sum(), abs=1e-9)
    f0 = rng.standard_normal(10)
    ft = evolve_observable(Q, f0, t, tol=1e-10)
    assert np.abs(ft).max() <= np.abs(f0).max() + 1e-10


@given(st.integers(0, 2 ** 31 - 1))
def test_dissipativity_at_argmax(seed):
    rng = np.random.default_rng(seed)
    Q = DiscreteGenerator(_random_chain(rng, 15))
    f = rng.standard_normal(15)
    assert generator_at_max(Q, f) <= 1e-12


def test_argmax_tie_breaks_to_lowest_index():
    Q = DiscreteGenerator([[-1.0, 1.0, 0.0],
                           [1.0, -2.0, 1.0],
                           [0.0, 1.0, -1.0]])
    f = np.array([1.0, 0.0, 1.0])  # ties at indices 0 and 2
    assert generator_at_max(Q, f) == pytest.approx((Q.Q @ f)[0])


# ---------------------------------------------------------------------------
# the chain's Kramers-Moyal moments
# ---------------------------------------------------------------------------

def _off_the_walls(qm):
    """Mask of the nodes of a chain's grid that lie on no wall."""
    k = np.unravel_index(np.arange(qm.size), qm.grid.shape)
    return np.all([(i > 0) & (i < m - 1) for i, m in zip(k, qm.grid.shape)], axis=0)


def test_chain_moments_ou(ou400):
    # exponential fitting on a uniform grid: a node's rates are (a/h^2) B(-+z)
    # with z = bh/a, so M1 = b and M2/2 = a (B(z) + B(-z))/2 = a (z/2) coth(z/2)
    x, h = ou400.x, ou400.x[1] - ou400.x[0]
    inner = _off_the_walls(ou400.Q)
    mom = chain_moments(ou400.Q)
    b = ou400.spec.drift(x)
    assert mom.drift.shape == b.shape and mom.diffusion.shape == ou400.spec.diffusion(x).shape
    assert np.abs(mom.drift - b)[inner].max() <= 1e-12
    z = b[inner, 0] * h
    fitted = (bernoulli_ratio(z) + bernoulli_ratio(-z)) / 2
    assert np.allclose(mom.diffusion[inner, 0, 0], fitted, rtol=1e-12, atol=0)


def test_chain_moments_pure_diffusion():
    # equal rates 1/h^2 to each side: M1 = 0, M2/2 = 1, M3abs = 2h, reach h
    spec = GeneratorSpec(1, CE("1"), CE("0"), DomainSpec("box", ((-4.0, 4.0),)))
    qm = build_qmatrix(spec, Grid.from_domain(spec.domain, 201))
    h = 8.0 / 200
    inner = _off_the_walls(qm)
    mom = chain_moments(qm)
    assert np.abs(mom.drift[inner]).max() <= 1e-12
    assert np.allclose(mom.diffusion[inner], 1.0, rtol=1e-12, atol=0)
    assert np.allclose(mom.third_abs[inner], 2 * h, rtol=1e-12, atol=0)
    assert np.allclose(mom.reach, h, rtol=1e-12, atol=0)


def test_chain_moments_upwind():
    # upwind adds |b|/h to the downstream rate: M1 = b, and M2/2 = a + |b|h/2,
    # the scheme's first-order numerical diffusion
    qm = _1d_chain("ornstein-uhlenbeck", 401, "upwind")
    spec, _ = catalog_example("ornstein-uhlenbeck")
    x = qm.grid.x
    h = x[1] - x[0]
    inner = _off_the_walls(qm)
    mom = chain_moments(qm)
    b = spec.drift(x)
    assert np.abs(mom.drift - b)[inner].max() <= 1e-12
    smeared = spec.diffusion(x) + (np.abs(b) * h / 2)[:, :, None]
    assert np.abs(mom.diffusion - smeared)[inner].max() <= 1e-12


def test_chain_moments_of_absorbing_walls_are_zero():
    qm = _absorbing_chain(81)
    mom = chain_moments(qm)
    wall = ~_off_the_walls(qm)
    for field in (mom.drift, mom.diffusion, mom.third_abs, mom.reach):
        assert np.all(field[wall] == 0.0)
    assert np.all(mom.reach[~wall] > 0)


def test_third_moment_shrinks_with_the_cell():
    # M3abs = 2ah on OU to first order: it vanishes only as h -> 0, at order 1
    peaks = []
    for n in [100, 200, 400]:
        qm = _1d_chain("ornstein-uhlenbeck", n, "exponential-fitting")
        peaks.append(chain_moments(qm).third_abs[np.abs(qm.grid.x) <= 4.0].max())
    orders = np.log2(np.array(peaks[:-1]) / peaks[1:])
    assert peaks[0] > peaks[1] > peaks[2]
    assert np.all((0.9 <= orders) & (orders <= 1.1))


def test_chain_moments_on_a_2d_box():
    # interior nodes of chain-2d's generator: M1 = b to rounding, M2/2 -> a at
    # order 2 with an off-diagonal that is exactly zero, all read from the bands
    errors = []
    for n in [21, 41, 81, 161]:
        qm, spec = _box_chain(n)[0], _box_spec()
        inner = _off_the_walls(qm)
        nodes = qm.grid.nodes()
        mom = chain_moments(qm)
        assert mom.drift.shape == (qm.size, 2) and mom.diffusion.shape == (qm.size, 2, 2)
        assert np.abs(mom.drift - spec.drift(nodes))[inner].max() <= 1e-13
        assert np.all(mom.diffusion[:, 0, 1] == 0.0) and np.all(mom.diffusion[:, 1, 0] == 0.0)
        errors.append(np.abs(mom.diffusion - spec.diffusion(nodes))[inner].max())
    orders = np.log2(np.array(errors[1:-1]) / errors[2:])
    assert np.all((1.7 <= orders) & (orders <= 2.3)), errors


# ---------------------------------------------------------------------------
# stochastic continuity
# ---------------------------------------------------------------------------

def test_continuity_two_state_closed_form(two_state):
    # a grid-free chain sits on its indices: one jump of length 1, rate 1 each way
    mom = chain_moments(two_state)
    assert np.array_equal(mom.drift, [[1.0], [-1.0]])
    assert np.array_equal(mom.diffusion, [[[0.5]], [[0.5]]])
    assert np.array_equal(mom.third_abs, [1.0, 1.0])
    assert np.array_equal(mom.reach, [1.0, 1.0])
    # below the reach the kernel's escape mass is (1 - e^{-2t})/2, of rate Q_01 = 1
    ts = np.array([0.2, 0.1, 0.05])
    escape = [1.0 - transition_kernel(two_state, t, tol=1e-12).P[0, 0] for t in ts]
    assert np.allclose(escape, (1 - np.exp(-2 * ts)) / 2, atol=1e-12)


def test_continuity_decreases_to_zero(a2a201):
    # the reach is one cell, so the rate of jumps longer than r is 0 for r past
    # it: the kernel's escape mass over t tends to 0 there, and to the node's
    # whole jump rate -Q_ii for r below it
    qm, x = a2a201.Q, a2a201.x
    cells = np.diff(x)
    reach = chain_moments(qm).reach
    assert np.array_equal(reach, np.maximum(np.r_[cells, 0.0], np.r_[0.0, cells]))
    gap = np.abs(x[None, :] - x[:, None])
    rates = []
    for t in [1e-4, 1e-5, 1e-6]:
        P = transition_kernel(qm, t, tol=1e-12).P
        rates.append((1.0 - np.einsum("ij,ij->i", P, (gap <= 5 * cells[0]) * 1.0))[1:-1] / t)
    peaks = [r.max() for r in rates]
    assert peaks[0] > peaks[1] > peaks[2] and peaks[2] <= 1.1 * qm.lambda_max * 1e-6
    near = (1.0 - np.einsum("ij,ij->i", P, (gap <= cells[0] / 2) * 1.0)) / 1e-6
    jump_rate = -qm.Q.diagonal()
    assert np.abs(near - jump_rate).max() <= qm.lambda_max * 1e-6 * jump_rate.max()


@pytest.mark.parametrize("call, error", [
    (lambda Q: resolvent(Q, 1.0, [1.0, 0.0, 0.0]), ShapeError),
    (lambda Q: generator_at_max(Q, [1.0, 0.0, 0.0]), ShapeError),
    (lambda Q: evolve_series(Q, [np.nan, 1.0], [1.0]), ParameterOutOfRange),
    (lambda Q: evolve_series(Q, [np.inf, 1.0], [1.0]), ParameterOutOfRange),
    (lambda Q: evolve_series(Q, [-1.0, 1.0], [1.0]), ParameterOutOfRange),
    (lambda Q: evolve_observable(Q, [1.0, np.nan], 1.0), ParameterOutOfRange),
    (lambda Q: evolve_observable(Q, [1.0, -np.inf], 1.0), ParameterOutOfRange),
    (lambda Q: generator_at_max(Q, [np.nan, 1.0]), ParameterOutOfRange),
    (lambda Q: generator_at_max(Q, [np.inf, 1.0]), ParameterOutOfRange),
    (lambda Q: evolve_series(Q, [np.nan, 1.0], [0.0, 1.0]), ParameterOutOfRange),
    (lambda Q: evolve_series(Q, [-1.0, 1.0], [0.0, 1.0]), ParameterOutOfRange),
    (lambda Q: resolvent(Q, 1.0, [np.nan, 1.0]), ParameterOutOfRange),
    (lambda Q: resolvent(Q, 1.0, np.ones((3, 2))), ShapeError),
    (lambda Q: evolve_series(Q, [1.0, 0.0], [[0.0, 1.0], [2.0, 3.0]]), ShapeError),
    (lambda Q: evolve_series(Q, [1.0, 0.0], 1.0), ShapeError),
], ids=["resolvent-length", "generator-at-max-length", "density-nan",
        "density-inf", "density-negative", "observable-nan", "observable-inf",
        "generator-at-max-nan", "generator-at-max-inf", "series-density-nan",
        "series-density-negative", "resolvent-nan", "resolvent-block-length",
        "series-schedule-2d", "series-schedule-scalar"])
def test_bad_arguments_are_named_errors_before_any_kernel(two_state, monkeypatch, call, error):
    calls = _count_kernel_builds(monkeypatch)
    with pytest.raises(error):
        call(two_state)
    assert calls == []


@pytest.mark.parametrize("call, message", [
    (lambda Q, v: evolve_observable(Q, v, 1.0), "observable must be finite; entry 2 is nan"),
    (lambda Q, v: generator_at_max(Q, v), "f must be finite; entry 2 is nan"),
    (lambda Q, v: evolve_series(Q, v, [1.0]),
     "initial density must be finite and nonnegative; entry 2 is nan"),
    (lambda Q, v: resolvent(Q, 1.0, v), "right-hand side must be finite; entry 2 is nan"),
    (lambda Q, v: resolvent(Q, 1.0, np.stack([np.ones(4), v], axis=1)),
     r"right-hand side must be finite; entry \(2, 1\) is nan"),
], ids=["observable", "generator-at-max", "density", "resolvent", "resolvent-block"])
def test_a_nonfinite_vector_names_its_first_bad_entry(call, message):
    Q = DiscreteGenerator(np.array([[-1.0, 1.0, 0.0, 0.0], [1.0, -2.0, 1.0, 0.0],
                                    [0.0, 1.0, -2.0, 1.0], [0.0, 0.0, 1.0, -1.0]]))
    with pytest.raises(ParameterOutOfRange, match=message):
        call(Q, np.array([1.0, 1.0, np.nan, np.inf]))
