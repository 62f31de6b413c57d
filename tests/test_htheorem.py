import logging
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from numpy.polynomial import Polynomial

import kinbench as kb
from kinbench.bands import BandMatrix
from kinbench.discretize import DiscreteGenerator, Grid, build_qmatrix
from kinbench.errors import (
    NoInvariantDensity,
    NonSmoothH,
    ParameterOutOfRange,
    ShapeError,
    SupportViolation,
)
from kinbench.expressions import CompiledExpression as CE
from kinbench.generator import (
    CATALOG_NAMES,
    DomainSpec,
    GeneratorSpec,
    compute_Hi,
    residual_invariant,
)
from kinbench.htheorem import (
    HFunctional,
    _class_measure,
    boundary_term,
    dH_dt_consistency,
    dissipation_rate,
    h_curve,
    h_function,
    solve_invariant,
)
from kinbench.pawula import maximum_principle_check
from kinbench.semigroup import evolve_density

from conftest import assert_matches_dense_gth, gaussian_measure, toarray


# ---------------------------------------------------------------------------
# convex functionals
# ---------------------------------------------------------------------------

def test_builtin_family_values():
    h = HFunctional.from_name("xlogx")
    assert h(1.0) == 0.0
    assert h(0.0) == 0.0  # limit convention
    assert HFunctional.from_name("square")(3.0) == 9.0
    assert HFunctional.from_name("abs-dev")(0.0) == 1.0
    assert HFunctional.from_name("square-dev")(0.0) == 1.0
    assert HFunctional.from_name("square-dev", value_at_zero=0.0)(0.0) == 0.0


def test_nan_argument_stays_nan():
    u = np.array([0.0, 1e-310, 1e-300, 0.5, 1.0, 7.0, np.inf])
    for kind in ("xlogx", "square", "abs-dev", "square-dev"):
        h = HFunctional.from_name(kind)
        assert np.isnan(h(np.nan))
        with np.errstate(all="ignore"):
            old = np.where(u > 0, h.fn(np.maximum(u, 1e-300)), h.value_at_zero)
        assert np.array_equal(h(u), old)  # the convention at 0 and every u > 0 unchanged
    xlogx = HFunctional.from_name("xlogx")
    assert np.isnan(h_function(np.ones(3), [1.0, np.nan, 1.0], xlogx))


def test_value_at_zero_is_a_float():
    assert HFunctional.from_name("xlogx", "0.5")(0.0) == 0.5
    with pytest.raises(ValueError):
        HFunctional.from_name("xlogx", "abc")


def test_convexity_certificate_rejects_concave_table():
    ys = np.linspace(0.0, 4.0, 21)
    with pytest.raises(ParameterOutOfRange):
        HFunctional.from_table(ys, np.sqrt(ys))


def test_table_functional_interpolates():
    ys = np.linspace(0.0, 4.0, 41)
    h = HFunctional.from_table(ys, (ys - 1.0) ** 2)
    assert h(1.0) == pytest.approx(0.0, abs=1e-12)
    assert h(3.05) == pytest.approx(2.05**2, rel=1e-2)


def test_nonsmooth_h_rejected_for_dissipation(ou400):
    h = HFunctional.from_name("abs-dev")
    phi = np.ones(ou400.grid.size)
    with pytest.raises(NonSmoothH):
        dissipation_rate(ou400.spec, np.ones(ou400.grid.size), phi, h,
                         grid=ou400.grid)
    with pytest.raises(NonSmoothH):
        dH_dt_consistency(ou400.Q, ou400.spec, None, ou400.w / ou400.w.sum(), h,
                          t=0.5, dt=1e-3)


# ---------------------------------------------------------------------------
# invariant measures
# ---------------------------------------------------------------------------

def test_two_state_invariant(two_state):
    sol = solve_invariant(two_state)
    assert sol.unique
    assert np.allclose(sol.pi, [0.5, 0.5], rtol=1e-14)


def test_appendix2a_invariant_close_to_analytic(a2a401):
    sol = solve_invariant(a2a401.Q)
    assert sol.unique
    analytic = (1 + a2a401.x**2) ** -1.5
    analytic /= np.dot(analytic, a2a401.w)
    L1 = np.dot(np.abs(sol.pi / a2a401.w - analytic), a2a401.w)
    assert L1 <= 0.01
    assert sol.residual <= 1e-10 * np.abs(a2a401.Q.Q.bands).max()


def test_block_diagonal_chain_not_unique():
    Q = DiscreteGenerator.from_matrix([
        [-1.0, 1.0, 0.0, 0.0],
        [1.0, -1.0, 0.0, 0.0],
        [0.0, 0.0, -2.0, 2.0],
        [0.0, 0.0, 2.0, -2.0],
    ])
    sol = solve_invariant(Q)
    assert not sol.unique
    assert len(sol.basis) == 2
    for v in sol.basis:
        assert np.max(np.abs(Q.Q.T @ v)) <= 1e-12


def test_absorbing_chain_has_no_invariant_density():
    spec = GeneratorSpec(1, CE("1"), CE("-x"),
                         DomainSpec("full-line", ((-4.0, 4.0),), "absorbing"))
    grid = Grid.from_domain(spec.domain, 41)
    Q = build_qmatrix(spec, grid)
    with pytest.raises(NoInvariantDensity):
        solve_invariant(Q)


def _dense_chain(rng, m):
    """Every off-diagonal rate positive: bandwidth m - 1, not reversible."""
    Q = rng.uniform(0.1, 1.0, size=(m, m))
    np.fill_diagonal(Q, 0.0)
    np.fill_diagonal(Q, -Q.sum(axis=1))
    return Q


def test_gth_matches_nullspace_on_random_chain():
    Q = _dense_chain(np.random.default_rng(11), 9)
    sol = solve_invariant(DiscreteGenerator.from_matrix(Q))
    w, v = np.linalg.eig(Q.T)
    k = np.argmin(np.abs(w))
    ref = np.real(v[:, k])
    ref = np.abs(ref) / np.abs(ref).sum()
    assert np.allclose(sol.pi, ref, atol=1e-10)


def _logged_paths(caplog):
    return [r.getMessage().split()[1] for r in caplog.records
            if r.name == "kinbench.htheorem" and r.getMessage().startswith("invariant:")]


def _rotational_chain(n):
    """Box chain with a = I and drift -x + J x: no detailed balance."""
    domain = DomainSpec("box", ((-3.0, 3.0), (-3.0, 3.0)))
    spec = GeneratorSpec(2, lambda p: np.eye(2),
                         lambda p: np.array([-p[0] - p[1], -p[1] + p[0]]), domain)
    return build_qmatrix(spec, Grid.from_domain(domain, n))


@pytest.mark.parametrize("seed,shape", [(0, (9, 7)), (1, (12, 5)), (2, (6, 6)),
                                        (3, (4, 5, 3)), (4, (3, 6, 4))])
def test_lattice_balance_matches_gth_on_reversible_boxes(seed, shape, caplog):
    rng = np.random.default_rng(seed)
    dim = len(shape)
    scale = rng.uniform(0.3, 2.0, size=dim)
    curve = rng.uniform(0.0, 0.5, size=dim)
    stiff = rng.uniform(0.2, 3.0, size=dim)
    quart = rng.uniform(0.0, 0.3, size=dim)

    # diagonal a_k(x_k) and the gradient drift b_k = -V_k'(x_k)
    def a(p):
        return np.diag(scale * (1.0 + curve * p**2))

    def b(p):
        return -(stiff * p + quart * p**3)

    domain = DomainSpec("box", tuple((-2.0, 2.0 + k) for k in range(dim)))
    Q = build_qmatrix(GeneratorSpec(dim, a, b, domain), Grid.from_domain(domain, shape))
    caplog.set_level(logging.DEBUG, logger="kinbench.htheorem")
    sol = solve_invariant(Q)
    assert _logged_paths(caplog) == ["lattice"]
    assert_matches_dense_gth(sol.pi, toarray(Q.Q))


@pytest.mark.parametrize("n", [5, 21])
def test_rotational_chain_takes_gth_fallback(n, caplog):
    Q = _rotational_chain(n)
    caplog.set_level(logging.DEBUG, logger="kinbench.htheorem")
    sol = solve_invariant(Q)
    assert _logged_paths(caplog) == ["gth"]
    assert_matches_dense_gth(sol.pi, toarray(Q.Q))


@pytest.mark.parametrize("name", CATALOG_NAMES)
def test_1d_lattice_balance_is_bitwise_the_cumsum_formula(name):
    for n in (5, 401, 1001):
        for scheme in ("exponential-fitting", "upwind"):
            spec, _ = kb.catalog_example(name, 1.0)
            Q = build_qmatrix(spec, Grid.from_domain(spec.domain, n), scheme)
            up, down = Q.Q.diagonal(1), Q.Q.diagonal(-1)
            log_pi = np.concatenate(([0.0], np.cumsum(np.log(up) - np.log(down))))
            log_pi -= log_pi.max()
            pi = np.exp(log_pi)
            assert np.array_equal(solve_invariant(Q).pi, pi / pi.sum()), (n, scheme)


def test_1d_strongly_confining_chain_takes_lattice_path(caplog):
    # pi spans e^-16000, so most of it underflows to 0, and the rounding of
    # the cumsum alone exceeds BALANCE_TOL: every edge is a tree edge
    spec = GeneratorSpec(1, CE("1"), CE("-500*x"), DomainSpec("box", ((-8.0, 8.0),)))
    Q = build_qmatrix(spec, Grid.from_domain(spec.domain, 2001))
    caplog.set_level(logging.DEBUG, logger="kinbench.htheorem")
    sol = solve_invariant(Q)
    assert _logged_paths(caplog) == ["lattice"]
    up, down = Q.Q.diagonal(1), Q.Q.diagonal(-1)
    log_pi = np.concatenate(([0.0], np.cumsum(np.log(up) - np.log(down))))
    log_pi -= log_pi.max()
    pi = np.exp(log_pi)
    assert np.sum(pi == 0.0) > 1500
    assert np.array_equal(sol.pi, pi / pi.sum())


def test_2d_strongly_confining_chain_takes_lattice_path(caplog):
    domain = DomainSpec("box", ((-8.0, 8.0), (-8.0, 8.0)))
    spec = GeneratorSpec(2, lambda p: np.eye(2), lambda p: -50.0 * p, domain)
    Q = build_qmatrix(spec, Grid.from_domain(domain, 41))
    caplog.set_level(logging.DEBUG, logger="kinbench.htheorem")
    sol = solve_invariant(Q)
    assert _logged_paths(caplog) == ["lattice"]
    assert np.sum(sol.pi == 0.0) > 400
    assert sol.residual <= 1e-12 * Q.lambda_max


def _steep_rotational_chain():
    """25x25 box whose pi spans more than the float range, off the lattice path."""
    domain = DomainSpec("box", ((-8.0, 8.0), (-8.0, 8.0)))
    spec = GeneratorSpec(2, lambda p: np.eye(2),
                         lambda p: np.array([-50.0 * p[0] - 5.0 * p[1],
                                             -50.0 * p[1] + 5.0 * p[0]]), domain)
    return build_qmatrix(spec, Grid.from_domain(domain, 25))


def test_gth_rescales_when_pi_spans_more_than_the_float_range(caplog):
    # rotational drift sends this box to GTH, whose back-substitution starts
    # from pi_{m-1} = 1 at a corner where pi is far below the float range
    Q = _steep_rotational_chain()
    caplog.set_level(logging.DEBUG, logger="kinbench.htheorem")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sol = solve_invariant(Q)
    assert _logged_paths(caplog) == ["gth"]
    assert np.all(np.isfinite(sol.pi)) and np.all(sol.pi >= 0.0)
    assert sol.pi.sum() == pytest.approx(1.0, abs=1e-15)
    assert np.isfinite(sol.residual) and sol.residual <= 1e-12 * Q.lambda_max


def _gth_log(caplog):
    """The fields of each ``invariant: gth path`` line, as numbers."""
    lines = [r.getMessage() for r in caplog.records if r.name == "kinbench.htheorem"
             and r.getMessage().startswith("invariant: gth path")]
    fields = [re.match(r"invariant: gth path on (\d+) states, b=(\d+), smallest pivot (\S+), "
                       r"(\d+) entries underflowed to 0, lattice defect (\S+)$", line)
              for line in lines]
    assert all(fields), lines
    return [tuple(float(g) for g in f.groups()) for f in fields]


@pytest.mark.parametrize("chain", ["dense-9", "steep-rotational-25"])
def test_banded_elimination_matches_dense_gth(chain, caplog):
    Q = (DiscreteGenerator.from_matrix(_dense_chain(np.random.default_rng(11), 9))
         if chain == "dense-9" else _steep_rotational_chain())
    caplog.set_level(logging.DEBUG, logger="kinbench.htheorem")
    sol = solve_invariant(Q)
    assert_matches_dense_gth(sol.pi, toarray(Q.Q))
    (states, b, pivot, zeros, _), = _gth_log(caplog)
    assert (states, b, zeros) == ((9, 8, 0) if chain == "dense-9" else (625, 25, 4))
    assert zeros == np.sum(sol.pi == 0.0)
    assert 0.0 < pivot < np.inf


def test_reducible_chain_solves_each_closed_class_alone(caplog):
    # five closed classes of 1 to 5 states, interleaved over 15 nodes
    rng = np.random.default_rng(3)
    order = rng.permutation(15)
    Q = np.zeros((15, 15))
    classes = []
    for size, start in zip(range(1, 6), (0, 1, 3, 6, 10)):
        nodes = np.sort(order[start:start + size])
        Q[np.ix_(nodes, nodes)] = _dense_chain(rng, size)
        classes.append(nodes)
    caplog.set_level(logging.DEBUG, logger="kinbench.htheorem")
    sol = solve_invariant(DiscreteGenerator.from_matrix(Q))
    assert not sol.unique and len(sol.basis) == 5
    assert sorted(n for n, *_ in _gth_log(caplog)) == [1, 2, 3, 4, 5]
    found = {int(np.flatnonzero(v)[0]): v for v in sol.basis}
    for nodes in classes:
        v = found[int(nodes[0])]
        assert np.array_equal(np.flatnonzero(v), nodes)
        assert_matches_dense_gth(v[nodes], Q[np.ix_(nodes, nodes)])


def test_reducible_chain_reads_its_entries_once_for_every_class(monkeypatch):
    # 500 closed classes of two states; the lattice balance reads Q's
    # entries once, and the split into classes once for all of them
    k = 500
    i = np.arange(0, 2 * k, 2)
    up, down = np.linspace(0.5, 2.0, k), np.linspace(3.0, 0.25, k)
    Q = BandMatrix.from_entries(np.concatenate([i, i + 1, i, i + 1]),
                                np.concatenate([i + 1, i, i, i + 1]),
                                np.concatenate([up, down, -up, -down]), 2 * k)
    calls = []
    entries = BandMatrix.entries
    monkeypatch.setattr(BandMatrix, "entries", lambda self: calls.append(1) or entries(self))
    sol = solve_invariant(Q)
    assert len(calls) <= 2
    assert not sol.unique and len(sol.basis) == k
    for c, v in enumerate(sol.basis):
        assert np.array_equal(np.flatnonzero(v), [2 * c, 2 * c + 1])
        assert np.allclose(v[2 * c:2 * c + 2], [down[c], up[c]] / (up[c] + down[c]),
                           rtol=1e-14, atol=0.0)


def test_one_state_and_two_absorbing_states(caplog):
    one = solve_invariant([[0.0]])
    assert one.unique and np.array_equal(one.pi, [1.0])
    caplog.set_level(logging.DEBUG, logger="kinbench.htheorem")
    pi = _class_measure(BandMatrix.from_matrix([[0.0]]), np.inf)
    assert np.array_equal(pi, [1.0])
    assert _gth_log(caplog) == [(1, 0, np.inf, 0, np.inf)]  # no pivot before the last

    caplog.clear()
    two = solve_invariant(np.zeros((2, 2)))
    assert _logged_paths(caplog) == ["gth", "gth"]
    assert not two.unique
    assert sorted(map(tuple, two.basis)) == [(0.0, 1.0), (1.0, 0.0)]


def test_elimination_names_a_state_that_reaches_no_later_one():
    # state 0 is absorbing and eliminated first: its pivot, the rate to
    # the states after it, is 0
    with pytest.raises(NoInvariantDensity, match="non-communicating"):
        _class_measure(BandMatrix.from_matrix([[0.0, 0.0], [1.0, -1.0]]), 0.0)


def test_41x41_rotational_chain_is_solved_in_its_band(caplog):
    solve_invariant(_rotational_chain(5))  # scipy's first import is not the solve's memory
    Q = _rotational_chain(41)
    caplog.set_level(logging.DEBUG, logger="kinbench.htheorem")
    tracemalloc.start()
    try:
        sol = solve_invariant(Q)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert _logged_paths(caplog) == ["gth"]
    assert peak < 4e6  # one dense 1681 x 1681 array is 22.6 MB
    assert sol.residual <= 1e-12 * Q.lambda_max


def test_kramers_chain_converges_to_the_gibbs_density(caplog):
    # the paper's phase-space setting: dx = v dt, dv = (-x - v) dt + sqrt(2) dW.
    # a = diag(0, 1) is singular and the chain is not reversible, yet its
    # invariant density is exp(-(x^2 + v^2) / 2); the upwind transport
    # along x makes the error first order in h
    domain = DomainSpec("box", ((-5.0, 5.0), (-5.0, 5.0)))
    spec = GeneratorSpec(2, lambda p: np.diag([0.0, 1.0]),
                         lambda p: np.array([p[1], -p[0] - p[1]]), domain)
    caplog.set_level(logging.DEBUG, logger="kinbench.htheorem")
    distances = []
    for n in (21, 41, 81):
        Q = build_qmatrix(spec, Grid.from_domain(domain, n))
        caplog.clear()
        sol = solve_invariant(Q)
        assert _logged_paths(caplog) == ["gth"]
        assert sol.residual <= 1e-12 * Q.lambda_max
        w = Q.quadrature_weights()
        x, v = Q.node_coordinates().T
        gibbs = np.exp(-(x * x + v * v) / 2.0)
        gibbs /= gibbs @ w
        distances.append(np.abs(sol.pi / w - gibbs) @ w)
    ratios = np.divide(distances[1:], distances[:-1])
    assert np.all((ratios >= 0.45) & (ratios <= 0.6)), distances


def test_2d_absorbing_box_names_transient_states():
    domain = DomainSpec("box", ((-2.0, 2.0), (-2.0, 2.0)), "absorbing")
    spec = GeneratorSpec(2, lambda p: np.eye(2), lambda p: -p, domain)
    Q = build_qmatrix(spec, Grid.from_domain(domain, 9))
    with pytest.raises(NoInvariantDensity, match=r"^49 transient state\(s\)"):
        solve_invariant(Q)


def test_161x161_chain_never_allocates_dense():
    domain = DomainSpec("box", ((-4.0, 4.0), (-4.0, 4.0)))
    spec = GeneratorSpec(2, lambda p: np.diag([1.0 + p[0] ** 2 / 4.0, 1.0]),
                         lambda p: np.array([-p[0], -2.0 * p[1]]), domain)
    Q = build_qmatrix(spec, Grid.from_domain(domain, 161))
    assert Q.size == 25921
    tracemalloc.start()
    try:
        sol = solve_invariant(Q)
        rep = maximum_principle_check(Q)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 200e6
    assert sol.residual <= 1e-10 * Q.lambda_max
    assert rep.passed


# ---------------------------------------------------------------------------
# H functional and curves
# ---------------------------------------------------------------------------

def test_h_function_two_state():
    pi = np.array([0.5, 0.5])
    h = HFunctional.from_name("square")
    assert h_function(pi, np.array([1.0, 0.0]), h) == pytest.approx(2.0)


def test_h_function_at_equilibrium_is_h1_times_mass(a2a201):
    sol = solve_invariant(a2a201.Q)
    for name in ["xlogx", "square", "square-dev"]:
        h = HFunctional.from_name(name)
        expected = h(1.0) * sol.pi.sum()
        assert h_function(sol.pi, sol.pi, h) == pytest.approx(expected, abs=1e-12)


def test_h_function_zero_state_nodes_finite():
    pi = np.array([0.25, 0.25, 0.5])
    nu = np.array([0.5, 0.0, 0.5])
    h = HFunctional.from_name("xlogx")
    val = h_function(pi, nu, h)
    assert np.isfinite(val)


def test_h_function_support_violation():
    ref = np.array([0.5, 0.5, 0.0])
    nu = np.array([0.2, 0.2, 0.6])
    with pytest.raises(SupportViolation):
        h_function(ref, nu, HFunctional.from_name("square"))


def test_two_state_h_curve_closed_form(two_state):
    h = HFunctional.from_name("square")
    times = [0.0, 0.5, 1.0]
    curve = h_curve(two_state, np.array([1.0, 0.0]), h, times, tol=1e-12)
    exact = 1 + np.exp(-4 * np.asarray(times))
    assert np.max(np.abs(curve.H - exact)) <= 1e-8
    assert curve.max_increase == 0.0


def test_curve_started_at_equilibrium_is_constant(a2a201):
    sol = solve_invariant(a2a201.Q)
    h = HFunctional.from_name("xlogx")
    curve = h_curve(a2a201.Q, sol.pi, h, np.linspace(0, 5, 26), tol=1e-12)
    assert np.max(np.abs(curve.H - curve.H[0])) <= 1e-12


def test_corollary_regime_nonintegrable_reference():
    spec, rho = kb.catalog_example("appendix2a", 0.0)
    assert not rho.normalizable
    grid = Grid.from_domain(spec.domain, 201)
    Q = build_qmatrix(spec, grid)
    x = grid.x
    nu0 = np.maximum(0.0, 1.0 - (x / 2.0) ** 2) ** 2
    nu0 /= nu0.sum()
    h = HFunctional.from_name("square-dev", value_at_zero=0.0)
    # with the h(0)=0 convention the compact-support start is evaluated on
    # its own support; decay is monotone once the state has full support
    times = np.linspace(0.05, 8.0, 60)
    curve = h_curve(Q, nu0, h, times, tol=1e-12)
    assert curve.max_increase <= 1e-10


@given(st.integers(0, 2**31 - 1), st.sampled_from(["xlogx", "square", "square-dev"]))
def test_monotonicity_battery(seed, hname):
    rng = np.random.default_rng(seed)
    spec, _ = kb.catalog_example("appendix2a", 1.0)
    grid = Grid.from_domain(spec.domain, 81)
    Q = build_qmatrix(spec, grid)
    nu0 = rng.uniform(0.0, 1.0, size=grid.size)
    nu0 /= nu0.sum()
    h = HFunctional.from_name(hname)
    curve = h_curve(Q, nu0, h, [0.0, 0.3, 1.0, 3.0], tol=1e-12)
    assert curve.max_increase <= 1e-10


def test_h_scaling_invariance(two_state):
    # replacing h by alpha*h + c scales decrements by alpha exactly
    alpha, c = 2.5, 0.7
    base = HFunctional.from_name("square")
    scaled = HFunctional("custom-table",
                         lambda u: alpha * u * u + c,
                         d2fn=lambda u: 2 * alpha * np.ones_like(u),
                         value_at_zero=c)
    times = [0.0, 0.4, 1.2]
    nu0 = np.array([0.9, 0.1])
    c1 = h_curve(two_state, nu0, base, times, tol=1e-12)
    c2 = h_curve(two_state, nu0, scaled, times, tol=1e-12)
    assert np.allclose(np.diff(c2.H), alpha * np.diff(c1.H), rtol=1e-12)
    assert c1.is_monotone(1e-12) == c2.is_monotone(1e-12)


# ---------------------------------------------------------------------------
# dissipation identity
# ---------------------------------------------------------------------------

def test_dissipation_zero_at_equilibrium(ou400):
    h = HFunctional.from_name("square")
    rho0 = np.exp(-ou400.x**2 / 2)
    rate = dissipation_rate(ou400.spec, rho0, np.ones(ou400.grid.size), h,
                            grid=ou400.grid)
    assert rate == pytest.approx(0.0, abs=1e-20)


def test_dissipation_zero_for_pure_drift():
    spec = GeneratorSpec(1, CE("0"), CE("1"), DomainSpec("box", ((0.0, 1.0),)))
    grid = Grid.from_domain(spec.domain, 51)
    h = HFunctional.from_name("square")
    phi = np.sin(grid.x * 3)
    assert dissipation_rate(spec, np.ones(grid.size), phi, h, grid=grid) == 0.0


def test_dissipation_ou_closed_form(ou400):
    grid = Grid.from_domain(ou400.spec.domain, 801)
    x = grid.x
    h = HFunctional.from_name("square")
    rate = dissipation_rate(ou400.spec, np.exp(-x**2 / 2), 1 + 0.1 * x, h, grid=grid)
    assert rate == pytest.approx(-0.02 * np.sqrt(2 * np.pi), rel=1e-4)


def test_dissipation_sign_and_converse(ou400):
    rng = np.random.default_rng(5)
    h = HFunctional.from_name("xlogx")
    grid = ou400.grid
    rho0 = np.exp(-grid.x**2 / 2)
    for _ in range(25):
        phi = 1.0 + 0.5 * np.abs(np.sin(rng.uniform(0.5, 3) * grid.x))
        assert dissipation_rate(ou400.spec, rho0, phi, h, grid=grid) <= 1e-14
    # flipping the diffusion sign near one node makes the profile whose
    # gradient lives there heat up
    flip_at = grid.x[grid.size // 2]
    bad_spec = GeneratorSpec(
        1, lambda x: 1.0 - 2.0 * np.exp(-((np.asarray(x) - flip_at) ** 2) / 1e-2),
        CE("-x"), ou400.spec.domain)
    phi = 1.0 + 0.2 * np.exp(-((grid.x - flip_at) ** 2) / (2 * 0.05**2))
    assert dissipation_rate(bad_spec, rho0, phi, h, grid=grid) > 0.0


# ---------------------------------------------------------------------------
# boundary term
# ---------------------------------------------------------------------------

def test_boundary_term_suppressed_by_decaying_density(a2a401):
    sol = solve_invariant(a2a401.Q)
    nu0 = gaussian_measure(a2a401.x, 2.0, 1.0)
    nut = evolve_density(a2a401.Q, nu0, 1.0, tol=1e-12)
    vals = nut.values if hasattr(nut, "values") else nut
    phi = vals / sol.pi
    h = HFunctional.from_name("square")
    assert boundary_term(a2a401.spec, a2a401.rho, phi, h, grid=a2a401.grid) <= 1e-4


def test_boundary_term_zero_at_equilibrium_ratio(a2a401):
    h = HFunctional.from_name("square-dev")  # h(1) = 0
    phi = np.ones(a2a401.grid.size)
    assert boundary_term(a2a401.spec, a2a401.rho, phi, h, grid=a2a401.grid) == 0.0


def test_boundary_term_flags_wall_gradient(a2a401):
    h = HFunctional.from_name("square")
    phi = 1.0 + 0.1 * a2a401.x
    assert boundary_term(a2a401.spec, a2a401.rho, phi, h, grid=a2a401.grid) > 1e-3


def test_boundary_term_samples_an_analytic_density():
    spec, rho = kb.catalog_example("appendix2a", 1.0)
    grid = Grid.from_domain(spec.domain, 101)
    phi = 1.0 + 0.1 * grid.x
    bare = kb.EquilibriumDensity(rho_fn=rho.rho_fn)  # no Gibbs data: H_i from the samples
    for kind in ("xlogx", "square"):
        h = HFunctional.from_name(kind)
        assert isinstance(rho.on_grid(grid), np.ndarray)
        assert boundary_term(spec, bare, phi, h, grid=grid) == \
            boundary_term(spec, rho.on_grid(grid), phi, h, grid=grid)
    assert boundary_term(spec, rho, np.ones(101), HFunctional.from_name("xlogx"),
                         grid=grid) >= 0.0


def _one_sided_by_hand(values, x, at_start):
    """The three-point one-sided first derivative at a wall, written out as
    its three terms c_0 f_0, c_1 f_1 and c_2 f_2 from the wall inward: a
    reference for the wall rule that shares no code with numpy."""
    if at_start:
        h1, h2, f = x[1] - x[0], x[2] - x[1], values[..., :3]
        sign = 1.0
    else:
        h1, h2, f = x[-1] - x[-2], x[-2] - x[-3], values[..., ::-1][..., :3]
        sign = -1.0
    c = sign * np.array([-(2 * h1 + h2) / (h1 * (h1 + h2)), (h1 + h2) / (h1 * h2),
                         -h1 / (h2 * (h1 + h2))])
    return c * f


def test_wall_derivatives_are_np_gradient_edges():
    # a = 1, b = 0 and flat samples give H_i = 0, so the flux at a wall is
    # |d/dx h(phi)| there; phi is flat next to the other wall, whose flux
    # is then rounding only
    x = np.linspace(0.0, 1.0, 41) + 0.3 * np.linspace(0.0, 1.0, 41) ** 2  # nonuniform
    grid = Grid((x,))
    spec = GeneratorSpec(1, Polynomial([1.0]), Polynomial([0.0]),
                         DomainSpec("box", ((x[0], x[-1]),)))
    ones = np.ones(x.size)
    h = HFunctional.from_name("square")
    ramps = 1.0 + 0.1 * np.arange(1, 9)[:, None] * np.sin(3 * x)
    for wall, flat in ((0, slice(-3, None)), (-1, slice(None, 3))):
        phis = ramps.copy()
        phis[:, flat] = 1.0
        flux = boundary_term(spec, ones, phis, h, grid=grid)
        edges = np.gradient(h(phis), x, axis=-1, edge_order=2)[:, wall]
        assert np.all(np.abs(edges) > 0.1)
        assert np.array_equal(flux, np.abs(edges))
        # the three-point formula sums the same three products, in the other
        # order at the upper wall: a few ulps of the largest of them
        terms = _one_sided_by_hand(h(phis), x, at_start=wall == 0)
        bound = 4 * np.finfo(float).eps * np.abs(terms).max(axis=-1)
        assert np.all(np.abs(flux - np.abs(terms.sum(axis=-1))) <= bound)
        rows = [boundary_term(spec, ones, phi, h, grid=grid) for phi in phis]
        assert np.array_equal(flux, rows)


def test_density_samples_are_one_finite_number_per_node():
    spec, _ = kb.catalog_example("ornstein-uhlenbeck")
    grid = Grid.from_domain(spec.domain, 21)
    phi, h = np.ones(21), HFunctional.from_name("square")
    calls = [lambda rho: residual_invariant(spec, rho, grid),
             lambda rho: compute_Hi(spec, rho, grid),
             lambda rho: boundary_term(spec, rho, phi, h, grid=grid),
             lambda rho: dissipation_rate(spec, rho, phi, h, grid=grid)]
    nonfinite = np.ones(21)
    nonfinite[[3, 7]] = np.nan, np.inf
    first = re.escape(f"rho = nan at point 3 (x = {[float(grid.x[3])]}) is not finite")
    for call in calls:
        for wrong in (np.ones(5), 1.0, np.ones((1, 21))):
            with pytest.raises(ShapeError, match=r"one per grid node, \(21,\)$"):
                call(wrong)
        with pytest.raises(ParameterOutOfRange, match=f"^{first}$"):
            call(nonfinite)


def test_states_are_one_entry_per_grid_node():
    spec, _ = kb.catalog_example("ornstein-uhlenbeck")
    grid = Grid.from_domain(spec.domain, 21)
    rho, h = np.ones(21), HFunctional.from_name("square")
    calls = [lambda phi: boundary_term(spec, rho, phi, h, grid=grid),
             lambda phi: dissipation_rate(spec, rho, phi, h, grid=grid)]
    for call in calls:
        for n in (30, 5):
            for wrong in (1 + 0.1 * np.arange(n), np.ones((3, n))):
                with pytest.raises(ShapeError, match=r"one entry per grid node, n = 21$"):
                    call(wrong)
        for wrong in (1.0, np.ones((2, 3, 21))):
            with pytest.raises(ShapeError, match=r"n = 21$"):
                call(wrong)
        assert np.shape(call(1 + 0.1 * np.arange(21))) == ()
        assert np.shape(call(np.ones((3, 21)))) == (3,)


def test_nan_state_has_nan_h_and_lower_wall_flux(a2a401):
    # the larger wall flux is taken as Python's max(lo, hi) takes it, so
    # only a NaN at the lower wall reaches the flux; H sees every NaN
    square = HFunctional.from_name("square")
    phi = np.ones(a2a401.grid.size)
    phi[0] = np.nan
    with np.errstate(all="ignore"):
        assert np.isnan(boundary_term(a2a401.spec, a2a401.rho, phi, square, grid=a2a401.grid))
    for node in (0, 200, -1):
        nu = np.array(a2a401.w)
        nu[node] = np.nan
        assert np.isnan(h_function(a2a401.w, nu, square))


def _phi_stack(setup):
    """Snapshots of phi = nu/pi, plus copies with NaN or inf at one wall."""
    sol = solve_invariant(setup.Q)
    nu0 = gaussian_measure(setup.x, 2.0, 1.0)
    res = kb.evolve_series(setup.Q, nu0, np.linspace(0.0, 1.0, 6), tol=1e-12)
    phis = res.fields / sol.pi
    bad = []
    for value in (np.nan, np.inf):
        for wall in (0, -1):
            row = phis[2].copy()
            row[wall] = value
            bad.append(row)
    return sol, np.vstack([phis, bad])


def test_stacked_identity_terms_equal_row_by_row(a2a401):
    sol, phis = _phi_stack(a2a401)
    grid, spec = a2a401.grid, a2a401.spec
    rho = sol.pi / a2a401.Q.quadrature_weights()
    req = a2a401.rho.on_grid(grid)
    with np.errstate(all="ignore"):
        for kind in ("xlogx", "square", "square-dev"):
            h = HFunctional.from_name(kind)
            for density in (rho, req):
                rates = dissipation_rate(spec, density, phis, h, grid=grid)
                rows = [dissipation_rate(spec, density, phi, h, grid=grid) for phi in phis]
                assert rates.shape == (len(phis),)
                assert np.array_equal(rates, rows, equal_nan=True)
            for density in (rho, a2a401.rho):
                flux = boundary_term(spec, density, phis, h, grid=grid)
                rows = [boundary_term(spec, density, phi, h, grid=grid) for phi in phis]
                assert flux.shape == (len(phis),)
                assert np.array_equal(flux, rows, equal_nan=True)
    # a NaN state has a NaN rate; inf at the upper wall makes the upper flux
    # NaN, and the lower one is kept, as Python's max(lo, hi) keeps it
    square = HFunctional.from_name("square")
    with np.errstate(all="ignore"):
        assert np.isnan(dissipation_rate(spec, rho, phis, square, grid=grid)[-4])
        assert np.isfinite(boundary_term(spec, rho, phis, square, grid=grid)[-1])


def test_h_curves_computes_hi_once_per_functional(a2a401, monkeypatch):
    import kinbench.htheorem as ht
    calls = []
    compute = ht.compute_Hi
    monkeypatch.setattr(ht, "compute_Hi", lambda *a: calls.append(a) or compute(*a))
    hs = [HFunctional.from_name(k) for k in ("xlogx", "square", "square-dev")]
    times = np.linspace(0.0, 1.0, 11)
    nu0 = gaussian_measure(a2a401.x, 2.0, 1.0)
    _, curves = ht.h_curves(a2a401.Q, nu0, hs, times, 1e-12, spec=a2a401.spec)
    assert len(calls) == len(hs)
    for curve in curves.values():
        assert curve.dissipation.shape == curve.boundary.shape == times.shape


# ---------------------------------------------------------------------------
# dH/dt consistency
# ---------------------------------------------------------------------------

def test_dhdt_gap_ou(ou400):
    h = HFunctional.from_name("square-dev")
    nu0 = gaussian_measure(ou400.x, 2.0, 0.5)
    rep = dH_dt_consistency(ou400.Q, ou400.spec, None, nu0, h, t=0.5, dt=1e-3)
    assert rep.relative_gap <= 0.02


@pytest.mark.parametrize("dt", [0.0, -1e-3, np.nan, np.inf])
def test_dhdt_step_must_be_finite_and_positive(ou400, dt):
    h = HFunctional.from_name("square-dev")
    nu0 = gaussian_measure(ou400.x, 2.0, 0.5)
    with pytest.raises(ParameterOutOfRange, match="dt = "):
        dH_dt_consistency(ou400.Q, ou400.spec, None, nu0, h, t=0.5, dt=dt)


def test_dhdt_equilibrium_both_vanish(ou400):
    sol = solve_invariant(ou400.Q)
    h = HFunctional.from_name("square-dev")
    rep = dH_dt_consistency(ou400.Q, ou400.spec, None, sol.pi, h, t=0.5, dt=1e-3)
    assert abs(rep.numeric_slope) <= 1e-9
    assert abs(rep.analytic_rate) <= 1e-9
    assert rep.relative_gap == 0.0


@pytest.mark.parametrize("kind", ["density", "short-vector", "string"])
def test_an_unusable_reference_is_rejected_by_name(a2a201, kind):
    reference = {"density": a2a201.rho, "short-vector": np.ones(7), "string": "pi"}[kind]
    h = HFunctional.from_name("square-dev")
    nu0 = gaussian_measure(a2a201.x, 2.0, 0.5)
    with pytest.raises(ParameterOutOfRange, match="None, an InvariantSolution or a measure"):
        h_curve(a2a201.Q, nu0, h, [0.0, 0.1], reference=reference)
    with pytest.raises(ParameterOutOfRange, match="None, an InvariantSolution or a measure"):
        dH_dt_consistency(a2a201.Q, a2a201.spec, reference, nu0, h, t=0.5, dt=1e-3)


def test_dhdt_gap_appendix2b(a2b400):
    h = HFunctional.from_name("square-dev")
    nu0 = gaussian_measure(a2b400.x, 2.0, 0.5)
    rep = dH_dt_consistency(a2b400.Q, a2b400.spec, None, nu0, h, t=0.5, dt=1e-3)
    assert rep.relative_gap <= 0.05
