"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the report.
Tolerances are pinned here, not configurable.
"""

import time

import numpy as np
import pytest

import kinbench as kb
from kinbench.discretize import DiscreteGenerator, Grid, build_qmatrix
from kinbench.errors import OrderTooLow
from kinbench.htheorem import (
    HFunctional,
    boundary_term,
    dH_dt_consistency,
    h_curve,
    solve_invariant,
)
from kinbench.oracle import empirical_density, gaussian_source, simulate
from kinbench.pawula import TruncatedOperator, pawula_counterexample
from kinbench.semigroup import (
    chapman_kolmogorov_defect,
    evolve_series,
    resolvent,
)


def report(num, name, ok, detail=""):
    line = f"[criterion {num:2d}] {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def a2a():
    spec, rho = kb.catalog_example("appendix2a", 1.0)
    grid = Grid.from_domain(spec.domain, 401)
    Q = build_qmatrix(spec, grid)
    x = grid.x
    nu0 = np.exp(-((x - 2.0) ** 2) / 2)
    nu0 /= nu0.sum()
    return spec, rho, grid, Q, nu0


@pytest.fixture(scope="module")
def ou():
    spec, rho = kb.catalog_example("ornstein-uhlenbeck")
    grid = Grid.from_domain(spec.domain, 400)
    Q = build_qmatrix(spec, grid)
    return spec, rho, grid, Q


def test_criterion_1_markov_axioms(a2a):
    spec, rho, grid, Q, nu0 = a2a
    t0 = time.time()
    times = np.linspace(0.0, 10.0, 201)
    res = evolve_series(Q, nu0, times, tol=1e-12)
    min_density = float(res.min_value.min())
    mass_drift = float(np.abs(res.mass - res.mass[0]).max())
    ck = chapman_kolmogorov_defect(Q, 0.3, 0.7, tol=1e-12)
    elapsed = time.time() - t0
    ok = (min_density >= -1e-10 and mass_drift <= 1e-9
          and ck <= 3e-10 and elapsed <= 10.0)
    report(1, "markov axioms", ok,
           f"min={min_density:.2e} drift={mass_drift:.2e} ck={ck:.2e} "
           f"time={elapsed:.1f}s")


def test_criterion_2_h_theorem(a2a):
    spec, rho, grid, Q, nu0 = a2a
    times = np.linspace(0.0, 10.0, 200)
    worst = -np.inf
    for name in ["xlogx", "square", "square-dev"]:
        h = HFunctional.from_name(name)
        curve = h_curve(Q, nu0, h, times, tol=1e-12)
        worst = max(worst, curve.max_increase)
    sol = solve_invariant(Q)
    eq_curve = h_curve(Q, sol.pi, HFunctional.from_name("square"), times, tol=1e-12)
    eq_drift = float(np.abs(eq_curve.H - eq_curve.H[0]).max())
    ok = worst <= 1e-10 and eq_drift <= 1e-11
    report(2, "H-theorem monotonicity", ok,
           f"max increase={worst:.2e} equilibrium drift={eq_drift:.2e}")


def test_criterion_3_two_state_closed_form():
    Q = DiscreteGenerator([[-1.0, 1.0], [1.0, -1.0]])
    h = HFunctional.from_name("square")
    times = [0.0, 0.5, 1.0]
    curve = h_curve(Q, np.array([1.0, 0.0]), h, times, tol=1e-12)
    exact = 1.0 + np.exp(-4.0 * np.asarray(times))
    err = float(np.abs(curve.H - exact).max())
    report(3, "two-state closed form", err <= 1e-8, f"max err={err:.2e}")


def test_criterion_4_dissipation_identity(ou):
    spec, rho, grid, Q = ou
    h = HFunctional.from_name("square-dev")
    gaps = []
    for n in [400, 800]:
        g = Grid.from_domain(spec.domain, n)
        Qn = build_qmatrix(spec, g, "upwind")
        x = g.x
        nu0 = np.exp(-((x - 1.0) ** 2) / (2 * 0.25))
        nu0 /= nu0.sum()
        rep = dH_dt_consistency(Qn, spec, None, nu0, h, t=0.5, dt=1e-3)
        gaps.append(rep.relative_gap)
    ratio = gaps[1] / gaps[0]
    ok = gaps[0] <= 0.02 and 0.35 <= ratio <= 0.65
    report(4, "dissipation identity", ok,
           f"gap={gaps[0]:.4f} refinement ratio={ratio:.2f}")


def test_criterion_5_invariant_density():
    spec, rho = kb.catalog_example("appendix2a", 1.0)
    l1 = {}
    for n in [401, 1601]:
        grid = Grid.from_domain(spec.domain, n)
        Q = build_qmatrix(spec, grid)
        sol = solve_invariant(Q)
        w = grid.weights()
        analytic = (1.0 + grid.x**2) ** -1.5
        analytic /= np.dot(analytic, w)
        l1[n] = float(np.dot(np.abs(sol.pi / w - analytic), w))
    ok = l1[401] <= 0.01 and l1[1601] <= 0.003
    report(5, "invariant density accuracy", ok,
           f"L1(401)={l1[401]:.2e} L1(1601)={l1[1601]:.2e}")


def test_criterion_6_pawula_certificates():
    t0 = time.time()
    rng = np.random.default_rng(2718)
    ok = True
    for _ in range(100):
        k = int(rng.choice([3, 4, 5]))
        c2 = float(rng.uniform(-3, 3))
        ck = float(rng.choice([-1, 1]) * rng.uniform(0.05, 4.0))
        x0 = float(rng.uniform(-2, 2))
        op = TruncatedOperator(k, {2: c2, k: ck})
        cert = pawula_counterexample(op, x0)
        d = min(cert.validity_radius, 1.0) / 8
        second_diff = cert.g(np.array([x0 - d]))[0] - 2 * cert.g(np.array([x0]))[0] \
            + cert.g(np.array([x0 + d]))[0]
        ok = ok and cert.value > 0 and second_diff < 0 \
            and cert.g(np.array([x0 + d]))[0] < 0 and cert.g(np.array([x0 - d]))[0] < 0
    refused = 0
    for _ in range(100):
        c2 = float(rng.uniform(0.0, 3.0))
        c1 = float(rng.uniform(-2, 2))
        op = TruncatedOperator(2, {1: c1, 2: lambda x, c=c2: c + x**2})
        try:
            pawula_counterexample(op, float(rng.uniform(-2, 2)))
        except OrderTooLow:
            refused += 1
    elapsed = time.time() - t0
    ok = ok and refused == 100 and elapsed <= 5.0
    report(6, "order-obstruction certificates", ok,
           f"violations witnessed=100 refusals={refused} time={elapsed:.2f}s")


def test_criterion_7_moment_recovery(ou):
    # the chain's Kramers-Moyal moments, the t -> 0 limit of the kernel's
    # moments over t; the third must shrink as the cell h does
    spec, rho, grid, Q = ou
    mom = kb.chain_moments(Q)
    x = grid.x
    win = np.abs(x) <= 4.0  # central half of the domain
    b_err = float(np.max(np.abs(mom.drift[win, 0] + x[win]))) / 4.0
    a_err = float(np.max(np.abs(mom.diffusion[win, 0, 0] - 1.0)))
    peaks = []
    for n in [100, 200, 400]:
        g = Grid.from_domain(spec.domain, n)
        peaks.append(float(np.max(kb.chain_moments(build_qmatrix(spec, g)).third_abs[
            np.abs(g.x) <= 4.0])))
    ok = b_err <= 0.02 and a_err <= 0.02 and peaks[0] > peaks[1] > peaks[2]
    report(7, "chain-moment recovery", ok,
           f"drift err={b_err:.2g} diffusion err={a_err:.2g} "
           f"third at n=100,200,400: {peaks[0]:.3f}>{peaks[1]:.3f}>{peaks[2]:.4f}")


def test_criterion_8_resolvent_bound():
    rng = np.random.default_rng(314)
    violations = 0
    for name, alpha in [("appendix2a", 1.0), ("appendix2b", 1.0),
                        ("ornstein-uhlenbeck", None), ("pure-diffusion", None)]:
        spec, _ = kb.catalog_example(name, alpha)
        grid = Grid.from_domain(spec.domain, 401)
        Q = build_qmatrix(spec, grid)
        for lam in [0.1, 1.0, 10.0]:
            # the 50 draws of one lambda, as 50 sequential draws, in one solve
            G = rng.standard_normal((50, grid.size)).T
            F = resolvent(Q, lam, G)
            for f, g in zip(F.T, G.T):
                if lam * np.abs(f).max() > np.abs(g).max() * (1 + 1e-12):
                    violations += 1
    report(8, "resolvent contraction bound", violations == 0,
           f"violations={violations}/600")


def test_criterion_9_oracle_equivalence(ou):
    spec, rho, grid, Q = ou
    t0 = time.time()
    x = grid.x
    w = grid.weights()
    nu0 = np.exp(-((x - 2.0) ** 2) / (2 * 0.25))
    nu0 /= nu0.sum()
    sampler = gaussian_source(2.0, 0.5)
    snap = [0.5, 1.0, 2.0]
    evo = evolve_series(Q, nu0, snap, tol=1e-9)
    l1s = []
    ensembles = simulate(spec, sampler, 100_000, 1e-3, snap[-1], seed=42, snapshots=snap)
    for fld, ens in zip(evo.fields, ensembles):
        emp = empirical_density(ens, grid)
        l1s.append(float(np.dot(np.abs(emp - fld / w), w)))
    rerun = simulate(spec, sampler, 100_000, 1e-3, 0.5, seed=42)
    first = simulate(spec, sampler, 100_000, 1e-3, 0.5, seed=42)
    deterministic = np.array_equal(rerun.positions, first.positions)
    elapsed = time.time() - t0
    ok = max(l1s) <= 0.05 and deterministic and elapsed <= 60.0
    report(9, "particle-PDE equivalence", ok,
           f"L1={['%.3f' % v for v in l1s]} deterministic={deterministic} "
           f"time={elapsed:.1f}s")


def test_criterion_10_nonintegrable_regime():
    spec, rho = kb.catalog_example("appendix2a", 0.0)
    grid = Grid.from_domain(spec.domain, 401)
    Q = build_qmatrix(spec, grid)
    x = grid.x
    nu0 = np.maximum(0.0, 1.0 - (x / 2.0) ** 2) ** 2  # compact support
    nu0 /= nu0.sum()
    h = HFunctional.from_name("square-dev")
    times = np.linspace(0.0, 10.0, 101)
    curve = h_curve(Q, nu0, h, times, tol=1e-12)
    sol = solve_invariant(Q)
    res = evolve_series(Q, nu0, times, tol=1e-12)
    bmax = 0.0
    for fld in res.fields:
        bmax = max(bmax, boundary_term(spec, rho, fld / sol.pi, h, grid=grid))
    ok = curve.max_increase <= 1e-9 and bmax <= 1e-4
    report(10, "non-normalizable reference regime", ok,
           f"max increase={curve.max_increase:.2e} boundary={bmax:.2e}")
