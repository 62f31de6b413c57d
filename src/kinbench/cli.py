"""Command-line front door: scenario documents in, CSV/JSON artifacts out.

Every command reads its document through ``_document`` and each field
through ``_field``; ``_scenario`` applies the overrides the command takes
(``--out``, ``--tol``, ``--seed``, ``--grid-n``), builds the chain and
refuses a declared equilibrium whose field H_i is not zero.

Exit codes: 0 all checks pass, 1 a mathematical invariant failed, 2 an
``InputError``: an unreadable document, or a malformed field, which the
message names by its dotted path.  Reports are byte-deterministic for a
fixed seed.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
import warnings
from collections import namedtuple
from dataclasses import replace

import numpy as np

from . import oracle as oracle_mod
from .discretize import Grid, build_qmatrix, check_scheme
from .errors import (
    DomainError,
    InputError,
    KinbenchError,
    NoInvariantDensity,
    NotAnEquilibrium,
    ScenarioError,
    SpectrumError,
)
from .generator import _on_nodes, compute_Hi
from .htheorem import HFunctional, h_curves, solve_invariant
from .pawula import (
    DEFAULT_EPSILON,
    OFFDIAG_TOL,
    ROWSUM_TOL,
    TruncatedOperator,
    pawula_counterexample,
    second_order_sign_check,
)
from .semigroup import (
    _check_times,
    _check_tol,
    chapman_kolmogorov_defect,
    evolve_series,
    generator_at_max,
    resolvent,
    time_schedule,
)
from .serialize import (
    canonical_json,
    certificate_to_dict,
    coefficient_from_json,
    fmt,
    load_generator,
    spec_to_dict,
    write_ensemble_csv,
    write_evolution_csv,
    write_hcurve_csv,
    write_qmatrix,
    write_summary_csv,
)

_log = logging.getLogger("kinbench.cli")

# A declared equilibrium must have max|H_i| within this fraction of
# max|2(a' - b)|, the term beta a H' cancels; the catalog reads 3e-16 of it
EQUILIBRIUM_TOL = 1e-10

# closed-form initial densities: parameter -> default
DENSITY_PARAMS = {
    "gaussian": {"center": 0.0, "sigma": 1.0},
    "delta": {"at": 0.0},
    "bump": {"center": 0.0, "width": 1.0},
    "equilibrium": {},
}


def _document(args):
    """The JSON object at ``args.scenario`` and its (created) output directory."""
    try:
        with open(args.scenario) as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"{args.scenario}: invalid JSON at line {exc.lineno}, "
                            f"column {exc.colno}: {exc.msg}") from None
    except (OSError, UnicodeDecodeError) as exc:
        raise ScenarioError(f"cannot read {args.scenario}: {exc}") from None
    if not isinstance(doc, dict):
        raise ScenarioError(f"{args.scenario}: the document must be a JSON object")
    out = args.out if args.out is not None else _field(doc, "out", str, "kinbench-out")
    os.makedirs(out, exist_ok=True)
    return doc, out


def _field(doc, path, convert, default):
    """The dotted field ``path`` of ``doc`` (or ``default``) through ``convert``."""
    *parents, leaf = path.split(".")
    try:
        for key in parents:
            doc = doc.get(key, {})
        value = doc.get(leaf, default)
    except AttributeError:
        raise ScenarioError(f"malformed {path}: {'.'.join(parents)} is not an object") from None
    return _named(path, convert, value)


def _named(path, convert, value):
    """``convert(value)``; a malformed value raises ScenarioError naming ``path``."""
    try:
        return convert(value)
    except KeyError as exc:
        raise ScenarioError(f"{path} needs field {exc}") from None
    except (TypeError, ValueError, IndexError, OverflowError, AttributeError, InputError) as exc:
        raise ScenarioError(f"malformed {path}: {exc}") from None


def _natural(value):
    """A nonnegative integer: 41 and 1e5 pass, 41.7, -1 and true do not."""
    if isinstance(value, bool) or int(value) != float(value) or int(value) < 0:
        raise ValueError(f"{value!r} is not a nonnegative integer")
    return int(value)


def _particles(value):
    n = _natural(value)
    if n < 2:
        raise ValueError("at least two particles are needed: a standard error needs two draws")
    return n


def _boolean(value):
    if not isinstance(value, bool):
        raise TypeError(f"{value!r} is not a JSON boolean")
    return value


def _finite(value):
    value = float(value)
    if not np.isfinite(value):
        raise ValueError(f"{value!r} is not a finite number")
    return value


def _positive(value):
    value = _finite(value)
    if not value > 0:
        raise ValueError(f"{value!r} is not positive")
    return value


def _array(value):
    """A list field's value, which must be a JSON array: anything else is
    refused, a string too, whose characters would read "159" as 1, 5 and 9."""
    if not isinstance(value, list):
        raise TypeError(f"{value!r} is not a JSON array")
    return value


def _interior_points(values, domain):
    """Finite points strictly inside a 1-D domain: a particle started on or
    past a wall would be clipped to it."""
    points = [_finite(v) for v in _array(values)]
    for p in points:
        if not domain.contains(p, interior=True):
            raise DomainError(f"{p:g} is not in the interior of {domain.bounds[0]}")
    return points


def _times(times):
    """A time schedule: a JSON array of times, or {start, stop, num}."""
    if isinstance(times, dict):
        return time_schedule(np.linspace(_finite(times["start"]), _finite(times["stop"]),
                                         _natural(times["num"])))
    return time_schedule(_array(times))


def _sample_points(values):
    """At least one point, each a finite number: no points would pass any operator."""
    points = [_finite(v) for v in _array(values)]
    if not points:
        raise ValueError("at least one point is needed")
    return points


def _lags(values):
    s, t = (float(v) for v in _array(values))
    _check_times(s, t)
    return s, t


def _rates(values):
    rates = [float(v) for v in _array(values)]
    if not rates:
        raise ValueError("at least one resolvent parameter is needed")
    if not all(0 < lam < np.inf for lam in rates):
        raise SpectrumError("resolvent parameters must be positive and finite")
    return rates


def _h_functionals(entries):
    """One HFunctional per entry, each of its own kind: a curve and its CSV are
    named by the kind, so a repeated kind would hide all but its last entry."""
    if not _array(entries):
        raise ValueError("at least one H functional is needed")
    hs = [HFunctional.from_name(e) if isinstance(e, str)
          else HFunctional.from_name(e["kind"], e.get("value_at_zero")) for e in entries]
    kinds = [h.kind for h in hs]
    if len(set(kinds)) < len(kinds):
        raise ValueError(f"each kind may appear once, got {', '.join(kinds)}")
    return hs


def _operator(terms):
    """An operator document's ``coefficients`` map as a TruncatedOperator of its top order."""
    coeffs = {_natural(k): coefficient_from_json(v, 1) for k, v in terms.items()}
    if not coeffs:
        raise ValueError("an operator needs at least one term")
    return TruncatedOperator(max(coeffs), coeffs)


def _initial_density(desc):
    kind = desc["kind"]
    if kind == "table":
        values = np.asarray(_array(desc.get("values", [])), dtype=float)
        if not np.all(np.isfinite(values) & (values >= 0)):
            raise ValueError("initial_density.values must be finite and nonnegative")
        return {"kind": kind, "values": values}
    if kind not in DENSITY_PARAMS:
        raise ValueError(f"unknown kind {kind!r}")
    params = {k: float(desc.get(k, v)) for k, v in DENSITY_PARAMS[kind].items()}
    for k in ("sigma", "width"):  # scales: zero divides by zero
        if k in params and not params[k] > 0:
            raise ValueError(f"initial_density.{k} must be positive, got {params[k]:g}")
    return {"kind": kind, **params}


# a scenario document read field by field, overrides applied, chain built
Scenario = namedtuple("Scenario", "path out tol seed times initial hs checks oracle "
                                  "spec rho grid Q")


def _scenario(args):
    """Read a scenario document, apply the command-line overrides, build Q and
    check the declared equilibrium."""
    doc, out = _document(args)
    spec, rho = _field(doc, "generator", load_generator, None)
    if spec.dimension != 1:  # n-D chains are library-only for now
        raise ScenarioError(f"generator.dimension is {spec.dimension}; the CLI runs 1-D chains")
    tol = _named("tol", _check_tol,
                 args.tol if args.tol is not None else _field(doc, "tol", float, 1e-10))
    checks = {
        "invariant_measure": _field(doc, "checks.invariant_measure", _boolean, True),
        "chapman_kolmogorov": _field(doc, "checks.chapman_kolmogorov", _lags, [0.3, 0.7]),
        "resolvent_lambdas": _field(doc, "checks.resolvent_lambdas", _rates, [0.1, 1.0, 10.0]),
    }
    oracle = {
        "particles": _field(doc, "oracle.particles", _particles, 100_000),
        "dt": _field(doc, "oracle.dt", _positive, 1e-3),
        "seed": args.seed if args.seed is not None else _field(doc, "oracle.seed", _natural, 1234),
        "snapshot_times": _field(doc, "oracle.snapshot_times",
                                 lambda v: time_schedule(_array(v)).tolist(), [0.5, 1.0, 2.0]),
        "moment_points": _field(doc, "oracle.moment_points",
                                lambda v: _interior_points(v, spec.domain),
                                [0.5 * sum(spec.domain.bounds[0])]),
        "moment_window": _field(doc, "oracle.moment_window", _positive, 1e-2),
    }
    seed = args.seed if args.seed is not None else _field(doc, "seed", _natural, 0)
    times = _field(doc, "times", _times, {"start": 0.0, "stop": 10.0, "num": 201})
    initial = _field(doc, "initial_density", _initial_density, {"kind": "gaussian"})
    hs = _field(doc, "h_functionals", _h_functionals, ["xlogx", "square", "square-dev"])
    scheme = _field(doc, "scheme", check_scheme, "exponential-fitting")
    n = args.grid_n if args.grid_n is not None else _field(doc, "grid.n", _natural, 401)
    grid = _named("grid.n", lambda n: Grid.from_domain(spec.domain, n), n)
    Q = _named("generator", lambda spec: build_qmatrix(spec, grid, scheme), spec)
    if rho is not None:
        _check_equilibrium(spec, rho, grid)
    return Scenario(args.scenario, out, tol, seed, times, initial, hs, checks, oracle,
                    spec, rho, grid, Q)


def _check_equilibrium(spec, rho, grid):
    """NotAnEquilibrium unless H_i = 2(beta a H' - a' + b), -2 times rho's
    probability current over rho, is zero on the nodes to EQUILIBRIUM_TOL
    times max|2(a' - b)|; a NaN fails, and so does an infinite H_i or scale,
    whose threshold would be infinite too."""
    Hi = np.abs(compute_Hi(spec, rho, grid))
    (_, da), (b,) = _on_nodes(spec.a, grid.x, 1), _on_nodes(spec.b, grid.x)
    scale = float(np.max(np.abs(2 * (da - b))))
    worst = int(np.argmax(Hi))  # the first NaN, if any
    value, threshold = float(Hi[worst]), EQUILIBRIUM_TOL * scale
    _log.debug("equilibrium: max|H_i| = %.3g, %.3g of max|2(a' - b)| = %.3g",
               value, value / scale if scale else np.nan, scale)
    if not value <= threshold < np.inf:
        # a' or b not finite at a node leaves H_i not finite there too
        why = (f"above {threshold:.3g} (EQUILIBRIUM_TOL times max|2(a' - b)| = {scale:.3g}): "
               "it carries a probability current" if threshold < np.inf else
               f"and max|2(a' - b)| = {scale:.3g}: the check needs both finite")
        raise NotAnEquilibrium(f"the declared equilibrium has max|H_i| = {value:.3g} "
                               f"at x = {grid.x[worst]:g}, {why}")


def _initial_measure(sc, pi=None):
    """Initial density descriptor -> measure vector (unit total mass)."""
    init = sc.initial
    kind = init["kind"]
    x = sc.grid.x
    if kind == "gaussian":
        c, s = init["center"], init["sigma"]
        vals = np.exp(-((x - c) ** 2) / (2 * s * s))
    elif kind == "delta":
        vals = np.zeros(x.size)
        vals[int(np.argmin(np.abs(x - init["at"])))] = 1.0
    elif kind == "bump":
        vals = np.maximum(0.0, 1.0 - ((x - init["center"]) / init["width"]) ** 2) ** 2
    elif kind == "equilibrium":
        if pi is None:
            raise ScenarioError("equilibrium start requested but no invariant available")
        vals = pi.copy()
    else:
        vals = init["values"]
        if vals.size != x.size:
            raise ScenarioError(
                f"initial_density table has {vals.size} values, grid has {x.size}")
    total = vals.sum()
    if total <= 0:
        raise ScenarioError("initial density has no mass on the grid")
    return vals / total


def _write_json(out, name, doc):
    with open(os.path.join(out, name), "w") as fh:
        fh.write(canonical_json(doc))


def _record(sheet, name, value, threshold, passed=None):
    """Add a named pass/fail record destined for summary.json."""
    sheet[name] = {
        "pass": bool(value <= threshold if passed is None else passed),
        "value": float(value),
        "threshold": float(threshold),
    }


def _solve_invariant(sc, sheet):
    """solve_invariant; NoInvariantDensity is reported in summary.json and re-raised."""
    try:
        return solve_invariant(sc.Q)
    except NoInvariantDensity as exc:
        _record(sheet, "invariant_measure", 1.0, 0.0, passed=False)
        _write_json(sc.out, "summary.json", {
            "scenario": os.path.abspath(sc.path),
            "generator": spec_to_dict(sc.spec, sc.rho),
            "checks": sheet,
            "error": f"NoInvariantDensity: {exc}",
        })
        print(f"FAIL invariant_measure: NoInvariantDensity: {exc}")
        raise


def cmd_run(args):
    sc = _scenario(args)
    Q, grid, tol = sc.Q, sc.grid, sc.tol
    sheet = {}

    rep = Q.maximum_principle
    _record(sheet, "maximum_principle_offdiag", -rep.min_offdiag, OFFDIAG_TOL)
    _record(sheet, "maximum_principle_rowsums", rep.max_abs_rowsum, ROWSUM_TOL)

    sol = None
    if sc.checks["invariant_measure"]:
        sol = _solve_invariant(sc, sheet)
        _record(sheet, "invariant_residual", sol.residual, 1e-10 * Q.lambda_max * 2)

    nu0 = _initial_measure(sc, sol.pi if sol is not None else None)
    # CK before the evolution: its kernel reuses the memory CK freed (CK after
    # it gave 5.5 MB more peak RSS at n = 1001); summary.json sorts the keys
    s, t = sc.checks["chapman_kolmogorov"]
    ck = chapman_kolmogorov_defect(Q, s, t, tol=tol)
    _record(sheet, "chapman_kolmogorov", ck, 3 * max(tol, 1e-13))

    if sol is not None:
        result, curves = h_curves(Q, nu0, sc.hs, sc.times, tol, reference=sol,
                                  spec=sc.spec, boundary_density=sc.rho)
        for kind, curve in curves.items():
            _record(sheet, f"h_monotone_{kind}", curve.max_increase, tol)
            write_hcurve_csv(os.path.join(sc.out, f"hcurve_{kind}.csv"), curve)
    else:
        result = evolve_series(Q, nu0, sc.times, tol=tol)

    _record(sheet, "min_density", -result.min_value.min(), tol * float(np.max(nu0)))
    _record(sheet, "mass_drift", float(np.abs(result.mass - result.mass[0]).max()),
                   max(1e-9, 1e3 * tol))

    # each lambda's 10 draws (the bytes of 10 draws of n), their magnitudes and
    # the constant 1, in one solve
    rng = np.random.default_rng(sc.seed)
    worst = constant = 0.0
    lowest = np.inf
    for lam in sc.checks["resolvent_lambdas"]:
        G = rng.standard_normal((10, grid.size)).T
        F = resolvent(Q, lam, np.column_stack([G, np.abs(G), np.ones(grid.size)]))
        bound = lam * np.abs(F[:, :10]).max(axis=0) / np.abs(G).max(axis=0)
        worst = max(worst, float(bound.max()))
        constant = max(constant, float(np.abs(lam * F[:, 20] - 1.0).max()))
        lowest = min(lowest, float(F[:, 10:20].min()))
    _record(sheet, "resolvent_bound", worst, 1.0 + 1e-12)
    _record(sheet, "resolvent_constant", constant, 1e-12)
    _record(sheet, "resolvent_positivity", -lowest, 0.0)

    worst_dis = -np.inf
    for _ in range(10):
        f = rng.standard_normal(grid.size)
        worst_dis = max(worst_dis, generator_at_max(Q, f))
    _record(sheet, "dissipativity_at_max", worst_dis, 1e-12)

    write_evolution_csv(os.path.join(sc.out, "evolution.csv"), result, Q.node_coordinates())
    write_summary_csv(os.path.join(sc.out, "evolution_summary.csv"), result)
    write_qmatrix(os.path.join(sc.out, "qmatrix.txt"),
                  os.path.join(sc.out, "qmatrix_meta.json"), Q, sc.spec.domain.boundary_condition)

    _write_json(sc.out, "summary.json", {
        "scenario": os.path.abspath(sc.path),
        "generator": spec_to_dict(sc.spec, sc.rho),
        "grid": {"n": grid.shape[0], "bounds": [float(grid.x[0]), float(grid.x[-1])]},
        "scheme": Q.scheme,
        "tol": tol,
        "lambda_max": Q.lambda_max,
        "truncated_mass_outside": _mass_outside(sc.rho, grid),
        "checks": sheet,
    })

    for name, chk in sorted(sheet.items()):
        tag = "ok" if chk["pass"] else "FAIL"
        print(f"{tag:4s} {name}: value={chk['value']:.3g} threshold={chk['threshold']:.3g}")
    failing = [name for name, chk in sheet.items() if not chk["pass"]]
    if failing:
        print(f"FAILED invariants: {', '.join(failing)}")
        return 1
    print(f"all checks passed; artifacts in {sc.out}")
    return 0


def _mass_outside(rho, grid):
    """Analytic-density mass outside the truncation box (documented in output).

    None without an analytic density or a finite total mass (inline Gibbs
    forms carry none).  The mass inside is a 16-point Gauss-Legendre rule
    on 64 equal panels, in log x when the interval is positive.
    """
    if rho is None or rho.rho_fn is None or not rho.normalizable:
        return None
    lo, hi = float(grid.x[0]), float(grid.x[-1])
    in_log = lo > 0
    edges = np.linspace(*(np.log([lo, hi]) if in_log else (lo, hi)), 65)
    nodes, weights = np.polynomial.legendre.leggauss(16)
    half = np.diff(edges)[:, None] / 2
    t = (edges[:-1, None] + half * (nodes + 1)).ravel()
    w = (half * weights).ravel()
    if in_log:
        t = np.exp(t)
        w = w * t
    inside = float(np.sum(w * rho.rho_fn(t)))
    return max(0.0, 1.0 - inside / rho.total_mass)


def cmd_pawula(args):
    doc, out = _document(args)
    op = _field(doc, "coefficients", _operator, {})
    op = _field(doc, "order", lambda k: replace(op, order=_natural(k)), op.order)
    x0 = _field(doc, "x0", float, 0.0)
    epsilon = _field(doc, "epsilon", float, DEFAULT_EPSILON)
    amplitude = _field(doc, "amplitude", lambda v: v if v is None else float(v), None)
    points = _field(doc, "points", _sample_points, np.linspace(-10.0, 10.0, 201).tolist())
    if op.order <= 2:
        passed, worst = second_order_sign_check(op, points)
        _write_json(out, "pawula_verdict.json", {
            "order": op.order,
            "verdict": "pass" if passed else "fail",
            "worst_second_order_coefficient": worst,
        })
        if passed:
            print(f"pass: order {op.order} operator with second-order "
                  f"coefficient >= {fmt(worst)} everywhere sampled")
            return 0
        print(f"FAIL: second-order coefficient dips to {fmt(worst)}")
        return 1
    cert = pawula_counterexample(op, x0, epsilon, amplitude)
    _write_json(out, "pawula_certificate.json", certificate_to_dict(cert))
    print(f"violation: order {op.order} term breaks the maximum principle at "
          f"x0 = {fmt(cert.x0)}")
    print(f"  witness {cert.describe()}")
    print(f"  operator value at the maximum: {fmt(cert.value)} > 0 "
          f"(validity radius {fmt(cert.validity_radius)})")
    return 0


def cmd_invariant(args):
    sc = _scenario(args)
    grid = sc.grid
    sol = _solve_invariant(sc, {})
    w = grid.weights()
    x = grid.x
    with open(os.path.join(sc.out, "invariant.csv"), "w") as fh:
        fh.write("node_index,x,pi,density\n")
        for i in range(grid.size):
            fh.write(f"{i},{fmt(x[i])},{fmt(sol.pi[i])},{fmt(sol.pi[i] / w[i])}\n")
    summary = {
        "unique": sol.unique,
        "residual": sol.residual,
        "n_basis": len(sol.basis),
    }
    if sc.rho is not None:
        rg = sc.rho.on_grid(grid, normalize=True)
        summary["L1_vs_analytic"] = float(np.dot(np.abs(sol.pi / w - rg), w))
    _write_json(sc.out, "summary.json", summary)
    print(f"invariant solved: unique={sol.unique} residual={sol.residual:.3g}")
    if "L1_vs_analytic" in summary:
        print(f"L1 distance to analytic equilibrium: {summary['L1_vs_analytic']:.3g}")
    return 0


def cmd_hcurve(args):
    sc = _scenario(args)
    sol = _solve_invariant(sc, {})
    _, curves = h_curves(sc.Q, _initial_measure(sc, sol.pi), sc.hs, sc.times, sc.tol,
                         reference=sol, spec=sc.spec, boundary_density=sc.rho)
    ok = True
    for kind, curve in curves.items():
        write_hcurve_csv(os.path.join(sc.out, f"hcurve_{kind}.csv"), curve)
        monotone = curve.is_monotone(sc.tol)
        ok = ok and monotone
        tag = "ok" if monotone else "FAIL"
        print(f"{tag:4s} {kind}: H {curve.H[0]:.6g} -> {curve.H[-1]:.6g}, "
              f"max increase {curve.max_increase:.3g}")
    return 0 if ok else 1


def cmd_oracle_compare(args):
    sc = _scenario(args)
    spec, grid, init = sc.spec, sc.grid, sc.initial
    n, dt, seed = sc.oracle["particles"], sc.oracle["dt"], sc.oracle["seed"]
    snap_times = sc.oracle["snapshot_times"]
    if init["kind"] == "gaussian":
        sampler = oracle_mod.gaussian_source(init["center"], init["sigma"])
    elif init["kind"] == "delta":
        sampler = oracle_mod.point_source(init["at"])
    else:
        raise ScenarioError(f"oracle comparison supports gaussian or delta initial "
                            f"densities, not {init['kind']!r}")
    nu0 = _initial_measure(sc)

    w = grid.weights()
    dx = float(np.max(np.diff(grid.x)))
    rows = []
    all_ok = True
    evo = evolve_series(sc.Q, nu0, snap_times, tol=sc.tol)
    ensembles = oracle_mod.simulate(spec, sampler, n, dt, snap_times[-1], seed,
                                    snapshots=snap_times)
    for t, fld, ens in zip(snap_times, evo.fields, ensembles):
        emp = oracle_mod.empirical_density(ens, grid)
        pde_density = fld / w
        L1 = float(np.dot(np.abs(emp - pde_density), w))
        occupied = int(np.sum((emp > 0) | (pde_density > 1e-12)))
        budget = 3.0 * (np.sqrt(occupied / n) + dx + dt)
        ok = L1 <= budget
        all_ok = all_ok and ok
        rows.append({"t": t, "L1": L1, "budget": budget, "bins_occupied": occupied,
                     "pass": bool(ok)})

    moment_rows = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for x0 in sc.oracle["moment_points"]:
            est = oracle_mod.moment_estimates(spec, x0, sc.oracle["moment_window"], n, seed)
            moment_rows.append({
                "x0": x0,
                "drift_true": float(spec.b(x0)),
                "drift_mc": est.drift,
                "drift_se": est.drift_se,
                "diffusion_true": float(spec.a(x0)),
                "diffusion_mc": est.diffusion,
                "diffusion_se": est.diffusion_se,
                "third_abs_over_t": est.third_abs_over_t,
            })

    _write_json(sc.out, "oracle_compare.json", {
        "particles": n,
        "dt": dt,
        "seed": seed,
        "snapshots": rows,
        "moments": moment_rows,
        "budget_formula": "3*(sqrt(bins_occupied/particles) + dx + dt)",
    })
    # the last snapshot's ensemble; its first m particles are exactly an
    # m-particle run with the same seed, dt and T
    m = min(n, 10_000)
    write_ensemble_csv(os.path.join(sc.out, "ensemble.csv"),
                       replace(ens, positions=ens.positions[:m], absorbed=ens.absorbed[:m]))
    for row in rows:
        tag = "ok" if row["pass"] else "FAIL"
        print(f"{tag:4s} t={row['t']:g}: L1={row['L1']:.4f} budget={row['budget']:.4f}")
    return 0 if all_ok else 1


def build_parser():
    p = argparse.ArgumentParser(
        prog="kinbench",
        description="Markov-semigroup workbench for kinetic equations",
    )
    sub = p.add_subparsers(dest="command", required=True)
    overrides = {"--seed": _natural, "--tol": float, "--grid-n": int}
    for name, fn, flags in [
        ("run", cmd_run, ("--seed", "--tol", "--grid-n")),
        ("pawula", cmd_pawula, ()),
        ("invariant", cmd_invariant, ("--grid-n",)),
        ("hcurve", cmd_hcurve, ("--tol", "--grid-n")),
        ("oracle-compare", cmd_oracle_compare, ("--seed", "--tol", "--grid-n")),
    ]:
        sp = sub.add_parser(name)
        sp.add_argument("scenario", help="scenario or operator document (JSON)")
        sp.add_argument("--out", default=None, help="output directory")
        for flag in flags:
            sp.add_argument(flag, type=overrides[flag], default=None, help=f"{flag[2:]} override")
        # _scenario reads every override; one the command does not take stays None
        sp.set_defaults(func=fn, seed=None, tol=None, grid_n=None)
    return p


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # a non-finite value meets a named check, not a numpy warning first
        with np.errstate(all="ignore"):
            return args.func(args)
    except InputError as exc:
        print(f"input error ({type(exc).__name__}): {exc}", file=sys.stderr)
        return 2
    except KinbenchError as exc:
        print(f"FAIL ({type(exc).__name__}): {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
