"""Command-line front door: scenario documents in, CSV/JSON artifacts out.

Exit codes: 0 all checks pass, 1 a mathematical invariant failed,
2 malformed input.  Reports are byte-deterministic for a fixed seed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import replace

import numpy as np

from . import oracle as oracle_mod
from .discretize import Grid, build_qmatrix
from .errors import (
    DomainError,
    ExpressionError,
    KinbenchError,
    NoInvariantDensity,
    NonEllipticCoefficient,
    ParameterOutOfRange,
    ScenarioError,
    ShapeError,
    UnknownExample,
)
from .htheorem import HFunctional, h_curves, solve_invariant
from .pawula import (
    OrderTooLow,
    maximum_principle_check,
    pawula_counterexample,
    second_order_sign_check,
)
from .semigroup import (
    chapman_kolmogorov_defect,
    evolve_series,
    generator_at_max,
    resolvent,
)
from .serialize import (
    canonical_json,
    certificate_to_dict,
    fmt,
    load_generator,
    operator_from_dict,
    spec_to_dict,
    write_ensemble_csv,
    write_evolution_csv,
    write_hcurve_csv,
    write_qmatrix,
    write_summary_csv,
)

INPUT_ERRORS = (
    ScenarioError,
    ExpressionError,
    UnknownExample,
    ParameterOutOfRange,
    NonEllipticCoefficient,
    DomainError,
    ShapeError,
    OrderTooLow,
)


def _load_document(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise ScenarioError(f"no such file: {path}") from None
    except json.JSONDecodeError as exc:
        raise ScenarioError(
            f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from None


def _times_from(doc):
    times = doc.get("times", {"start": 0.0, "stop": 10.0, "num": 201})
    if isinstance(times, dict):
        try:
            return np.linspace(float(times["start"]), float(times["stop"]),
                               int(times["num"]))
        except KeyError as exc:
            raise ScenarioError(f"times needs field {exc}") from None
    return np.asarray([float(t) for t in times])


def _initial_measure(doc, grid, pi=None):
    """Initial density descriptor -> measure vector (unit total mass)."""
    desc = doc.get("initial_density", {"kind": "gaussian", "center": 0.0, "sigma": 1.0})
    kind = desc.get("kind")
    x = grid.x
    if kind == "gaussian":
        c = float(desc.get("center", 0.0))
        s = float(desc.get("sigma", 1.0))
        vals = np.exp(-((x - c) ** 2) / (2 * s * s))
    elif kind == "delta":
        at = float(desc.get("at", 0.0))
        vals = np.zeros(x.size)
        vals[int(np.argmin(np.abs(x - at)))] = 1.0
    elif kind == "bump":
        c = float(desc.get("center", 0.0))
        wdt = float(desc.get("width", 1.0))
        vals = np.maximum(0.0, 1.0 - ((x - c) / wdt) ** 2) ** 2
    elif kind == "equilibrium":
        if pi is None:
            raise ScenarioError("equilibrium start requested but no invariant available")
        vals = pi.copy()
    elif kind == "table":
        vals = np.asarray(desc.get("values", []), dtype=float)
        if vals.size != x.size:
            raise ScenarioError(
                f"initial_density table has {vals.size} values, grid has {x.size}")
        if np.any(vals < 0):
            raise ScenarioError("initial_density table must be nonnegative")
    else:
        raise ScenarioError(f"unknown initial_density kind {kind!r}")
    total = vals.sum()
    if total <= 0:
        raise ScenarioError("initial density has no mass on the grid")
    return vals / total


def _h_list(doc):
    entries = doc.get("h_functionals", ["xlogx", "square", "square-dev"])
    out = []
    for e in entries:
        if isinstance(e, str):
            out.append(HFunctional.from_name(e))
        else:
            out.append(HFunctional.from_name(e["kind"], e.get("value_at_zero")))
    return out


def _build_from_scenario(doc, args):
    gen_doc = doc.get("generator")
    if gen_doc is None:
        raise ScenarioError("scenario needs a 'generator' entry")
    spec, rho = load_generator(gen_doc)
    n = int(doc.get("grid", {}).get("n", 401))
    if args.grid_n is not None:
        n = args.grid_n
    grid = Grid.from_domain(spec.domain, n)
    scheme = doc.get("scheme", "exponential-fitting")
    spec.check_admissible(grid.nodes_for_eval())
    Q = build_qmatrix(spec, grid, scheme)
    return spec, rho, grid, Q


def _tol_from(doc, args):
    tol = float(doc.get("tol", 1e-10))
    if args.tol is not None:
        tol = args.tol
    if not (0 < tol <= 1e-6):
        raise ScenarioError(f"tol must lie in (0, 1e-6], got {tol:g}")
    return tol


def _outdir(doc, args):
    out = doc.get("out", "kinbench-out")
    if args.out is not None:
        out = args.out
    os.makedirs(out, exist_ok=True)
    return out


class CheckSheet:
    """Named pass/fail records destined for summary.json."""

    def __init__(self):
        self.checks = {}

    def record(self, name, value, threshold, passed=None):
        if passed is None:
            passed = bool(value <= threshold)
        self.checks[name] = {
            "pass": bool(passed),
            "value": float(value),
            "threshold": float(threshold),
        }
        return passed

    def all_pass(self):
        return all(c["pass"] for c in self.checks.values())

    def failing(self):
        return [k for k, c in self.checks.items() if not c["pass"]]


def cmd_run(args):
    doc = _load_document(args.scenario)
    tol = _tol_from(doc, args)
    out = _outdir(doc, args)
    spec, rho, grid, Q = _build_from_scenario(doc, args)
    times = _times_from(doc)
    sheet = CheckSheet()

    rep = maximum_principle_check(Q)
    sheet.record("maximum_principle_offdiag", -rep.min_offdiag, 1e-12)
    sheet.record("maximum_principle_rowsums", rep.max_abs_rowsum, 1e-10)

    want_invariant = doc.get("checks", {}).get("invariant_measure", True)
    sol = None
    if want_invariant:
        try:
            sol = solve_invariant(Q)
        except NoInvariantDensity as exc:
            sheet.record("invariant_measure", 1.0, 0.0, passed=False)
            summary = {
                "scenario": os.path.abspath(args.scenario),
                "generator": spec_to_dict(spec, rho),
                "checks": sheet.checks,
                "error": f"NoInvariantDensity: {exc}",
            }
            with open(os.path.join(out, "summary.json"), "w") as fh:
                fh.write(canonical_json(summary))
            print(f"FAIL invariant_measure: NoInvariantDensity: {exc}")
            return 1
        sheet.record("invariant_residual", sol.residual, 1e-10 * Q.lambda_max * 2)

    nu0 = _initial_measure(doc, grid, sol.pi if sol is not None else None)
    rho_grid = rho.on_grid(grid) if rho is not None else None
    hs = _h_list(doc)

    if sol is not None:
        result, curves = h_curves(Q, nu0, hs, times, tol, reference=sol, spec=spec,
                                  boundary_density=rho_grid)
        for kind, curve in curves.items():
            sheet.record(f"h_monotone_{kind}", curve.max_increase, tol)
            write_hcurve_csv(os.path.join(out, f"hcurve_{kind}.csv"), curve)
    else:
        result = evolve_series(Q, nu0, times, tol=tol, side="density")

    sheet.record("min_density", -result.min_value.min(), tol * float(np.max(nu0)))
    sheet.record("mass_drift", float(np.abs(result.mass - result.mass[0]).max()),
                 max(1e-9, 1e3 * tol))

    ck_pair = doc.get("checks", {}).get("chapman_kolmogorov", [0.3, 0.7])
    ck = chapman_kolmogorov_defect(Q, float(ck_pair[0]), float(ck_pair[1]), tol=tol)
    sheet.record("chapman_kolmogorov", ck, 3 * max(tol, 1e-13))

    lambdas = doc.get("checks", {}).get("resolvent_lambdas", [0.1, 1.0, 10.0])
    rng = np.random.default_rng(int(doc.get("seed", 0)) if args.seed is None else args.seed)
    worst = 0.0
    for lam in lambdas:
        for _ in range(10):
            g = rng.standard_normal(grid.size)
            fsol = resolvent(Q, float(lam), g)
            vals = fsol.values if hasattr(fsol, "values") else fsol
            worst = max(worst, float(lam) * np.abs(vals).max() / np.abs(g).max())
    sheet.record("resolvent_bound", worst, 1.0 + 1e-12)

    worst_dis = -np.inf
    for _ in range(10):
        f = rng.standard_normal(grid.size)
        worst_dis = max(worst_dis, generator_at_max(Q, f))
    sheet.record("dissipativity_at_max", worst_dis, 1e-12)

    write_evolution_csv(os.path.join(out, "evolution.csv"), result)
    write_summary_csv(os.path.join(out, "evolution_summary.csv"), result)
    write_qmatrix(os.path.join(out, "qmatrix.txt"),
                  os.path.join(out, "qmatrix_meta.json"), Q)

    summary = {
        "scenario": os.path.abspath(args.scenario),
        "generator": spec_to_dict(spec, rho),
        "grid": {"n": grid.shape[0], "bounds": [float(grid.x[0]), float(grid.x[-1])]},
        "scheme": Q.scheme,
        "tol": tol,
        "lambda_max": Q.lambda_max,
        "truncated_mass_outside": _mass_outside(rho, grid),
        "checks": sheet.checks,
    }
    with open(os.path.join(out, "summary.json"), "w") as fh:
        fh.write(canonical_json(summary))

    for name, chk in sorted(sheet.checks.items()):
        tag = "ok" if chk["pass"] else "FAIL"
        print(f"{tag:4s} {name}: value={chk['value']:.3g} threshold={chk['threshold']:.3g}")
    if not sheet.all_pass():
        print(f"FAILED invariants: {', '.join(sheet.failing())}")
        return 1
    print(f"all checks passed; artifacts in {out}")
    return 0


def _mass_outside(rho, grid):
    """Analytic-density mass outside the truncation box (documented in output)."""
    if rho is None or rho.rho_fn is None or not rho.normalizable:
        return None
    try:
        from scipy.integrate import quad

        lo, hi = float(grid.x[0]), float(grid.x[-1])
        inside, _ = quad(lambda t: float(rho.rho_fn(t)), lo, hi, limit=200)
        return max(0.0, 1.0 - inside / rho.total_mass)
    except Exception:
        return None


def cmd_pawula(args):
    doc = _load_document(args.scenario)
    out = _outdir(doc, args)
    op, options = operator_from_dict(doc)
    if op.order <= 2:
        pts = doc.get("points")
        if pts is None:
            pts = np.linspace(-10.0, 10.0, 201)
        passed, worst = second_order_sign_check(op, np.asarray(pts, dtype=float))
        verdict = {
            "order": op.order,
            "verdict": "pass" if passed else "fail",
            "worst_second_order_coefficient": worst,
        }
        with open(os.path.join(out, "pawula_verdict.json"), "w") as fh:
            fh.write(canonical_json(verdict))
        if passed:
            print(f"pass: order {op.order} operator with second-order "
                  f"coefficient >= {fmt(worst)} everywhere sampled")
            return 0
        print(f"FAIL: second-order coefficient dips to {fmt(worst)}")
        return 1
    cert = pawula_counterexample(op, options["x0"], options["epsilon"],
                                 options["amplitude"])
    cert_doc = certificate_to_dict(cert)
    with open(os.path.join(out, "pawula_certificate.json"), "w") as fh:
        fh.write(canonical_json(cert_doc))
    print(f"violation: order {op.order} term breaks the maximum principle at "
          f"x0 = {fmt(cert.x0)}")
    print(f"  witness {cert.describe()}")
    print(f"  operator value at the maximum: {fmt(cert.value)} > 0 "
          f"(validity radius {fmt(cert.validity_radius)})")
    return 0


def cmd_invariant(args):
    doc = _load_document(args.scenario)
    out = _outdir(doc, args)
    spec, rho, grid, Q = _build_from_scenario(doc, args)
    try:
        sol = solve_invariant(Q)
    except NoInvariantDensity as exc:
        print(f"FAIL invariant_measure: NoInvariantDensity: {exc}")
        with open(os.path.join(out, "summary.json"), "w") as fh:
            fh.write(canonical_json({"error": f"NoInvariantDensity: {exc}"}))
        return 1
    w = grid.weights()
    x = grid.x
    with open(os.path.join(out, "invariant.csv"), "w") as fh:
        fh.write("node_index,x,pi,density\n")
        for i in range(grid.size):
            fh.write(f"{i},{fmt(x[i])},{fmt(sol.pi[i])},{fmt(sol.pi[i] / w[i])}\n")
    summary = {
        "unique": sol.unique,
        "residual": sol.residual,
        "n_basis": len(sol.basis),
    }
    if rho is not None:
        rg = rho.on_grid(grid, normalize=True)
        L1 = float(np.dot(np.abs(sol.pi / w - rg.values), w))
        summary["L1_vs_analytic"] = L1
    with open(os.path.join(out, "summary.json"), "w") as fh:
        fh.write(canonical_json(summary))
    print(f"invariant solved: unique={sol.unique} residual={sol.residual:.3g}")
    if "L1_vs_analytic" in summary:
        print(f"L1 distance to analytic equilibrium: {summary['L1_vs_analytic']:.3g}")
    return 0


def cmd_hcurve(args):
    doc = _load_document(args.scenario)
    tol = _tol_from(doc, args)
    out = _outdir(doc, args)
    spec, rho, grid, Q = _build_from_scenario(doc, args)
    times = _times_from(doc)
    try:
        sol = solve_invariant(Q)
    except NoInvariantDensity as exc:
        print(f"FAIL invariant_measure: NoInvariantDensity: {exc}")
        return 1
    nu0 = _initial_measure(doc, grid, sol.pi)
    hs = _h_list(doc)
    rho_grid = rho.on_grid(grid) if rho is not None else None
    _, curves = h_curves(Q, nu0, hs, times, tol, reference=sol, spec=spec,
                         boundary_density=rho_grid)
    ok = True
    for kind, curve in curves.items():
        write_hcurve_csv(os.path.join(out, f"hcurve_{kind}.csv"), curve)
        monotone = curve.max_increase <= tol
        ok = ok and monotone
        tag = "ok" if monotone else "FAIL"
        print(f"{tag:4s} {kind}: H {curve.H[0]:.6g} -> {curve.H[-1]:.6g}, "
              f"max increase {curve.max_increase:.3g}")
    return 0 if ok else 1


def cmd_oracle_compare(args):
    doc = _load_document(args.scenario)
    tol = _tol_from(doc, args)
    out = _outdir(doc, args)
    spec, rho, grid, Q = _build_from_scenario(doc, args)
    osettings = doc.get("oracle", {})
    n = int(osettings.get("particles", 100_000))
    dt = float(osettings.get("dt", 1e-3))
    seed = int(osettings.get("seed", 1234))
    if args.seed is not None:
        seed = args.seed
    snap_times = [float(t) for t in osettings.get("snapshot_times", [0.5, 1.0, 2.0])]

    desc = doc.get("initial_density", {"kind": "gaussian", "center": 0.0, "sigma": 1.0})
    if desc.get("kind") == "gaussian":
        sampler = oracle_mod.gaussian_source(float(desc.get("center", 0.0)),
                                             float(desc.get("sigma", 1.0)))
    elif desc.get("kind") == "delta":
        sampler = oracle_mod.point_source(float(desc.get("at", 0.0)))
    else:
        raise ScenarioError(
            "oracle comparison supports gaussian or delta initial densities")
    nu0 = _initial_measure(doc, grid)

    w = grid.weights()
    dx = float(np.max(np.diff(grid.x)))
    rows = []
    all_ok = True
    evo = evolve_series(Q, nu0, snap_times, tol=min(tol, 1e-9))
    for t, fld in zip(snap_times, evo.fields):
        ens = oracle_mod.simulate(spec, sampler, n, dt, t, seed)
        emp = oracle_mod.empirical_density(ens, grid)
        vals = fld.values if hasattr(fld, "values") else fld
        pde_density = vals / w
        L1 = float(np.dot(np.abs(emp - pde_density), w))
        occupied = int(np.sum((emp > 0) | (pde_density > 1e-12)))
        budget = 3.0 * (np.sqrt(occupied / n) + dx + dt)
        ok = L1 <= budget
        all_ok = all_ok and ok
        rows.append({"t": t, "L1": L1, "budget": budget, "bins_occupied": occupied,
                     "pass": bool(ok)})

    import warnings as _w

    moment_rows = []
    x0_list = [float(v) for v in osettings.get("moment_points", [0.0])]
    t_small = float(osettings.get("moment_window", 1e-2))
    with _w.catch_warnings():
        _w.simplefilter("ignore")
        for x0 in x0_list:
            est = oracle_mod.moment_estimates(spec, x0, t_small, n, seed)
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

    report = {
        "particles": n,
        "dt": dt,
        "seed": seed,
        "snapshots": rows,
        "moments": moment_rows,
        "budget_formula": "3*(sqrt(bins_occupied/particles) + dx + dt)",
    }
    with open(os.path.join(out, "oracle_compare.json"), "w") as fh:
        fh.write(canonical_json(report))
    # the last snapshot's ensemble; its first m particles are exactly an
    # m-particle run with the same seed, dt and T
    m = min(n, 10_000)
    write_ensemble_csv(os.path.join(out, "ensemble.csv"),
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
    for name, fn in [
        ("run", cmd_run),
        ("pawula", cmd_pawula),
        ("invariant", cmd_invariant),
        ("hcurve", cmd_hcurve),
        ("oracle-compare", cmd_oracle_compare),
    ]:
        sp = sub.add_parser(name)
        sp.add_argument("scenario", help="scenario or operator document (JSON)")
        sp.add_argument("--out", default=None, help="output directory")
        sp.add_argument("--seed", type=int, default=None, help="seed override")
        sp.add_argument("--tol", type=float, default=None, help="tolerance override")
        sp.add_argument("--grid-n", type=int, default=None, help="grid size override")
        sp.set_defaults(func=fn)
    return p


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except INPUT_ERRORS as exc:
        print(f"input error ({type(exc).__name__}): {exc}", file=sys.stderr)
        return 2
    except NoInvariantDensity as exc:
        print(f"FAIL: NoInvariantDensity: {exc}", file=sys.stderr)
        return 1
    except KinbenchError as exc:
        print(f"FAIL ({type(exc).__name__}): {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
