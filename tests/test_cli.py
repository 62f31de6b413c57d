import json
import os
import pathlib
import subprocess
import sys
import time
import warnings

import numpy as np
import pytest

import kinbench as kb
from kinbench import cli, errors, htheorem, oracle
from kinbench.cli import _mass_outside, _natural, build_parser, main
from kinbench.expressions import CompiledExpression as CE
from kinbench.generator import CATALOG_NAMES
from kinbench.serialize import (
    certificate_to_dict,
    fmt,
    spec_from_dict,
    spec_to_dict,
    write_evolution_csv,
    write_hcurve_csv,
)

from conftest import (
    certificate_from_dict,
    read_csv_columns,
    read_qmatrix,
    reject_json_constant,
    toarray,
)

ROOT = pathlib.Path(__file__).resolve().parent.parent
SCENARIOS = ROOT / "scenarios"


def write_json(path, doc):
    path.write_text(json.dumps(doc) + "\n")
    return str(path)


@pytest.fixture(scope="module")
def run_artifacts(tmp_path_factory):
    out = tmp_path_factory.mktemp("run")
    code = main(["run", str(SCENARIOS / "appendix2a.json"),
                 "--out", str(out), "--grid-n", "201"])
    assert code == 0
    assert json.loads((out / "qmatrix_meta.json").read_text())["boundary_condition"] == "no-flux"
    return out


def test_run_writes_expected_artifacts(run_artifacts):
    for name in ["evolution.csv", "evolution_summary.csv", "summary.json",
                 "qmatrix.txt", "qmatrix_meta.json",
                 "hcurve_xlogx.csv", "hcurve_square.csv", "hcurve_square-dev.csv"]:
        assert (run_artifacts / name).exists(), name


def test_run_summary_checks_all_pass(run_artifacts):
    summary = json.loads((run_artifacts / "summary.json").read_text())
    assert summary["checks"], "no checks recorded"
    assert all(c["pass"] for c in summary["checks"].values())
    assert summary["scheme"] == "exponential-fitting"


def test_run_records_the_resolvent_checks(run_artifacts):
    checks = json.loads((run_artifacts / "summary.json").read_text())["checks"]
    assert {name: checks[name]["threshold"] for name in
            ["resolvent_bound", "resolvent_constant", "resolvent_positivity"]} == \
        {"resolvent_bound": 1.0 + 1e-12, "resolvent_constant": 1e-12, "resolvent_positivity": 0.0}
    assert checks["resolvent_constant"]["value"] <= 1e-13
    assert checks["resolvent_positivity"]["value"] < 0.0  # min f over the |G| columns > 0


def test_qmatrix_roundtrip_is_exact(run_artifacts):
    meta = json.loads((run_artifacts / "qmatrix_meta.json").read_text())
    Q = read_qmatrix(run_artifacts / "qmatrix.txt", meta["size"])
    spec, _ = kb.catalog_example("appendix2a", 1.0)
    grid = kb.Grid.from_domain(spec.domain, 201)
    rebuilt = kb.build_qmatrix(spec, grid)
    assert np.array_equal(Q.toarray(), toarray(rebuilt.Q))


def test_evolution_csv_roundtrips_to_the_bit(run_artifacts):
    cols = read_csv_columns(run_artifacts / "evolution_summary.csv")
    spec, _ = kb.catalog_example("appendix2a", 1.0)
    grid = kb.Grid.from_domain(spec.domain, 201)
    Q = kb.build_qmatrix(spec, grid)
    x = grid.x
    nu0 = np.exp(-((x - 2.0) ** 2) / 2)
    nu0 /= nu0.sum()
    res = kb.evolve_series(Q, nu0, np.linspace(0, 10, 201), tol=1e-12)
    assert np.array_equal(cols["mass"], res.mass)
    assert np.array_equal(cols["min_value"], res.min_value)


def test_evolution_csv_x_column_is_the_node_coordinate(run_artifacts):
    cols = read_csv_columns(run_artifacts / "evolution.csv")
    spec, _ = kb.catalog_example("appendix2a", 1.0)
    x = kb.Grid.from_domain(spec.domain, 201).x
    snapshots = cols["x"].size // x.size
    assert snapshots == 201
    assert np.array_equal(cols["x"], np.tile(x, snapshots))
    assert np.array_equal(cols["node_index"], np.tile(np.arange(x.size), snapshots))


def _evolution_csv_per_value(path, result, x):
    """The one-``fmt``-call-per-value writer that write_evolution_csv replaced."""
    with open(path, "w") as fh:
        fh.write("time,node_index,x,value\n")
        for t, vals in zip(result.times, result.fields):
            for i, (xi, v) in enumerate(zip(x, vals)):
                fh.write(f"{fmt(t)},{i},{fmt(xi)},{fmt(v)}\n")


def test_evolution_csv_bytes_match_the_per_value_writer(tmp_path):
    specials = [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -2.5e-310, 2.2250738585072014e-308,
                1e-300, 0.1, 1.0 / 3.0, -7.0, 1e300, 1.7976931348623157e308]
    fields = np.array([np.roll(specials, k) for k in range(3)])
    times = np.array([0.0, 1e-17, 0.1])
    x = np.linspace(-1.0, 1.0, len(specials))
    x[3] = -0.0
    result = kb.EvolutionResult(times, fields, *np.zeros((3, times.size)))
    write_evolution_csv(tmp_path / "new.csv", result, x)
    _evolution_csv_per_value(tmp_path / "ref.csv", result, x)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
    assert b",-0,-0\n" in (tmp_path / "new.csv").read_bytes()


def test_inline_gibbs_truncated_mass_is_null(tmp_path):
    # appendix2a at alpha = 1 written inline: the Gibbs form carries no total mass
    doc = {
        "generator": {
            "dimension": 1, "a": "1 + x^2", "b": "-x",
            "domain": {"kind": "full-line", "bounds": [[-10.0, 10.0]]},
            "gibbs": {"beta": 1.0, "H": "1.5*ln(1 + x^2)"},
        },
        "grid": {"n": 101},
        "times": {"start": 0.0, "stop": 1.0, "num": 5},
    }
    out = tmp_path / "out"
    assert main(["run", write_json(tmp_path / "inline.json", doc), "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["generator"]["gibbs"] == {"beta": 1.0, "H": "1.5*ln(1 + x^2)"}
    assert summary["truncated_mass_outside"] is None


# declared equilibria that carry a probability current: OU with twice its H
# (H_i = 2x, as large as the drift), a linear density under pure
# diffusion, whose constant current the residual (a rho)'' - (b rho)' misses,
# and a = x^0.5, whose a'(0) = inf makes H_i, its scale and so the threshold
# all inf at x = 0
NOT_EQUILIBRIA = {
    "ou-wrong-H": {"dimension": 1, "a": "1", "b": "-x",
                   "domain": {"kind": "full-line", "bounds": [[-8.0, 8.0]]},
                   "gibbs": {"H": "x^2", "beta": 1}},
    "constant-flux": {"dimension": 1, "a": "1", "b": "0",
                      "domain": {"kind": "box", "bounds": [[-1.0, 1.0]]},
                      "gibbs": {"H": "-ln(x + 2)", "beta": 1}},
    "infinite-scale": {"dimension": 1, "a": "x^0.5", "b": "-x",
                       "domain": {"kind": "box", "bounds": [[0.0, 1.0]]},
                       "gibbs": {"H": "x^3", "beta": 1}},
}


@pytest.mark.parametrize("command", ["run", "invariant", "hcurve", "oracle-compare"])
@pytest.mark.parametrize("generator", NOT_EQUILIBRIA.values(), ids=NOT_EQUILIBRIA.keys())
def test_a_declared_rho_with_a_current_exits_1_before_any_evolution(tmp_path, capsys,
                                                                   command, generator):
    doc = {"generator": generator, "grid": {"n": 51},
           "times": {"start": 0.0, "stop": 1.0, "num": 3},
           "oracle": {"particles": 100, "snapshot_times": [0.5]}}
    out = tmp_path / "out"
    assert main([command, write_json(tmp_path / "bad.json", doc), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("FAIL (NotAnEquilibrium): the declared equilibrium has max|H_i| = ")
    assert list(out.iterdir()) == []


def test_wrong_H_is_named_at_its_worst_node_as_large_as_the_drift(tmp_path, capsys, caplog):
    doc = {"generator": NOT_EQUILIBRIA["ou-wrong-H"], "grid": {"n": 201}}
    with caplog.at_level("DEBUG", logger="kinbench.cli"):
        assert main(["invariant", write_json(tmp_path / "bad.json", doc),
                     "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err == (
        "FAIL (NotAnEquilibrium): the declared equilibrium has max|H_i| = 16 at x = -8, "
        "above 1.6e-09 (EQUILIBRIUM_TOL times max|2(a' - b)| = 16): it carries a "
        "probability current\n")
    assert caplog.messages == ["equilibrium: max|H_i| = 16, 1 of max|2(a' - b)| = 16"]


@pytest.mark.parametrize("n", [21, 51, 101, 201, 400, 401, 1001, 2001])
def test_every_catalog_equilibrium_passes_the_check(n):
    for name in CATALOG_NAMES:
        for alpha in (0.0, 0.5, 1.0, 2.5, 7.0):
            spec, rho = kb.catalog_example(name, alpha)
            cli._check_equilibrium(spec, rho, kb.Grid.from_domain(spec.domain, n))


def test_a_check_that_reads_nan_fails():
    # H = x^0.5 has no derivative left of 0: NaN there must not pass the check
    spec, _ = kb.catalog_example("pure-diffusion")
    rho = kb.EquilibriumDensity(gibbs=(1.0, CE("x^0.5")))
    with np.errstate(invalid="ignore", divide="ignore"), pytest.raises(
            errors.NotAnEquilibrium, match=r"max\|H_i\| = nan at x = -1, above 0 "):
        cli._check_equilibrium(spec, rho, kb.Grid.from_domain(spec.domain, 21))


def test_an_equilibrium_with_no_mass_on_the_grid_is_named(tmp_path, capsys):
    # exp(-x^2/2 - 1000) is OU's equilibrium, but it underflows on every node
    doc = {"generator": {**NOT_EQUILIBRIA["ou-wrong-H"],
                         "gibbs": {"H": "x^2/2 + 1000", "beta": 1}}, "grid": {"n": 51}}
    assert main(["invariant", write_json(tmp_path / "nomass.json", doc),
                 "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == (
        "input error (ParameterOutOfRange): equilibrium density has total 0 on the grid; "
        "normalizing needs a positive, finite one\n")


@pytest.mark.parametrize("alpha", [0.1, 0.3, 1.0, 2.5, 5.0, 10.0])
def test_truncated_mass_matches_adaptive_quadrature(alpha):
    from scipy.integrate import quad

    for name in CATALOG_NAMES:
        spec, rho = kb.catalog_example(name, alpha)
        mass = _mass_outside(rho, kb.Grid.from_domain(spec.domain, 11))
        if not rho.normalizable:
            assert mass is None
            continue
        lo, hi = spec.domain.bounds[0]
        inside, _ = quad(lambda t: float(rho.rho_fn(t)), lo, hi, limit=200)
        assert abs(mass - max(0.0, 1.0 - inside / rho.total_mass)) <= 1e-15, name


def test_truncated_mass_lets_density_errors_raise():
    spec, rho = kb.catalog_example("ornstein-uhlenbeck")

    def broken(x):
        raise ValueError("density cannot be evaluated")

    rho.rho_fn = broken
    with pytest.raises(ValueError, match="cannot be evaluated"):
        _mass_outside(rho, kb.Grid.from_domain(spec.domain, 11))


def test_hcurve_csv_matches_library_h_curves(run_artifacts):
    spec, rho = kb.catalog_example("appendix2a", 1.0)
    grid = kb.Grid.from_domain(spec.domain, 201)
    Q = kb.build_qmatrix(spec, grid)
    sol = kb.solve_invariant(Q)
    x = grid.x
    nu0 = np.exp(-((x - 2.0) ** 2) / 2)
    nu0 /= nu0.sum()
    hs = [kb.HFunctional.from_name(k) for k in ("xlogx", "square", "square-dev")]
    times = np.linspace(0, 10, 201)
    _, curves = kb.h_curves(Q, nu0, hs, times, 1e-12, reference=sol, spec=spec,
                            boundary_density=rho)
    for h in hs:
        cols = read_csv_columns(run_artifacts / f"hcurve_{h.kind}.csv")
        curve = curves[h.kind]
        assert np.array_equal(cols["H"], curve.H)
        assert np.array_equal(cols["dissipation_rate"], curve.dissipation)
        assert np.array_equal(cols["boundary_term"], curve.boundary)
        single = kb.h_curve(Q, nu0, h, times, tol=1e-12, reference=sol)
        assert np.array_equal(single.H, curve.H)
        assert cols["max_increase_so_far"][-1] == curve.max_increase


def test_hcurve_csv_columns(run_artifacts):
    cols = read_csv_columns(run_artifacts / "hcurve_square.csv")
    assert set(cols) == {"time", "H", "dissipation_rate", "boundary_term",
                         "max_increase_so_far"}
    assert np.all(np.diff(cols["H"]) <= 1e-12)
    assert np.all(cols["max_increase_so_far"] <= 1e-12)


def test_nonelliptic_scenario_is_input_error(tmp_path):
    doc = {
        "generator": {
            "dimension": 1, "a": "-1", "b": "0",
            "domain": {"kind": "box", "bounds": [[-1.0, 1.0]], "bc": "no-flux"},
        },
        "grid": {"n": 21},
    }
    assert main(["run", write_json(tmp_path / "bad.json", doc),
                 "--out", str(tmp_path / "out")]) == 2


@pytest.mark.parametrize("command", ["run", "invariant", "hcurve"])
def test_absorbing_with_invariant_request_fails_named(command, tmp_path, capsys):
    code = main([command, str(SCENARIOS / "absorbing.json"),
                 "--out", str(tmp_path / "out")])
    out = capsys.readouterr().out
    assert code == 1
    assert "FAIL invariant_measure: NoInvariantDensity" in out
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["error"].startswith("NoInvariantDensity")
    assert not summary["checks"]["invariant_measure"]["pass"]


def test_absorbing_run_exports_the_domains_wall_rule(tmp_path):
    doc = json.loads((SCENARIOS / "absorbing.json").read_text())
    doc["checks"]["invariant_measure"] = False
    out = tmp_path / "out"
    assert main(["run", write_json(tmp_path / "absorbing.json", doc), "--out", str(out)]) == 0
    meta = json.loads((out / "qmatrix_meta.json").read_text())
    assert meta["boundary_condition"] == "absorbing"
    walls = (0, meta["size"] - 1)
    entries = [line.split()[:2] for line in (out / "qmatrix.txt").read_text().splitlines()]
    assert not [(r, c) for r, c in entries if int(r) in walls and r != c]


def test_malformed_json_is_input_error(tmp_path):
    p = tmp_path / "broken.json"
    p.write_text("{not json")
    assert main(["run", str(p)]) == 2
    assert main(["run", str(tmp_path / "missing.json")]) == 2


SMALL_SCENARIO = {
    "generator": {"catalog": "ornstein-uhlenbeck"},
    "grid": {"n": 21},
    "times": {"start": 0.0, "stop": 1.0, "num": 3},
}


INLINE_2D = {"dimension": 2, "a": "1", "b": "0",
             "domain": {"kind": "box", "bounds": [[-1, 1], [-1, 1]], "bc": "no-flux"}}

# (field, value, named): each value makes `run` exit 2 with `named` in stderr
MALFORMED_SCENARIO_FIELDS = {
    "grid.n": ("grid", {"n": "abc"}, "grid.n"),
    "tol": ("tol", "x", "tol"),
    "times.num": ("times", {"start": 0, "stop": 1, "num": -1}, "times"),
    "times.list": ("times", ["a"], "times"),
    "checks.chapman_kolmogorov": ("checks", {"chapman_kolmogorov": [0.3]},
                                  "checks.chapman_kolmogorov"),
    "initial_density.center": ("initial_density", {"kind": "gaussian", "center": "x"},
                               "initial_density"),
    "h_functionals.kind": ("h_functionals", ["square", {"value_at_zero": 0.0}],
                           "h_functionals"),
    # no functional would leave hcurve with nothing to write and run with no H check
    "h_functionals.empty": ("h_functionals", [], "h_functionals"),
    # a curve is named by its kind, so the second entry would hide the first's
    "h_functionals.repeated": ("h_functionals", [{"kind": "square-dev", "value_at_zero": 0},
                                                 "square-dev"], "h_functionals"),
    "generator": ("generator", "appendix2a", "generator"),
    "list": (None, "top-level list", "JSON object"),
    "directory": (None, "directory", "cannot read"),
    # values that convert but lie out of range are rejected when read, too
    "h_functionals.value_at_zero": ("h_functionals", [{"kind": "xlogx", "value_at_zero": "abc"}],
                                    "h_functionals"),
    "generator.dimension": ("generator", INLINE_2D, "generator.dimension"),
    # an infinite bound is caught by the domain, not by the moment point it would spoil
    "generator.bounds.inf": ("generator", {"dimension": 1, "a": "1", "b": "-x",
                                           "domain": {"kind": "box", "bounds": [[-8.0, np.inf]]}},
                             "generator"),
    "times.decreasing": ("times", [0.0, 1.0, 0.5], "times"),
    "times.nan": ("times", [0.0, float("nan")], "times"),
    "checks.chapman_kolmogorov.negative": ("checks", {"chapman_kolmogorov": [-0.3, 0.7]},
                                           "checks.chapman_kolmogorov"),
    "checks.resolvent_lambdas": ("checks", {"resolvent_lambdas": [-1]},
                                 "checks.resolvent_lambdas"),
    # no rate would leave resolvent_positivity at -inf, which JSON cannot hold
    "checks.resolvent_lambdas.empty": ("checks", {"resolvent_lambdas": []},
                                       "checks.resolvent_lambdas"),
    # non-finite times and rates are input errors, not tracebacks or vacuous passes
    "times.inf": ("times", [0.0, float("inf")], "times"),
    "times.stop.inf": ("times", {"start": 0, "stop": float("inf"), "num": 3}, "times"),
    "checks.chapman_kolmogorov.inf": ("checks", {"chapman_kolmogorov": [0.3, float("inf")]},
                                      "checks.chapman_kolmogorov"),
    "checks.chapman_kolmogorov.nan": ("checks", {"chapman_kolmogorov": [float("nan"), 0.7]},
                                      "checks.chapman_kolmogorov"),
    "checks.resolvent_lambdas.inf": ("checks", {"resolvent_lambdas": [float("inf")]},
                                     "checks.resolvent_lambdas"),
    "checks.resolvent_lambdas.nan": ("checks", {"resolvent_lambdas": [1.0, float("nan")]},
                                     "checks.resolvent_lambdas"),
    "oracle.dt.inf": ("oracle", {"dt": float("inf")}, "oracle.dt"),
    "oracle.dt.nan": ("oracle", {"dt": float("nan")}, "oracle.dt"),
    "oracle.moment_window.inf": ("oracle", {"moment_window": float("inf")},
                                 "oracle.moment_window"),
    "oracle.snapshot_times.inf": ("oracle", {"snapshot_times": [0.5, float("inf")]},
                                  "oracle.snapshot_times"),
    "grid.n.fraction": ("grid", {"n": 41.7}, "grid.n"),
    "grid.n.too_few": ("grid", {"n": 2}, "grid.n"),
    "seed.fraction": ("seed", 1.5, "seed"),
    "seed.bool": ("seed", True, "seed"),
    "seed.negative": ("seed", -1, "seed"),
    "oracle.seed": ("oracle", {"seed": 2.5}, "oracle.seed"),
    "oracle.particles": ("oracle", {"particles": 1e3 + 0.5}, "oracle.particles"),
    "oracle.snapshot_times": ("oracle", {"snapshot_times": [1.0, 0.5]},
                              "oracle.snapshot_times"),
    "scheme": ("scheme", "central", "scheme"),
    "checks.invariant_measure": ("checks", {"invariant_measure": "false"},
                                 "checks.invariant_measure"),
    "checks.invariant_measure.number": ("checks", {"invariant_measure": 0},
                                        "checks.invariant_measure"),
    "initial_density.sigma": ("initial_density", {"kind": "gaussian", "sigma": 0},
                              "initial_density.sigma"),
    "initial_density.width": ("initial_density", {"kind": "bump", "width": 0},
                              "initial_density.width"),
    # a table value that is not a finite, nonnegative number is malformed input
    "initial_density.values.nan": ("initial_density",
                                   {"kind": "table", "values": [1.0] * 10 + [float("nan")] * 11},
                                   "initial_density.values"),
    "initial_density.values.inf": ("initial_density",
                                   {"kind": "table", "values": [1.0] * 20 + [float("inf")]},
                                   "initial_density.values"),
    "initial_density.values.negative": ("initial_density",
                                        {"kind": "table", "values": [1.0] * 20 + [-1.0]},
                                        "initial_density.values"),
    "oracle.particles.zero": ("oracle", {"particles": 0}, "oracle.particles"),
    # a standard error needs two draws
    "oracle.particles.one": ("oracle", {"particles": 1}, "oracle.particles"),
    "generator.table": ("generator", {"dimension": 1, "a": {"points": [1, 0], "values": [1, 1]},
                                      "b": "0", "domain": {"kind": "box", "bounds": [[-1, 1]]}},
                        "generator"),
    # np.gradient of a table H fails the equilibrium check by its error alone
    "generator.gibbs.table": ("generator", {**NOT_EQUILIBRIA["ou-wrong-H"], "gibbs": {
        "beta": 1, "H": {"points": np.linspace(-8.0, 8.0, 161).tolist(),
                         "values": (np.linspace(-8.0, 8.0, 161) ** 2 / 2).tolist()}}},
                              "generator"),
    "tol.range": ("tol", 1e-3, "tol"),
    # a step and a window are positive; moment particles start inside the domain
    "oracle.dt.zero": ("oracle", {"dt": 0}, "oracle.dt"),
    "oracle.moment_window.negative": ("oracle", {"moment_window": -0.01},
                                      "oracle.moment_window"),
    "oracle.moment_points.outside": ("oracle", {"moment_points": [0.0, 100]},
                                     "oracle.moment_points"),
    "oracle.moment_points.wall": ("oracle", {"moment_points": [8.0]}, "oracle.moment_points"),
    "oracle.moment_points.inf": ("oracle", {"moment_points": [float("inf")]},
                                 "oracle.moment_points"),
    # a list field given as a string would be read as its characters: "159" as 1, 5 and 9
    "times.string": ("times", "159", "malformed times: '159' is not a JSON array"),
    "checks.chapman_kolmogorov.string": (
        "checks", {"chapman_kolmogorov": "15"},
        "malformed checks.chapman_kolmogorov: '15' is not a JSON array"),
    "checks.resolvent_lambdas.string": (
        "checks", {"resolvent_lambdas": "19"},
        "malformed checks.resolvent_lambdas: '19' is not a JSON array"),
    "oracle.snapshot_times.string": ("oracle", {"snapshot_times": "15"},
                                     "malformed oracle.snapshot_times: '15' is not a JSON array"),
    "oracle.moment_points.string": ("oracle", {"moment_points": "0"},
                                    "malformed oracle.moment_points: '0' is not a JSON array"),
    "h_functionals.string": ("h_functionals", "xlogx",
                             "malformed h_functionals: 'xlogx' is not a JSON array"),
    "initial_density.values.string": ("initial_density", {"kind": "table", "values": "123"},
                                      "malformed initial_density: '123' is not a JSON array"),
    # float() takes JSON's true as 1 and its NaN and Infinity tokens: a float field does not
    "tol.bool": ("tol", True, "malformed tol: True is not a finite number"),
    "tol.nonfinite": ("tol", float("nan"), "malformed tol: nan is not a finite number"),
    "checks.chapman_kolmogorov.bool": ("checks", {"chapman_kolmogorov": [True, 0.5]},
                                       "checks.chapman_kolmogorov"),
    "checks.resolvent_lambdas.bool": ("checks", {"resolvent_lambdas": [True]},
                                      "checks.resolvent_lambdas"),
    "times.bool": ("times", [0, True, 2], "times"),
    "times.start.bool": ("times", {"start": True, "stop": 2, "num": 3}, "times"),
    "initial_density.center.bool": ("initial_density", {"kind": "gaussian", "center": True},
                                    "initial_density.center"),
    "initial_density.center.nonfinite": ("initial_density",
                                         {"kind": "bump", "center": float("nan")},
                                         "initial_density.center"),
    "initial_density.sigma.bool": ("initial_density", {"kind": "gaussian", "sigma": True},
                                   "initial_density.sigma"),
    # an infinite sigma would start flat: every node at 1/n
    "initial_density.sigma.nonfinite": ("initial_density",
                                        {"kind": "gaussian", "center": 1.0, "sigma": float("inf")},
                                        "initial_density.sigma"),
    "initial_density.at.bool": ("initial_density", {"kind": "delta", "at": True},
                                "initial_density.at"),
    # argmin |x - inf| is node 0: the delta would sit on the left wall
    "initial_density.at.nonfinite": ("initial_density", {"kind": "delta", "at": float("inf")},
                                     "initial_density.at"),
    "initial_density.width.nonfinite": ("initial_density", {"kind": "bump", "width": float("inf")},
                                        "initial_density.width"),
    "initial_density.values.bool": ("initial_density", {"kind": "table", "values": [True] * 21},
                                    "initial_density.values"),
    "h_functionals.value_at_zero.bool": (
        "h_functionals", [{"kind": "xlogx", "value_at_zero": True}],
        "malformed h_functionals: malformed value_at_zero: True is not a finite number"),
    "h_functionals.value_at_zero.nonfinite": (
        "h_functionals", [{"kind": "xlogx", "value_at_zero": float("nan")}],
        "malformed h_functionals: malformed value_at_zero: nan is not a finite number"),
    "generator.alpha.bool": ("generator", {"catalog": "appendix2a", "alpha": True},
                             "malformed generator: malformed alpha: True is not a finite number"),
    "generator.alpha.nonfinite": (
        "generator", {"catalog": "appendix2a", "alpha": float("nan")},
        "malformed generator: malformed alpha: nan is not a finite number"),
    "generator.gibbs.beta.bool": (
        "generator", {**NOT_EQUILIBRIA["ou-wrong-H"], "gibbs": {"H": "x^2/2", "beta": True}},
        "malformed generator: malformed gibbs.beta: True is not a finite number"),
    "generator.gibbs.beta.nonfinite": (
        "generator", {**NOT_EQUILIBRIA["ou-wrong-H"], "gibbs": {"H": "x^2/2", "beta": np.inf}},
        "malformed generator: malformed gibbs.beta: inf is not a finite number"),
    "generator.a.bool": ("generator", {"dimension": 1, "a": True, "b": "-x",
                                       "domain": {"kind": "full-line", "bounds": [[-8.0, 8.0]]}},
                         "cannot interpret coefficient True"),
    "oracle.dt.bool": ("oracle", {"dt": True}, "oracle.dt"),
    "oracle.snapshot_times.bool": ("oracle", {"snapshot_times": [0.5, True]},
                                   "oracle.snapshot_times"),
    "oracle.moment_points.bool": ("oracle", {"moment_points": [True]}, "oracle.moment_points"),
}

ORACLE_FIELDS = {k: v for k, v in MALFORMED_SCENARIO_FIELDS.items() if k.startswith("oracle.")}


@pytest.mark.parametrize("field, value, named", MALFORMED_SCENARIO_FIELDS.values(),
                         ids=MALFORMED_SCENARIO_FIELDS.keys())
def test_malformed_scenario_field_is_named_input_error(tmp_path, capsys, field, value,
                                                       named):
    if field is not None:
        path = write_json(tmp_path / "bad.json", {**SMALL_SCENARIO, field: value})
    elif value == "top-level list":
        path = write_json(tmp_path / "bad.json", [SMALL_SCENARIO])
    else:
        path = str(tmp_path)
    assert main(["run", path, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error (") and err.count("\n") == 1
    assert named in err


PAWULA_K3 = json.loads((SCENARIOS / "pawula_k3.json").read_text())

# (field, value, named): each value makes `pawula` exit 2 with `named` in stderr
MALFORMED_OPERATOR_FIELDS = {
    "coefficients.key": ("coefficients", {"x": "1"}, "coefficients"),
    "coefficients.list": ("coefficients", [1], "coefficients"),
    "coefficients.expression": ("coefficients", {"3": "x +"}, "coefficients"),
    "coefficients.zeroth": ("coefficients", {"0": "1", "3": "1"}, "coefficients"),
    "coefficients.missing": ("coefficients", None, "coefficients"),
    "x0": ("x0", "abc", "x0"),
    "epsilon": ("epsilon", None, "epsilon"),
    "amplitude": ("amplitude", "big", "amplitude"),
    "order.below_key": ("order", 2, "order"),
    "order.fraction": ("order", 3.5, "order"),
    "order.bool": ("order", True, "order"),
    "points": ("points", ["a"], "points"),
    "points.empty": ("points", [], "points"),
    "points.nan": ("points", [0.0, float("nan")], "points"),
    "points.inf": ("points", [float("inf")], "points"),
    "points.string": ("points", "15", "malformed points: '15' is not a JSON array"),
    # the certificate could not be written: JSON holds no NaN or infinity
    "x0.nonfinite": ("x0", "nan", "malformed x0: nan is not a finite number"),
    "epsilon.nonfinite": ("epsilon", "inf", "malformed epsilon: inf is not a finite number"),
    "amplitude.nonfinite": ("amplitude", "nan", "malformed amplitude: nan is not a finite number"),
}


@pytest.mark.parametrize("field, value, named", MALFORMED_OPERATOR_FIELDS.values(),
                         ids=MALFORMED_OPERATOR_FIELDS.keys())
def test_malformed_operator_field_is_named_input_error(tmp_path, capsys, field, value, named):
    doc = {**PAWULA_K3, field: value}
    if value is None and field == "coefficients":
        del doc["coefficients"]
    path = write_json(tmp_path / "bad.json", doc)
    assert main(["pawula", path, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error (") and err.count("\n") == 1
    assert named in err


def test_invariant_measure_false_skips_the_invariant_checks(tmp_path):
    doc = {**SMALL_SCENARIO, "checks": {"invariant_measure": False}}
    path = write_json(tmp_path / "skip.json", doc)
    assert main(["run", path, "--out", str(tmp_path / "out")]) == 0
    checks = json.loads((tmp_path / "out" / "summary.json").read_text())["checks"]
    assert "invariant_residual" not in checks
    assert not any(name.startswith("h_monotone") for name in checks)


OU_SPEC = kb.catalog_example("ornstein-uhlenbeck")[0]
SMALL_X = kb.Grid.from_domain(OU_SPEC.domain, 21).x
TABLE_VALUES = np.linspace(0.0, 2.0, SMALL_X.size)


def _small_equilibrium():
    return kb.solve_invariant(kb.build_qmatrix(OU_SPEC, kb.Grid.from_domain(OU_SPEC.domain,
                                                                             21))).pi


# initial_density -> the unit-mass vector evolution.csv starts from
INITIAL_DENSITIES = {
    "gaussian": ({"kind": "gaussian", "center": 1.0, "sigma": 2.0},
                 lambda: np.exp(-(SMALL_X - 1.0) ** 2 / 8.0)),
    "delta": ({"kind": "delta", "at": 1.3}, lambda: np.eye(SMALL_X.size)[12]),
    "bump": ({"kind": "bump", "center": -1.0, "width": 2.5},
             lambda: np.maximum(0.0, 1.0 - ((SMALL_X + 1.0) / 2.5) ** 2) ** 2),
    "equilibrium": ({"kind": "equilibrium"}, _small_equilibrium),
    "table": ({"kind": "table", "values": TABLE_VALUES.tolist()}, lambda: TABLE_VALUES),
}


@pytest.mark.parametrize("kind", INITIAL_DENSITIES)
def test_run_starts_from_each_initial_density(tmp_path, kind):
    desc, expected = INITIAL_DENSITIES[kind]
    path = write_json(tmp_path / "init.json", {**SMALL_SCENARIO, "initial_density": desc})
    assert main(["run", path, "--out", str(tmp_path / "out")]) == 0
    cols = read_csv_columns(tmp_path / "out" / "evolution.csv")
    start = cols["value"][cols["time"] == 0.0]
    vals = expected()
    assert start == pytest.approx(vals / vals.sum(), rel=1e-14, abs=1e-300)


# initial_density (and checks) -> the message `run` exits 2 with
UNUSABLE_INITIAL_DENSITIES = {
    "table.length": ({"kind": "table", "values": [1.0] * 20}, {},
                     "initial_density table has 20 values, grid has 21"),
    "table.zero": ({"kind": "table", "values": [0.0] * 21}, {},
                   "initial density has no mass on the grid"),
    "equilibrium.unsolved": ({"kind": "equilibrium"}, {"invariant_measure": False},
                             "equilibrium start requested but no invariant available"),
}


@pytest.mark.parametrize("desc, checks, message", UNUSABLE_INITIAL_DENSITIES.values(),
                         ids=UNUSABLE_INITIAL_DENSITIES.keys())
def test_unusable_initial_density_is_input_error(tmp_path, capsys, desc, checks, message):
    doc = {**SMALL_SCENARIO, "initial_density": desc, "checks": checks}
    assert main(["run", write_json(tmp_path / "bad.json", doc),
                 "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err == f"input error (ScenarioError): {message}\n"


def test_oracle_compare_samples_a_delta_start(tmp_path):
    doc = {**SMALL_SCENARIO, "initial_density": {"kind": "delta", "at": 1.3},
           "oracle": {"particles": 500, "snapshot_times": [0.5], "moment_points": [0.0]}}
    out = tmp_path / "out"
    assert main(["oracle-compare", write_json(tmp_path / "delta.json", doc),
                 "--out", str(out)]) == 0
    report = json.loads((out / "oracle_compare.json").read_text())
    assert [row["t"] for row in report["snapshots"]] == [0.5]
    assert read_csv_columns(out / "ensemble.csv")["x"].size == 500


def test_oracle_compare_counts_absorbed_particles_on_the_walls(tmp_path):
    # the chain keeps absorbed mass on its wall nodes and the ensemble keeps
    # absorbed particles there, so the two laws agree
    out = tmp_path / "out"
    assert main(["oracle-compare", str(SCENARIOS / "absorbing_oracle.json"),
                 "--out", str(out)]) == 0
    report = json.loads((out / "oracle_compare.json").read_text())
    assert [row["t"] for row in report["snapshots"]] == [0.1, 0.5, 1.0]
    assert all(row["L1"] < 0.1 for row in report["snapshots"])
    ensemble = read_csv_columns(out / "ensemble.csv")
    on_wall = np.abs(ensemble["x"]) == 2.0
    assert np.any(on_wall)
    assert np.array_equal(ensemble["absorbed_flag"] == 1, on_wall)


def test_oracle_compare_rejects_a_bump_start(tmp_path, capsys):
    doc = {**SMALL_SCENARIO, "initial_density": {"kind": "bump"},
           "oracle": {"particles": 500, "snapshot_times": [0.5]}}
    assert main(["oracle-compare", write_json(tmp_path / "bump.json", doc),
                 "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error (ScenarioError)") and "'bump'" in err


def test_oracle_compare_without_particles_is_input_error(tmp_path, capsys):
    doc = {**SMALL_SCENARIO, "oracle": {"particles": 0, "snapshot_times": [0.5]}}
    path = write_json(tmp_path / "empty.json", doc)
    assert main(["oracle-compare", path, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error (") and "oracle.particles" in err


@pytest.mark.parametrize("field", ["dt", "moment_window"])
def test_oracle_compare_rejects_an_infinite_oracle_field(tmp_path, capsys, field):
    doc = {**SMALL_SCENARIO, "oracle": {"particles": 100, "snapshot_times": [0.5],
                                        field: float("inf")}}
    path = write_json(tmp_path / "inf.json", doc)
    assert main(["oracle-compare", path, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error (") and f"oracle.{field}" in err


@pytest.mark.parametrize("field, value, named", ORACLE_FIELDS.values(), ids=ORACLE_FIELDS.keys())
def test_oracle_compare_names_a_malformed_oracle_field(tmp_path, capsys, field, value, named):
    path = write_json(tmp_path / "bad.json", {**SMALL_SCENARIO, field: value})
    assert main(["oracle-compare", path, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error (") and err.count("\n") == 1
    assert named in err


def test_tol_override_out_of_range_is_named(tmp_path, capsys):
    path = write_json(tmp_path / "ok.json", SMALL_SCENARIO)
    assert main(["run", path, "--out", str(tmp_path / "out"), "--tol", "0"]) == 2
    assert "malformed tol" in capsys.readouterr().err


def test_natural_takes_exact_integers():
    assert _natural(41) == 41 and _natural(1e5) == 100_000 and _natural("7") == 7
    for bad in (41.7, -1, True, "x", None, float("inf")):
        with pytest.raises((TypeError, ValueError, OverflowError)):
            _natural(bad)


def test_negative_seed_override_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["run", "scenario.json", "--seed", "-1"])
    assert exc.value.code == 2
    assert "--seed" in capsys.readouterr().err


# computation failures: the CLI exits 1 on these, and 2 on every InputError
FAILURE_TYPES = {"InsufficientSmoothness", "MissingGibbsForm", "NoInvariantDensity",
                 "NonSmoothH", "NotAnEquilibrium", "NoViolationAtPoint", "SupportViolation",
                 "TruncationBudgetExceeded", "UnsupportedTensor"}
ERROR_TYPES = [t for t in vars(errors).values()
               if isinstance(t, type) and issubclass(t, errors.KinbenchError)]


def test_series_past_its_work_limit_exits_1_before_it_starts(tmp_path):
    # past 2048 states every step takes the vector series; at n = 2049 the
    # 200 steps of appendix2a would take about 5.2e11 element updates,
    # some 17 minutes, so the budget must stop the run before the first
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "kinbench.cli", "hcurve", str(SCENARIOS / "appendix2a.json"),
         "--grid-n", "2049", "--out", str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=60)
    assert time.perf_counter() - start < 2.0
    assert proc.returncode == 1
    assert proc.stderr.startswith("FAIL (TruncationBudgetExceeded): the vector series on "
                                  "2049 states would take about 5.2e+11 element updates")


def test_every_error_type_is_input_or_listed_failure():
    failures = {t.__name__ for t in ERROR_TYPES if not issubclass(t, errors.InputError)}
    assert failures - {"KinbenchError"} == FAILURE_TYPES


@pytest.mark.parametrize("error", ERROR_TYPES, ids=lambda t: t.__name__)
def test_exit_code_follows_the_error_class(error, monkeypatch, capsys):
    def fail(args):
        raise error("boom")

    monkeypatch.setattr(cli, "cmd_run", fail)
    expected = 2 if issubclass(error, errors.InputError) else 1
    assert main(["run", "scenario.json"]) == expected
    assert f"({error.__name__}): boom" in capsys.readouterr().err


def test_pawula_certificate_value(tmp_path, capsys):
    code = main(["pawula", str(SCENARIOS / "pawula_k3.json"),
                 "--out", str(tmp_path)])
    assert code == 0
    assert "0.4" in capsys.readouterr().out
    doc = json.loads((tmp_path / "pawula_certificate.json").read_text())
    assert doc["value"] == pytest.approx(0.4)
    cert = certificate_from_dict(doc)
    assert cert.validity_radius == pytest.approx(1.0)


def test_pawula_second_order_pass(tmp_path, capsys):
    code = main(["pawula", str(SCENARIOS / "pawula_appendix2a.json"),
                 "--out", str(tmp_path)])
    assert code == 0
    assert "pass" in capsys.readouterr().out


def test_pawula_nan_second_order_coefficient_is_input_error(tmp_path, capsys):
    doc = {"coefficients": {"2": "ln(x - 20)", "1": "x"}, "order": 2}
    path = write_json(tmp_path / "nan.json", doc)
    with np.errstate(invalid="ignore"):
        assert main(["pawula", path, "--out", str(tmp_path / "out")]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("input error (ParameterOutOfRange): second-order coefficient")
    assert "pass" not in captured.out
    assert not (tmp_path / "out" / "pawula_verdict.json").exists()


def test_pawula_nan_coefficient_prints_one_line_and_no_warning(tmp_path, capsys):
    doc = {"coefficients": {"2": "ln(x - 20)", "1": "x"}, "order": 2}
    path = write_json(tmp_path / "nan.json", doc)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["pawula", path, "--out", str(tmp_path / "out")]) == 2
    assert caught == []
    err = capsys.readouterr().err
    assert err.startswith("input error (") and err.count("\n") == 1


def test_pawula_unbounded_validity_radius_is_null(tmp_path):
    doc = {"coefficients": {"2": "1", "4": "-1"}, "order": 4}
    assert main(["pawula", write_json(tmp_path / "op.json", doc), "--out", str(tmp_path)]) == 0
    text = (tmp_path / "pawula_certificate.json").read_text()
    doc = json.loads(text, parse_constant=reject_json_constant)
    assert doc["validity_radius"] is None
    assert certificate_from_dict(doc).validity_radius == np.inf


def test_pawula_empty_coefficients(tmp_path):
    path = write_json(tmp_path / "empty.json", {"coefficients": {}})
    assert main(["pawula", path, "--out", str(tmp_path)]) == 2


def test_hcurve_csv_running_increase_carries_nan(tmp_path, monkeypatch, two_state):
    values = iter([1.0, 0.5, 0.75, np.nan, 0.25, 2.0])
    monkeypatch.setattr(htheorem, "h_function", lambda m, nu, h: next(values))
    _, curves = kb.h_curves(two_state, np.array([1.0, 0.0]), [kb.HFunctional.from_name("square")],
                            np.linspace(0.0, 1.0, 6), 1e-12)
    curve = curves["square"]
    write_hcurve_csv(tmp_path / "h.csv", curve)
    col = read_csv_columns(tmp_path / "h.csv")["max_increase_so_far"]
    assert col[:3].tolist() == [0.0, 0.0, 0.25]
    assert np.all(np.isnan(col[3:]))
    assert np.array_equal(col[-1:], [curve.max_increase], equal_nan=True)


# the command-line overrides each command reads
OVERRIDES_READ = {
    "run": {"--seed", "--tol", "--grid-n"},
    "pawula": set(),
    "invariant": {"--grid-n"},
    "hcurve": {"--tol", "--grid-n"},
    "oracle-compare": {"--seed", "--tol", "--grid-n"},
}


@pytest.mark.parametrize("flag", ["--seed", "--tol", "--grid-n"])
@pytest.mark.parametrize("command", sorted(OVERRIDES_READ))
def test_commands_accept_only_the_overrides_they_read(command, flag, capsys):
    argv = [command, "scenario.json", flag, "7"]
    if flag in OVERRIDES_READ[command]:
        assert getattr(build_parser().parse_args(argv), flag[2:].replace("-", "_")) == 7
        return
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag} 7" in capsys.readouterr().err


def test_invariant_command(tmp_path, capsys):
    code = main(["invariant", str(SCENARIOS / "appendix2a.json"),
                 "--out", str(tmp_path), "--grid-n", "201"])
    assert code == 0
    assert (tmp_path / "invariant.csv").exists()
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["unique"]
    assert summary["L1_vs_analytic"] <= 0.01


def test_hcurve_command(tmp_path):
    code = main(["hcurve", str(SCENARIOS / "appendix2a.json"),
                 "--out", str(tmp_path), "--grid-n", "101"])
    assert code == 0
    assert (tmp_path / "hcurve_xlogx.csv").exists()


def test_oracle_compare_deterministic_reports(tmp_path):
    doc = json.loads((SCENARIOS / "ou_oracle.json").read_text())
    doc["oracle"]["particles"] = 3000
    doc["oracle"]["snapshot_times"] = [0.3]
    doc["oracle"]["moment_points"] = [0.0]
    path = write_json(tmp_path / "small.json", doc)
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    assert main(["oracle-compare", path, "--out", str(out1), "--grid-n", "200"]) == 0
    assert main(["oracle-compare", path, "--out", str(out2), "--grid-n", "200"]) == 0
    assert (out1 / "oracle_compare.json").read_bytes() == \
        (out2 / "oracle_compare.json").read_bytes()
    assert (out1 / "ensemble.csv").read_bytes() == (out2 / "ensemble.csv").read_bytes()


def test_oracle_compare_simulates_all_snapshots_in_one_call(tmp_path, monkeypatch):
    calls = []
    simulate = oracle.simulate

    def counting(*args, **kwargs):
        calls.append(kwargs.get("snapshots"))
        return simulate(*args, **kwargs)

    monkeypatch.setattr(oracle, "simulate", counting)
    doc = json.loads((SCENARIOS / "ou_oracle.json").read_text())
    doc["oracle"]["particles"] = 2000
    doc["oracle"]["snapshot_times"] = [0.1, 0.2, 0.3]
    doc["oracle"]["moment_points"] = [0.0, 1.0]
    path = write_json(tmp_path / "small.json", doc)
    assert main(["oracle-compare", path, "--out", str(tmp_path / "o"), "--grid-n", "200"]) == 0
    # one pass for the snapshots, one one-step run per moment point
    assert calls == [[0.1, 0.2, 0.3], None, None]


def test_spec_document_roundtrip():
    spec, rho = kb.catalog_example("appendix2b", 1.0)
    doc = spec_to_dict(spec, rho)
    spec2, rho2 = spec_from_dict(doc)
    xs = np.linspace(0.1, 15.0, 40)
    assert np.allclose(spec2.a(xs), spec.a(xs), rtol=0, atol=0)
    assert np.allclose(spec2.b(xs), spec.b(xs), rtol=0, atol=0)
    assert spec2.domain == spec.domain
    assert np.allclose(rho2.rho_fn(xs), rho.rho_fn(xs), rtol=1e-15)
    # an inline Gibbs form carries no total mass, so it is not known to normalize
    assert rho.normalizable and not rho2.normalizable


# an inline document with numeric coefficients: OU with a = 0.1 has rho ~ exp(-10 x^2/2)
NUMERIC_GENERATOR = {
    "dimension": 1,
    "a": 0.1,
    "b": "-(1.0)*x",
    "domain": {"kind": "full-line", "bounds": [[-8.0, 8.0]], "bc": "no-flux"},
    "gibbs": {"beta": 10.0, "H": "x^2/2"},
}


def test_a_document_round_trip_keeps_each_expression_text():
    # summary.json writes each expression as the document gave it, a number
    # with 17 digits, and reading it back evaluates bitwise equal on the nodes
    pairs = [kb.catalog_example(name, alpha) for name in CATALOG_NAMES
             for alpha in (0.0, 0.3, 1.0, 2.5)] + [spec_from_dict(NUMERIC_GENERATOR)]
    for spec, rho in pairs:
        doc = spec_to_dict(spec, rho)
        H = rho.gibbs[1]
        assert [doc["a"], doc["b"], doc["gibbs"]["H"]] == [spec.a.text, spec.b.text, H.text]
        spec2, rho2 = spec_from_dict(doc)
        x = kb.Grid.from_domain(spec.domain, 201).x
        for f, f2 in [(spec.a, spec2.a), (spec.b, spec2.b), (H, rho2.gibbs[1])]:
            assert np.array_equal(f(x), f2(x)), (spec.label, f.text)
        assert spec_to_dict(spec2, rho2) == doc
    assert spec_to_dict(*spec_from_dict(NUMERIC_GENERATOR)) == \
        {**NUMERIC_GENERATOR, "a": "0.10000000000000001"}
    spec, rho = kb.catalog_example("appendix2b", 1.0)
    assert [spec.b.text, rho.gibbs[1].text] == ["1 - 1*x", "3*ln(x) + 1/x"]
    spec, rho = kb.catalog_example("appendix2a", 0.0)
    assert [spec.b.text, rho.gibbs[1].text] == ["--1*x", "0.5*ln(1 + x^2)"]


def test_an_expression_built_from_a_tree_is_not_written():
    domain = kb.catalog_example("ornstein-uhlenbeck")[0].domain
    tree_built = kb.GeneratorSpec(1, CE("x^2/2").derivative(), CE("-x"), domain)
    with pytest.raises(errors.ScenarioError, match="built from a tree"):
        spec_to_dict(tree_built)


TABLE_GENERATOR = {
    "dimension": 1,
    "a": {"points": [-1.0, 0.0, 1.0], "values": [1.0, 2.0, 1.0]},
    "b": "-x",
    "domain": {"kind": "box", "bounds": [[-1.0, 1.0]], "bc": "no-flux"},
}


def test_table_coefficient_run_writes_its_document(tmp_path):
    doc = {**SMALL_SCENARIO, "generator": TABLE_GENERATOR}
    assert main(["run", write_json(tmp_path / "table.json", doc), "--out", str(tmp_path)]) == 0
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["generator"] == TABLE_GENERATOR
    assert all(c["pass"] for c in summary["checks"].values())


def test_table_coefficient_document_roundtrip():
    doc = {**TABLE_GENERATOR, "gibbs": {"beta": 2.0, "H": "1.5*x^2"}}
    spec, rho = spec_from_dict(doc)
    assert spec_to_dict(spec, rho) == doc
    spec2, rho2 = spec_from_dict(spec_to_dict(spec, rho))
    xs = np.linspace(-1.0, 1.0, 37)
    assert np.array_equal(spec2.a(xs), spec.a(xs))
    assert np.array_equal(spec2.a(xs), np.interp(xs, [-1, 0, 1], [1, 2, 1]))
    assert np.array_equal(rho2.rho_fn(xs), rho.rho_fn(xs))


def test_certificate_document_roundtrip():
    op = kb.TruncatedOperator(4, {2: 0.5, 4: 2.0})
    cert = kb.pawula_counterexample(op, 0.25)
    again = certificate_from_dict(certificate_to_dict(cert))
    assert again == cert


def test_benchmark_tracer_spans_library_layers(tmp_path):
    # benchmarks/trace.py wraps functions the library looks up through
    # module globals; a run that bypasses them would trace nothing
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"),
                                                       str(ROOT / "benchmarks")]))
    spans = tmp_path / "spans.json"
    proc = subprocess.run(
        [sys.executable, str(ROOT / "benchmarks" / "trace.py"), str(spans), "cli",
         "run", str(SCENARIOS / "appendix2a.json"), "--grid-n", "101",
         "--out", str(tmp_path / "out")],
        env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    names = {s["name"] for s in json.loads(spans.read_text())["spans"]}
    assert {"semigroup.evolve_series", "htheorem.h_function"} <= names
