"""Canonical JSON and CSV serialization for specs, certificates, and results.

Floats in CSV artifacts are written with 17 significant digits so every
emitted value re-parses to the exact double that was in memory.
"""

from __future__ import annotations

import json
import math

import numpy as np

from .errors import InputError, ScenarioError
from .expressions import CompiledExpression
from .generator import DomainSpec, EquilibriumDensity, GeneratorSpec, catalog_example

FLOAT_FMT = "{:.17g}"


def fmt(v):
    return FLOAT_FMT.format(float(v))


def _finite(value):
    """``value`` as a finite float; JSON's true and its NaN and Infinity
    tokens, which float() would take, are refused."""
    if isinstance(value, bool) or not math.isfinite(value := float(value)):
        raise ValueError(f"{value!r} is not a finite number")
    return value


def _named(path, convert, value):
    """``convert(value)``; a malformed value raises ScenarioError naming ``path``."""
    try:
        return convert(value)
    except KeyError as exc:
        raise ScenarioError(f"{path} needs field {exc}") from None
    except (TypeError, ValueError, IndexError, OverflowError, AttributeError, InputError) as exc:
        raise ScenarioError(f"malformed {path}: {exc}") from None


def canonical_json(obj):
    """Deterministic RFC 8259 JSON text: sorted keys, newline-terminated;
    ValueError on a NaN or an infinity."""
    return json.dumps(obj, sort_keys=True, indent=2, allow_nan=False) + "\n"


# --------------------------------------------------------------------------
# Generator specs
# --------------------------------------------------------------------------

class TableCoefficient:
    """Piecewise-linear coefficient through ``{"points": [...], "values": [...]}``."""

    def __init__(self, points, values):
        self.points, self.values = np.asarray(points, float), np.asarray(values, float)
        if self.points.shape != self.values.shape or not np.all(np.diff(self.points) > 0):
            raise ScenarioError("a table coefficient needs increasing points, one value each")

    def __call__(self, x):
        return np.interp(x, self.points, self.values)


def _coefficient_to_json(coeff):
    if isinstance(coeff, CompiledExpression) and coeff.text is not None:
        return coeff.text
    if isinstance(coeff, TableCoefficient):
        return {"points": coeff.points.tolist(), "values": coeff.values.tolist()}
    raise ScenarioError(
        "coefficient is a bare callable or an expression built from a tree; only "
        "parsed expression or table coefficients are serializable")


def spec_to_dict(spec, equilibrium=None):
    d = {
        "dimension": spec.dimension,
        "a": _coefficient_to_json(spec.a),
        "b": _coefficient_to_json(spec.b),
        "domain": {
            "kind": spec.domain.kind,
            "bounds": [list(ax) for ax in spec.domain.bounds],
            "bc": spec.domain.boundary_condition,
        },
    }
    if spec.label:
        d["label"] = spec.label
    if equilibrium is not None and equilibrium.gibbs is not None:
        beta, H = equilibrium.gibbs
        d["gibbs"] = {"beta": float(beta), "H": _coefficient_to_json(H)}
    return d


def coefficient_from_json(obj, dimension):
    """A coefficient from its document: an expression, a number (not a
    boolean) or a table."""
    if isinstance(obj, str):
        return CompiledExpression(obj, dimension)
    if isinstance(obj, dict) and "points" in obj and "values" in obj:
        return TableCoefficient(obj["points"], obj["values"])
    if isinstance(obj, (int, float)) and not isinstance(obj, bool):
        return CompiledExpression(f"{float(obj):.17g}", dimension)
    raise ScenarioError(f"cannot interpret coefficient {obj!r}")


def spec_from_dict(d):
    """Rebuild (GeneratorSpec, EquilibriumDensity | None) from a document."""
    try:
        dim = int(d.get("dimension", 1))
        dom = d["domain"]
        domain = DomainSpec(dom["kind"], dom["bounds"], dom.get("bc", "no-flux"))
        a = coefficient_from_json(d["a"], dim)
        b = coefficient_from_json(d["b"], dim)
    except KeyError as exc:
        raise ScenarioError(f"generator document missing field {exc}") from None
    spec = GeneratorSpec(dim, a, b, domain, label=d.get("label", ""))
    rho = None
    if "gibbs" in d:
        g = d["gibbs"]
        beta = _named("gibbs.beta", _finite, g["beta"])
        H = coefficient_from_json(g["H"], dim)
        if not isinstance(H, CompiledExpression):
            # a table's H' is np.gradient on the nodes, whose error alone
            # fails the equilibrium check unless the table is quadratic there
            raise ScenarioError("gibbs.H must be an expression or a number, not a table")
        rho_fn = CompiledExpression(f"exp(-({beta!r})*({H.text}))", dim)
        rho = EquilibriumDensity(rho_fn=rho_fn, gibbs=(beta, H))
    return spec, rho


def load_generator(doc):
    """Generator from a scenario entry: catalog reference or inline spec."""
    if not isinstance(doc, dict):
        raise ScenarioError("a generator entry is a catalog reference or an inline spec")
    if "catalog" in doc:
        return catalog_example(doc["catalog"], _named("alpha", _finite, doc.get("alpha", 1.0)))
    return spec_from_dict(doc)


# --------------------------------------------------------------------------
# Pawula certificates
# --------------------------------------------------------------------------

def certificate_to_dict(cert):
    """A certificate's document; an unbounded validity radius is null."""
    radius = cert.validity_radius
    d = {
        "x0": cert.x0 if cert.dimension == 1 else list(cert.x0),
        "epsilon": cert.epsilon,
        "amplitude": cert.amplitude,
        "order": cert.order,
        "value": cert.value,
        "validity_radius": radius if math.isfinite(radius) else None,
        "dimension": cert.dimension,
        "polynomial": cert.describe(),
    }
    if cert.multi_index is not None:
        d["multi_index"] = [list(pair) for pair in cert.multi_index]
    return d


# --------------------------------------------------------------------------
# CSV artifacts
# --------------------------------------------------------------------------

def write_evolution_csv(path, result, x):
    """One row per snapshot and node; ``x`` holds the node coordinates.

    Each snapshot is one ``%`` format of a template prebuilt from the node
    columns; ``%.17g`` writes a float as ``fmt`` does.
    """
    snapshot = "".join(f"%s,{i},{fmt(xi)},%.17g\n" for i, xi in enumerate(x))
    args = [None] * (2 * len(x))
    with open(path, "w") as fh:
        fh.write("time,node_index,x,value\n")
        for t, vals in zip(result.times, result.fields):
            args[0::2] = [fmt(t)] * len(x)
            args[1::2] = vals.tolist()
            fh.write(snapshot % tuple(args))


def write_summary_csv(path, result):
    with open(path, "w") as fh:
        fh.write("time,mass,min_value,sup_norm\n")
        for t, m, mn, sn in zip(result.times, result.mass, result.min_value, result.sup_norm):
            fh.write(f"{fmt(t)},{fmt(m)},{fmt(mn)},{fmt(sn)}\n")


def write_hcurve_csv(path, curve):
    """One row per time; the last column is the running max of H's increases, floored at 0."""
    n = curve.times.size
    diss = curve.dissipation if curve.dissipation is not None else [float("nan")] * n
    bnd = curve.boundary if curve.boundary is not None else [float("nan")] * n
    so_far = np.maximum(np.maximum.accumulate(np.diff(curve.H)), 0.0)
    so_far = np.concatenate(([0.0], so_far))
    with open(path, "w") as fh:
        fh.write("time,H,dissipation_rate,boundary_term,max_increase_so_far\n")
        for t, Hv, dv, bv, sv in zip(curve.times, curve.H, diss, bnd, so_far):
            fh.write(f"{fmt(t)},{fmt(Hv)},{fmt(dv)},{fmt(bv)},{fmt(sv)}\n")


def write_ensemble_csv(path, ensemble):
    with open(path, "w") as fh:
        fh.write("particle_id,x,absorbed_flag\n")
        for i, (xv, flag) in enumerate(zip(ensemble.positions, ensemble.absorbed)):
            fh.write(f"{i},{fmt(xv)},{int(flag)}\n")


def write_qmatrix(path_matrix, path_meta, qgen, boundary_condition):
    """Coordinate-triplet export (row col value, row-major) with metadata,
    which records the domain's ``boundary_condition`` (a grid carries none)."""
    with open(path_matrix, "w") as fh:
        for r, c, v in zip(*qgen.Q.entries()):
            fh.write(f"{r} {c} {fmt(v)}\n")
    meta = {
        "size": qgen.size,
        "scheme": qgen.scheme,
        "lambda_max": qgen.lambda_max,
        "boundary_condition": boundary_condition,
        "grid_shape": list(qgen.grid.shape) if qgen.grid else None,
        "grid_bounds": [[float(ax[0]), float(ax[-1])] for ax in qgen.grid.axes]
        if qgen.grid else None,
    }
    with open(path_meta, "w") as fh:
        fh.write(canonical_json(meta))
