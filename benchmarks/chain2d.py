"""The chain-2d workload: a 41x41 diagonal-tensor chain through the public API.

The CLI cannot run this chain: scenario documents have no matrix-valued
diffusion, and ``cmd_invariant`` reads ``grid.x``, which 2-D grids refuse.
So this driver calls the library directly and checks its own results.

    PYTHONPATH=src python3 benchmarks/chain2d.py --seed 0 --out DIR

The seed sets the center of the Gaussian initial measure.  Exit code 0 when
every check passes, 1 otherwise; ``chain2d.json`` in DIR holds the checks
and the key numbers.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from kinbench.discretize import Grid, build_qmatrix
from kinbench.generator import DomainSpec, GeneratorSpec
from kinbench.htheorem import HFunctional, h_curve, solve_invariant
from kinbench.pawula import maximum_principle_check
from kinbench.serialize import canonical_json, write_hcurve_csv

N = 41
BOX = (-4.0, 4.0)
SIGMA = 0.7
TIMES = np.linspace(0.0, 2.0, 21)
TOL = 1e-12


def _a(p):
    return np.diag([1.0 + p[0] ** 2 / 4.0, 1.0])


def _b(p):
    return np.array([-p[0], -2.0 * p[1]])


def make_chain():
    """Generator spec and 41x41 grid: a = diag(1 + x^2/4, 1), b = (-x, -2y)."""
    domain = DomainSpec("box", (BOX, BOX))
    return GeneratorSpec(2, _a, _b, domain, label="chain-2d"), Grid.from_domain(domain, N)


def center_for(seed):
    return np.random.default_rng(seed).uniform(-2.0, 2.0, size=2)


def run(seed, out):
    spec, grid = make_chain()
    spec.check_admissible(grid.nodes_for_eval())
    Q = build_qmatrix(spec, grid)
    checks = {}

    def record(name, value, threshold):
        checks[name] = {"pass": bool(value <= threshold), "value": float(value),
                        "threshold": float(threshold)}

    rep = maximum_principle_check(Q)
    record("maximum_principle_offdiag", -rep.min_offdiag, 1e-12)
    record("maximum_principle_rowsums", rep.max_abs_rowsum, 1e-10)
    sol = solve_invariant(Q)
    record("invariant_residual", sol.residual, 1e-10 * Q.lambda_max * 2)

    pts = grid.nodes()
    center = center_for(seed)
    nu0 = np.exp(-np.sum((pts - center) ** 2, axis=1) / (2 * SIGMA**2))
    nu0 /= nu0.sum()
    curve = h_curve(Q, nu0, HFunctional.from_name("xlogx"), TIMES, tol=TOL, reference=sol)
    record("h_monotone_xlogx", curve.max_increase, TOL)
    write_hcurve_csv(os.path.join(out, "hcurve_xlogx.csv"), curve)

    pi = sol.pi
    summary = {
        "center": [float(c) for c in center],
        "checks": checks,
        "states": int(Q.size),
        "nnz": int(Q.Q.nnz),
        "lambda_max": float(Q.lambda_max),
        "invariant": {
            "max": float(pi.max()),
            "min": float(pi.min()),
            "mean_x": float(pi @ pts[:, 0]),
            "mean_x2": float(pi @ pts[:, 0] ** 2),
            "mean_y2": float(pi @ pts[:, 1] ** 2),
        },
        "H_first": float(curve.H[0]),
        "H_last": float(curve.H[-1]),
        "mass_last": float(curve.mass[-1]),
    }
    with open(os.path.join(out, "chain2d.json"), "w") as fh:
        fh.write(canonical_json(summary))
    failing = [k for k, c in checks.items() if not c["pass"]]
    for name, chk in sorted(checks.items()):
        tag = "ok" if chk["pass"] else "FAIL"
        print(f"{tag:4s} {name}: value={chk['value']:.3g} threshold={chk['threshold']:.3g}")
    return 1 if failing else 0


def main(argv=None):
    p = argparse.ArgumentParser(prog="chain2d", description=__doc__.splitlines()[0])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    args = p.parse_args(argv)
    os.makedirs(args.out, exist_ok=True)
    return run(args.seed, args.out)


if __name__ == "__main__":
    sys.exit(main())
