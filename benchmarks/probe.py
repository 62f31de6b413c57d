"""Set-up probe: the work every operation of a workload does before its own.

    PYTHONPATH=src:benchmarks python3 benchmarks/probe.py SCENARIO.json [GRID_N]
    PYTHONPATH=src:benchmarks python3 benchmarks/probe.py chain2d

Imports ``kinbench.cli``, loads the workload's generator and grid, and runs
``check_admissible`` and ``build_qmatrix``.  Prints one JSON line with the
chain size and the Python, numpy, scipy and OpenBLAS versions.
"""

import json
import platform
import sys

import kinbench.cli  # noqa: F401  (the import is part of what is measured)
import numpy as np
import scipy
from kinbench.discretize import Grid, build_qmatrix
from kinbench.serialize import load_generator


def _openblas_version():
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return f"{blas.get('name', 'unknown')} {blas.get('version', 'unknown')}"


def main(argv):
    if argv[0] == "chain2d":
        import chain2d

        spec, grid = chain2d.make_chain()
        scheme = "exponential-fitting"
    else:
        with open(argv[0]) as fh:
            doc = json.load(fh)
        spec, _ = load_generator(doc["generator"])
        n = int(argv[1]) if len(argv) > 1 else int(doc.get("grid", {}).get("n", 401))
        grid = Grid.from_domain(spec.domain, n)
        scheme = doc.get("scheme", "exponential-fitting")
    spec.check_admissible(grid.nodes_for_eval())
    Q = build_qmatrix(spec, grid, scheme)
    print(json.dumps({
        "states": int(Q.size),
        "nnz": int(Q.Q.nnz),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "openblas": _openblas_version(),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
