"""Traced run of one workload operation: a span around each call into a layer.

    PYTHONPATH=src:benchmarks python3 benchmarks/trace.py SPANS.json cli ARGS...
    PYTHONPATH=src:benchmarks python3 benchmarks/trace.py SPANS.json chain2d ARGS...

The first form runs ``kinbench.cli.main(ARGS)``, the second the chain-2d
driver.  Public functions are wrapped under the name their caller looks
them up by, so the program itself is unchanged.  Spans (name, start, end,
parent, attributes) stay in memory and are written to SPANS.json at exit.
The exit code is the operation's.
"""

import functools
import importlib
import inspect
import json
import os
import sys
import time

# function name -> layer, for names the front end (kinbench.cli or the
# chain-2d driver) imports; any write_* name belongs to serialize
FRONT_END_LAYERS = {
    "build_qmatrix": "discretize",
    "maximum_principle_check": "pawula",
    "evolve_series": "semigroup",
    "chapman_kolmogorov_defect": "semigroup",
    "resolvent": "semigroup",
    "generator_at_max": "semigroup",
    "solve_invariant": "htheorem",
    "h_curve": "htheorem",
    "h_function": "htheorem",
    "dissipation_rate": "htheorem",
    "boundary_term": "htheorem",
    "load_generator": "serialize",
}

# (module, function, layer) looked up through a library module's globals
LIBRARY_WRAPS = (
    ("kinbench.oracle", "simulate", "oracle"),
    ("kinbench.oracle", "empirical_density", "oracle"),
    ("kinbench.oracle", "moment_estimates", "oracle"),
    ("kinbench.htheorem", "evolve_series", "semigroup"),
    ("kinbench.htheorem", "h_function", "htheorem"),
)


def _paths_size(args):
    return sum(os.path.getsize(v) for v in args.values()
               if isinstance(v, str) and os.path.isfile(v))


def _evolve_attrs(args, result):
    Q = args["Q"]
    times = [0.0] + [float(t) for t in result.times]
    return {
        "states": int(Q.size),
        "snapshots": len(result.times),
        "lambda_max": float(Q.lambda_max),
        "max_step": max(b - a for a, b in zip(times, times[1:])),
    }


ATTRS = {
    "build_qmatrix": lambda args, q: {"states": int(q.size), "nnz": int(q.Q.nnz)},
    "evolve_series": _evolve_attrs,
    "simulate": lambda args, ens: {
        "steps": int(args["n"]) * int(round(args["T"] / args["dt"]))},
}


class Tracer:
    """In-memory span recorder; spans are [name, start, end, parent, attrs]."""

    def __init__(self):
        self.spans = []
        self._stack = []

    def begin(self, name):
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, None])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def end(self, idx):
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def wrap(self, fn, layer):
        name = f"{layer}.{fn.__name__}"
        sig = inspect.signature(fn)
        attrs = ATTRS.get(fn.__name__)
        if attrs is None and fn.__name__.startswith("write_"):
            attrs = lambda args, _: {"bytes": _paths_size(args)}  # noqa: E731

        @functools.wraps(fn)
        def traced(*a, **kw):
            idx = self.begin(name)
            try:
                result = fn(*a, **kw)
            finally:
                self.end(idx)
            if attrs is not None:
                self.spans[idx][4] = attrs(sig.bind(*a, **kw).arguments, result)
            return result

        return traced

    def patch(self, module, attr, layer):
        setattr(module, attr, self.wrap(getattr(module, attr), layer))

    def dump(self, path):
        keys = ("name", "start", "end", "parent", "attrs")
        with open(path, "w") as fh:
            json.dump({"spans": [dict(zip(keys, s)) for s in self.spans]}, fh)


def instrument(tracer, front_end):
    for name in dir(front_end):
        layer = FRONT_END_LAYERS.get(name, "serialize" if name.startswith("write_") else None)
        if layer is not None and callable(getattr(front_end, name)):
            tracer.patch(front_end, name, layer)
    for module, attr, layer in LIBRARY_WRAPS:
        tracer.patch(importlib.import_module(module), attr, layer)
    # imported here, not at the top, so that cli.import times the whole import
    from kinbench.generator import GeneratorSpec

    tracer.patch(GeneratorSpec, "check_admissible", "generator")


def main(argv):
    spans_path, target, args = argv[0], argv[1], argv[2:]
    tracer = Tracer()
    rc = 1
    try:
        idx = tracer.begin("cli.import")
        front_end = importlib.import_module("kinbench.cli" if target == "cli" else "chain2d")
        tracer.end(idx)
        instrument(tracer, front_end)
        idx = tracer.begin("cli.main")
        try:
            rc = front_end.main(args)
        finally:
            tracer.end(idx)
    finally:
        tracer.dump(spans_path)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
