"""kinbench benchmark: three closed-loop workloads, end-to-end and per-layer metrics.

    python3 benchmarks/run.py --workload run-a2a --seed 0 --seconds 15 --trace 0

Run it in a source checkout; it runs the package from the checkout's
``src/`` and writes only under ``.bench_work/``.  One client runs
one operation at a time, each in a fresh process, and the next starts only
after the previous one has exited and its outputs have been checked.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates an
untraced and a traced operation and reports the per-layer metrics derived
from the traced operation's spans.  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.  See
README.md for the workloads, the metrics and what each should move.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Callable

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
REFERENCE = os.path.join(BENCH, "reference.json")

THREADS = 2        # BLAS and OpenMP threads per process, capped at nproc
SETUP_REPS = 7     # set-up probes per --trace 0 run; setup_s is their median
MIN_BATCHES = 2    # operations (pairs when traced) per run, even past --seconds
RUN_LIMIT_S = 170  # a run stops starting operations, and kills one, by then
RTOL, ATOL = 1e-9, 1e-12  # key numbers against the seed-commit reference

END_TO_END = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

LAYERS = ("cli", "generator", "discretize", "pawula", "semigroup", "htheorem",
          "oracle", "serialize")

PER_LAYER = {
    "traced_wall_s": "s",
    "trace_overhead_s": "s",
    "cli.startup_s": "s",
    "cli.import_s": "s",
    "cli.self_s": "s",
    **{f"{layer}.self_s": "s" for layer in LAYERS[1:]},
    "generator.check_admissible_s": "s",
    "discretize.build_qmatrix_s": "s",
    "discretize.states": "count",
    "discretize.nnz": "count",
    "pawula.maximum_principle_check_s": "s",
    "semigroup.evolve_series_s": "s",
    "semigroup.chapman_kolmogorov_s": "s",
    "semigroup.resolvent_s": "s",
    "semigroup.resolvent_calls": "count",
    "semigroup.snapshots": "count",
    "semigroup.state_snapshots_per_s": "1/s",
    "semigroup.lambda_t": "1",
    "htheorem.solve_invariant_s": "s",
    "htheorem.h_curve_s": "s",
    "htheorem.h_evals": "count",
    "oracle.simulate_s": "s",
    "oracle.simulate_calls": "count",
    "oracle.particle_steps": "count",
    "oracle.particle_steps_per_s": "1/s",
    "oracle.useful_step_ratio": "ratio",
    "serialize.write_s": "s",
    "serialize.bytes_written": "B",
    "serialize.write_mb_per_s": "MB/s",
    "serialize.artifact_drift": "count",
    "worst_check_ratio": "ratio",
}


# --------------------------------------------------------------------------
# Workloads: how to run one operation and read back what it wrote
# --------------------------------------------------------------------------

def _load_json(path):
    with open(path) as fh:
        return json.load(fh)


def _csv_rows(path):
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        return [dict(zip(header, map(float, line.split(",")))) for line in fh]


def _digest(path):
    """sha256 of an artifact; summary.json without its absolute scenario path."""
    if os.path.basename(path) == "summary.json":
        doc = _load_json(path)
        doc.pop("scenario", None)
        data = (json.dumps(doc, sort_keys=True, indent=2) + "\n").encode()
    else:
        with open(path, "rb") as fh:
            data = fh.read()
    return hashlib.sha256(data).hexdigest()


def _read_run(out):
    """Named checks and key numbers of ``kinbench run``."""
    summary = _load_json(os.path.join(out, "summary.json"))
    checks = summary["checks"]
    numbers = {}
    for key in ("lambda_max", "truncated_mass_outside"):
        if summary.get(key) is not None:
            numbers[key] = summary[key]
    for name in ("resolvent_bound", "dissipativity_at_max"):
        if name in checks:
            numbers[name] = checks[name]["value"]
    for fname in sorted(os.listdir(out)):
        if fname.startswith("hcurve_"):
            rows = _csv_rows(os.path.join(out, fname))
            kind = fname[len("hcurve_"):-len(".csv")]
            numbers[f"H_first.{kind}"] = rows[0]["H"]
            numbers[f"H_last.{kind}"] = rows[-1]["H"]
            numbers[f"dissipation_last.{kind}"] = rows[-1]["dissipation_rate"]
    path = os.path.join(out, "evolution_summary.csv")
    if os.path.exists(path):
        last = _csv_rows(path)[-1]
        numbers["mass_last"] = last["mass"]
        numbers["sup_norm_last"] = last["sup_norm"]
    return checks, numbers


def _read_oracle(out):
    """Snapshot L1 checks and moment estimates of ``kinbench oracle-compare``."""
    report = _load_json(os.path.join(out, "oracle_compare.json"))
    checks = {}
    numbers = {}
    for row in report["snapshots"]:
        checks[f"oracle_L1_t{row['t']:g}"] = {
            "pass": row["pass"], "value": row["L1"], "threshold": row["budget"]}
        numbers[f"L1_t{row['t']:g}"] = row["L1"]
    for row in report["moments"]:
        numbers[f"drift_mc_x{row['x0']:g}"] = row["drift_mc"]
        numbers[f"diffusion_mc_x{row['x0']:g}"] = row["diffusion_mc"]
    return checks, numbers


def _read_chain2d(out):
    """The chain-2d driver's own checks and key numbers."""
    doc = _load_json(os.path.join(out, "chain2d.json"))
    numbers = {k: doc[k] for k in ("lambda_max", "H_first", "H_last", "mass_last")}
    numbers.update({f"invariant.{k}": v for k, v in doc["invariant"].items()})
    return doc["checks"], numbers


@dataclass(frozen=True)
class Workload:
    name: str
    target: str                        # "cli" or "chain2d"
    args: Callable[[int], list]        # workload seed -> arguments before --out
    probe: tuple                       # arguments of probe.py
    read: Callable[[str], tuple]       # output dir -> (checks, numbers)


WORKLOADS = {
    w.name: w for w in (
        Workload("run-a2a", "cli",
                 lambda s: ["run", "scenarios/appendix2a.json", "--grid-n", "1001",
                            "--seed", str(s)],
                 ("scenarios/appendix2a.json", "1001"), _read_run),
        # seed 0 is the scenario's own oracle seed
        Workload("oracle-ou", "cli",
                 lambda s: ["oracle-compare", "scenarios/ou_oracle.json",
                            "--seed", str(1234 + s)],
                 ("scenarios/ou_oracle.json",), _read_oracle),
        Workload("chain-2d", "chain2d",
                 lambda s: ["--seed", str(s)],
                 ("chain2d",), _read_chain2d),
    )
}


def op_argv(target, args, out, spans=None):
    """Interpreter arguments of one operation, traced when ``spans`` is a path."""
    args = [*args, "--out", out]
    if spans is not None:
        return [os.path.join(BENCH, "trace.py"), spans, target, *args]
    if target == "cli":
        return ["-m", "kinbench.cli", *args]
    return [os.path.join(BENCH, "chain2d.py"), *args]


# --------------------------------------------------------------------------
# Running one process
# --------------------------------------------------------------------------

def nproc():
    return len(os.sched_getaffinity(0))


def child_env():
    threads = str(min(THREADS, nproc()))
    env = dict(os.environ)
    env.update(OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
               PYTHONPATH=os.pathsep.join([SRC, BENCH]))
    return env


@dataclass
class Proc:
    rc: int
    wall: float
    cpu: float
    rss_mb: float
    log: str


def launch(argv, env, log_path, timeout):
    """Run the interpreter on argv from the checkout root; wall, CPU, peak RSS."""
    with open(log_path, "wb") as log:
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *argv], cwd=ROOT, env=env,
                                stdout=log, stderr=subprocess.STDOUT)
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Proc(proc.returncode, wall, usage.ru_utime + usage.ru_stime,
                usage.ru_maxrss / 1024.0, log_path)


def _last_line(path):
    with open(path, errors="replace") as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    return lines[-1] if lines else ""


# --------------------------------------------------------------------------
# Checking one operation
# --------------------------------------------------------------------------

@dataclass
class Op:
    proc: Proc
    kind: str = "op"                   # "probe", "op" or "traced"
    failures: list = field(default_factory=list)
    worst_ratio: float = float("nan")
    drift: int = 0
    spans: list | None = None


def _close(value, ref):
    return abs(value - ref) <= RTOL * abs(ref) + ATOL


def check_op(read, out, proc, reference=None, seed=0, kind="op"):
    """Fail on a nonzero exit, a failed named check, or a reference mismatch.

    Key numbers and artifact digests recorded at the seed commit are
    compared in full at the reference seed, and at any other seed only for
    those that do not depend on the seed.  Digest drift is counted, not
    failed: the bytes depend on the BLAS thread count.
    """
    op = Op(proc, kind)
    if proc.rc != 0:
        op.failures.append(f"exit code {proc.rc}: {_last_line(proc.log)}")
    try:
        checks, numbers = read(out)
    except (OSError, ValueError, KeyError) as exc:
        op.failures.append(f"unreadable output: {exc!r}")
        return op
    failing = sorted(k for k, c in checks.items() if not c["pass"])
    if failing:
        op.failures.append("failed checks: " + ", ".join(failing))
    ratios = [c["value"] / c["threshold"] for c in checks.values() if c["threshold"] > 0]
    op.worst_ratio = max(ratios, default=float("nan"))
    if reference is None:
        return op
    full = seed == reference["seed"]
    for key, ref in reference["numbers"].items():
        if not (full or key in reference["seed_independent"]):
            continue
        if key not in numbers:
            op.failures.append(f"missing output {key}")
        elif not _close(numbers[key], ref):
            op.failures.append(f"{key} = {numbers[key]!r}, reference {ref!r}")
    for name, ref in reference["digests"].items():
        if full or name in reference["seed_independent"]:
            path = os.path.join(out, name)
            op.drift += not os.path.exists(path) or _digest(path) != ref
    return op


def artifact_digests(out):
    return {f: _digest(os.path.join(out, f)) for f in sorted(os.listdir(out))
            if f not in ("spans.json", "log.txt")}


# --------------------------------------------------------------------------
# Per-layer metrics from one traced operation
# --------------------------------------------------------------------------

def layer_metrics(spans, traced_wall):
    """Attribute a traced operation's wall time to layers.

    A span's self time is its duration minus its children's.  Time outside
    ``cli.import`` and ``cli.main`` (interpreter start and exit, patching,
    writing spans) is ``cli.startup_s``, so the self times of all layers
    sum to ``traced_wall``.
    """
    dur = [s["end"] - s["start"] for s in spans]
    own = list(dur)
    for i, s in enumerate(spans):
        if s["parent"] is not None:
            own[s["parent"]] -= dur[i]

    def pick(*names):
        return [i for i, s in enumerate(spans) if s["name"] in names]

    def total(*names):
        return sum(dur[i] for i in pick(*names))

    def attr(name, key):
        return [spans[i]["attrs"][key] for i in pick(name)]

    m = {
        "traced_wall_s": traced_wall,
        "cli.startup_s": traced_wall - total("cli.import", "cli.main"),
        "cli.import_s": total("cli.import"),
        "cli.self_s": sum(own[i] for i in pick("cli.main")),
    }
    for layer in LAYERS[1:]:
        m[f"{layer}.self_s"] = sum(own[i] for i, s in enumerate(spans)
                                   if s["name"].startswith(layer + "."))
    m["generator.check_admissible_s"] = total("generator.check_admissible")
    m["discretize.build_qmatrix_s"] = total("discretize.build_qmatrix")
    m["discretize.states"] = max(attr("discretize.build_qmatrix", "states"), default=0)
    m["discretize.nnz"] = max(attr("discretize.build_qmatrix", "nnz"), default=0)
    m["pawula.maximum_principle_check_s"] = total("pawula.maximum_principle_check")

    evolve = pick("semigroup.evolve_series")
    evolve_s = total("semigroup.evolve_series")
    m["semigroup.evolve_series_s"] = evolve_s
    m["semigroup.chapman_kolmogorov_s"] = total("semigroup.chapman_kolmogorov_defect")
    m["semigroup.resolvent_s"] = total("semigroup.resolvent")
    m["semigroup.resolvent_calls"] = len(pick("semigroup.resolvent"))
    m["semigroup.snapshots"] = sum(spans[i]["attrs"]["snapshots"] for i in evolve)
    state_snaps = sum(spans[i]["attrs"]["snapshots"] * spans[i]["attrs"]["states"]
                      for i in evolve)
    m["semigroup.state_snapshots_per_s"] = state_snaps / evolve_s if evolve_s else 0.0
    # computed, not measured: lambda_max times the largest evolution step
    m["semigroup.lambda_t"] = max((spans[i]["attrs"]["lambda_max"]
                                   * spans[i]["attrs"]["max_step"] for i in evolve),
                                  default=0.0)

    h_names = ("htheorem.h_function", "htheorem.dissipation_rate", "htheorem.boundary_term")
    m["htheorem.solve_invariant_s"] = total("htheorem.solve_invariant")
    m["htheorem.h_curve_s"] = sum(own[i] for i in pick("htheorem.h_curve", *h_names))
    m["htheorem.h_evals"] = len(pick(*h_names))

    sims = pick("oracle.simulate")
    sim_s = total("oracle.simulate")
    steps = sum(spans[i]["attrs"]["steps"] for i in sims)
    moment = set(pick("oracle.moment_estimates"))
    useful = max((spans[i]["attrs"]["steps"] for i in sims
                  if spans[i]["parent"] not in moment), default=0)
    useful += sum(spans[i]["attrs"]["steps"] for i in sims if spans[i]["parent"] in moment)
    m["oracle.simulate_s"] = sim_s
    m["oracle.simulate_calls"] = len(sims)
    m["oracle.particle_steps"] = steps
    m["oracle.particle_steps_per_s"] = steps / sim_s if sim_s else 0.0
    m["oracle.useful_step_ratio"] = useful / steps if steps else 0.0

    writes = [i for i, s in enumerate(spans) if s["name"].startswith("serialize.write_")]
    write_s = sum(dur[i] for i in writes)
    written = sum(spans[i]["attrs"]["bytes"] for i in writes)
    m["serialize.write_s"] = write_s
    m["serialize.bytes_written"] = written
    m["serialize.write_mb_per_s"] = written / 1e6 / write_s if write_s else 0.0
    return m


# --------------------------------------------------------------------------
# One benchmark run
# --------------------------------------------------------------------------

def _median(values):
    return statistics.median(values) if values else float("nan")


class Run:
    """Closed loop over one workload: one operation at a time, each checked."""

    def __init__(self, workload, seed, work, reference):
        self.wl = workload
        self.seed = seed
        self.work = work
        self.reference = reference
        self.env = child_env()
        self.start = time.perf_counter()
        self.count = 0
        self.ops = []

    def _dir(self, kind):
        self.count += 1
        path = os.path.join(self.work, f"{kind}-{self.count}")
        os.makedirs(path)
        return path

    def _timeout(self):
        return max(1.0, RUN_LIMIT_S - (time.perf_counter() - self.start))

    def probe(self):
        """One set-up probe; returns its JSON line (versions, chain size) or None."""
        out = self._dir("probe")
        argv = [os.path.join(BENCH, "probe.py"), *self.wl.probe]
        proc = launch(argv, self.env, os.path.join(out, "log.txt"), self._timeout())
        op = Op(proc, "probe")
        info = None
        try:
            info = json.loads(_last_line(proc.log)) if proc.rc == 0 else None
        except ValueError:
            pass
        if info is None:
            op.failures.append(f"set-up probe exit code {proc.rc}: {_last_line(proc.log)}")
        shutil.rmtree(out)
        self.ops.append(op)
        return info

    def operation(self, traced):
        out = self._dir("op")
        spans = os.path.join(out, "spans.json") if traced else None
        argv = op_argv(self.wl.target, self.wl.args(self.seed), out, spans)
        proc = launch(argv, self.env, os.path.join(out, "log.txt"), self._timeout())
        op = check_op(self.wl.read, out, proc, self.reference, self.seed,
                      "traced" if traced else "op")
        if traced:
            try:
                op.spans = _load_json(spans)["spans"]
                if any(s["end"] is None for s in op.spans):
                    raise ValueError("a span never ended")
            except (OSError, ValueError, KeyError) as exc:
                op.spans = None
                op.failures.append(f"no spans: {exc!r}")
        shutil.rmtree(out)
        self.ops.append(op)
        return op

    def loop(self, seconds, traced):
        """Operations (untraced, then traced when ``traced``) for ``seconds``."""
        t0 = time.perf_counter()
        for n in itertools.count(1):
            batch = [self.operation(False)]
            if traced:
                batch.append(self.operation(True))
            now = time.perf_counter()
            cost = sum(op.proc.wall for op in batch)
            done = n >= MIN_BATCHES and now - t0 >= seconds
            if done or now + cost > self.start + RUN_LIMIT_S:
                return

    def of(self, kind):
        return [op for op in self.ops if op.kind == kind]

    @property
    def failed(self):
        return [op for op in self.ops if op.failures]


def e2e_metrics(run):
    ops = run.of("op")
    return {
        "wall_s": [op.proc.wall for op in ops],
        "cpu_s": [op.proc.cpu for op in ops],
        "setup_s": [op.proc.wall for op in run.of("probe")[1:]],  # first one warms up
        "peak_rss_mb": [op.proc.rss_mb for op in ops],
    }


def traced_metrics(run):
    traced = run.of("traced")
    per_op = []
    for op in traced:
        m = layer_metrics(op.spans or [], op.proc.wall)
        m["serialize.artifact_drift"] = op.drift
        m["worst_check_ratio"] = op.worst_ratio
        per_op.append(m)
    samples = {name: [m[name] for m in per_op] for name in PER_LAYER
               if name != "trace_overhead_s"}
    samples["trace_overhead_s"] = [_median([op.proc.wall for op in traced])
                                   - _median([op.proc.wall for op in run.of("op")])]
    return samples


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=15.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    missing = [path for path in (os.path.join(SRC, "kinbench", "cli.py"), REFERENCE,
                                 os.path.join(ROOT, "scenarios"))
               if not os.path.exists(path)]
    if missing:
        print(f"not a kinbench source checkout, missing: {', '.join(missing)}",
              file=sys.stderr)
        return 2

    wl = WORKLOADS[args.workload]
    reference = _load_json(REFERENCE)[wl.name]
    work = os.path.join(WORK, f"{wl.name}-{os.getpid()}")
    os.makedirs(work)
    try:
        run = Run(wl, args.seed, work, reference)
        # the first probe warms the bytecode cache and reports the versions
        info = run.probe()
        if not args.trace:
            for _ in range(SETUP_REPS):
                run.probe()
        run.loop(args.seconds, traced=bool(args.trace))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(WORK)
        except OSError:
            pass

    print(f"workload={wl.name} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}; closed loop, 1 client")
    info = info or {}
    print(f"env: threads={min(THREADS, nproc())} nproc={nproc()} "
          + " ".join(f"{k}={info.get(k, 'unknown')}"
                     for k in ("python", "numpy", "scipy", "openblas")))
    for i, op in enumerate(run.ops, 1):
        status = "ok" if not op.failures else "FAILED " + "; ".join(op.failures)
        print(f"  {i:3d} {op.kind:6s} rc={op.proc.rc} wall={op.proc.wall:.3f} s "
              f"cpu={op.proc.cpu:.3f} s rss={op.proc.rss_mb:.1f} MB {status}")

    if args.trace:
        samples, units = traced_metrics(run), PER_LAYER
    else:
        samples, units = e2e_metrics(run), END_TO_END
    metrics = {}
    for name, unit in units.items():
        value = _median(samples[name])
        print(f"{name} = {value:.6g} {unit} (median of {len(samples[name])})")
        metrics[name] = {"value": value if value == value else None, "unit": unit}
    if not args.trace:
        ops = run.of("op")
        print(f"worst_check_ratio = {_median([op.worst_ratio for op in ops]):.6g} ratio "
              f"(median of {len(ops)}; reported in the traced run)")
        print(f"serialize.artifact_drift = {max((op.drift for op in ops), default=0)} "
              "count (worst operation; informational)")
    print(f"failed_ops = {len(run.failed)} count")
    print(f"attempted_ops = {len(run.ops)} count")

    complete = all(v["value"] is not None for v in metrics.values())
    result = {
        "correct": not run.failed and complete,
        "attempted": len(run.ops),
        "failed": len(run.failed),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
