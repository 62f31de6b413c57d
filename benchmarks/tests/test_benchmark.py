"""Self-test of the benchmark harness.

    python3 -m pytest benchmarks/tests -q

It runs real operations of the chain-2d workload, so it takes about a
minute and a half.  Scratch files go under the checkout's ``.bench_work/``.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, BENCH)

import run as bench  # noqa: E402

with open(os.path.join(bench.ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)


@pytest.fixture
def work():
    path = os.path.join(bench.WORK, f"selftest-{os.getpid()}")
    os.makedirs(path)
    yield path
    shutil.rmtree(path, ignore_errors=True)
    try:
        os.rmdir(bench.WORK)
    except OSError:
        pass


def _bench(*args, cwd=bench.ROOT):
    return subprocess.run([sys.executable, os.path.join(cwd, "benchmarks", "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=180)


def _result(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_absorbing_wall_counts_as_failed_operation(work):
    wl = bench.Workload("absorbing", "cli", lambda s: ["run", "scenarios/absorbing.json"],
                        ("scenarios/absorbing.json",), bench._read_run)
    run = bench.Run(wl, 0, work, reference=None)
    op = run.operation(traced=False)
    assert op.proc.rc == 1
    assert run.failed == [op]
    assert "NoInvariantDensity" in op.failures[0]
    assert op.failures[1] == "failed checks: invariant_measure"


def test_layer_metrics_on_nested_spans():
    # main [0, 10] > evolve [1, 5] > h_function [2, 3]; import [-1, 0]
    spans = [
        {"name": "cli.import", "start": -1.0, "end": 0.0, "parent": None, "attrs": None},
        {"name": "cli.main", "start": 0.0, "end": 10.0, "parent": None, "attrs": None},
        {"name": "semigroup.evolve_series", "start": 1.0, "end": 5.0, "parent": 1,
         "attrs": {"states": 10, "snapshots": 4, "lambda_max": 2.0, "max_step": 0.5}},
        {"name": "htheorem.h_function", "start": 2.0, "end": 3.0, "parent": 2, "attrs": None},
    ]
    m = bench.layer_metrics(spans, 12.0)
    assert m["cli.startup_s"] == 1.0
    assert m["cli.self_s"] == 6.0
    assert m["semigroup.self_s"] == 3.0
    assert m["semigroup.evolve_series_s"] == 4.0
    assert m["semigroup.state_snapshots_per_s"] == 10.0
    assert m["semigroup.lambda_t"] == 1.0
    assert m["htheorem.h_evals"] == 1


def test_traced_self_times_sum_to_wall(work):
    run = bench.Run(bench.WORKLOADS["chain-2d"], 0, work, reference=None)
    op = run.operation(traced=True)
    assert not op.failures
    m = bench.layer_metrics(op.spans, op.proc.wall)
    names = ["cli.startup_s", "cli.import_s", "cli.self_s"]
    names += [f"{layer}.self_s" for layer in bench.LAYERS[1:]]
    assert sum(m[n] for n in names) == pytest.approx(op.proc.wall, rel=1e-9)
    assert all(m[n] >= 0 for n in names)
    assert m["htheorem.solve_invariant_s"] > 0.5 * op.proc.wall


@pytest.mark.parametrize("trace,kind", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_printed_with_unit(trace, kind):
    proc = _bench("--workload", "chain-2d", "--seed", "1", "--seconds", "1",
                  "--trace", str(trace))
    result = _result(proc)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    expected = {m["name"]: m["unit"] for m in SPEC[kind]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    lines = proc.stdout.splitlines()
    for name, unit in expected.items():
        assert any(ln.startswith(f"{name} = ") and f" {unit} (median of " in ln
                   for ln in lines), name
    assert "failed_ops = 0 count" in lines
    assert f"attempted_ops = {result['attempted']} count" in lines


def test_refuses_without_the_source_tree(work):
    shutil.copy(os.path.join(bench.ROOT, "BENCHMARK.json"), work)
    shutil.copytree(BENCH, os.path.join(work, "benchmarks"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "run-a2a", "--seed", "0", "--seconds", "1", "--trace", "0",
                  cwd=work)
    assert proc.returncode != 0
    assert proc.stdout == ""
