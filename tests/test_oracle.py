import logging
import sys
import threading

import numpy as np
import pytest

import kinbench as kb
from kinbench import oracle
from kinbench.discretize import Grid
from kinbench.errors import (
    DomainError,
    NonEllipticCoefficient,
    ParameterOutOfRange,
    ShapeError,
    TimeError,
)
from kinbench.expressions import CompiledExpression as CE
from kinbench.generator import DomainSpec, GeneratorSpec
from kinbench.oracle import (
    _em_step,
    _reflect,
    empirical_density,
    gaussian_source,
    moment_estimates,
    point_source,
    simulate,
    uniform_source,
)


def test_same_seed_bitwise_identical():
    spec, _ = kb.catalog_example("ornstein-uhlenbeck")
    a = simulate(spec, gaussian_source(0.0, 1.0), 2000, 1e-3, 0.05, seed=99)
    b = simulate(spec, gaussian_source(0.0, 1.0), 2000, 1e-3, 0.05, seed=99)
    assert np.array_equal(a.positions, b.positions)
    c = simulate(spec, gaussian_source(0.0, 1.0), 2000, 1e-3, 0.05, seed=100)
    assert not np.array_equal(a.positions, c.positions)


def test_frozen_dynamics_without_coefficients():
    spec = GeneratorSpec(1, CE("0"), CE("0"), DomainSpec("box", ((-1.0, 1.0),)))
    ens = simulate(spec, uniform_source(-0.5, 0.5), 500, 1e-2, 0.2, seed=1)
    ens2 = simulate(spec, uniform_source(-0.5, 0.5), 500, 1e-2, 0.0, seed=1)
    assert np.array_equal(ens.positions, ens2.positions)


def test_negative_diffusion_rejected():
    spec = GeneratorSpec(1, CE("-1"), CE("0"), DomainSpec("box", ((-1.0, 1.0),)))
    with pytest.raises(NonEllipticCoefficient):
        simulate(spec, point_source(0.0), 100, 1e-2, 0.1, seed=1)


def test_nan_diffusion_stops_the_simulation():
    # sqrt(x + 2) ln(x) is nan at the start -0.5: a NaN must not pass the floor test
    spec = GeneratorSpec(1, CE("(x + 2)^0.5 * ln(x)"), CE("0"), DomainSpec("box", ((-1.0, 1.0),)))
    with np.errstate(invalid="ignore"), pytest.raises(ParameterOutOfRange, match="^a = nan "):
        simulate(spec, point_source(-0.5), 100, 1e-2, 0.1, seed=1)


@pytest.mark.parametrize("bc", ["no-flux", "absorbing"])
def test_nonfinite_drift_is_named_at_the_snapshot(bc):
    # ln(x) sends the particles that cross 0 to NaN; neither wall rule moves them back
    spec = GeneratorSpec(1, CE("1"), np.log, DomainSpec("box", ((-1.0, 1.0),), bc))
    with np.errstate(invalid="ignore"), pytest.raises(
            ParameterOutOfRange, match=r"^b is not finite along the paths: \d+ of 100 "
                                       r"positions are not finite at t = 0\.5$"):
        simulate(spec, point_source(0.5), 100, 1e-2, 0.5, seed=0)


def test_ou_stationary_moments():
    spec, _ = kb.catalog_example("ornstein-uhlenbeck")
    n = 20_000
    ens = simulate(spec, point_source(0.0), n, 2e-3, 5.0, seed=2024)
    mean = ens.positions.mean()
    var = ens.positions.var()
    assert abs(mean) <= 3.5 / np.sqrt(n) + 0.01
    assert abs(var - 1.0) <= 3.5 * np.sqrt(2.0 / n) + 0.01


def test_reflection_conserves_particles_and_domain():
    spec = GeneratorSpec(1, CE("1"), CE("0"), DomainSpec("box", ((-1.0, 1.0),)))
    ens = simulate(spec, uniform_source(-1.0, 1.0), 5000, 1e-2, 1.0, seed=5)
    assert not np.any(ens.absorbed)
    assert ens.positions.min() >= -1.0
    assert ens.positions.max() <= 1.0


def test_absorbing_walls_freeze_particles():
    spec = GeneratorSpec(1, CE("1"), CE("2"),
                         DomainSpec("box", ((-1.0, 1.0),), "absorbing"))
    ens = simulate(spec, point_source(0.5), 2000, 1e-2, 2.0, seed=6)
    assert np.any(ens.absorbed)
    assert np.all(np.isin(ens.positions[ens.absorbed], [-1.0, 1.0]))


@pytest.mark.parametrize("patch", [{}, {"_POOL_MIN_N": 1, "_TASK_DRAWS": 1}])
def test_particles_that_start_on_an_absorbing_wall_stay_there(monkeypatch, patch):
    # uniform on [-1, 0.5] clipped into [0, 1] puts two thirds of the cloud
    # on the wall at 0; as on the chain, whose wall rows are zero, they are
    # absorbed from t = 0 and never move
    for name, value in patch.items():
        monkeypatch.setattr(oracle, name, value)
    spec = GeneratorSpec(1, CE("1"), CE("0"), DomainSpec("box", ((0.0, 1.0),), "absorbing"))
    start, after = simulate(spec, uniform_source(-1.0, 0.5), 2000, 1e-4, 1e-4, seed=7,
                            snapshots=[0.0, 1e-4])
    on_wall = start.positions == 0.0
    assert np.count_nonzero(on_wall) == 1339
    assert np.array_equal(start.absorbed, on_wall)
    assert np.count_nonzero(~start.absorbed) == 2000 - 1339
    assert np.all(after.positions[on_wall] == 0.0) and np.all(after.absorbed[on_wall])
    assert np.array_equal(after.absorbed, np.isin(after.positions, [0.0, 1.0]))
    assert not np.array_equal(after.positions[~on_wall], start.positions[~on_wall])
    _assert_bitwise_serial(spec, uniform_source(-1.0, 0.5), 2000, 1e-4, 7, [0.0, 1e-4, 5e-3])


def test_a_cloud_entirely_on_absorbing_walls_never_steps(caplog):
    caplog.set_level(logging.DEBUG, logger="kinbench.oracle")
    spec = GeneratorSpec(1, CE("1"), CE("0"), DomainSpec("box", ((0.0, 1.0),), "absorbing"))
    ens = simulate(spec, point_source(-3.0), 100, 1e-2, 1.0, seed=1)
    assert np.all(ens.absorbed) and np.all(ens.positions == 0.0)
    [line] = _logged(caplog)
    assert line["steps"] == 0


@pytest.mark.parametrize("bc, drift", [("no-flux", "0"), ("absorbing", "2")])
def test_smaller_run_is_a_prefix_of_a_larger_one(bc, drift):
    spec = GeneratorSpec(1, CE("1"), CE(drift), DomainSpec("box", ((-1.0, 1.0),), bc))
    small = simulate(spec, uniform_source(-0.5, 0.5), 1000, 1e-2, 1.0, seed=7)
    large = simulate(spec, uniform_source(-0.5, 0.5), 3000, 1e-2, 1.0, seed=7)
    assert np.array_equal(small.positions, large.positions[:1000])
    assert np.array_equal(small.absorbed, large.absorbed[:1000])
    if bc == "absorbing":
        assert np.any(small.absorbed) and not np.all(small.absorbed)


@pytest.mark.parametrize("bc, drift, x0, T", [
    ("no-flux", "3*x", 0.5, 1.0),
    ("absorbing", "2", 0.5, 1.0),
    ("absorbing", "5", 0.9, 5.0),  # every particle absorbed before T
])
def test_snapshots_of_one_pass_equal_separate_runs(bc, drift, x0, T):
    spec = GeneratorSpec(1, CE("1 + x^2"), CE(drift), DomainSpec("box", ((-1.0, 1.0),), bc))
    snaps = [0.0, 0.25, 0.25, 0.6, T]
    ensembles = simulate(spec, point_source(x0), 400, 1e-2, T, seed=11, snapshots=snaps)
    assert len(ensembles) == len(snaps)
    for t, ens in zip(snaps, ensembles):
        alone = simulate(spec, point_source(x0), 400, 1e-2, t, seed=11)
        assert np.array_equal(ens.positions, alone.positions)
        assert np.array_equal(ens.absorbed, alone.absorbed)
        assert ens.time == alone.time == round(t / 1e-2) * 1e-2
    if T == 5.0:
        assert np.all(ensembles[-2].absorbed) and not np.all(ensembles[1].absorbed)


@pytest.mark.parametrize("bc", ["no-flux", "absorbing"])
def test_simulate_is_bitwise_the_plain_euler_maruyama_formula(bc):
    # the reference recomputes every step from fresh arrays, as written in
    # the module docstring: step k draws from Philox stream 1 + k
    spec = GeneratorSpec(1, CE("1 + x^2/4"), CE("-3*x"), DomainSpec("box", ((-1.0, 2.0),), bc))
    n, dt, steps, seed = 500, 1e-2, 60, 5
    ens = simulate(spec, uniform_source(-1.0, 2.0), n, dt, steps * dt, seed)
    x = np.clip(np.random.Generator(np.random.Philox(key=seed, counter=[0, 0, 0, 0]))
                .uniform(-1.0, 2.0, size=n), -1.0, 2.0)
    absorbed = (bc == "absorbing") & ((x == -1.0) | (x == 2.0))
    for k in range(steps):
        rng = np.random.Generator(np.random.Philox(key=seed, counter=[0, 0, 1 + k, 0]))
        xi = rng.standard_normal(n)
        prop = x + spec.b(x) * dt + np.sqrt(2.0 * np.maximum(spec.a(x), 0.0)) * np.sqrt(dt) * xi
        if bc == "no-flux":
            y = np.mod(prop + 1.0, 6.0)
            x = np.where((prop < -1.0) | (prop > 2.0), -1.0 + np.minimum(y, 6.0 - y), prop)
        else:
            x = np.where(absorbed, x, np.clip(prop, -1.0, 2.0))
            absorbed |= (prop <= -1.0) | (prop >= 2.0)
    assert np.array_equal(ens.positions, x)
    assert np.array_equal(ens.absorbed, absorbed)
    assert (bc == "absorbing") == bool(absorbed.any())


@pytest.mark.parametrize("snaps", [[0.5, 0.2], [-0.1, 0.5], [0.5, 1.5],
                                   [0.5, float("inf")]])
def test_bad_snapshot_schedule_rejected(snaps):
    spec, _ = kb.catalog_example("ornstein-uhlenbeck")
    with pytest.raises(TimeError):
        simulate(spec, point_source(0.0), 10, 1e-2, 1.0, seed=1, snapshots=snaps)


def test_empirical_density_delta():
    grid = Grid((np.linspace(0.0, 1.0, 11),))
    spec = GeneratorSpec(1, CE("0"), CE("0"), DomainSpec("box", ((0.0, 1.0),)))
    ens = simulate(spec, point_source(0.5), 1000, 1e-2, 0.0, seed=1)
    dens = empirical_density(ens, grid)
    k = np.argmin(np.abs(grid.x - 0.5))
    w = grid.weights()
    assert dens[k] == pytest.approx(1.0 / w[k])
    assert np.dot(dens, w) == pytest.approx(1.0)


def test_empirical_density_uniform_sampler():
    grid = Grid((np.linspace(0.0, 1.0, 41),))
    spec = GeneratorSpec(1, CE("0"), CE("0"), DomainSpec("box", ((0.0, 1.0),)))
    ens = simulate(spec, uniform_source(0.0, 1.0), 50_000, 1e-2, 0.0, seed=3)
    dens = empirical_density(ens, grid)
    assert np.max(np.abs(dens[1:-1] - 1.0)) <= 0.12


def test_empirical_density_of_an_all_absorbed_ensemble_is_on_the_wall():
    # every particle is absorbed at the right wall: the whole law sits in
    # that wall node's half cell, as the chain keeps absorbed mass there
    grid = Grid((np.linspace(0.0, 1.0, 11),))
    spec = GeneratorSpec(1, CE("1"), CE("5"),
                         DomainSpec("box", ((0.0, 1.0),), "absorbing"))
    ens = simulate(spec, point_source(0.9), 50, 1e-2, 5.0, seed=9)
    assert np.all(ens.absorbed) and np.all(ens.positions == 1.0)
    dens = empirical_density(ens, grid)
    w = grid.weights()
    assert dens[-1] == 1.0 / w[-1]
    assert np.all(dens[:-1] == 0.0)


def test_empirical_density_on_a_grid_narrower_than_the_cloud_is_a_domain_error():
    spec, _ = kb.catalog_example("ornstein-uhlenbeck")
    ens = simulate(spec, gaussian_source(0.0, 1.0), 2000, 1e-2, 0.0, seed=3)
    with pytest.raises(DomainError, match="outside the grid's cells"):
        empirical_density(ens, Grid((np.linspace(-1.0, 1.0, 21),)))


def test_moment_estimates_ou():
    spec, _ = kb.catalog_example("ornstein-uhlenbeck")
    est = moment_estimates(spec, 0.0, 1e-2, 100_000, seed=17)
    assert abs(est.drift - 0.0) <= 3 * est.drift_se + 1e-3
    assert abs(est.diffusion - 1.0) <= 3 * est.diffusion_se + 0.01


def test_moment_estimates_quadratic_diffusion():
    spec, _ = kb.catalog_example("appendix2a", 1.0)
    est = moment_estimates(spec, 2.0, 1e-2, 100_000, seed=18)
    # a(2) = 5, b(2) = -2; finite-window bias is O(t)
    assert abs(est.drift + 2.0) <= 3 * est.drift_se + 0.1
    assert abs(est.diffusion - 5.0) <= 3 * est.diffusion_se + 0.15


@pytest.mark.parametrize("x0", [100.0, 8.0, -8.0, float("inf"), float("nan")])
def test_moment_estimates_need_an_interior_start(x0):
    # a start on or past a wall would be clipped to it, and its moments
    # would not be the generator's at x0
    spec, _ = kb.catalog_example("ornstein-uhlenbeck")
    with pytest.raises(DomainError):
        moment_estimates(spec, x0, 1e-2, 100, seed=1)


def test_third_moment_trend():
    spec, _ = kb.catalog_example("ornstein-uhlenbeck")
    thirds = [moment_estimates(spec, 0.0, t, 50_000, seed=21).third_abs_over_t
              for t in [1e-2, 5e-3, 2.5e-3]]
    assert thirds[0] > thirds[1] > thirds[2]


def test_bad_parameters_rejected():
    spec, _ = kb.catalog_example("ornstein-uhlenbeck")
    with pytest.raises(ParameterOutOfRange):
        simulate(spec, point_source(0.0), 10, -1e-3, 1.0, seed=1)
    with pytest.raises(ParameterOutOfRange):
        simulate(spec, point_source(0.0), 10, 1e-3, 1.0, seed=1, snapshots=[])
    with pytest.raises(ShapeError, match=r"one-dimensional, got shape \(\)$"):
        simulate(spec, point_source(0.0), 10, 1e-3, 1.0, seed=1, snapshots=0.5)
    # a particle count is an integer >= 1, a seed an integer in [0, 2^64)
    for n in (0, -5, float("nan"), 2.5, 10.0):
        with pytest.raises(ParameterOutOfRange, match="n "):
            simulate(spec, point_source(0.0), n, 1e-3, 1.0, seed=1)
    for seed in (-1, 1 << 64, 1.5, None):
        with pytest.raises(ParameterOutOfRange, match="seed"):
            simulate(spec, point_source(0.0), 10, 1e-3, 1.0, seed=seed)
    # a sampler returns n finite positions
    for sampler in (point_source(float("nan")), point_source(float("inf")),
                    lambda rng, n: np.zeros(3)):
        with pytest.raises(ParameterOutOfRange, match="10 finite positions"):
            simulate(spec, sampler, 10, 1e-3, 1.0, seed=1)
    # a standard error needs two draws
    for n in (0, 1, 2.5):
        with pytest.raises(ParameterOutOfRange, match="n "):
            moment_estimates(spec, 0.0, 1e-2, n, seed=1)
    assert simulate(spec, point_source(0.0), np.int64(3), 1e-3, 0.0,
                    seed=np.uint64((1 << 64) - 1)).positions.size == 3


def _philox(seed, stream):
    return np.random.Generator(np.random.Philox(key=seed, counter=[0, 0, stream, 0]))


def _serial_simulate(spec, sampler, n, dt, seed, snapshots):
    """Reference for the step-parallel draws: the single-pass time loop with
    every draw made serially on the calling thread, step k filling one
    reused buffer from Philox stream 1 + k.  Under absorbing walls the
    particles clipped onto a wall are absorbed at t = 0.  Returns
    (positions, absorbed, time) per snapshot."""
    lo, hi = spec.domain.bounds[0]
    x = np.clip(np.asarray(sampler(_philox(seed, 0), n), dtype=float), lo, hi)
    absorbed = np.zeros(x.size, dtype=bool)
    if spec.domain.boundary_condition == "absorbing":
        absorbed = (x == lo) | (x == hi)
    sqrt_dt = np.sqrt(dt)
    xi, work = np.empty(x.size), np.empty(x.size)
    out = []
    k = 0
    frozen = absorbed.all()  # also when there are no particles
    for steps in (int(round(t / dt)) for t in snapshots):
        while k < steps and not frozen:
            _philox(seed, 1 + k).standard_normal(out=xi)
            k += 1
            if spec.domain.boundary_condition == "no-flux":
                _em_step(spec, x, xi, work, dt, sqrt_dt)
                esc = np.flatnonzero((x < lo) | (x > hi))
                x[esc] = _reflect(x[esc], lo, hi)
            else:
                active = ~absorbed
                prop = x[active]
                _em_step(spec, prop, xi[active], work[:prop.size], dt, sqrt_dt)
                out_lo = prop <= lo
                out_hi = prop >= hi
                x[active] = np.where(out_lo, lo, np.where(out_hi, hi, prop))
                absorbed[np.flatnonzero(active)[out_lo | out_hi]] = True
                frozen = absorbed.all()
        out.append((x.copy(), absorbed.copy(), steps * dt))
    return out


def _logged(caplog):
    """key=value fields of each line logged under kinbench.oracle."""
    return [{k: float(v) for k, v in (f.split("=") for f in r.getMessage().split()[1:])}
            for r in caplog.records if r.name == "kinbench.oracle"]


def _assert_bitwise_serial(spec, sampler, n, dt, seed, snaps):
    ensembles = simulate(spec, sampler, n, dt, snaps[-1], seed, snapshots=snaps)
    reference = _serial_simulate(spec, sampler, n, dt, seed, snaps)
    assert len(ensembles) == len(reference) == len(snaps)
    for ens, (x, absorbed, t) in zip(ensembles, reference):
        assert np.array_equal(ens.positions.view(np.int64), x.view(np.int64))
        assert np.array_equal(ens.absorbed, absorbed)
        assert ens.time == t


# (n, steps, patched constants, logged helper threads and steps per task).
# Runs of several tasks end on a partial task (397 is prime) and wrap the
# ring; below _POOL_MIN_N, or in one task, the calling thread draws alone,
# unless the patch lowers the limit to give small ensembles a helper.  The
# ids are the cases' established names, kept from the two-thread pool: their
# last two fields are that pool's thread count and steps per task.
_SMALL_POOL = {"_POOL_MIN_N": 1}
_PIPELINE_CASES = [
    pytest.param(1, 397, {}, 0, 397, id="1-397-patch0-0-1"),
    pytest.param(7, 397, {}, 0, 397, id="7-397-patch1-0-1"),
    pytest.param(1000, 397, {}, 0, 66, id="1000-397-patch2-0-1"),
    pytest.param(5000, 397, {}, 1, 14, id="5000-397-patch3-2-14"),
    pytest.param(70_000, 13, {}, 1, 1, id="70000-13-patch4-2-1"),
    pytest.param(1, 397, {**_SMALL_POOL, "_TASK_DRAWS": 20}, 1, 20, id="1-397-patch5-2-20"),
    pytest.param(7, 397, {**_SMALL_POOL, "_TASK_DRAWS": 20}, 1, 3, id="7-397-patch6-2-3"),
    pytest.param(1000, 397, _SMALL_POOL, 1, 66, id="1000-397-patch7-2-66"),
]


@pytest.mark.parametrize("bc, drift", [("no-flux", "3*x"), ("absorbing", "2")])
@pytest.mark.parametrize("n, steps, patch, threads, per_task", _PIPELINE_CASES)
def test_step_parallel_draws_are_bitwise_the_serial_loop(monkeypatch, caplog, bc, drift,
                                                         n, steps, patch, threads, per_task):
    for name, value in patch.items():
        monkeypatch.setattr(oracle, name, value)
    caplog.set_level(logging.DEBUG, logger="kinbench.oracle")
    spec = GeneratorSpec(1, CE("1 + x^2"), CE(drift), DomainSpec("box", ((-1.0, 1.0),), bc))
    dt = 1e-2
    snaps = [0.0, 5 * dt, 5 * dt, (steps // 2) * dt, steps * dt]
    _assert_bitwise_serial(spec, uniform_source(-0.5, 0.5), n, dt, 13, snaps)
    [line] = _logged(caplog)
    assert (line["threads"], line["steps_per_task"]) == (threads, per_task)
    # the caller's idle wait is part of its draw wait, and without a helper it never waits
    assert 0 <= line["idle_s"] <= line["draw_wait_s"]
    assert threads or line["idle_s"] == 0


def _record_fills(monkeypatch):
    """(thread name, task) of every task filled, in call order."""
    fills, fill = [], oracle._StepDraws._fill
    def recording(draws, task):
        fills.append((threading.current_thread().name, task))
        fill(draws, task)
    monkeypatch.setattr(oracle._StepDraws, "_fill", recording)
    return fills


def test_step_parallel_draws_under_thread_contention(monkeypatch, caplog):
    # more draw threads than cores, one-step tasks through the ring, and
    # frequent GIL switches: a buffer handed out early, or a task claimed
    # twice or never, would show here
    monkeypatch.setattr(oracle, "_DRAW_THREADS", 4)
    monkeypatch.setattr(oracle, "_TASK_DRAWS", 1)
    monkeypatch.setattr(oracle, "_POOL_MIN_N", 1)
    caplog.set_level(logging.DEBUG, logger="kinbench.oracle")
    fills = _record_fills(monkeypatch)
    spec = GeneratorSpec(1, CE("1 + x^2"), CE("3*x"), DomainSpec("box", ((-1.0, 1.0),)))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        _assert_bitwise_serial(spec, uniform_source(-0.5, 0.5), 2000, 1e-2, 4,
                               [0.0, 0.5, 0.5, 2.0])
    finally:
        sys.setswitchinterval(interval)
    [line] = _logged(caplog)
    assert (line["threads"], line["steps_per_task"]) == (4, 1)
    assert 0 <= line["idle_s"] <= line["draw_wait_s"]
    assert sorted(task for _, task in fills) == list(range(200))
    caller = threading.current_thread().name
    assert sum(name == caller for name, _ in fills) == line["caller_tasks"]


def test_helper_exception_reaches_the_caller(monkeypatch):
    monkeypatch.setattr(oracle, "_POOL_MIN_N", 1)
    monkeypatch.setattr(oracle, "_TASK_DRAWS", 1)
    fill = oracle._StepDraws._fill
    def failing(draws, task):
        if threading.current_thread().name == "kinbench-draw":
            raise RuntimeError(f"helper failed at task {task}")
        fill(draws, task)
    monkeypatch.setattr(oracle._StepDraws, "_fill", failing)
    spec, _ = kb.catalog_example("ornstein-uhlenbeck")
    baseline = threading.active_count()
    outcome = []
    def run():
        try:
            simulate(spec, point_source(0.0), 1000, 1e-2, 2.0, seed=1)
        except RuntimeError as exc:
            outcome.append(exc)
    runner = threading.Thread(target=run, daemon=True)  # a hung caller fails the test
    runner.start()
    runner.join(timeout=30)
    assert not runner.is_alive()
    [exc] = outcome
    assert str(exc).startswith("helper failed at task")
    assert threading.active_count() == baseline


@pytest.mark.parametrize("n", [1000, 70_000])
def test_moment_estimates_are_bitwise_the_serial_loop(n):
    spec, _ = kb.catalog_example("ornstein-uhlenbeck")
    est = moment_estimates(spec, 1.0, 1e-2, n, seed=8)
    [(x, _, t)] = _serial_simulate(spec, point_source(1.0), n, 1e-2, 8, [1e-2])
    delta = x - 1.0
    assert est.drift == delta.mean() / t
    assert est.diffusion == (delta**2).mean() / (2 * t)
    assert est.third_abs_over_t == (np.abs(delta) ** 3).mean() / t


def test_simulate_logs_its_throughput(caplog):
    caplog.set_level(logging.DEBUG, logger="kinbench.oracle")
    spec, _ = kb.catalog_example("ornstein-uhlenbeck")
    simulate(spec, point_source(0.0), 1000, 1e-2, 1.0, seed=1, snapshots=[0.5, 1.0])
    moment_estimates(spec, 0.0, 1e-2, 70_000, seed=1)
    lines = _logged(caplog)
    assert len(lines) == 2
    for line, (n, steps, snaps, per_task, tasks) in zip(lines, [(1000, 100, 2, 66, 2),
                                                                (70_000, 1, 1, 1, 1)]):
        assert set(line) == {"n", "steps", "snapshots", "threads", "steps_per_task",
                             "elapsed_s", "particle_steps_per_s", "draw_wait_s",
                             "idle_s", "caller_tasks"}
        assert (line["n"], line["steps"], line["snapshots"]) == (n, steps, snaps)
        assert (line["threads"], line["steps_per_task"]) == (0, per_task)
        assert line["caller_tasks"] == tasks
        assert 0 < line["draw_wait_s"] < line["elapsed_s"]
        assert line["idle_s"] == 0
        assert line["particle_steps_per_s"] == pytest.approx(n * steps / line["elapsed_s"],
                                                             rel=1e-5)


def test_draw_threads_joined_when_a_turns_negative(monkeypatch, caplog):
    # a < 0 only beyond x = 2, which the drift reaches after several steps
    monkeypatch.setattr(oracle, "_POOL_MIN_N", 1)
    monkeypatch.setattr(oracle, "_TASK_DRAWS", 1)
    caplog.set_level(logging.DEBUG, logger="kinbench.oracle")
    spec = GeneratorSpec(1, CE("2 - x"), CE("4"), DomainSpec("box", ((-1.0, 3.0),)))
    baseline = threading.active_count()
    simulate(spec, point_source(-1.0), 1000, 1e-2, 0.1, seed=1)
    assert threading.active_count() == baseline
    fills = _record_fills(monkeypatch)
    with pytest.raises(NonEllipticCoefficient):
        simulate(spec, point_source(-1.0), 1000, 1e-2, 2.0, seed=1)
    assert threading.active_count() == baseline
    assert "kinbench-draw" in {name for name, _ in fills}
    [line] = _logged(caplog)
    assert (line["threads"], line["steps_per_task"]) == (1, 1)


def test_draw_threads_joined_after_all_absorbed(monkeypatch, caplog):
    monkeypatch.setattr(oracle, "_POOL_MIN_N", 1)
    caplog.set_level(logging.DEBUG, logger="kinbench.oracle")
    spec = GeneratorSpec(1, CE("1"), CE("5"), DomainSpec("box", ((-1.0, 1.0),), "absorbing"))
    baseline = threading.active_count()
    ens = simulate(spec, point_source(0.9), 50, 1e-2, 50.0, seed=9)
    assert np.all(ens.absorbed)
    assert threading.active_count() == baseline
    [line] = _logged(caplog)
    assert line["steps"] < 5000
    assert (line["threads"], line["steps_per_task"]) == (1, 1311)


@pytest.mark.parametrize("n, ring_bytes, depth", [(70_000, 32 << 20, 4),
                                                  (70_000, 3 * 8 * 70_000, 3),
                                                  (70_000, 1, 2),
                                                  (5000, 1, 2),
                                                  (1000, 32 << 20, 1)])
def test_draw_ring_stays_in_its_byte_budget(monkeypatch, n, ring_bytes, depth):
    monkeypatch.setattr(oracle, "_RING_BYTES", ring_bytes)
    with oracle._StepDraws(3, n, 40) as draws:
        assert len(draws._ring) == depth
        assert sum(1 for _ in draws) == 40
    spec = GeneratorSpec(1, CE("1 + x^2"), CE("3*x"), DomainSpec("box", ((-1.0, 1.0),)))
    _assert_bitwise_serial(spec, uniform_source(-0.5, 0.5), n, 1e-2, 3, [0.0, 0.05, 0.4])


@pytest.mark.parametrize("dt", [0.0, float("nan"), float("inf")])
def test_zero_or_nonfinite_dt_rejected(dt):
    spec, _ = kb.catalog_example("ornstein-uhlenbeck")
    with pytest.raises(ParameterOutOfRange):
        simulate(spec, point_source(0.0), 10, dt, 1.0, seed=1)
