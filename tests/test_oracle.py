import numpy as np
import pytest

import kinbench as kb
from kinbench.discretize import Grid
from kinbench.errors import (
    EmptyEnsemble,
    NonEllipticCoefficient,
    ParameterOutOfRange,
    TimeError,
)
from kinbench.expressions import CompiledExpression as CE
from kinbench.generator import DomainSpec, GeneratorSpec
from kinbench.oracle import (
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
    absorbed = np.zeros(n, dtype=bool)
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


@pytest.mark.parametrize("snaps", [[0.5, 0.2], [-0.1, 0.5], [0.5, 1.5]])
def test_bad_snapshot_schedule_rejected(snaps):
    spec, _ = kb.catalog_example("ornstein-uhlenbeck")
    with pytest.raises(TimeError):
        simulate(spec, point_source(0.0), 10, 1e-2, 1.0, seed=1, snapshots=snaps)


def test_empirical_density_delta():
    grid = Grid.from_interval(0.0, 1.0, 11)
    spec = GeneratorSpec(1, CE("0"), CE("0"), DomainSpec("box", ((0.0, 1.0),)))
    ens = simulate(spec, point_source(0.5), 1000, 1e-2, 0.0, seed=1)
    dens = empirical_density(ens, grid)
    k = np.argmin(np.abs(grid.x - 0.5))
    w = grid.weights()
    assert dens[k] == pytest.approx(1.0 / w[k])
    assert np.dot(dens, w) == pytest.approx(1.0)


def test_empirical_density_uniform_sampler():
    grid = Grid.from_interval(0.0, 1.0, 41)
    spec = GeneratorSpec(1, CE("0"), CE("0"), DomainSpec("box", ((0.0, 1.0),)))
    ens = simulate(spec, uniform_source(0.0, 1.0), 50_000, 1e-2, 0.0, seed=3)
    dens = empirical_density(ens, grid)
    assert np.max(np.abs(dens[1:-1] - 1.0)) <= 0.12


def test_empirical_density_empty():
    grid = Grid.from_interval(0.0, 1.0, 11)
    spec = GeneratorSpec(1, CE("1"), CE("5"),
                         DomainSpec("box", ((0.0, 1.0),), "absorbing"))
    ens = simulate(spec, point_source(0.9), 50, 1e-2, 5.0, seed=9)
    assert np.all(ens.absorbed)
    with pytest.raises(EmptyEnsemble):
        empirical_density(ens, grid)


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
