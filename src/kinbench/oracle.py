"""Independent stochastic-particle realization of a diffusion generator.

Euler-Maruyama on dX = b dt + sqrt(2 a) dW; the square root carries the
factor two because the generator convention here is a f'' + b f' with no
one-half in front of the diffusion term (the classic factor-of-two trap).
Randomness is counter-based: each (seed, step) pair maps to its own
Philox stream, and particle i takes the i-th draw of every stream.  So an
m-particle run equals the first m particles of any larger run with the
same seed, dt and T; other partitions of the particles do not reproduce
the same draws.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (
    EmptyEnsemble,
    NonEllipticCoefficient,
    ParameterOutOfRange,
)

_INIT_STREAM = 0
_STEP_STREAM_BASE = 1


def _stream(seed, stream_index):
    """Philox generator for one logical stream of a run."""
    bits = np.random.Philox(key=np.uint64(seed), counter=[0, 0, np.uint64(stream_index), 0])
    return np.random.Generator(bits)


@dataclass
class ParticleEnsemble:
    """Particle positions after a run, with absorption bookkeeping."""

    positions: np.ndarray
    absorbed: np.ndarray
    time: float
    dt: float
    seed: int
    boundary: str

    @property
    def live(self):
        return self.positions[~self.absorbed]

    @property
    def count(self):
        return self.positions.size


def point_source(x0):
    """Initial sampler: all particles at one point."""
    return lambda rng, n: np.full(n, float(x0))


def gaussian_source(mean, sigma):
    """Initial sampler: normal cloud (caller truncates via the domain walls)."""
    return lambda rng, n: rng.normal(float(mean), float(sigma), size=n)


def uniform_source(lo, hi):
    return lambda rng, n: rng.uniform(float(lo), float(hi), size=n)


def _reflect(x, lo, hi):
    """Fold positions into [lo, hi] (exact triangle-wave reflection)."""
    span = hi - lo
    y = np.mod(x - lo, 2.0 * span)
    return lo + np.minimum(y, 2.0 * span - y)


def simulate(spec, sampler, n, dt, T, seed):
    """Run Euler-Maruyama particles under a 1-D generator spec.

    Walls follow the domain's boundary condition: 'no-flux' reflects,
    'absorbing' freezes particles at the wall they crossed.  Identical
    (seed, n, dt) runs are bitwise reproducible.
    """
    if spec.dimension != 1:
        raise ParameterOutOfRange("particle oracle supports dimension 1 in v1")
    if dt <= 0 or T < 0:
        raise ParameterOutOfRange("need dt > 0 and T >= 0")
    lo, hi = spec.domain.bounds[0]
    boundary = "reflect" if spec.domain.boundary_condition == "no-flux" else "absorb"

    rng0 = _stream(seed, _INIT_STREAM)
    x = np.asarray(sampler(rng0, int(n)), dtype=float)
    x = np.clip(x, lo, hi)
    absorbed = np.zeros(x.size, dtype=bool)

    steps = int(round(T / dt))
    sqrt_dt = np.sqrt(dt)
    for k in range(steps):
        rng = _stream(seed, _STEP_STREAM_BASE + k)
        xi = rng.standard_normal(x.size)
        active = ~absorbed
        if not np.any(active):
            break
        xa = x[active]
        a_vals = np.broadcast_to(np.asarray(spec.a(xa), dtype=float), xa.shape).copy()
        if a_vals.min() < -1e-12:
            raise NonEllipticCoefficient(
                f"a = {a_vals.min():g} < 0 encountered during simulation")
        a_vals = np.maximum(a_vals, 0.0)
        b_vals = np.broadcast_to(np.asarray(spec.b(xa), dtype=float), xa.shape)
        prop = xa + b_vals * dt + np.sqrt(2.0 * a_vals) * sqrt_dt * xi[active]
        if boundary == "reflect":
            inside = (prop >= lo) & (prop <= hi)
            x[active] = np.where(inside, prop, _reflect(prop, lo, hi))
        else:
            out_lo = prop <= lo
            out_hi = prop >= hi
            prop = np.where(out_lo, lo, np.where(out_hi, hi, prop))
            x[active] = prop
            idx = np.flatnonzero(active)
            absorbed[idx[out_lo | out_hi]] = True
    return ParticleEnsemble(x, absorbed, steps * dt, dt, int(seed), boundary)


def empirical_density(ensemble, grid):
    """Histogram density on node-centered cells, unit mass in grid weights."""
    live = ensemble.live
    if live.size == 0:
        raise EmptyEnsemble("no live particles to histogram")
    x = grid.x
    edges = np.concatenate((
        [x[0] - 0.5 * (x[1] - x[0])],
        0.5 * (x[1:] + x[:-1]),
        [x[-1] + 0.5 * (x[-1] - x[-2])],
    ))
    counts, _ = np.histogram(live, bins=edges)
    w = grid.weights()
    density = counts / (live.size * w)
    return density


@dataclass
class MomentEstimate:
    """Short-window moment estimates with Monte Carlo standard errors."""

    drift: float
    drift_se: float
    diffusion: float
    diffusion_se: float
    third_abs_over_t: float
    third_se: float
    t: float
    n: int


def moment_estimates(spec, x0, t_small, n, seed):
    """Kernel moments from particles all started at x0, one step of length t_small.

    Returns E[dX]/t, E[dX^2]/(2t), and E[|dX|^3]/t with standard errors;
    the third moment must shrink with t for a true diffusion.
    """
    ens = simulate(spec, point_source(x0), n, t_small, t_small, seed)
    if np.any(ens.absorbed):
        warnings.warn("some particles were absorbed during the moment window")
    delta = ens.positions - float(x0)
    t = ens.time
    m1 = delta.mean()
    m2 = (delta**2).mean()
    m3 = (np.abs(delta) ** 3).mean()
    se = lambda arr: arr.std(ddof=1) / np.sqrt(arr.size)  # noqa: E731
    return MomentEstimate(
        drift=m1 / t,
        drift_se=se(delta) / t,
        diffusion=m2 / (2 * t),
        diffusion_se=se(delta**2) / (2 * t),
        third_abs_over_t=m3 / t,
        third_se=se(np.abs(delta) ** 3) / t,
        t=t,
        n=int(n),
    )
