"""Independent stochastic-particle realization of a diffusion generator.

Euler-Maruyama on dX = b dt + sqrt(2 a) dW; the square root carries the
factor two because the generator convention here is a f'' + b f' with no
one-half in front of the diffusion term (the classic factor-of-two trap).
Randomness is counter-based: each (seed, step) pair maps to its own
Philox stream, and particle i takes the i-th draw of every stream.  So an
m-particle run equals the first m particles of any larger run with the
same seed, dt and T; other partitions of the particles do not reproduce
the same draws.  Because step k always draws from stream k, the snapshots
of one pass are bitwise equal to separate runs of length t: ``simulate``
takes every snapshot time and runs one time loop.  Under reflecting walls
only the particles that left the window go through the reflection.

The draws are step-parallel: stream k depends on (seed, k) alone, so any
thread may fill any step, whereas splitting the *particles* across workers
would break reproducibility.  ``_StepDraws`` shares the steps between the
calling thread and ``_DRAW_THREADS`` helper; the caller alone runs the
update (so ``spec.a`` and ``spec.b`` are never called from a helper), the
walls, the all-absorbed early exit and the snapshots.  Draws, positions,
``absorbed`` and times are therefore bitwise those of a serial loop,
whatever the thread schedule.  numpy releases the GIL while it draws, and
the draw is most of a step (1.9 of 2.3 ms at 100k particles on a 2-vCPU
Xeon), so both threads draw while the update overlaps the helper's draw.

On that Xeon a task of at least ``_TASK_DRAWS`` draws beat one-step tasks
(250 against 315 us a step at 8000 particles with the former two-thread
pool, 48 against 58 us at 1000 for the calling thread alone), and with a
helper 2^14 or 2^18 draws a task were no faster (142 and 149 against 135
us at 8000).  No helper starts in a run of one task, which has nothing to
share, nor below ``_POOL_MIN_N`` particles, where the GIL-bound part of a
step (stream setup, the update) outweighs the draw: at 1000 particles the
helper took 50 against 47 us a step, and it won from about 3000 (74
against 88 us, at 43% more CPU).  With a helper the ring keeps two to
``_PREFETCH`` slots within ``_RING_BYTES``: up to three particle-sized
buffers more than a serial loop, one more in very large ensembles.
Without one it keeps a single slot.
"""

from __future__ import annotations

import logging
import threading
import time
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (
    DomainError,
    EmptyEnsemble,
    NonEllipticCoefficient,
    ParameterOutOfRange,
    TimeError,
)
from .generator import EIG_FLOOR
from .semigroup import time_schedule

_INIT_STREAM = 0
_STEP_STREAM_BASE = 1
_DRAW_THREADS = 1       # helper threads that draw beside the calling thread
_PREFETCH = 4           # tasks (ring buffers) the draws may run ahead
_TASK_DRAWS = 1 << 16   # least draws per task, to amortize its overhead
_POOL_MIN_N = 1 << 12   # fewest particles for which a helper draws
_RING_BYTES = 32 << 20  # most bytes of ring, unless two slots alone pass it

_log = logging.getLogger("kinbench.oracle")


def _stream(seed, stream_index):
    """Philox generator for one logical stream of a run."""
    bits = np.random.Philox(key=np.uint64(seed), counter=[0, 0, np.uint64(stream_index), 0])
    return np.random.Generator(bits)


class _StepDraws:
    """The draws of steps 0 .. steps-1 of a run, yielded in step order, a row a step.

    A task fills ``per_task`` consecutive rows into one slot of a ring.  The
    helpers and the caller claim tasks in step order under one lock, and a
    slot goes to a new task only once the caller is past its last row.  When
    its next task is not ready the caller fills the next free one itself, so
    it waits only while every free slot is being filled.  Leaving the
    ``with`` joins the helpers; a helper's exception is raised in the
    caller.  ``waited`` is the caller's time spent getting draws, its own
    drawing included, ``idle`` the part of it spent waiting on the lock's
    condition, and ``caller_tasks`` counts the tasks it filled.
    """

    def __init__(self, seed, n, steps):
        self.per_task = max(1, min(steps, -(-_TASK_DRAWS // max(n, 1))))
        self._tasks = -(-steps // self.per_task)
        self.threads = _DRAW_THREADS if n >= _POOL_MIN_N and self._tasks > 1 else 0
        depth = max(2, _RING_BYTES // (8 * self.per_task * n)) if self.threads else 1
        self._ring = np.empty((min(_PREFETCH, depth, self._tasks), self.per_task, n))
        self._ready = [-1] * len(self._ring)  # the task whose rows each slot holds
        self._next = self._consumed = 0  # the next task to claim; tasks the caller is past
        self._seed, self._steps, self.caller_tasks = seed, steps, 0
        self.waited = self.idle = 0.0
        self._error, self._stop, self._lock = None, False, threading.Condition()
        self._helpers = [threading.Thread(target=self._help, name="kinbench-draw", daemon=True)
                         for _ in range(self.threads)]

    def __enter__(self):
        for helper in self._helpers:
            helper.start()
        return self

    def __exit__(self, *exc_info):
        with self._lock:
            self._stop = True
            self._lock.notify_all()
        for helper in self._helpers:
            helper.join()

    def _claim(self, task=None):
        """The next free task whose slot is free, waiting for one; None once
        the caller's ``task`` is ready, or when a helper should stop."""
        with self._lock:
            if task is not None:
                self._consumed = task
                self._lock.notify_all()
            while not self._stop:
                if task is not None:
                    if self._error is not None:
                        raise self._error
                    if self._ready[task % len(self._ring)] == task:
                        return None
                elif self._next == self._tasks:
                    return None
                if self._next < min(self._tasks, self._consumed + len(self._ring)):
                    self._next += 1
                    return self._next - 1
                start = time.perf_counter()
                self._lock.wait()
                if task is not None:
                    self.idle += time.perf_counter() - start

    def _fill(self, task):
        """Fill row i of the task's slot with the normal draws of its step i."""
        first = task * self.per_task
        for i, row in enumerate(self._ring[task % len(self._ring), :self._steps - first]):
            _stream(self._seed, _STEP_STREAM_BASE + first + i).standard_normal(out=row)
        with self._lock:
            self._ready[task % len(self._ring)] = task
            self._lock.notify_all()

    def _help(self):
        try:
            while (task := self._claim()) is not None:
                self._fill(task)
        except BaseException as exc:  # the caller re-raises it
            with self._lock:
                self._error = exc
                self._lock.notify_all()

    def __iter__(self):
        for task in range(self._tasks):
            start = time.perf_counter()
            while (free := self._claim(task)) is not None:
                self._fill(free)
                self.caller_tasks += 1
            self.waited += time.perf_counter() - start
            yield from self._ring[task % len(self._ring), :self._steps - task * self.per_task]


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


def _em_step(spec, x, xi, work, dt, sqrt_dt):
    """One Euler-Maruyama step, in place in x; xi and work are overwritten.

    Bitwise equal to x + b dt + sqrt(2 a) sqrt_dt xi.  Fresh particle-sized
    temporaries every step can make glibc trim the heap and page it back
    in at each step, so only spec.a and spec.b allocate.
    """
    a_vals = np.asarray(spec.a(x), dtype=float)
    low = a_vals.min()
    if not low >= EIG_FLOOR:  # one reduction; NaN propagates into it
        error = ParameterOutOfRange if np.isnan(low) else NonEllipticCoefficient
        raise error(f"a = {low:g} encountered during simulation")
    np.multiply(np.sqrt(2.0 * np.maximum(a_vals, 0.0)) * sqrt_dt, xi, out=xi)
    np.multiply(np.asarray(spec.b(x), dtype=float), dt, out=work)
    x += work
    x += xi


def simulate(spec, sampler, n, dt, T, seed, snapshots=None):
    """Run Euler-Maruyama particles under a 1-D generator spec.

    Walls follow the domain's boundary condition: 'no-flux' reflects,
    'absorbing' freezes particles at the wall they crossed.  Identical
    (seed, n, dt) runs are bitwise reproducible.

    Without ``snapshots`` the run lasts round(T/dt) steps and one ensemble
    is returned.  With a nondecreasing sequence of ``snapshots`` in
    [0, T], one pass returns a list with one ensemble per entry, each
    bitwise equal to a separate run of length t.
    """
    if spec.dimension != 1:
        raise ParameterOutOfRange("particle oracle supports dimension 1 in v1")
    if not (0 < dt < np.inf) or T < 0:
        raise ParameterOutOfRange("need a finite dt > 0 and T >= 0")
    times = time_schedule([T] if snapshots is None else snapshots)
    if times[-1] > T:
        raise TimeError(f"snapshot times must lie in [0, T = {T:g}]")
    lo, hi = spec.domain.bounds[0]
    boundary = "reflect" if spec.domain.boundary_condition == "no-flux" else "absorb"
    step_counts = [int(round(t / dt)) for t in times]

    start = time.perf_counter()
    rng0 = _stream(seed, _INIT_STREAM)
    x = np.asarray(sampler(rng0, int(n)), dtype=float)
    x = np.clip(x, lo, hi)
    absorbed = np.zeros(x.size, dtype=bool)

    sqrt_dt = np.sqrt(dt)
    work = np.empty(x.size)
    ensembles = []
    k = 0
    frozen = x.size == 0
    with _StepDraws(seed, x.size, step_counts[-1]) as draws:
        xis = iter(draws)
        for steps in step_counts:
            while k < steps and not frozen:
                xi = next(xis)
                k += 1
                if boundary == "reflect":
                    _em_step(spec, x, xi, work, dt, sqrt_dt)
                    out = np.flatnonzero((x < lo) | (x > hi))
                    x[out] = _reflect(x[out], lo, hi)
                else:
                    active = ~absorbed
                    prop = x[active]
                    _em_step(spec, prop, xi[active], work[:prop.size], dt, sqrt_dt)
                    out_lo = prop <= lo
                    out_hi = prop >= hi
                    x[active] = np.where(out_lo, lo, np.where(out_hi, hi, prop))
                    absorbed[np.flatnonzero(active)[out_lo | out_hi]] = True
                    frozen = absorbed.all()
            ensembles.append(ParticleEnsemble(x.copy(), absorbed.copy(), steps * dt, dt,
                                              int(seed), boundary))
    elapsed = time.perf_counter() - start
    _log.debug("simulate: n=%d steps=%d snapshots=%d threads=%d steps_per_task=%d "
               "elapsed_s=%.6g particle_steps_per_s=%.6g draw_wait_s=%.6g idle_s=%.6g "
               "caller_tasks=%d", x.size, k, len(ensembles), draws.threads, draws.per_task,
               elapsed, x.size * k / max(elapsed, 1e-9), draws.waited, draws.idle,
               draws.caller_tasks)
    return ensembles[0] if snapshots is None else ensembles


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
    n: int


def moment_estimates(spec, x0, t_small, n, seed):
    """Kernel moments from particles all started at x0, one step of length t_small.

    Returns E[dX]/t and E[dX^2]/(2t) with standard errors, and E[|dX|^3]/t,
    which must shrink with t for a true diffusion.  x0 must lie in the
    domain interior: a start on or past a wall would be clipped to it.
    """
    if not spec.domain.contains(x0, interior=True):
        raise DomainError(f"x0 = {x0:g} is not in the domain interior")
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
        n=int(n),
    )
