"""Sampled realizations of the two driver classes.

Drivers: Gaussian martingales with variance density rho, among them the
multidimensional Wiener path (rho == 1, one path type for both), and marked
Poisson random measures with finite intensity.  Component 0 of a Gaussian
path is deterministic time.  All samplers are pure functions of (arguments,
seed).  Component i of a sample draws from its own substream, bit for bit numpy's
Generator(PCG64(SeedSequence(entropy, spawn_key=spawn_key + (i,)))): spawn key
(i,) under an int seed, (trial, i) under trial_seed(seed, trial), so trials
and components are independent and reproducible.  seed_words runs
SeedSequence's hash for many spawn keys at once, and the Monte Carlo loop
hands each trial its precomputed words in a TrialSeed.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import quadrature
from .basis import Interval
from .errors import SizeError

__all__ = [
    "Partition",
    "make_partition",
    "GaussianMartingalePath",
    "IntensityMeasure",
    "PowerMark",
    "power_mark",
    "exponential_measure",
    "PoissonRealization",
    "sample_wiener",
    "sample_gaussian_martingale",
    "martingale_from_wiener",
    "scale_draws",
    "sample_poisson",
    "interval_measures",
    "component_rng",
    "seed_words",
    "TrialSeed",
    "trial_seed",
]

JUMP_BUDGET = 10**6
# steps per evaluation of a callable rho: its (block, ORDER) tables of nodes, weights,
# values and their products, about 3 MiB
RHO_BLOCK = 3 * 2**10
LAGUERRE_NODES = 80  # Gauss-Laguerre nodes of exponential_measure's mark integral


@dataclass(frozen=True)
class Partition:
    """Nodes tau_0 < ... < tau_N spanning the interval.

    The step lengths and left nodes are computed once and are read-only;
    step variances of Gaussian martingales, and the square roots the samplers
    scale by, are memoized for the last density."""

    interval: Interval
    nodes: np.ndarray
    deltas: np.ndarray = field(init=False, repr=False, compare=False)
    left_nodes: np.ndarray = field(init=False, repr=False, compare=False)
    _variances: list = field(init=False, repr=False, compare=False, default_factory=list)
    _scales: list = field(init=False, repr=False, compare=False, default_factory=list)

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        if nodes[0] != self.interval.start or nodes[-1] != self.interval.end:
            raise ValueError("partition must span the interval")
        deltas = np.diff(nodes)
        if np.any(deltas <= 0):
            raise ValueError("partition nodes must be strictly increasing")
        deltas.flags.writeable = False
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "deltas", deltas)
        object.__setattr__(self, "left_nodes", nodes[:-1])

    @property
    def n_steps(self) -> int:
        return len(self.nodes) - 1

    def step_variances(self, rho=None) -> np.ndarray:
        """int rho over every step: the step lengths when rho is None (a Wiener
        path), times rho when it is a number, else on the quadrature.PanelGrid
        whose panels are the steps, RHO_BLOCK steps at a time (a pointwise rho
        gives every step's sum whatever the blocks).  ValueError if rho is
        negative or not finite.

        Memoized for the last rho object only (a pass uses one density), so
        rho is evaluated once per block and pass; a density must not change
        after its first use here."""
        if rho is None:
            return self.deltas
        if self._variances and self._variances[0] is rho:
            return self._variances[1]
        if callable(rho):
            variances, first, constant = np.empty(self.n_steps), None, True
            for lo in range(0, self.n_steps, RHO_BLOCK):
                grid = quadrature.PanelGrid(self.nodes[lo:lo + RHO_BLOCK + 1])
                vals = _checked_density(grid.eval_on_nodes(_as_callable(rho)))
                first = vals.flat[0] if first is None else first
                constant = constant and bool(np.all(vals == first))
                variances[lo:lo + RHO_BLOCK] = np.sum(grid.weights * vals, axis=1)
        else:
            first, constant = _checked_density(np.array([float(rho)]))[0], True
        if constant:
            # constant density integrates exactly; keeps rho == 1 bitwise equal
            # to the plain Wiener step variances
            variances = self.deltas * first
        variances.flags.writeable = False
        self._variances[:] = (rho, variances)
        return variances

    def step_scales(self, rho=None) -> np.ndarray:
        """Square roots of the step variances, read-only; memoized for the last
        variances only."""
        variances = self.step_variances(rho)
        if not (self._scales and self._scales[0] is variances):
            scales = np.sqrt(variances)
            scales.flags.writeable = False
            self._scales[:] = (variances, scales)
        return self._scales[1]


def _checked_density(vals: np.ndarray) -> np.ndarray:
    if not np.all((vals >= 0) & (vals < np.inf)):
        raise ValueError("variance density rho is negative or not finite on the interval")
    return vals


def make_partition(interval: Interval, n: int) -> Partition:
    """Uniform partition of the interval into n steps."""
    if n < 1:
        raise ValueError("partition needs at least one step")
    return Partition(interval, np.linspace(interval.start, interval.end, n + 1))


# numpy's SeedSequence hash (numpy/random/bit_generator.pyx), in uint32 arithmetic
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_HASH_B = [_INIT_B * pow(_MULT_B, i, 2**32) & _MASK32 for i in range(9)]


def _words(x) -> list[int]:
    """The uint32 words SeedSequence assembles from an int or a sequence of ints."""
    if isinstance(x, (str, bytes)):  # iterating one would recurse without end
        raise TypeError(f"seed entropy and spawn keys must be integers, got {x!r}")
    if not isinstance(x, (int, np.integer)):  # a one-word int entry skips the call
        return [w for v in x
                for w in ((v,) if type(v) is int and 0 <= v <= _MASK32 else _words(v))]
    x = int(x)
    if x < 0:
        raise ValueError("seed entropy and spawn keys must be non-negative integers")
    words = [x & _MASK32]
    while x := x >> 32:
        words.append(x & _MASK32)
    return words


def _hashmix(value: int, const: int):
    """(hashed value, next hash constant)."""
    value = (value ^ const) * (const := const * _MULT_A & _MASK32) & _MASK32
    return value ^ value >> 16, const


def _mix(x, y):
    r = (_MIX_L * x - _MIX_R * y) & _MASK32
    return r ^ r >> 16


@functools.lru_cache(maxsize=64)
def _entropy_pool(entropy: tuple) -> tuple:
    """(pool, hash constant) after the entropy words, padded with zeros to 4: the part of
    SeedSequence's pool mixing that every spawn key of one entropy shares."""
    entropy = entropy + (0,) * (4 - len(entropy))
    pool, const = [], _INIT_A
    for w in entropy[:4]:
        value, const = _hashmix(w, const)
        pool.append(value)
    for src in range(4):
        for dst in range(4):
            if src != dst:
                value, const = _hashmix(pool[src], const)
                pool[dst] = _mix(pool[dst], value)
    const = _absorb(pool, const, entropy[4:])
    return tuple(pool), const


def _absorb(pool: list, const: int, words) -> int:
    """Mix each word into every pool word in place (SeedSequence's loop over the
    entropy beyond the pool, _hashmix and _mix inlined); returns the next hash
    constant.  The words and pool entries are ints or uint32 arrays alike."""
    for w in words:
        for dst in range(4):
            value = (w ^ const) * (const := const * _MULT_A & _MASK32) & _MASK32
            value = (_MIX_L * pool[dst] - _MIX_R * (value ^ value >> 16)) & _MASK32
            pool[dst] = value ^ value >> 16
    return const


def seed_words(entropy, keys) -> np.ndarray:
    """(n, 4) uint64 PCG64 seed words of n substreams of one root entropy, in one pass.

    Row r is bitwise SeedSequence(entropy, spawn_key=keys[r]).generate_state(4, np.uint64).
    keys is an (n, L) array of integers in [0, 2**32), one word each, or one spawn key
    of any non-negative integers as a tuple (n = 1).  The pool mixing of the entropy
    words is shared by every key and computed once; each key word then enters every
    pool word, vectorized over the keys."""
    pool, const = _entropy_pool(tuple(_words(entropy)))
    if isinstance(keys, tuple):  # one key: plain ints throughout
        n, columns, pool = 1, _words(keys), list(pool)
    else:
        keys = np.asarray(keys)
        if keys.ndim != 2 or keys.dtype.kind not in "iu" or keys.size and not (
                keys.min() >= 0 and keys.max() <= _MASK32):
            raise ValueError("keys must be an (n, L) array of integers in [0, 2**32)")
        n, columns = len(keys), np.ascontiguousarray(keys.T, dtype=np.uint32)
        pool = [np.full(n, w, np.uint32) for w in pool]
    _absorb(pool, const, columns)
    # generate_state: 8 uint32 words from the cycled pool (its hash constants are fixed),
    # read as 4 little-endian uint64 words
    state = [(v := (pool[i % 4] ^ _HASH_B[i]) * _HASH_B[i + 1] & _MASK32) ^ v >> 16
             for i in range(8)]
    state = np.ascontiguousarray(np.array(state, dtype="<u4").reshape(8, n).T)
    return state.view("<u8").astype(np.uint64, copy=False)


@functools.cache
def _words_seed_class():
    """An ISeedSequence that hands PCG64 words already derived (numpy.random loads on
    first use, not at import)."""
    from numpy.random.bit_generator import ISeedSequence

    class SeedWords(ISeedSequence):
        __slots__ = ("words",)

        def __init__(self, words):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            if n_words != 4 or np.dtype(dtype) != np.uint64:
                raise ValueError("seed words hold exactly 4 uint64 words")
            return self.words

    return SeedWords


class TrialSeed(NamedTuple):
    """Root entropy and spawn key of one trial's substreams, as SeedSequence names
    them, and optionally the seed words of its components 1..len(words)."""

    entropy: int
    spawn_key: tuple
    words: np.ndarray | None = None


def component_rng(seed, component: int) -> np.random.Generator:
    """Independent substream for one component: the generator of
    PCG64(SeedSequence(entropy, spawn_key=spawn_key + (component,))), bitwise, for
    seed an int (the entropy; no spawn key), a SeedSequence or a TrialSeed."""
    words = getattr(seed, "words", None)
    if words is not None and 1 <= component <= len(words):
        words = words[component - 1]
    elif hasattr(seed, "spawn_key"):
        words = seed_words(seed.entropy, (*seed.spawn_key, component))[0]
    else:
        words = seed_words(seed, (component,))[0]
    return np.random.Generator(np.random.PCG64(_words_seed_class()(words)))


def trial_seed(seed: int, trial: int) -> TrialSeed:
    """Seed of one Monte Carlo trial: spawn key (trial,) under the root seed."""
    return TrialSeed(seed, (trial,))


@dataclass(frozen=True)
class GaussianMartingalePath:
    """Increments of an m-dimensional Gaussian martingale with per-step variances
    int rho; row 0 holds the time deltas.  A Wiener path is the rho == 1 case,
    with the step lengths as its variances.

    A path records its density rho (None: a Wiener path), from which the
    basis variables build their ties' quadratic covariations, and a sampled
    path keeps its unit normal draws, read-only, for scale_draws."""

    partition: Partition
    m: int
    increments: np.ndarray  # (m + 1, N)
    variances: np.ndarray  # (N,)
    rho: object = None
    unit_draws: np.ndarray | None = field(default=None, repr=False, compare=False)  # (m, N)

    def increment(self, i: int) -> np.ndarray:
        return self.increments[i]


def _unit_draws(partition: Partition, m: int, seed) -> np.ndarray:
    """(m, N) standard normals, read-only; component i draws from its own substream."""
    if m < 1:
        raise ValueError("need at least one stochastic component")
    z = np.empty((m, partition.n_steps))
    for i in range(1, m + 1):
        component_rng(seed, i).standard_normal(out=z[i - 1])
    z.flags.writeable = False
    return z


def scale_draws(unit_draws: np.ndarray, partition: Partition, rho=None,
                out: np.ndarray | None = None) -> np.ndarray:
    """(m + 1, n) increments on a partition of n steps from (m, N >= n) unit
    draws: the step lengths, then the first n draws of each component times the
    square roots of the step variances (with density rho; None, the step lengths
    themselves, for a Wiener path).  They are written into out if given (an
    (m + 1, n) float64 array) and returned.

    A substream fills its normals in sequence, so a sampled path's unit draws
    scaled onto a partition of fewer steps are bitwise the increments that the
    sampler returns there from the same seed, without drawing again."""
    n = partition.n_steps
    if n > unit_draws.shape[1]:
        raise ValueError(f"cannot scale {unit_draws.shape[1]} draws onto {n} steps")
    if out is None:
        out = np.empty((len(unit_draws) + 1, n))
    out[0] = partition.deltas
    np.multiply(unit_draws[:, :n], partition.step_scales(rho), out=out[1:])
    return out


def sample_wiener(partition: Partition, m: int, seed,
                  out: np.ndarray | None = None) -> GaussianMartingalePath:
    """Wiener path: the Gaussian martingale with rho == 1."""
    return sample_gaussian_martingale(partition, m, None, seed, out)


def sample_gaussian_martingale(partition: Partition, m: int, rho, seed,
                               out: np.ndarray | None = None) -> GaussianMartingalePath:
    """Gaussian martingale with E[(M_s - M_t)^2] = int_t^s rho; rho None is the
    Wiener path, and a constant rho == 1 gives its increments bitwise.

    out, a writeable (m + 1, N) float64 array, receives the increments, bitwise
    those of a call without it, and is the path's increments; ValueError, before
    any draw, for any other out.  The unit draws keep their own array."""
    shape = (m + 1, partition.n_steps)
    if out is not None and not (isinstance(out, np.ndarray) and out.dtype == np.float64
                                and out.shape == shape and out.flags.writeable):
        raise ValueError(f"out must be a writeable float64 array of shape {shape}")
    variances = partition.step_variances(rho)
    z = _unit_draws(partition, m, seed)
    return GaussianMartingalePath(partition, m, scale_draws(z, partition, rho, out), variances,
                                  rho, z)


def martingale_from_wiener(path: GaussianMartingalePath, rho) -> GaussianMartingalePath:
    """Left-point coupling dM = sqrt(rho(tau_l)) dW on the path's partition.

    Used for pathwise two-route comparisons; variances are the Euler ones.
    ValueError if rho is negative or not finite at a left node."""
    rho_left = _checked_density(_as_callable(rho)(path.partition.left_nodes))
    inc = path.increments.copy()
    inc[1:] *= np.sqrt(rho_left)[None, :]
    return GaussianMartingalePath(path.partition, path.m, inc, rho_left * path.partition.deltas,
                                  rho)


def _as_callable(rho):
    """rho as a function of an array of points that returns one float per point;
    a callable's result is broadcast to its argument's shape, so a constant
    lambda gives the same values as the number."""
    if callable(rho):
        def at(x):
            x = np.asarray(x, dtype=float)
            return np.broadcast_to(np.asarray(rho(x), dtype=float), x.shape)
        return at
    value = float(rho)
    return lambda x: np.full_like(np.asarray(x, dtype=float), value)


# ----------------------------------------------------------------------------
# Poisson random measures

@dataclass(frozen=True)
class PowerMark:
    """Mark factor phi(y) = y^power (power 0 gives the indicator of the mark space)."""

    power: float

    def __call__(self, y):
        y = np.asarray(y, dtype=float)
        return np.ones_like(y) if self.power == 0.0 else y ** self.power


def power_mark(a: float = 1.0) -> PowerMark:
    """y^a; one callable per exponent, so that equal slots share their measures
    (oracle.slot_increments)."""
    return _power_mark(float(a))


_power_mark = functools.cache(PowerMark)


@dataclass(frozen=True)
class IntensityMeasure:
    """Finite intensity measure Pi on the (one-dimensional) mark space.

    total_mass is Pi(Y); sampler(rng, size) draws marks from Pi / total_mass;
    mark_integral(f) evaluates int f(y) Pi(dy).
    """

    total_mass: float
    sampler: "callable" = field(repr=False)
    mark_integral: "callable" = field(repr=False)

    def __post_init__(self):
        if not (np.isfinite(self.total_mass) and self.total_mass > 0):
            raise ValueError("total mass must be finite and positive")

    def moment(self, phi, s: float) -> float:
        """int |phi(y)|^s Pi(dy); ValueError unless it is finite.  Under a mark
        density positive at 0, as exponential_measure's, y^a has none when
        a s <= -1, although mark_integral's quadrature gives a number."""
        if isinstance(phi, PowerMark) and phi.power * s <= -1:
            raise ValueError(f"mark moment of order {s} is not finite: "
                             f"y^{phi.power} is singular at 0")
        with np.errstate(over="ignore", invalid="ignore"):  # finiteness is tested here
            value = self.mark_integral(lambda y: np.abs(phi(y)) ** s)
        if not np.isfinite(value):
            raise ValueError(f"mark moment of order {s} is not finite")
        return value


def exponential_measure(total_mass: float) -> IntensityMeasure:
    """Pi = total_mass * Exp(1) on the positive half-line (default mark space).

    One measure per float(total_mass), as power_mark gives one callable per
    exponent, and every measure shares one read-only Gauss-Laguerre rule, so
    the caches keyed on a measure (expansions._compensator_row) hold across
    runs.  ValueError, on every call, unless total_mass is finite and positive."""
    return _exponential_measure(float(total_mass))


@functools.cache
def _exponential_measure(total_mass: float) -> IntensityMeasure:
    lag_x, lag_w = _laguerre_rule()

    def mark_integral(f):
        return float(total_mass * np.sum(lag_w * f(lag_x)))

    return IntensityMeasure(
        total_mass=total_mass,
        sampler=lambda rng, size: rng.exponential(1.0, size),
        mark_integral=mark_integral,
    )


@functools.cache
def _laguerre_rule():
    """LAGUERRE_NODES-node Gauss-Laguerre nodes and weights, read-only: exact
    for int p(y) e^(-y) dy over polynomials p of degree < 2 LAGUERRE_NODES up
    to their rounding (int y^n e^(-y) dy = n! within 1.3e-13 relative, n <= 20)."""
    rule = np.polynomial.laguerre.laggauss(LAGUERRE_NODES)
    for a in rule:
        a.flags.writeable = False
    return rule


@dataclass(frozen=True)
class PoissonRealization:
    """Jump times and marks of m independent Poisson measures on [t, T]."""

    interval: Interval
    m: int
    times: tuple
    marks: tuple
    intensity: IntensityMeasure

    def jumps(self, i: int):
        if not 1 <= i <= self.m:
            raise ValueError(f"component must be in 1..{self.m}")
        return self.times[i - 1], self.marks[i - 1]


def sample_poisson(interval: Interval, m: int, measure: IntensityMeasure,
                   seed) -> PoissonRealization:
    if m < 1:
        raise ValueError("need at least one component")
    mean_jumps = measure.total_mass * interval.length
    if mean_jumps > JUMP_BUDGET:
        raise SizeError(f"expected jump count {mean_jumps:.3g} exceeds the budget {JUMP_BUDGET}")
    times, marks = [], []
    for i in range(1, m + 1):
        rng = component_rng(seed, i)
        count = int(rng.poisson(mean_jumps))
        if count > JUMP_BUDGET:
            raise SizeError(f"jump count {count} exceeds the budget {JUMP_BUDGET}")
        s = rng.uniform(interval.start, interval.end, count)
        s.sort()
        y = measure.sampler(rng, count)
        times.append(s)
        marks.append(np.asarray(y, dtype=float))
    return PoissonRealization(interval, m, tuple(times), tuple(marks), measure)


def _poisson_batch(realizations) -> tuple:
    """(realizations as a tuple, True if one was given alone) for one Poisson
    realization or a non-empty list or tuple of them that share one intensity measure."""
    alone = not isinstance(realizations, (list, tuple))
    batch = (realizations,) if alone else tuple(realizations)
    if not batch or not all(isinstance(r, PoissonRealization) for r in batch):
        raise TypeError(f"unsupported realization type {type(realizations).__name__}"
                        + ("" if alone else " (a batch holds one or more Poisson realizations)"))
    if any(r.intensity is not batch[0].intensity for r in batch):
        raise ValueError("the realizations of one batch must share their intensity measure")
    return batch, alone


def _batch_jumps(realizations, i: int):
    """(times, marks, counts) of component i over a batch of Poisson realizations:
    their jump times and marks concatenated in trial order, and each one's jump count."""
    jumps = [r.jumps(i) for r in realizations]
    counts = np.array([len(t) for t, _ in jumps])
    return (np.concatenate([t for t, _ in jumps]), np.concatenate([y for _, y in jumps]),
            counts)


def interval_measures(realizations, i: int, phi, partition: Partition,
                      out: np.ndarray | None = None) -> np.ndarray:
    """Per-step values of int phi(y) nu~(i)([tau_l, tau_l+1), dy), shape (N,) for one
    realization and (trials, N) for a list or tuple of them (all of one intensity).

    For i = 0 the measure is Pi(dy) dt, i.e. delta_t * int phi dPi per step.
    The jumps of all trials go into out (a (trials, N) array to write into, or a
    new one if None) by one scattered add from 0.0, in time order within a
    trial, so each row is bitwise what the trial alone gives."""
    batch, alone = _poisson_batch(realizations)
    m1 = batch[0].intensity.mark_integral(phi)
    if out is None:
        out = np.empty((len(batch), partition.n_steps))
    if i == 0:
        out[...] = partition.deltas * m1
    else:
        times, marks, counts = _batch_jumps(batch, i)
        bins = np.clip(np.searchsorted(partition.nodes, times, side="right") - 1,
                       0, partition.n_steps - 1)
        out[...] = 0.0
        np.add.at(out, (np.repeat(np.arange(len(batch)), counts), bins), phi(marks))
        out -= partition.deltas * m1
    return out[0] if alone else out
