"""Sampled realizations of the three driver classes.

Drivers: multidimensional Wiener paths, marked Poisson random measures with
finite intensity, and Gaussian martingales with variance density rho.
Component 0 of every path-like driver is deterministic time.  All samplers
are pure functions of (arguments, seed); substreams are derived from the
root seed by (component,) or (trial, component) spawn keys, so trials and
components are independent and reproducible.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from . import quadrature
from .basis import Interval
from .errors import SizeError

__all__ = [
    "Partition",
    "make_partition",
    "WienerPath",
    "GaussianMartingalePath",
    "IntensityMeasure",
    "exponential_measure",
    "PoissonRealization",
    "sample_wiener",
    "sample_gaussian_martingale",
    "martingale_from_wiener",
    "sample_poisson",
    "interval_measures",
    "compensated_integral",
    "component_rng",
    "realization_to_json",
    "realization_from_json",
]

JUMP_BUDGET = 10**6


@dataclass(frozen=True)
class Partition:
    """Nodes tau_0 < ... < tau_N spanning the interval.

    The step lengths and left nodes are computed once and are read-only;
    step variances of Gaussian martingales are memoized per density."""

    interval: Interval
    nodes: np.ndarray
    deltas: np.ndarray = field(init=False, repr=False, compare=False)
    left_nodes: np.ndarray = field(init=False, repr=False, compare=False)
    _variances: dict = field(init=False, repr=False, compare=False, default_factory=dict)

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

    @property
    def max_delta(self) -> float:
        return float(np.max(self.deltas))

    def step_variances(self, rho) -> np.ndarray:
        """int rho over every step (32-node Gauss-Legendre per step).

        Memoized per rho object, so rho is evaluated in one call per
        partition; a density must not change after its first use here."""
        hit = self._variances.get(id(rho))
        if hit is not None and hit[0] is rho:
            return hit[1]
        density = _as_callable(rho)
        ref_x, ref_w = np.polynomial.legendre.leggauss(32)
        a = self.left_nodes[:, None]
        b = self.nodes[1:][:, None]
        pts = a + (b - a) * (ref_x[None, :] + 1.0) / 2.0
        vals = density(pts.ravel()).reshape(pts.shape)
        if np.any(vals < 0):
            raise ValueError("variance density rho is negative on the interval")
        if np.all(vals == vals.flat[0]):
            # constant density integrates exactly; keeps rho == 1 bitwise equal
            # to the plain Wiener step variances
            variances = self.deltas * vals.flat[0]
        else:
            variances = np.sum((b - a) / 2.0 * ref_w[None, :] * vals, axis=1)
        variances.flags.writeable = False
        self._variances[id(rho)] = (rho, variances)  # holding rho keeps its id unique
        return variances


def make_partition(interval: Interval, n: int, scheme: str = "uniform") -> Partition:
    if n < 1:
        raise ValueError("partition needs at least one step")
    if scheme != "uniform":
        raise ValueError(f"unsupported partition scheme: {scheme}")
    return Partition(interval, np.linspace(interval.start, interval.end, n + 1))


def component_rng(seed, component: int) -> np.random.Generator:
    """Independent substream for one component (counter-based spawn key)."""
    if isinstance(seed, np.random.SeedSequence):
        ss = np.random.SeedSequence(seed.entropy, spawn_key=tuple(seed.spawn_key) + (component,))
    else:
        ss = np.random.SeedSequence(seed, spawn_key=(component,))
    return np.random.Generator(np.random.PCG64(ss))


def trial_seed(seed: int, trial: int) -> np.random.SeedSequence:
    """Seed object for one Monte Carlo trial, derived from the root seed."""
    return np.random.SeedSequence(seed, spawn_key=(trial,))


@dataclass(frozen=True)
class WienerPath:
    """Increments of an m-dimensional Wiener path; row 0 holds the time deltas."""

    partition: Partition
    m: int
    increments: np.ndarray  # (m + 1, N)

    def increment(self, i: int) -> np.ndarray:
        return self.increments[i]


@dataclass(frozen=True)
class GaussianMartingalePath:
    """Gaussian-martingale increments with per-step variances int rho."""

    partition: Partition
    m: int
    increments: np.ndarray  # (m + 1, N)
    variances: np.ndarray  # (N,)

    def increment(self, i: int) -> np.ndarray:
        return self.increments[i]


def _gaussian_increments(partition: Partition, m: int, seed, variances: np.ndarray) -> np.ndarray:
    n = partition.n_steps
    inc = np.empty((m + 1, n))
    inc[0] = partition.deltas
    sig = np.sqrt(variances)
    for i in range(1, m + 1):
        inc[i] = component_rng(seed, i).standard_normal(n) * sig
    return inc


def sample_wiener(partition: Partition, m: int, seed) -> WienerPath:
    if m < 1:
        raise ValueError("need at least one stochastic component")
    inc = _gaussian_increments(partition, m, seed, partition.deltas)
    return WienerPath(partition, m, inc)


def sample_gaussian_martingale(partition: Partition, m: int, rho, seed) -> GaussianMartingalePath:
    """Gaussian martingale with E[(M_s - M_t)^2] = int_t^s rho; rho == 1 reproduces
    sample_wiener exactly (same seed, same increments)."""
    if m < 1:
        raise ValueError("need at least one stochastic component")
    variances = partition.step_variances(rho)
    inc = _gaussian_increments(partition, m, seed, variances)
    return GaussianMartingalePath(partition, m, inc, variances)


def martingale_from_wiener(path: WienerPath, rho) -> GaussianMartingalePath:
    """Left-point coupling dM = sqrt(rho(tau_l)) dW on the path's partition.

    Used for pathwise two-route comparisons; variances are the Euler ones."""
    rho = _as_callable(rho)
    rho_left = rho(path.partition.left_nodes)
    if np.any(rho_left < 0):
        raise ValueError("variance density rho is negative on the interval")
    inc = path.increments.copy()
    inc[1:] *= np.sqrt(rho_left)[None, :]
    return GaussianMartingalePath(path.partition, path.m, inc, rho_left * path.partition.deltas)


def _as_callable(rho):
    if callable(rho):
        return lambda x: np.asarray(rho(np.asarray(x, dtype=float)), dtype=float)
    value = float(rho)
    return lambda x: np.full_like(np.asarray(x, dtype=float), value)


# ----------------------------------------------------------------------------
# Poisson random measures

@dataclass(frozen=True)
class IntensityMeasure:
    """Finite intensity measure Pi on the mark space.

    total_mass is Pi(Y); sampler(rng, size) draws marks from Pi / total_mass;
    mark_integral(f) evaluates int f(y) Pi(dy).
    """

    total_mass: float
    sampler: "callable" = field(repr=False)
    mark_integral: "callable" = field(repr=False)
    mark_dim: int = 1

    def __post_init__(self):
        if not (np.isfinite(self.total_mass) and self.total_mass > 0):
            raise ValueError("total mass must be finite and positive")

    def moment(self, phi, s: float) -> float:
        """int |phi(y)|^s Pi(dy)."""
        value = self.mark_integral(lambda y: np.abs(phi(y)) ** s)
        if not np.isfinite(value):
            raise ValueError(f"mark moment of order {s} is not finite")
        return value


def exponential_measure(total_mass: float, n_nodes: int = 80) -> IntensityMeasure:
    """Pi = total_mass * Exp(1) on the positive half-line (default mark space)."""
    lag_x, lag_w = np.polynomial.laguerre.laggauss(n_nodes)

    def mark_integral(f):
        return float(total_mass * np.sum(lag_w * f(lag_x)))

    return IntensityMeasure(
        total_mass=float(total_mass),
        sampler=lambda rng, size: rng.exponential(1.0, size),
        mark_integral=mark_integral,
    )


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


def sample_poisson(interval: Interval, m: int, measure: IntensityMeasure, seed,
                   jump_budget: int = JUMP_BUDGET) -> PoissonRealization:
    if m < 1:
        raise ValueError("need at least one component")
    mean_jumps = measure.total_mass * interval.length
    if mean_jumps > jump_budget:
        raise SizeError(f"expected jump count {mean_jumps:.3g} exceeds the budget {jump_budget}")
    times, marks = [], []
    for i in range(1, m + 1):
        rng = component_rng(seed, i)
        count = int(rng.poisson(mean_jumps))
        if count > jump_budget:
            raise SizeError(f"jump count {count} exceeds the budget {jump_budget}")
        s = np.sort(rng.uniform(interval.start, interval.end, count))
        y = measure.sampler(rng, count)
        times.append(s)
        marks.append(np.asarray(y, dtype=float))
    return PoissonRealization(interval, m, tuple(times), tuple(marks), measure)


def interval_measures(realization: PoissonRealization, i: int, phi, partition: Partition,
                      compensated: bool = True) -> np.ndarray:
    """Per-step values of int phi(y) nu~(i)([tau_l, tau_l+1), dy) (or plain nu).

    For i = 0 the measure is Pi(dy) dt, i.e. delta_t * int phi dPi per step."""
    m1 = realization.intensity.mark_integral(phi)
    if i == 0:
        return partition.deltas * m1
    times, marks = realization.jumps(i)
    vals = np.zeros(partition.n_steps)
    if len(times):
        bins = np.clip(np.searchsorted(partition.nodes, times, side="right") - 1,
                       0, partition.n_steps - 1)
        np.add.at(vals, bins, phi(marks))
    if compensated:
        vals = vals - partition.deltas * m1
    return vals


def compensated_integral(realization: PoissonRealization, i: int, h, phi,
                         breakpoints=()) -> float:
    """int h(s) phi(y) nu~(i)(ds, dy): exact jump sum minus the compensator.

    For i = 0 this is the deterministic double integral int h ds * int phi dPi."""
    h = _as_callable(h)
    m1 = realization.intensity.mark_integral(phi)
    compensator, _ = quadrature.integrate(h, realization.interval.start,
                                          realization.interval.end, breakpoints)
    if i == 0:
        return compensator * m1
    times, marks = realization.jumps(i)
    jump_sum = float(np.sum(h(times) * phi(marks))) if len(times) else 0.0
    return jump_sum - compensator * m1


# ----------------------------------------------------------------------------
# JSON dump/load for replay and cross-implementation comparison

def realization_to_json(obj, path) -> None:
    if isinstance(obj, WienerPath):
        doc = {"kind": "wiener", "nodes": obj.partition.nodes.tolist(), "m": obj.m,
               "increments": obj.increments.tolist()}
    elif isinstance(obj, GaussianMartingalePath):
        doc = {"kind": "martingale", "nodes": obj.partition.nodes.tolist(), "m": obj.m,
               "increments": obj.increments.tolist(), "variances": obj.variances.tolist()}
    elif isinstance(obj, PoissonRealization):
        doc = {"kind": "poisson",
               "interval": [obj.interval.start, obj.interval.end],
               "m": obj.m,
               "total_mass": obj.intensity.total_mass,
               "times": [t.tolist() for t in obj.times],
               "marks": [y.tolist() for y in obj.marks]}
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")
    with open(path, "w") as fh:
        json.dump(doc, fh)


def realization_from_json(path, intensity: IntensityMeasure | None = None):
    with open(path) as fh:
        doc = json.load(fh)
    if doc["kind"] in ("wiener", "martingale"):
        nodes = np.asarray(doc["nodes"])
        part = Partition(Interval(nodes[0], nodes[-1]), nodes)
        inc = np.asarray(doc["increments"])
        if doc["kind"] == "wiener":
            return WienerPath(part, doc["m"], inc)
        return GaussianMartingalePath(part, doc["m"], inc, np.asarray(doc["variances"]))
    if intensity is None:
        intensity = exponential_measure(doc["total_mass"])
    return PoissonRealization(Interval(*doc["interval"]), doc["m"],
                              tuple(np.asarray(t) for t in doc["times"]),
                              tuple(np.asarray(y) for y in doc["marks"]),
                              intensity)
