"""Monte Carlo experiment orchestration and statistics.

One experiment couples, trial by trial, a brute-force discretized integral
(the oracle) with the truncated series expansion evaluated on the very same
realization, and reports the mean squared difference per truncation box
next to the theoretical truncation residual.  A moment suite z-tests the
basis random variables against their analytic means and covariances.

Both run one trial loop of two levels.  Everything that depends only on the
partition is prepared once per pass, and trials are drawn one by one into a
workspace that each worker allocates once and reuses for every chunk of
trials.  A chunk is the unit of the work of O(N) per trial: the increment
rows, the slot increments, the G_k sums and the oracle's nested sum.  A block
is a run of consecutive chunks, the unit of the work that does not depend on
the partition: a Poisson block draws its realizations first and takes one
poisson_variables call, and every block takes one expand call per box and
partition, on the block's rows of basis variables, oracle sums and G_k sums.
Both are as large as fit CHUNK_BYTES by the plan that names every array the
pass holds, per trial of a chunk, per trial of a block, or for every trial
(the law's arrays, from which the workspace is allocated, and the loop's
own; _chunk_trials sums it), and each is evaluated by batched operations
that treat every trial alike.  Each Gaussian increment is
written once: the sampler draws a trial straight into its workspace rows
(its out), and the oracle reads the rows of every slot whose kernel factor
is exactly 1 where they lie.  What a driver kind does differently, from its
checks to its draws and its moment targets, is its law's (DriverConfig.law:
_Gaussian, _Wiener or _Poisson); the loop calls the law and tests no kind.
A pass is split into contiguous trial ranges, one per worker process: the
parent runs the first and forks one child with one pipe for each of the
others, which sends back its pickled rows (see _sharded).  Results do not
depend on the chunk size, the block size or the worker count, bitwise.

An experiment is one pass, with or without Richardson extrapolation: each
trial is seeded and drawn once, on N steps, and the half resolution N // 2
uses the first N // 2 draws of each of the trial's substreams, which are
exactly what a separate draw on N // 2 steps would give.

How a driver meets its system is decided once, when the spec is built, by
its law's slot_scales: it checks the driver's inputs (rho against the weight,
or the mark factors) and gives the per-slot isometry factors that the
residual's factor reads.  The diagonal correction (ExperimentSpec.correction)
is the law's too: a Gaussian tie takes its deterministic quadratic covariation,
the rho-Gram matrix that the law builds once per pass for a combo with a tie,
so every Gaussian spec runs the limit form, and only repeated Poisson
components run prelimit.
"""

from __future__ import annotations

import csv
import functools
import itertools
import json
import math
import numbers
import os
import pickle
import signal
import time
from dataclasses import dataclass, field, fields, replace

import numpy as np

from . import expansions, oracle, quadrature
from .basis import OrthonormalSystem
# interval_measures, PowerMark and power_mark stay module attributes: perfbench/tracer.py
# wraps the samplers and interval_measures here, and callers import the other two from here
from .drivers import (RHO_BLOCK, IntensityMeasure, PoissonRealization, PowerMark,  # noqa: F401
                      TrialSeed, _as_callable, interval_measures, make_partition, power_mark,
                      sample_gaussian_martingale, sample_poisson, sample_wiener, seed_words)
from .errors import ConfigError, SizeError, check_integer
from .kernel import CoeffTensor, Kernel, check_box, check_orders, coeff_tensor, kernel_norm_sq

__all__ = [
    "DriverConfig",
    "ExperimentSpec",
    "BoxStats",
    "MCReport",
    "run_experiment",
    "MomentTest",
    "MomentReport",
    "moment_suite",
    "power_mark",
    "report_to_csv",
    "report_to_json",
]

Z99 = 2.5758293035489004  # two-sided 99% normal quantile
CHUNK_BYTES = 3 * 2**20  # one chunk of trials: its buffers, slot rows and scratch
MEMORY_BUDGET = 2**32  # bytes a trial loop may hold: partitions, tables, each worker's chunk
SEED_STREAMS = 2**13  # substreams whose seed words one derivation computes
STREAM_BYTES = 160  # per substream at a derivation's peak: 32 bytes of words, key, hash temporaries
RATIO_GRID = 2048  # interior points of the one grid on which slot_scales evaluates rho and r
RATIO_BOUND = 1e6  # largest sup rho / r over them that a weighted system accepts as bounded


# ----------------------------------------------------------------------------
# driver laws: one object per driver kind, built by DriverConfig

class _Gaussian:
    """A Gaussian martingale of variance density rho: a path is m + 1 increment
    rows, time first, whose steps the variances int rho scale."""

    parameters = ("rho",)  # the DriverConfig fields beyond m that the kind takes

    def __init__(self, rho):
        number = (isinstance(rho, numbers.Real) and not isinstance(rho, bool)
                  and 0 <= rho < math.inf)
        if not (callable(rho) or number):
            raise ConfigError(f"martingale driver requires a variance density rho, a callable or "
                              f"a real number, finite and >= 0, got {rho!r}")
        self.rho = rho

    def sample(self, part, m, seed, out):
        return sample_gaussian_martingale(part, m, self.rho, seed, out=out)

    def slot_scales(self, spec) -> tuple[float, ...]:
        """A constant rho on a unit-weight system, or 1 on the weighted one if
        rho is its weight (which the coefficients and the norm carry), on
        every slot; else NaN.  rho (1 if None) and the weight r are evaluated
        on RATIO_GRID + 2 equispaced points of the interval: a ConfigError
        unless rho is finite and >= 0 there and, on the weighted system, unless
        max rho / r over the interior points is at most RATIO_BOUND.  For r = x
        on [0, T] that max is about rho(0) (RATIO_GRID + 1) / T, so a rho with
        rho(0) > 0 passes on a long interval and fails on a short one, though
        rho / r is unbounded on both."""
        iv, weighted = spec.kernel.interval, spec.system.weighted
        x = np.linspace(iv.start, iv.end, RATIO_GRID + 2)
        rho = _as_callable(1.0 if self.rho is None else self.rho)(x)
        if not np.all((rho >= 0) & (rho < np.inf)):
            raise ConfigError("variance density rho is negative or not finite on the interval")
        r = spec.system.weight(x)
        ratio = np.max(rho[1:-1] / np.where(r[1:-1] > 0, r[1:-1], np.inf))
        if weighted and not ratio <= RATIO_BOUND:  # NaN counts as unbounded
            raise ConfigError(f"variance density / weight ratio appears unbounded (sup over "
                              f"the grid {ratio:.3g} exceeds {RATIO_BOUND:.3g})")
        scale = float("nan")
        if np.allclose(rho, r if weighted else rho[0], rtol=1e-12, atol=1e-12):
            scale = 1.0 if weighted else float(rho[0])
        return (scale,) * spec.kernel.multiplicity

    ties_take_bracket = True  # a tie's quadratic covariation is the rho-Gram matrix

    def residual_factor(self, scales) -> float:
        return scales[0] ** len(scales)  # s^k: the product over the slots differs in the last bits

    def prepare(self, spec, parts, p_max: int) -> None:
        """Each partition's step scales and, for a combo with a tie, the ties'
        Gram matrix of degrees up to p_max (_gram, cached for draw), once per
        pass, before any fork: rho is evaluated once per block of steps, and a
        rho that is negative or not finite between slot_scales' grid points
        fails here, with ConfigError."""
        try:
            for part in parts:
                part.step_scales(self.rho)
            self._gram(spec, p_max + 1)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

    def _gram(self, spec, count: int):
        """expansions.gaussian_gram of rho for count degrees, or None when the
        combo has no tie and so never reads it: a rho whose Gram quadrature
        does not converge (a step) still serves the distinct combos."""
        if expansions._distinct_nonzero(spec.combo):
            return None
        return expansions.gaussian_gram(spec.system, self.rho, count)

    def plan(self, spec, steps, p_max: int, coupled: bool = True) -> dict:
        """Every array the law holds in a pass over steps with basis orders up to
        p_max: {name: (scope, shapes)}, in floats, held per trial of a chunk, per
        trial of a block, per worker, per pass or once before the chunks
        (_chunk_trials sums it).  coupled is True for run_experiment's pass and
        False for moment_suite's; a Gaussian law holds the same arrays in both."""
        m, tie = spec.driver.m, not expansions._distinct_nonzero(spec.combo)
        return {"increment rows": ("chunk", [(m + 1, n) for n in steps]),
                "basis variables": ("block", [(m + 1, p_max + 1)] * len(steps)),
                "a chunk's basis variables, before they reach the block's":
                    ("chunk", [(m + 1, p_max + 1)]),
                "unit draws of a path and the next": ("worker", [(2, m, steps[0])]),
                "step variances and scales": ("pass", [(2, n + 1) for n in steps]),
                "Gram matrix of the ties": ("pass", [(p_max + 1, p_max + 1)] * tie),
                "nodes, weights, values, products and one more of a callable rho's block":
                    ("once", [(5, quadrature.ORDER, min(steps[0], RHO_BLOCK))]
                     * callable(self.rho))}

    def draw(self, spec, tables, seeds, incs, blocks):
        """Yield, for each chunk of blocks (each a list of its chunks' sizes), the
        slot increments on each partition and, at a block's last chunk, the
        block's basis variables on each partition (else None).  The coarser
        partitions' time rows are written once, before the first chunk.  Each
        trial's path is drawn once, on the finest partition, by the sampler
        straight into the trial's rows there (its out), so each increment is
        written once; its unit draws times each coarser partition's step scales
        go straight into that partition's rows (bitwise the sampler's increments
        there, as drivers.scale_draws gives them).  Each chunk's variables are
        copied into the block's rows, one array per partition allocated once per
        call.
        The slot increments are views of the rows of the combo, one per
        component, valid until the next chunk is drawn; the variables, until the
        next block is."""
        for inc, (part, _) in zip(incs[1:], tables[1:]):
            inc[:, 0] = part.deltas
        gram = self._gram(spec, len(tables[0][1]))
        rows = [np.empty((max(map(sum, blocks)), spec.driver.m + 1, len(phi))) for _, phi in tables]
        for sizes in blocks:
            for end, size in zip(itertools.accumulate(sizes), sizes):
                for c in range(size):
                    real = self.sample(tables[0][0], spec.driver.m, next(seeds), incs[0][c])
                    for inc, (part, _) in zip(incs[1:], tables[1:]):
                        np.multiply(real.unit_draws[:, :part.n_steps],
                                    part.step_scales(self.rho), out=inc[c, 1:])
                del real  # the last path: a chunk holds no unit draws while it is evaluated
                for row, inc, (_, phi) in zip(rows, incs, tables):
                    row[end - size:end] = expansions.gaussian_variables(inc[:size], phi, gram).table
                views = [{i: inc[:size, i] for i in dict.fromkeys(spec.combo)} for inc in incs]
                variables = None
                if end == sum(sizes):
                    variables = [expansions.BasisVariables("gaussian", row[:end], gram=gram)
                                 for row in rows]
                yield [[slots[i] for i in spec.combo] for slots in views], variables

    def moment_tests(self, spec, values, part, phi) -> list:
        values, tests, j_max = values[:, 1:], [], values.shape[2] - 1
        # E[xi_j xi_j'] = sum_l phi_j phi_j'(tau_l) v_l, exact for the sampler
        variances = part.step_variances(self.rho)
        var_target, cov_target = phi**2 @ variances, (phi[:-1] * phi[1:]) @ variances
        for i in range(spec.driver.m):
            for j in range(j_max + 1):
                _ztest(f"mean[i={i + 1},j={j}]", values[:, i, j], 0.0, tests)
                _ztest(f"var[i={i + 1},j={j}]", values[:, i, j] ** 2,
                       float(var_target[j]), tests)
        for j in range(j_max):
            _ztest(f"cov[j={j},j'={j + 1}]", values[:, 0, j] * values[:, 0, j + 1],
                   float(cov_target[j]), tests)
        if spec.driver.m >= 2:
            for j in range(min(3, j_max + 1)):
                _ztest(f"cross_component[j={j}]", values[:, 0, j] * values[:, 1, j], 0.0, tests)
        return tests


class _Wiener(_Gaussian):
    """The Gaussian martingale with rho == 1, drawn by sample_wiener."""

    parameters = ()

    def __init__(self):
        self.rho = None

    def sample(self, part, m, seed, out):
        return sample_wiener(part, m, seed, out=out)


class _Poisson:
    """Compensated marked Poisson measures of a finite intensity measure, one
    mark factor per slot: a trial is a realization, the same on every
    partition, and a block's realizations are evaluated together."""

    parameters = ("intensity", "mark_factors")

    def __init__(self, intensity, mark_factors):
        if intensity is None:
            raise ConfigError("poisson driver requires an intensity measure")
        self.intensity, self.mark_factors = intensity, mark_factors

    def slot_scales(self, spec) -> tuple[float, ...]:
        """Each slot's mark second moment on a unit-weight system, else NaN,
        after the mark checks; neither rho nor the system's weight enters."""
        k = spec.kernel.multiplicity
        if self.mark_factors is None or len(self.mark_factors) != k:
            raise ConfigError("poisson experiments need one mark factor per slot")
        try:  # finite, as poisson_variables requires
            for phi in self.mark_factors:
                self.intensity.moment(phi, 2.0 ** (k + 1))
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        if spec.system.weighted:
            return (float("nan"),) * k
        return tuple(self.intensity.moment(phi, 2.0) for phi in self.mark_factors)

    ties_take_bracket = False  # a tie's quadratic variation is random: prelimit

    def residual_factor(self, scales) -> float:
        return math.prod(scales)

    def prepare(self, spec, parts, p_max: int) -> None:
        pass  # a realization does not depend on the partition

    def plan(self, spec, steps, p_max: int, coupled: bool = True) -> dict:
        """What the law holds in a pass, as _Gaussian.plan gives it."""
        k, m = spec.kernel.multiplicity, max(1, *spec.combo)  # m: the components a trial draws
        box, mass = (p_max + 1) ** k, self.intensity.total_mass * spec.kernel.interval.length
        gk = coupled and spec.correction == "prelimit"  # the G_k entries, of _mc_pass only
        sums = [((p_max + 2) ** k,)] * len(steps) * gk
        jumping = len(set(spec.combo) - {0})  # the components whose jumps the slots read
        off_base = min(steps[0], math.ceil(mass * jumping))
        return {"increment rows": ("chunk", [(k, n) for n in steps]),
                "basis variables": ("block", [(k, p_max + 1)]),
                "poisson_variables' row per distinct (component, mark factor) pair":
                    ("block", [(k, p_max + 1)]),
                "a realization's objects and arrays, and poisson_variables' list entries":
                    ("block", [(24 + 32 * m,)]),
                # poisson_variables builds one component's table while the last one's
                # is held; interval_measures, on a chunk's trials, holds less per jump
                # and never at the same time
                "per expected jump: its time and mark on each drawn component, up to two "
                "basis tables and eval_table's four rows, the block's times, marks and mark "
                "values": ("block", [(mass, 2 * m + (p_max + 1) * min(2, jumping) + 7)]),
                "G_k block sums": ("chunk", sums),
                "G_k Moebius result and two temporaries": ("chunk", [(3, box)] * len(steps) * gk),
                "G_k terms and their scattered add's indices, trial and step off the base":
                    ("chunk", [(off_base, 2 * box + 2)] * gk),
                "G_k step masks, a byte per step for each slot and theirs":
                    ("chunk", [(k + 1, steps[0] / 8)] * gk),
                "compensator row": ("worker", [(steps[0],)]),
                "G_k bases' slot rows": ("pass", [(k, n) for n in steps] * gk),
                "G_k bases' block sums": ("pass", sums),
                "G_k bases' slot tables and a row, per step":
                    ("once", [(steps[0], k * (p_max + 1) + 1)] * gk),
                "G_k bases' largest block product for k >= 3":
                    ("once", [(steps[0], (p_max + 1) ** (k - 1))] * (gk and k >= 3))}

    def draw(self, spec, tables, seeds, incs, blocks):
        """As _Gaussian.draw.  A trial draws components 1..max(combo), which are
        all that its slots read, each from its own substream.  The realizations
        and their variables do not depend on the partition: a block's
        realizations are drawn first, and poisson_variables takes them all once;
        slot_increments then writes each chunk's measures into each partition's
        rows by one scattered add.  Equal slots share one row of each, built once
        per distinct (component, mark factor) pair, bitwise each trial's own."""
        for sizes in blocks:
            reals = [sample_poisson(spec.kernel.interval, max(1, *spec.combo), self.intensity,
                                    next(seeds)) for _ in range(sum(sizes))]
            variables = expansions.poisson_variables(reals, spec.system, self.mark_factors,
                                                     spec.combo, tables[0][1].shape[0] - 1)
            for end, size in zip(itertools.accumulate(sizes), sizes):
                yield ([oracle.slot_increments(reals[end - size:end], spec.combo, part,
                                               self.mark_factors, inc[:size])[1]
                        for inc, (part, _) in zip(incs, tables)],
                       [variables] * len(tables) if end == sum(sizes) else None)

    def gk_base(self, spec, part, phi) -> oracle.GkBase:
        """The slot increments of a realization without jumps, from the
        slot_increments that every chunk runs, so they are bitwise each trial's
        increments on its steps without a jump."""
        none = (np.empty(0),) * spec.driver.m
        _, incs = oracle.slot_increments(PoissonRealization(spec.kernel.interval, spec.driver.m,
                                                            none, none, self.intensity),
                                         spec.combo, part, self.mark_factors)
        return oracle.gk_base([phi] * spec.kernel.multiplicity, incs)

    def moment_tests(self, spec, values, part, phi) -> list:
        tests = []
        for g, (i, f) in enumerate(zip(spec.combo, self.mark_factors)):
            if i == 0:
                continue
            iso = self.intensity.moment(f, 2.0)  # E[pi_j^2] = int phi^2 dPi (unit-norm phi_j)
            for j in range(values.shape[2]):
                _ztest(f"mean[g={g},j={j}]", values[:, g, j], 0.0, tests)
                _ztest(f"var[g={g},j={j}]", values[:, g, j] ** 2, iso, tests)
        seen = set()
        for g1, i1 in enumerate(spec.combo):
            for g2, i2 in enumerate(spec.combo):
                if g2 <= g1 or i1 == 0 or i2 == 0 or i1 == i2 or (i1, i2) in seen:
                    continue
                seen.add((i1, i2))
                _ztest(f"cross_component[g={g1},g'={g2}]",
                       values[:, g1, 0] * values[:, g2, 0], 0.0, tests)
        return tests


_LAWS = {"wiener": _Wiener, "martingale": _Gaussian, "poisson": _Poisson}


@dataclass(frozen=True)
class DriverConfig:
    """Which driver feeds the experiment and with what parameters.

    kind "wiener" needs m, and is the martingale with rho == 1; "martingale"
    adds the variance density rho, which no other kind takes; "poisson" adds
    the intensity measure and one mark factor per slot, which only it takes.
    law is the kind's law (_Wiener, _Gaussian or _Poisson), built from them:
    the trial loop calls it and tests no kind."""

    kind: str
    m: int = 2
    rho: object = None
    intensity: IntensityMeasure | None = None
    mark_factors: tuple = None
    law: object = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        law = _LAWS.get(self.kind) if isinstance(self.kind, str) else None
        if law is None:
            raise ConfigError(f"unknown driver kind: {self.kind}")
        object.__setattr__(self, "m", check_integer("m", self.m, 1))
        extra = [key for key in ("rho", "intensity", "mark_factors")
                 if getattr(self, key) is not None and key not in law.parameters]
        if extra:
            raise ConfigError(f"a {self.kind} driver does not take {', '.join(extra)}")
        object.__setattr__(self, "law", law(*(getattr(self, key) for key in law.parameters)))


@dataclass(frozen=True)
class ExperimentSpec:
    kernel: Kernel
    system: OrthonormalSystem
    combo: tuple[int, ...]
    boxes: tuple
    driver: DriverConfig
    n_steps: int
    trials: int
    seed: int
    richardson: bool = False

    def __post_init__(self):
        for name, minimum in (("seed", 0), ("trials", 1), ("n_steps", 1)):
            object.__setattr__(self, name, check_integer(name, getattr(self, name), minimum))
        if not isinstance(self.combo, (list, tuple)):
            raise ConfigError(f"combo must be a list, got {self.combo!r}")
        object.__setattr__(self, "combo", tuple(check_integer("combo entry", i, 0)
                                                for i in self.combo))
        if not isinstance(self.boxes, (list, tuple)):
            raise ConfigError(f"boxes must be a list of truncation boxes, got {self.boxes!r}")
        object.__setattr__(self, "boxes", tuple(check_orders(self.kernel, self.system, b)
                                                for b in self.boxes))
        if not self.boxes:
            raise ConfigError("at least one truncation box is required")
        if len(self.combo) != self.kernel.multiplicity:
            raise ConfigError("combo must match the kernel multiplicity")
        if any(not 0 <= i <= self.driver.m for i in self.combo):
            raise ConfigError(f"combo components must lie in 0..{self.driver.m}")
        self.slot_scales  # the law's checks of its inputs, before any work
        # the tensor that run_experiment builds: its boxes' per-level maximum
        check_box(self.kernel, self.system, tuple(map(max, zip(*self.boxes))))

    @functools.cached_property
    def slot_scales(self) -> tuple[float, ...]:
        """Per-slot isometry factor s_g, E[X_j X_j'] = s_g delta_jj' for slot g's
        basis variables, as the driver's law gives it (NaN where none applies)
        once it has checked the driver's inputs against the spec."""
        return self.driver.law.slot_scales(self)

    @functools.cached_property
    def correction(self) -> str:
        """The diagonal correction the driver decides: "prelimit" for a repeated
        nonzero component of a driver whose ties take no bracket (a Poisson one,
        whose ties' quadratic variation is random), else "pairing_general"."""
        if expansions._distinct_nonzero(self.combo) or self.driver.law.ties_take_bracket:
            return "pairing_general"
        return "prelimit"


@dataclass(frozen=True)
class BoxStats:
    """Per-box Monte Carlo summary for one experiment."""

    box: tuple[int, ...]
    mean: float
    variance: float
    mse: float
    mse_halfwidth_99: float  # 99% CI half-width of the MSE estimate
    residual: float  # theoretical truncation residual (NaN if no scale applies)
    allowance: float  # discretization allowance from the half-resolution run

    @property
    def mse_se(self) -> float:
        return self.mse_halfwidth_99 / Z99


@dataclass(frozen=True)
class MCReport:
    combo: tuple[int, ...]
    driver_kind: str
    n_steps: int
    trials: int
    seed: int
    correction: str
    stats: tuple[BoxStats, ...]
    runtime: float


def _sub_tensor(tensor: CoeffTensor, box) -> CoeffTensor:
    sl = tuple(slice(0, p + 1) for p in box)
    return replace(tensor, box=tuple(box), values=tensor.values[sl])


def _chunk_trials(spec: ExperimentSpec, n_steps: int, p_max: int, coarse=(),
                  coupled=True) -> tuple[int, int]:
    """(trials per chunk, trials per block) of a trial loop over n_steps, and
    over the coarser step counts `coarse` on the same draws, with basis orders
    up to p_max, from the plan of the law's arrays, the partitions' and the
    loop's own, which for a coupled pass (run_experiment's) are the oracle's
    and the expansion's and for an uncoupled one (moment_suite's) the rows of
    the variables it keeps.  A chunk holds as many trials as fit CHUNK_BYTES by
    the plan's per-chunk arrays, and a block as many chunks as fit it by the
    per-block ones, at least one (a block that holds every trial may end in a
    partial chunk).

    Raises SizeError, before anything is allocated, when what the plan holds
    per pass, each worker's chunk, block and share with a seed-word derivation
    (_trial_seeds), and what it keeps of every trial of the pass (twice when
    sharded: the workers' rows and the gathered array) would exceed
    MEMORY_BUDGET, or when what the plan holds once before the chunks would."""
    k, m = spec.kernel.multiplicity, spec.driver.m
    steps = (n_steps, *coarse)
    law = spec.driver.law.plan(spec, steps, p_max, coupled)
    # forked workers share the pass's arrays with the parent
    plan = law | {"partition nodes and deltas": ("pass", [(2, n + 1) for n in steps]),
                  "left-node basis tables": ("pass", [(p_max + 1, n + 1) for n in steps])}
    if coupled:
        gk, box = spec.correction == "prelimit", (p_max + 1) ** k
        plan |= {"kernel factor rows": ("pass", [(k, n + 1) for n in steps]),
                 # at most: _mc_pass allocates none for a factor that is 1
                 "oracle slot rows": ("chunk", [(k, n_steps)]),
                 "nested_sum scratch": ("chunk", [(2, n_steps)]),
                 "oracle sums": ("block", [(1,)] * len(steps)),
                 "G_k sums": ("block", [(box,)] * len(steps) * gk),
                 "expand's product of the G_k sums and one box": ("block", [(box,)] * gk),
                 "first contraction of the bracket": ("block", [((p_max + 1) ** (k - 1),)]),
                 "samples and the differences at each resolution":
                     ("range", [(1 + len(steps), len(spec.boxes))])}
    else:
        plan |= {"basis variables of every trial": ("range", law["basis variables"][1][:1])}
    floats = dict.fromkeys(("chunk", "block", "range", "worker", "pass", "once"), 0)
    for scope, shapes in plan.values():
        floats[scope] += sum(math.ceil(math.prod(shape)) for shape in shapes)
    # a block of one chunk fits CHUNK_BYTES too
    chunk = max(1, min(spec.trials, CHUNK_BYTES // (8 * max(floats["chunk"], floats["block"]))))
    block = min(spec.trials, chunk * max(1, CHUNK_BYTES // (8 * floats["block"] * chunk)))
    workers = _worker_count(-(-spec.trials // chunk))
    results = 8 * spec.trials * floats["range"] * (1 if workers == 1 else 2)
    seeds = STREAM_BYTES * min(m * spec.trials, max(m, SEED_STREAMS))  # one derivation
    need = 8 * floats["pass"] + max(8 * floats["once"], results + workers * (
        8 * (chunk * floats["chunk"] + block * floats["block"] + floats["worker"]) + seeds))
    if need > MEMORY_BUDGET:
        raise SizeError(f"a trial loop over {n_steps} steps and {spec.trials} trials would hold "
                        f"{need / 2**30:.3g} GiB, over the budget {MEMORY_BUDGET / 2**30:.3g} GiB")
    return chunk, block


def _worker_count(n_chunks: int) -> int:
    """Processes that share a pass of n_chunks chunks: the usable CPUs, at
    most one per chunk, and 1 where os.fork is unavailable."""
    if not hasattr(os, "fork"):
        return 1
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return min(cpus or 1, n_chunks)


def _outcome(shard, lo: int, hi: int) -> bytes:
    """The pickled (True, rows) of shard(lo, hi), or (False, the exception it
    raised).  An exception that does not survive a pickle round trip (one that
    holds a lambda, or whose class cannot be rebuilt from its args) is sent as
    the first class of its MRO that does, with a message that names its type."""
    try:
        return pickle.dumps((True, shard(lo, hi)), pickle.HIGHEST_PROTOCOL)
    except BaseException as exc:
        text = f"{type(exc).__qualname__}: {exc} (could not be sent whole from a worker process)"
        for error in (lambda: exc, *(functools.partial(cls, text) for cls in type(exc).__mro__)):
            try:
                payload = pickle.dumps((False, error()), pickle.HIGHEST_PROTOCOL)
                pickle.loads(payload)  # an error whose args do not rebuild it fails here
                return payload
            except Exception:  # whatever pickling raises; BaseException(text) always passes
                continue


def _sharded(shard, trials: int, chunk: int) -> tuple:
    """shard(lo, hi) -> tuple of arrays over trials lo..hi-1, for all trials.

    The trials are cut at chunk boundaries into one contiguous range per
    worker (_worker_count).  Each range after the first gets one os.fork and
    one os.pipe: the child inherits the pass's prepared state and the shard
    (nothing of the spec is pickled; densities and mark factors may be
    lambdas), runs its range, writes the pickled (ok, rows or exception) of
    _outcome into its pipe and leaves by os._exit.  The parent runs the first
    range, then reads the pipes and reaps the children in trial order, so the
    exception raised is the first failing trial's for any worker count; a
    child that did not exit 0 raises SizeError, which says how it ended.
    Whatever fails, every child is reaped before the call returns, those
    still running killed first.  Per-trial work does not depend on the chunk or
    the block, so the result is bitwise that of shard(0, trials), the serial
    path."""
    n_chunks = -(-trials // chunk)
    workers = _worker_count(n_chunks)
    if workers == 1:
        return shard(0, trials)
    cuts = [min(trials, chunk * (n_chunks * w // workers)) for w in range(workers + 1)]
    pids, pipes = [], []  # the children not yet reaped, and each child's read end
    try:
        for lo, hi in zip(cuts[1:-1], cuts[2:]):
            read, write = os.pipe()
            pipes.append(os.fdopen(read, "rb"))
            with os.fdopen(write, "wb") as out:
                pid = os.fork()
                if pid == 0:  # the child: exits here, whatever happens
                    code = 1
                    try:
                        out.write(_outcome(shard, lo, hi))
                        out.flush()
                        code = 0
                    finally:
                        os._exit(code)
            pids.append(pid)
        parts = [shard(cuts[0], cuts[1])]
        for pipe in pipes:
            payload = pipe.read()
            code = os.waitstatus_to_exitcode(os.waitpid(pids.pop(0), 0)[1])
            if code != 0:
                how = f"exit code {code}" if code > 0 else f"killed by signal {-code}"
                raise SizeError(f"a trial-loop worker process died ({how}); "
                                f"it may have run out of memory")
            ok, value = pickle.loads(payload)  # bytes this pass's own child wrote
            if not ok:
                raise value
            parts.append(value)
    finally:
        for pipe in pipes:
            pipe.close()
        for pid in pids:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    return tuple(np.concatenate(rows) for rows in zip(*parts))


def _prepared(spec: ExperimentSpec, steps, p_max: int) -> list:
    """(partition, basis table on its left nodes) for each step count, built
    in the parent before any fork with what the driver's law prepares, so the
    workers inherit it all."""
    parts = [make_partition(spec.kernel.interval, n) for n in steps]
    spec.driver.law.prepare(spec, parts, p_max)
    return [(part, spec.system.eval_table(p_max, part.left_nodes)) for part in parts]


def _trial_seeds(seed: int, m: int, lo: int, hi: int):
    """Yield the TrialSeed of each trial lo..hi-1, holding the seed words of its
    substreams 1..m.  The words of up to SEED_STREAMS substreams, all of them for
    a range of up to SEED_STREAMS // m trials, come from one drivers.seed_words call."""
    block = max(1, SEED_STREAMS // m)
    for first in range(lo, hi, block):
        n = min(block, hi - first)
        keys = np.indices((n, m)).reshape(2, -1).T + (first, 1)  # (trial, component) rows
        words = seed_words(seed, keys).reshape(n, m, 4)
        for t in range(n):
            yield TrialSeed(seed, (first + t,), words[t])


def _trial_chunks(spec: ExperimentSpec, tables, chunk: int, block: int, lo: int, hi: int):
    """Yield (the block's trials from lo, the chunk's trials from the block's
    first, [slot increments on each partition], the block's [basis variables on
    each partition] at its last chunk, else None) per chunk of trials lo..hi-1.

    tables lists (partition, basis table on its left nodes), finest first.
    Trials lo..hi-1 are cut into blocks of `block` trials and each block into
    chunks of `chunk`.  A chunk is the unit of the work on the partitions: the
    increment rows, one array per partition as the law's plan gives them, are
    allocated once per call and reused by every chunk, which the law draws from
    each trial's derived seed words (_trial_seeds), and its slot increments are
    k arrays of shape (trials, N), views of the rows, valid until the next
    chunk is drawn.  The block's variables, with a leading trial axis, are
    valid until the next block is drawn."""
    law, chunk = spec.driver.law, min(chunk, hi - lo)
    plan = law.plan(spec, [part.n_steps for part, _ in tables], len(tables[0][1]) - 1)
    incs = [np.empty((chunk, *shape)) for shape in plan["increment rows"][1]]
    blocks = [range(start, min(start + block, hi)) for start in range(lo, hi, block)]
    sizes = [[len(b[first:first + chunk]) for first in range(0, len(b), chunk)] for b in blocks]
    draws = law.draw(spec, tables, _trial_seeds(spec.seed, spec.driver.m, lo, hi), incs, sizes)
    for b, chunks in zip(blocks, sizes):
        trials = slice(b.start - lo, b.stop - lo)
        for end, size in zip(itertools.accumulate(chunks), chunks):
            yield (trials, slice(end - size, end), *next(draws))


def _mc_pass(spec: ExperimentSpec, tensor: CoeffTensor, tables, chunk: int, block: int):
    """One trial loop that evaluates every trial on each partition of tables
    (_prepared), finest first, on the same draws.

    Returns (samples, diffs at the finest partition, diffs at the next, ...):
    arrays of shape (trials, n_boxes) holding the raw expansion samples at the
    finest resolution and the oracle-minus-expansion differences at each.
    Each chunk (_trial_chunks) does the work of O(N) per trial: the oracle's
    nested_sum and, under prelimit, the G_k sums of one
    oracle.gk_correction_tensor call per partition, from the partition's base
    (the Poisson law's gk_base), into the block's rows.  Each block then takes
    one expand call per box and partition, on its variables and those rows.
    The oracle's levels are the slot rows psi_g * Delta D^(i_g).  A slot whose
    kernel factor row is exactly 1.0 on a partition's left nodes (worked out
    once per pass, from the data) hands the oracle its increments where they
    lie, bitwise the product since x * 1.0 is x; every other slot takes one
    multiply into a row of a buffer that each shard allocates once, shared by
    the partitions, next to nested_sum's two rows of scratch."""
    k, correction = spec.kernel.multiplicity, spec.correction
    gk = correction == "prelimit"
    psis = [np.stack([spec.kernel.factor_values(l, part.left_nodes) for l in range(k)])
            for part, _ in tables]
    units = [[bool(np.all(psi[g] == 1.0)) for g in range(k)] for psi in psis]
    products = max(unit.count(False) for unit in units)  # slot rows that take a multiply
    subs = [_sub_tensor(tensor, b) for b in spec.boxes]
    bases = [spec.driver.law.gk_base(spec, part, phi) if gk else None for part, phi in tables]

    def shard(lo, hi):
        samples = np.empty((hi - lo, len(subs)))
        diffs = [np.empty_like(samples) for _ in tables]
        # the slot rows that take a multiply, then nested_sum's two rows of scratch, per trial
        work = np.empty(min(chunk, hi - lo) * (products + 2) * tables[0][0].n_steps)
        # per trial of a block and partition: the oracle's sum and the G_k sums
        sums = np.empty((len(tables), min(block, hi - lo)))
        gk_sums = [np.empty((min(block, hi - lo), *(len(phi),) * k)) if gk else None
                   for _, phi in tables]
        for trials, rows, resolutions, variables in _trial_chunks(spec, tables, chunk, block,
                                                                  lo, hi):
            for r, (incs, (_, phi), psi, unit, base) in enumerate(
                    zip(resolutions, tables, psis, units, bases)):
                size = len(incs[0])
                if gk:
                    gk_sums[r][rows] = oracle.gk_correction_tensor([phi] * k, incs, base)
                f = work[:size * (products + 2) * psi.shape[1]].reshape(-1, size, psi.shape[1])
                free = iter(f)
                levels = [inc if unit[g] else np.multiply(psi[g], inc, out=next(free))
                          for g, inc in enumerate(incs)]
                sums[r, rows] = oracle.nested_sum(levels, f[-2:])
            if variables is None:
                continue
            n = trials.stop - trials.start
            for r, (v, gk_rows) in enumerate(zip(variables, gk_sums)):
                values = np.stack([expansions.expand(
                    sub, v, spec.combo, correction=correction,
                    gk_sums=None if gk_rows is None else gk_rows[:n]).value for sub in subs], axis=1)
                if r == 0:
                    samples[trials] = values
                diffs[r][trials] = sums[r, :n, None] - values
        return (samples, *diffs)

    return _sharded(shard, spec.trials, chunk)


def run_experiment(spec: ExperimentSpec) -> MCReport:
    """Coupled oracle/expansion Monte Carlo over all truncation boxes."""
    t0 = time.perf_counter()
    steps = (spec.n_steps,)
    if spec.richardson and spec.n_steps >= 2:
        steps += (spec.n_steps // 2,)
    p_max = max(max(b) for b in spec.boxes)
    chunk, block = _chunk_trials(spec, spec.n_steps, p_max, steps[1:])
    # before any partition, table or tensor: a factor scale beyond the float range overflows
    norm = kernel_norm_sq(spec.kernel, spec.system)
    tables = _prepared(spec, steps, p_max)  # its per-step check of rho comes before the tensor
    tensor = coeff_tensor(spec.kernel, spec.system, tuple(map(max, zip(*spec.boxes))))
    scale = spec.driver.law.residual_factor(spec.slot_scales)
    if 0 in spec.combo or not expansions._distinct_nonzero(spec.combo):
        scale = float("nan")
    samples, *diffs = _mc_pass(spec, tensor, tables, chunk, block)
    # mse per resolution and box, each summed as a run at that resolution alone
    # sums it, so the allowance is exactly the difference of two runs' mse
    mses = np.array([[np.mean(d[:, b] ** 2) for b in range(len(spec.boxes))] for d in diffs])
    allowances = np.zeros(len(spec.boxes))
    if len(diffs) > 1:
        # first-order bias model: error(N) ~ c * dt, so error(N) ~ mse(N/2) - mse(N)
        allowances = np.abs(mses[1] - mses[0])
    stats = []
    for b, box in enumerate(spec.boxes):
        d2 = diffs[0][:, b] ** 2
        mse = float(mses[0, b])
        se = float(np.std(d2, ddof=1) / math.sqrt(spec.trials)) if spec.trials > 1 else 0.0
        residual = scale * (norm - tensor.partial_sum(box))
        stats.append(BoxStats(
            box=tuple(box),
            mean=float(np.mean(samples[:, b])),
            variance=float(np.var(samples[:, b], ddof=1)) if spec.trials > 1 else 0.0,
            mse=mse,
            mse_halfwidth_99=Z99 * se,
            residual=float(residual),
            allowance=float(allowances[b]),
        ))
    return MCReport(spec.combo, spec.driver.kind, spec.n_steps, spec.trials, spec.seed,
                    spec.correction, tuple(stats), time.perf_counter() - t0)


# ----------------------------------------------------------------------------
# moment suite

@dataclass(frozen=True)
class MomentTest:
    name: str
    observed: float
    expected: float
    z: float

    @property
    def passed(self) -> bool:
        return abs(self.z) < 3.0


@dataclass(frozen=True)
class MomentReport:
    tests: tuple[MomentTest, ...]
    flagged: bool  # family-wise alarm: more than 2 individual 3-sigma failures

    @property
    def n_failed(self) -> int:
        return sum(not t.passed for t in self.tests)


def _ztest(name, values, expected, out):
    n = len(values)
    se = float(np.std(values, ddof=1) / math.sqrt(n))
    obs = float(np.mean(values))
    z = (obs - expected) / se if se > 0 else 0.0
    out.append(MomentTest(name, obs, expected, z))


def moment_suite(spec: ExperimentSpec, j_max: int = 7) -> MomentReport:
    """z-tests (3 sigma) for zero means, unit (or analytic) variances and
    zero cross-correlations of the basis random variables.  ConfigError,
    before any work, unless j_max is an integer >= 0 (below the system's
    member bound) and there are at least 1000 trials."""
    j_max = check_integer("j_max", j_max, 0)
    check_orders(spec.kernel, spec.system, (j_max,) * spec.kernel.multiplicity)
    if spec.trials < 10**3:
        raise ConfigError("moment_suite needs at least 1000 trials")
    (shape,) = spec.driver.law.plan(spec, (spec.n_steps,), j_max)["basis variables"][1]
    chunk, block = _chunk_trials(spec, spec.n_steps, j_max, (), False)  # uncoupled
    tables = _prepared(spec, (spec.n_steps,), j_max)

    def shard(lo, hi):
        out = np.empty((hi - lo, *shape))
        for trials, _, _, variables in _trial_chunks(spec, tables, chunk, block, lo, hi):
            if variables is not None:
                out[trials] = variables[0].table
        return (out,)

    (values,) = _sharded(shard, spec.trials, chunk)
    tests = spec.driver.law.moment_tests(spec, values, *tables[0])
    return MomentReport(tuple(tests), flagged=sum(not t.passed for t in tests) > 2)


# ----------------------------------------------------------------------------
# report export

_STAT_FIELDS = tuple(f.name for f in fields(BoxStats))[1:]  # the floats after the box


def report_to_csv(report: MCReport, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["box", *_STAT_FIELDS])
        for s in report.stats:
            writer.writerow(["x".join(str(p) for p in s.box)]
                            + [format(getattr(s, name), ".17g") for name in _STAT_FIELDS])


def report_to_json(report: MCReport, path) -> None:
    doc = {
        "combo": list(report.combo),
        "driver": report.driver_kind,
        "n_steps": report.n_steps,
        "trials": report.trials,
        "seed": report.seed,
        "correction": report.correction,
        "runtime_seconds": report.runtime,
        "boxes": [{"box": list(s.box), **{name: getattr(s, name) for name in _STAT_FIELDS}}
                  for s in report.stats],
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1)
