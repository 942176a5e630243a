"""Monte Carlo experiment orchestration and statistics.

One experiment couples, trial by trial, a brute-force discretized integral
(the oracle) with the truncated series expansion evaluated on the very same
realization, and reports the mean squared difference per truncation box
next to the theoretical truncation residual.  A moment suite z-tests the
basis random variables against their analytic means and covariances.

Both run one chunked trial loop: everything that depends only on the
partition is prepared once per pass, trials are drawn one by one into a
workspace that each worker allocates once and reuses for every chunk of
trials, a chunk as large as fits CHUNK_BYTES by the count of _chunk_trials,
and each chunk is evaluated by batched operations that treat every trial
alike.  What a driver kind does differently, from its checks to its draws
and its moment targets, is its law's (DriverConfig.law: _Gaussian, _Wiener
or _Poisson); the loop calls the law and tests no kind.  A pass is split
into contiguous trial ranges, one per worker process: the parent runs the
first and forks one child with one pipe for each of the others, which sends
back its pickled rows (see _sharded).  Results do not depend on the chunk
size or the worker count, bitwise.

An experiment is one pass, with or without Richardson extrapolation: each
trial is seeded and drawn once, on N steps, and the half resolution N // 2
uses the first N // 2 draws of each of the trial's substreams, which are
exactly what a separate draw on N // 2 steps would give.

How a driver meets its system is decided once, when the spec is built, by
its law's slot_scales: it checks the driver's inputs (rho against the weight,
or the mark factors) and gives the per-slot isometry factors that the
residual's factor and the diagonal correction (ExperimentSpec.correction) read.
"""

from __future__ import annotations

import csv
import functools
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

    def sample(self, part, m, seed):
        return sample_gaussian_martingale(part, m, self.rho, seed)

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

    def ties_take_bracket(self, scales) -> bool:
        return scales[0] == 1.0  # the bracket's delta_jj' is then a tie's quadratic variation

    def residual_factor(self, scales) -> float:
        return scales[0] ** len(scales)  # s^k: the product over the slots differs in the last bits

    def prepare(self, parts) -> None:
        """Each partition's step scales, once per pass, before any fork: rho is
        evaluated once per block of steps, and a rho that is negative or not
        finite between slot_scales' grid points fails here, with ConfigError."""
        try:
            for part in parts:
                part.step_scales(self.rho)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

    def rows(self, spec) -> int:
        return spec.driver.m + 1

    def floats(self, spec, steps, p_max: int, dense: int) -> tuple[int, int, int, int]:
        """Floats held (per trial, per worker, per pass, once before the chunks)."""
        m, rows = spec.driver.m, self.rows(spec)
        # per trial and partition: the path's rows and basis variables
        trial = sum(n * rows + rows * (p_max + 1) for n in steps)
        # per worker: two paths' draws and increments (one is freed when the next is bound)
        # and the dense G_k temporaries; per pass: step variances and their square roots;
        # once: a callable rho's (block, ORDER) nodes, weights, values, products and one more
        once = callable(self.rho) * 5 * quadrature.ORDER * min(steps[0], RHO_BLOCK)
        return trial, steps[0] * (2 * (2 * m + 1) + dense), sum(2 * (n + 1) for n in steps), once

    def buffers(self, spec, tables, chunk: int) -> list:
        incs = [np.empty((chunk, self.rows(spec), part.n_steps)) for part, _ in tables]
        for inc, (part, _) in zip(incs, tables):
            inc[:, 0] = part.deltas  # the time row, written once per pass
        return incs

    def draw(self, spec, tables, seeds, incs, size: int) -> list:
        """Each trial's path is drawn once, on the finest partition; its unit
        draws times each coarser partition's step scales go straight into that
        partition's rows (bitwise the sampler's increments there, as
        drivers.scale_draws gives them).  The slot increments are views of the
        rows of the combo, one per component."""
        for c in range(size):
            real = self.sample(tables[0][0], spec.driver.m, next(seeds))
            incs[0][c, 1:] = real.increments[1:]
            for inc, (part, _) in zip(incs[1:], tables[1:]):
                np.multiply(real.unit_draws[:, :part.n_steps], part.step_scales(self.rho),
                            out=inc[c, 1:])
        variables = [expansions.gaussian_variables(inc[:size], phi)
                     for inc, (_, phi) in zip(incs, tables)]
        views = [{i: inc[:size, i] for i in dict.fromkeys(spec.combo)} for inc in incs]
        return [(v, [rows[i] for i in spec.combo]) for v, rows in zip(variables, views)]

    def gk_base(self, spec, part, phi) -> None:
        return None  # each trial's G_k block sums are dense

    def moment_tests(self, spec, values, part, phi) -> list:
        values, tests, j_max = values[:, 1:], [], values.shape[2] - 1
        var_target = phi**2 @ part.step_variances(self.rho)  # exact for the sampler
        for i in range(spec.driver.m):
            for j in range(j_max + 1):
                _ztest(f"mean[i={i + 1},j={j}]", values[:, i, j], 0.0, tests)
                _ztest(f"var[i={i + 1},j={j}]", values[:, i, j] ** 2,
                       float(var_target[j]), tests)
        for j in range(j_max):
            _ztest(f"cov[j={j},j'={j + 1}]", values[:, 0, j] * values[:, 0, j + 1], 0.0, tests)
        if spec.driver.m >= 2:
            for j in range(min(3, j_max + 1)):
                _ztest(f"cross_component[j={j}]", values[:, 0, j] * values[:, 1, j], 0.0, tests)
        return tests


class _Wiener(_Gaussian):
    """The Gaussian martingale with rho == 1, drawn by sample_wiener."""

    parameters = ()

    def __init__(self):
        self.rho = None

    def sample(self, part, m, seed):
        return sample_wiener(part, m, seed)


class _Poisson:
    """Compensated marked Poisson measures of a finite intensity measure, one
    mark factor per slot: a trial is a realization, the same on every
    partition, and a chunk's realizations are evaluated together."""

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

    def ties_take_bracket(self, scales) -> bool:
        return False

    def residual_factor(self, scales) -> float:
        return math.prod(scales)

    def prepare(self, parts) -> None:
        pass  # a realization does not depend on the partition

    def rows(self, spec) -> int:
        return spec.kernel.multiplicity

    def floats(self, spec, steps, p_max: int, dense: int) -> tuple[int, int, int, int]:
        """Floats held (per trial, per worker, per pass, once before the chunks)."""
        k, m = spec.kernel.multiplicity, max(1, *spec.combo)  # m: the components a trial draws
        prelimit = spec.correction == "prelimit"
        box, mass = (p_max + 1) ** k, self.intensity.total_mass * spec.kernel.interval.length
        # per trial and partition: the slot rows; per trial: the basis variables and, per
        # expected jump on a component, its time and mark on each drawn component, two basis tables
        # (one built while the last is freed) and 8 floats of scratch (eval_table, the chunk's
        # times and marks, mark values, indices)
        trial = (sum(n * k for n in steps) + k * (p_max + 1)
                 + math.ceil(mass * (2 * m + 2 * (p_max + 1) + 8)))
        if prelimit:
            # the G_k sum's steps off the base, up to the expected jumps on the combo's
            # components, each with a block's terms, their scattered add's indices and its
            # trial and step; and one byte per step for each slot's mask and theirs
            expected = math.ceil(mass * len(set(spec.combo) - {0}))
            trial += min(steps[0], expected) * (2 * box + 2) + -(-(k + 1) * steps[0] // 8)
        # per worker: a compensator row; per pass: each partition's G_k base (slot rows and
        # block sums); once, before any chunk: the dense temporaries and the row that build it
        bases = prelimit * sum(n * k + (p_max + 2) ** k for n in steps)
        return trial, steps[0], bases, prelimit * steps[0] * (dense + 1)

    def buffers(self, spec, tables, chunk: int) -> list:
        return [np.empty((chunk, self.rows(spec), part.n_steps)) for part, _ in tables]

    def draw(self, spec, tables, seeds, incs, size: int) -> list:
        """A trial draws components 1..max(combo), which are all that its slots
        read, each from its own substream.  The realizations and their variables
        do not depend on the partition: poisson_variables takes the whole chunk
        once, and slot_increments writes its measures into each partition's rows
        by one scattered add; equal slots share one row of each, built once per
        distinct (component, mark factor) pair, bitwise each trial's own."""
        reals = [sample_poisson(spec.kernel.interval, max(1, *spec.combo), self.intensity,
                                next(seeds)) for _ in range(size)]
        variables = expansions.poisson_variables(reals, spec.system, self.mark_factors,
                                                 spec.combo, tables[0][1].shape[0] - 1)
        return [(variables, oracle.slot_increments(reals, spec.combo, part, self.mark_factors,
                                                   inc[:size])[1])
                for inc, (part, _) in zip(incs, tables)]

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
        """The diagonal correction the driver decides: "prelimit" where the
        pairing bracket's delta_{j_a j_b} misses tied pairs' quadratic variation
        (as the law says from slot_scales), else "pairing_general"."""
        if expansions._distinct_nonzero(self.combo) or self.driver.law.ties_take_bracket(
                self.slot_scales):
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


def _chunk_trials(spec: ExperimentSpec, n_steps: int, p_max: int, kept_per_trial: int,
                  coarse=()) -> int:
    """Trials per chunk of a trial loop over n_steps, and over the coarser step
    counts `coarse` on the same draws, with basis orders up to p_max: as many
    as fit CHUNK_BYTES.

    A chunk holds per trial the law's floats, under prelimit each partition's
    G_k tensors and, once, at n_steps, its k slot rows psi_g * Delta D^(i_g),
    nested_sum's three rows of scratch and the bracket's first contraction.
    Each worker also holds the law's share and a seed-word derivation (_trial_seeds).

    Raises SizeError, before anything is allocated, when the partitions,
    their left-node tables, the law's tables, each worker's chunk and share
    above, and the kept_per_trial result floats of every trial (twice when
    sharded: the workers' rows and the gathered array) would exceed
    MEMORY_BUDGET, or when what the law holds once before the chunks would."""
    k, m = spec.kernel.multiplicity, spec.driver.m
    steps = (n_steps, *coarse)
    prelimit = spec.correction == "prelimit"
    # per step, the dense G_k sum's slot tables and, for k >= 3, its largest block product
    dense = prelimit * (k * (p_max + 1) + (k >= 3) * (p_max + 1) ** (k - 1))
    trial, worker, shared, once = spec.driver.law.floats(spec, steps, p_max, dense)
    # per trial and partition: G_k block sums, Moebius result, two temporaries, expand's product
    trial += prelimit * len(steps) * ((p_max + 2) ** k + 4 * (p_max + 1) ** k)
    per_trial = 8 * (trial + n_steps * (k + 3) + (p_max + 1) ** (k - 1))
    chunk = max(1, min(spec.trials, CHUNK_BYTES // per_trial))
    workers = _worker_count(-(-spec.trials // chunk))
    # nodes, deltas, basis table and kernel factors; forked workers share them with the parent
    tables = 8 * (shared + sum((n + 1) * (2 + p_max + 1 + k) for n in steps))
    results = 8 * spec.trials * kept_per_trial * (1 if workers == 1 else 2)
    seeds = STREAM_BYTES * min(m * spec.trials, max(m, SEED_STREAMS))  # one derivation
    need = tables + max(8 * once, workers * (chunk * per_trial + 8 * worker + seeds) + results)
    if need > MEMORY_BUDGET:
        raise SizeError(f"a trial loop over {n_steps} steps and {spec.trials} trials would hold "
                        f"{need / 2**30:.3g} GiB, over the budget {MEMORY_BUDGET / 2**30:.3g} GiB")
    return chunk


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
    still running killed first.  Per-trial work does not depend on the chunk,
    so the result is bitwise that of shard(0, trials), the serial path."""
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
    spec.driver.law.prepare(parts)
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


def _trial_chunks(spec: ExperimentSpec, tables, chunk: int, lo: int, hi: int):
    """Yield (offset of the first trial from lo, [(basis variables, slot
    increments) for each partition]) per chunk of trials lo..hi-1.

    tables lists (partition, basis table on its left nodes), finest first.
    The chunk's increment buffers, one per partition, are allocated once per
    call (the law's buffers) and reused by every chunk, which the law draws.
    Each trial is seeded with its substreams' derived words (_trial_seeds)
    and drawn once, through the public sampler, on the finest partition.  The
    variables have a leading trial axis, and the slot increments are k arrays
    of shape (trials, N), valid until the next chunk is drawn."""
    law = spec.driver.law
    seeds = _trial_seeds(spec.seed, spec.driver.m, lo, hi)
    chunk = min(chunk, hi - lo)
    incs = law.buffers(spec, tables, chunk)
    for start in range(lo, hi, chunk):
        yield start - lo, law.draw(spec, tables, seeds, incs, min(chunk, hi - start))


def _mc_pass(spec: ExperimentSpec, tensor: CoeffTensor, tables, chunk: int):
    """One trial loop that evaluates every trial on each partition of tables
    (_prepared), finest first, on the same draws.

    Returns (samples, diffs at the finest partition, diffs at the next, ...):
    arrays of shape (trials, n_boxes) holding the raw expansion samples at the
    finest resolution and the oracle-minus-expansion differences at each.
    The oracle's slot rows psi_g * Delta D^(i_g) go into one buffer per shard,
    one multiply per slot, shared by the partitions.  Under prelimit, a chunk's
    G_k sums on each partition take one oracle.gk_correction_tensor call, from
    the partition's base if the law gives one."""
    k, correction = spec.kernel.multiplicity, spec.correction
    psis = [np.stack([spec.kernel.factor_values(l, part.left_nodes) for l in range(k)])
            for part, _ in tables]
    subs = [_sub_tensor(tensor, b) for b in spec.boxes]
    bases = [spec.driver.law.gk_base(spec, part, phi) if correction == "prelimit" else None
             for part, phi in tables]

    def shard(lo, hi):
        samples = np.empty((hi - lo, len(subs)))
        diffs = [np.empty_like(samples) for _ in tables]
        slot_rows = np.empty(min(chunk, hi - lo) * k * tables[0][0].n_steps)
        for first, resolutions in _trial_chunks(spec, tables, chunk, lo, hi):
            for r, ((variables, incs), (_, phi), psi, base) in enumerate(
                    zip(resolutions, tables, psis, bases)):
                size = len(incs[0])
                rows = slice(first, first + size)
                gk_sums = None
                if correction == "prelimit":
                    gk_sums = oracle.gk_correction_tensor([phi] * k, incs, base)
                values = np.stack([expansions.expand(sub, variables, spec.combo,
                                                     correction=correction,
                                                     gk_sums=gk_sums).value
                                   for sub in subs], axis=1)
                if r == 0:
                    samples[rows] = values
                f = slot_rows[:size * psi.size].reshape(size, *psi.shape)
                for g, inc in enumerate(incs):
                    np.multiply(psi[g], inc, out=f[:, g])
                diffs[r][rows] = oracle.nested_sum(f)[:, None] - values
        return (samples, *diffs)

    return _sharded(shard, spec.trials, chunk)


def run_experiment(spec: ExperimentSpec) -> MCReport:
    """Coupled oracle/expansion Monte Carlo over all truncation boxes."""
    t0 = time.perf_counter()
    steps = (spec.n_steps,)
    if spec.richardson and spec.n_steps >= 2:
        steps += (spec.n_steps // 2,)
    p_max = max(max(b) for b in spec.boxes)
    # the samples, and the diffs at each resolution
    chunk = _chunk_trials(spec, spec.n_steps, p_max, (1 + len(steps)) * len(spec.boxes), steps[1:])
    # before any partition, table or tensor: a factor scale beyond the float range overflows
    norm = kernel_norm_sq(spec.kernel, spec.system)
    tables = _prepared(spec, steps, p_max)  # its per-step check of rho comes before the tensor
    tensor = coeff_tensor(spec.kernel, spec.system, tuple(map(max, zip(*spec.boxes))))
    scale = spec.driver.law.residual_factor(spec.slot_scales)
    if 0 in spec.combo or not expansions._distinct_nonzero(spec.combo):
        scale = float("nan")
    samples, *diffs = _mc_pass(spec, tensor, tables, chunk)
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
    rows = spec.driver.law.rows(spec)
    chunk = _chunk_trials(spec, spec.n_steps, j_max, rows * (j_max + 1))
    tables = _prepared(spec, (spec.n_steps,), j_max)

    def shard(lo, hi):
        out = np.empty((hi - lo, rows, j_max + 1))
        for first, [(variables, _)] in _trial_chunks(spec, tables, chunk, lo, hi):
            out[first:first + len(variables.table)] = variables.table
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
