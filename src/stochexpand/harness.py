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
alike.  A pass is split into contiguous trial ranges, one per worker process
(see _sharded).  Results do not depend on the chunk size or the worker
count, bitwise.

An experiment is one pass, with or without Richardson extrapolation: each
trial is seeded and drawn once, on N steps, and the half resolution N // 2
uses the first N // 2 draws of each of the trial's substreams, which are
exactly what a separate draw on N // 2 steps would give.

How a driver meets its system is decided once, when the spec is built, by
ExperimentSpec.slot_scales (one evaluation of rho against the system's
weight): the residual's factor, the diagonal correction
(ExperimentSpec.correction) and the checks of rho all read it.
"""

from __future__ import annotations

import csv
import functools
import json
import math
import numbers
import os
import time
from dataclasses import dataclass, replace

import numpy as np

from . import expansions, oracle
from .basis import OrthonormalSystem
# interval_measures, PowerMark and power_mark stay module attributes: perfbench/tracer.py
# wraps the samplers and interval_measures here, and callers import the other two from here
from .drivers import (IntensityMeasure, PowerMark, TrialSeed, _as_callable,  # noqa: F401
                      interval_measures, make_partition, power_mark, sample_gaussian_martingale,
                      sample_poisson, sample_wiener, seed_words)
from .errors import ConfigError, SizeError, check_integer
from .expansions import BasisVariables
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
# the parameters beyond m that each driver kind takes
DRIVER_PARAMETERS = {"wiener": (), "martingale": ("rho",), "poisson": ("intensity", "mark_factors")}


@dataclass(frozen=True)
class DriverConfig:
    """Which driver feeds the experiment and with what parameters.

    kind "wiener" needs m, and is the martingale with rho == 1; "martingale"
    adds the variance density rho, which no other kind takes; "poisson" adds
    the intensity measure and one mark factor per slot, which only it takes.
    """

    kind: str
    m: int = 2
    rho: object = None
    intensity: IntensityMeasure | None = None
    mark_factors: tuple = None

    def __post_init__(self):
        if self.kind not in ("wiener", "martingale", "poisson"):
            raise ConfigError(f"unknown driver kind: {self.kind}")
        object.__setattr__(self, "m", check_integer("m", self.m, 1))
        extra = [key for key in ("rho", "intensity", "mark_factors")
                 if getattr(self, key) is not None and key not in DRIVER_PARAMETERS[self.kind]]
        if extra:
            raise ConfigError(f"a {self.kind} driver does not take {', '.join(extra)}")
        number = (isinstance(self.rho, numbers.Real) and not isinstance(self.rho, bool)
                  and 0 <= self.rho < math.inf)
        if self.kind == "martingale" and not (callable(self.rho) or number):
            raise ConfigError(f"martingale driver requires a variance density rho, a callable or "
                              f"a real number, finite and >= 0, got {self.rho!r}")
        if self.kind == "poisson" and self.intensity is None:
            raise ConfigError("poisson driver requires an intensity measure")


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
        k = self.kernel.multiplicity
        if len(self.combo) != k:
            raise ConfigError("combo must match the kernel multiplicity")
        if any(not 0 <= i <= self.driver.m for i in self.combo):
            raise ConfigError(f"combo components must lie in 0..{self.driver.m}")
        mf = self.driver.mark_factors
        if self.driver.kind == "poisson":
            if mf is None or len(mf) != k:
                raise ConfigError("poisson experiments need one mark factor per slot")
            try:  # finite, as poisson_variables requires
                for phi in mf:
                    self.driver.intensity.moment(phi, 2.0 ** (k + 1))
            except ValueError as exc:
                raise ConfigError(str(exc)) from exc
        self.slot_scales  # the checks of rho, before any work
        # the tensor that run_experiment builds: its boxes' per-level maximum
        check_box(self.kernel, self.system, tuple(map(max, zip(*self.boxes))))

    @functools.cached_property
    def slot_scales(self) -> tuple[float, ...]:
        """Per-slot isometry factor s_g, E[X_j X_j'] = s_g delta_jj' for slot g's
        basis variables: a Gaussian driver's constant rho on a unit-weight
        system, or 1 on the weighted one if rho is its weight (which the
        coefficients and the norm carry); a Poisson driver's mark second moment
        on a unit-weight system; else NaN.  The one place that evaluates rho (1
        if None) against the weight r, on one grid; a ConfigError unless rho is
        finite and >= 0 there and, on the weighted system, unless sup rho / r
        over its interior is at most RATIO_BOUND."""
        iv, weighted = self.kernel.interval, self.system.weighted
        x = np.linspace(iv.start, iv.end, RATIO_GRID + 2)
        rho = _as_callable(1.0 if self.driver.rho is None else self.driver.rho)(x)
        if not np.all((rho >= 0) & (rho < np.inf)):
            raise ConfigError("variance density rho is negative or not finite on the interval")
        r = self.system.weight(x)
        ratio = np.max(rho[1:-1] / np.where(r[1:-1] > 0, r[1:-1], np.inf))
        if weighted and not ratio <= RATIO_BOUND:  # NaN counts as unbounded
            raise ConfigError(f"variance density / weight ratio appears unbounded (sup over "
                              f"the grid {ratio:.3g} exceeds {RATIO_BOUND:.3g})")
        if self.driver.kind == "poisson" and not weighted:
            return tuple(self.driver.intensity.moment(phi, 2.0) for phi in self.driver.mark_factors)
        scale = float("nan")
        if self.driver.kind != "poisson" and np.allclose(rho, r if weighted else rho[0],
                                                         rtol=1e-12, atol=1e-12):
            scale = 1.0 if weighted else float(rho[0])
        return (scale,) * self.kernel.multiplicity

    @functools.cached_property
    def correction(self) -> str:
        """The diagonal correction the driver decides: "prelimit" where the
        pairing bracket's delta_{j_a j_b} misses tied pairs' quadratic variation
        (repeated components of a Poisson driver, or of a Gaussian one whose
        slot_scales are not 1), else "pairing_general"."""
        if expansions._distinct_nonzero(self.combo) or (
                self.driver.kind != "poisson" and self.slot_scales[0] == 1.0):
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

    A chunk holds per trial, on each partition, its increment buffer (a
    Gaussian path's m + 1 rows, or a Poisson trial's k slot rows), its basis
    variables and, under prelimit, its G_k tensors (listed, stacked and in
    expand's product); and once, at n_steps, its k slot rows psi_g * Delta
    D^(i_g), nested_sum's three rows of scratch and the bracket's first
    contraction.  Each worker also holds two trials' draws (a trial's path is
    freed when the next one's is bound; for Poisson, the slot measures and
    their copy), one seed-word derivation (_trial_seeds) and, under prelimit,
    its slot tables and largest block product of the G_k sum.

    Raises SizeError, before anything is allocated, when the partitions,
    their left-node tables, each worker's chunk and share above, and the
    kept_per_trial result floats of every trial (twice when sharded: the
    workers' rows and the gathered array) would exceed MEMORY_BUDGET."""
    k, m = spec.kernel.multiplicity, spec.driver.m
    gaussian = spec.driver.kind != "poisson"
    prelimit = spec.correction == "prelimit"
    steps = (n_steps, *coarse)
    rows = m + 1 if gaussian else k  # increment rows per partition
    per_trial = 8 * (sum(n * rows + rows * (p_max + 1) + prelimit * 3 * (p_max + 1) ** k
                         for n in steps) + n_steps * (k + 3) + (p_max + 1) ** (k - 1))
    # rows at n_steps: two paths' unit draws and increments, or a Poisson trial's
    # slot measures, their copy and two temporaries
    draws = 2 * (2 * m + 1) if gaussian else 2 * k + 2
    temp = 8 * n_steps * (draws + prelimit * (k * (p_max + 1) + (p_max + 1) ** (k - 1)))
    chunk = max(1, min(spec.trials, CHUNK_BYTES // per_trial))
    workers = _worker_count(-(-spec.trials // chunk))
    # nodes, deltas, step variances and their square roots, basis table, kernel
    # factors; forked workers share them with the parent
    tables = sum(8 * (n + 1) * (4 + p_max + 1 + k) for n in steps)
    results = 8 * spec.trials * kept_per_trial * (1 if workers == 1 else 2)
    seeds = STREAM_BYTES * min(m * spec.trials, max(m, SEED_STREAMS))  # one derivation
    need = tables + workers * (chunk * per_trial + temp + seeds) + results
    if need > MEMORY_BUDGET:
        raise SizeError(f"a trial loop over {n_steps} steps and {spec.trials} trials would hold "
                        f"{need / 2**30:.3g} GiB, over the budget {MEMORY_BUDGET / 2**30:.3g} GiB")
    return chunk


def _worker_count(n_chunks: int) -> int:
    """Processes that share a pass of n_chunks chunks: the usable CPUs, at
    most one per chunk, and 1 where the fork start method is unavailable."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    workers = min(cpus or 1, n_chunks)
    if workers > 1:
        import multiprocessing
        if "fork" not in multiprocessing.get_all_start_methods():
            return 1
    return workers


_SHARD = None  # set only in forked workers, by _install_shard


def _install_shard(shard) -> None:
    global _SHARD
    _SHARD = shard


def _run_installed_shard(lo: int, hi: int):
    return _SHARD(lo, hi)


def _sharded(shard, trials: int, chunk: int) -> tuple:
    """shard(lo, hi) -> tuple of arrays over trials lo..hi-1, for all trials.

    The trials are cut at chunk boundaries into one contiguous range per
    worker (_worker_count).  The parent runs the first range; forked children
    inherit the pass's prepared state and the shard (fork hands initargs
    over unpickled; densities and mark factors may be lambdas), run the
    others and send back only their rows.  Per-trial work does not depend on
    the chunk, so the result is bitwise that of shard(0, trials), the serial
    path.  Ranges are read in trial order, so the exception raised is the
    first failing trial's for any worker count; a dead child raises SizeError."""
    n_chunks = -(-trials // chunk)
    workers = _worker_count(n_chunks)
    if workers == 1:
        return shard(0, trials)
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool
    import multiprocessing
    cuts = [min(trials, chunk * (n_chunks * w // workers)) for w in range(workers + 1)]
    try:
        with ProcessPoolExecutor(workers - 1, mp_context=multiprocessing.get_context("fork"),
                                 initializer=_install_shard, initargs=(shard,)) as pool:
            futures = [pool.submit(_run_installed_shard, lo, hi)
                       for lo, hi in zip(cuts[1:-1], cuts[2:])]
            parts = [shard(cuts[0], cuts[1])] + [f.result() for f in futures]
    except BrokenProcessPool as exc:
        raise SizeError(f"a trial-loop worker process died ({exc}); "
                        f"it may have run out of memory") from exc
    return tuple(np.concatenate(rows) for rows in zip(*parts))


def _prepared(spec: ExperimentSpec, steps, p_max: int) -> list:
    """(partition, basis table on its left nodes) for each step count.

    Built in the parent before any fork, with the square roots of the step
    variances that the samplers scale by, so a martingale's rho is evaluated
    once per partition and the workers inherit it all.  A rho that is negative
    or not finite between slot_scales' grid points fails here, with ConfigError."""
    parts = [make_partition(spec.kernel.interval, n) for n in steps]
    if spec.driver.kind != "poisson":
        try:
            for part in parts:
                part.step_scales(spec.driver.rho)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
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
    The chunk's buffers are allocated once per call and reused by every
    chunk: a Gaussian path's increments on each partition, whose time row is
    written once, or a Poisson trial's variable table and slot increments on
    each partition.  Each trial is seeded with its substreams' derived words
    (_trial_seeds) and drawn once, through the public sampler, on the finest
    partition.  A Gaussian path's unit draws times each coarser partition's
    step scales go straight into that partition's rows (bitwise the
    sampler's increments there, as drivers.scale_draws gives them), and its
    slot increments are views of the rows of its combo; a Poisson
    realization and its variables do not depend on the partition, and only
    its slot increments are taken on each.  The variables have a leading
    trial axis, and the slot increments are k arrays of shape (trials, N),
    valid until the next chunk is drawn."""
    drv, combo = spec.driver, spec.combo
    gaussian = drv.kind != "poisson"
    p_max = tables[0][1].shape[0] - 1
    seeds = _trial_seeds(spec.seed, drv.m, lo, hi)
    chunk = min(chunk, hi - lo)
    slot_index = combo if gaussian else range(len(combo))  # its row in the increment buffers
    if gaussian:  # increments per partition
        incs = [np.empty((chunk, drv.m + 1, part.n_steps)) for part, _ in tables]
        for inc, (part, _) in zip(incs, tables):
            inc[:, 0] = part.deltas
    else:  # the variable table, and slot increments per partition
        table = np.empty((chunk, len(combo), p_max + 1))
        incs = [np.empty((chunk, len(combo), part.n_steps)) for part, _ in tables]
    for start in range(lo, hi, chunk):
        size = min(chunk, hi - start)
        for c in range(size):
            seed = next(seeds)
            if drv.kind == "wiener":
                real = sample_wiener(tables[0][0], drv.m, seed)
            elif drv.kind == "martingale":
                real = sample_gaussian_martingale(tables[0][0], drv.m, drv.rho, seed)
            else:
                real = sample_poisson(spec.kernel.interval, drv.m, drv.intensity, seed)
            if gaussian:
                incs[0][c, 1:] = real.increments[1:]
                for inc, (part, _) in zip(incs[1:], tables[1:]):
                    np.multiply(real.unit_draws[:, :part.n_steps], part.step_scales(drv.rho),
                                out=inc[c, 1:])
            else:
                table[c] = expansions.poisson_variables(real, spec.system, drv.mark_factors,
                                                        combo, p_max).table
                for inc, (part, _) in zip(incs, tables):
                    _, inc[c] = oracle.slot_increments(real, combo, part, drv.mark_factors)
        if gaussian:
            variables = [expansions.gaussian_variables(inc[:size], phi)
                         for inc, (_, phi) in zip(incs, tables)]
        else:
            variables = [BasisVariables("poisson", table[:size], combo=combo)] * len(tables)
        slots = [[inc[:size, i] for i in slot_index] for inc in incs]
        yield start - lo, list(zip(variables, slots))


def _mc_pass(spec: ExperimentSpec, tensor: CoeffTensor, tables, chunk: int):
    """One trial loop that evaluates every trial on each partition of tables
    (_prepared), finest first, on the same draws.

    Returns (samples, diffs at the finest partition, diffs at the next, ...):
    arrays of shape (trials, n_boxes) holding the raw expansion samples at the
    finest resolution and the oracle-minus-expansion differences at each.
    The oracle's slot rows psi_g * Delta D^(i_g) go into one buffer per shard,
    one multiply per slot, shared by the partitions."""
    k, correction = spec.kernel.multiplicity, spec.correction
    psis = [np.stack([spec.kernel.factor_values(l, part.left_nodes) for l in range(k)])
            for part, _ in tables]
    subs = [_sub_tensor(tensor, b) for b in spec.boxes]

    def shard(lo, hi):
        samples = np.empty((hi - lo, len(subs)))
        diffs = [np.empty_like(samples) for _ in tables]
        slot_rows = np.empty(min(chunk, hi - lo) * k * tables[0][0].n_steps)
        for first, resolutions in _trial_chunks(spec, tables, chunk, lo, hi):
            for r, ((variables, incs), (_, phi), psi) in enumerate(
                    zip(resolutions, tables, psis)):
                size = len(incs[0])
                rows = slice(first, first + size)
                gk_sums = None
                if correction == "prelimit":
                    gk_sums = np.stack([oracle.gk_correction_tensor([phi] * k,
                                                                    [inc[c] for inc in incs])
                                        for c in range(size)])
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
    # a Gaussian residual takes s^k: the product over the slots differs in the last bits
    scales = spec.slot_scales
    scale = math.prod(scales) if spec.driver.kind == "poisson" else scales[0] ** len(scales)
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
    before any work, unless j_max is an integer >= 0 (a Walsh system's below
    2^WALSH_BITS) and there are at least 1000 trials."""
    j_max = check_integer("j_max", j_max, 0)
    check_orders(spec.kernel, spec.system, (j_max,) * spec.kernel.multiplicity)
    if spec.trials < 10**3:
        raise ConfigError("moment_suite needs at least 1000 trials")
    drv = spec.driver
    gaussian = drv.kind != "poisson"
    rows = drv.m + 1 if gaussian else len(spec.combo)
    chunk = _chunk_trials(spec, spec.n_steps, j_max, rows * (j_max + 1))
    tables = _prepared(spec, (spec.n_steps,), j_max)
    part, phi = tables[0]

    def shard(lo, hi):
        out = np.empty((hi - lo, rows, j_max + 1))
        for first, [(variables, _)] in _trial_chunks(spec, tables, chunk, lo, hi):
            out[first:first + len(variables.table)] = variables.table
        return (out,)

    (tables,) = _sharded(shard, spec.trials, chunk)
    tests: list[MomentTest] = []
    if gaussian:
        tables = tables[:, 1:]
        var_target = phi**2 @ part.step_variances(drv.rho)  # exact for the sampler
        for i in range(drv.m):
            for j in range(j_max + 1):
                _ztest(f"mean[i={i + 1},j={j}]", tables[:, i, j], 0.0, tests)
                _ztest(f"var[i={i + 1},j={j}]", tables[:, i, j] ** 2,
                       float(var_target[j]), tests)
        for j in range(j_max):
            _ztest(f"cov[j={j},j'={j + 1}]", tables[:, 0, j] * tables[:, 0, j + 1], 0.0, tests)
        if drv.m >= 2:
            for j in range(min(3, j_max + 1)):
                _ztest(f"cross_component[j={j}]", tables[:, 0, j] * tables[:, 1, j], 0.0, tests)
    else:
        for g, (i, f) in enumerate(zip(spec.combo, drv.mark_factors)):
            if i == 0:
                continue
            iso = drv.intensity.moment(f, 2.0)  # E[pi_j^2] = int phi^2 dPi (unit-norm phi_j)
            for j in range(j_max + 1):
                _ztest(f"mean[g={g},j={j}]", tables[:, g, j], 0.0, tests)
                _ztest(f"var[g={g},j={j}]", tables[:, g, j] ** 2, iso, tests)
        seen = set()
        for g1, i1 in enumerate(spec.combo):
            for g2, i2 in enumerate(spec.combo):
                if g2 <= g1 or i1 == 0 or i2 == 0 or i1 == i2 or (i1, i2) in seen:
                    continue
                seen.add((i1, i2))
                _ztest(f"cross_component[g={g1},g'={g2}]",
                       tables[:, g1, 0] * tables[:, g2, 0], 0.0, tests)
    report = MomentReport(tuple(tests), flagged=sum(not t.passed for t in tests) > 2)
    return report


# ----------------------------------------------------------------------------
# report export

def report_to_csv(report: MCReport, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["box", "mean", "variance", "mse",
                         "mse_halfwidth_99", "residual", "allowance"])
        for s in report.stats:
            writer.writerow(["x".join(str(p) for p in s.box)]
                            + [format(v, ".17g") for v in
                               (s.mean, s.variance, s.mse, s.mse_halfwidth_99,
                                s.residual, s.allowance)])


def report_to_json(report: MCReport, path) -> None:
    doc = {
        "combo": list(report.combo),
        "driver": report.driver_kind,
        "n_steps": report.n_steps,
        "trials": report.trials,
        "seed": report.seed,
        "correction": report.correction,
        "runtime_seconds": report.runtime,
        "boxes": [
            {"box": list(s.box), "mean": s.mean, "variance": s.variance, "mse": s.mse,
             "mse_halfwidth_99": s.mse_halfwidth_99, "residual": s.residual,
             "allowance": s.allowance}
            for s in report.stats
        ],
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1)
