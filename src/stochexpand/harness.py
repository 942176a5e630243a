"""Monte Carlo experiment orchestration and statistics.

One experiment couples, trial by trial, a brute-force discretized integral
(the oracle) with the truncated series expansion evaluated on the very same
realization, and reports the mean squared difference per truncation box
next to the theoretical truncation residual.  A moment suite z-tests the
basis random variables against their analytic means and covariances.

Both run one chunked trial loop: everything that depends only on the
partition is prepared once per pass, trials are drawn one by one into a
buffer of at most CHUNK_BYTES, and each chunk is evaluated by batched
operations that treat every trial alike.  A pass is split into contiguous
trial ranges, one per worker process (see _sharded).  Results do not depend
on the chunk size or the worker count, bitwise.
"""

from __future__ import annotations

import csv
import json
import math
import numbers
import os
import time
from dataclasses import dataclass, replace

import numpy as np

from . import expansions, oracle
from .basis import OrthonormalSystem
# interval_measures stays a module attribute (perfbench/tracer.py wraps the
# samplers and it here); the trial loop reaches it through oracle.slot_increments
from .drivers import (IntensityMeasure, interval_measures, make_partition,  # noqa: F401
                      sample_gaussian_martingale, sample_poisson, sample_wiener,
                      trial_seed)
from .errors import ConfigError, SizeError
from .expansions import BasisVariables
from .kernel import CoeffTensor, Kernel, coeff_tensor, kernel_norm_sq

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
CHUNK_BYTES = 2**20  # increment buffers of one chunk of trials
MEMORY_BUDGET = 2**32  # bytes a trial loop may hold: partition, left-node tables, one chunk


def power_mark(a: float = 1.0):
    """Mark factor phi(y) = y^a (a = 0 gives the indicator of the mark space)."""
    a = float(a)
    if a == 0.0:
        return lambda y: np.ones_like(np.asarray(y, dtype=float))
    return lambda y: np.asarray(y, dtype=float) ** a


def _integer(name: str, value, minimum: int) -> int:
    """value as an int; ConfigError unless it is an integer (not a bool) >= minimum."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < minimum:
        raise ConfigError(f"{name} must be an integer >= {minimum}, got {value!r}")
    return int(value)


@dataclass(frozen=True)
class DriverConfig:
    """Which driver feeds the experiment and with what parameters.

    kind "wiener" needs m; "martingale" adds the variance density rho;
    "poisson" adds the intensity measure and one mark factor per slot.
    """

    kind: str
    m: int = 2
    rho: object = None
    intensity: IntensityMeasure | None = None
    mark_factors: tuple = None

    def __post_init__(self):
        if self.kind not in ("wiener", "martingale", "poisson"):
            raise ConfigError(f"unknown driver kind: {self.kind}")
        object.__setattr__(self, "m", _integer("m", self.m, 1))
        if self.kind == "martingale" and self.rho is None:
            raise ConfigError("martingale driver requires a variance density rho")
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
    correction: str = "auto"
    weighted: bool = False
    richardson: bool = False

    def __post_init__(self):
        for name, minimum in (("seed", 0), ("trials", 1), ("n_steps", 1)):
            object.__setattr__(self, name, _integer(name, getattr(self, name), minimum))
        if self.correction not in ("auto", *expansions.CORRECTIONS):
            raise ConfigError(f"correction must be 'auto' or one of {expansions.CORRECTIONS}, "
                              f"got {self.correction!r}")
        object.__setattr__(self, "combo", tuple(int(i) for i in self.combo))
        object.__setattr__(self, "boxes", tuple(tuple(int(p) for p in b) for b in self.boxes))
        if not self.boxes:
            raise ConfigError("at least one truncation box is required")
        k = self.kernel.multiplicity
        if any(len(b) != k for b in self.boxes) or len(self.combo) != k:
            raise ConfigError("boxes and combo must match the kernel multiplicity")
        if any(not 0 <= i <= self.driver.m for i in self.combo):
            raise ConfigError(f"combo components must lie in 0..{self.driver.m}")
        if self.correction == "explicit_k_le_4" and k > 4:
            raise ConfigError("the explicit_k_le_4 correction covers multiplicities 1..4 only")
        if self.driver.kind == "poisson":
            mf = self.driver.mark_factors
            if mf is None or len(mf) != k:
                raise ConfigError("poisson experiments need one mark factor per slot")
            if self.correction in ("explicit_k_le_4", "pairing_general") \
                    and not expansions._distinct_nonzero(self.combo):
                raise ConfigError(f"a poisson combo with repeated components needs the "
                                  f"prelimit correction, not {self.correction}")


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


def _resolve_correction(spec: ExperimentSpec) -> str:
    if spec.correction != "auto":
        return spec.correction
    if spec.driver.kind != "poisson" or expansions._distinct_nonzero(spec.combo):
        return "pairing_general"
    return "prelimit"


def _residual_scale(spec: ExperimentSpec) -> float:
    """Per-slot isometry factor turning the coefficient residual into the
    mean-square truncation error; NaN when no closed form applies."""
    nz = [i for i in spec.combo if i != 0]
    if len(nz) != len(set(nz)) or len(nz) != len(spec.combo):
        return float("nan")
    if spec.driver.kind == "wiener":
        return 1.0
    if spec.driver.kind == "poisson":
        scale = 1.0
        for phi in spec.driver.mark_factors:
            scale *= spec.driver.intensity.moment(phi, 2.0)
        return scale
    # martingale: constant density has scale rho^k; a density matching the
    # system weight is already absorbed by the weighted kernel norm
    rho = spec.driver.rho
    iv = spec.kernel.interval
    x = np.linspace(iv.start, iv.end, 257)
    vals = np.asarray(rho(x), dtype=float) if callable(rho) else np.full_like(x, float(rho))
    if np.allclose(vals, vals[0], rtol=1e-12, atol=1e-12):
        return float(vals[0]) ** spec.kernel.multiplicity
    if spec.weighted and np.allclose(vals, spec.system.weight(x), rtol=1e-12, atol=1e-12):
        return 1.0
    return float("nan")


def _sub_tensor(tensor: CoeffTensor, box) -> CoeffTensor:
    sl = tuple(slice(0, p + 1) for p in box)
    return replace(tensor, box=tuple(box), values=tensor.values[sl])


def _chunk_trials(spec: ExperimentSpec, n_steps: int, p_max: int, kept_per_trial: int) -> int:
    """Trials per chunk of a trial loop over n_steps with basis orders up to p_max.

    Raises SizeError, before anything is allocated, when the partition, the
    left-node tables, one chunk's buffers in each worker process and the
    kept_per_trial result floats of every trial (twice when sharded: the
    workers' rows and the gathered array) would exceed MEMORY_BUDGET."""
    k = spec.kernel.multiplicity
    rows = spec.driver.m + 1 if spec.driver.kind != "poisson" else 0
    per_trial = 8 * n_steps * (rows + k)  # increments and slot increments
    chunk = max(1, min(spec.trials, CHUNK_BYTES // per_trial))
    workers = _worker_count(-(-spec.trials // chunk))
    # nodes, deltas, step variances, basis table, kernel factors; forked
    # workers share them with the parent
    tables = 8 * (n_steps + 1) * (3 + p_max + 1 + k)
    results = 8 * spec.trials * kept_per_trial * (1 if workers == 1 else 2)
    need = tables + workers * chunk * per_trial + results
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


def _trial_chunks(spec: ExperimentSpec, part, phi: np.ndarray, chunk: int, lo: int, hi: int):
    """Yield (offset of the first trial from lo, basis variables, slot
    increments) per chunk of trials lo..hi-1.

    Trials are drawn one by one through the public samplers from their
    trial_seed substreams into the chunk's buffers; the variables have a
    leading trial axis and the slot increments shape (trials, k, N).
    phi is the basis table on the partition's left nodes."""
    drv, combo = spec.driver, spec.combo
    gaussian = drv.kind != "poisson"
    p_max = phi.shape[0] - 1
    time_ints = None if gaussian else expansions._basis_time_integrals(spec.system, p_max)
    for start in range(lo, hi, chunk):
        size = min(chunk, hi - start)
        incs = np.empty((size, len(combo), part.n_steps))
        # Gaussian increments, or the Poisson variable tables
        draws = np.empty((size, drv.m + 1, part.n_steps) if gaussian
                         else (size, len(combo), p_max + 1))
        for c in range(size):
            seed_t = trial_seed(spec.seed, start + c)
            if drv.kind == "wiener":
                real = sample_wiener(part, drv.m, seed_t)
            elif drv.kind == "martingale":
                real = sample_gaussian_martingale(part, drv.m, drv.rho, seed_t)
            else:
                real = sample_poisson(spec.kernel.interval, drv.m, drv.intensity, seed_t)
            _, incs[c] = oracle.slot_increments(real, combo, None if gaussian else part,
                                                drv.mark_factors)
            draws[c] = real.increments if gaussian else expansions.poisson_variables(
                real, spec.system, drv.mark_factors, combo, p_max,
                time_integrals=time_ints).table
        if gaussian:
            variables = expansions.gaussian_variables(drv.kind, draws, phi)
        else:
            variables = BasisVariables("poisson", draws, by_slot=True, combo=combo)
        yield start - lo, variables, incs


def _mc_pass(spec: ExperimentSpec, tensor: CoeffTensor, n_steps: int, correction: str,
             chunk: int):
    """One full trial loop at a given resolution.

    Returns (diffs, samples): arrays of shape (trials, n_boxes) holding the
    oracle-minus-expansion differences and the raw expansion samples."""
    k = spec.kernel.multiplicity
    part = make_partition(spec.kernel.interval, n_steps)
    p_all = max(max(b) for b in spec.boxes)
    phi = spec.system.eval_table(p_all, part.left_nodes)
    psi = np.stack([spec.kernel.factor_values(l, part.left_nodes) for l in range(k)])
    subs = [_sub_tensor(tensor, b) for b in spec.boxes]

    def shard(lo, hi):
        diffs = np.empty((hi - lo, len(subs)))
        samples = np.empty_like(diffs)
        for first, variables, incs in _trial_chunks(spec, part, phi, chunk, lo, hi):
            rows = slice(first, first + len(incs))
            gk_sums = None
            if correction == "prelimit":
                gk_sums = np.stack([oracle.gk_correction_tensor([phi] * k, inc) for inc in incs])
            for b, sub in enumerate(subs):
                samples[rows, b] = expansions.expand(sub, variables, spec.combo,
                                                     correction=correction,
                                                     gk_sums=gk_sums).value
            diffs[rows] = oracle.nested_sum(psi * incs)[:, None] - samples[rows]
        return diffs, samples

    return _sharded(shard, spec.trials, chunk)


def run_experiment(spec: ExperimentSpec) -> MCReport:
    """Coupled oracle/expansion Monte Carlo over all truncation boxes."""
    t0 = time.perf_counter()
    correction = _resolve_correction(spec)
    # diffs and samples of the full pass, and those of the half-resolution one
    chunk = _chunk_trials(spec, spec.n_steps, max(max(b) for b in spec.boxes),
                          4 * len(spec.boxes))
    box_max = tuple(max(b[l] for b in spec.boxes) for l in range(spec.kernel.multiplicity))
    tensor = coeff_tensor(spec.kernel, spec.system, box_max, weighted=spec.weighted)
    scale = _residual_scale(spec)
    weighted_system = spec.system if spec.weighted else None
    norm = kernel_norm_sq(spec.kernel, weighted_system=weighted_system)
    diffs, samples = _mc_pass(spec, tensor, spec.n_steps, correction, chunk)
    allowances = np.zeros(len(spec.boxes))
    if spec.richardson and spec.n_steps >= 2:
        half_diffs, _ = _mc_pass(spec, tensor, spec.n_steps // 2, correction, chunk)
        mse_half = np.mean(half_diffs**2, axis=0)
        mse_full = np.mean(diffs**2, axis=0)
        # first-order bias model: error(N) ~ c * dt, so error(N) ~ mse(N/2) - mse(N)
        allowances = np.abs(mse_half - mse_full)
    stats = []
    for b, box in enumerate(spec.boxes):
        d2 = diffs[:, b] ** 2
        mse = float(np.mean(d2))
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
                    correction, tuple(stats), time.perf_counter() - t0)


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
    zero cross-correlations of the basis random variables."""
    if spec.trials < 10**3:
        raise ConfigError("moment_suite needs at least 1000 trials")
    drv = spec.driver
    gaussian = drv.kind != "poisson"
    rows = drv.m + 1 if gaussian else len(spec.combo)
    chunk = _chunk_trials(spec, spec.n_steps, j_max, rows * (j_max + 1))
    part = make_partition(spec.kernel.interval, spec.n_steps)
    phi = spec.system.eval_table(j_max, part.left_nodes)

    def shard(lo, hi):
        out = np.empty((hi - lo, rows, j_max + 1))
        for first, variables, _ in _trial_chunks(spec, part, phi, chunk, lo, hi):
            out[first:first + len(variables.table)] = variables.table
        return (out,)

    (tables,) = _sharded(shard, spec.trials, chunk)
    tests: list[MomentTest] = []
    if gaussian:
        tables = tables[:, 1:]
        steps = part.step_variances(drv.rho) if drv.kind == "martingale" else part.deltas
        var_target = phi**2 @ steps  # exact for the sampler
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
