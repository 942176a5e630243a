"""Monte Carlo experiment orchestration and statistics.

One experiment couples, trial by trial, a brute-force discretized integral
(the oracle) with the truncated series expansion evaluated on the very same
realization, and reports the mean squared difference per truncation box
next to the theoretical truncation residual.  A moment suite z-tests the
basis random variables against their analytic means and covariances.

Both run one chunked trial loop: everything that depends only on the
partition is prepared once per pass, trials are drawn one by one into a
buffer of at most CHUNK_BYTES, and each chunk is evaluated by batched
operations that treat every trial alike, so results do not depend on the
chunk size.
"""

from __future__ import annotations

import csv
import json
import math
import numbers
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
        if isinstance(self.seed, bool) or not isinstance(self.seed, numbers.Integral) \
                or self.seed < 0:
            raise ConfigError(f"seed must be a nonnegative integer, got {self.seed!r}")
        object.__setattr__(self, "seed", int(self.seed))
        if self.correction not in ("auto", *expansions.CORRECTIONS):
            raise ConfigError(f"correction must be 'auto' or one of {expansions.CORRECTIONS}, "
                              f"got {self.correction!r}")
        object.__setattr__(self, "combo", tuple(int(i) for i in self.combo))
        object.__setattr__(self, "boxes", tuple(tuple(int(p) for p in b) for b in self.boxes))
        if self.trials < 1:
            raise ConfigError("trials must be >= 1")
        if not self.boxes:
            raise ConfigError("at least one truncation box is required")
        k = self.kernel.multiplicity
        if any(len(b) != k for b in self.boxes) or len(self.combo) != k:
            raise ConfigError("boxes and combo must match the kernel multiplicity")
        if any(not 0 <= i <= self.driver.m for i in self.combo):
            raise ConfigError(f"combo components must lie in 0..{self.driver.m}")
        if self.n_steps < 1:
            raise ConfigError("n_steps must be >= 1")
        if self.driver.kind == "poisson":
            mf = self.driver.mark_factors
            if mf is None or len(mf) != k:
                raise ConfigError("poisson experiments need one mark factor per slot")


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
    if spec.driver.kind in ("wiener", "martingale"):
        return "pairing_general"
    nz = [i for i in spec.combo if i != 0]
    if len(nz) == len(set(nz)):
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
    left-node tables, one chunk's buffers and the kept_per_trial result
    floats of every trial would exceed MEMORY_BUDGET."""
    k = spec.kernel.multiplicity
    rows = spec.driver.m + 1 if spec.driver.kind != "poisson" else 0
    per_trial = 8 * n_steps * (rows + k)  # increments and slot increments
    chunk = max(1, min(spec.trials, CHUNK_BYTES // per_trial))
    # nodes, deltas, step variances, basis table, kernel factors
    tables = 8 * (n_steps + 1) * (3 + p_max + 1 + k)
    need = tables + chunk * per_trial + 8 * spec.trials * kept_per_trial
    if need > MEMORY_BUDGET:
        raise SizeError(f"a trial loop over {n_steps} steps and {spec.trials} trials would hold "
                        f"{need / 2**30:.3g} GiB, over the budget {MEMORY_BUDGET / 2**30:.3g} GiB")
    return chunk


def _trial_chunks(spec: ExperimentSpec, part, phi: np.ndarray, chunk: int):
    """Yield (first trial, basis variables, slot increments) per chunk of trials.

    Trials are drawn one by one through the public samplers from their
    trial_seed substreams into the chunk's buffers; the variables have a
    leading trial axis and the slot increments shape (trials, k, N).
    phi is the basis table on the partition's left nodes."""
    drv, combo = spec.driver, spec.combo
    gaussian = drv.kind != "poisson"
    p_max = phi.shape[0] - 1
    time_ints = None if gaussian else expansions._basis_time_integrals(spec.system, p_max)
    for start in range(0, spec.trials, chunk):
        size = min(chunk, spec.trials - start)
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
        yield start, variables, incs


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
    diffs = np.empty((spec.trials, len(subs)))
    samples = np.empty_like(diffs)
    for start, variables, incs in _trial_chunks(spec, part, phi, chunk):
        rows = slice(start, start + len(incs))
        gk_sums = None
        if correction == "prelimit":
            gk_sums = np.stack([oracle.gk_correction_tensor([phi] * k, inc) for inc in incs])
        for b, sub in enumerate(subs):
            samples[rows, b] = expansions.expand(sub, variables, spec.combo,
                                                 correction=correction, gk_sums=gk_sums).value
        diffs[rows] = oracle.nested_sum(psi * incs)[:, None] - samples[rows]
    return diffs, samples


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
    tables = np.empty((spec.trials, rows, j_max + 1))
    for start, variables, _ in _trial_chunks(spec, part, phi, chunk):
        tables[start:start + len(variables.table)] = variables.table
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
