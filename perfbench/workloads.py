"""The benchmark's four workloads and the checks on their outputs.

Each workload builds its inputs from the benchmark seed, hands out one
*round* of operations (zero-argument calls into stochexpand's public entry
points) for the worker to time, and checks every operation's output
outside the timed region.  A round is one ``converge``
call (``run_experiment`` for ``martingale_mc``) for the Monte Carlo
workloads, and one sweep of four ``coeffs`` calls for ``tensor_build``.

Entry points are looked up as module attributes at call time
(``cli.main``, ``harness.run_experiment``), so the tracer in ``tracer.py``
can wrap them without touching ``src/``.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import math
import os
import random
import traceback

import numpy as np

import stochexpand.cli as cli
from stochexpand import drivers, expansions, harness, kernel, oracle
from stochexpand.basis import Interval, legendre
from stochexpand.harness import DriverConfig, ExperimentSpec, Z99, power_mark

BOXES = ((1, 1), (3, 3), (7, 7))
N_STEPS = 4096
SHORT_TRIALS = 16  # trials of the short run that is replayed through the public API
REPLAY_TOL = 1e-12
TENSOR_TOL = 1e-10


@dataclasses.dataclass(frozen=True)
class McParams:
    driver: dict | None  # CLI driver block; None for the run_experiment-only martingale
    combo: tuple[int, ...]
    trials: int
    richardson: bool
    correction: str  # the mode `auto` must resolve to


# Trial counts make one round take about a second on one core, so a 24 s run
# yields ~20 rounds and a steady median.
MC_WORKLOADS = {
    "wiener_mc": McParams({"kind": "wiener", "m": 2}, (1, 2), 2000, True, "pairing_general"),
    "martingale_mc": McParams(None, (1, 2), 300, False, "pairing_general"),
    "poisson_prelimit_mc": McParams(
        {"kind": "poisson", "m": 2, "total_mass": 5.0, "mark_powers": [1.0, 1.0]},
        (1, 1), 600, False, "prelimit"),
}

# label -> (kernel factor names, system kind, truncation order per slot)
TENSOR_CONFIGS = {
    "k2_legendre": (("const", "const"), "legendre", 63),
    "k3_haar": (("const",) * 3, "haar", 15),
    "k3_trig": (("exp", "pow", "const"), "trigonometric", 7),
    "k4_legendre": (("const",) * 4, "legendre", 2),
}

WORKLOADS = (*MC_WORKLOADS, "tensor_build")


def rho_one_plus_t(t):
    """Variance density of the martingale workload; not constant, so the
    sampler's per-step quadrature runs on every trial."""
    return 1.0 + np.asarray(t, dtype=float)


@dataclasses.dataclass
class Op:
    """One converge, coeffs or run_experiment call and what became of it."""

    label: str
    errors: list[str] = dataclasses.field(default_factory=list)
    output: object = None  # report document (dict) or CoeffTensor
    digest: str | None = None


def call(fn):
    """Run one operation; an exception becomes the operation's error."""
    try:
        return fn(), None
    except Exception:  # any failure of the program under test is a failed operation
        return None, traceback.format_exc()


def _quiet(fn):
    """fn with the CLI's progress lines kept off the benchmark's stdout."""
    def run():
        with contextlib.redirect_stdout(io.StringIO()):
            return fn()
    return run


def _write_json(path, doc) -> None:
    with open(path, "w") as fh:
        json.dump(doc, fh)


def _read_json(path):
    with open(path) as fh:
        return json.load(fh)


def _finished(op: Op, result, expect_exit_code: bool) -> bool:
    """Record a raised exception or a non-zero exit code; True if the call succeeded."""
    value, err = result
    if err is not None:
        op.errors.append(err)
    elif expect_exit_code and value != 0:
        op.errors.append(f"exit code {value}")
    return not op.errors


def report_digest(doc: dict) -> str:
    stable = {k: v for k, v in doc.items() if k != "runtime_seconds"}
    return hashlib.sha256(json.dumps(stable, sort_keys=True).encode()).hexdigest()


def tensor_digest(tensor: kernel.CoeffTensor) -> str:
    h = hashlib.sha256(repr(tensor.box).encode())
    h.update(np.ascontiguousarray(tensor.values).tobytes())
    return h.hexdigest()


# ----------------------------------------------------------------------------
# checks (pure functions of an output; the tests feed them perturbed outputs)

def check_report(workload: str, doc: dict) -> list[str]:
    """Checks on one Monte Carlo report document."""
    p = MC_WORKLOADS[workload]
    errs = []
    if doc.get("correction") != p.correction:
        errs.append(f"correction {doc.get('correction')!r}, expected {p.correction!r}")
    boxes = doc.get("boxes", [])
    if [tuple(b["box"]) for b in boxes] != list(BOXES):
        errs.append(f"boxes {[b.get('box') for b in boxes]}, expected {list(BOXES)}")
        return errs
    for b in boxes:
        for key in ("mean", "variance", "mse", "mse_halfwidth_99", "allowance"):
            if not math.isfinite(b[key]):
                errs.append(f"box {b['box']}: {key} = {b[key]} is not finite")
        # residual is NaN by design for a non-constant rho and for repeated combos
        if math.isinf(b["residual"]) or (workload == "wiener_mc" and math.isnan(b["residual"])):
            errs.append(f"box {b['box']}: residual = {b['residual']}")
    if errs:
        return errs
    if workload == "wiener_mc":
        for b in boxes:
            bound = 5.0 * b["mse_halfwidth_99"] / Z99 + b["allowance"]
            if abs(b["mse"] - b["residual"]) > bound:
                errs.append(f"box {b['box']}: |mse - residual| = "
                            f"{abs(b['mse'] - b['residual']):.3e} > {bound:.3e}")
    if workload in ("wiener_mc", "martingale_mc"):
        mses = [b["mse"] for b in boxes]
        if any(hi <= lo for hi, lo in zip(mses, mses[1:])):
            errs.append(f"mse does not strictly decrease across boxes: {mses}")
    return errs


def legendre_k2_closed_form(p: int, span: float) -> np.ndarray:
    """Unit k=2 Legendre coefficients: span/2 at [0,0] and
    +-span/(2 sqrt(4i^2-1)) next to the diagonal, zero elsewhere."""
    c = np.zeros((p + 1, p + 1))
    c[0, 0] = span / 2.0
    for i in range(1, p + 1):
        v = span / (2.0 * math.sqrt(4.0 * i * i - 1.0))
        c[i - 1, i] = v
        c[i, i - 1] = -v
    return c


def check_tensor(label: str, tensor: kernel.CoeffTensor, norm_sq: float) -> list[str]:
    """Checks on one coefficient tensor; norm_sq is kernel_norm_sq of its kernel."""
    names, kind, p = TENSOR_CONFIGS[label]
    k = len(names)
    span = tensor.kernel.interval.length
    errs = []
    if tensor.box != (p,) * k or tensor.system.kind != kind:
        return [f"{label}: got a {tensor.system.kind} tensor over box {tensor.box}"]
    if label == "k2_legendre":
        dev = float(np.max(np.abs(tensor.values - legendre_k2_closed_form(p, span))))
        if dev > TENSOR_TOL:
            errs.append(f"{label}: deviates from the closed form by {dev:.3e}")
    if all(n == "const" for n in names):
        want = span ** (k / 2.0) / math.factorial(k)
        got = float(tensor.values[(0,) * k])
        if abs(got - want) > TENSOR_TOL:
            errs.append(f"{label}: C[0..0] = {got!r}, expected {want!r}")
    if tensor.partial_sum() > norm_sq * (1.0 + 1e-12):
        errs.append(f"{label}: partial sum {tensor.partial_sum()!r} exceeds "
                    f"the kernel norm {norm_sq!r}")
    return errs


# ----------------------------------------------------------------------------
# Monte Carlo workloads

def mc_spec(workload: str, seed: int, trials: int) -> ExperimentSpec:
    """The experiment a workload runs, built from public constructors."""
    p = MC_WORKLOADS[workload]
    iv = Interval(0.0, 1.0)
    if workload == "wiener_mc":
        drv = DriverConfig("wiener", m=2)
    elif workload == "martingale_mc":
        drv = DriverConfig("martingale", m=2, rho=rho_one_plus_t)
    else:
        drv = DriverConfig("poisson", m=2,
                           intensity=drivers.exponential_measure(p.driver["total_mass"]),
                           mark_factors=tuple(power_mark(a) for a in p.driver["mark_powers"]))
    return ExperimentSpec(kernel=kernel.unit_kernel(2, iv), system=legendre(iv),
                          combo=p.combo, boxes=BOXES, driver=drv, n_steps=N_STEPS,
                          trials=trials, seed=seed, richardson=p.richardson)


def _sample(spec: ExperimentSpec, part, seed):
    """(realization, basis variables) of one trial, through the public samplers."""
    drv, p_max = spec.driver, max(max(b) for b in spec.boxes)
    if drv.kind == "wiener":
        path = drivers.sample_wiener(part, drv.m, seed)
        return path, expansions.wiener_variables(path, spec.system, p_max)
    if drv.kind == "martingale":
        path = drivers.sample_gaussian_martingale(part, drv.m, drv.rho, seed)
        return path, expansions.martingale_variables(path, spec.system, p_max)
    real = drivers.sample_poisson(spec.kernel.interval, drv.m, drv.intensity, seed)
    return real, expansions.poisson_variables(real, spec.system, drv.mark_factors,
                                              spec.combo, p_max)


def replay(spec: ExperimentSpec, correction: str) -> list[dict]:
    """Per-box statistics of `spec` recomputed trial by trial with the public API:
    sampler -> basis variables -> oracle.iterated_sum -> expansions.expand."""
    k = spec.kernel.multiplicity
    full = kernel.coeff_tensor(spec.kernel, spec.system,
                               tuple(max(b[l] for b in spec.boxes) for l in range(k)))
    subs = [dataclasses.replace(full, box=b, values=full.values[tuple(slice(0, q + 1) for q in b)])
            for b in spec.boxes]
    poisson = spec.driver.kind == "poisson"

    def one_pass(n_steps):
        part = drivers.make_partition(spec.kernel.interval, n_steps)
        diffs = np.empty((spec.trials, len(subs)))
        samples = np.empty_like(diffs)
        for t in range(spec.trials):
            real, variables = _sample(spec, part, drivers.trial_seed(spec.seed, t))
            truth = oracle.iterated_sum(spec.kernel, real, spec.combo,
                                        part if poisson else None,
                                        spec.driver.mark_factors).value
            for b, sub in enumerate(subs):
                samples[t, b] = expansions.expand(
                    sub, variables, spec.combo, correction=correction,
                    realization=real if correction == "prelimit" else None,
                    mark_factors=spec.driver.mark_factors, partition=part).value
                diffs[t, b] = truth - samples[t, b]
        return diffs, samples

    diffs, samples = one_pass(spec.n_steps)
    mse = np.mean(diffs**2, axis=0)
    allowance = np.zeros(len(subs))
    if spec.richardson:
        half, _ = one_pass(spec.n_steps // 2)
        allowance = np.abs(np.mean(half**2, axis=0) - mse)
    return [{"mean": float(np.mean(samples[:, b])),
             "variance": float(np.var(samples[:, b], ddof=1)),
             "mse": float(mse[b]), "allowance": float(allowance[b])}
            for b in range(len(subs))]


def check_replay(doc: dict, expected: list[dict]) -> list[str]:
    errs = []
    for b, want in zip(doc["boxes"], expected):
        for key, value in want.items():
            if not math.isclose(b[key], value, rel_tol=REPLAY_TOL, abs_tol=REPLAY_TOL):
                errs.append(f"box {b['box']}: {key} {b[key]!r} != replay {value!r}")
    return errs


class McWorkload:
    def __init__(self, name: str, seed: int, workdir: str):
        self.name, self.seed = name, seed
        self.params = MC_WORKLOADS[name]
        # trial passes per round; a Richardson half-resolution pass counts as one
        self.work_per_round = self.params.trials * (2 if self.params.richardson else 1)
        self._config = os.path.join(workdir, "converge-config.json")
        self._out = os.path.join(workdir, "converge-out")

    def round_seed(self, r: int) -> int:
        return random.Random(f"{self.name}/{self.seed}/{r}").getrandbits(32)

    def prepare(self, r: int, trials: int | None = None):
        """Untimed inputs of round r: a config file (CLI) or a spec."""
        seed, trials = self.round_seed(r), trials or self.params.trials
        if self.params.driver is None:
            return r, mc_spec(self.name, seed, trials)
        _write_json(self._config, {
            "interval": [0.0, 1.0],
            "kernel": {"factors": [{"name": "const", "param": 1.0}] * 2},
            "system": {"kind": "legendre"},
            "driver": self.params.driver,
            "combo": list(self.params.combo),
            "boxes": [list(b) for b in BOXES],
            "n_steps": N_STEPS,
            "trials": trials,
            "seed": seed,
            "richardson": self.params.richardson,
            "out": self._out,
        })
        return r, None

    def calls(self, inputs):
        _, spec = inputs
        if spec is not None:
            return [lambda: harness.run_experiment(spec)]
        return [_quiet(lambda: cli.main(["converge", "--config", self._config]))]

    def collect(self, inputs, results) -> list[Op]:
        r, spec = inputs
        op = Op(f"{self.name} round {r}")
        if _finished(op, results[0], expect_exit_code=spec is None):
            if spec is not None:
                harness.report_to_json(results[0][0], self._out + ".json")
            op.output = _read_json(self._out + ".json")
            op.digest = report_digest(op.output)
        return [op]

    def check(self, ops: list[Op]) -> None:
        for op in ops:
            if op.output is not None:
                op.errors += check_report(self.name, op.output)

    def extra_ops(self, ops: list[Op]) -> list[Op]:
        """A short run of the same spec, replayed through the public API."""
        inputs = self.prepare(0, SHORT_TRIALS)
        [op] = self.collect(inputs, [call(c) for c in self.calls(inputs)])
        op.label = f"{self.name} short replay run"
        if op.output is not None:
            spec = mc_spec(self.name, self.round_seed(0), SHORT_TRIALS)
            op.errors += check_replay(op.output, replay(spec, self.params.correction))
        return [op]

    def oracle_inputs(self, count: int):
        """Arguments of oracle.iterated_sum on the first realizations of round 0."""
        spec = mc_spec(self.name, self.round_seed(0), count)
        part = drivers.make_partition(spec.kernel.interval, spec.n_steps)
        poisson = spec.driver.kind == "poisson"
        for t in range(count):
            real, _ = _sample(spec, part, drivers.trial_seed(spec.seed, t))
            yield (spec.kernel, real, spec.combo, part if poisson else None,
                   spec.driver.mark_factors)


# ----------------------------------------------------------------------------
# coefficient tensors

def _config_label(op: Op) -> str:
    return op.label.split()[1]  # "coeffs <label> round <r>"


class TensorWorkload:
    work_per_round = len(TENSOR_CONFIGS)  # tensors built per round

    def __init__(self, seed: int, workdir: str):
        self.workdir = workdir
        rng = random.Random(f"tensor_build/{seed}")
        start = rng.uniform(-1.0, 1.0)
        self.interval = (start, start + rng.uniform(0.5, 2.0))
        # one k=3 and one k=4 entry to cross-check against kernel.coeff
        k3 = rng.choice(["k3_haar", "k3_trig"])
        self.probes = [(label, tuple(rng.randint(0, TENSOR_CONFIGS[label][2])
                                     for _ in TENSOR_CONFIGS[label][0]))
                       for label in (k3, "k4_legendre")]
        self._norms: dict[str, float] = {}
        self._first: dict[str, str] = {}

    def _path(self, label: str, what: str) -> str:
        return os.path.join(self.workdir, f"coeffs-{label}-{what}")

    def prepare(self, r: int):
        for label, (names, kind, p) in TENSOR_CONFIGS.items():
            _write_json(self._path(label, "config.json"), {
                "interval": list(self.interval),
                "kernel": {"factors": [{"name": n, "param": 1.0} for n in names]},
                "system": {"kind": kind},
                "box": [p] * len(names),
                "out": self._path(label, "out"),
            })
        return r

    def calls(self, r):
        return [_quiet(lambda label=label: cli.main(
                    ["coeffs", "--config", self._path(label, "config.json")]))
                for label in TENSOR_CONFIGS]

    def collect(self, r, results) -> list[Op]:
        ops = []
        for label, result in zip(TENSOR_CONFIGS, results):
            op = Op(f"coeffs {label} round {r}")
            if _finished(op, result, expect_exit_code=True):
                op.output = kernel.tensor_from_json(self._path(label, "out.json"))
                op.digest = tensor_digest(op.output)
            ops.append(op)
        return ops

    def check(self, ops: list[Op]) -> None:
        for op in ops:
            if op.output is None:
                continue
            label = _config_label(op)
            if label not in self._norms:
                self._norms[label] = kernel.kernel_norm_sq(op.output.kernel)
            op.errors += check_tensor(label, op.output, self._norms[label])
            # every round builds the same tensors: they must agree bitwise
            first = self._first.setdefault(label, op.digest)
            if op.digest != first:
                op.errors.append(f"{label}: differs from the first round's tensor")

    def extra_ops(self, ops: list[Op]) -> list[Op]:
        """Cross-check two k=3/k=4 entries of the first round against kernel.coeff."""
        first = {_config_label(op): op for op in reversed(ops)}
        for label, idx in self.probes:
            op = first[label]
            if op.output is None:
                continue
            want = kernel.coeff(op.output.kernel, op.output.system, idx)
            got = float(op.output.values[idx])
            if abs(got - want) > TENSOR_TOL:
                op.errors.append(f"{label}{list(idx)}: {got!r} != kernel.coeff {want!r}")
        return []

    def oracle_inputs(self, count: int):
        return iter(())


def make(name: str, seed: int, workdir: str):
    if name == "tensor_build":
        return TensorWorkload(seed, workdir)
    return McWorkload(name, seed, workdir)
