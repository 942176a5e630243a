"""End-to-end correctness checks with independent oracles.

Every check pins a library result against something computed outside the
main code path: closed forms, brute-force Riemann sums on dense grids, or
high-precision bisection.  The registry backs both the test suite and the
``validate`` CLI command; the "quick" profile runs scaled-down versions of
the stochastic checks, the "full" profile runs them at reference size.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import mpmath
import numpy as np

from . import basis, expansions, kernel as kernel_mod, oracle
from .basis import Interval, bessel_roots, bessel_unit, bessel_weighted, gram_matrix
from .drivers import (exponential_measure, make_partition, martingale_from_wiener,
                      sample_gaussian_martingale, sample_poisson, sample_wiener, trial_seed)
from .expansions import expand, martingale_variables, wiener_variables
from .harness import DriverConfig, ExperimentSpec, moment_suite, power_mark, run_experiment
from .kernel import coeff_tensor, kernel_norm_sq, unit_kernel

__all__ = ["CriterionResult", "CRITERIA", "run_profile", "format_result", "explicit_bracket"]

SEED = 20260823


@dataclass(frozen=True)
class CriterionResult:
    name: str
    passed: bool
    detail: str
    seconds: float


def _result(name, t0, passed, detail) -> CriterionResult:
    return CriterionResult(name, bool(passed), detail, time.perf_counter() - t0)


def format_result(r: CriterionResult) -> str:
    status = "PASS" if r.passed else "FAIL"
    return f"[{status}] {r.name} ({r.seconds:.1f}s): {r.detail}"


# ----------------------------------------------------------------------------
# independent oracles

def _riemann_double_coeffs(system, span_interval, box, n=2**14) -> np.ndarray:
    """Brute-force left-point Riemann values of the double-integral
    coefficients; independent of the quadrature stack (plain cumsum)."""
    a, b = span_interval.start, span_interval.end
    dt = (b - a) / n
    x = a + dt * np.arange(n)
    phi = system.eval_table(max(box), x)
    out = np.empty((box[0] + 1, box[1] + 1))
    for j1 in range(box[0] + 1):
        inner = np.concatenate([[0.0], np.cumsum(phi[j1] * dt)])[:-1]
        for j2 in range(box[1] + 1):
            out[j1, j2] = np.sum(phi[j2] * inner * dt)
    return out


def _mpmath_bessel_roots(order: int, count: int, dps: int = 30) -> np.ndarray:
    """High-precision bisection on mpmath's Bessel J, seeded by a coarse scan."""
    with mpmath.workdps(dps):
        f = lambda x: mpmath.besselj(order, x)
        roots = []
        x, step = mpmath.mpf("0.1"), mpmath.mpf("0.05")
        prev = f(x)
        while len(roots) < count:
            y = x + step
            cur = f(y)
            if prev * cur < 0:
                roots.append(float(mpmath.findroot(f, (x, y), solver="bisect", tol=1e-28)))
            x, prev = y, cur
        return np.asarray(roots)


def explicit_bracket(values: np.ndarray, vectors, combo, gram: np.ndarray) -> float:
    """The transformed indicator formulas for k = 1..4, written out: the
    oracle for expansions.pairing_bracket.  Each tie is one einsum in which
    each tied pair (a, b) takes the operand gram[:p_a + 1, :p_b + 1], so no code
    of the expansions module (enumeration or contraction) is reused."""
    k = values.ndim
    if not 1 <= k <= 4:
        raise ValueError("explicit formulas cover multiplicities 1..4 only")

    def ind(a, b):
        return 1.0 if combo[a] == combo[b] != 0 else 0.0

    def tie(*pairs):
        letters = "abcd"[:k]
        free = [g for g in range(k) if all(g not in pair for pair in pairs)]
        subscripts = ",".join([letters, *(letters[a] + letters[b] for a, b in pairs),
                               *(letters[g] for g in free)]) + "->"
        ties = [gram[:values.shape[a], :values.shape[b]] for a, b in pairs]
        return float(np.einsum(subscripts, values, *ties, *(vectors[g] for g in free)))

    out = tie()
    for a, b in ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)):
        if b < k:
            out -= ind(a, b) * tie((a, b))
    if k == 4:
        out += (ind(0, 1) * ind(2, 3) * tie((0, 1), (2, 3))
                + ind(0, 2) * ind(1, 3) * tie((0, 2), (1, 3))
                + ind(0, 3) * ind(1, 2) * tie((0, 3), (1, 2)))
    return out


# ----------------------------------------------------------------------------
# criteria

def check_legendre_double_integral_coefficients(full: bool = True) -> CriterionResult:
    t0 = time.perf_counter()
    iv = Interval(0.3, 1.7)
    span = iv.length
    system = basis.legendre(iv)
    p = 10 if full else 6
    tensor = coeff_tensor(unit_kernel(2, iv), system, (p, p))
    expected = np.zeros((p + 1, p + 1))
    expected[0, 0] = span / 2.0
    for i in range(1, p + 1):
        # first axis is the inner integration variable: positive above the
        # diagonal, negative below (confirmed by the Riemann oracle)
        c = span / (2.0 * math.sqrt(4.0 * i * i - 1.0))
        expected[i - 1, i] = c
        expected[i, i - 1] = -c
    err = float(np.max(np.abs(tensor.values - expected)))
    brute = _riemann_double_coeffs(system, iv, (p, p))
    sign_ok = True
    for i in range(1, p + 1):
        sign_ok &= brute[i - 1, i] > 0 > brute[i, i - 1]
        sign_ok &= abs(brute[i - 1, i] - expected[i - 1, i]) < 1e-3
    ok = err < 1e-10 and sign_ok
    return _result("legendre_double_integral_coefficients", t0, ok,
                   f"max |C - closed form| = {err:.2e} (tol 1e-10), "
                   f"signs confirmed by Riemann oracle: {sign_ok}")


def check_parseval_partial_sums(full: bool = True) -> CriterionResult:
    t0 = time.perf_counter()
    iv = Interval(0.3, 1.7)
    span = iv.length
    system = basis.legendre(iv)
    tensor = coeff_tensor(unit_kernel(2, iv), system, (10, 10))
    norm = kernel_norm_sq(tensor.kernel)
    worst = abs(norm - span**2 / 2.0)
    for p in range(1, 11):
        target = span**2 / 4.0 * (1.0 + 2.0 * p / (2.0 * p + 1.0))
        worst = max(worst, abs(tensor.partial_sum((p, p)) - target))
    residual = norm - tensor.partial_sum((10, 10))
    res_err = abs(residual - span**2 / (4.0 * 21.0))
    ok = worst < 1e-9 and res_err < 1e-9
    return _result("parseval_partial_sums", t0, ok,
                   f"max partial-sum error {worst:.2e}, residual error at p=10 "
                   f"{res_err:.2e} (tol 1e-9)")


def check_wiener_mse_tracks_residual(full: bool = True) -> CriterionResult:
    t0 = time.perf_counter()
    iv = Interval(0.0, 1.0)
    if full:
        n_steps, trials, boxes = 2**12, 10**4, ((1, 1), (3, 3), (7, 7), (15, 15))
    else:
        n_steps, trials, boxes = 2**10, 1500, ((1, 1), (7, 7))
    spec = ExperimentSpec(unit_kernel(2, iv), basis.legendre(iv), (1, 2), boxes,
                          DriverConfig("wiener", m=2), n_steps, trials, SEED,
                          richardson=True)
    report = run_experiment(spec)
    mses = [s.mse for s in report.stats]
    decreasing = all(a > b for a, b in zip(mses, mses[1:]))
    in_band = True
    details = []
    for s in report.stats:
        band = 3.0 * s.mse_se + s.allowance
        in_band &= abs(s.mse - s.residual) <= band
        details.append(f"p={s.box[0]}: mse={s.mse:.4e} residual={s.residual:.4e} "
                       f"band={band:.1e}")
    ok = decreasing and in_band
    return _result("wiener_mse_tracks_residual", t0, ok,
                   f"decreasing={decreasing}; " + "; ".join(details))


def check_same_component_pathwise_identity(full: bool = True) -> CriterionResult:
    t0 = time.perf_counter()
    iv = Interval(0.0, 1.0)
    kern = unit_kernel(2, iv)
    system = basis.legendre(iv)
    tensor = coeff_tensor(kern, system, (0, 0))
    trials = 1000 if full else 200
    n_base = 2**14 if full else 2**12

    def max_and_msd(n_steps):
        part = make_partition(iv, n_steps)
        diffs = np.empty(trials)
        for trial in range(trials):
            path = sample_wiener(part, 1, trial_seed(SEED, trial))
            sample = expand(tensor, wiener_variables(path, system, 0), (1, 1))
            dw = path.increment(1)
            oracle_val = (np.sum(dw) ** 2 - np.sum(dw**2)) / 2.0
            diffs[trial] = sample.value - oracle_val
        return float(np.max(np.abs(diffs))), float(np.mean(diffs**2))

    max_base, msd_base = max_and_msd(n_base)
    _, msd_double = max_and_msd(2 * n_base)
    ratio = msd_double / msd_base
    ok = max_base < 5e-2 and 0.4 <= ratio <= 0.6
    return _result("same_component_pathwise_identity", t0, ok,
                   f"max |diff| = {max_base:.3e} at N={n_base} (tol 5e-2); "
                   f"mean-square diff ratio after doubling N = {ratio:.3f} "
                   f"(target 0.5 +- 20%)")


def check_pairing_explicit_equivalence(full: bool = True) -> CriterionResult:
    t0 = time.perf_counter()
    rng = np.random.default_rng(SEED)
    n_tables = 100 if full else 20
    boxes = {2: (2, 3), 3: (2, 2, 2), 4: (1, 2, 2, 1)}
    worst = 0.0
    for k in (2, 3, 4):
        box = boxes[k]
        combos = [tuple(c) for c in np.ndindex(*([3] * k))]
        for _ in range(n_tables):
            values = rng.standard_normal(tuple(p + 1 for p in box))
            vectors = [rng.standard_normal(p + 1) for p in box]
            half = rng.standard_normal((4, 4))
            for gram in (np.eye(4), half + half.T):  # the tie of orthonormal variables, and any
                for combo in combos:
                    a = expansions.pairing_bracket(values, vectors, combo, gram)
                    b = explicit_bracket(values, vectors, combo, gram)
                    worst = max(worst, abs(a - b))
    ok = worst < 1e-12
    return _result("pairing_explicit_equivalence", t0, ok,
                   f"max |pairing - explicit| = {worst:.2e} over k=2..4, "
                   f"combos in {{0,1,2}}^k, {n_tables} random tables, each with the "
                   f"identity and a random symmetric Gram matrix (tol 1e-12)")


def check_poisson_variable_moments(full: bool = True) -> CriterionResult:
    t0 = time.perf_counter()
    iv = Interval(0.0, 1.0)
    measure = exponential_measure(5.0)
    marks = (power_mark(1.0), power_mark(1.0))
    trials = 10**4 if full else 2000
    spec = ExperimentSpec(unit_kernel(2, iv), basis.legendre(iv), (1, 2), ((0, 0),),
                          DriverConfig("poisson", m=2, intensity=measure, mark_factors=marks),
                          2**6, trials, SEED)
    report = moment_suite(spec, j_max=3)
    iso = measure.moment(power_mark(1.0), 2.0)  # = 10 for 5 * Exp(1), phi(y) = y
    var_tests = [tst for tst in report.tests if tst.name.startswith("var")]
    iso_ok = all(abs(tst.expected - iso) < 1e-12 for tst in var_tests)
    # single-integral expansion equals the oracle pathwise (constant basis
    # member makes the left-point sum exact)
    k1 = unit_kernel(1, iv)
    system = basis.legendre(iv)
    tensor = coeff_tensor(k1, system, (0,))
    part = make_partition(iv, 2**10)
    worst = 0.0
    for trial in range(100 if full else 20):
        realization = sample_poisson(iv, 1, measure, trial_seed(SEED + 1, trial))
        variables = expansions.poisson_variables(realization, system, marks[:1], (1,), 0)
        sample = expand(tensor, variables, (1,), correction="pairing_general")
        oracle_val = oracle.iterated_sum(k1, realization, (1,), part, marks[:1]).value
        worst = max(worst, abs(sample.value - oracle_val))
    ok = (not report.flagged) and iso_ok and worst < 1e-9
    return _result("poisson_variable_moments", t0, ok,
                   f"moment suite: {report.n_failed} of {len(report.tests)} z-tests "
                   f"outside 3 sigma (flag threshold 2); variance target {iso:.1f}; "
                   f"single-integral pathwise gap {worst:.2e}")


def check_poisson_k2_mse(full: bool = True) -> CriterionResult:
    t0 = time.perf_counter()
    iv = Interval(0.0, 1.0)
    measure = exponential_measure(5.0)
    marks = (power_mark(1.0), power_mark(1.0))
    if full:
        n_steps, trials, box = 2**12, 200, (12, 12)
    else:
        n_steps, trials, box = 2**10, 60, (8, 8)
    spec = ExperimentSpec(unit_kernel(2, iv), basis.legendre(iv), (1, 2), (box,),
                          DriverConfig("poisson", m=2, intensity=measure, mark_factors=marks),
                          n_steps, trials, SEED)
    report = run_experiment(spec)
    s = report.stats[0]
    ok = s.mse <= s.residual + 3.0 * s.mse_se
    return _result("poisson_k2_mse", t0, ok,
                   f"mse={s.mse:.4e} vs scaled residual {s.residual:.4e} "
                   f"+ 3 sigma {3.0 * s.mse_se:.1e}")


def check_weighted_two_route_equivalence(full: bool = True) -> CriterionResult:
    t0 = time.perf_counter()
    end = 1.0
    iv = Interval(0.0, end)
    weighted_sys = bessel_weighted(end, 0)
    plain_sys = bessel_unit(end, 0)
    box = (5, 5)
    # route A: martingale with variance density tau, unit kernel, weighted
    # system; route B: the same integral rewritten over the Wiener path,
    # which puts a sqrt(tau) factor into each kernel level
    weighted_tensor = coeff_tensor(unit_kernel(2, iv), weighted_sys, box)
    sqrt_kern = kernel_mod.Kernel((kernel_mod.Factor("sqrt_shift"),
                                   kernel_mod.Factor("sqrt_shift")), iv)
    plain_tensor = coeff_tensor(sqrt_kern, plain_sys, box)
    coeff_gap = float(np.max(np.abs(weighted_tensor.values - plain_tensor.values)))
    n_steps = 2**14 if full else 2**12
    part = make_partition(iv, n_steps)
    path = sample_wiener(part, 2, trial_seed(SEED, 0))
    mart = martingale_from_wiener(path, lambda x: x)
    xi = martingale_variables(mart, weighted_sys, box[0])
    zeta = wiener_variables(path, plain_sys, box[0])
    v1 = expand(weighted_tensor, xi, (1, 2)).value
    v2 = expand(plain_tensor, zeta, (1, 2)).value
    path_gap = abs(v1 - v2)
    ok = coeff_gap < 1e-8 and path_gap < 1e-6
    return _result("weighted_two_route_equivalence", t0, ok,
                   f"max coefficient gap {coeff_gap:.2e} (tol 1e-8), pathwise "
                   f"expansion gap {path_gap:.2e} (tol 1e-6) at N={n_steps}")


def check_constant_density_reductions(full: bool = True) -> CriterionResult:
    t0 = time.perf_counter()
    iv = Interval(0.0, 1.0)
    part = make_partition(iv, 2**8)
    seed = trial_seed(SEED, 7)
    wie = sample_wiener(part, 2, seed)
    mart = sample_gaussian_martingale(part, 2, 1.0, seed)
    bitwise = np.array_equal(wie.increments, mart.increments)
    base = dict(kernel=unit_kernel(2, iv), system=basis.legendre(iv), combo=(1, 2),
                boxes=((3, 3),), n_steps=2**8, trials=100, seed=SEED)
    rep_w = run_experiment(ExperimentSpec(driver=DriverConfig("wiener", m=2), **base))
    rep_m = run_experiment(ExperimentSpec(
        driver=DriverConfig("martingale", m=2, rho=1.0), **base))
    pipeline = all(a.mse == b.mse and a.mean == b.mean
                   for a, b in zip(rep_w.stats, rep_m.stats))
    return _result("constant_density_reductions", t0, bitwise and pipeline,
                   f"rho=1 increments bitwise equal: {bitwise}; pipelines identical: {pipeline}")


def check_basis_integrity(full: bool = True) -> CriterionResult:
    t0 = time.perf_counter()
    iv = Interval(0.0, 1.0)
    details = []
    ok = True
    for system, count in ((basis.legendre(iv), 8), (basis.trigonometric(iv), 8),
                          (basis.haar(iv), 7), (basis.walsh(iv), 8),
                          (bessel_weighted(1.0, 0), 5)):
        dev = float(np.max(np.abs(gram_matrix(system, count) - np.eye(count))))
        ok &= dev < basis.GRAM_TOLERANCES[system.kind]
        details.append(f"{system.kind} gram dev {dev:.1e}")
    for order, count in ((0, 10 if full else 5), (1, 5)):
        got = bessel_roots(order, count).roots
        want = _mpmath_bessel_roots(order, count)
        dev = float(np.max(np.abs(got - want)))
        ok &= dev < 1e-12
        details.append(f"J_{order} roots vs bisection oracle {dev:.1e}")
    return _result("basis_integrity", t0, ok, "; ".join(details))


CRITERIA = (
    ("legendre_double_integral_coefficients", check_legendre_double_integral_coefficients),
    ("parseval_partial_sums", check_parseval_partial_sums),
    ("wiener_mse_tracks_residual", check_wiener_mse_tracks_residual),
    ("same_component_pathwise_identity", check_same_component_pathwise_identity),
    ("pairing_explicit_equivalence", check_pairing_explicit_equivalence),
    ("poisson_variable_moments", check_poisson_variable_moments),
    ("poisson_k2_mse", check_poisson_k2_mse),
    ("weighted_two_route_equivalence", check_weighted_two_route_equivalence),
    ("constant_density_reductions", check_constant_density_reductions),
    ("basis_integrity", check_basis_integrity),
)


def run_profile(profile: str = "full") -> list[CriterionResult]:
    """Run every criterion at the profile's size, printing one verdict line each."""
    if profile not in ("quick", "full"):
        raise ValueError(f"unknown validation profile: {profile}")
    full = profile == "full"
    results = []
    for _, func in CRITERIA:
        r = func(full=full)
        print(format_result(r))
        results.append(r)
    return results
