import dataclasses
import math
import os
import signal
import time
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from stochexpand import basis, drivers, expansions, harness, oracle
from stochexpand.basis import Interval
from stochexpand.drivers import exponential_measure
from stochexpand.errors import ConfigError, QuadratureError, SizeError, StochexpandError
from stochexpand.harness import (DriverConfig, ExperimentSpec, moment_suite,
                                 power_mark, report_to_csv, report_to_json,
                                 run_experiment)
from stochexpand.kernel import Factor, Kernel, coeff_tensor, kernel_norm_sq, unit_kernel

IV = Interval(0.0, 1.0)
SYS = basis.legendre(IV)


def _rho_one_plus_t(t):
    return 1.0 + np.asarray(t, dtype=float)


def _wiener_spec(**overrides):
    kw = dict(kernel=unit_kernel(2, IV), system=SYS, combo=(1, 2),
              boxes=((1, 1), (3, 3)), driver=DriverConfig("wiener", m=2),
              n_steps=2**8, trials=200, seed=101)
    kw.update(overrides)
    return ExperimentSpec(**kw)


def test_reproducibility():
    a = run_experiment(_wiener_spec())
    b = run_experiment(_wiener_spec())
    for sa, sb in zip(a.stats, b.stats):
        assert sa.mse == sb.mse
        assert sa.mean == sb.mean
        assert sa.variance == sb.variance


def test_mse_tracks_residual_small():
    report = run_experiment(_wiener_spec(trials=2000, n_steps=2**10, richardson=True))
    for s in report.stats:
        assert abs(s.mse - s.residual) <= 3 * s.mse_se + s.allowance
    assert report.stats[0].mse > report.stats[1].mse


def test_k1_expansion_is_exact_at_p0():
    spec = _wiener_spec(kernel=unit_kernel(1, IV), combo=(1,), boxes=((0,),),
                        driver=DriverConfig("wiener", m=1), trials=50)
    report = run_experiment(spec)
    # phi_0 constant: the truncated series reproduces the left-point sum
    assert report.stats[0].mse < 1e-24


def test_poisson_experiment():
    driver = DriverConfig("poisson", m=2, intensity=exponential_measure(5.0),
                          mark_factors=(power_mark(1.0), power_mark(1.0)))
    report = run_experiment(_wiener_spec(driver=driver, boxes=((6, 6),),
                                         trials=100, n_steps=2**9))
    s = report.stats[0]
    assert np.isfinite(s.mse)
    assert s.residual > 0  # scaled by the per-slot mark second moments
    assert s.mse < s.residual + 5 * s.mse_se + 0.5


def test_martingale_constant_density_residual_scale():
    driver = DriverConfig("martingale", m=2, rho=2.0)
    report = run_experiment(_wiener_spec(driver=driver, trials=100))
    # residual scales with rho^k = 4
    wiener = run_experiment(_wiener_spec(trials=100))
    for sm, sw in zip(report.stats, wiener.stats):
        assert sm.residual == pytest.approx(4.0 * sw.residual, rel=1e-12)


def test_coincident_poisson_uses_prelimit():
    driver = DriverConfig("poisson", m=1, intensity=exponential_measure(3.0),
                          mark_factors=(power_mark(1.0), power_mark(1.0)))
    report = run_experiment(_wiener_spec(driver=driver, combo=(1, 1),
                                         boxes=((4, 4),), trials=30, n_steps=2**8))
    assert report.correction == "prelimit"
    assert np.isnan(report.stats[0].residual)


def test_martingale_pairs_need_the_systems_measure():
    # rho == 1: the ties take I, and the stats are the Wiener driver's
    report = run_experiment(_wiener_spec(driver=DriverConfig("martingale", m=2, rho=1.0),
                                         combo=(1, 1), trials=50))
    assert report.correction == "pairing_general"
    np.testing.assert_array_equal(_stats(report),
                                  _stats(run_experiment(_wiener_spec(combo=(1, 1), trials=50))))
    # on a weighted system the system's measure is its weight, which rho == 1 is not: the
    # ties take int phi_j phi_j' dt, far from I, and the weight itself gives I
    weighted = basis.bessel_weighted(1.0)
    spec = _wiener_spec(system=weighted, combo=(1, 1),
                        driver=DriverConfig("martingale", m=2, rho=1.0))
    assert spec.correction == "pairing_general"
    unit = expansions.gaussian_gram(weighted, 1.0, 4)
    np.testing.assert_array_equal(unit, basis.gram_matrix(weighted, 4, lambda x: np.ones_like(x)))
    assert np.max(np.abs(unit - np.eye(4))) > 1.0
    assert np.max(np.abs(expansions.gaussian_gram(weighted, _rho_t, 4) - np.eye(4))) < 1e-12
    with pytest.raises(ConfigError):
        DriverConfig("martingale", m=2, rho=-1.0)


@pytest.mark.parametrize("rho", [2.0, _rho_one_plus_t], ids=["rho_2", "rho_1_plus_t"])
def test_gaussian_ties_take_the_limit_form(rho):
    # unit kernel, (1, 1): every box gives (M_T^2 - int rho) / 2 and the oracle
    # (M_T^2 - sum_l dM_l^2) / 2, so the MSE is Var(sum_l dM_l^2) / 4 = sum_l v_l^2 / 2
    spec = _wiener_spec(driver=DriverConfig("martingale", m=2, rho=rho), combo=(1, 1),
                        boxes=((0, 0), (3, 3)), n_steps=256, trials=4000)
    assert spec.correction == "pairing_general"
    want = 0.5 * np.sum(drivers.make_partition(IV, 256).step_variances(rho) ** 2)
    for s in run_experiment(spec).stats:
        assert abs(s.mse - want) <= 4.0 * s.mse_se


def test_each_driver_kind_takes_only_its_parameters():
    # a Wiener driver is the rho == 1 martingale: a density given to it (or to a
    # Poisson driver) would reach the residual and the half pass, not the sampler
    poisson = dict(intensity=exponential_measure(5.0), mark_factors=(power_mark(1.0),) * 2)
    for rho in (1.0, 2.0, _rho_one_plus_t):
        with pytest.raises(ConfigError, match="does not take rho"):
            DriverConfig("wiener", m=2, rho=rho)
        with pytest.raises(ConfigError, match="does not take rho"):
            DriverConfig("poisson", m=2, rho=rho, **poisson)
        assert DriverConfig("martingale", m=2, rho=rho).rho is rho
    # and the intensity measure and mark factors belong to a Poisson driver alone
    for key, value in poisson.items():
        with pytest.raises(ConfigError, match=f"wiener driver does not take {key}"):
            DriverConfig("wiener", m=2, **{key: value})
        with pytest.raises(ConfigError, match=f"martingale driver does not take {key}"):
            DriverConfig("martingale", m=2, rho=2.0, **{key: value})


def _rho_t(t):
    return np.asarray(t, dtype=float)


RULE_DRIVERS = {
    "wiener": DriverConfig("wiener", m=2),
    "rho=2": DriverConfig("martingale", m=2, rho=2.0),
    "rho=1+t": DriverConfig("martingale", m=2, rho=_rho_one_plus_t),
    "rho=t": DriverConfig("martingale", m=2, rho=_rho_t),
    "rho=1e4": DriverConfig("martingale", m=2, rho=1e4),
    "poisson": DriverConfig("poisson", m=2, intensity=exponential_measure(5.0),
                            mark_factors=(power_mark(1.0),) * 2),
}
RULE_SYSTEMS = {"legendre": SYS, "bessel_weighted": basis.bessel_weighted(1.0)}
NAN = float("nan")
MOMENT = RULE_DRIVERS["poisson"].intensity.moment(power_mark(1.0), 2.0)  # int y^2 dPi
# driver, system, combo -> the correction the spec derives and the residual's
# factor on the coefficient residual (NaN: no closed form); None: the spec is
# rejected, sup rho / r being unbounded
ONE_RULE = {
    ("wiener", "legendre", (1, 2)): ("pairing_general", 1.0),
    ("wiener", "legendre", (1, 1)): ("pairing_general", NAN),
    ("rho=2", "legendre", (1, 2)): ("pairing_general", 4.0),
    ("rho=2", "legendre", (1, 1)): ("pairing_general", NAN),
    ("rho=1+t", "legendre", (1, 2)): ("pairing_general", NAN),
    ("rho=1+t", "legendre", (1, 1)): ("pairing_general", NAN),
    ("rho=t", "legendre", (1, 2)): ("pairing_general", NAN),
    ("rho=t", "legendre", (1, 1)): ("pairing_general", NAN),
    ("rho=1e4", "legendre", (1, 2)): ("pairing_general", 1e8),
    ("rho=1e4", "legendre", (1, 1)): ("pairing_general", NAN),
    ("poisson", "legendre", (1, 2)): ("pairing_general", MOMENT * MOMENT),
    ("poisson", "legendre", (1, 1)): ("prelimit", NAN),
    ("wiener", "bessel_weighted", (1, 2)): ("pairing_general", NAN),
    ("wiener", "bessel_weighted", (1, 1)): ("pairing_general", NAN),
    ("rho=2", "bessel_weighted", (1, 2)): ("pairing_general", NAN),
    ("rho=2", "bessel_weighted", (1, 1)): ("pairing_general", NAN),
    ("rho=1+t", "bessel_weighted", (1, 2)): ("pairing_general", NAN),
    ("rho=1+t", "bessel_weighted", (1, 1)): ("pairing_general", NAN),
    ("rho=t", "bessel_weighted", (1, 2)): ("pairing_general", 1.0),
    ("rho=t", "bessel_weighted", (1, 1)): ("pairing_general", NAN),
    ("rho=1e4", "bessel_weighted", (1, 2)): None,
    ("rho=1e4", "bessel_weighted", (1, 1)): None,
    ("poisson", "bessel_weighted", (1, 2)): ("pairing_general", NAN),
    ("poisson", "bessel_weighted", (1, 1)): ("prelimit", NAN),
}


@pytest.mark.parametrize("driver, system, combo", ONE_RULE,
                         ids=[f"{d}-{s}-{''.join(map(str, c))}" for d, s, c in ONE_RULE])
def test_driver_meets_system_by_one_rule(driver, system, combo):
    kw = dict(driver=RULE_DRIVERS[driver], system=RULE_SYSTEMS[system], combo=combo,
              trials=3, n_steps=16)
    if ONE_RULE[driver, system, combo] is None:
        with pytest.raises(ConfigError, match="appears unbounded"):
            _wiener_spec(**kw)
        return
    auto, factor = ONE_RULE[driver, system, combo]
    spec = _wiener_spec(**kw)
    assert spec.correction == auto
    report = run_experiment(spec)
    assert report.correction == auto
    # the coefficient residual in the system's own (weighted) norm, times the factor
    tensor = coeff_tensor(spec.kernel, spec.system, (3, 3))
    norm = kernel_norm_sq(spec.kernel, spec.system)
    for s in report.stats:
        assert np.isfinite(s.mse)
        if np.isnan(factor):
            assert np.isnan(s.residual)
        else:
            assert s.residual == factor * (norm - tensor.partial_sum(s.box)) > 0
    # the driver decides the correction: no caller sets it
    with pytest.raises(TypeError):
        _wiener_spec(correction=auto, **kw)


# sup 1 / x over slot_scales' grid on [0, 1e-3] is 2.05e6, over RATIO_BOUND
SHORT_WEIGHTED = dict(kernel=unit_kernel(2, Interval(0.0, 1e-3)),
                      system=basis.bessel_weighted(1e-3))


def test_only_a_gaussian_law_checks_rho_against_the_weight():
    # a Poisson driver takes no rho: its law checks the marks and never the ratio
    for combo, auto in (((1, 2), "pairing_general"), ((1, 1), "prelimit")):
        report = run_experiment(_wiener_spec(driver=RULE_DRIVERS["poisson"], combo=combo,
                                             **SHORT_WEIGHTED))
        assert report.correction == auto
        for s in report.stats:
            assert np.isfinite([s.mean, s.variance, s.mse]).all() and np.isnan(s.residual)
        for driver in ("wiener", "rho=2"):
            with pytest.raises(ConfigError, match="appears unbounded"):
                _wiener_spec(driver=RULE_DRIVERS[driver], combo=combo, **SHORT_WEIGHTED)


def test_only_a_gaussian_law_evaluates_the_weight(monkeypatch):
    def weight(self, x):
        raise AssertionError("the system's weight was evaluated")

    monkeypatch.setattr(basis.OrthonormalSystem, "weight", weight)
    for system in (SYS, basis.bessel_weighted(1.0)):
        assert _wiener_spec(driver=RULE_DRIVERS["poisson"], system=system).slot_scales
        with pytest.raises(AssertionError, match="weight was evaluated"):
            _wiener_spec(driver=RULE_DRIVERS["wiener"], system=system)


def test_the_laws_keep_one_contract():
    # a per-kind rule is a method on every law; sample is the hook through which
    # _Wiener calls sample_wiener
    def public(law):
        return {name for name in dir(law) if not name.startswith("_")}

    # gk_base too, on the Poisson law alone: only repeated Poisson components run prelimit
    assert public(harness._Gaussian) - {"sample"} == public(harness._Poisson) - {"gk_base"} == {
        "parameters", "slot_scales", "ties_take_bracket", "residual_factor", "prepare", "plan",
        "draw", "moment_tests"}
    # whether a tie takes a bracket is the driver kind's, whatever its inputs
    assert harness._Gaussian.ties_take_bracket is True
    assert harness._Poisson.ties_take_bracket is False


def test_spec_validation():
    with pytest.raises(ConfigError):
        _wiener_spec(trials=0)
    with pytest.raises(ConfigError):
        _wiener_spec(combo=(1, 5))
    with pytest.raises(ConfigError):
        _wiener_spec(boxes=())
    with pytest.raises(ConfigError):
        DriverConfig("poisson", m=1)
    spec = _wiener_spec()
    with pytest.raises(dataclasses.FrozenInstanceError):
        spec.correction = "prelimit"  # derived from the driver and the system, read-only
    assert spec.correction == "pairing_general"


@pytest.mark.parametrize("rho", ["2", 2 + 0j, [1.0, 2.0], True, np.True_, math.nan, None],
                         ids=["string", "complex", "list", "bool", "numpy_bool", "nan", "none"])
def test_martingale_density_is_a_callable_or_a_real_number(rho):
    with pytest.raises(ConfigError, match="variance density rho"):
        DriverConfig("martingale", m=2, rho=rho)
    for good in (2, 2.5, np.float64(0.0), np.int64(3), lambda t: 1.0 + t):
        assert DriverConfig("martingale", m=2, rho=good).rho is good


BAD_RHOS = {
    "negative_half": lambda t: 1.0 - 2.0 * np.asarray(t, dtype=float),
    "nan_piece": lambda t: np.where(np.asarray(t) > 0.5, np.nan, 1.0),
    "inf_piece": lambda t: np.where(np.asarray(t) > 0.5, np.inf, 1.0),
}


@pytest.mark.parametrize("system", RULE_SYSTEMS)
@pytest.mark.parametrize("rho", BAD_RHOS)
def test_bad_density_fails_at_construction(rho, system):
    with pytest.raises(ConfigError, match="negative or not finite"):
        _wiener_spec(driver=DriverConfig("martingale", m=2, rho=BAD_RHOS[rho]),
                     system=RULE_SYSTEMS[system])


def test_overflowing_mark_moment_fails_at_construction():
    driver = DriverConfig("poisson", m=2, intensity=exponential_measure(5.0),
                          mark_factors=(power_mark(1e300), power_mark(1.0)))
    with pytest.raises(ConfigError, match="mark moment of order 8.0 is not finite"):
        _wiener_spec(driver=driver)


@pytest.mark.parametrize("power, rejected", [(-1 / 8, True), (-0.1, False)])
def test_mark_singular_at_zero_fails_at_construction(power, rejected):
    # k = 2 needs the moment of order 8: int y^(8a) e^-y dy is finite iff 8a > -1
    driver = DriverConfig("poisson", m=2, intensity=exponential_measure(5.0),
                          mark_factors=(power_mark(power), power_mark(1.0)))
    if rejected:
        with pytest.raises(ConfigError, match="singular at 0"):
            _wiener_spec(driver=driver)
    else:
        _wiener_spec(driver=driver)


def test_constant_callable_density_matches_the_number():
    # a callable that returns a scalar is broadcast to its argument's shape
    reports = [run_experiment(_wiener_spec(driver=DriverConfig("martingale", m=2, rho=rho),
                                           richardson=True))
               for rho in (2.0, lambda t: 2.0)]
    a, b = (dataclasses.replace(r, runtime=0.0) for r in reports)
    assert repr(a) == repr(b)


def test_density_negative_between_grid_points_fails_before_the_tensor(monkeypatch):
    # negative strictly between two points of slot_scales' grid on [0, 1], on a
    # span that holds several of the 32 quadrature nodes of a step of 1/256
    h = 1.0 / (harness.RATIO_GRID + 1)
    lo, hi = 1000 * h + 1e-6, 1001 * h - 1e-6

    def rho(t):
        t = np.asarray(t, dtype=float)
        return np.where((lo < t) & (t < hi), -1.0, 1.0)

    spec = _wiener_spec(driver=DriverConfig("martingale", m=2, rho=rho))

    def no_tensor(*args):
        raise AssertionError("the coefficient tensor was built")

    monkeypatch.setattr(harness, "coeff_tensor", no_tensor)
    with pytest.raises(ConfigError, match="negative or not finite"):
        run_experiment(spec)


@st.composite
def _library_inputs(draw, kind=None):
    """ExperimentSpec arguments over tiny to huge intervals, overflowing kernel
    factors and mark moments, and densities with bad pieces; of any driver kind, or
    of the given one."""
    k = draw(st.integers(1, 3))
    start = draw(st.sampled_from([0.0, -2.5, 7.0]))
    length = 10.0 ** draw(st.floats(-6, 3))
    system = draw(st.sampled_from(["legendre", "trigonometric", "haar", "bessel_weighted"]))
    if system == "bessel_weighted":
        start = 0.0
    iv = Interval(start, start + length)
    factor = st.one_of(st.builds(Factor, st.just("const"), st.floats(-3, 3)),
                       st.builds(Factor, st.just("exp"), st.floats(-3, 3)),
                       st.builds(Factor, st.just("pow"), st.integers(0, 3)))
    kind = kind or draw(st.sampled_from(["wiener", "martingale", "poisson"]))
    m = draw(st.integers(1, 2))
    if kind == "martingale":
        # a constant, or base + slope * (t - start) / length with an optional bad
        # piece at least ten of slot_scales' grid steps wide
        base, slope = draw(st.floats(0, 10)), draw(st.floats(0, 10))
        bad = draw(st.sampled_from([None, -1.0, math.nan, math.inf]))
        lo = draw(st.floats(0, 0.9))
        hi = lo + draw(st.floats(10 / harness.RATIO_GRID, 0.1))

        def rho(t):
            u = (np.asarray(t, dtype=float) - start) / length
            smooth = base + slope * u
            return smooth if bad is None else np.where((lo <= u) & (u < hi), bad, smooth)

        driver = DriverConfig(kind, m=m, rho=draw(st.sampled_from([base, rho])))
    elif kind == "poisson":
        powers = st.one_of(st.floats(0, 4), st.floats(4, 1e300))
        driver = DriverConfig(kind, m=m, intensity=exponential_measure(5.0),
                              mark_factors=tuple(power_mark(draw(powers)) for _ in range(k)))
    else:
        driver = DriverConfig(kind, m=m)
    return dict(kernel=Kernel(tuple(draw(factor) for _ in range(k)), iv),
                system=getattr(basis, system)(iv.end if system == "bessel_weighted" else iv),
                combo=tuple(draw(st.integers(0, m)) for _ in range(k)),
                boxes=draw(st.lists(st.tuples(*[st.integers(0, 6)] * k), min_size=1, max_size=2)),
                driver=driver, n_steps=draw(st.integers(1, 64)), trials=draw(st.integers(1, 8)),
                seed=draw(st.integers(0, 2**32)), richardson=draw(st.booleans()))


@settings(max_examples=100, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(_library_inputs())
def test_library_inputs_fail_before_work_or_run_finite(kw):
    # the constructor rejects the inputs, or the run returns finite statistics or
    # fails with one of the CLI's exit-3 families; a ValueError or TypeError fails
    try:
        spec = ExperimentSpec(**kw)
    except (ConfigError, SizeError):
        return
    with pytest.MonkeyPatch.context() as mp, warnings.catch_warnings():
        mp.setattr(harness, "_worker_count", lambda n_chunks: 1)
        warnings.simplefilter("ignore", RuntimeWarning)  # overflow on the way to an exit-3 error
        try:
            report = run_experiment(spec)
        except (StochexpandError, OverflowError):
            return
    for s in report.stats:
        assert np.isfinite([s.mean, s.variance, s.mse]).all()


def test_moment_suite_wiener():
    spec = _wiener_spec(trials=3000, n_steps=2**9)
    report = moment_suite(spec, j_max=5)
    assert not report.flagged
    assert len(report.tests) > 20


def test_moment_suite_trial_floor():
    with pytest.raises(ConfigError):
        moment_suite(_wiener_spec(trials=100))


def test_report_export(tmp_path):
    report = run_experiment(_wiener_spec(trials=20))
    csv_path = tmp_path / "r.csv"
    json_path = tmp_path / "r.json"
    report_to_csv(report, csv_path)
    report_to_json(report, json_path)
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0].startswith("box,")
    assert len(lines) == 1 + len(report.stats)
    import json
    doc = json.loads(json_path.read_text())
    assert doc["trials"] == 20
    assert len(doc["boxes"]) == len(report.stats)


LOOP_SPECS = {
    "wiener": dict(boxes=((1, 1), (3, 3), (7, 7)), trials=23, richardson=True),
    "martingale": dict(driver=DriverConfig("martingale", m=2, rho=_rho_one_plus_t), trials=23,
                       richardson=True),
    "poisson_prelimit": dict(driver=DriverConfig("poisson", m=2, intensity=exponential_measure(5.0),
                                                 mark_factors=(power_mark(1.0),) * 2),
                             combo=(1, 1), trials=23,
                             boxes=((1, 1), (3, 3), (7, 7)), richardson=True),
    # equal components, unequal marks: the two slots have different base rows
    "poisson_unequal_marks": dict(driver=DriverConfig("poisson", m=2,
                                                      intensity=exponential_measure(5.0),
                                                      mark_factors=(power_mark(1.0),
                                                                    power_mark(0.5))),
                                  combo=(1, 1), trials=23,
                                  boxes=((1, 1), (3, 3), (7, 7)), richardson=True),
    "wiener_k3": dict(kernel=unit_kernel(3, IV), combo=(1, 1, 2), trials=23,
                      boxes=((2, 2, 2), (1, 3, 2))),
    # slot 0 reads the time row, which the loop writes once per pass
    "wiener_time": dict(combo=(0, 1), trials=23, richardson=True),
    # a Gaussian tie whose variables are not orthonormal: the ties take 2 I
    "martingale_tie": dict(driver=DriverConfig("martingale", m=2, rho=2.0), combo=(1, 1),
                           trials=23, richardson=True),
    # most trials of a chunk have no jumps on one component or both
    "poisson_sparse": dict(driver=DriverConfig("poisson", m=2, intensity=exponential_measure(0.3),
                                               mark_factors=(power_mark(1.0), power_mark(0.5))),
                           combo=(1, 2), trials=23, richardson=True),
    # a time slot and two equal slots under prelimit
    "poisson_k3": dict(kernel=unit_kernel(3, IV), combo=(0, 1, 1), trials=23,
                       boxes=((2, 2, 2), (1, 3, 2)), richardson=True,
                       driver=DriverConfig("poisson", m=2, intensity=exponential_measure(5.0),
                                           mark_factors=(power_mark(1.0),) * 3)),
    # a weighted system on an interval too short for a Gaussian driver's ratio check; the
    # intensity gives about five jumps per component, as on the unit interval above
    "poisson_weighted_short": dict(**SHORT_WEIGHTED, trials=23, richardson=True,
                                   driver=DriverConfig("poisson", m=2,
                                                       intensity=exponential_measure(5e3),
                                                       mark_factors=(power_mark(1.0),
                                                                     power_mark(0.5)))),
}


def _stats(report):
    return np.array([[s.mean, s.variance, s.mse, s.mse_halfwidth_99, s.residual, s.allowance]
                     for s in report.stats])


def _force_workers(monkeypatch, workers):
    """Make every pass use min(workers, chunks) processes; returns the counts used."""
    used = []

    def forced(n_chunks):
        used.append(min(workers, n_chunks))
        return used[-1]

    monkeypatch.setattr(harness, "_worker_count", forced)
    return used


@pytest.mark.parametrize("name", LOOP_SPECS)
def test_stats_do_not_depend_on_chunk_size(name, monkeypatch):
    spec = _wiener_spec(**LOOP_SPECS[name])
    default = run_experiment(spec)
    chunk_trials = harness._chunk_trials
    for chunk in (1, 7):  # 7 does not divide the 23 trials
        for workers in (1, 2, 3):
            used = []

            def forced(*args, chunk=chunk):
                used.append(chunk_trials(*args))
                return chunk

            monkeypatch.setattr(harness, "_chunk_trials", forced)
            shards = _force_workers(monkeypatch, workers)
            np.testing.assert_array_equal(_stats(run_experiment(spec)), _stats(default))
            assert used and used[0] != chunk  # the default chunk differs from the forced one
            assert max(shards) == workers


def test_equal_poisson_slots_take_one_measure_per_chunk_and_partition(monkeypatch):
    measure = oracle.interval_measures
    calls = []
    monkeypatch.setattr(oracle, "interval_measures", lambda *args: calls.append(
        (args[1], len(args[0]) if isinstance(args[0], list) else "base")) or measure(*args))
    monkeypatch.setattr(harness, "_chunk_trials", lambda *args: 7)
    _force_workers(monkeypatch, 1)
    spec = _wiener_spec(**LOOP_SPECS["poisson_prelimit"])  # combo (1, 1), equal marks
    run_experiment(spec)
    # the G_k base (one realization without jumps) per partition, then one batch per chunk
    # of 7, 7, 7 and 2 trials, at n_steps and at n_steps // 2
    assert calls == [(1, "base")] * 2 + [(1, size) for size in (7, 7, 7, 2) for _ in range(2)]


@pytest.mark.parametrize("name", ["poisson_prelimit", "martingale_tie"])
def test_gk_sums_take_one_call_per_chunk_and_partition(name, monkeypatch):
    gk = oracle.gk_correction_tensor
    calls = []
    monkeypatch.setattr(oracle, "gk_correction_tensor", lambda tables, incs, base=None: calls.append(
        (len(incs[0]), base is not None)) or gk(tables, incs, base))
    monkeypatch.setattr(harness, "_chunk_trials", lambda *args: 7)
    _force_workers(monkeypatch, 1)
    spec = _wiener_spec(**LOOP_SPECS[name])
    run_experiment(spec)
    # a Poisson pass: chunks of 7, 7, 7 and 2 trials, at n_steps and at n_steps // 2, each
    # from its partition's base; a Gaussian tie takes the Gram matrix and no G_k sum
    poisson = spec.driver.kind == "poisson"
    assert calls == [(size, True) for size in (7, 7, 7, 2) for _ in range(2)] * poisson


MOMENT_DRIVERS = {
    "martingale": DriverConfig("martingale", m=2, rho=_rho_one_plus_t),
    "poisson": DriverConfig("poisson", m=2, intensity=exponential_measure(3.0),
                            mark_factors=(power_mark(1.0), power_mark(0.5))),
}


def test_gaussian_moment_suite_tests_the_discrete_gram():
    # for rho = 1 + t the neighbours' covariance sum_l phi_j phi_j+1 (tau_l) v_l is about 0.25
    report = moment_suite(_wiener_spec(driver=MOMENT_DRIVERS["martingale"], trials=20000,
                                       n_steps=64), j_max=3)
    assert not report.flagged and report.n_failed == 0


def test_poisson_moment_suite_tests_no_time_slot():
    spec = _wiener_spec(driver=MOMENT_DRIVERS["poisson"], combo=(0, 1), trials=1000, n_steps=64)
    report = moment_suite(spec, j_max=3)
    assert [t.name for t in report.tests] == [f"{stat}[g=1,j={j}]" for j in range(4)
                                              for stat in ("mean", "var")]
    assert report.n_failed == 0


@pytest.mark.parametrize("driver", MOMENT_DRIVERS)
def test_moment_suite_does_not_depend_on_chunk_size(driver, monkeypatch):
    spec = _wiener_spec(driver=MOMENT_DRIVERS[driver], trials=1000, n_steps=64)
    default = moment_suite(spec, j_max=3)
    monkeypatch.setattr(harness, "_chunk_trials", lambda *args: 7)
    for workers in (1, 2, 3):
        shards = _force_workers(monkeypatch, workers)
        assert moment_suite(spec, j_max=3) == default
        assert max(shards) == workers


def _absolute_terms(spec, sub, variables, correction, real, part) -> float:
    """The sum of the absolute values of the terms of one trial's oracle and of its
    expansion sample at sub's box: the scale of their rounding errors."""
    vectors = [np.abs(variables.slot_vector(g, i, p)) for g, (i, p) in enumerate(
        zip(spec.combo, sub.box))]
    values = np.abs(sub.values)
    slot_part, incs = oracle.slot_increments(real, spec.combo, part, spec.driver.mark_factors)
    terms = oracle.nested_sum([np.abs(spec.kernel.factor_values(g, slot_part.left_nodes) * inc)
                               for g, inc in enumerate(incs)])
    if correction == "pairing_general":
        gram = None if variables.gram is None else np.abs(variables.gram)
        return terms + sum(expansions._contract(values, vectors, pairs, gram)
                           for pairs, _ in expansions._pairings(spec.combo))
    phi = spec.system.eval_table(max(sub.box), slot_part.left_nodes)
    gk = oracle.gk_correction_tensor([phi[:p + 1] for p in sub.box], incs)
    return terms + expansions._contract(values, vectors) + np.sum(np.abs(gk * sub.values))


def _replay_passes(spec, correction):
    """(diffs, samples, absolute terms), (trials, boxes) each, at N and, under
    Richardson with N >= 2, at N // 2, recomputed trial by trial through the public
    API: sampler -> *_variables -> oracle.iterated_sum -> expand."""
    drv, k = spec.driver, spec.kernel.multiplicity
    p_max = max(max(b) for b in spec.boxes)
    full = coeff_tensor(spec.kernel, spec.system, (p_max,) * k)
    subs = [dataclasses.replace(full, box=b, values=full.values[tuple(slice(0, q + 1) for q in b)])
            for b in spec.boxes]

    def one_pass(n_steps):
        part = drivers.make_partition(spec.kernel.interval, n_steps)
        diffs = np.empty((spec.trials, len(subs)))
        samples, terms = np.empty_like(diffs), np.empty_like(diffs)
        for t in range(spec.trials):
            seed = drivers.trial_seed(spec.seed, t)
            if drv.kind == "wiener":
                real = drivers.sample_wiener(part, drv.m, seed)
                variables = expansions.wiener_variables(real, spec.system, p_max)
            elif drv.kind == "martingale":
                real = drivers.sample_gaussian_martingale(part, drv.m, drv.rho, seed)
                variables = expansions.martingale_variables(real, spec.system, p_max)
            else:
                real = drivers.sample_poisson(spec.kernel.interval, drv.m, drv.intensity, seed)
                variables = expansions.poisson_variables(real, spec.system, drv.mark_factors,
                                                         spec.combo, p_max)
            poisson = drv.kind == "poisson"
            truth = oracle.iterated_sum(spec.kernel, real, spec.combo,
                                        part if poisson else None, drv.mark_factors).value
            for b, sub in enumerate(subs):
                samples[t, b] = expansions.expand(
                    sub, variables, spec.combo, correction=correction, realization=real,
                    mark_factors=drv.mark_factors, partition=part).value
                diffs[t, b] = truth - samples[t, b]
                terms[t, b] = _absolute_terms(spec, sub, variables, correction, real,
                                              part if poisson else None)
        return diffs, samples, terms

    halves = spec.richardson and spec.n_steps >= 2
    return [one_pass(n) for n in (spec.n_steps, spec.n_steps // 2)[:1 + halves]]


def _replay(spec, correction):
    """Per-box mean, variance, mse and allowance of _replay_passes."""
    (diffs, samples, _), *half = _replay_passes(spec, correction)
    mse = np.mean(diffs**2, axis=0)
    allowance = np.zeros(len(spec.boxes))
    if half:
        allowance = np.abs(np.mean(half[0][0] ** 2, axis=0) - mse)
    return np.array([np.mean(samples, axis=0), np.var(samples, axis=0, ddof=1), mse,
                     allowance]).T


@pytest.mark.parametrize("name", ["wiener", "martingale", "martingale_tie", "poisson_prelimit",
                                  "poisson_unequal_marks", "poisson_weighted_short"])
def test_stats_match_a_per_trial_public_api_replay(name):
    spec = _wiener_spec(**LOOP_SPECS[name])
    report = run_experiment(spec)
    got = _stats(report)[:, [0, 1, 2, 5]]
    assert got == pytest.approx(_replay(spec, report.correction), rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("kind", ["wiener", "martingale", "poisson"])
@settings(max_examples=34, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_every_accepted_spec_runs_as_its_per_trial_replay(kind, data):
    # the loop at 1 worker and its default chunk, and at 2 workers and a chunk that does
    # not divide the trials, bitwise alike and within 1e-12 of each sample's absolute
    # terms of the replay: a relative bound fails on cancellation (the terms of a k = 3
    # Haar pow(2)^3 sample on [0, 90] reach 2.4e13 and cancel to 1.5e6)
    kw = data.draw(_library_inputs(kind))
    try:
        spec = ExperimentSpec(**kw)
    except (ConfigError, SizeError):
        return
    chunk = 4 if spec.trials % 3 == 0 else 3
    with pytest.MonkeyPatch.context() as mp, warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # overflow on the way to an exit-3 error
        mp.setattr(harness, "_worker_count", lambda n_chunks: 1)
        try:
            report = run_experiment(spec)
        except (StochexpandError, OverflowError):
            return
        mp.setattr(harness, "_worker_count", lambda n_chunks: min(2, n_chunks))
        mp.setattr(harness, "_chunk_trials", lambda *args: chunk)
        np.testing.assert_array_equal(_stats(run_experiment(spec)), _stats(report))
        (diffs, samples, terms), *half = _replay_passes(spec, report.correction)
    got, eps, n = _stats(report), 1e-12, spec.trials
    mse, mse_tol = np.mean(diffs**2, axis=0), 2 * eps * np.mean((terms + abs(diffs))**2, axis=0)
    assert np.all(abs(got[:, 0] - np.mean(samples, axis=0)) <= eps * np.mean(terms, axis=0))
    assert np.all(abs(got[:, 2] - mse) <= mse_tol)
    if n >= 2:  # one trial reports variance 0 where the replay's is NaN
        spread = (terms + abs(samples - np.mean(samples, axis=0)))**2
        assert np.all(abs(got[:, 1] - np.var(samples, axis=0, ddof=1))
                      <= 4 * eps * np.mean(spread, axis=0) * n / (n - 1))
    allowance, allowance_tol = np.zeros(len(spec.boxes)), 0.0
    if half:
        (half_diffs, _, half_terms), = half
        allowance = abs(np.mean(half_diffs**2, axis=0) - mse)
        allowance_tol = mse_tol + 2 * eps * np.mean((half_terms + abs(half_diffs))**2, axis=0)
    assert np.all(abs(got[:, 5] - allowance) <= allowance_tol)


@pytest.mark.parametrize("factors, multiplied", [
    ((Factor("const"), Factor("const")), [False, False]),
    ((Factor("exp", 0.7), Factor("const")), [True, False]),
], ids=["unit", "exp_const"])
def test_unit_factor_slots_reach_the_oracle_in_place_bitwise(factors, multiplied, monkeypatch):
    spec = _wiener_spec(kernel=Kernel(factors, IV), boxes=((1, 1), (3, 3), (7, 7)), trials=23,
                        richardson=True)
    nested, levels_in_work = oracle.nested_sum, []

    def spy(levels, scratch=None):
        # a level that the loop multiplied lies in its shard's buffer, next to the scratch;
        # the buffer holds, per trial of a chunk, a row for each such slot and the scratch
        assert scratch.base.size == 7 * (sum(multiplied) + 2) * spec.n_steps
        levels_in_work.append([np.shares_memory(level, scratch.base) for level in levels])
        return nested(levels, scratch)

    with monkeypatch.context() as mp:
        mp.setattr(oracle, "nested_sum", spy)
        mp.setattr(harness, "_chunk_trials", lambda *args: 7)
        _force_workers(mp, 1)
        report = run_experiment(spec)
    # one call per chunk and partition, and only a factor other than 1 takes the multiply
    assert levels_in_work == [multiplied] * 2 * 4
    # the stats are bitwise those of a per-trial replay, summed as run_experiment sums them
    (diffs, samples, _), (half, _, _) = _replay_passes(spec, report.correction)
    for b, stats in enumerate(report.stats):
        d2 = diffs[:, b] ** 2
        mse = np.mean(d2)
        assert (stats.mean, stats.variance, stats.mse, stats.mse_halfwidth_99, stats.allowance) \
            == (float(np.mean(samples[:, b])), float(np.var(samples[:, b], ddof=1)), float(mse),
                harness.Z99 * float(np.std(d2, ddof=1) / math.sqrt(spec.trials)),
                float(np.abs(np.mean(half[:, b] ** 2) - mse)))


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("name", ["wiener", "martingale_tie", "martingale"])  # rho 1, 2, 1 + t
def test_the_loop_draws_each_path_into_its_chunk_rows(name, workers, monkeypatch):
    spec = _wiener_spec(**LOOP_SPECS[name])
    default = _stats(run_experiment(spec))
    sampler = "sample_wiener" if name == "wiener" else "sample_gaussian_martingale"
    public = getattr(harness, sampler)

    def checked(*args, out=None):
        path = public(*args, out=out)
        # the path's increments are the trial's rows of the chunk buffer (5 trials of m + 1
        # rows), bitwise what a draw without out gives
        assert path.increments is out and out.base.shape == (5, 3, spec.n_steps)
        assert path.increments.tobytes() == public(*args).increments.tobytes()
        return path

    monkeypatch.setattr(harness, sampler, checked)
    monkeypatch.setattr(harness, "_chunk_trials", lambda *args: 5)
    shards = _force_workers(monkeypatch, workers)
    draws = _count_calls(monkeypatch, harness, sampler)
    np.testing.assert_array_equal(_stats(run_experiment(spec)), default)
    assert draws.value == spec.trials and max(shards) == workers


@pytest.mark.parametrize("name", ["wiener_time", "martingale", "poisson_k3"])
def test_the_chunk_rows_are_the_plans_increment_rows(name, monkeypatch):
    spec = _wiener_spec(**LOOP_SPECS[name])
    law, drawn = type(spec.driver.law), []
    draw = law.draw

    def spy(self, spec, tables, seeds, incs, sizes):
        drawn.append(([inc.shape for inc in incs], sizes))
        return draw(self, spec, tables, seeds, incs, sizes)

    monkeypatch.setattr(law, "draw", spy)
    monkeypatch.setattr(harness, "_chunk_trials", lambda *args: 7)
    _force_workers(monkeypatch, 1)
    run_experiment(spec)
    p_max = max(map(max, spec.boxes))
    scope, shapes = spec.driver.law.plan(spec, (spec.n_steps, spec.n_steps // 2), p_max)[
        "increment rows"]
    # one draw per shard, of chunks of 7, 7, 7 and 2 trials, into the rows the plan counts
    assert scope == "trial" and len(shapes) == 2
    assert drawn == [([(7, *shape) for shape in shapes], [7, 7, 7, 2])]


def _gram_grids(system, count) -> int:
    """Quadrature grids on which the ties' Gram matrix of rho = 1 + t evaluates rho."""
    grids = []
    basis.gram_matrix(system, count, lambda x: grids.append(x) or _rho_one_plus_t(x))
    return len(grids)


def test_rho_is_evaluated_once_per_pass():
    calls = []

    def rho(t):
        calls.append(np.size(t))
        return _rho_one_plus_t(t)

    driver = DriverConfig("martingale", m=2, rho=rho)
    for system in (SYS, basis.bessel_weighted(1.0)):
        for trials in (3, 30):
            calls.clear()
            spec = _wiener_spec(system=system, driver=driver, trials=trials, richardson=True)
            # construction probes rho once on slot_scales' grid, for every system
            assert calls == [harness.RATIO_GRID + 2]
            run_experiment(spec)
            # then one call per partition (N and N/2); the combo (1, 2) has no tie, so no
            # Gram matrix is built
            assert len(calls) == 3
    calls.clear()
    moment_suite(_wiener_spec(driver=driver, trials=1000, n_steps=64), j_max=2)
    assert len(calls) == 2
    # a tie builds the Gram matrix on the first pass only (expansions.gaussian_gram caches it)
    for trials in (3, 30):
        calls.clear()
        run_experiment(_wiener_spec(driver=driver, trials=trials, combo=(1, 1)))
        assert len(calls) == 2 + (trials == 3) * _gram_grids(SYS, 4)


def test_a_step_rho_serves_the_combos_without_a_tie():
    # the Gram quadrature does not converge on a jump inside a panel, and only a tie reads it
    driver = DriverConfig("martingale", m=2, rho=lambda t: np.where(np.asarray(t) < 0.3, 1.0, 2.0))
    spec = _wiener_spec(driver=driver, boxes=((3, 3),), trials=5)
    (stats,) = run_experiment(spec).stats
    assert all(math.isfinite(getattr(stats, f)) for f in ("mean", "variance", "mse"))
    with pytest.raises(QuadratureError, match="did not converge"):
        run_experiment(dataclasses.replace(spec, combo=(1, 1)))


def _count_calls(monkeypatch, owner, name):
    """Count calls of owner.name, from now on, in this process and in forked workers."""
    import multiprocessing
    count = multiprocessing.Value("i", 0)  # shared memory, inherited by forked workers
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        with count.get_lock():
            count.value += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return count


@pytest.mark.parametrize("name", ["wiener", "martingale", "poisson_prelimit"])
def test_richardson_draws_each_trial_once_in_one_pass(name, monkeypatch):
    spec = _wiener_spec(**LOOP_SPECS[name])
    monkeypatch.setattr(harness, "_chunk_trials", lambda *args: 5)
    full, half = (run_experiment(dataclasses.replace(spec, n_steps=n, richardson=False))
                  for n in (spec.n_steps, spec.n_steps // 2))
    allowance = [abs(h.mse - f.mse) for f, h in zip(full.stats, half.stats)]
    sampler = {"wiener": "sample_wiener", "martingale": "sample_gaussian_martingale",
               "poisson_prelimit": "sample_poisson"}[name]
    for workers in (1, 2, 3):
        _force_workers(monkeypatch, workers)
        # one seed-word derivation per shard (harness.seed_words), none per substream
        # (drivers.seed_words, which component_rng calls for a seed without words)
        counts = [_count_calls(monkeypatch, harness, sampler),
                  _count_calls(monkeypatch, harness, "seed_words"),
                  _count_calls(monkeypatch, drivers, "seed_words"),
                  _count_calls(monkeypatch, drivers, "component_rng"),
                  _count_calls(monkeypatch, os, "fork")]
        report = run_experiment(spec)
        assert [s.allowance for s in report.stats] == allowance
        np.testing.assert_array_equal(_stats(report)[:, :5], _stats(full)[:, :5])
        # a Poisson trial draws only the components its combo reads
        drawn = max(spec.combo) if name.startswith("poisson") else spec.driver.m
        # one fork per range after the parent's first
        assert [c.value for c in counts] == [spec.trials, workers, 0,
                                             drawn * spec.trials, workers - 1]


def test_a_poisson_trial_draws_only_the_components_its_combo_reads(monkeypatch):
    spec = _wiener_spec(**LOOP_SPECS["poisson_prelimit"])  # combo (1, 1)
    stats = []
    for m in (1, 2, 3):
        count = _count_calls(monkeypatch, drivers, "component_rng")
        stats.append(_stats(run_experiment(dataclasses.replace(
            spec, driver=dataclasses.replace(spec.driver, m=m)))))
        assert count.value == spec.trials
    for other in stats[1:]:
        np.testing.assert_array_equal(other, stats[0])


def test_config_defects_are_rejected_up_front():
    with pytest.raises(TypeError):  # the correction is derived, not a setting
        _wiener_spec(correction="bogus")
    for seed in (1.5, -1, True, "7"):
        with pytest.raises(ConfigError):
            _wiener_spec(seed=seed)
    assert _wiener_spec(seed=np.int64(5)).seed == 5


POISSON_DRIVER = dict(kind="poisson", m=2, intensity=exponential_measure(5.0))


@pytest.mark.parametrize("driver, overrides, message", [
    (dict(kind="levy"), {}, "unknown driver kind"),
    (dict(kind="wiener"), dict(combo="12"), "combo must be a list"),
    (dict(kind="wiener"), dict(boxes=3), "boxes must be a list"),
    (dict(POISSON_DRIVER, mark_factors=(power_mark(1.0),)), {}, "one mark factor per slot"),
    (POISSON_DRIVER, {}, "one mark factor per slot"),
], ids=["unknown_kind", "combo_not_a_list", "boxes_not_a_list", "one_mark_for_two_slots",
        "no_marks"])
def test_library_callers_are_rejected_before_any_draw(driver, overrides, message, monkeypatch):
    calls = []
    for sampler in ("sample_wiener", "sample_gaussian_martingale", "sample_poisson"):
        monkeypatch.setattr(harness, sampler,
                            lambda *args, name=sampler, **kwargs: calls.append(name))
    with pytest.raises(ConfigError, match=message):
        run_experiment(_wiener_spec(driver=DriverConfig(**driver), **overrides))
    assert not calls


@pytest.mark.parametrize("overrides", [dict(n_steps=10**12), dict(trials=10**12)])
def test_cost_guard_trips_before_allocation(overrides):
    with pytest.raises(SizeError):
        run_experiment(_wiener_spec(**overrides))
    with pytest.raises(SizeError):
        moment_suite(_wiener_spec(**{"trials": 1000, **overrides}))


def test_memory_guard_counts_one_seed_word_derivation_per_worker(monkeypatch):
    # m = 64 substreams per trial on one step: the seed words (1.3 MB) outweigh the
    # chunk of 1000 trials (1.1 MB), and the budget fits the chunk but not both
    spec = _wiener_spec(driver=DriverConfig("wiener", m=64), n_steps=1, trials=1000,
                        boxes=((0, 0),))
    monkeypatch.setattr(harness, "_worker_count", lambda n_chunks: 1)
    monkeypatch.setattr(harness, "MEMORY_BUDGET", 2**21)
    with pytest.raises(SizeError):  # 8192 substreams of 160 bytes in one derivation
        harness._chunk_trials(spec, 1, 0, 2)
    monkeypatch.setattr(harness, "SEED_STREAMS", 64)  # one trial per derivation
    assert harness._chunk_trials(spec, 1, 0, 2) == 1000


@pytest.mark.parametrize("streams", [1, 5])
def test_seed_word_blocks_do_not_change_results(streams, monkeypatch):
    spec = _wiener_spec(**LOOP_SPECS["wiener"])
    default = _stats(run_experiment(spec))
    monkeypatch.setattr(harness, "SEED_STREAMS", streams)  # blocks of 1 and 2 trials at m=2
    _force_workers(monkeypatch, 1)
    derivations = _count_calls(monkeypatch, harness, "seed_words")
    np.testing.assert_array_equal(_stats(run_experiment(spec)), default)
    assert derivations.value == -(-spec.trials // max(1, streams // spec.driver.m))


def _fail_on_last_trial(monkeypatch, trials, failure):
    """Make sample_wiener call failure() on the last trial."""
    sample = harness.sample_wiener

    def sampler(part, m, seed, out=None):
        if seed.spawn_key == (trials - 1,):
            failure()
        return sample(part, m, seed, out=out)

    monkeypatch.setattr(harness, "sample_wiener", sampler)


def test_worker_error_reaches_the_parent_with_its_type(monkeypatch):
    parent = os.getpid()

    def fail():
        raise SizeError(f"raised in process {os.getpid()}")

    _fail_on_last_trial(monkeypatch, 23, fail)
    monkeypatch.setattr(harness, "_chunk_trials", lambda *args: 5)
    _force_workers(monkeypatch, 3)
    with pytest.raises(SizeError, match="raised in process") as exc:
        run_experiment(_wiener_spec(trials=23))
    assert str(parent) not in str(exc.value)  # the last shard ran in a child


def test_dead_worker_fails_the_call_cleanly(monkeypatch):
    parent = os.getpid()
    monkeypatch.setattr(harness, "_chunk_trials", lambda *args: 5)
    _force_workers(monkeypatch, 2)
    cases = [(lambda: os._exit(1), r"\(exit code 1\)"),
             # as the out-of-memory killer ends a process
             (lambda: os.kill(os.getpid(), signal.SIGKILL),
              rf"\(killed by signal {signal.SIGKILL:d}\)")]
    for death, how in cases:

        def die(death=death):
            if os.getpid() != parent:
                death()

        with monkeypatch.context() as mp:
            _fail_on_last_trial(mp, 23, die)
            with pytest.raises(SizeError, match="worker process died " + how):
                run_experiment(_wiener_spec(trials=23))
        _assert_no_child_left()


def test_serial_fallback_without_fork(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False)
    assert harness._worker_count(9) == 4
    assert harness._worker_count(3) == 3
    assert harness._worker_count(1) == 1
    spec = _wiener_spec(trials=23)
    default = run_experiment(spec)
    # without os.fork a sharded pass could not start: the run is serial
    monkeypatch.delattr(os, "fork")
    monkeypatch.setattr(harness, "_chunk_trials", lambda *args: 5)
    assert harness._worker_count(9) == 1
    np.testing.assert_array_equal(_stats(run_experiment(spec)), _stats(default))


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):  # this process has no child, running or unreaped
        os.waitpid(-1, os.WNOHANG)


def test_no_worker_outlives_its_pass(monkeypatch):
    spec = _wiener_spec(trials=23)
    monkeypatch.setattr(harness, "_chunk_trials", lambda *args: 5)
    _force_workers(monkeypatch, 3)
    run_experiment(spec)
    _assert_no_child_left()
    moment = _wiener_spec(trials=1000, n_steps=64)
    moment_suite(moment, j_max=2)
    _assert_no_child_left()
    parent = os.getpid()

    def fail():
        raise SizeError("the last trial")

    with monkeypatch.context() as mp:  # a child raises (the last range's)
        _fail_on_last_trial(mp, 23, fail)
        with pytest.raises(SizeError, match="the last trial"):
            run_experiment(spec)
    _assert_no_child_left()

    def parent_fails(part, m, seed, out=None):  # the parent's first trial, while both children run
        if os.getpid() == parent:
            raise ConfigError("the first trial")
        time.sleep(60)

    monkeypatch.setattr(harness, "sample_wiener", parent_fails)
    start = time.perf_counter()
    with pytest.raises(ConfigError, match="the first trial"):
        run_experiment(spec)
    assert time.perf_counter() - start < 30  # the sleeping children were killed, not awaited
    _assert_no_child_left()


class _Unpicklable(SizeError):
    def __init__(self, message):
        super().__init__(message)
        self.hook = lambda: None  # no pickle takes a lambda


@pytest.mark.parametrize("error, sent", [
    (lambda: _Unpicklable("jump budget exceeded"), SizeError),
    (lambda: type("Local", (ConfigError,), {})("no rho"), ConfigError),
], ids=["holds_a_lambda", "class_no_import_finds"])
def test_unpicklable_worker_error_keeps_its_type_and_message(error, sent, monkeypatch):
    def fail():
        raise error()

    _fail_on_last_trial(monkeypatch, 23, fail)
    monkeypatch.setattr(harness, "_chunk_trials", lambda *args: 5)
    _force_workers(monkeypatch, 2)
    with pytest.raises(sent) as exc:
        run_experiment(_wiener_spec(trials=23))
    assert type(exc.value) is sent  # the first class of the error's MRO that pickles
    message = str(exc.value)
    assert type(error()).__qualname__ in message and str(error()) in message
    assert "died" not in message
    _assert_no_child_left()


def test_cost_guard_counts_one_chunk_per_worker(monkeypatch):
    # tables ~0.46 MB, one worker's chunk of 13 trials and its scratch ~3.1 MB: one
    # worker fits 4 MiB, two do not
    spec = _wiener_spec(n_steps=4096, trials=60, boxes=((7, 7),))
    monkeypatch.setattr(harness, "MEMORY_BUDGET", 2**22)
    _force_workers(monkeypatch, 1)
    assert harness._chunk_trials(spec, spec.n_steps, 7, 4) == 13
    draws = []
    monkeypatch.setattr(harness, "sample_wiener", lambda *args, **kwargs: draws.append(args))
    for workers in (2, 3):
        _force_workers(monkeypatch, workers)
        with pytest.raises(SizeError):
            harness._chunk_trials(spec, spec.n_steps, 7, 4)
        with pytest.raises(SizeError):
            run_experiment(spec)
    assert not draws


@pytest.mark.parametrize("overrides", [
    dict(driver=DriverConfig("wiener", m=2)),
    dict(driver=DriverConfig("martingale", m=2, rho=2.0)),
    dict(driver=LOOP_SPECS["poisson_prelimit"]["driver"], combo=(1, 1)),  # equal marks
    # about 117 jumps per step and component: every step of every trial leaves the G_k base
    dict(driver=DriverConfig("poisson", m=2, intensity=exponential_measure(3e4),
                             mark_factors=(power_mark(1.0),) * 2),
         combo=(1, 1), n_steps=256, trials=40),
    # a callable density: its step variances are integrated in blocks of drivers.RHO_BLOCK steps
    dict(driver=DriverConfig("martingale", m=2, rho=_rho_one_plus_t)),
    # Gaussian ties whose variables are not orthonormal, on 2 I or on a quadrature Gram matrix
    dict(driver=DriverConfig("martingale", m=2, rho=2.0), combo=(1, 1)),
    dict(driver=DriverConfig("martingale", m=2, rho=2.0), kernel=unit_kernel(3, IV),
         combo=(1, 1, 2), boxes=((3, 3, 3),)),
    dict(driver=DriverConfig("martingale", m=2, rho=2.0), kernel=unit_kernel(3, IV),
         combo=(1, 1, 1), boxes=((7, 7, 7),)),
    dict(system=basis.bessel_weighted(1.0), combo=(1, 1)),  # a Wiener tie on the weighted system
], ids=["wiener", "rho_2", "poisson_prelimit", "poisson_dense", "rho_1_plus_t", "rho_2_tie",
        "rho_2_tie_k3_112", "rho_2_tie_k3_111", "wiener_weighted_tie"])
def test_memory_guard_bounds_what_the_loop_holds(overrides, monkeypatch):
    spec = _wiener_spec(**{"n_steps": 2**16, "trials": 4, "richardson": True, **overrides})
    peak, budget, chunk = _peak_and_smallest_budget(spec, monkeypatch)
    assert spec.trials >= 3 * chunk  # three chunks or more
    assert 0.65 * budget <= peak <= budget


def test_memory_guard_counts_a_callable_density_block(monkeypatch):
    # one trial on one block of steps: the density's step-variance tables, built before the
    # chunk, set the peak, about six times what the chunk holds
    spec = _wiener_spec(driver=DriverConfig("martingale", m=2, rho=_rho_one_plus_t),
                        n_steps=drivers.RHO_BLOCK, trials=1, boxes=((1, 1),))
    peak, budget, _ = _peak_and_smallest_budget(spec, monkeypatch)
    assert peak <= budget


@pytest.mark.parametrize("driver, combo", [
    (DriverConfig("wiener", m=2), (1, 2)), *((d, (1, 2)) for d in MOMENT_DRIVERS.values()),
    (dataclasses.replace(MOMENT_DRIVERS["poisson"], mark_factors=(power_mark(1.0),) * 2),
     (1, 1))], ids=["wiener", *MOMENT_DRIVERS, "poisson_equal_marks_11"])
def test_memory_guard_bounds_what_the_moment_suite_holds(driver, combo, monkeypatch):
    # combo (1, 1) resolves to prelimit, whose G_k sums only run_experiment's pass holds
    spec = _wiener_spec(driver=driver, combo=combo, n_steps=2**12, trials=1000)
    peak, budget, chunk = _peak_and_smallest_budget(spec, monkeypatch,
                                                    lambda spec: moment_suite(spec, j_max=7))
    assert spec.trials >= 3 * chunk
    # the plan holds no oracle rows or bracket, which the suite never allocates
    assert 0.85 * budget <= peak <= budget


def _peak_and_smallest_budget(spec, monkeypatch, run=run_experiment):
    """The tracemalloc peak of a single-worker run(spec) after a first one, the smallest
    MEMORY_BUDGET that its trial loop's guard accepts, and its trials per chunk."""
    import tracemalloc
    _force_workers(monkeypatch, 1)
    chunk_trials, calls = harness._chunk_trials, []
    monkeypatch.setattr(harness, "_chunk_trials",
                        lambda *args: calls.append(args) or chunk_trials(*args))
    run(spec)  # the imports and caches of a first run outlive it
    tracemalloc.start()
    try:
        run(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    chunk = chunk_trials(*calls[-1])
    lo, hi = 0, 2**32  # the smallest budget the guard accepts lies in (lo, hi]
    while hi - lo > 1:
        mid = (lo + hi) // 2
        monkeypatch.setattr(harness, "MEMORY_BUDGET", mid)
        try:
            chunk_trials(*calls[-1])
            hi = mid
        except SizeError:
            lo = mid
    return peak, hi, chunk


@pytest.mark.parametrize("system, j_max", [(basis.walsh(IV), 1024), (SYS, 2.5), (SYS, -1),
                                           (SYS, True)], ids=["walsh_1024", "2.5", "-1", "True"])
def test_moment_suite_checks_j_max_before_any_work(system, j_max, monkeypatch):
    draws = []
    monkeypatch.setattr(harness, "sample_wiener", lambda *args, **kwargs: draws.append(args))
    with pytest.raises(ConfigError, match="j_max|Walsh"):
        moment_suite(_wiener_spec(system=system, trials=1000), j_max=j_max)
    assert not draws
