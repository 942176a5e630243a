import dataclasses
import os

import numpy as np
import pytest

from stochexpand import basis, drivers, expansions, harness, oracle
from stochexpand.basis import Interval
from stochexpand.drivers import exponential_measure
from stochexpand.errors import ConfigError, SizeError
from stochexpand.harness import (DriverConfig, ExperimentSpec, moment_suite,
                                 power_mark, report_to_csv, report_to_json,
                                 run_experiment)
from stochexpand.kernel import coeff_tensor, unit_kernel

IV = Interval(0.0, 1.0)
SYS = basis.legendre(IV)


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
    # rho == 1: the pairing bracket holds, and the stats are the Wiener driver's
    report = run_experiment(_wiener_spec(driver=DriverConfig("martingale", m=2, rho=1.0),
                                         combo=(1, 1), trials=50))
    assert report.correction == "pairing_general"
    np.testing.assert_array_equal(_stats(report),
                                  _stats(run_experiment(_wiener_spec(combo=(1, 1), trials=50))))
    # any other density needs prelimit for tied pairs, and refuses the pairing bracket
    for rho in (2.0, _rho_one_plus_t):
        driver = DriverConfig("martingale", m=2, rho=rho)
        assert harness._resolve_correction(_wiener_spec(driver=driver, combo=(1, 1))) == "prelimit"
        assert harness._resolve_correction(_wiener_spec(driver=driver)) == "pairing_general"
        with pytest.raises(ConfigError):
            _wiener_spec(driver=driver, combo=(1, 1), correction="pairing_general")
    # on the weighted route a density equal to the system weight is the system's measure
    spec = _wiener_spec(system=basis.bessel_weighted(1.0), weighted=True, combo=(1, 1),
                        driver=DriverConfig("martingale", m=2, rho=lambda t: t))
    assert harness._resolve_correction(spec) == "pairing_general"
    with pytest.raises(ConfigError):
        _wiener_spec(weighted=True)  # unit-weight system
    with pytest.raises(ConfigError):
        DriverConfig("martingale", m=2, rho=-1.0)


def test_spec_validation():
    with pytest.raises(ConfigError):
        _wiener_spec(trials=0)
    with pytest.raises(ConfigError):
        _wiener_spec(combo=(1, 5))
    with pytest.raises(ConfigError):
        _wiener_spec(boxes=())
    with pytest.raises(ConfigError):
        DriverConfig("poisson", m=1)


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


def _rho_one_plus_t(t):
    return 1.0 + np.asarray(t, dtype=float)


LOOP_SPECS = {
    "wiener": dict(boxes=((1, 1), (3, 3), (7, 7)), trials=23, richardson=True),
    "martingale": dict(driver=DriverConfig("martingale", m=2, rho=_rho_one_plus_t), trials=23,
                       richardson=True),
    "poisson_prelimit": dict(driver=DriverConfig("poisson", m=2, intensity=exponential_measure(5.0),
                                                 mark_factors=(power_mark(1.0),) * 2),
                             combo=(1, 1), trials=23,
                             boxes=((1, 1), (3, 3), (7, 7)), richardson=True),
    "wiener_k3": dict(kernel=unit_kernel(3, IV), combo=(1, 1, 2), trials=23,
                      boxes=((2, 2, 2), (1, 3, 2)), correction="pairing_general"),
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


def test_equal_poisson_slots_take_one_measure_per_trial_and_partition(monkeypatch):
    measure = oracle.interval_measures
    calls = []
    monkeypatch.setattr(oracle, "interval_measures",
                        lambda *args: calls.append(args[1]) or measure(*args))
    _force_workers(monkeypatch, 1)
    spec = _wiener_spec(**LOOP_SPECS["poisson_prelimit"])  # combo (1, 1), equal marks
    run_experiment(spec)
    assert calls == [1] * spec.trials * 2  # n_steps and the Richardson n_steps // 2


def test_moment_suite_does_not_depend_on_chunk_size(monkeypatch):
    spec = _wiener_spec(driver=DriverConfig("martingale", m=2, rho=_rho_one_plus_t),
                        trials=1000, n_steps=64)
    default = moment_suite(spec, j_max=3)
    monkeypatch.setattr(harness, "_chunk_trials", lambda *args: 7)
    for workers in (1, 2, 3):
        shards = _force_workers(monkeypatch, workers)
        assert moment_suite(spec, j_max=3) == default
        assert max(shards) == workers


def _replay(spec, correction):
    """Per-box mean, variance, mse and allowance recomputed trial by trial through
    the public API: sampler -> *_variables -> oracle.iterated_sum -> expand."""
    drv, k = spec.driver, spec.kernel.multiplicity
    p_max = max(max(b) for b in spec.boxes)
    full = coeff_tensor(spec.kernel, spec.system, (p_max,) * k)
    subs = [dataclasses.replace(full, box=b, values=full.values[tuple(slice(0, q + 1) for q in b)])
            for b in spec.boxes]

    def one_pass(n_steps):
        part = drivers.make_partition(spec.kernel.interval, n_steps)
        diffs = np.empty((spec.trials, len(subs)))
        samples = np.empty_like(diffs)
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
        return diffs, samples

    diffs, samples = one_pass(spec.n_steps)
    mse = np.mean(diffs**2, axis=0)
    allowance = np.zeros(len(subs))
    if spec.richardson:
        allowance = np.abs(np.mean(one_pass(spec.n_steps // 2)[0] ** 2, axis=0) - mse)
    return np.array([np.mean(samples, axis=0), np.var(samples, axis=0, ddof=1), mse,
                     allowance]).T


@pytest.mark.parametrize("name", ["wiener", "martingale", "poisson_prelimit"])
def test_stats_match_a_per_trial_public_api_replay(name):
    spec = _wiener_spec(**LOOP_SPECS[name])
    report = run_experiment(spec)
    got = _stats(report)[:, [0, 1, 2, 5]]
    assert got == pytest.approx(_replay(spec, report.correction), rel=1e-12, abs=1e-12)


def test_rho_is_evaluated_once_per_pass():
    calls = []

    def rho(t):
        calls.append(np.size(t))
        return _rho_one_plus_t(t)

    driver = DriverConfig("martingale", m=2, rho=rho)
    for trials in (3, 30):
        calls.clear()
        run_experiment(_wiener_spec(driver=driver, trials=trials, richardson=True))
        # one probe for the residual scale, then one call per partition (N and N/2)
        assert len(calls) == 3
    calls.clear()
    moment_suite(_wiener_spec(driver=driver, trials=1000, n_steps=64), j_max=2)
    assert len(calls) == 1


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
    import concurrent.futures
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
                  _count_calls(monkeypatch, concurrent.futures, "ProcessPoolExecutor")]
        report = run_experiment(spec)
        assert [s.allowance for s in report.stats] == allowance
        np.testing.assert_array_equal(_stats(report)[:, :5], _stats(full)[:, :5])
        assert [c.value for c in counts] == [spec.trials, workers, 0,
                                             spec.driver.m * spec.trials, workers > 1]


def test_config_defects_are_rejected_up_front():
    with pytest.raises(ConfigError):
        _wiener_spec(correction="bogus")
    for seed in (1.5, -1, True, "7"):
        with pytest.raises(ConfigError):
            _wiener_spec(seed=seed)
    assert _wiener_spec(seed=np.int64(5)).seed == 5


@pytest.mark.parametrize("overrides", [dict(n_steps=10**12), dict(trials=10**12)])
def test_cost_guard_trips_before_allocation(overrides):
    with pytest.raises(SizeError):
        run_experiment(_wiener_spec(**overrides))
    with pytest.raises(SizeError):
        moment_suite(_wiener_spec(**{"trials": 1000, **overrides}))


def test_memory_guard_counts_one_seed_word_derivation_per_worker(monkeypatch):
    # m = 64 substreams per trial on one step: the seed words outweigh the chunk buffers
    spec = _wiener_spec(driver=DriverConfig("wiener", m=64), n_steps=1, trials=1000,
                        boxes=((0, 0),))
    monkeypatch.setattr(harness, "_worker_count", lambda n_chunks: 1)
    monkeypatch.setattr(harness, "MEMORY_BUDGET", 2**20)
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

    def sampler(part, m, seed):
        if seed.spawn_key == (trials - 1,):
            failure()
        return sample(part, m, seed)

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

    def die():
        if os.getpid() != parent:
            os._exit(1)

    _fail_on_last_trial(monkeypatch, 23, die)
    monkeypatch.setattr(harness, "_chunk_trials", lambda *args: 5)
    _force_workers(monkeypatch, 2)
    with pytest.raises(SizeError, match="worker process died"):
        run_experiment(_wiener_spec(trials=23))


def test_serial_fallback_without_fork(monkeypatch):
    import concurrent.futures
    import multiprocessing

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False)
    assert harness._worker_count(9) == 4
    assert harness._worker_count(3) == 3
    assert harness._worker_count(1) == 1
    spec = _wiener_spec(trials=23)
    default = run_experiment(spec)

    def no_pool(*args, **kwargs):
        raise AssertionError("a process pool was started")

    monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    monkeypatch.setattr(harness, "_chunk_trials", lambda *args: 5)
    assert harness._worker_count(9) == 1
    np.testing.assert_array_equal(_stats(run_experiment(spec)), _stats(default))


def test_cost_guard_counts_one_chunk_per_worker(monkeypatch):
    # tables ~0.43 MB, one chunk of 6 trials ~0.98 MB: one worker fits 2 MiB, two do not
    spec = _wiener_spec(n_steps=4096, trials=60, boxes=((7, 7),))
    monkeypatch.setattr(harness, "MEMORY_BUDGET", 2**21)
    _force_workers(monkeypatch, 1)
    assert harness._chunk_trials(spec, spec.n_steps, 7, 4) == 6
    draws = []
    monkeypatch.setattr(harness, "sample_wiener", lambda *args: draws.append(args))
    for workers in (2, 3):
        _force_workers(monkeypatch, workers)
        with pytest.raises(SizeError):
            harness._chunk_trials(spec, spec.n_steps, 7, 4)
        with pytest.raises(SizeError):
            run_experiment(spec)
    assert not draws

