import tracemalloc

import numpy as np
import pytest

from stochexpand import basis, drivers
from stochexpand.basis import Interval
from stochexpand.drivers import (GaussianMartingalePath, exponential_measure,
                                 interval_measures, make_partition, martingale_from_wiener,
                                 sample_gaussian_martingale, sample_poisson, sample_wiener,
                                 scale_draws, trial_seed)
from stochexpand.errors import SizeError
from test_quadrature import integrate

IV = Interval(0.0, 1.0)


def compensated_integral(realization, i: int, h, phi, breakpoints=()) -> float:
    """int h(s) phi(y) nu~(i)(ds, dy): exact jump sum minus the compensator.

    For i = 0 this is the deterministic double integral int h ds * int phi dPi."""
    h = drivers._as_callable(h)
    m1 = realization.intensity.mark_integral(phi)
    compensator, _ = integrate(h, realization.interval.start, realization.interval.end,
                               breakpoints)
    if i == 0:
        return compensator * m1
    times, marks = realization.jumps(i)
    jump_sum = float(np.sum(h(times) * phi(marks))) if len(times) else 0.0
    return jump_sum - compensator * m1


def test_partition_nodes():
    part = make_partition(IV, 4)
    assert np.array_equal(part.nodes, [0.0, 0.25, 0.5, 0.75, 1.0])
    part2 = make_partition(Interval(2.0, 3.0), 2)
    assert np.array_equal(part2.nodes, [2.0, 2.5, 3.0])


def test_partition_validation():
    with pytest.raises(ValueError):
        make_partition(IV, 0)
    with pytest.raises(ValueError):
        drivers.Partition(IV, np.array([0.0, 0.5, 0.4, 1.0]))


def test_partition_tables_are_computed_once_and_read_only():
    part = make_partition(IV, 16)
    assert part.deltas is part.deltas and part.left_nodes is part.left_nodes
    assert np.array_equal(part.deltas, np.diff(part.nodes))
    assert np.array_equal(part.left_nodes, part.nodes[:-1])
    rho = lambda t: 1.0 + t  # noqa: E731
    first = part.step_variances(rho)
    assert part.step_variances(rho) is first
    part.step_variances(lambda t: 2.0 + t)
    again = part.step_variances(rho)  # only the last density is kept
    assert again is not first and np.array_equal(again, first)
    scales = part.step_scales(rho)
    assert part.step_scales(rho) is scales and np.array_equal(scales, np.sqrt(again))
    assert part.step_variances() is part.deltas  # no density: a Wiener path's variances
    assert np.array_equal(part.step_scales(), np.sqrt(part.deltas))
    for table in (part.deltas, part.step_variances(rho), scales, part.step_scales()):
        with pytest.raises(ValueError):
            table[0] = 1.0


def test_constant_density_skips_the_node_table():
    # a number is integrated as deltas * rho: bitwise what the 32-node rule gives a
    # constant callable, without its (N, 32) tables of nodes and values
    n = 2**18
    for rho in (1.0, 2.0, 0.3):
        want = make_partition(IV, n).step_variances(lambda t: np.full_like(t, rho))
        part = make_partition(IV, n)
        tracemalloc.start()
        try:
            got = part.step_variances(rho)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got.tobytes() == want.tobytes()
        assert peak < 4 * got.nbytes
    assert make_partition(IV, 8).step_variances(1.0).tobytes() == make_partition(IV, 8).deltas.tobytes()
    for rho in (-1.0, np.inf, np.nan):
        with pytest.raises(ValueError, match="negative or not finite"):
            make_partition(IV, 8).step_variances(rho)


def test_blocked_step_variances_equal_unblocked_ones_bitwise(monkeypatch):
    # 1000 steps fit one default block; in blocks of 64 the last one holds 40 steps.
    # A density constant on the first blocks only must still be integrated on every block
    kinked = lambda t: np.where(np.asarray(t) < 0.99, 1.0, 2.0)  # noqa: E731
    densities = [lambda t: 1.0 + np.asarray(t, dtype=float), lambda t: 2.0, kinked]
    assert drivers.RHO_BLOCK >= 1000
    whole = [make_partition(IV, 1000).step_variances(rho) for rho in densities]
    monkeypatch.setattr(drivers, "RHO_BLOCK", 64)
    for rho, want in zip(densities, whole):
        calls = []
        got = make_partition(IV, 1000).step_variances(lambda t: calls.append(np.size(t)) or rho(t))
        assert got.tobytes() == want.tobytes()
        assert calls == [64 * 32] * 15 + [40 * 32]
    assert whole[1].tobytes() == make_partition(IV, 1000).step_variances(2.0).tobytes()


ENTROPIES = [0, 1, 2**32 - 1, 2**32, 2**64 + 3, 2**130]  # 2**130: five entropy words
TRIALS = [0, 1, 2**31, 2**32 - 1]


def _numpy_stream(entropy, key):
    return np.random.PCG64(np.random.SeedSequence(entropy, spawn_key=key))


@pytest.mark.parametrize("entropy", ENTROPIES)
def test_streams_are_numpys_seed_sequence_bitwise(entropy):
    keys = [(t, c) for t in TRIALS for c in range(1, 6)]
    words = drivers.seed_words(entropy, np.array(keys))
    for key, row in zip(keys, words):
        np.testing.assert_array_equal(
            row, np.random.SeedSequence(entropy, spawn_key=key).generate_state(4, np.uint64))
        ref = _numpy_stream(entropy, key)
        normals = np.random.Generator(ref).standard_normal(8)
        t, c = key
        # the trial as trial_seed gives it, as a SeedSequence, and as a TrialSeed with words
        for seed in (trial_seed(entropy, t), np.random.SeedSequence(entropy, spawn_key=(t,)),
                     drivers.TrialSeed(entropy, (t,), words[5 * TRIALS.index(t):][:5])):
            rng = drivers.component_rng(seed, c)
            assert rng.bit_generator.state == _numpy_stream(entropy, key).state
            np.testing.assert_array_equal(rng.standard_normal(8), normals)
    for c in range(1, 6):
        np.testing.assert_array_equal(drivers.component_rng(entropy, c).standard_normal(8),
                                      np.random.Generator(_numpy_stream(entropy, (c,)))
                                      .standard_normal(8))


@pytest.mark.parametrize("key", [(), (0,), (2**40,), (3, 2**70, 1), (np.uint64(2**63), 2)])
def test_seed_words_of_any_key(key):
    for entropy in (5, [1, 2, 3], [2**40, 7, 0, 0, 9]):
        want = np.random.SeedSequence(entropy, spawn_key=key).generate_state(4, np.uint64)
        np.testing.assert_array_equal(drivers.seed_words(entropy, key)[0], want)


@pytest.mark.parametrize("entropy, keys", [(9, np.array([[1, -2]])), (9, np.array([[2**32, 1]])),
                                           (9, np.array([1, 2])), (9, np.array([[1.5, 2]])),
                                           (-1, (1,)), (9, (1, -1))])
def test_seed_words_rejects_what_it_cannot_hash(entropy, keys):
    with pytest.raises(ValueError):  # key arrays hold one-word entries
        drivers.seed_words(entropy, keys)


def test_component_rng_rejects_string_seeds_as_seed_sequence_does():
    for seed in ("7", trial_seed("7", 0)):
        with pytest.raises(TypeError):
            drivers.component_rng(seed, 1)


def test_readme_stream_snippet_is_trial_5_component_2():
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(42, spawn_key=(5, 2))))
    z = rng.standard_normal(4096)
    np.testing.assert_array_equal(
        sample_wiener(make_partition(IV, 4096), 2, trial_seed(42, 5)).unit_draws[1], z)


def test_single_key_stream_is_no_slower_than_a_seed_sequence():
    import timeit
    seed = trial_seed(11, 4)
    ours, numpys = [], []
    for _ in range(7):  # interleaved, so a slow spell of the host hits both
        ours.append(timeit.timeit(lambda: drivers.component_rng(seed, 2), number=500))
        numpys.append(timeit.timeit(lambda: np.random.Generator(_numpy_stream(11, (4, 2))),
                                    number=500))
    assert min(ours) <= 1.5 * min(numpys)


class TestWiener:
    def test_determinism(self):
        part = make_partition(IV, 256)
        a = sample_wiener(part, 2, 42)
        b = sample_wiener(part, 2, 42)
        assert np.array_equal(a.increments, b.increments)
        c = sample_wiener(part, 2, 43)
        assert not np.array_equal(a.increments, c.increments)

    def test_time_component(self):
        part = make_partition(IV, 8)
        path = sample_wiener(part, 1, 0)
        assert np.array_equal(path.increment(0), part.deltas)

    def test_normalized_increment_statistics(self):
        part = make_partition(IV, 1000)
        path = sample_wiener(part, 2, 7)
        for i in (1, 2):
            z = path.increment(i) / np.sqrt(part.deltas)
            assert abs(np.mean(z)) < 4.0 / np.sqrt(1000)
            assert abs(np.var(z) - 1.0) < 0.2

    def test_components_independent(self):
        part = make_partition(IV, 1)
        draws = np.array([sample_wiener(part, 2, trial_seed(3, t)).increments[1:, 0]
                          for t in range(4000)])
        corr = np.corrcoef(draws.T)[0, 1]
        assert abs(corr) < 3.0 / np.sqrt(4000)


class TestMartingale:
    def test_unit_density_equals_wiener_bitwise(self):
        part = make_partition(IV, 128)
        seed = trial_seed(11, 0)
        w = sample_wiener(part, 2, seed)
        m = sample_gaussian_martingale(part, 2, 1.0, seed)
        assert np.array_equal(w.increments, m.increments)
        # a Wiener path is the rho == 1 martingale path, variances the step lengths
        none = sample_gaussian_martingale(part, 2, None, seed)
        assert type(w) is type(none) is GaussianMartingalePath
        assert np.array_equal(w.increments, none.increments)
        assert np.array_equal(w.unit_draws, none.unit_draws)
        assert w.variances is part.deltas and none.variances is part.deltas
        assert np.array_equal(m.variances, part.deltas)

    def test_linear_density_variance(self):
        # rho(tau) = tau on [0,1], single step: Var = 1/2
        part = make_partition(IV, 1)
        rho = lambda x: x  # noqa: E731 -- one object: its step variances are computed once
        draws = np.array([sample_gaussian_martingale(part, 1, rho, trial_seed(6, t)).increment(1)[0]
                          for t in range(10**4)])
        se = np.sqrt(2.0 / 10**4) * 0.5  # se of the variance of N(0, 1/2)
        assert abs(np.var(draws) - 0.5) < 3 * se

    def test_exact_step_variances(self):
        part = make_partition(IV, 10)
        path = sample_gaussian_martingale(part, 1, lambda x: x, 0)
        lo = part.nodes[:-1]
        hi = part.nodes[1:]
        assert np.allclose(path.variances, (hi**2 - lo**2) / 2.0, atol=1e-14)

    def test_negative_density_rejected(self):
        part = make_partition(IV, 4)
        with pytest.raises(ValueError):
            sample_gaussian_martingale(part, 1, lambda x: x - 0.5, 0)

    def test_coupled_from_wiener(self):
        part = make_partition(IV, 16)
        w = sample_wiener(part, 1, 9)
        m = martingale_from_wiener(w, lambda x: x)
        expect = w.increment(1) * np.sqrt(part.left_nodes)
        assert np.allclose(m.increment(1), expect)


def _one_plus_t(t):
    return 1.0 + np.asarray(t, dtype=float)


@pytest.mark.parametrize("rho", [None, 2.0, _one_plus_t], ids=["wiener", "rho_2", "rho_1_plus_t"])
@pytest.mark.parametrize("n_steps", [4096, 1025])
def test_scaled_unit_draws_are_the_samplers_increments_bitwise(rho, n_steps):
    seed = trial_seed(123, 5)

    def sample(part):
        if rho is None:
            return sample_wiener(part, 2, seed)
        return sample_gaussian_martingale(part, 2, rho, seed)

    path = sample(make_partition(IV, n_steps))
    assert path.unit_draws.shape == (2, n_steps) and not path.unit_draws.flags.writeable
    for coarse in (n_steps // 2, 3):
        part = make_partition(IV, coarse)
        np.testing.assert_array_equal(scale_draws(path.unit_draws, part, rho),
                                      sample(part).increments)


@pytest.mark.parametrize("rho", [None, 2.0, _one_plus_t], ids=["wiener", "rho_2", "rho_1_plus_t"])
def test_sampler_writes_its_increments_into_out(rho):
    part, seed = make_partition(IV, 1025), trial_seed(123, 5)

    def sample(**kw):
        if rho is None:
            return sample_wiener(part, 2, seed, **kw)
        return sample_gaussian_martingale(part, 2, rho, seed, **kw)

    alone = sample()
    chunk = np.full((4, 3, 1025), np.nan)  # the rows of a chunk of 4 trials
    out = chunk[1]
    path = sample(out=out)
    assert path.increments is out and np.shares_memory(path.increments, chunk)
    assert path.increments.tobytes() == alone.increments.tobytes()
    # the unit draws keep their own array, which the coarser partitions read
    assert path.unit_draws.tobytes() == alone.unit_draws.tobytes()
    assert not np.shares_memory(path.unit_draws, chunk)
    assert np.isnan(chunk[[0, 2, 3]]).all()  # the other trials' rows are untouched


@pytest.mark.parametrize("out", [
    np.empty((2, 8)), np.empty((3, 9)), np.empty((3, 8), dtype=np.float32),
    np.empty((3, 8), dtype=np.int64), np.zeros((3, 8)).tolist(),
    np.broadcast_to(np.zeros(8), (3, 8)),  # read-only
], ids=["rows", "steps", "float32", "int64", "list", "read_only"])
def test_sampler_refuses_a_bad_out_before_any_draw(out, monkeypatch):
    calls = []
    monkeypatch.setattr(drivers, "component_rng", lambda *args: calls.append(args))
    part = make_partition(IV, 8)
    with pytest.raises(ValueError, match="out must be a writeable float64 array of shape"):
        sample_wiener(part, 2, 0, out=out)
    with pytest.raises(ValueError, match=r"shape \(3, 8\)"):
        sample_gaussian_martingale(part, 2, _one_plus_t, 0, out=out)
    assert not calls


def test_unit_draws_are_kept_out_of_comparison_and_repr():
    path = sample_wiener(make_partition(IV, 8), 1, 3)
    assert "unit_draws" not in repr(path)
    assert path == GaussianMartingalePath(path.partition, 1, path.increments, path.variances)
    with pytest.raises(ValueError):
        scale_draws(path.unit_draws, make_partition(IV, 9))


class TestPoisson:
    measure = exponential_measure(5.0)

    def test_determinism(self):
        a = sample_poisson(IV, 2, self.measure, 4)
        b = sample_poisson(IV, 2, self.measure, 4)
        for i in (1, 2):
            assert np.array_equal(a.jumps(i)[0], b.jumps(i)[0])
            assert np.array_equal(a.jumps(i)[1], b.jumps(i)[1])

    def test_jump_times_sorted(self):
        real = sample_poisson(IV, 1, self.measure, 12)
        times, marks = real.jumps(1)
        assert np.all(np.diff(times) >= 0)
        assert len(times) == len(marks)

    def test_mean_count(self):
        counts = [len(sample_poisson(IV, 1, self.measure, trial_seed(1, t)).jumps(1)[0])
                  for t in range(10**4)]
        se = np.sqrt(5.0 / 10**4)
        assert abs(np.mean(counts) - 5.0) < 3 * se

    def test_budget_guard(self):
        with pytest.raises(SizeError):
            sample_poisson(IV, 1, exponential_measure(1e9), 0)

    def test_mark_moments(self):
        # int y^2 dPi for Pi = 5 Exp(1) is 5 * 2
        assert self.measure.moment(lambda y: y, 2.0) == pytest.approx(10.0, rel=1e-10)
        assert self.measure.mark_integral(lambda y: np.ones_like(y)) == pytest.approx(5.0)

    def test_compensated_integral_count(self):
        real = sample_poisson(IV, 1, self.measure, 3)
        n_jumps = len(real.jumps(1)[0])
        one = lambda y: np.ones_like(np.asarray(y, dtype=float))
        value = compensated_integral(real, 1, 1.0, one)
        assert value == pytest.approx(n_jumps - 5.0)

    def test_compensated_integral_moments(self):
        one = lambda y: np.ones_like(np.asarray(y, dtype=float))
        vals = np.array([
            compensated_integral(sample_poisson(IV, 1, self.measure, trial_seed(2, t)),
                                 1, 1.0, one)
            for t in range(4000)])
        assert abs(np.mean(vals)) < 3 * np.std(vals) / np.sqrt(4000)
        # isometry: Var = int 1^2 dPi * int 1 dt = 5
        se = np.std(vals**2) / np.sqrt(4000)
        assert abs(np.var(vals) - 5.0) < 3 * se

    def test_interval_measures_total(self):
        real = sample_poisson(IV, 1, self.measure, 8)
        part = make_partition(IV, 64)
        phi = lambda y: np.asarray(y, dtype=float)
        vals = interval_measures(real, 1, phi, part)
        times, marks = real.jumps(1)
        assert np.sum(vals) == pytest.approx(np.sum(marks) - 5.0, abs=1e-10)

    def test_deterministic_component_zero(self):
        real = sample_poisson(IV, 1, self.measure, 8)
        part = make_partition(IV, 16)
        one = lambda y: np.ones_like(np.asarray(y, dtype=float))
        vals = interval_measures(real, 0, one, part)
        assert np.allclose(vals, part.deltas * 5.0)


@pytest.mark.parametrize("call, error, message", [
    (lambda: drivers.Partition(IV, np.array([0.0, 0.5])), ValueError, "span the interval"),
    (lambda: sample_wiener(make_partition(IV, 8), 0, 0), ValueError, "at least one"),
    (lambda: sample_poisson(IV, 0, exponential_measure(2.0), 0), ValueError,
     "at least one component"),
    (lambda: martingale_from_wiener(sample_wiener(make_partition(IV, 8), 1, 0), -1.0),
     ValueError, "negative"),
    (lambda: martingale_from_wiener(sample_wiener(make_partition(IV, 8), 1, 0),
                                    lambda x: np.where(x > 0.5, np.nan, 1.0)),
     ValueError, "not finite"),
    (lambda: martingale_from_wiener(sample_wiener(make_partition(IV, 8), 1, 0),
                                    lambda x: np.where(x > 0.5, np.inf, 1.0)),
     ValueError, "not finite"),
    (lambda: drivers.IntensityMeasure(0.0, None, None), ValueError,
     "total mass must be finite and positive"),
    (lambda: sample_poisson(IV, 2, exponential_measure(2.0), 0).jumps(3), ValueError,
     r"component must be in 1\.\.2"),
], ids=["partition_span", "wiener_m0", "poisson_m0", "negative_rho", "nan_rho", "inf_rho",
        "zero_mass", "jumps_beyond_m"])
def test_bad_calls_are_rejected(call, error, message):
    with pytest.raises(error, match=message):
        call()
