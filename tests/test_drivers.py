import numpy as np
import pytest

from stochexpand import drivers
from stochexpand.basis import Interval
from stochexpand.drivers import (compensated_integral, exponential_measure,
                                 interval_measures, make_partition,
                                 martingale_from_wiener, realization_from_json,
                                 realization_to_json, sample_gaussian_martingale,
                                 sample_poisson, sample_wiener, trial_seed)
from stochexpand.errors import SizeError

IV = Interval(0.0, 1.0)


def test_partition_nodes():
    part = make_partition(IV, 4)
    assert np.array_equal(part.nodes, [0.0, 0.25, 0.5, 0.75, 1.0])
    assert part.max_delta == 0.25
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
    assert part.step_variances(rho) is part.step_variances(rho)
    for table in (part.deltas, part.step_variances(rho)):
        with pytest.raises(ValueError):
            table[0] = 1.0


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

    def test_linear_density_variance(self):
        # rho(tau) = tau on [0,1], single step: Var = 1/2
        part = make_partition(IV, 1)
        draws = np.array([
            sample_gaussian_martingale(part, 1, lambda x: x, trial_seed(6, t)).increment(1)[0]
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


def test_json_round_trip(tmp_path):
    part = make_partition(IV, 32)
    w = sample_wiener(part, 2, 1)
    m = sample_gaussian_martingale(part, 1, lambda x: x, 2)
    p = sample_poisson(IV, 2, exponential_measure(3.0), 3)
    for obj, name in ((w, "w"), (m, "m"), (p, "p")):
        path = tmp_path / f"{name}.json"
        realization_to_json(obj, path)
        back = realization_from_json(path)
        assert type(back) is type(obj)
    back_w = realization_from_json(tmp_path / "w.json")
    assert np.array_equal(back_w.increments, w.increments)
    back_p = realization_from_json(tmp_path / "p.json")
    assert np.array_equal(back_p.jumps(2)[1], p.jumps(2)[1])
