import math
import tracemalloc

import mpmath
import numpy as np
import pytest

from stochexpand import basis, quadrature
from stochexpand.basis import Interval, bessel_roots, gram_matrix, haar_index
from stochexpand.errors import StochexpandError

IV = Interval(0.0, 1.0)


def legendre_40_digits(n_max, u):
    """P_0..P_{n_max} at the float points u, computed at 40 digits by
    (n+1) P_{n+1} = (2n+1) u P_n - n P_{n-1} and anchored to mpmath.legendre."""
    with mpmath.workdps(40):
        us = [mpmath.mpf(float(v)) for v in u]
        rows = [[mpmath.mpf(1)] * len(us), us]
        for n in range(1, n_max):
            rows.append([((2 * n + 1) * v * a - n * b) / (n + 1)
                         for v, a, b in zip(us, rows[n], rows[n - 1])])
        for n, i in ((n_max, 0), (n_max, len(us) // 2), (n_max // 2, len(us) - 1)):
            assert abs(rows[n][i] - mpmath.legendre(n, us[i])) < mpmath.mpf(10) ** -35
        return np.array([[float(v) for v in row] for row in rows[:n_max + 1]])


class TestEvaluation:
    def test_legendre_constant_member(self):
        assert basis.legendre(IV).eval(0, 0.3) == pytest.approx(1.0)

    def test_legendre_scaled_interval(self):
        sys = basis.legendre(Interval(2.0, 6.0))
        # phi_0 = 1/sqrt(T - t)
        assert sys.eval(0, 3.7) == pytest.approx(0.5)

    def test_trigonometric_constant(self):
        assert basis.trigonometric(IV).eval(0, 0.7) == pytest.approx(1.0)

    def test_trigonometric_ordering(self):
        sys = basis.trigonometric(IV)
        x = 0.13
        assert sys.eval(1, x) == pytest.approx(math.sqrt(2) * math.sin(2 * math.pi * x))
        assert sys.eval(2, x) == pytest.approx(math.sqrt(2) * math.cos(2 * math.pi * x))
        assert sys.eval(3, x) == pytest.approx(math.sqrt(2) * math.sin(4 * math.pi * x))

    def test_haar_first_member_values(self):
        sys = basis.haar(IV)
        assert sys.eval(1, 0.25) == pytest.approx(1.0)
        assert sys.eval(1, 0.75) == pytest.approx(-1.0)

    def test_haar_right_continuity(self):
        sys = basis.haar(IV)
        eps = 1e-12
        # at the midpoint jump the value is the right limit
        assert sys.eval(1, 0.5) == pytest.approx(sys.eval(1, 0.5 + eps))
        assert sys.eval(1, 0.5) != pytest.approx(sys.eval(1, 0.5 - eps))

    def test_haar_indexing(self):
        assert haar_index(1) == (0, 1)
        assert haar_index(2) == (1, 1)
        assert haar_index(3) == (1, 2)
        assert haar_index(4) == (2, 1)

    def test_walsh_is_product_of_rademacher(self):
        sys = basis.walsh(IV)
        x = np.linspace(0.01, 0.99, 37)
        r1 = (-1.0) ** np.floor(2 * x)
        r2 = (-1.0) ** np.floor(4 * x)
        assert np.allclose(sys.eval(3, x), r1 * r2)

    def test_walsh_index_range(self):
        sys = basis.walsh(IV)
        assert sys.eval(2**basis.WALSH_BITS - 1, 0.5) != 0.0
        with pytest.raises(IndexError):
            sys.eval(2**basis.WALSH_BITS, 0.5)

    @pytest.mark.parametrize("kind", ["legendre", "trigonometric", "haar", "walsh",
                                      "bessel_weighted", "bessel_unit"])
    @pytest.mark.parametrize("interval", [IV, Interval(-0.3, 1.7)])
    def test_table_is_the_per_degree_formula_bitwise(self, kind, interval):
        if kind.startswith("bessel"):  # Bessel systems live on [0, T]
            interval = Interval(0.0, interval.length)
        t0, t1, span = interval.start, interval.end, interval.length
        x = np.concatenate([np.linspace(t0, t1, 1025),
                            np.random.default_rng(4).uniform(t0, t1, 333)])
        sys = basis.OrthonormalSystem(kind, interval)
        grid = x[:1358].reshape(2, -1)  # any shape of x, as eval takes it
        if kind == "legendre":
            # Bonnet's recurrence is not bitwise any closed form: its rows are held
            # to 40-digit values of P_n instead, at u = 0, +-1e-6 and +-1 too
            x = np.concatenate([x, (t1 + t0) / 2.0 + span / 2.0 * np.array(
                [0.0, 1e-6, -1e-6, 1.0, -1.0])])
            table = sys.eval_table(63, x)
            u = (x - (t1 + t0) / 2.0) * 2.0 / span
            scale = np.sqrt((2 * np.arange(64) + 1) / span)[:, None]
            assert np.max(np.abs(table / scale - legendre_40_digits(63, u))) <= 3e-14
        else:  # one degree at a time, by the scalar formula
            mu = bessel_roots(0, 64).roots if kind.startswith("bessel") else None

            def member(j, x):
                u = (x - t0) / span
                if kind == "trigonometric" and j:
                    trig = np.sin if j % 2 else np.cos
                    return math.sqrt(2.0 / span) * trig(2.0 * math.pi * ((j + 1) // 2) * u)
                if kind == "haar" and j:
                    n, k = haar_index(j)
                    left = (k - 1) / 2.0**n
                    mid = left + 1.0 / 2.0 ** (n + 1)
                    right = k / 2.0**n
                    amp = 2.0 ** (n / 2.0) / math.sqrt(span)
                    return np.where((u >= left) & (u < mid), amp,
                                    np.where((u >= mid) & (u < right), -amp, 0.0))
                if kind == "walsh":
                    out = np.full_like(x, 1.0 / math.sqrt(span))
                    for bit in range(j.bit_length()):
                        if j >> bit & 1:
                            out = out * (-1.0) ** np.floor(2.0 ** (bit + 1) * u)
                    return out
                if mu is not None:
                    from scipy import special
                    out = (math.sqrt(2.0) / (t1 * special.jv(1, mu[j]))) * special.jv(
                        0, mu[j] * x / t1)
                    return np.sqrt(np.maximum(x, 0.0)) * out if kind == "bessel_unit" else out
                return np.full_like(x, 1.0 / math.sqrt(span))

            table = sys.eval_table(63, x)
            np.testing.assert_array_equal(table, np.stack([member(j, x) for j in range(64)]))
            np.testing.assert_array_equal(sys.eval_table(63, grid),
                                          np.stack([member(j, grid) for j in range(64)]))
        for j in (0, 1, 2, 63):
            np.testing.assert_array_equal(sys.eval(j, x), table[j])
            assert sys.eval(j, x[5]) == table[j, 5] == sys.eval_table(j, x[5])[j]
        np.testing.assert_array_equal(sys.eval_table(63, grid), table[:, :1358].reshape(64, 2, -1))
        np.testing.assert_array_equal(sys.eval(2, grid), table[2, :1358].reshape(2, -1))

    @pytest.mark.parametrize("kind", sorted(basis.GRAM_TOLERANCES))
    def test_table_makes_no_per_degree_call(self, kind, monkeypatch):
        def per_degree(self, j, x):
            raise AssertionError("eval_table called eval")

        sys = basis.OrthonormalSystem(kind, Interval(0.0, 1.7))
        x = np.linspace(0.0, 1.7, 9)
        want = np.stack([sys.eval(j, x) for j in range(9)])
        monkeypatch.setattr(basis.OrthonormalSystem, "eval", per_degree)
        np.testing.assert_array_equal(sys.eval_table(8, x), want)

    def test_legendre_high_degree_keeps_two_rows(self):
        sys = basis.legendre(IV)
        x = np.array([0.1, 0.5, 0.97])
        tracemalloc.start()
        try:
            row = sys.eval(10**5, x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20  # a few work rows of 3 points, not 10**5 rows
        np.testing.assert_array_equal(row, sys.eval_table(10**5, x)[-1])

    def test_negative_index_rejected(self):
        with pytest.raises(IndexError):
            basis.legendre(IV).eval(-1, 0.5)

    def test_bessel_unit_is_sqrt_scaled(self):
        w = basis.bessel_weighted(1.0, 0)
        u = basis.bessel_unit(1.0, 0)
        x = np.linspace(0.05, 0.95, 11)
        assert np.allclose(u.eval(4, x), np.sqrt(x) * w.eval(4, x))

    def test_bessel_requires_zero_start(self):
        with pytest.raises(ValueError):
            basis.OrthonormalSystem("bessel_weighted", Interval(0.5, 1.0))


class TestGram:
    @pytest.mark.parametrize("factory,count,tol", [
        (basis.legendre, 8, 1e-12),
        (basis.trigonometric, 8, 1e-12),
        (basis.haar, 7, 1e-13),
        (basis.walsh, 8, 1e-13),
    ])
    def test_unit_weight_systems(self, factory, count, tol):
        gram = gram_matrix(factory(IV), count)
        assert np.max(np.abs(gram - np.eye(count))) < tol

    def test_bessel_weighted(self):
        gram = gram_matrix(basis.bessel_weighted(1.0, 0), 5)
        assert np.max(np.abs(gram - np.eye(5))) < 1e-8

    def test_bessel_normalization(self):
        sys = basis.bessel_weighted(2.0, 0)
        for j in range(11):
            val, _ = quadrature.integrate(lambda x: sys.eval(j, x) ** 2 * x, 0.0, 2.0)
            assert val == pytest.approx(1.0, abs=1e-8)

    def test_shifted_interval(self):
        gram = gram_matrix(basis.legendre(Interval(1.5, 4.0)), 6)
        assert np.max(np.abs(gram - np.eye(6))) < 1e-12

    def test_density_gram_matches_the_closed_form(self):
        # on [0, 1], 1 + t = 3/2 + u/2 with u = 2t - 1, and
        # u P_n = ((n+1) P_{n+1} + n P_{n-1}) / (2n+1): G = 3/2 I plus
        # (n+1) / (2 sqrt((2n+1)(2n+3))) at (n, n+1) and (n+1, n)
        count = 12
        gram = gram_matrix(basis.legendre(IV), count, lambda t: 1.0 + t)
        n = np.arange(count - 1)
        want = 1.5 * np.eye(count)
        want[n, n + 1] = want[n + 1, n] = (n + 1) / (2.0 * np.sqrt((2 * n + 1) * (2 * n + 3)))
        assert np.max(np.abs(gram - want)) < 1e-13

    @pytest.mark.parametrize("system", [basis.legendre(IV), basis.haar(IV),
                                        basis.bessel_weighted(1.0), basis.bessel_unit(1.0)],
                             ids=lambda s: s.kind)
    def test_default_density_is_the_weight_bitwise(self, system):
        # the form the matrix had before it took a density: the table times sqrt(weight)
        count = 5

        def value_on(grid):
            x = grid.nodes.ravel()
            vals = system.eval_table(count - 1, x) * np.sqrt(system.weight(x))[None, :]
            return (vals * grid.weights.ravel()[None, :]) @ vals.T

        want, _, _ = quadrature.adaptive(value_on, system.interval.start, system.interval.end,
                                         system.breakpoints(count - 1))
        np.testing.assert_array_equal(gram_matrix(system, count), want)


class TestRoots:
    def test_j0_first_zeros(self):
        roots = bessel_roots(0, 3).roots
        assert roots == pytest.approx(
            [2.404825557695773, 5.520078110286311, 8.653727912911012], abs=1e-12)

    def test_j1_first_zero(self):
        assert bessel_roots(1, 1).roots[0] == pytest.approx(3.831705970207512, abs=1e-12)

    @pytest.mark.parametrize("order", [0, 1, 2, 14, 15, 20, 40, 100])
    def test_first_zeros_match_mpmath(self, order):
        roots = bessel_roots(order, 5).roots
        exact = [float(mpmath.besseljzero(order, j)) for j in range(1, 6)]
        np.testing.assert_allclose(roots, exact, rtol=1e-12, atol=0)

    def test_roots_increase(self):
        roots = bessel_roots(2, 20).roots
        assert np.all(np.diff(roots) > 0)
        # consecutive large zeros approach spacing pi
        assert np.all(np.diff(roots) < math.pi + 1.0)


def test_completeness_proxy_projection_error():
    # L2 error of projecting f(x) = x decreases monotonically with degree
    sys = basis.legendre(IV)
    norm_sq = 1.0 / 3.0
    errors = []
    for p in range(13):
        coeffs = [quadrature.integrate(lambda x, j=j: x * sys.eval(j, x), 0.0, 1.0)[0]
                  for j in range(p + 1)]
        errors.append(norm_sq - sum(c * c for c in coeffs))
    assert all(a >= b - 1e-13 for a, b in zip(errors, errors[1:]))
    assert errors[1] < 1e-12  # linear f is captured exactly at degree 1


@pytest.mark.parametrize("call, error, message", [
    (lambda: basis.BesselRootTable(0, np.array([2.0, 1.0])), StochexpandError,
     "not strictly increasing"),
    (lambda: bessel_roots(0, 0), ValueError, "count must be >= 1"),
    (lambda: gram_matrix(basis.legendre(IV), 0), ValueError, "count must be >= 1"),
    (lambda: haar_index(0), ValueError, "j >= 1"),
], ids=["decreasing_bessel_roots", "no_bessel_roots", "empty_gram_matrix", "haar_index_0"])
def test_bad_calls_are_rejected(call, error, message):
    with pytest.raises(error, match=message):
        call()
