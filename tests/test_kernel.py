import math

import numpy as np
import pytest

from stochexpand import basis, kernel, quadrature
from stochexpand.basis import Interval
from stochexpand.errors import SizeError
from stochexpand.kernel import (Factor, Kernel, coeff, coeff_tensor, kernel_norm_sq,
                                tensor_from_csv, tensor_from_json, tensor_to_csv,
                                tensor_to_json, unit_kernel)

IV = Interval(0.0, 1.0)


def _norm_by_quadrature(k: Kernel) -> float:
    """Iterated integral of prod psi_l^2 over the simplex, beside kernel_norm_sq's closed form."""
    squares = [lambda x, f=f: f(x, k.interval.start) ** 2 for f in k.factors]
    value, _ = quadrature.nested_simplex_integral(squares, k.interval.start, k.interval.end)
    return value


def test_kernel_eval_simplex_indicator():
    k = unit_kernel(2, IV)
    assert k.eval(0.2, 0.7) == 1.0
    assert k.eval(0.7, 0.2) == 0.0
    assert k.eval(0.4, 0.4) == 0.0  # ties fall outside the open simplex


def test_kernel_eval_products():
    k = Kernel(tuple(Factor("pow", 1.0) for _ in range(3)), IV)
    assert k.eval(0.1, 0.2, 0.5) == pytest.approx(0.01)


def test_factor_whitelist():
    with pytest.raises(ValueError):
        Factor("cosine")


def test_single_integral_projection():
    sys = basis.legendre(IV)
    k1 = unit_kernel(1, IV)
    assert coeff(k1, sys, (0,)) == pytest.approx(1.0, abs=1e-12)  # sqrt(T - t)
    assert coeff(k1, sys, (1,)) == pytest.approx(0.0, abs=1e-12)


def test_double_integral_closed_form():
    span = 1.4
    iv = Interval(0.3, 0.3 + span)
    tensor = coeff_tensor(unit_kernel(2, iv), basis.legendre(iv), (5, 5))
    assert tensor.values[0, 0] == pytest.approx(span / 2.0, abs=1e-10)
    for i in range(1, 6):
        c = span / (2.0 * math.sqrt(4 * i * i - 1))
        assert tensor.values[i - 1, i] == pytest.approx(c, abs=1e-10)
        assert tensor.values[i, i - 1] == pytest.approx(-c, abs=1e-10)
    # everything off the two diagonals vanishes
    mask = np.ones((6, 6), dtype=bool)
    mask[0, 0] = False
    for i in range(1, 6):
        mask[i - 1, i] = mask[i, i - 1] = False
    assert np.max(np.abs(tensor.values[mask])) < 1e-10


@pytest.mark.parametrize("sys, box, idxs, weighted", [
    pytest.param(basis.trigonometric(IV), (3, 3), ((0, 0), (1, 2), (3, 1)), False,
                 id="trigonometric_k2"),
    pytest.param(basis.haar(IV), (3, 3, 3), ((0, 0, 0), (1, 2, 3), (3, 1, 2)), False,
                 id="haar_k3"),
    pytest.param(basis.bessel_weighted(1.0), (3, 3), ((0, 0), (1, 2), (3, 1)), True,
                 id="bessel_weighted_k2"),
])
def test_tensor_matches_single_coeff(sys, box, idxs, weighted):
    k = unit_kernel(len(box), IV)
    tensor = coeff_tensor(k, sys, box, weighted=weighted)
    for idx in idxs:
        assert tensor.values[idx] == pytest.approx(coeff(k, sys, idx, weighted=weighted), abs=1e-10)


def _legendre_simplex_coeff(idx, iv):
    """Unit-kernel Legendre coefficient from exact polynomial antiderivatives."""
    leg = np.polynomial.legendre
    inner = np.array([1.0])
    for j in idx:
        inner = leg.legint(leg.legmul(inner, [0.0] * j + [1.0]), lbnd=-1)
    scale = math.prod(math.sqrt((2 * j + 1) / iv.length) for j in idx)
    return scale * (iv.length / 2.0) ** len(idx) * leg.legval(1.0, inner)


@pytest.mark.parametrize("k, p", [(3, 5), (4, 3)])
def test_legendre_tensor_matches_polynomial_antiderivatives(k, p):
    iv = Interval(0.3, 1.7)
    tensor = coeff_tensor(unit_kernel(k, iv), basis.legendre(iv), (p,) * k)
    expected = np.zeros(tensor.values.shape)
    for idx in np.ndindex(*expected.shape):
        expected[idx] = _legendre_simplex_coeff(idx, iv)
    assert np.max(np.abs(tensor.values - expected)) <= 1e-13


def test_coefficients_stay_on_grid_nodes(monkeypatch):
    def refuse(self, x):
        raise AssertionError("primitive evaluated off the grid nodes")

    monkeypatch.setattr(quadrature.Primitive, "__call__", refuse)
    coeff_tensor(unit_kernel(3, IV), basis.haar(IV), (3, 3, 3))
    coeff_tensor(unit_kernel(4, IV), basis.legendre(IV), (2, 2, 2, 2))
    assert coeff(unit_kernel(3, IV), basis.legendre(IV), (0, 0, 0)) == pytest.approx(1.0 / 6.0)
    k = Kernel((Factor("pow", 1.0), Factor("sqrt_shift"), Factor("const", 2.0)), IV)
    assert kernel_norm_sq(k) == pytest.approx(_norm_by_quadrature(k), rel=1e-9)


def test_triple_integral_constant_term():
    # inner-most-first quadrature against the plain iterated integral
    k = unit_kernel(3, IV)
    sys = basis.legendre(IV)
    got = coeff(k, sys, (0, 0, 0))
    assert got == pytest.approx(1.0 / 6.0, abs=1e-12)
    tensor = coeff_tensor(k, sys, (1, 1, 1))
    assert tensor.values[0, 0, 0] == pytest.approx(1.0 / 6.0, abs=1e-10)


def test_haar_coefficients_use_breakpoints():
    sys = basis.haar(IV)
    k = unit_kernel(1, IV)
    # int of the first Haar function over [0,1] is 0; over [0, 1/2] it is 1/2
    assert coeff(k, sys, (1,)) == pytest.approx(0.0, abs=1e-13)
    tensor = coeff_tensor(unit_kernel(2, IV), sys, (2, 2))
    direct = coeff(unit_kernel(2, IV), sys, (1, 2))
    assert tensor.values[1, 2] == pytest.approx(direct, abs=1e-11)


class TestNormAndParseval:
    def test_analytic_unit_kernel(self):
        assert kernel_norm_sq(unit_kernel(2, IV)) == pytest.approx(0.5)
        assert kernel_norm_sq(unit_kernel(3, IV)) == pytest.approx(1.0 / 6.0)

    def test_analytic_vs_quadrature(self):
        k = Kernel((Factor("pow", 1.0), Factor("sqrt_shift")), IV)
        assert kernel_norm_sq(k) == pytest.approx(_norm_by_quadrature(k), rel=1e-9)

    def test_non_power_factor_uses_quadrature(self):
        # int_0^1 e^(1.4 t) dt, one ulp apart from the closed form
        k = Kernel((Factor("exp", 0.7),), IV)
        exact = (math.exp(1.4) - 1.0) / 1.4
        assert abs(kernel_norm_sq(k) - exact) <= math.ulp(exact)

    def test_weighted_norm(self):
        sys = basis.bessel_weighted(1.0, 0)
        # ||K||^2 with weight t1 t2 over the simplex: int t2 int t1 = 1/8
        assert kernel_norm_sq(unit_kernel(2, IV), weighted_system=sys) == pytest.approx(0.125)

    def test_partial_sums_monotone_and_bounded(self):
        tensor = coeff_tensor(unit_kernel(2, IV), basis.legendre(IV), (8, 8))
        sums = [tensor.partial_sum((p, p)) for p in range(9)]
        assert all(a <= b + 1e-15 for a, b in zip(sums, sums[1:]))
        assert sums[-1] <= kernel_norm_sq(tensor.kernel) + 1e-9

    def test_parseval_residual(self):
        tensor = coeff_tensor(unit_kernel(2, IV), basis.legendre(IV), (10, 10))
        residual = kernel_norm_sq(tensor.kernel) - tensor.partial_sum()
        assert residual == pytest.approx(1.0 / 84.0, abs=1e-9)

    def test_symmetry_decomposition(self):
        # C_ab + C_ba recovers the full-square product of 1-D projections
        sys = basis.legendre(IV)
        tensor = coeff_tensor(unit_kernel(2, IV), sys, (4, 4))
        for a, b in ((0, 0), (1, 3), (2, 2), (0, 4)):
            pa, _ = quadrature.integrate(lambda x: sys.eval(a, x), 0.0, 1.0)
            pb, _ = quadrature.integrate(lambda x: sys.eval(b, x), 0.0, 1.0)
            assert tensor.values[a, b] + tensor.values[b, a] == pytest.approx(
                pa * pb, abs=1e-10)


def test_memory_budget_guard():
    with pytest.raises(SizeError):
        coeff_tensor(unit_kernel(3, IV), basis.legendre(IV), (999, 999, 999))


def test_intermediate_memory_guard():
    # the 512 x 512 x 1 output fits the budget, but level 1 would hold
    # 512 * 512 running primitives on at least 128 nodes each
    with pytest.raises(SizeError, match="level 1"):
        coeff_tensor(unit_kernel(3, IV), basis.legendre(IV), (511, 511, 0))


def test_weighted_requires_weighted_system():
    with pytest.raises(ValueError):
        coeff_tensor(unit_kernel(2, IV), basis.legendre(IV), (2, 2), weighted=True)


def test_csv_json_round_trip(tmp_path):
    tensor = coeff_tensor(unit_kernel(2, IV), basis.legendre(IV), (3, 3))
    csv_path = tmp_path / "t.csv"
    json_path = tmp_path / "t.json"
    tensor_to_csv(tensor, csv_path)
    tensor_to_json(tensor, json_path)
    box, values = tensor_from_csv(csv_path)
    assert box == tensor.box
    assert np.array_equal(values, tensor.values)
    back = tensor_from_json(json_path)
    assert back.box == tensor.box
    assert np.array_equal(back.values, tensor.values)
    assert back.system.kind == "legendre"
    assert back.kernel.factors == tensor.kernel.factors
