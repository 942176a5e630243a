import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stochexpand import quadrature
from stochexpand.errors import QuadratureError


def test_polynomial_exact():
    value, err = quadrature.integrate(lambda x: x**5 - 3 * x**2 + 1, 0.0, 2.0)
    assert value == pytest.approx(2**6 / 6 - 8 + 2, abs=1e-13)
    assert err < 1e-12


def test_breakpoints_make_step_function_exact():
    f = lambda x: np.where(x < 0.3, 2.0, -1.0)
    value, _ = quadrature.integrate(f, 0.0, 1.0, breakpoints=(0.3,))
    assert value == pytest.approx(0.3 * 2.0 - 0.7, abs=1e-14)


def test_oscillatory_integral():
    value, _ = quadrature.integrate(np.cos, 0.0, 50.0)
    assert value == pytest.approx(np.sin(50.0), abs=1e-10)


@given(st.floats(0.1, 3.0), st.floats(0.2, 2.0))
@settings(max_examples=25, deadline=None)
def test_exponential_integral(a, c):
    value, _ = quadrature.integrate(lambda x: np.exp(c * x), 0.0, a)
    assert value == pytest.approx((np.exp(c * a) - 1.0) / c, rel=1e-10)


def test_primitive_matches_antiderivative():
    grid = quadrature.PanelGrid(np.linspace(0.0, 1.0, 9), 32)
    prim = quadrature.Primitive(grid, lambda x: 3 * x**2)
    xs = np.array([0.11, 0.5, 0.73, 0.999])
    assert np.allclose(prim(xs), xs**3, atol=1e-13)
    # cached node values agree with direct evaluation
    assert np.allclose(prim.node_values, grid.nodes**3, atol=1e-13)


def test_nested_simplex_unit_factors():
    # volume of the ordered simplex 0 < t1 < t2 < t3 < 1 is 1/6
    one = lambda x: np.ones_like(x)
    value, _ = quadrature.nested_simplex_integral([one, one, one], 0.0, 1.0)
    assert value == pytest.approx(1.0 / 6.0, abs=1e-12)


def test_nested_simplex_with_weights():
    # int_0^1 t2 int_0^{t2} t1 dt1 dt2 = 1/8
    ident = lambda x: x
    value, _ = quadrature.nested_simplex_integral([ident, ident], 0.0, 1.0)
    assert value == pytest.approx(0.125, abs=1e-12)


def test_nonconvergence_carries_partial_value():
    # no dyadic panel edge reaches the jump at 1/3, so every refinement still
    # changes the value (by 4e-6 at the last of the 12)
    with pytest.raises(QuadratureError, match="after 12 refinements") as exc:
        quadrature.integrate(lambda x: (x > 1.0 / 3.0).astype(float), 0.0, 1.0)
    assert exc.value.partial == pytest.approx(2.0 / 3.0, abs=1e-5)
    assert 0.0 < exc.value.error_estimate < 1e-5


def test_refinement_splits_panels():
    grid = quadrature.PanelGrid(np.array([0.0, 1.0]), 8)
    assert grid.refined().n_panels == 2 * grid.n_panels
