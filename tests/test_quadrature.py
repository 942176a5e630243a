import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stochexpand import quadrature
from stochexpand.errors import QuadratureError


def integrate(f, a: float, b: float, breakpoints=()):
    """Adaptive integral of f over [a, b] by the package's one rule; returns
    (value, error_estimate).  The plain integral that the other test modules'
    oracles take."""
    value, err, _ = quadrature.adaptive(lambda g: g.integrate_values(g.eval_on_nodes(f)),
                                        a, b, breakpoints)
    return float(value), err


def test_polynomial_exact():
    value, err = integrate(lambda x: x**5 - 3 * x**2 + 1, 0.0, 2.0)
    assert value == pytest.approx(2**6 / 6 - 8 + 2, abs=1e-13)
    assert err < 1e-12


def test_breakpoints_make_step_function_exact():
    f = lambda x: np.where(x < 0.3, 2.0, -1.0)
    value, _ = integrate(f, 0.0, 1.0, breakpoints=(0.3,))
    assert value == pytest.approx(0.3 * 2.0 - 0.7, abs=1e-14)


def test_oscillatory_integral():
    value, _ = integrate(np.cos, 0.0, 50.0)
    assert value == pytest.approx(np.sin(50.0), abs=1e-10)


@given(st.floats(0.1, 3.0), st.floats(0.2, 2.0))
@settings(max_examples=25, deadline=None)
def test_exponential_integral(a, c):
    value, _ = integrate(lambda x: np.exp(c * x), 0.0, a)
    assert value == pytest.approx((np.exp(c * a) - 1.0) / c, rel=1e-10)


def test_primitive_matches_antiderivative():
    grid = quadrature.PanelGrid(np.linspace(0.0, 1.0, 9))
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
        integrate(lambda x: (x > 1.0 / 3.0).astype(float), 0.0, 1.0)
    assert exc.value.partial == pytest.approx(2.0 / 3.0, abs=1e-5)
    assert 0.0 < exc.value.error_estimate < 1e-5


def test_non_finite_value_stops_at_the_first_grid():
    grids = []

    def value_on(grid):
        grids.append(grid.n_panels)
        return np.array([1.0, np.nan])

    with pytest.raises(QuadratureError, match="not finite"):
        quadrature.adaptive(value_on, 0.0, 1.0)
    assert grids == [quadrature.MIN_PANELS]  # no refinement


def test_refinement_splits_panels():
    grid = quadrature.PanelGrid(np.array([0.0, 1.0]))
    assert grid.order == quadrature.ORDER
    assert grid.refined().n_panels == 2 * grid.n_panels


@pytest.mark.parametrize("edges", [
    np.linspace(0.0, 1.0, 9),
    quadrature._panel_edges(-0.3, 1.7, (0.1, 0.2, 0.2001, 1.5)),
], ids=["uniform", "breakpoints"])
@pytest.mark.parametrize("lead", [(), (3,), (2, 5)])
def test_adjoint_primitive_is_the_transpose(edges, lead):
    # sum P(g) t == sum g P^T(t) for every leading index: int t int f = int f int t (Fubini)
    grid = quadrature.PanelGrid(edges)
    rng = np.random.default_rng(len(lead) + grid.n_panels)
    g, t = rng.standard_normal((2, *lead, *grid.nodes.shape))
    forward = grid.primitive_node_values(g) * t
    adjoint = g * grid.adjoint_primitive_node_values(t)
    assert adjoint.shape == g.shape
    scale = np.sum(np.abs(forward), axis=(-2, -1))
    err = np.abs(np.sum(forward, axis=(-2, -1)) - np.sum(adjoint, axis=(-2, -1)))
    assert np.all(err <= 1e-13 * scale)


def _linspace_edges(a, b, breakpoints):
    """Reference panel edges: one np.linspace per gap between the breakpoints."""
    pts = np.unique([a, b, *(float(x) for x in breakpoints if a < x < b)])
    target = (b - a) / quadrature.MIN_PANELS
    edges = [pts[0]]
    for left, right in zip(pts[:-1], pts[1:]):
        nsub = max(1, int(np.ceil((right - left) / target - 1e-12)))
        edges.extend(np.linspace(left, right, nsub + 1)[1:])
    return np.asarray(edges)


@pytest.mark.parametrize("a, b, breakpoints", [
    (0.0, 1.0, ()),
    (-0.3, 1.7, (0.1, 0.2, 1.5)),
    (0.0, 1.0, (0.5, -1.0, 2.0, 0.5, 1.0, 0.0)),  # repeats and points outside (a, b)
    (2.0, 3.0, (2.0000001, 2.999999)),
    (-0.731, 0.9, tuple(np.random.default_rng(0).uniform(-1.0, 1.0, 40))),
    (-0.37, 1.41, tuple(-0.37 + 1.78 * np.arange(1, 2**15) / 2**15)),  # Haar j = 16384
])
def test_panel_edges_are_per_gap_linspace_bitwise(a, b, breakpoints):
    got = quadrature._panel_edges(a, b, breakpoints)
    want = _linspace_edges(a, b, breakpoints)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()
