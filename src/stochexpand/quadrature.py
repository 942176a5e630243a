"""Composite Gauss-Legendre quadrature with panel splitting at breakpoints.

All integrals in the package go through this module.  Panels are split at
every breakpoint of the integrand (Haar/Walsh jumps), which makes piecewise
polynomial integrands exact.  Nested simplex integrals chain running
primitives F(x) = int_a^x f on the grid's own nodes: on every panel of order
g the primitive at the panel nodes is one fixed g x g spectral integration
matrix applied to the integrand samples, plus an exclusive prefix sum of the
earlier panels (Greengard, "Spectral integration and two-point boundary value
problems", SIAM J. Numer. Anal. 28, 1991).  Primitive.__call__ evaluates a
primitive at arbitrary points for callers outside the package.

There is one rule: panels of ORDER nodes, at least MIN_PANELS of them,
halved until two successive values agree to REL_TOL (or ABS_TOL), at most
MAX_REFINEMENTS times.
"""

from __future__ import annotations

import functools

import numpy as np

from .errors import QuadratureError

__all__ = [
    "PanelGrid",
    "Primitive",
    "nested_simplex_integral",
    "adaptive",
]


ORDER = 32  # Gauss-Legendre nodes per panel
MIN_PANELS = 4  # panels of the first grid, besides the splits at breakpoints
REL_TOL = 1e-10
ABS_TOL = 1e-14
MAX_REFINEMENTS = 12


def _panel_edges(a: float, b: float, breakpoints) -> np.ndarray:
    """Sorted panel edges: breakpoints in (a, b), each gap split to the target width.

    All gaps in one pass; edge i of a gap split into nsub panels is
    left + i * ((right - left) / nsub), and its last edge is right: the values
    np.linspace(left, right, nsub + 1) gives, bitwise."""
    brk = np.asarray(breakpoints, dtype=float).ravel()
    pts = np.unique(np.concatenate(([a, b], brk[(a < brk) & (brk < b)])))
    left, width = pts[:-1], np.diff(pts)
    nsub = np.maximum(1, np.ceil(width / ((b - a) / MIN_PANELS) - 1e-12)).astype(np.int64)
    gap = np.repeat(np.arange(len(nsub)), nsub)
    ends = np.cumsum(nsub)
    i = np.arange(1, ends[-1] + 1) - (ends - nsub)[gap]  # 1..nsub within each gap
    edges = left[gap] + i * (width / nsub)[gap]
    edges[ends - 1] = pts[1:]
    return np.concatenate((pts[:1], edges))


@functools.lru_cache(maxsize=None)
def _reference_rule(order: int):
    """Gauss-Legendre nodes and weights on [0, 1] and the spectral integration matrix.

    S[i, j] is the weight of f(u_j) in int_0^{u_i} f: S = A V^-1 with the
    Legendre Vandermonde matrix V[i, n] = P_n(x_i) and A[i, n] = int_{-1}^{x_i} P_n
    = (P_{n+1} - P_{n-1})(x_i) / (2n + 1), halved for the map [-1, 1] -> [0, 1].
    Discrete orthogonality gives V^-1 = diag((2n + 1) / 2) V^T diag(w).
    Exact for polynomials of degree < order (Greengard, SIAM J. Numer. Anal. 28, 1991).
    """
    x, w = np.polynomial.legendre.leggauss(order)
    n = np.arange(order)
    legendre_vals = np.polynomial.legendre.legvander(x, order)  # P_0 .. P_order at x
    antideriv = np.empty((order, order))
    antideriv[:, 0] = x + 1.0
    antideriv[:, 1:] = (legendre_vals[:, 2:] - legendre_vals[:, :-2]) / (2 * n[1:] + 1)
    v_inv = ((2 * n + 1) / 2.0)[:, None] * legendre_vals[:, :order].T * w[None, :]
    rule = ((x + 1.0) / 2.0, w / 2.0, antideriv @ v_inv / 2.0)
    for arr in rule:
        arr.flags.writeable = False  # shared by every grid of this order
    return rule


class PanelGrid:
    """Gauss-Legendre nodes, ORDER per panel, on a set of panels.

    Exposes plain integration over [a, b] and running primitives on the
    grid's own nodes: within each panel the partial integral up to every
    node is one product with the spectral integration matrix of the order,
    and whole panels before it enter through an exclusive prefix sum.  The
    transpose of that map (adjoint_primitive_node_values) takes the matrix's
    transpose within each panel and a suffix sum of the panels after it.
    """

    order = ORDER  # what CoeffTensor.quad_info reports

    def __init__(self, edges: np.ndarray):
        self.edges = np.asarray(edges, dtype=float)
        self._ref_u, self._ref_w, self._spectral = _reference_rule(ORDER)
        a = self.edges[:-1][:, None]
        b = self.edges[1:][:, None]
        self.nodes = a + (b - a) * self._ref_u[None, :]  # (M, g)
        self.weights = (b - a) * self._ref_w[None, :]

    @property
    def n_panels(self) -> int:
        return len(self.edges) - 1

    def refined(self) -> "PanelGrid":
        """Grid with every panel split in half."""
        mids = (self.edges[:-1] + self.edges[1:]) / 2.0
        edges = np.sort(np.concatenate([self.edges, mids]))
        return PanelGrid(edges)

    def eval_on_nodes(self, f) -> np.ndarray:
        return f(self.nodes.ravel()).reshape(self.nodes.shape)

    def integrate_values(self, node_vals: np.ndarray) -> float:
        return float(np.sum(self.weights * node_vals))

    def _panel_starts(self, node_vals: np.ndarray) -> np.ndarray:
        """int_a^{edge_m} f for m = 0..M from f samples of shape (..., M, g)."""
        panel_ints = np.sum(self.weights * node_vals, axis=-1)
        starts = np.zeros(panel_ints.shape[:-1] + (self.n_panels + 1,))
        np.cumsum(panel_ints, axis=-1, out=starts[..., 1:])
        return starts

    def primitive_node_values(self, node_vals: np.ndarray) -> np.ndarray:
        """Values of F(x) = int_a^x f at every grid node from f samples of shape
        (..., M, g); leading axes are independent integrands."""
        span = (self.edges[1:] - self.edges[:-1])[:, None]
        partial = (node_vals @ self._spectral.T) * span
        return self._panel_starts(node_vals)[..., :-1, None] + partial

    def adjoint_primitive_node_values(self, node_vals: np.ndarray) -> np.ndarray:
        """The transpose of primitive_node_values, for t samples of shape (..., M, g):
        sum(primitive_node_values(f) * t) == sum(f * adjoint_primitive_node_values(t)),
        the grid form of int_a^b t(x) int_a^x f = int_a^b f(y) int_y^b t (Fubini).

        On panel m it is the weights times the sum of t over the later panels, plus
        span_m times t_m @ S, with S the spectral integration matrix."""
        span = (self.edges[1:] - self.edges[:-1])[:, None]
        after = np.zeros(node_vals.shape[:-1])  # sum of t over the panels after each one
        np.cumsum(np.sum(node_vals[..., :0:-1, :], axis=-1), axis=-1, out=after[..., -2::-1])
        out = node_vals @ self._spectral
        out *= span
        out += self.weights * after[..., None]
        return out


class Primitive:
    """Running primitive F(x) = int over [grid start, x] of an integrand.

    node_values holds F on the grid nodes (spectral integration); calling
    the primitive evaluates F at arbitrary points by integrating the tail
    panel with a scaled copy of the reference rule.
    """

    def __init__(self, grid: PanelGrid, f):
        self.grid = grid
        self.f = f
        node_vals = grid.eval_on_nodes(f)
        self._prefix = grid._panel_starts(node_vals)
        self.node_values = grid.primitive_node_values(node_vals)

    def __call__(self, x) -> np.ndarray:
        x = np.atleast_1d(np.asarray(x, dtype=float))
        edges = self.grid.edges
        idx = np.clip(np.searchsorted(edges, x, side="right") - 1, 0, self.grid.n_panels - 1)
        a = edges[idx]
        span = x - a
        u = self.grid._ref_u
        pts = a[:, None] + span[:, None] * u[None, :]
        w = span[:, None] * self.grid._ref_w[None, :]
        partial = np.sum(w * self.f(pts.ravel()).reshape(pts.shape), axis=1)
        return self._prefix[idx] + partial


def _converged(cur, prev):
    err = float(np.max(np.abs(np.asarray(cur) - np.asarray(prev))))
    scale = float(np.max(np.abs(np.asarray(cur))))
    return err, err <= max(ABS_TOL, REL_TOL * max(scale, 1.0))


def _finite_on(value_on_grid, grid: PanelGrid):
    value = value_on_grid(grid)
    if not np.all(np.isfinite(value)):
        raise QuadratureError(f"quadrature value on {grid.n_panels} panels is not finite",
                              partial=value)
    return value


def adaptive(value_on_grid, a: float, b: float, breakpoints=()):
    """Evaluate value_on_grid(grid) on successively refined grids until stable.

    Returns (value, error_estimate, grid).  Raises QuadratureError (carrying
    the partial value) at the first grid whose value is not finite, or if
    MAX_REFINEMENTS refinements do not converge.
    """
    grid = PanelGrid(_panel_edges(a, b, breakpoints))
    prev = _finite_on(value_on_grid, grid)
    for _ in range(MAX_REFINEMENTS):
        grid = grid.refined()
        cur = _finite_on(value_on_grid, grid)
        err, ok = _converged(cur, prev)
        if ok:
            return cur, err, grid
        prev = cur
    raise QuadratureError(
        f"quadrature did not converge after {MAX_REFINEMENTS} refinements "
        f"(last change {err:.3e})",
        partial=cur,
        error_estimate=err,
    )


def nested_simplex_integral(factors, a: float, b: float, breakpoints=()):
    """Iterated integral of factors f_1..f_k over the simplex a < t_1 < ... < t_k < b.

    Computes int_a^b f_k(s) int_a^s f_{k-1}(u) ... ds by chaining running
    primitives on the grid nodes.  Returns (value, error_estimate).
    """

    def value_on(grid: PanelGrid) -> float:
        inner = 1.0
        for f in factors[:-1]:
            inner = grid.primitive_node_values(grid.eval_on_nodes(f) * inner)
        return grid.integrate_values(grid.eval_on_nodes(factors[-1]) * inner)

    value, err, _ = adaptive(value_on, a, b, breakpoints)
    return float(value), err
