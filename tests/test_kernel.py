import csv
import dataclasses
import json
import math
import time
import tracemalloc

import numpy as np
import pytest

from stochexpand import basis, kernel, quadrature
from stochexpand.basis import Interval
from stochexpand.errors import SizeError
from stochexpand.kernel import (Factor, Kernel, coeff, coeff_tensor, kernel_norm_sq,
                                tensor_from_csv, tensor_from_json, tensor_to_csv,
                                tensor_to_files, tensor_to_json, unit_kernel)

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


@pytest.mark.parametrize("sys, box, idxs", [
    pytest.param(basis.trigonometric(IV), (3, 3), ((0, 0), (1, 2), (3, 1)), id="trigonometric_k2"),
    pytest.param(basis.haar(IV), (3, 3, 3), ((0, 0, 0), (1, 2, 3), (3, 1, 2)), id="haar_k3"),
    pytest.param(basis.bessel_weighted(1.0), (3, 3), ((0, 0), (1, 2), (3, 1)),
                 id="bessel_weighted_k2"),
])
def test_tensor_matches_single_coeff(sys, box, idxs):
    k = unit_kernel(len(box), IV)
    tensor = coeff_tensor(k, sys, box)
    for idx in idxs:
        assert tensor.values[idx] == pytest.approx(coeff(k, sys, idx), abs=1e-10)


def test_weighted_system_weights_its_coefficients():
    # unit kernel, k = 1, on the weight-x Bessel system: C_j = int_0^1 Psi_j(t) t dt,
    # which bessel_unit's coefficients of sqrt(t) equal
    k1 = unit_kernel(1, IV)
    weighted = coeff_tensor(k1, basis.bessel_weighted(1.0), (3,)).values
    want = coeff_tensor(Kernel((Factor("sqrt_shift"),), IV), basis.bessel_unit(1.0), (3,)).values
    np.testing.assert_allclose(weighted, want, rtol=0, atol=1e-9)


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
        assert kernel_norm_sq(unit_kernel(2, IV), sys) == pytest.approx(0.125)
        # a unit-weight system takes the unweighted path: 1/2
        assert kernel_norm_sq(unit_kernel(2, IV), basis.legendre(IV)) == kernel_norm_sq(
            unit_kernel(2, IV)) == 0.5

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


def _forward_tensor_on_grid(kern, system, box, grid):
    """The recursion that the adjoint last level replaced: every level but the last
    takes a running primitive, the last one on prod_{l<k-1} (p_l + 1) rows."""
    x = grid.nodes.ravel()
    phi = system.eval_table(max(box), x)
    if system.weighted:
        phi = phi * system.weight(x)
    prim = np.ones((1, x.size))
    for level, p in enumerate(box[:-1]):
        table = kern.factor_values(level, x) * phi[:p + 1]
        integrand = (prim[:, None, :] * table[None]).reshape((-1,) + grid.nodes.shape)
        prim = grid.primitive_node_values(integrand).reshape(-1, x.size)
    top = kern.factor_values(len(box) - 1, x) * phi[:box[-1] + 1] * grid.weights.ravel()
    return (prim @ top.T).reshape(tuple(p + 1 for p in box))


EXP_POW_CONST = (Factor("exp", 1.0), Factor("pow", 1.0), Factor("const", 1.0),
                 Factor("exp", -0.5))
ORACLE_CASES = {
    "legendre": (basis.legendre(IV), False),
    "haar": (basis.haar(IV), False),
    "trig_exp_pow_const": (basis.trigonometric(IV), True),
    "walsh": (basis.walsh(IV), False),
    "bessel_weighted": (basis.bessel_weighted(1.0), False),
}


@pytest.mark.parametrize("k, p", [(1, 15), (2, 9), (3, 5), (4, 3)])
@pytest.mark.parametrize("name", ORACLE_CASES)
def test_tensor_matches_the_forward_recursion(name, k, p):
    system, factored = ORACLE_CASES[name]
    kern = Kernel(EXP_POW_CONST[:k], IV) if factored else unit_kernel(k, IV)
    box = (p,) * k
    tensor = coeff_tensor(kern, system, box)
    want, err, grid = quadrature.adaptive(lambda g: _forward_tensor_on_grid(kern, system, box, g),
                                          0.0, 1.0, system.breakpoints(p))
    scale = np.max(np.abs(want))
    assert np.max(np.abs(tensor.values - want)) <= 1e-13 * scale
    assert tensor.quad_info["order"] == grid.order
    assert tensor.quad_info["panels"] == grid.n_panels
    # a difference of two grids' tensors, so it moves by at most twice their rounding
    assert abs(tensor.quad_info["estimated_error"] - err) <= 2e-13 * scale


def test_k3_build_peak_is_half_the_forward_recursions():
    # the forward recursion peaked at 6.6 MiB here: its last primitive and integrand
    # held 32 * 32 rows of grid nodes each, where the adjoint takes 32 rows
    kern = Kernel(EXP_POW_CONST[:3], IV)
    coeff_tensor(kern, basis.legendre(IV), (31, 31, 31))  # tables and rules cached first
    tracemalloc.start()
    try:
        coeff_tensor(kern, basis.legendre(IV), (31, 31, 31))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 0.5 * 6.6 * 2**20


def test_k2_build_copies_no_table():
    # 1.68 MiB when level 0 was a product with a row of ones and the top table took
    # two temporaries
    kern = unit_kernel(2, IV)
    coeff_tensor(kern, basis.legendre(IV), (63, 63))  # tables and rules cached first
    tracemalloc.start()
    try:
        coeff_tensor(kern, basis.legendre(IV), (63, 63))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.55 * 2**20


def test_memory_budget_guard():
    with pytest.raises(SizeError):
        coeff_tensor(unit_kernel(3, IV), basis.legendre(IV), (999, 999, 999))


def test_intermediate_memory_guard():
    # the 512 x 512 x 1 output fits the budget, but level 1 would hold
    # 512 * 512 running primitives on at least 128 nodes each
    with pytest.raises(SizeError, match="level 1"):
        coeff_tensor(unit_kernel(3, IV), basis.legendre(IV), (511, 511, 0))


def test_first_grid_table_guard_runs_before_the_breakpoints(monkeypatch):
    # 65537 Haar members on the first grid's 2^17 panels: building the breakpoints
    # and panel edges alone takes about a second, so the guard predicts the grid
    def refuse(self, j_max):
        raise AssertionError("breakpoints built before the basis table was checked")

    monkeypatch.setattr(basis.OrthonormalSystem, "breakpoints", refuse)
    t0 = time.perf_counter()
    with pytest.raises(SizeError, match="basis table"):
        coeff_tensor(unit_kernel(1, IV), basis.haar(IV), (65536,))
    assert time.perf_counter() - t0 < 0.05


def test_coeff_table_guard_runs_before_the_breakpoints(monkeypatch):
    # Haar member 2^18 lives on 2^19 first-grid panels: 2^24 nodes of its one row
    def refuse(self, j_max):
        raise AssertionError("breakpoints built before the basis table was checked")

    monkeypatch.setattr(basis.OrthonormalSystem, "breakpoints", refuse)
    t0 = time.perf_counter()
    with pytest.raises(SizeError, match="basis table"):
        coeff(unit_kernel(1, IV), basis.haar(IV), (2**18,))
    assert time.perf_counter() - t0 < 0.05


@pytest.mark.parametrize("kind, box", [("haar", 0), ("haar", 1), ("haar", 5), ("walsh", 64),
                                       ("legendre", 40)])
def test_first_grid_nodes_is_the_first_grids_size(kind, box):
    system = basis.OrthonormalSystem(kind, Interval(-0.3, 1.7))
    grid = quadrature.PanelGrid(quadrature._panel_edges(-0.3, 1.7, system.breakpoints(box)))
    assert system.first_grid_nodes(box) == grid.nodes.size


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


def _csv_oracle(tensor, path) -> None:
    """The per-entry writer of tensor_to_csv's format: csv.writer rows, each
    value as json.dumps writes it."""
    k = len(tensor.box)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"j_{l}" for l in range(1, k + 1)] + ["value"])
        for idx in np.ndindex(*(p + 1 for p in tensor.box)):
            writer.writerow([*idx, json.dumps(float(tensor.values[idx]))])


def _json_oracle(tensor, path) -> None:
    """The indented writer that tensor_to_json replaced."""
    doc = {
        "kernel": kernel._kernel_meta(tensor.kernel),
        "system": kernel._system_meta(tensor.system),
        "weighted": tensor.system.weighted,
        "box": list(tensor.box),
        "quadrature": tensor.quad_info,
        "values": tensor.values.ravel().tolist(),
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1)


def _special_values_tensor():
    # CoeffTensor rejects non-finite entries, so they are set after construction
    tensor = coeff_tensor(unit_kernel(2, IV), basis.legendre(IV), (2, 1))
    tensor.values = np.array([[0.0, -0.0], [1e-300, -2.5], [math.nan, math.inf]])
    return tensor


EXPORT_TENSORS = {
    "legendre_k2": lambda: coeff_tensor(unit_kernel(2, IV), basis.legendre(IV), (63, 63)),
    "haar_k3": lambda: coeff_tensor(unit_kernel(3, IV), basis.haar(IV), (15, 15, 15)),
    "trig_k3": lambda: coeff_tensor(
        Kernel((Factor("exp", 1.0), Factor("pow", 1.0), Factor("const", 1.0)), IV),
        basis.trigonometric(IV), (7, 7, 7)),
    "walsh_k1": lambda: coeff_tensor(unit_kernel(1, IV), basis.walsh(IV), (31,)),
    "bessel_weighted_k2": lambda: coeff_tensor(unit_kernel(2, IV), basis.bessel_weighted(1.0),
                                               (5, 5)),
    "special_values": _special_values_tensor,
}


@pytest.mark.parametrize("block", [kernel.EXPORT_BLOCK, 4])
@pytest.mark.parametrize("name", EXPORT_TENSORS)
def test_exports_match_the_per_entry_writers(tmp_path, monkeypatch, name, block):
    monkeypatch.setattr(kernel, "EXPORT_BLOCK", block)  # 4 splits every tensor into blocks
    tensor = EXPORT_TENSORS[name]()
    _csv_oracle(tensor, tmp_path / "oracle.csv")
    tensor_to_csv(tensor, tmp_path / "t.csv")
    assert (tmp_path / "t.csv").read_bytes() == (tmp_path / "oracle.csv").read_bytes()
    _json_oracle(tensor, tmp_path / "oracle.json")
    tensor_to_json(tensor, tmp_path / "t.json")
    text, oracle = (tmp_path / "t.json").read_text(), (tmp_path / "oracle.json").read_text()
    got, want = json.loads(text), json.loads(oracle)
    assert np.array_equal(got.pop("values"), want.pop("values"), equal_nan=True)
    assert got == want
    # one compact line: the C encoder's output for the whole document
    assert text == json.dumps(json.loads(oracle))


@pytest.mark.parametrize("name", EXPORT_TENSORS)
def test_csv_value_column_is_the_json_values_text(tmp_path, monkeypatch, name):
    monkeypatch.setattr(kernel, "EXPORT_BLOCK", 4)
    tensor = EXPORT_TENSORS[name]()
    tensor_to_files(tensor, tmp_path / "t.csv", tmp_path / "t.json")
    rows = (tmp_path / "t.csv").read_bytes().decode().split("\r\n")
    assert rows[-1] == ""
    column = [row.rsplit(",", 1)[1] for row in rows[1:-1]]
    text = (tmp_path / "t.json").read_text()
    start = text.rindex('"values": [') + len('"values": [')
    assert column == text[start:text.rindex("]")].split(", ")


def test_csv_round_trips_special_values_bitwise(tmp_path):
    tensor = _special_values_tensor()
    tensor.values = np.array([[-0.0, 1e-300], [math.inf, -math.inf], [math.nan, 0.1]])
    tensor_to_csv(tensor, tmp_path / "t.csv")
    box, values = tensor_from_csv(tmp_path / "t.csv")
    assert box == tensor.box
    assert values.tobytes() == tensor.values.tobytes()


def test_export_memory_is_a_block_not_the_file(tmp_path):
    # the two files of these 2^18 values hold about 13 MB of text, and their Python
    # floats 8 MiB; block by block the writer peaks near 0.3 MiB (2^18 rather than 2^20,
    # which takes 15 s under tracemalloc)
    tensor = _special_values_tensor()
    tensor.box = (511, 511)
    tensor.values = np.random.default_rng(5).standard_normal((512, 512))
    tracemalloc.start()
    try:
        tensor_to_files(tensor, tmp_path / "t.csv", tmp_path / "t.json")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


@pytest.mark.parametrize("system, flag", [(basis.legendre(IV), True),
                                          (basis.bessel_weighted(1.0), False)])
def test_json_whose_flag_disagrees_with_its_system_rejected(tmp_path, system, flag):
    # such a file holds coefficients from the other convention
    path = tmp_path / "t.json"
    tensor_to_json(coeff_tensor(unit_kernel(2, IV), system, (1, 1)), path)
    doc = json.loads(path.read_text())
    assert doc["weighted"] is not flag and doc["system"]["max_walsh_bits"] == basis.WALSH_BITS
    tensor_from_json(path)
    path.write_text(json.dumps(dict(doc, weighted=flag)))
    with pytest.raises(ValueError, match="disagrees"):
        tensor_from_json(path)


@pytest.mark.parametrize("call, message", [
    (lambda: unit_kernel(2, IV).eval(0.5), "point dimension does not match"),
    (lambda: dataclasses.replace(coeff_tensor(unit_kernel(2, IV), basis.legendre(IV), (1, 1)),
                                 values=np.full((2, 2), np.nan)),
     "non-finite entries"),
], ids=["eval_point_dimension", "nan_coefficients"])
def test_bad_calls_are_rejected(call, message):
    with pytest.raises(ValueError, match=message):
        call()
