import itertools

import numpy as np
import pytest

from stochexpand import basis, oracle
from stochexpand.basis import Interval
from stochexpand.drivers import (PoissonRealization, exponential_measure, make_partition,
                                 sample_poisson, sample_wiener, trial_seed)
from stochexpand.harness import power_mark
from stochexpand.kernel import Factor, Kernel, unit_kernel

IV = Interval(0.0, 1.0)


def _mark_one(y):
    return np.ones_like(np.asarray(y, dtype=float))


def test_k1_telescopes():
    part = make_partition(IV, 512)
    path = sample_wiener(part, 1, 3)
    res = oracle.iterated_sum(unit_kernel(1, IV), path, (1,))
    assert res.value == pytest.approx(float(np.sum(path.increment(1))), abs=1e-14)


def test_k2_same_component_identity():
    part = make_partition(IV, 1024)
    path = sample_wiener(part, 1, 17)
    dw = path.increment(1)
    res = oracle.iterated_sum(unit_kernel(2, IV), path, (1, 1))
    assert res.value == pytest.approx((np.sum(dw) ** 2 - np.sum(dw**2)) / 2.0, abs=1e-12)


@pytest.mark.parametrize("combo", [(1,), (1, 2), (1, 1), (1, 2, 1)])
def test_prefix_matches_naive(combo):
    k = len(combo)
    kern = Kernel(tuple(Factor("pow", 1.0) if l % 2 else Factor("const", 1.0)
                        for l in range(k)), IV)
    part = make_partition(IV, 64)
    path = sample_wiener(part, 2, 99)
    fast = oracle.iterated_sum(kern, path, combo).value
    slow = oracle.iterated_sum_naive(kern, path, combo)
    assert fast == pytest.approx(slow, abs=1e-12)


def test_prefix_matches_naive_poisson():
    kern = unit_kernel(2, IV)
    real = sample_poisson(IV, 2, exponential_measure(4.0), 5)
    part = make_partition(IV, 48)
    marks = (_mark_one, _mark_one)
    fast = oracle.iterated_sum(kern, real, (1, 2), part, marks).value
    slow = oracle.iterated_sum_naive(kern, real, (1, 2), part, marks)
    assert fast == pytest.approx(slow, abs=1e-12)


def test_k4_matches_naive():
    kern = Kernel((Factor("const", 1.0), Factor("pow", 1.0), Factor("exp", 1.0),
                   Factor("pow", 2.0)), IV)
    part = make_partition(IV, 8)
    path = sample_wiener(part, 2, 41)
    fast = oracle.iterated_sum(kern, path, (1, 1, 2, 2)).value
    assert fast == pytest.approx(oracle.iterated_sum_naive(kern, path, (1, 1, 2, 2)), abs=1e-12)
    real = sample_poisson(IV, 2, exponential_measure(20.0), 8)
    assert all(len(real.jumps(i)[0]) for i in (1, 2))
    marks = (_mark_one,) * 4
    fast = oracle.iterated_sum(kern, real, (1, 2, 1, 2), part, marks).value
    slow = oracle.iterated_sum_naive(kern, real, (1, 2, 1, 2), part, marks)
    assert fast == pytest.approx(slow, abs=1e-12)


def test_set_partitions_enumerate_the_lattice_with_moebius_weights():
    for k, bell in enumerate((1, 1, 2, 5, 15, 52)):
        parts = oracle.set_partitions(k)
        assert len(parts) == len(set(p for p, _ in parts)) == bell
        assert parts[0] == (tuple((g,) for g in range(k)), 1)  # finest first
        for blocks, mu in parts:
            assert sorted(g for b in blocks for g in b) == list(range(k))
            assert all(list(b) == sorted(b) for b in blocks)
        if k >= 2:
            assert sum(mu for _, mu in parts) == 0  # sum of mu over the lattice
    assert dict(oracle.set_partitions(3))[((0, 1, 2),)] == 2
    assert dict(oracle.set_partitions(4))[((0, 1), (2, 3))] == 1


def _gk_brute_force(tables, incs):
    """Sum of prod_g f_g[:, q_g] over every index tuple with a coincidence."""
    f = [t * inc[None, :] for t, inc in zip(tables, incs)]
    want = np.zeros([len(t) for t in tables])
    for qs in itertools.product(range(len(incs[0])), repeat=len(f)):
        if len(set(qs)) < len(qs):
            want += np.einsum(",".join("abcdefgh"[:len(f)]), *(fg[:, q] for fg, q in zip(f, qs)))
    return want


def test_gk_tensor_k4_matches_brute_force():
    sys = basis.legendre(IV)
    part = make_partition(IV, 8)
    tables = [sys.eval_table(p, part.left_nodes) for p in (1, 2, 1, 2)]
    path = sample_wiener(part, 2, 41)
    real = sample_poisson(IV, 1, exponential_measure(20.0), 8)
    _, poisson_incs = oracle.slot_increments(real, (1,) * 4, part, (_mark_one,) * 4)
    for incs in ([path.increment(i) for i in (1, 1, 2, 2)], poisson_incs):
        got = oracle.gk_correction_tensor(tables, incs)
        want = _gk_brute_force(tables, incs)
        assert got.shape == (2, 3, 2, 3)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def test_partition_mismatch_rejected():
    path = sample_wiener(make_partition(IV, 8), 1, 0)
    other = make_partition(IV, 16)
    with pytest.raises(ValueError):
        oracle.iterated_sum(unit_kernel(1, IV), path, (1,), other)


def test_unknown_realization_type_rejected():
    part = make_partition(IV, 8)
    with pytest.raises(TypeError, match="unsupported realization"):
        oracle.slot_increments(part.deltas, (1,), part)
    with pytest.raises(TypeError, match="unsupported realization"):
        oracle.iterated_sum(unit_kernel(1, IV), object(), (1,))


def _gk_single(path, system, js, combo):
    """G_k sum of one multi-index, from one-row basis tables."""
    part, incs = oracle.slot_increments(path, combo)
    tables = [system.eval(j, part.left_nodes)[None, :] for j in js]
    return float(oracle.gk_correction_tensor(tables, incs).ravel()[0])


def test_gk_diagonal_k2_same_index():
    # quadratic-variation flavor: sum phi_j(tau_l)^2 (dw_l)^2 has mean ~ 1
    sys = basis.legendre(IV)
    part = make_partition(IV, 2048)
    vals = []
    for t in range(500):
        path = sample_wiener(part, 1, trial_seed(23, t))
        vals.append(_gk_single(path, sys, (2, 2), (1, 1)))
    se = np.std(vals) / np.sqrt(len(vals))
    assert abs(np.mean(vals) - 1.0) < 3 * se


def test_gk_cross_component_shrinks_with_n():
    sys = basis.legendre(IV)
    second_moments = []
    for n in (2**8, 2**10, 2**12):
        part = make_partition(IV, n)
        vals = [_gk_single(sample_wiener(part, 2, trial_seed(31, t)), sys, (0, 0), (1, 2))
                for t in range(400)]
        second_moments.append(np.mean(np.square(vals)))
    assert second_moments[0] > second_moments[1] > second_moments[2]


def test_gk_tensor_matches_scalar_entries():
    sys = basis.legendre(IV)
    part = make_partition(IV, 128)
    path = sample_wiener(part, 2, 77)
    left = part.left_nodes
    tables = [sys.eval_table(2, left), sys.eval_table(3, left)]
    incs = [path.increment(1), path.increment(1)]
    full = oracle.gk_correction_tensor(tables, incs)
    assert full.shape == (3, 4)
    for j1 in range(3):
        for j2 in range(4):
            single = _gk_single(path, sys, (j1, j2), (1, 1))
            assert full[j1, j2] == pytest.approx(single, abs=1e-13)


def test_gk_tensor_k3_inclusion_exclusion():
    # brute-force check of the coincidence sum on a tiny partition
    sys = basis.legendre(IV)
    part = make_partition(IV, 12)
    path = sample_wiener(part, 2, 13)
    left = part.left_nodes
    tables = [sys.eval_table(1, left) for _ in range(3)]
    incs = [path.increment(i) for i in (1, 2, 1)]
    got = oracle.gk_correction_tensor(tables, incs)
    assert np.allclose(got, _gk_brute_force(tables, incs), atol=1e-12)


@pytest.mark.parametrize("combo", [(1, 1), (1, 1, 2), (1, 2, 1), (1, 1, 1), (2, 1, 1, 2)])
def test_gk_tensor_shares_equal_slot_products_bitwise(combo):
    # slots with one table object and one increment object share a product; results must
    # be bitwise those of separate products (distinct table objects share nothing)
    sys = basis.legendre(IV)
    part = make_partition(IV, 256)
    path = sample_wiener(part, 2, 5)
    table = sys.eval_table(3, part.left_nodes)
    rows = {i: path.increment(i).copy() for i in combo}
    incs = [rows[i] for i in combo]  # one array per component, as slot_increments gives
    shared = oracle.gk_correction_tensor([table] * len(combo), incs)
    separate = oracle.gk_correction_tensor([table.copy() for _ in combo], incs)
    np.testing.assert_array_equal(shared, separate)
    _, views = oracle.slot_increments(path, combo)
    assert all((u is v) == (i == j) for u, i in zip(views, combo) for v, j in zip(views, combo))


# combo, mark powers, box: equal and unequal marks, a time slot, four slots on one component
GK_CHUNK_CASES = {
    "11_equal_marks": ((1, 1), (1.0, 1.0), (7, 7)),
    "11_unequal_marks": ((1, 1), (1.0, 0.5), (7, 5)),
    "011": ((0, 1, 1), (1.0, 1.0, 1.0), (2, 3, 2)),
    "1111": ((1, 1, 1, 1), (1.0, 1.0, 0.5, 1.0), (2, 1, 2, 1)),
}


@pytest.mark.parametrize("system", ["legendre", "haar"])
@pytest.mark.parametrize("n", [64, 4096])
@pytest.mark.parametrize("case", GK_CHUNK_CASES)
def test_gk_chunk_form_matches_the_dense_form(case, n, system):
    combo, powers, box = GK_CHUNK_CASES[case]
    part = make_partition(IV, n)
    full = getattr(basis, system)(IV).eval_table(max(box), part.left_nodes)
    rows = {p: full[:p + 1] for p in box}
    tables = [rows[p] for p in box]
    marks = tuple(power_mark(a) for a in powers)
    for mass, seed in ((5.0, 3), (0.3, 4)):  # at total mass 0.3 most trials have no jumps
        intensity = exponential_measure(mass)
        reals = [sample_poisson(IV, 2, intensity, trial_seed(seed, t)) for t in range(12)]
        # jumps in the last step, one of them at the interval's end
        reals.append(PoissonRealization(IV, 2, (np.array([0.5, 1 - 0.5 / n]), np.array([1.0])),
                                        (np.array([0.7, 1.3]), np.array([0.4])), intensity))
        none = (np.empty(0),) * 2
        base = oracle.gk_base(tables, oracle.slot_increments(
            PoissonRealization(IV, 2, none, none, intensity), combo, part, marks)[1])

        def chunk_form(batch):
            return oracle.gk_correction_tensor(
                tables, oracle.slot_increments(batch, combo, part, marks)[1], base)

        got = chunk_form(reals)
        dense = np.stack([oracle.gk_correction_tensor(
            tables, oracle.slot_increments(r, combo, part, marks)[1]) for r in reals])
        assert got.shape == (len(reals), *(p + 1 for p in box))
        assert np.max(np.abs(got - dense)) <= 1e-13 * np.max(np.abs(dense))
        # the dense form in extended precision: the chunk form's own rounding is smaller
        # than the float64 dense form's, whose sums run over all N steps
        exact = np.stack([oracle.gk_correction_tensor(
            [t.astype(np.longdouble) for t in tables],
            [i.astype(np.longdouble) for i in oracle.slot_increments(r, combo, part, marks)[1]])
            for r in reals])
        assert np.max(np.abs(got - exact)) <= 1e-14 * np.max(np.abs(exact))
        # without a base, a chunk's sums are each trial's dense ones
        np.testing.assert_array_equal(oracle.gk_correction_tensor(
            tables, oracle.slot_increments(reals, combo, part, marks)[1]), dense)
        for size in (1, 7):
            np.testing.assert_array_equal(
                np.concatenate([chunk_form(reals[i:i + size]) for i in range(0, len(reals), size)]),
                got)
        # a trial without jumps on the combo's components takes the base's sums, bitwise
        quiet = [t for t, r in enumerate(reals) if not any(len(r.jumps(i)[0]) for i in combo if i)]
        assert quiet or mass == 5.0
        np.testing.assert_array_equal(got[quiet], dense[quiet])
    with pytest.raises(ValueError, match="other basis tables"):
        oracle.gk_correction_tensor([t.copy() for t in tables],
                                    oracle.slot_increments(reals, combo, part, marks)[1], base)


def test_poisson_slots_share_one_measure_per_component_and_mark(monkeypatch):
    real = sample_poisson(IV, 2, exponential_measure(4.0), 5)
    part = make_partition(IV, 48)
    measure = oracle.interval_measures
    calls = []
    monkeypatch.setattr(oracle, "interval_measures",
                        lambda *args: calls.append(args[1:3]) or measure(*args))
    y = power_mark(1.0)
    assert power_mark(1) is y  # the CLI's "mark_powers": [1, 1.0] give one callable
    _, incs = oracle.slot_increments(real, (1, 1, 2), part, (y, power_mark(1), y))
    assert calls == [(1, y), (2, y)]
    assert incs[0] is incs[1] and not incs[0].flags.writeable
    for i, inc in zip((1, 1, 2), incs):
        np.testing.assert_array_equal(inc, measure(real, i, y, part))
    _, incs = oracle.slot_increments(real, (1, 1), part, (y, power_mark(2.0)))
    assert incs[0] is not incs[1] and len(calls) == 4


@pytest.mark.parametrize("call, message", [
    (lambda: oracle.slot_increments(sample_poisson(IV, 1, exponential_measure(2.0), 1), (1,),
                                    mark_factors=(_mark_one,)),
     "a partition is required"),
    (lambda: oracle.slot_increments(sample_poisson(IV, 1, exponential_measure(2.0), 1), (1, 1),
                                    make_partition(IV, 8), (_mark_one,)),
     "one mark factor per slot"),
    (lambda: oracle.iterated_sum(unit_kernel(2, IV), sample_wiener(make_partition(IV, 8), 2, 0),
                                 (1,)),
     "combo length must equal kernel multiplicity"),
], ids=["poisson_without_partition", "mark_factor_count", "combo_length"])
def test_bad_calls_are_rejected(call, message):
    with pytest.raises(ValueError, match=message):
        call()
