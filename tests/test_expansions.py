import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stochexpand import basis, expansions, oracle
from stochexpand.basis import Interval
from stochexpand.drivers import (PoissonRealization, compensated_integral, exponential_measure,
                                 make_partition, sample_poisson, sample_wiener, trial_seed)
from stochexpand.expansions import (BasisVariables, expand, pairing_bracket,
                                    pi_from_realization, poisson_variables, wiener_variables,
                                    zeta_from_path)
from stochexpand.harness import power_mark
from stochexpand.kernel import coeff_tensor, unit_kernel
from stochexpand.validation import explicit_bracket

IV = Interval(0.0, 1.0)
SYS = basis.legendre(IV)


def _mark(y):
    return np.asarray(y, dtype=float)


class TestBasisVariables:
    def test_zeta_time_component(self):
        part = make_partition(IV, 2**12)
        path = sample_wiener(part, 1, 0)
        # i = 0 integrates phi_0 = 1 against dt
        assert zeta_from_path(path, SYS, 0, 0) == pytest.approx(1.0, abs=1e-9)

    def test_zeta_statistics(self):
        part = make_partition(IV, 2**10)
        table = np.array([wiener_variables(sample_wiener(part, 1, trial_seed(1, t)),
                                           SYS, 4).table[1]
                          for t in range(4000)])
        n = len(table)
        for j in range(5):
            assert abs(np.mean(table[:, j])) < 3.0 / np.sqrt(n)
            se = np.std(table[:, j] ** 2) / np.sqrt(n)
            assert abs(np.var(table[:, j]) - 1.0) < 3 * se + 5e-3
        cross = table[:, 0] * table[:, 3]
        assert abs(np.mean(cross)) < 3 * np.std(cross) / np.sqrt(n)

    def test_pi_deterministic_component(self):
        real = sample_poisson(IV, 1, exponential_measure(5.0), 3)
        vars_ = poisson_variables(real, SYS, (_mark,), (0,), 2)
        # i = 0: pi_j = int phi_j dt * int y dPi, so only j = 0 survives
        assert vars_.table[0, 0] == pytest.approx(5.0, abs=1e-10)
        assert abs(vars_.table[0, 1]) < 1e-10

    def test_pi_exact_jump_sum(self):
        real = sample_poisson(IV, 1, exponential_measure(5.0), 9)
        times, marks = real.jumps(1)
        vars_ = poisson_variables(real, SYS, (_mark,), (1,), 0)
        want = np.sum(marks) - 5.0  # phi_0 = 1 on [0,1], compensator 1 * 5
        assert vars_.table[0, 0] == pytest.approx(want, abs=1e-12)

    @pytest.mark.parametrize("i, jumps", [(0, True), (1, True), (2, True), (1, False)],
                             ids=["time", "component1", "component2", "no_jumps"])
    # Haar breakpoints and the sqrt(x) of bessel_unit make the compensator quadrature nontrivial
    @pytest.mark.parametrize("sys_", [SYS, basis.haar(IV), basis.bessel_unit(IV.end)],
                             ids=lambda s: s.kind)
    def test_pi_single_matches_table_and_compensated_integral(self, i, jumps, sys_):
        measure = exponential_measure(5.0)
        real = sample_poisson(IV, 2, measure, 12)
        if not jumps:
            empty = (np.empty(0), np.empty(0))
            real = PoissonRealization(IV, 2, empty, empty, measure)
        assert jumps == (len(real.jumps(1)[0]) > 0 and len(real.jumps(2)[0]) > 0)
        singular = sys_.kind == "bessel_unit"
        p_max = 2 if singular else 5  # bessel_unit's quadratures refine to 8192 panels
        table = poisson_variables(real, sys_, (_mark,), (i,), p_max).table[0]
        for j in range(p_max + 1):
            single = pi_from_realization(real, sys_, j, _mark, i)
            direct = compensated_integral(real, i, lambda x, j=j: sys_.eval(j, x), _mark,
                                          sys_.breakpoints(j))
            assert single == direct
            if singular:
                # sqrt(x) near 0 needs refined grids: the table's quadrature stops on the
                # grid where every degree has converged, each single one on its own grid,
                # both to the quadrature's 1e-10 relative tolerance
                assert single == pytest.approx(table[j], rel=1e-9)
            else:
                assert single == pytest.approx(table[j], abs=1e-12)

    def test_compensator_row_cached_read_only_and_moment_checked(self):
        measure = exponential_measure(5.0)
        row = expansions._compensator_row(SYS, 3, measure, _mark, 4.0)
        assert expansions._compensator_row(SYS, 3, measure, _mark, 4.0) is row
        assert not row.flags.writeable
        with pytest.raises(ValueError):
            row[0] = 0.0

        def heavy(y):  # the order-4 moment, int y^800 dPi, overflows to inf
            return np.asarray(y, dtype=float) ** 200

        real = sample_poisson(IV, 1, measure, 3)
        with np.errstate(over="ignore"):
            for _ in range(3):
                with pytest.raises(ValueError, match="moment"):
                    poisson_variables(real, SYS, (heavy,), (1,), 2)

    def test_singular_power_mark_has_no_moment(self):
        # y^-3 has no finite moment of order 4 under Exp(1); the spec and the
        # variables apply the one rule of IntensityMeasure.moment
        real = sample_poisson(IV, 1, exponential_measure(5.0), 3)
        with pytest.raises(ValueError, match="singular at 0"):
            poisson_variables(real, SYS, (power_mark(-3.0),), (1,), 2)

    @pytest.mark.parametrize("combo, powers", [
        ((1, 1), (1.0, 1.0)), ((1, 2), (1.0, 0.5)), ((0, 1, 1), (1.0, 1.0, 0.5)),
        ((1, 1, 2), (1.0, 1.3, 0.5))], ids=["11", "12", "011", "112"])
    @pytest.mark.parametrize("sys_", [SYS, basis.haar(IV)], ids=lambda s: s.kind)
    def test_batch_rows_are_each_realizations_own_bitwise(self, combo, powers, sys_):
        measure = exponential_measure(0.3)
        part = make_partition(IV, 64)
        chunk = [sample_poisson(IV, 2, measure, trial_seed(5, t)) for t in range(12)]
        # jumps in the last step, one of them at the interval's end, and none on component 2
        chunk.insert(5, PoissonRealization(IV, 2, (np.array([0.2, 1.0 - 1e-12, 1.0]), np.empty(0)),
                                           (np.array([0.7, 1.5, 2.5]), np.empty(0)), measure))
        counts = [[len(r.jumps(i)[0]) for i in (1, 2)] for r in chunk]
        assert [0, 0] in counts and any(min(c) > 0 for c in counts)
        marks = tuple(power_mark(a) for a in powers)
        table = poisson_variables(chunk, sys_, marks, combo, 4).table
        _, incs = oracle.slot_increments(chunk, combo, part, marks)
        assert table.shape == (len(chunk), len(combo), 5)
        assert [inc.shape for inc in incs] == [(len(chunk), 64)] * len(combo)
        for t, real in enumerate(chunk):
            alone = poisson_variables(real, sys_, marks, combo, 4).table
            assert alone.shape == (len(combo), 5) and np.array_equal(table[t], alone)
            _, own = oracle.slot_increments(real, combo, part, marks)
            for inc, row in zip(incs, own):
                assert row.shape == (64,) and np.array_equal(inc[t], row)

    def test_batch_needs_one_intensity_and_one_type(self):
        reals = [sample_poisson(IV, 1, exponential_measure(2.0), t) for t in range(2)]
        part = make_partition(IV, 8)
        with pytest.raises(ValueError, match="intensity"):
            poisson_variables(reals, SYS, (_mark,), (1,), 2)
        with pytest.raises(ValueError, match="intensity"):
            oracle.slot_increments(reals, (1,), part, (_mark,))
        for bad in ([], [reals[0], sample_wiener(part, 1, 0)]):
            with pytest.raises(TypeError, match="unsupported realization"):
                oracle.slot_increments(bad, (1,), part, (_mark,))

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            BasisVariables("gaussian", np.array([[np.nan]]))

    @pytest.mark.parametrize("kind", ["wiener", "martingale", "Gaussian", ""])
    def test_unknown_kind_rejected(self, kind):
        with pytest.raises(ValueError, match="kind"):
            BasisVariables(kind, np.zeros((2, 2)))


@st.composite
def bracket_case(draw):
    k = draw(st.integers(2, 4))
    box = tuple(draw(st.integers(0, 2)) for _ in range(k))
    combo = tuple(draw(st.integers(0, 2)) for _ in range(k))
    seed = draw(st.integers(0, 10**6))
    return k, box, combo, seed


@given(bracket_case())
@settings(max_examples=120, deadline=None)
def test_pairing_equals_explicit(case):
    k, box, combo, seed = case
    rng = np.random.default_rng(seed)
    values = rng.standard_normal(tuple(p + 1 for p in box))
    vectors = [rng.standard_normal(p + 1) for p in box]
    a = pairing_bracket(values, vectors, combo)
    b = explicit_bracket(values, vectors, combo)
    assert a == pytest.approx(b, abs=1e-12)


def test_pairing_with_uneven_boxes():
    rng = np.random.default_rng(5)
    values = rng.standard_normal((4, 2))
    vectors = [rng.standard_normal(4), rng.standard_normal(2)]
    got = pairing_bracket(values, vectors, (1, 1))
    # tied contraction runs over the common extent only
    want = values @ vectors[1] @ vectors[0] - np.trace(values[:2, :2])
    assert got == pytest.approx(want, abs=1e-13)


class TestExpand:
    def test_distinct_components_no_correction(self):
        tensor = coeff_tensor(unit_kernel(2, IV), SYS, (2, 2))
        rng = np.random.default_rng(0)
        table = rng.standard_normal((3, 3))
        variables = BasisVariables("gaussian", table)
        got = expand(tensor, variables, (1, 2)).value
        want = float(table[1, :3] @ tensor.values @ table[2, :3])
        assert got == pytest.approx(want, abs=1e-13)

    def test_same_component_subtracts_trace(self):
        tensor = coeff_tensor(unit_kernel(2, IV), SYS, (2, 2))
        rng = np.random.default_rng(1)
        table = rng.standard_normal((2, 3))
        variables = BasisVariables("gaussian", table)
        got = expand(tensor, variables, (1, 1)).value
        want = float(table[1] @ tensor.values @ table[1]) - np.trace(tensor.values)
        assert got == pytest.approx(want, abs=1e-13)

    def test_prelimit_consistency_with_pairing(self):
        # the finite-N correction approaches the indicator correction
        tensor = coeff_tensor(unit_kernel(2, IV), SYS, (3, 3))
        gaps = []
        for n in (2**8, 2**12):
            part = make_partition(IV, n)
            path = sample_wiener(part, 1, trial_seed(4, 0))
            variables = wiener_variables(path, SYS, 3)
            a = expand(tensor, variables, (1, 1), correction="pairing_general").value
            b = expand(tensor, variables, (1, 1), correction="prelimit",
                       realization=path).value
            gaps.append(abs(a - b))
        assert gaps[1] < gaps[0]

    def test_poisson_coincident_requires_prelimit(self):
        real = sample_poisson(IV, 1, exponential_measure(5.0), 2)
        variables = poisson_variables(real, SYS, (_mark, _mark), (1, 1), 2)
        tensor = coeff_tensor(unit_kernel(2, IV), SYS, (2, 2))
        with pytest.raises(ValueError):
            expand(tensor, variables, (1, 1), correction="pairing_general")
        part = make_partition(IV, 256)
        sample = expand(tensor, variables, (1, 1), correction="prelimit",
                        realization=real, partition=part, mark_factors=(_mark, _mark))
        assert np.isfinite(sample.value)

    def test_poisson_k2_tracks_oracle(self):
        kern = unit_kernel(2, IV)
        tensor = coeff_tensor(kern, SYS, (10, 10))
        part = make_partition(IV, 2**10)
        marks = (_mark, _mark)
        diffs = []
        for t in range(150):
            real = sample_poisson(IV, 2, exponential_measure(5.0), trial_seed(6, t))
            variables = poisson_variables(real, SYS, marks, (1, 2), 10)
            sample = expand(tensor, variables, (1, 2))
            o = oracle.iterated_sum(kern, real, (1, 2), part, marks).value
            diffs.append(o - sample.value)
        mse = np.mean(np.square(diffs))
        residual = (0.5 - tensor.partial_sum()) * 100.0  # scaled by (int y^2 dPi)^2
        se = np.std(np.square(diffs)) / np.sqrt(len(diffs))
        assert mse < residual + 3 * se

    def test_box_must_fit_table(self):
        tensor = coeff_tensor(unit_kernel(2, IV), SYS, (5, 5))
        variables = BasisVariables("gaussian", np.zeros((2, 3)))
        with pytest.raises(ValueError):
            expand(tensor, variables, (1, 1))

    def test_unknown_correction(self):
        tensor = coeff_tensor(unit_kernel(2, IV), SYS, (1, 1))
        variables = BasisVariables("gaussian", np.zeros((2, 2)))
        with pytest.raises(ValueError):
            expand(tensor, variables, (1, 1), correction="nope")

