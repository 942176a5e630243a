import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stochexpand import basis, expansions, oracle
from stochexpand.basis import Interval
from stochexpand.drivers import (PoissonRealization, exponential_measure, make_partition,
                                 sample_gaussian_martingale, sample_poisson, sample_wiener,
                                 trial_seed)
from stochexpand.expansions import (BasisVariables, expand, martingale_variables,
                                    pairing_bracket, poisson_variables, wiener_variables)
from stochexpand.harness import power_mark
from stochexpand.kernel import coeff_tensor, unit_kernel
from stochexpand.validation import explicit_bracket
from test_drivers import compensated_integral

IV = Interval(0.0, 1.0)
SYS = basis.legendre(IV)


def _mark(y):
    return np.asarray(y, dtype=float)


class TestBasisVariables:
    def test_zeta_time_component(self):
        part = make_partition(IV, 2**12)
        path = sample_wiener(part, 1, 0)
        # i = 0 integrates phi_0 = 1 against dt
        assert wiener_variables(path, SYS, 0).table[0, 0] == pytest.approx(1.0, abs=1e-9)

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
            single = compensated_integral(real, i, lambda x, j=j: sys_.eval(j, x), _mark,
                                          sys_.breakpoints(j))
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
        # equal masses share one measure, so the two draw from two masses
        reals = [sample_poisson(IV, 1, exponential_measure(mass), t)
                 for t, mass in enumerate((2.0, 3.0))]
        part = make_partition(IV, 8)
        with pytest.raises(ValueError, match="intensity"):
            poisson_variables(reals, SYS, (_mark,), (1,), 2)
        with pytest.raises(ValueError, match="intensity"):
            oracle.slot_increments(reals, (1,), part, (_mark,))
        for bad in ([], [reals[0], sample_wiener(part, 1, 0)]):
            with pytest.raises(TypeError, match="unsupported realization"):
                oracle.slot_increments(bad, (1,), part, (_mark,))

    def test_equal_slots_share_one_row_built_once(self):
        seen = []

        def mark(y):
            seen.append(len(y))
            return np.asarray(y, dtype=float)

        measure = exponential_measure(3.0)
        chunk = [sample_poisson(IV, 2, measure, trial_seed(4, t)) for t in range(12)]
        alone = poisson_variables(chunk, SYS, (mark,), (1,), 4).table
        poisson_variables(chunk, SYS, (mark, mark), (1, 1), 4)  # caches the compensator row
        seen.clear()
        table = poisson_variables(chunk, SYS, (mark, mark), (1, 1), 4).table
        # the factor meets the chunk's marks on component 1 once, for both slots
        assert seen == [sum(len(r.jumps(1)[0]) for r in chunk)]
        for g in (0, 1):
            assert np.array_equal(table[:, g], alone[:, 0])

    @pytest.mark.parametrize("combo, powers", [
        ((1, 1), (1.0, 0.5)), ((1, 2), (1.0, 1.0)), ((0, 1, 1), (1.0, 1.0, 0.5))],
        ids=["11", "12", "011"])
    def test_each_pair_has_its_row_and_each_component_one_table(self, combo, powers,
                                                                  monkeypatch):
        measure = exponential_measure(3.0)
        chunk = [sample_poisson(IV, 2, measure, trial_seed(4, t)) for t in range(12)]
        marks = tuple(power_mark(a) for a in powers)
        alone = [poisson_variables(chunk, SYS, (phi,), (i,), 4).table[:, 0]
                 for i, phi in zip(combo, marks)]
        poisson_variables(chunk, SYS, marks, combo, 4)  # caches the compensator rows
        tables = []
        original = type(SYS).eval_table

        def counted(system, p_max, x):
            tables.append(len(x))
            return original(system, p_max, x)

        monkeypatch.setattr(type(SYS), "eval_table", counted)
        table = poisson_variables(chunk, SYS, marks, combo, 4).table
        assert tables == [sum(len(r.jumps(i)[0]) for r in chunk)
                          for i in sorted(set(combo) - {0})]
        for g, row in enumerate(alone):
            assert np.array_equal(table[:, g], row)

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            BasisVariables("gaussian", np.array([[np.nan]]), gram=np.eye(1))

    def test_gaussian_variables_carry_their_gram_and_poisson_ones_none(self):
        with pytest.raises(ValueError, match="Gram matrix"):  # one that misses degree 2
            BasisVariables("gaussian", np.zeros((2, 3)), gram=np.eye(2))
        with pytest.raises(ValueError, match="Gram matrix"):
            BasisVariables("poisson", np.zeros((2, 3)), combo=(1, 2), gram=np.eye(3))
        # without one, a Gaussian table serves the combos without a tie only
        tensor = coeff_tensor(unit_kernel(2, IV), SYS, (2, 2))
        variables = BasisVariables("gaussian", np.ones((3, 3)))
        assert expand(tensor, variables, (1, 2)).value == pytest.approx(np.sum(tensor.values))
        with pytest.raises(ValueError, match="has a tie"):
            expand(tensor, variables, (1, 1))

    def test_a_path_builds_the_gram_of_its_rho(self):
        part = make_partition(IV, 64)
        for rho in (None, 2.0, lambda t: 1.0 + np.asarray(t, dtype=float)):
            path = sample_gaussian_martingale(part, 1, rho, 3)
            assert path.rho is rho
            variables = martingale_variables(path, SYS, 4)
            assert variables.gram is expansions.gaussian_gram(SYS, rho, 5)
        assert np.array_equal(expansions.gaussian_gram(SYS, None, 5), np.eye(5))
        assert np.array_equal(expansions.gaussian_gram(SYS, 2.0, 5), 2.0 * np.eye(5))
        assert not expansions.gaussian_gram(SYS, 2.0, 5).flags.writeable

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
    half = rng.standard_normal((3, 3))
    for gram in (np.eye(3), half + half.T):  # orthonormal variables' ties, and any symmetric G
        a = pairing_bracket(values, vectors, combo, gram)
        b = explicit_bracket(values, vectors, combo, gram)
        assert a == pytest.approx(b, abs=1e-12)


def test_pairing_with_uneven_boxes():
    rng = np.random.default_rng(5)
    values = rng.standard_normal((4, 2))
    vectors = [rng.standard_normal(4), rng.standard_normal(2)]
    got = pairing_bracket(values, vectors, (1, 1), np.eye(4))
    # tied contraction runs over the common extent only
    want = values @ vectors[1] @ vectors[0] - np.trace(values[:2, :2])
    assert got == pytest.approx(want, abs=1e-13)
    # and with any Gram matrix, over its (4, 2) block
    gram = rng.standard_normal((4, 4))
    gram += gram.T
    got = pairing_bracket(values, vectors, (1, 1), gram)
    assert got == pytest.approx(values @ vectors[1] @ vectors[0] - np.sum(values * gram[:, :2]),
                                abs=1e-13)


def test_a_tie_with_the_identity_is_the_trace_bitwise():
    # a tie is the trace of the slice times G's diagonal plus the contraction with G's
    # off-diagonal part: with G = I, exactly np.trace over the common extent, tie by tie
    rng = np.random.default_rng(11)
    matchings = {2: [((0, 1),)], 4: [((0, 1), (2, 3)), ((0, 2), (1, 3)), ((0, 3), (1, 2))]}
    for _ in range(300):
        k = int(rng.choice([2, 4]))
        box = tuple(int(rng.integers(0, 10)) for _ in range(k))
        values = rng.standard_normal((10,) * k)[tuple(slice(0, p + 1) for p in box)]
        pairs = matchings[k][rng.integers(len(matchings[k]))]
        want, slots = values, list(range(k))
        for a, b in pairs:
            ia, ib = slots.index(a), slots.index(b)
            trim = [slice(None)] * want.ndim
            trim[ia] = trim[ib] = slice(0, min(want.shape[ia], want.shape[ib]))
            want = np.trace(want[tuple(trim)], axis1=ia, axis2=ib)
            slots = [g for g in slots if g not in (a, b)]
        assert expansions._contract(values, [], pairs, np.eye(10)) == want


def _rho2_path(n_steps, seed):
    return sample_gaussian_martingale(make_partition(IV, n_steps), 1, 2.0, seed)


def test_rho2_tie_takes_the_quadratic_covariation():
    # p = 0: C_00 = 1/2 and xi_0 = M_T, so (1, 1) is (M_T^2 - rho T) / 2, not (M_T^2 - T) / 2
    tensor = coeff_tensor(unit_kernel(2, IV), SYS, (0, 0))
    for t in range(20):
        path = _rho2_path(256, trial_seed(8, t))
        m_t = float(np.sum(path.increment(1)))
        got = expand(tensor, martingale_variables(path, SYS, 0), (1, 1)).value
        assert got == pytest.approx((m_t**2 - 2.0) / 2.0, abs=1e-12)


def test_rho2_k4_ties_give_the_hermite_polynomial():
    # only J = 0 survives the symmetric combo (1, 1, 1, 1) of the unit kernel, so every
    # cubic box gives (rho T)^2 / 24 He_4(M_T / sqrt(rho T)), He_4(x) = x^4 - 6 x^2 + 3
    kern = unit_kernel(4, IV)
    tensors = [coeff_tensor(kern, SYS, (p,) * 4) for p in range(3)]
    for t in range(10):
        path = _rho2_path(256, trial_seed(9, t))
        x = float(np.sum(path.increment(1))) / np.sqrt(2.0)
        want = 4.0 / 24.0 * (x**4 - 6.0 * x**2 + 3.0)
        variables = martingale_variables(path, SYS, 2)
        for tensor in tensors:
            assert expand(tensor, variables, (1, 1, 1, 1)).value == pytest.approx(want, abs=1e-12)


@pytest.mark.parametrize("system, rho", [(SYS, lambda t: 1.0 + np.asarray(t, dtype=float)),
                                         (basis.bessel_weighted(1.0), None)],
                         ids=["legendre_rho_1_plus_t", "bessel_weighted_wiener"])
def test_prelimit_approaches_the_limit_form_at_rate_one_over_n(system, rho):
    # the finite-N G_k sum ties a pair with sum_l phi_a phi_b (tau_l) dM_l^2, the limit form
    # with int phi_a phi_b rho dt: their mean-square gap is O(1/N)
    tensor = coeff_tensor(unit_kernel(2, IV), system, (3, 3))
    gaps = []
    for n in (2**9, 2**10):
        part = make_partition(IV, n)
        sq = []
        for t in range(400):
            path = sample_gaussian_martingale(part, 1, rho, trial_seed(12, t))
            variables = martingale_variables(path, system, 3)
            limit = expand(tensor, variables, (1, 1)).value
            pre = expand(tensor, variables, (1, 1), correction="prelimit", realization=path).value
            sq.append((limit - pre) ** 2)
        gaps.append(np.mean(sq))
    assert 0.4 <= gaps[1] / gaps[0] <= 0.6


class TestExpand:
    def test_distinct_components_no_correction(self):
        tensor = coeff_tensor(unit_kernel(2, IV), SYS, (2, 2))
        rng = np.random.default_rng(0)
        table = rng.standard_normal((3, 3))
        variables = BasisVariables("gaussian", table, gram=np.eye(3))
        got = expand(tensor, variables, (1, 2)).value
        want = float(table[1, :3] @ tensor.values @ table[2, :3])
        assert got == pytest.approx(want, abs=1e-13)

    def test_same_component_subtracts_trace(self):
        tensor = coeff_tensor(unit_kernel(2, IV), SYS, (2, 2))
        rng = np.random.default_rng(1)
        table = rng.standard_normal((2, 3))
        variables = BasisVariables("gaussian", table, gram=np.eye(3))
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
        variables = BasisVariables("gaussian", np.zeros((2, 3)), gram=np.eye(3))
        with pytest.raises(ValueError):
            expand(tensor, variables, (1, 1))

    def test_unknown_correction(self):
        tensor = coeff_tensor(unit_kernel(2, IV), SYS, (1, 1))
        variables = BasisVariables("gaussian", np.zeros((2, 2)), gram=np.eye(2))
        with pytest.raises(ValueError):
            expand(tensor, variables, (1, 1), correction="nope")



def _poisson_11():
    real = sample_poisson(IV, 2, exponential_measure(2.0), 1)
    return real, poisson_variables(real, SYS, (_mark, _mark), (1, 1), 2)


def _wiener_2():
    return wiener_variables(sample_wiener(make_partition(IV, 8), 2, 0), SYS, 2)


def _tensor_2():
    return coeff_tensor(unit_kernel(2, IV), SYS, (2, 2))


@pytest.mark.parametrize("call, message", [
    (lambda: poisson_variables(_poisson_11()[0], SYS, (_mark,), (1, 1), 2),
     "one mark factor per slot"),
    (lambda: expand(_tensor_2(), _wiener_2(), (1,)), "combo length must equal"),
    (lambda: expand(_tensor_2(), _poisson_11()[1], (1, 2), correction="prelimit"),
     "built for a different combo"),
    (lambda: expand(_tensor_2(), _wiener_2(), (1, 1), correction="prelimit"),
     "requires the underlying realization"),
    (lambda: explicit_bracket(np.zeros((1,) * 5), [np.zeros(1)] * 5, (1,) * 5, np.eye(1)),
     "multiplicities 1..4 only"),
], ids=["one_mark_two_slots", "combo_length", "other_combo", "prelimit_without_realization",
        "explicit_k5"])
def test_bad_calls_are_rejected(call, message):
    with pytest.raises(ValueError, match=message):
        call()
