import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hybridlab.infotheory import (
    ConditionalPmf,
    DistortionMeasure,
    JointPmf,
    Pmf,
    ScenarioError,
    as_table,
    compose_joint,
    conditional_mutual_information,
    entropy,
    mutual_information,
    typical_pairs,
    typical_table,
)
from oracles import bsc_kernel, is_typical, uniform_pmf


def h2(p):
    return -p * math.log2(p) - (1 - p) * math.log2(1 - p)


def random_pmf(rng, k):
    v = rng.random(k) + 1e-3
    return Pmf(v / v.sum())


class TestConstruction:
    def test_negative_probability_rejected(self):
        with pytest.raises(ScenarioError):
            Pmf([1.2, -0.2])

    def test_bad_sum_rejected(self):
        with pytest.raises(ScenarioError):
            Pmf([0.5, 0.4])

    def test_renormalizes_tiny_drift(self):
        p = Pmf([0.5 + 4e-10, 0.5])
        assert abs(p.probs.sum() - 1.0) <= 1e-12

    def test_kernel_rows_validated(self):
        with pytest.raises(ScenarioError):
            ConditionalPmf([[0.5, 0.5], [0.9, 0.2]])

    def test_joint_validated(self):
        with pytest.raises(ScenarioError):
            JointPmf([[0.5, 0.5], [0.5, 0.5]])

    @pytest.mark.parametrize("build", [
        lambda: Pmf([float("nan"), 1.0]),
        lambda: ConditionalPmf([[float("nan"), 1.0], [0.5, 0.5]]),
        lambda: JointPmf([[0.5, float("nan")], [0.25, 0.25]]),
        lambda: DistortionMeasure([[0, float("nan")], [1, 0]]),
        lambda: DistortionMeasure([[0, float("inf")], [1, 0]]),
        lambda: Pmf(["a", "b"]),
        lambda: ConditionalPmf([[1.0], [0.5, 0.5]]),
    ], ids=["pmf-nan", "kernel-nan", "joint-nan", "distortion-nan", "distortion-inf",
            "pmf-strings", "kernel-ragged"])
    def test_non_finite_or_malformed_rejected(self, build):
        with pytest.raises(ScenarioError):
            build()

    @pytest.mark.parametrize("value", [1e20, math.inf, 2.0 ** 63], ids=["1e20", "inf", "2**63"])
    def test_symbols_past_int64_rejected(self, value):
        # Checked before np.mod (which warns on inf) and before the cast
        # (which wraps at 2**63).
        with pytest.raises(ScenarioError, match="below 2"):
            as_table([value], "dec_map", whole=True)

    def test_largest_symbol_below_2_to_the_63_kept(self):
        assert as_table([2.0 ** 63 - 1024], "dec_map", whole=True).tolist() == [2 ** 63 - 1024]

    def test_immutable(self):
        p = Pmf([0.5, 0.5])
        with pytest.raises(ValueError):
            p.probs[0] = 0.3

    def test_deterministic_kernel(self):
        k = ConditionalPmf.deterministic([[0, 1], [1, 0]], 2)
        assert np.array_equal(k.rows, [[1, 0], [0, 1], [0, 1], [1, 0]])


class TestEntropy:
    def test_uniform_binary(self):
        assert entropy(uniform_pmf(2)) == pytest.approx(1.0, abs=1e-12)

    def test_point_mass(self):
        assert entropy(Pmf([0.0, 1.0, 0.0])) == 0.0

    def test_uniform_ternary(self):
        assert entropy(uniform_pmf(3)) == pytest.approx(math.log2(3), abs=1e-12)

    @given(st.lists(st.floats(1e-3, 1.0), min_size=2, max_size=6))
    def test_bounded_by_log_alphabet(self, weights):
        p = Pmf(np.asarray(weights) / sum(weights))
        h = entropy(p)
        assert -1e-12 <= h <= math.log2(p.alphabet_size) + 1e-12

    @given(st.integers(2, 6))
    def test_uniform_maximizes(self, k):
        rng = np.random.default_rng(k)
        for _ in range(20):
            assert entropy(random_pmf(rng, k)) <= entropy(uniform_pmf(k)) + 1e-12


class TestMutualInformation:
    def test_product_joint_zero(self):
        j = JointPmf.product(Pmf([0.3, 0.7]), Pmf([0.6, 0.4]))
        assert mutual_information(j, [0], [1]) == pytest.approx(0.0, abs=1e-12)

    def test_identity_coupling_one_bit(self):
        j = JointPmf(np.eye(2) / 2)
        assert mutual_information(j, [0], [1]) == pytest.approx(1.0, abs=1e-12)

    def test_bsc_uniform_input(self):
        j = compose_joint(JointPmf(uniform_pmf(2).probs),
                          [(bsc_kernel(0.1), [0])])
        assert mutual_information(j, [0], [1]) == pytest.approx(1 - h2(0.1), abs=1e-12)

    def test_overlapping_axes_rejected(self):
        j = JointPmf(np.eye(2) / 2)
        with pytest.raises(ValueError):
            mutual_information(j, [0], [0])

    @given(st.integers(0, 1000))
    @settings(max_examples=30)
    def test_symmetry(self, seed):
        rng = np.random.default_rng(seed)
        m = rng.random((3, 4)) + 1e-3
        j = JointPmf(m / m.sum())
        assert mutual_information(j, [0], [1]) == pytest.approx(
            mutual_information(j, [1], [0]), abs=1e-12)

    def test_conditional_mi_chain(self):
        # I(A;B|C) on a Markov chain A - C - B is zero.
        pa = Pmf([0.5, 0.5])
        j = compose_joint(JointPmf(pa.probs),
                          [(bsc_kernel(0.2), [0]),
                           (bsc_kernel(0.3), [1])])
        assert conditional_mutual_information(j, [0], [2], [1]) == pytest.approx(0.0, abs=1e-12)


class TestComposeJoint:
    def test_identity_kernel(self):
        j = compose_joint(JointPmf([0.3, 0.7]),
                          [(ConditionalPmf.identity(2), [0])])
        assert np.allclose(j.probs, [[0.3, 0], [0, 0.7]])

    def test_bsc_product(self):
        j = compose_joint(JointPmf(uniform_pmf(2).probs),
                          [(bsc_kernel(0.25), [0])])
        assert float(j.probs[0, 1] + j.probs[1, 0]) == pytest.approx(0.25, abs=1e-12)

    def test_data_processing(self):
        # Brute-force check on a small chain: I(S;Y) <= I(S;U).
        j = compose_joint(JointPmf([0.4, 0.6]),
                          [(bsc_kernel(0.1), [0]),
                           (bsc_kernel(0.2), [1])])
        assert mutual_information(j, [0], [2]) <= mutual_information(j, [0], [1]) + 1e-12

    @given(st.integers(0, 500))
    @settings(max_examples=30)
    def test_marginal_recovers_source(self, seed):
        rng = np.random.default_rng(seed)
        src = random_pmf(rng, 3)
        rows = rng.random((3, 2)) + 1e-3
        rows /= rows.sum(axis=1, keepdims=True)
        j = compose_joint(JointPmf(src.probs), [(ConditionalPmf(rows), [0])])
        assert np.allclose(j.marginal([0]).probs, src.probs, atol=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            compose_joint(JointPmf(uniform_pmf(3).probs),
                          [(bsc_kernel(0.1), [0])])


class TestTypicality:
    def test_exact_empirical_always_typical(self):
        seq = [0, 0, 1, 1]
        assert is_typical(seq, uniform_pmf(2), 1e-9)

    def test_all_zeros_not_typical(self):
        assert not is_typical([0, 0, 0, 0], uniform_pmf(2), 0.1)

    def test_zero_probability_symbol_forces_false(self):
        assert not is_typical([0, 1, 2, 0], Pmf([0.5, 0.5, 0.0]), 5.0)

    def test_joint_tuple(self):
        j = JointPmf(np.eye(2) / 2)
        assert is_typical(([0, 1], [0, 1]), j, 0.1)
        assert not is_typical(([0, 1], [1, 0]), j, 0.9)

    def test_length_mismatch(self):
        j = JointPmf(np.eye(2) / 2)
        with pytest.raises(ValueError):
            is_typical(([0, 1], [0]), j, 0.1)

    @pytest.mark.parametrize("eps", [0.0, -1.0, math.inf, math.nan])
    def test_epsilon_must_be_positive_and_finite(self, eps):
        # inf * 0 is NaN, which would fail every sequence on a zero cell.
        with pytest.raises(ValueError):
            is_typical([0, 1], Pmf([0.5, 0.5, 0.0]), eps)

    @given(st.lists(st.integers(0, 1), min_size=4, max_size=12),
           st.floats(0.05, 1.0), st.floats(0.01, 1.0))
    @settings(max_examples=60)
    def test_monotone_in_epsilon(self, seq, eps, shrink):
        ref = Pmf([0.4, 0.6])
        smaller = eps * min(shrink, 0.999)
        if is_typical(seq, ref, smaller):
            assert is_typical(seq, ref, eps)

    def test_batched_mask_matches_single_sequences(self):
        # typical_pairs with leading batch axes and one sequence per row
        # (mb = 1) against the one-sequence definition, which counts on its
        # own: rows must not leak counts into each other, and a cell of
        # probability 0 fails any sequence that visits it.
        rng = np.random.default_rng(0)
        ref = JointPmf([[0.3, 0.1, 0.0], [0.2, 0.1, 0.3]])
        s = rng.choice(3, size=(5, 10), p=ref.marginal([1]).probs)
        # Half the codewords follow p(u | s); the other half are uniform and
        # often put u = 0 against s = 2, the zero cell.
        p_u0_given_s = ref.probs[0] / ref.probs.sum(axis=0)
        u = (rng.random((5, 7, 10)) >= p_u0_given_s[s][:, None, :]).astype(int)
        u[:, 4:] = rng.integers(2, size=(5, 3, 10))
        ok = typical_table(ref.probs, 10, 1.0)
        mask = typical_pairs(u, s[:, None, :], ok)
        assert mask.shape == (5, 7, 1) and mask.dtype == bool
        stacked = typical_pairs(u[:, :, None], np.broadcast_to(s[:, None, None], (5, 7, 1, 10)), ok)
        assert stacked.shape == (5, 7, 1, 1)
        assert np.array_equal(stacked[..., 0], mask)
        want = np.array([[is_typical((u[i, j], s[i]), ref, 1.0) for j in range(7)]
                         for i in range(5)])
        assert np.array_equal(mask[..., 0], want)
        assert want.any() and not want.all()
        zero_visits = ((u == 0) & (s[:, None] == 2)).any(axis=2)
        assert not want[zero_visits].any()
        # Some of them fail on the zero cell alone.
        only_zero = 0
        for i, j in zip(*np.nonzero(zero_visits)):
            counts = np.zeros((2, 3))
            np.add.at(counts, (u[i, j], s[i]), 1)
            slack = np.abs(counts / 10 - ref.probs) <= ref.probs
            only_zero += bool(slack[ref.probs > 0].all())
        assert only_zero > 0
