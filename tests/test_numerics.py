import math

import numpy as np
import pytest

from surgenet.errors import DimensionMismatchError
from surgenet.network import fit_normalizer
from surgenet.numerics import Rng, sigmoid_act, tanh_act


class TestActivations:
    def test_tanh_zero(self):
        assert tanh_act(np.array([0.0])).tolist() == [0.0]

    def test_tanh_reference_value(self):
        assert tanh_act(np.array([1.0]))[0] == math.tanh(1.0)

    def test_tanh_odd_symmetry(self):
        v = np.linspace(-5, 5, 41)
        np.testing.assert_array_equal(tanh_act(-v), -tanh_act(v))

    def test_tanh_strictly_inside_open_interval(self):
        out = tanh_act(np.array([-50.0, -19.5, 0.0, 19.5, 50.0]))
        assert np.all(out > -1.0) and np.all(out < 1.0)
        assert abs(out[-1] - 1.0) < 1e-15

    @pytest.mark.parametrize("act", [tanh_act, sigmoid_act])
    def test_out_in_place_matches_fresh(self, act):
        v = np.concatenate([np.linspace(-60.0, 60.0, 241), [0.0, -0.0, np.inf, -np.inf]])
        expected = act(v)
        buf = v.copy()
        assert act(buf, out=buf) is buf
        np.testing.assert_array_equal(buf, expected)
        other = np.empty_like(v)
        assert act(v, out=other) is other
        np.testing.assert_array_equal(other, expected)
        assert np.all(expected > -1.0) and np.all(expected < 1.0)

    def test_sigmoid_zero_is_half(self):
        assert sigmoid_act(np.array([0.0])).tolist() == [0.5]

    def test_sigmoid_reference_value(self):
        assert sigmoid_act(np.array([1.0]))[0] == pytest.approx(
            1.0 / (1.0 + math.exp(-1.0)), rel=1e-15)

    def test_sigmoid_saturation_within_1e15_and_strict(self):
        out = sigmoid_act(np.array([50.0, -50.0]))
        assert abs(out[0] - 1.0) < 1e-15
        assert 0.0 < out[1] < out[0] < 1.0

    def test_sigmoid_complement_symmetry(self):
        v = np.linspace(-8, 8, 33)
        np.testing.assert_allclose(sigmoid_act(-v), 1.0 - sigmoid_act(v), atol=1e-15)

    def test_activations_preserve_matrix_shape(self):
        m = np.arange(6.0).reshape(2, 3)
        assert tanh_act(m).shape == (2, 3)
        assert sigmoid_act(m).shape == (2, 3)

    def test_monotone(self):
        v = np.linspace(-6, 6, 100)
        assert np.all(np.diff(tanh_act(v)) > 0)
        assert np.all(np.diff(sigmoid_act(v)) > 0)


class TestColumnStats:
    """The per-column statistics that network.fit_normalizer computes."""

    def test_hand_case_single_column(self):
        stats = fit_normalizer([[0.0], [2.0]])
        assert stats.means.tolist() == [1.0]
        assert stats.stds.tolist() == [1.0]  # population std
        assert stats.constant_flags.tolist() == [False]

    def test_constant_column_flagged_with_std_one(self):
        stats = fit_normalizer([[1.0, 10.0], [3.0, 10.0]])
        assert stats.means.tolist() == [2.0, 10.0]
        assert stats.stds.tolist() == [1.0, 1.0]
        assert stats.constant_flags.tolist() == [False, True]

    def test_all_rows_identical(self):
        stats = fit_normalizer([[4.0, -1.0]] * 5)
        assert stats.constant_flags.tolist() == [True, True]
        assert stats.stds.tolist() == [1.0, 1.0]

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError, match="at least one row"):
            fit_normalizer([])

    def test_ragged_rows_rejected(self):
        with pytest.raises(DimensionMismatchError):
            fit_normalizer([[1.0, 2.0], [1.0]])

    def test_standardization_centers_and_scales(self):
        data = Rng(3).normal(5.0, 2.5, size=(500, 4))
        stats = fit_normalizer(data)
        z = (data - stats.means) / stats.stds
        assert np.all(np.abs(z.mean(axis=0)) < 1e-9)
        assert np.all(np.abs(z.std(axis=0) - 1.0) < 1e-9)

    def test_purity(self):
        data = [[1.0, 2.0], [3.0, 5.0], [0.5, 2.5]]
        a = fit_normalizer(data)
        b = fit_normalizer(data)
        np.testing.assert_array_equal(a.means, b.means)
        np.testing.assert_array_equal(a.stds, b.stds)


class TestRng:
    def test_same_seed_same_stream(self):
        a = Rng(123).normal(size=100)
        b = Rng(123).normal(size=100)
        np.testing.assert_array_equal(a, b)

    def test_child_streams_reproducible_by_path(self):
        a = Rng(9).child(4).normal(size=10)
        b = Rng(9).child(4).normal(size=10)
        np.testing.assert_array_equal(a, b)

    def test_children_differ_from_parent_and_each_other(self):
        root = Rng(9)
        seqs = [root.child(0).normal(size=8), root.child(1).normal(size=8),
                Rng(9).normal(size=8)]
        assert not np.array_equal(seqs[0], seqs[1])
        assert not np.array_equal(seqs[0], seqs[2])

    def test_child_index_validated(self):
        with pytest.raises(ValueError):
            Rng(1).child(-1)

    def test_choice_without_replacement(self):
        idx = Rng(5).choice_without_replacement(20, 20)
        assert sorted(idx.tolist()) == list(range(20))
        with pytest.raises(ValueError):
            Rng(5).choice_without_replacement(3, 4)

    def test_uniform_range_validated(self):
        with pytest.raises(ValueError):
            Rng(1).uniform(2.0, 1.0)


class TestNormalSample:
    """Rng.normal, the draw behind every initial weight."""

    def test_zero_std_returns_mean_exactly(self):
        assert Rng(1).normal(2.75, 0.0) == 2.75

    def test_negative_std_rejected(self):
        with pytest.raises(ValueError, match=">= 0"):
            Rng(1).normal(0.0, -1.0)

    def test_same_seed_identical_sequence(self):
        a = [Rng(77).child(i).normal(0.0, 1.0) for i in range(20)]
        b = [Rng(77).child(i).normal(0.0, 1.0) for i in range(20)]
        assert a == b

    def test_large_sample_moments(self):
        draws = Rng(20170324).normal(0.0, 1.0, size=100_000)
        assert abs(draws.mean()) < 0.02
        assert abs(draws.std() - 1.0) < 0.02
