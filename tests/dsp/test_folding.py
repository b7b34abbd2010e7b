"""Unit and property tests for repro.dsp.folding."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.dsp.folding import circular_folded_profile, fold, folded_profile


def fold_sum(values, period, folds):
    """Column-wise sum of the folded matrix: ``sum_i values[n + period*i]``.

    The paper's "Fold Sum" (Section V) for a window starting at
    ``values[0]``: the oracle of the folding gain.
    """
    return fold(values, period, folds).sum(axis=0)


class TestFold:
    def test_shape(self):
        out = fold(np.arange(12), period=3, folds=4)
        assert out.shape == (4, 3)

    def test_values(self):
        out = fold(np.arange(6), period=2, folds=3)
        assert np.array_equal(out, [[0, 1], [2, 3], [4, 5]])

    def test_extra_samples_ignored(self):
        out = fold(np.arange(10), period=2, folds=3)
        assert out.shape == (3, 2)

    def test_too_short_raises(self):
        with pytest.raises(ValueError):
            fold(np.arange(5), period=3, folds=2)

    @pytest.mark.parametrize("period,folds", [(0, 1), (-1, 1), (1, 0), (1, -2)])
    def test_invalid_parameters(self, period, folds):
        with pytest.raises(ValueError):
            fold(np.arange(10), period=period, folds=folds)


class TestFoldSum:
    def test_periodic_signal_amplifies(self):
        pattern = np.array([1.0, -2.0, 3.0])
        signal = np.tile(pattern, 4)
        assert np.allclose(fold_sum(signal, 3, 4), 4 * pattern)

    def test_matches_manual_sum(self, rng):
        x = rng.standard_normal(40)
        manual = x[0:10] + x[10:20] + x[20:30] + x[30:40]
        assert np.allclose(fold_sum(x, 10, 4), manual)


class TestFoldedProfile:
    def test_single_fold_is_identity(self, rng):
        x = rng.standard_normal(50)
        assert np.allclose(folded_profile(x, period=7, folds=1), x)

    def test_profile_at_zero_equals_fold_sum(self, rng):
        x = rng.standard_normal(64)
        profile = folded_profile(x, period=8, folds=4)
        assert profile[0] == pytest.approx(fold_sum(x, 8, 4)[0])

    def test_length(self):
        profile = folded_profile(np.arange(100, dtype=float), period=10, folds=4)
        assert profile.size == 100 - 30

    def test_too_short_returns_empty(self):
        assert folded_profile(np.arange(5, dtype=float), 10, 4).size == 0

    @given(
        st.integers(min_value=1, max_value=6),
        st.integers(min_value=1, max_value=4),
        st.integers(min_value=0, max_value=30),
    )
    @settings(max_examples=30, deadline=None)
    def test_matches_naive(self, period, folds, extra):
        n = period * (folds - 1) + 1 + extra
        x = np.sin(np.arange(n, dtype=float))
        profile = folded_profile(x, period, folds)
        naive = [
            sum(x[i + period * k] for k in range(folds))
            for i in range(n - period * (folds - 1))
        ]
        assert np.allclose(profile, naive)


class TestCircularFoldedProfile:
    def test_coherent_angles_reach_full_magnitude(self):
        angles = np.full(40, -0.8 * np.pi)
        profile = circular_folded_profile(angles, period=10, folds=4)
        assert np.allclose(np.abs(profile), 4.0)
        assert np.allclose(np.angle(profile), -0.8 * np.pi)

    def test_wrap_robustness_beats_plain_sum(self):
        # Angles alternating just either side of the -pi boundary: the
        # plain sum cancels to near zero sign-information, the circular
        # fold stays pinned near the boundary with full coherence.
        angles = np.tile([np.pi - 0.05, -np.pi + 0.05], 20)
        profile = circular_folded_profile(angles, period=2, folds=4)
        assert np.all(np.abs(profile) > 3.9)

    def test_incoherent_angles_have_low_magnitude(self):
        angles = np.tile([0.0, np.pi / 2, np.pi, -np.pi / 2], 10)
        profile = circular_folded_profile(angles, period=1, folds=4)
        assert np.all(np.abs(profile) < 1e-9)

    def test_length_matches_real_fold(self, rng):
        x = rng.uniform(-np.pi, np.pi, 100)
        a = folded_profile(x, 10, 4)
        b = circular_folded_profile(x, 10, 4)
        assert a.size == b.size

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            circular_folded_profile(np.zeros(10), 0, 2)
        with pytest.raises(ValueError):
            circular_folded_profile(np.zeros(10), 2, 0)
