"""Unit tests for link-quality estimation and adaptive coding."""

import numpy as np
import pytest

from repro.core.adaptive import AdaptiveCoding, LinkQualityEstimator
from repro.core.link import link_at_snr


class TestLinkQualityEstimator:
    def test_prior_is_half(self):
        assert LinkQualityEstimator().phase_error_probability == 0.5

    def test_clean_frame_gives_zero(self):
        estimator = LinkQualityEstimator()
        estimator.observe([1, 0, 1], [84, 0, 84])
        assert estimator.phase_error_probability == 0.0
        assert estimator.estimated_ber == 0.0

    def test_symmetric_error_accounting(self):
        estimator = LinkQualityEstimator()
        # bit 1 with 74 votes: 10 errors; bit 0 with 10 votes: 10 errors.
        estimator.observe([1, 0], [74, 10])
        assert estimator.phase_error_probability == pytest.approx(20 / 168)

    def test_reset(self):
        estimator = LinkQualityEstimator()
        estimator.observe([1], [50])
        estimator.reset()
        assert estimator.samples == 0

    def test_tracks_real_link_quality(self, rng):
        clean, noisy = LinkQualityEstimator(), LinkQualityEstimator()
        for estimator, snr in ((clean, 15.0), (noisy, -4.0)):
            link = link_at_snr(snr)
            for _ in range(3):
                result = link.send_bits(
                    rng.integers(0, 2, 32), rng, decode_synchronized=False
                )
                estimator.observe(result.decoded_bits, result.counts)
        assert clean.estimated_ber < 0.01
        assert noisy.phase_error_probability > clean.phase_error_probability


class TestAdaptiveCoding:
    def test_defaults_to_coding_without_evidence(self):
        decision = AdaptiveCoding().decide(LinkQualityEstimator())
        assert decision.use_coding

    def test_clean_link_disables_coding(self):
        estimator = LinkQualityEstimator()
        estimator.observe([1] * 20, [84] * 20)
        decision = AdaptiveCoding(min_samples=84).decide(estimator)
        assert not decision.use_coding
        assert decision.goodput_uncoded > decision.goodput_coded

    def test_bad_link_enables_coding(self):
        estimator = LinkQualityEstimator()
        # Votes hovering near the boundary: high Pr_eps.
        estimator.observe([1] * 20, [46] * 20)
        decision = AdaptiveCoding(min_samples=84).decide(estimator)
        assert decision.use_coding
        assert decision.estimated_ber > 0.1

    def test_goodput_model_consistency(self):
        policy = AdaptiveCoding()
        # At BER 0 the uncoded frame always survives; coded pays the rate.
        assert policy._uncoded_goodput(0.0) == pytest.approx(1.0)
        assert policy._coded_goodput(0.0) == pytest.approx(4 / 7)
        # At moderate BER the frame-level picture flips: a 2% BER kills
        # most 48-bit uncoded frames while coded blocks mostly survive.
        assert policy._coded_goodput(0.02) > policy._uncoded_goodput(0.02)
        # At terrible BER everything collapses.
        assert policy._coded_goodput(0.5) < 0.01

    def test_crossover_is_where_frames_start_dying(self):
        policy = AdaptiveCoding(frame_bits=48)
        coding_better = [
            policy._coded_goodput(b) > policy._uncoded_goodput(b)
            for b in (0.001, 0.005, 0.02, 0.1)
        ]
        # Monotone switch from 'uncoded wins' to 'coded wins'.
        assert coding_better == sorted(coding_better)
        assert not coding_better[0] and coding_better[-1]


def _observe_reference(window, decoded_bits, counts):
    """Per-bit loop the vectorized ``observe`` must agree with."""
    errors = values = 0
    for bit, count in zip(decoded_bits, counts):
        errors += window - count if bit == 1 else count
        values += window
    return errors, values


class TestVectorizedObserve:
    def test_matches_per_bit_reference(self, rng):
        window = 84
        for _ in range(20):
            n = int(rng.integers(1, 200))
            bits = rng.integers(0, 2, n)
            counts = rng.integers(0, window + 1, n)
            reference = LinkQualityEstimator(window=window)
            re, rv = _observe_reference(window, bits, counts)
            reference.observe(bits, counts)
            assert reference._errors == re
            assert reference._values == rv

    def test_accepts_mismatched_lengths(self):
        # A truncated decode can yield fewer counts than bits (or vice
        # versa); only the overlapping prefix is pooled.
        estimator = LinkQualityEstimator(window=84)
        estimator.observe([1, 0, 1], [84, 0])
        assert estimator.samples == 2 * 84
        estimator.observe([], [])
        assert estimator.samples == 2 * 84

    def test_accepts_tuples_lists_and_arrays(self):
        for bits, counts in (
            ((1, 0), (84, 0)),
            ([1, 0], [84, 0]),
            (np.array([1, 0]), np.array([84, 0])),
        ):
            estimator = LinkQualityEstimator()
            estimator.observe(bits, counts)
            assert estimator.phase_error_probability == 0.0


class TestWindowedLinkQuality:
    def test_is_pooled_estimator_until_window_fills(self):
        from repro.core.adaptive import WindowedLinkQuality

        windowed = WindowedLinkQuality(max_frames=8)
        pooled = LinkQualityEstimator()
        for _ in range(5):
            windowed.observe([1, 0], [74, 10])
            pooled.observe([1, 0], [74, 10])
        assert windowed.frames == 5
        assert (
            windowed.phase_error_probability
            == pooled.phase_error_probability
        )

    def test_old_frames_are_evicted(self):
        from repro.core.adaptive import WindowedLinkQuality

        estimator = WindowedLinkQuality(max_frames=3)
        # Three noisy frames, then three clean ones: the noisy evidence
        # must age out entirely.
        for _ in range(3):
            estimator.observe([1], [44])
        assert estimator.phase_error_probability > 0.4
        for _ in range(3):
            estimator.observe([1], [84])
        assert estimator.frames == 3
        assert estimator.phase_error_probability == 0.0

    def test_tracks_degradation_faster_than_pooled(self):
        from repro.core.adaptive import WindowedLinkQuality

        windowed = WindowedLinkQuality(max_frames=4)
        pooled = LinkQualityEstimator()
        for estimator in (windowed, pooled):
            for _ in range(40):
                estimator.observe([1] * 8, [84] * 8)   # long clean spell
            for _ in range(4):
                estimator.observe([1] * 8, [50] * 8)   # sudden fade
        assert windowed.phase_error_probability > 0.3
        assert pooled.phase_error_probability < 0.1

    def test_reset_clears_window(self):
        from repro.core.adaptive import WindowedLinkQuality

        estimator = WindowedLinkQuality(max_frames=4)
        estimator.observe([1], [44])
        estimator.reset()
        assert estimator.frames == 0
        assert estimator.samples == 0
        assert estimator.phase_error_probability == 0.5

    def test_max_frames_validation(self):
        from repro.core.adaptive import WindowedLinkQuality

        with pytest.raises(ValueError, match="positive"):
            WindowedLinkQuality(max_frames=0)
