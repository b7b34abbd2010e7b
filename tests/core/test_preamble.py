"""Unit tests for folding-based preamble capture."""

import numpy as np
import pytest

from repro.core.link import SymBeeLink
from repro.core.preamble import capture_preamble


class TestCaptureOnRealFrames:
    def test_clean_capture_near_truth(self, clean_capture):
        link, bits, result = clean_capture
        pre = capture_preamble(result.phases, link.decoder)
        assert pre is not None
        assert abs(pre.data_start - result.true_data_start) <= 16

    def test_capture_has_full_count_when_clean(self, clean_capture):
        link, _, result = clean_capture
        pre = capture_preamble(result.phases, link.decoder)
        assert pre.negative_count >= link.decoder.window - 2
        assert pre.coherence > 0.95

    def test_rejects_header_ghosts(self, clean_capture):
        # The 802.15.4 header precedes the payload; capture must not
        # anchor before the true preamble even though the header folds
        # to near-threshold windows (see module docstring).
        link, _, result = clean_capture
        pre = capture_preamble(result.phases, link.decoder)
        assert pre.index >= result.true_data_start - 5 * link.decoder.bit_period

    def test_sum_mode_available(self, clean_capture):
        link, _, result = clean_capture
        pre = capture_preamble(result.phases, link.decoder, mode="sum")
        assert pre is not None  # literal mode works on clean input

    def test_unknown_mode(self, clean_capture):
        link, _, result = clean_capture
        with pytest.raises(ValueError):
            capture_preamble(result.phases, link.decoder, mode="fourier")


class TestCaptureEdgeCases:
    def test_no_capture_in_pure_noise(self, rng):
        link = SymBeeLink()
        phases = rng.uniform(-np.pi, np.pi, 30_000)
        assert capture_preamble(phases, link.decoder) is None

    def test_too_short_stream(self):
        link = SymBeeLink()
        assert capture_preamble(np.zeros(100), link.decoder) is None

    def test_capture_under_noise(self, rng):
        # At 10 dB per-sample SNR capture must be essentially certain.
        from repro.core.link import link_at_snr

        link = link_at_snr(10.0)
        hits = 0
        for _ in range(10):
            result = link.send_bits([1, 0] * 10, rng, keep_phases=True)
            pre = capture_preamble(result.phases, link.decoder)
            if pre and abs(pre.data_start - result.true_data_start) <= 16:
                hits += 1
        assert hits >= 9

    def test_more_folds_requires_longer_preamble(self, clean_capture):
        # Folding 8 times over a 4-bit preamble mixes in message bits;
        # capture may still fire but the API must not crash.
        link, _, result = clean_capture
        capture_preamble(result.phases, link.decoder, folds=8)

    def test_stricter_tau(self, clean_capture):
        link, _, result = clean_capture
        pre = capture_preamble(result.phases, link.decoder, tau=0)
        assert pre is not None  # clean stream passes even tau = 0


class TestUnitPhasorInput:
    """capture_preamble accepts precomputed unit phasors (fast path)."""

    def test_unit_phasors_equal_angle_input(self, clean_capture):
        link, _, result = clean_capture
        from_phases = capture_preamble(result.phases, link.decoder)
        from_phasors = capture_preamble(
            None, link.decoder, unit_phasors=np.exp(1j * result.phases)
        )
        assert from_phasors == from_phases

    def test_unit_phasors_equal_angle_input_noisy(self, rng):
        link = SymBeeLink(tx_power_dbm=-90.0)
        for _ in range(5):
            res = link.send_bits(rng.integers(0, 2, 16), rng, keep_phases=True)
            a = capture_preamble(res.phases, link.decoder)
            b = capture_preamble(
                None, link.decoder, unit_phasors=np.exp(1j * res.phases)
            )
            assert a == b
