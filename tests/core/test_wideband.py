"""40 MHz WiFi receiver variant (paper Section VI-B)."""

import numpy as np
import pytest

from repro.constants import WIFI_SAMPLE_RATE_40MHZ
from repro.core.link import SymBeeLink
from repro.core.link import link_at_snr


@pytest.fixture(scope="module")
def wide_link():
    return SymBeeLink(sample_rate=WIFI_SAMPLE_RATE_40MHZ)


class TestWidebandGeometry:
    def test_decoder_scaling(self, wide_link):
        decoder = wide_link.decoder
        assert decoder.lag == 32          # dp over 32 samples
        assert decoder.window == 168      # doubled stable window
        assert decoder.bit_period == 1280 # doubled bit spacing
        assert decoder.tau_sync == 84     # "84 of 168 indicate bit 1"

    def test_preamble_skip_is_5120(self, wide_link):
        # Section VI-B: 640 * 4 * 2 = 5120 phase values after capture.
        assert 4 * wide_link.decoder.bit_period == 5120


class TestWidebandLink:
    def test_clean_roundtrip(self, wide_link, rng):
        bits = list(rng.integers(0, 2, 40))
        result = wide_link.send_bits(bits, rng)
        assert result.preamble_captured
        assert result.bit_errors == 0

    def test_sender_side_unchanged(self, wide_link):
        # The ZigBee encoder is identical at both receiver bandwidths.
        narrow = SymBeeLink()
        assert (
            wide_link.encoder.encode_bits([1, 0])
            == narrow.encoder.encode_bits([1, 0])
        )

    def test_capture_near_truth(self, wide_link, rng):
        result = wide_link.send_bits([1, 0, 1], rng)
        assert abs(result.captured_data_start - result.true_data_start) <= 32

    def test_wideband_tolerates_more_errors(self, rng):
        # Doubled window doubles the error capacity: at a low SNR the
        # 40 MHz receiver's BER must not exceed the 20 MHz receiver's
        # by more than noise wiggle.
        errors = {}
        for rate in (20e6, 40e6):
            link = link_at_snr(-3.0, sample_rate=rate)
            errs = sent = 0
            for _ in range(8):
                bits = rng.integers(0, 2, 32)
                result = link.send_bits(bits, rng, decode_synchronized=False)
                errs += result.bit_errors
                sent += result.n_bits
            errors[rate] = errs / sent
        assert errors[40e6] <= errors[20e6] + 0.05
