"""Failure injection: what breaks SymBee decoding, and what doesn't.

Each test corrupts a real capture in a specific way and checks the
decoder's response — robustness where the physics says it should be
robust, graceful degradation where it can't be.
"""

import numpy as np
import pytest

from repro.core.link import SymBeeLink
from repro.core.preamble import capture_preamble
from repro.dsp.signal_ops import signal_power
from tests.wifi.impairments import (
    apply_dc_offset,
    apply_iq_imbalance,
    clip_magnitude,
    image_rejection_ratio_db,
    quantize,
)


@pytest.fixture(scope="module")
def reference():
    """One good capture at a healthy SNR, regenerated from scratch."""
    link = SymBeeLink(tx_power_dbm=-80.0)
    rng = np.random.default_rng(99)
    bits = list(rng.integers(0, 2, 48))

    payload = link.encoder.encode_message(bits)
    frame = link.transmitter.build_frame(payload)
    waveform = link.transmitter.transmit_frame(frame)
    total = link.lead_in_samples + waveform.size + link.tail_samples
    capture = link.front_end.capture(
        [(waveform, link.lead_in_samples, link.transmitter.center_frequency)],
        total,
        rng=rng,
    )
    return link, bits, capture


def decode(link, capture, n_bits):
    phases = link.decoder.phases(capture)
    pre = capture_preamble(phases, link.decoder)
    if pre is None:
        return None
    return link.decoder.decode_synchronized(phases, pre.data_start, n_bits)


class TestBaseline:
    def test_reference_decodes_clean(self, reference):
        link, bits, capture = reference
        result = decode(link, capture, len(bits))
        assert result is not None
        assert list(result.bits) == bits


class TestAnalogImpairments:
    def test_mild_dc_offset_tolerated(self, reference):
        link, bits, capture = reference
        rms = np.sqrt(signal_power(capture))
        corrupted = apply_dc_offset(capture, 0.1 * rms)
        result = decode(link, corrupted, len(bits))
        assert result is not None and list(result.bits) == bits

    def test_strong_dc_offset_degrades(self, reference):
        # DC comparable to the signal drags every product's angle toward
        # the DC term's self-correlation (zero phase) — decoding breaks.
        link, bits, capture = reference
        rms = np.sqrt(signal_power(capture))
        corrupted = apply_dc_offset(capture, 30.0 * rms)
        result = decode(link, corrupted, len(bits))
        assert result is None or list(result.bits) != bits

    def test_typical_iq_imbalance_tolerated(self, reference):
        link, bits, capture = reference
        corrupted = apply_iq_imbalance(capture, amplitude_db=0.5, phase_deg=2.0)
        result = decode(link, corrupted, len(bits))
        assert result is not None and list(result.bits) == bits

    def test_irr_diagnostic(self):
        assert image_rejection_ratio_db(0.5, 2.0) == pytest.approx(29.8, abs=2.0)
        assert image_rejection_ratio_db(0.0, 0.0) == float("inf")

    def test_hard_clipping_tolerated(self, reference):
        # A limiter preserves phase; SymBee reads only phase.
        link, bits, capture = reference
        rms = np.sqrt(signal_power(capture))
        corrupted = clip_magnitude(capture, 0.5 * rms)
        result = decode(link, corrupted, len(bits))
        assert result is not None and list(result.bits) == bits

    def test_clip_validation(self):
        with pytest.raises(ValueError):
            clip_magnitude(np.ones(4, complex), 0.0)


class TestQuantization:
    @pytest.mark.parametrize("bits_per_sample", [8, 6, 4])
    def test_low_resolution_adc_suffices(self, reference, bits_per_sample):
        link, bits, capture = reference
        full_scale = 4.0 * np.sqrt(signal_power(capture))
        corrupted = quantize(capture, bits_per_sample, full_scale)
        result = decode(link, corrupted, len(bits))
        assert result is not None and list(result.bits) == bits, bits_per_sample

    def test_one_bit_adc_fails_gracefully(self, reference):
        link, bits, capture = reference
        full_scale = 4.0 * np.sqrt(signal_power(capture))
        corrupted = quantize(capture, 1, full_scale)
        result = decode(link, corrupted, len(bits))
        # Either capture fails or errors appear; no crash.
        if result is not None:
            assert len(result.bits) <= len(bits)

    def test_quantize_validation(self):
        with pytest.raises(ValueError):
            quantize(np.ones(4, complex), 0, 1.0)
        with pytest.raises(ValueError):
            quantize(np.ones(4, complex), 8, -1.0)


class TestStructuralDamage:
    def test_truncated_capture_drops_tail_bits(self, reference):
        link, bits, capture = reference
        phases = link.decoder.phases(capture)
        pre = capture_preamble(phases, link.decoder)
        cut = pre.data_start + 10 * link.decoder.bit_period
        result = decode(link, capture[: cut + link.decoder.lag], len(bits))
        assert result is not None
        assert len(result.bits) < len(bits)
        assert list(result.bits) == bits[: len(result.bits)]

    def test_zeroed_gap_errs_only_covered_bits(self, reference):
        link, bits, capture = reference
        damaged = capture.copy()
        positions = link.true_bit_positions(len(bits))
        lo = positions[10] - 50
        hi = positions[13] + 150
        damaged[lo:hi] = 0
        result = decode(link, damaged, len(bits))
        assert result is not None
        errors = [i for i, (a, b) in enumerate(zip(bits, result.bits)) if a != b]
        assert all(9 <= i <= 14 for i in errors)

    def test_capture_missing_preamble_region(self, reference):
        link, bits, capture = reference
        # Chop off everything before the data: no preamble -> no capture.
        positions = link.true_bit_positions(1)
        result = decode(link, capture[positions[0]:], len(bits))
        assert result is None or list(result.bits) != bits

    def test_sample_drop_desynchronizes_tail(self, reference):
        # Losing samples mid-message shifts later bit windows; the bits
        # before the glitch must still decode.
        link, bits, capture = reference
        positions = link.true_bit_positions(len(bits))
        glitch = positions[20]
        damaged = np.concatenate([capture[:glitch], capture[glitch + 100 :]])
        result = decode(link, damaged, len(bits))
        assert result is not None
        head = list(result.bits[:18])
        assert head == bits[:18]
