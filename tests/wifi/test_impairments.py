"""Unit tests for the front-end impairment models."""

import numpy as np
import pytest

from repro.dsp.signal_ops import signal_power
from tests.wifi.impairments import (
    apply_dc_offset,
    apply_iq_imbalance,
    clip_magnitude,
    image_rejection_ratio_db,
    quantize,
)


class TestDcOffset:
    def test_shifts_mean(self, rng):
        x = rng.standard_normal(10_000) + 1j * rng.standard_normal(10_000)
        out = apply_dc_offset(x, 0.5 + 0.25j)
        assert np.mean(out) == pytest.approx(np.mean(x) + 0.5 + 0.25j, abs=0.05)

    def test_zero_offset_identity(self):
        x = np.ones(8, complex)
        assert np.array_equal(apply_dc_offset(x, 0.0), x)


class TestIqImbalance:
    def test_no_imbalance_is_identity(self, rng):
        x = rng.standard_normal(100) + 1j * rng.standard_normal(100)
        out = apply_iq_imbalance(x, amplitude_db=0.0, phase_deg=0.0)
        assert np.allclose(out, x)

    def test_creates_image_tone(self):
        fs = 20e6
        n = np.arange(8192)
        tone = np.exp(1j * 2 * np.pi * 2e6 * n / fs)
        out = apply_iq_imbalance(tone, amplitude_db=1.0, phase_deg=5.0)
        spectrum = np.abs(np.fft.fft(out)) ** 2
        freqs = np.fft.fftfreq(n.size, 1 / fs)
        direct = spectrum[np.argmin(np.abs(freqs - 2e6))]
        image = spectrum[np.argmin(np.abs(freqs + 2e6))]
        assert image > 0
        measured_irr = 10 * np.log10(direct / image)
        expected = image_rejection_ratio_db(1.0, 5.0)
        assert measured_irr == pytest.approx(expected, abs=1.0)

    def test_irr_improves_with_smaller_errors(self):
        assert image_rejection_ratio_db(0.1, 0.5) > image_rejection_ratio_db(
            1.0, 5.0
        )


class TestClipping:
    def test_phase_preserved(self, rng):
        x = 10.0 * np.exp(1j * rng.uniform(-np.pi, np.pi, 100))
        out = clip_magnitude(x, 1.0)
        assert np.allclose(np.abs(out), 1.0)
        assert np.allclose(np.angle(out), np.angle(x))

    def test_small_samples_untouched(self):
        x = 0.1 * np.ones(5, complex)
        assert np.array_equal(clip_magnitude(x, 1.0), x)


class TestQuantize:
    def test_reduces_distinct_levels(self, rng):
        x = rng.standard_normal(10_000) + 1j * rng.standard_normal(10_000)
        out = quantize(x, 3, full_scale=4.0)
        assert len(np.unique(out.real)) <= 8

    def test_high_resolution_near_lossless(self, rng):
        x = rng.standard_normal(1000) + 1j * rng.standard_normal(1000)
        out = quantize(x, 14, full_scale=6.0)
        error = signal_power(out - x)
        assert error < 1e-5 * signal_power(x)

    def test_saturation(self):
        x = np.array([100.0 + 0j])
        out = quantize(x, 8, full_scale=1.0)
        assert out.real[0] <= 1.0

    def test_quantization_noise_scales_with_bits(self, rng):
        x = rng.standard_normal(20_000) + 1j * rng.standard_normal(20_000)
        error4 = signal_power(quantize(x, 4, 4.0) - x)
        error8 = signal_power(quantize(x, 8, 4.0) - x)
        # 4 extra bits = ~24 dB less quantization noise.
        assert error4 / error8 == pytest.approx(256.0, rel=0.3)
