"""Unit tests for repro.dsp.signal_ops."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.dsp import signal_ops
from repro.dsp.signal_ops import (
    db_to_linear,
    dbm_to_watts,
    linear_to_db,
    mix,
    mixer_rotator,
    scale_to_power,
    signal_power,
    watts_to_dbm,
    wrap_phase,
)


class TestDbConversions:
    def test_zero_db_is_unity(self):
        assert db_to_linear(0.0) == pytest.approx(1.0)

    def test_ten_db_is_ten(self):
        assert db_to_linear(10.0) == pytest.approx(10.0)

    def test_three_db_is_about_two(self):
        assert db_to_linear(3.0) == pytest.approx(1.9953, rel=1e-3)

    def test_linear_to_db_inverts(self):
        assert linear_to_db(100.0) == pytest.approx(20.0)

    def test_linear_to_db_of_zero_is_neg_inf(self):
        assert linear_to_db(0.0) == -math.inf

    def test_vectorized(self):
        out = db_to_linear(np.array([0.0, 10.0, 20.0]))
        assert np.allclose(out, [1.0, 10.0, 100.0])

    @given(st.floats(min_value=-100.0, max_value=100.0))
    def test_roundtrip(self, value_db):
        assert linear_to_db(db_to_linear(value_db)) == pytest.approx(value_db)

    def test_dbm_zero_is_milliwatt(self):
        assert dbm_to_watts(0.0) == pytest.approx(1e-3)

    def test_dbm_30_is_watt(self):
        assert dbm_to_watts(30.0) == pytest.approx(1.0)

    @given(st.floats(min_value=-120.0, max_value=40.0))
    def test_dbm_roundtrip(self, dbm):
        assert watts_to_dbm(dbm_to_watts(dbm)) == pytest.approx(dbm)


class TestSignalPower:
    def test_constant_signal(self):
        assert signal_power(np.full(100, 2.0 + 0j)) == pytest.approx(4.0)

    def test_empty_signal(self):
        assert signal_power(np.array([])) == 0.0

    def test_unit_tone(self):
        t = np.arange(1000)
        tone = np.exp(1j * 0.1 * t)
        assert signal_power(tone) == pytest.approx(1.0)

    def test_scale_to_power(self, rng):
        x = rng.standard_normal(256) + 1j * rng.standard_normal(256)
        scaled = scale_to_power(x, 1e-3)
        assert signal_power(scaled) == pytest.approx(1e-3)

    def test_scale_to_power_rejects_negative(self):
        with pytest.raises(ValueError):
            scale_to_power(np.ones(4, dtype=complex), -1.0)


class TestMix:
    def test_zero_offset_is_identity(self):
        x = np.exp(1j * np.linspace(0, 10, 100))
        assert np.allclose(mix(x, 0.0, 20e6), x)

    def test_shifts_tone_frequency(self):
        fs = 20e6
        n = np.arange(2048)
        tone = np.exp(1j * 2 * np.pi * 1e6 * n / fs)
        shifted = mix(tone, 2e6, fs)
        spectrum = np.abs(np.fft.fft(shifted))
        peak_bin = int(np.argmax(spectrum))
        expected_bin = int(round(3e6 / fs * len(n)))
        assert peak_bin == expected_bin

    def test_preserves_power(self, rng):
        x = rng.standard_normal(512) + 1j * rng.standard_normal(512)
        assert signal_power(mix(x, 3e6, 20e6)) == pytest.approx(signal_power(x))

    def test_initial_phase(self):
        x = np.ones(4, dtype=complex)
        out = mix(x, 0.0, 20e6, initial_phase=np.pi / 2)
        assert np.allclose(out, 1j * np.ones(4))


class TestMixerRotator:
    @pytest.fixture(autouse=True)
    def _empty_cache(self, monkeypatch):
        monkeypatch.setattr(signal_ops, "_ROTATOR_CACHE", {})

    @staticmethod
    def _fresh(f, fs, n, phase):
        t = np.arange(n)
        return np.exp(1j * (2.0 * np.pi * f * t / fs + phase))

    def test_prefixes_match_fresh_exp_as_n_grows_and_shrinks(self, rng):
        f, fs, phase = -3e6, 20e6, 0.7
        for n in (5000, 17, 9994, 3040, 20011, 1, 0, 12345, 20011):
            rotator = mixer_rotator(f, fs, n, initial_phase=phase)
            assert rotator.size == n
            assert rotator.tobytes() == self._fresh(f, fs, n, phase).tobytes()
            x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            # Held in a name: numpy may compute ``x * <temporary>`` in the
            # temporary's buffer as ``temporary * x``, and complex
            # products are not bitwise commutative.
            fresh = self._fresh(f, fs, n, phase)
            assert mix(x, f, fs, initial_phase=phase).tobytes() == (x * fresh).tobytes()

    def test_one_entry_per_offset_grown_to_exactly_n(self):
        for n in (100, 40, 150, 149):
            mixer_rotator(1e6, 20e6, n, initial_phase=0.3)
        ((key, entry),) = signal_ops._ROTATOR_CACHE.items()
        assert key == (1e6, 20e6, 0.3)
        assert entry.size == 150

    def test_entries_are_read_only_and_bounded(self):
        served = [
            mixer_rotator(1e6, 20e6, 64 + k, initial_phase=0.01 * k)
            for k in range(3 * signal_ops._ROTATOR_CACHE_MAX)
        ]
        assert len(signal_ops._ROTATOR_CACHE) == signal_ops._ROTATOR_CACHE_MAX
        for rotator in served + list(signal_ops._ROTATOR_CACHE.values()):
            assert not rotator.flags.writeable
            with pytest.raises(ValueError):
                rotator[0] = 0.0


class TestWrapPhase:
    def test_identity_inside_range(self):
        assert wrap_phase(1.0) == pytest.approx(1.0)

    def test_wraps_above_pi(self):
        assert wrap_phase(np.pi + 0.1) == pytest.approx(-np.pi + 0.1)

    def test_wraps_below_minus_pi(self):
        assert wrap_phase(-np.pi - 0.1) == pytest.approx(np.pi - 0.1)

    def test_pi_maps_to_pi(self):
        assert wrap_phase(np.pi) == pytest.approx(np.pi)

    def test_minus_pi_maps_to_pi(self):
        # Convention: the interval is (-pi, pi].
        assert wrap_phase(-np.pi) == pytest.approx(np.pi)

    @given(st.floats(min_value=-50.0, max_value=50.0))
    def test_always_in_interval(self, phi):
        wrapped = wrap_phase(phi)
        assert -np.pi < wrapped <= np.pi

    @given(st.floats(min_value=-50.0, max_value=50.0))
    def test_wrap_is_congruent_mod_2pi(self, phi):
        wrapped = wrap_phase(phi)
        assert math.isclose(
            math.cos(wrapped), math.cos(phi), abs_tol=1e-9
        ) and math.isclose(math.sin(wrapped), math.sin(phi), abs_tol=1e-9)

    def test_array_input(self):
        out = wrap_phase(np.array([0.0, 3 * np.pi, -3 * np.pi]))
        assert np.allclose(out, [0.0, np.pi, np.pi])


class TestMeasuredSnr:
    def test_matches_injected_snr(self, rng):
        from repro.dsp.noise import awgn

        x = np.exp(1j * 0.3 * np.arange(200_000))
        noisy = awgn(x, 10.0, rng)
        measured = linear_to_db(signal_power(x) / signal_power(noisy - x))
        assert measured == pytest.approx(10.0, abs=0.2)
