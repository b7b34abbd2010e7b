"""Unit tests for spectrum estimation, validating the band-plan claims."""

import numpy as np
import pytest

from tests.dsp.spectrum import (
    occupied_bandwidth,
    power_spectral_density,
    spectral_centroid,
)


class TestPsd:
    def test_tone_peaks_at_its_frequency(self):
        fs = 20e6
        n = np.arange(65536)
        tone = np.exp(1j * 2 * np.pi * 3e6 * n / fs)
        freqs, psd = power_spectral_density(tone, fs)
        assert freqs[np.argmax(psd)] == pytest.approx(3e6, abs=fs / 1024)

    def test_frequencies_sorted_two_sided(self):
        freqs, _ = power_spectral_density(np.ones(4096, complex), 20e6)
        assert np.all(np.diff(freqs) > 0)
        assert freqs[0] < 0 < freqs[-1]

    def test_too_short_rejected(self):
        with pytest.raises(ValueError):
            power_spectral_density(np.ones(4, complex), 20e6)


class TestOccupiedBandwidth:
    def test_zigbee_occupies_about_2mhz(self):
        from repro.zigbee.transmitter import ZigBeeTransmitter

        _, wf = ZigBeeTransmitter().transmit(bytes(range(100)))
        obw = occupied_bandwidth(wf, 20e6, fraction=0.99)
        assert 1.5e6 < obw < 3.5e6

    def test_wifi_occupies_about_17mhz(self, rng):
        from repro.wifi.ofdm import OfdmTransmitter

        pkt = OfdmTransmitter().packet(
            rng.integers(0, 2, 96 * 30, dtype=np.int8)
        )
        obw = occupied_bandwidth(pkt, 20e6, fraction=0.99)
        assert 15e6 < obw < 18.5e6

    def test_bandwidth_gap_motivates_symbol_level(self, rng):
        """The paper's Section II-B argument: a 2 vs ~17 MHz gap is why
        signal emulation (WEBee-style) cannot do ZigBee->WiFi and a
        symbol-level design is needed."""
        from repro.wifi.ofdm import OfdmTransmitter
        from repro.zigbee.transmitter import ZigBeeTransmitter

        _, zigbee = ZigBeeTransmitter().transmit(bytes(60))
        wifi = OfdmTransmitter().packet(rng.integers(0, 2, 96 * 20, dtype=np.int8))
        ratio = occupied_bandwidth(wifi, 20e6) / occupied_bandwidth(zigbee, 20e6)
        assert ratio > 5.0

    def test_fraction_validation(self):
        with pytest.raises(ValueError):
            occupied_bandwidth(np.ones(4096, complex), 20e6, fraction=1.5)

    def test_silence_has_zero_obw(self):
        assert occupied_bandwidth(np.zeros(4096, complex), 20e6) == 0.0


class TestCentroid:
    def test_mixer_moves_centroid(self):
        from repro.dsp.signal_ops import mix
        from repro.zigbee.transmitter import ZigBeeTransmitter

        _, wf = ZigBeeTransmitter().transmit(bytes(40))
        shifted = mix(wf, 3e6, 20e6)
        assert spectral_centroid(wf, 20e6) == pytest.approx(0.0, abs=2e5)
        assert spectral_centroid(shifted, 20e6) == pytest.approx(3e6, abs=3e5)

    def test_front_end_places_zigbee_at_channel_offset(self, rng):
        from repro.wifi.front_end import WifiFrontEnd
        from repro.zigbee.transmitter import ZigBeeTransmitter

        tx = ZigBeeTransmitter(channel=13)       # 2415 MHz
        fe = WifiFrontEnd(channel=1)              # 2412 MHz
        _, wf = tx.transmit(bytes(40))
        capture = fe.capture(
            [(wf, 0, tx.center_frequency)], wf.size, rng=rng,
            include_noise=False,
        )
        assert spectral_centroid(capture, 20e6) == pytest.approx(3e6, abs=3e5)
