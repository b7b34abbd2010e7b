"""Unit tests for the end-to-end ZigBee transmitter."""

import numpy as np
import pytest

from repro.dsp.signal_ops import dbm_to_watts, signal_power
from repro.zigbee.oqpsk import OqpskDemodulator
from repro.zigbee.transmitter import ZigBeeTransmitter
from tests.zigbee.ppdu import parse_ppdu_symbols


class TestTransmitter:
    def test_power_convention(self):
        tx = ZigBeeTransmitter(tx_power_dbm=0.0)
        _, wf = tx.transmit(b"some payload")
        assert signal_power(wf) == pytest.approx(dbm_to_watts(0.0))

    def test_power_scaling(self):
        tx = ZigBeeTransmitter(tx_power_dbm=-15.0)
        _, wf = tx.transmit(b"x")
        assert signal_power(wf) == pytest.approx(dbm_to_watts(-15.0))

    def test_center_frequency_follows_channel(self):
        assert ZigBeeTransmitter(channel=13).center_frequency == 2.415e9
        assert ZigBeeTransmitter(channel=26).center_frequency == 2.480e9

    def test_sequence_increments_and_wraps(self):
        tx = ZigBeeTransmitter()
        tx._sequence = 254
        f1, _ = tx.transmit(b"a")
        f2, _ = tx.transmit(b"b")
        f3, _ = tx.transmit(b"c")
        assert (f1.sequence, f2.sequence, f3.sequence) == (254, 255, 0)

    def test_waveform_demodulates_back_to_frame(self):
        tx = ZigBeeTransmitter()
        frame, wf = tx.transmit(b"roundtrip")
        demod = OqpskDemodulator(tx.sample_rate)
        n_symbols = 2 * (6 + len(frame.to_psdu()))
        symbols, _ = demod.demodulate_symbols(wf, n_symbols)
        parsed = parse_ppdu_symbols(symbols)
        assert parsed.psdu == frame.to_psdu()

    def test_packet_duration_matches_paper_minimum(self):
        tx = ZigBeeTransmitter()
        # 18-byte packet = 12 PSDU + 6 PHY overhead = 576 us, but with the
        # 11-byte MAC overhead a 1-byte payload already exceeds it.
        assert tx.packet_duration(1) == pytest.approx((6 + 12) * 32e-6)

    def test_silence(self):
        silence = ZigBeeTransmitter.silence(100)
        assert silence.size == 100
        assert np.all(silence == 0)
        assert silence.dtype == np.complex128

    def test_mac_fields_forwarded(self):
        tx = ZigBeeTransmitter()
        frame, _ = tx.transmit(b"x", destination=0x1234, pan_id=0x9)
        assert frame.destination == 0x1234
        assert frame.pan_id == 0x9
