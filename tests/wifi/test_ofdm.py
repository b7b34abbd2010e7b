"""Unit tests for the 802.11g OFDM transmitter."""

import numpy as np
import pytest

from repro.dsp.signal_ops import scale_to_power, signal_power
from repro.wifi.ofdm import (
    CYCLIC_PREFIX,
    DATA_SUBCARRIERS,
    FFT_SIZE,
    L_LTF,
    L_STF,
    PILOT_SUBCARRIERS,
    OfdmTransmitter,
    _STF_PATTERN,
    _LTF_PATTERN_LEFT,
    _LTF_PATTERN_RIGHT,
)


# -- reference: one dict grid and one IFFT per symbol ------------------------

def _reference_time(values_by_subcarrier):
    grid = np.zeros(FFT_SIZE, dtype=np.complex128)
    for k, value in values_by_subcarrier.items():
        grid[k % FFT_SIZE] = value
    return np.fft.ifft(grid) * FFT_SIZE / np.sqrt(52.0)


def _reference_training():
    stf = _reference_time(
        {k: np.sqrt(13.0 / 6.0) * v for k, v in _STF_PATTERN.items()}
    )
    values = {}
    for offset, v in zip(range(-26, 0), _LTF_PATTERN_LEFT):
        values[offset] = complex(v)
    for offset, v in zip(range(1, 27), _LTF_PATTERN_RIGHT):
        values[offset] = complex(v)
    ltf = _reference_time(values)
    return np.tile(stf[:16], 10), np.concatenate([ltf[-32:], ltf, ltf])


def _reference_symbol(constellation):
    values = dict(zip(DATA_SUBCARRIERS, constellation))
    for k, polarity in zip(PILOT_SUBCARRIERS, (1.0, 1.0, 1.0, -1.0)):
        values[k] = complex(polarity)
    symbol = _reference_time(values)
    return np.concatenate([symbol[-CYCLIC_PREFIX:], symbol])


def _reference_data_symbol(bits):
    pairs = np.asarray(bits, dtype=np.int8).reshape(-1, 2)
    i = 1.0 - 2.0 * pairs[:, 0]
    q = 1.0 - 2.0 * pairs[:, 1]
    return _reference_symbol((i + 1j * q) / np.sqrt(2.0))


def _reference_packet(tx, payload_bits, rng=None):
    from repro.core.convolutional import conv_encode_raw
    from repro.wifi.ofdm import build_signal_bits, signal_interleave

    payload_bits = np.asarray(payload_bits, dtype=np.int8).ravel()
    per_symbol = 2 * len(DATA_SUBCARRIERS)
    remainder = (-payload_bits.size) % per_symbol
    if remainder:
        if rng is not None:
            pad = rng.integers(0, 2, remainder, dtype=np.int8)
        else:
            pad = np.zeros(remainder, dtype=np.int8)
        payload_bits = np.concatenate([payload_bits, pad])
    n_data_symbols = payload_bits.size // per_symbol
    coded = signal_interleave(conv_encode_raw(build_signal_bits(n_data_symbols)))
    stf, ltf = _reference_training()
    blocks = [stf, ltf, _reference_symbol((1.0 - 2.0 * coded).astype(complex))]
    for chunk in payload_bits.reshape(-1, per_symbol):
        blocks.append(_reference_data_symbol(chunk))
    return scale_to_power(np.concatenate(blocks), tx.tx_power_watts)


def _reference_burst(tx, duration_seconds, rng):
    total_samples = int(round(duration_seconds * tx.sample_rate))
    symbol_samples = FFT_SIZE + CYCLIC_PREFIX
    n_symbols = max(1, int(np.ceil((total_samples - 400) / symbol_samples)))
    bits = rng.integers(0, 2, n_symbols * 2 * len(DATA_SUBCARRIERS), dtype=np.int8)
    return _reference_packet(tx, bits)[: max(total_samples, 400)]


class TestTrainingFields:
    def test_stf_length(self):
        assert L_STF.size == 160

    def test_stf_periodicity_16(self):
        stf = L_STF
        assert np.allclose(stf[:144], stf[16:160])

    def test_ltf_length(self):
        assert L_LTF.size == 160

    def test_ltf_cyclic_prefix(self):
        ltf = L_LTF
        # CP (first 32 samples) is the tail of the 64-sample LTF symbol,
        # i.e. it reappears at samples 64:96 of the field.
        assert np.allclose(ltf[:32], ltf[64:96])

    def test_ltf_repetition(self):
        ltf = L_LTF
        assert np.allclose(ltf[32:96], ltf[96:160])


class TestDataSymbols:
    def test_subcarrier_plan(self):
        assert len(DATA_SUBCARRIERS) == 48
        assert 0 not in DATA_SUBCARRIERS
        for pilot in (-21, -7, 7, 21):
            assert pilot not in DATA_SUBCARRIERS

    def test_symbol_length(self):
        tx = OfdmTransmitter()
        symbol = tx.data_symbol(np.zeros(96, dtype=np.int8))
        assert symbol.size == FFT_SIZE + CYCLIC_PREFIX

    def test_cyclic_prefix_correct(self):
        tx = OfdmTransmitter()
        symbol = tx.data_symbol(np.ones(96, dtype=np.int8))
        assert np.allclose(symbol[:CYCLIC_PREFIX], symbol[FFT_SIZE:])

    def test_wrong_bit_count_rejected(self):
        tx = OfdmTransmitter()
        with pytest.raises(ValueError):
            tx.data_symbol(np.zeros(95, dtype=np.int8))


class TestPacket:
    def test_packet_structure(self, rng):
        tx = OfdmTransmitter()
        pkt = tx.packet(rng.integers(0, 2, 192, dtype=np.int8))
        # STF + LTF + SIGNAL + 2 data symbols.
        assert pkt.size == 160 + 160 + 3 * (FFT_SIZE + CYCLIC_PREFIX)

    def test_payload_padded_to_symbol(self, rng):
        tx = OfdmTransmitter()
        pkt = tx.packet(np.zeros(10, dtype=np.int8), rng=rng)
        assert pkt.size == 320 + 2 * (FFT_SIZE + CYCLIC_PREFIX)

    def test_power_calibration(self, rng):
        tx = OfdmTransmitter(tx_power_watts=2e-3)
        pkt = tx.packet(rng.integers(0, 2, 960, dtype=np.int8))
        assert signal_power(pkt) == pytest.approx(2e-3)

    def test_spectrum_occupies_20mhz_channel(self, rng):
        tx = OfdmTransmitter()
        pkt = tx.packet(rng.integers(0, 2, 96 * 20, dtype=np.int8))
        spectrum = np.abs(np.fft.fft(pkt)) ** 2
        freqs = np.fft.fftfreq(pkt.size, 1 / 20e6)
        in_band = spectrum[np.abs(freqs) < 8.5e6].sum()
        out_band = spectrum[np.abs(freqs) > 9e6].sum()
        assert in_band > 50 * out_band

    def test_bad_sample_rate_rejected(self):
        with pytest.raises(ValueError):
            OfdmTransmitter(sample_rate=40e6)


class TestBurst:
    def test_burst_duration(self, rng):
        tx = OfdmTransmitter()
        burst = tx.burst(270e-6, rng)
        assert burst.size == pytest.approx(270e-6 * 20e6, abs=1)

    def test_tiny_burst_keeps_preamble(self, rng):
        tx = OfdmTransmitter()
        burst = tx.burst(1e-6, rng)
        assert burst.size >= 400  # STF + LTF + SIGNAL

    def test_burst_randomness(self, rng):
        tx = OfdmTransmitter()
        a = tx.burst(200e-6, rng)
        b = tx.burst(200e-6, rng)
        assert not np.allclose(a, b)


class TestBatchedSynthesis:
    """The batched grid equals one IFFT per symbol, bit for bit."""

    def test_training_fields(self):
        stf, ltf = _reference_training()
        assert L_STF.tobytes() == stf.tobytes()
        assert L_LTF.tobytes() == ltf.tobytes()
        assert not L_STF.flags.writeable and not L_LTF.flags.writeable

    def test_data_symbol(self, rng):
        tx = OfdmTransmitter()
        for _ in range(20):
            bits = rng.integers(0, 2, 96, dtype=np.int8)
            expected = _reference_data_symbol(bits)
            assert tx.data_symbol(bits).tobytes() == expected.tobytes()

    def test_packets_of_random_lengths(self):
        tx = OfdmTransmitter(tx_power_watts=3e-4)
        draw = np.random.default_rng(2027)
        lengths = [0, 1, 95, 96, 97, 192] + list(draw.integers(0, 96 * 60, 40))
        for length in lengths:
            bits = draw.integers(0, 2, int(length), dtype=np.int8)
            seed = int(draw.integers(1 << 32))
            for pad in (None, seed):
                got = tx.packet(
                    bits, rng=None if pad is None else np.random.default_rng(pad)
                )
                expected = _reference_packet(
                    tx, bits, None if pad is None else np.random.default_rng(pad)
                )
                assert got.tobytes() == expected.tobytes(), (length, pad)

    def test_one_symbol_packet(self, rng):
        tx = OfdmTransmitter()
        bits = rng.integers(0, 2, 96, dtype=np.int8)
        pkt = tx.packet(bits)
        assert pkt.size == 320 + 2 * (FFT_SIZE + CYCLIC_PREFIX)
        assert pkt.tobytes() == _reference_packet(tx, bits).tobytes()

    def test_bursts(self):
        tx = OfdmTransmitter()
        for k, duration in enumerate((1e-6, 20e-6, 150e-6, 270e-6, 333e-6, 500e-6)):
            got = tx.burst(duration, np.random.default_rng(k))
            expected = _reference_burst(tx, duration, np.random.default_rng(k))
            assert got.tobytes() == expected.tobytes(), duration


class TestSignalField:
    def test_build_parse_roundtrip(self):
        from repro.wifi.ofdm import build_signal_bits, parse_signal_bits

        for length in (0, 1, 37, 4095):
            assert parse_signal_bits(build_signal_bits(length)) == length

    def test_parity_violation_rejected(self):
        from repro.wifi.ofdm import build_signal_bits, parse_signal_bits

        bits = build_signal_bits(10).copy()
        bits[6] ^= 1
        assert parse_signal_bits(bits) is None

    def test_tail_violation_rejected(self):
        from repro.wifi.ofdm import build_signal_bits, parse_signal_bits

        bits = build_signal_bits(10).copy()
        bits[20] ^= 1
        assert parse_signal_bits(bits) is None

    def test_length_field_limit(self):
        from repro.wifi.ofdm import build_signal_bits

        with pytest.raises(ValueError):
            build_signal_bits(1 << 12)

    def test_interleaver_roundtrip(self, rng):
        from repro.wifi.ofdm import signal_deinterleave, signal_interleave

        bits = rng.integers(0, 2, 48, dtype=np.int8)
        assert np.array_equal(
            signal_deinterleave(signal_interleave(bits)), bits
        )

    def test_interleaver_scatters_bursts(self):
        from repro.wifi.ofdm import signal_interleave

        burst = np.zeros(48, dtype=np.int8)
        burst[10:14] = 1
        scattered = np.flatnonzero(signal_interleave(burst))
        assert np.min(np.diff(np.sort(scattered))) >= 3

    def test_self_describing_receive(self, rng):
        from repro.dsp.noise import awgn
        from repro.wifi.receiver import OfdmReceiver

        tx, rx = OfdmTransmitter(), OfdmReceiver()
        bits = rng.integers(0, 2, 96 * 4, dtype=np.int8)
        capture = np.concatenate(
            [np.zeros(600, complex), tx.packet(bits), np.zeros(300, complex)]
        )
        capture = awgn(capture, 22.0, rng, reference_power=tx.tx_power_watts)
        reception = rx.receive(capture)       # no n_symbols given
        assert reception is not None
        assert reception.bits.size == bits.size
        assert np.mean(reception.bits != bits) < 0.01
