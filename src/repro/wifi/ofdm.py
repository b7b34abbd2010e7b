"""802.11a/g OFDM transmitter (legacy 20 MHz PHY).

Purpose in this repo:

* generate standard L-STF/L-LTF preambles so the idle-listening detector
  can be validated against true WiFi packets, and
* synthesize WiFi interference bursts with the correct spectral footprint
  and preamble structure for the interference experiments (paper
  Section VIII-E and Figures 20-21).

The preamble is standard-exact, and the SIGNAL field is fully
implemented (rate-1/2 convolutional coding, the 48-bit BPSK interleaver,
parity/tail — decoded by :mod:`repro.wifi.receiver` to make packets
self-describing).  For the DATA field we map payload bits straight onto
the QPSK constellation without the convolutional coder/interleaver/
scrambler: spectrally and statistically equivalent for interference
purposes, which is all the evaluation needs.  This simplification is
recorded in DESIGN.md.
"""

import numpy as np

from repro.constants import WIFI_SAMPLE_RATE_20MHZ
from repro.dsp.signal_ops import scale_to_power

FFT_SIZE = 64
CYCLIC_PREFIX = 16
#: Indices (subcarrier numbers -26..26 excluding 0 and pilots) used for data.
PILOT_SUBCARRIERS = (-21, -7, 7, 21)
DATA_SUBCARRIERS = tuple(
    k
    for k in range(-26, 27)
    if k != 0 and k not in PILOT_SUBCARRIERS
)

_STF_PATTERN = {
    -24: 1 + 1j, -20: -1 - 1j, -16: 1 + 1j, -12: -1 - 1j, -8: -1 - 1j,
    -4: 1 + 1j, 4: 1 + 1j, 8: -1 - 1j, 12: 1 + 1j, 16: 1 + 1j,
    20: 1 + 1j, 24: 1 + 1j,
}

_LTF_PATTERN_LEFT = [1, 1, -1, -1, 1, 1, -1, 1, -1, 1, 1, 1, 1,
                     1, 1, -1, -1, 1, 1, -1, 1, -1, 1, 1, 1, 1]
_LTF_PATTERN_RIGHT = [1, -1, -1, 1, 1, -1, 1, -1, 1, -1, -1, -1, -1,
                      -1, 1, 1, -1, -1, 1, -1, 1, -1, 1, 1, 1, 1]

#: IFFT bins of the data and pilot subcarriers, and the pilots' values.
_DATA_BINS = np.array(DATA_SUBCARRIERS) % FFT_SIZE
_PILOT_BINS = np.array(PILOT_SUBCARRIERS) % FFT_SIZE
_PILOT_POLARITY = np.array([1, 1, 1, -1], dtype=float)


def _grid_to_time(grid):
    """IFFT each row of a ``(n, 64)`` subcarrier grid.

    Scaled to match the standard's convention closely enough for unit
    power normalization downstream.
    """
    return np.fft.ifft(grid, axis=-1) * FFT_SIZE / np.sqrt(52.0)


def _ofdm_symbols(data_values):
    """``(n, 48)`` data-subcarrier values -> ``(n, 80)`` symbols, CP first.

    Every row gets the four pilots; one IFFT transforms the whole batch
    (row for row the same bits as one IFFT per symbol).
    """
    data_values = np.asarray(data_values)
    grid = np.zeros((data_values.shape[0], FFT_SIZE), dtype=np.complex128)
    grid[:, _DATA_BINS] = data_values
    grid[:, _PILOT_BINS] = _PILOT_POLARITY
    symbols = _grid_to_time(grid)
    return np.concatenate([symbols[:, -CYCLIC_PREFIX:], symbols], axis=1)


def _training_field(pattern):
    grid = np.zeros(FFT_SIZE, dtype=np.complex128)
    for k, value in pattern.items():
        grid[k % FFT_SIZE] = value
    return _grid_to_time(grid)


_STF_SYMBOL = _training_field(
    {k: np.sqrt(13.0 / 6.0) * v for k, v in _STF_PATTERN.items()}
)
_LTF_SYMBOL = _training_field(
    {
        **dict(zip(range(-26, 0), map(complex, _LTF_PATTERN_LEFT))),
        **dict(zip(range(1, 27), map(complex, _LTF_PATTERN_RIGHT))),
    }
)

#: The 160-sample legacy Short Training Field (10 x 16-sample reps):
#: only every 4th subcarrier is occupied, so the symbol has period 16.
L_STF = np.tile(_STF_SYMBOL[:16], 10)
#: The 160-sample legacy Long Training Field (32-sample CP + 2 reps).
L_LTF = np.concatenate([_LTF_SYMBOL[-32:], _LTF_SYMBOL, _LTF_SYMBOL])
L_STF.setflags(write=False)
L_LTF.setflags(write=False)


def _qpsk_map(bits):
    """Gray-mapped QPSK, unit average power."""
    bits = np.asarray(bits, dtype=np.int8).reshape(-1, 2)
    i = 1.0 - 2.0 * bits[:, 0]
    q = 1.0 - 2.0 * bits[:, 1]
    return (i + 1j * q) / np.sqrt(2.0)


# --- SIGNAL field (standard 18.3.4 structure) -------------------------------

#: The RATE bits for 6 Mb/s (BPSK, rate 1/2) — the mode SIGNAL itself uses.
SIGNAL_RATE_BITS = (1, 1, 0, 1)


def signal_interleave(bits):
    """The standard BPSK interleaver for one 48-bit coded block.

    For N_CBPS = 48, N_BPSC = 1 the first permutation is
    ``i = 3 * (k mod 16) + floor(k / 16)`` and the second is identity.
    """
    bits = np.asarray(list(bits), dtype=np.int8)
    if bits.size != 48:
        raise ValueError("SIGNAL interleaver works on 48 bits")
    out = np.empty(48, dtype=np.int8)
    for k in range(48):
        out[3 * (k % 16) + k // 16] = bits[k]
    return out


def signal_deinterleave(bits):
    """Inverse of :func:`signal_interleave`."""
    bits = np.asarray(list(bits), dtype=np.int8)
    if bits.size != 48:
        raise ValueError("SIGNAL deinterleaver works on 48 bits")
    out = np.empty(48, dtype=np.int8)
    for k in range(48):
        out[k] = bits[3 * (k % 16) + k // 16]
    return out


def build_signal_bits(length):
    """The 24 uncoded SIGNAL bits: RATE, reserved, LENGTH, parity, tail.

    ``length`` is the PSDU length field (12 bits); this transmitter uses
    it to carry the number of DATA symbols (documented simplification —
    our DATA field is uncoded QPSK, so the standard's octet-count-to-
    symbol conversion does not apply).
    """
    if not 0 <= length < (1 << 12):
        raise ValueError("length must fit 12 bits")
    bits = list(SIGNAL_RATE_BITS) + [0]
    bits += [(length >> i) & 1 for i in range(12)]  # LSB first per standard
    parity = sum(bits) & 1
    bits.append(parity)
    bits += [0] * 6  # tail
    return np.array(bits, dtype=np.int8)


def parse_signal_bits(bits):
    """Validate parity/tail and extract the LENGTH field (or ``None``).

    Bit 17 is even parity over bits 0-16; bits 18-23 are the zero tail.
    """
    bits = np.asarray(list(bits), dtype=np.int8)
    if bits.size != 24:
        return None
    if int(np.sum(bits[:17]) & 1) != int(bits[17]):
        return None
    if np.any(bits[18:24]):
        return None
    length = 0
    for i in range(12):
        length |= int(bits[5 + i]) << i
    return length


class OfdmTransmitter:
    """Generates 802.11g-shaped packets and interference bursts."""

    def __init__(self, sample_rate=WIFI_SAMPLE_RATE_20MHZ, tx_power_watts=1e-3):
        if sample_rate != WIFI_SAMPLE_RATE_20MHZ:
            raise ValueError(
                "the legacy OFDM PHY is defined at 20 Msps; resample the "
                "output for other receiver rates"
            )
        self.sample_rate = float(sample_rate)
        self.tx_power_watts = float(tx_power_watts)

    def signal_symbol(self, n_data_symbols):
        """The SIGNAL OFDM symbol announcing the packet's DATA length.

        Standard structure: 24 bits (RATE/reserved/LENGTH/parity/tail),
        rate-1/2 convolutional coding (the field's own tail terminates
        the trellis), the 48-bit BPSK interleaver, BPSK on the data
        subcarriers.  The LENGTH field carries the DATA symbol count
        (documented simplification; our DATA field is uncoded QPSK).
        """
        from repro.core.convolutional import conv_encode_raw

        coded = conv_encode_raw(build_signal_bits(n_data_symbols))
        interleaved = signal_interleave(coded)
        constellation = (1.0 - 2.0 * interleaved).astype(complex)
        return _ofdm_symbols(constellation.reshape(1, -1))[0]

    def data_symbol(self, bits):
        """One OFDM data symbol (CP + 64 samples) carrying 96 QPSK bits."""
        bits = np.asarray(bits, dtype=np.int8)
        needed = 2 * len(DATA_SUBCARRIERS)
        if bits.size != needed:
            raise ValueError(f"need exactly {needed} bits per symbol")
        return _ofdm_symbols(_qpsk_map(bits).reshape(1, -1))[0]

    def packet(self, payload_bits, rng=None):
        """A full packet: L-STF + L-LTF + OFDM data symbols.

        ``payload_bits`` is padded with random bits (from ``rng``) to a
        whole number of symbols; with ``rng=None`` zero-padding is used.
        """
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
        data = _ofdm_symbols(
            _qpsk_map(payload_bits).reshape(n_data_symbols, len(DATA_SUBCARRIERS))
        )
        waveform = np.concatenate(
            [L_STF, L_LTF, self.signal_symbol(n_data_symbols), data.ravel()]
        )
        return scale_to_power(waveform, self.tx_power_watts)

    def burst(self, duration_seconds, rng):
        """An interference burst of roughly the requested duration.

        Includes the real preamble, so a WiFi receiver in the simulation
        sees legitimate packets, while a SymBee decoder sees the phase
        corruption the paper's Figure 20 illustrates.
        """
        total_samples = int(round(duration_seconds * self.sample_rate))
        preamble_samples = 400  # STF + LTF + SIGNAL
        symbol_samples = FFT_SIZE + CYCLIC_PREFIX
        n_symbols = max(1, int(np.ceil((total_samples - preamble_samples) / symbol_samples)))
        per_symbol = 2 * len(DATA_SUBCARRIERS)
        bits = rng.integers(0, 2, n_symbols * per_symbol, dtype=np.int8)
        waveform = self.packet(bits)
        return waveform[: max(total_samples, preamble_samples)]
