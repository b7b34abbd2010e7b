"""802.11a/g OFDM receiver (legacy 20 MHz PHY).

Counterpart of :class:`repro.wifi.ofdm.OfdmTransmitter`: packet detection
via idle listening, fine timing from the L-LTF cross-correlation, coarse
CFO from the L-STF autocorrelation, per-subcarrier channel estimation
from the two LTF repetitions, pilot-driven common-phase-error tracking,
and QPSK demapping.

Role in the reproduction: it closes the loop on the WiFi substrate (the
idle-listening module the paper recycles belongs to a receiver that must
actually receive WiFi), and it enables the *reverse* cross-technology
interference measurement — how a WiFi link fares while a ZigBee/SymBee
sender shares the band — used by tests and the coexistence example.
"""

from dataclasses import dataclass

import numpy as np

from repro.constants import WIFI_SAMPLE_RATE_20MHZ
from repro.wifi.idle_listening import IdleListening
from repro.wifi.ofdm import (
    CYCLIC_PREFIX,
    DATA_SUBCARRIERS,
    FFT_SIZE,
    L_LTF,
    PILOT_SUBCARRIERS,
)

#: Frequency-domain reference values of the L-LTF on its 52 subcarriers.
_LTF_REFERENCE = None


def _ltf_reference():
    """Cache the LTF's frequency-domain reference grid."""
    global _LTF_REFERENCE
    if _LTF_REFERENCE is None:
        symbol = L_LTF[32:96]
        _LTF_REFERENCE = np.fft.fft(symbol) / (FFT_SIZE / np.sqrt(52.0))
    return _LTF_REFERENCE


@dataclass
class OfdmReception:
    """Decoded packet plus link diagnostics."""

    bits: np.ndarray
    start_index: int
    cfo_hz: float
    evm: float                  # RMS error-vector magnitude of data symbols


class OfdmReceiver:
    """Decodes packets produced by :class:`OfdmTransmitter`."""

    def __init__(self, sample_rate=WIFI_SAMPLE_RATE_20MHZ):
        if sample_rate != WIFI_SAMPLE_RATE_20MHZ:
            raise ValueError("the legacy OFDM PHY is defined at 20 Msps")
        self.sample_rate = float(sample_rate)
        self.idle_listening = IdleListening(sample_rate)
        self._ltf_symbol = L_LTF[32:96]

    # -- synchronization ------------------------------------------------------

    def coarse_detect(self, capture):
        """STF-based detection; returns the approximate packet start."""
        detections = self.idle_listening.detect_wifi_packets(capture)
        if not detections:
            return None
        return detections[0].start_index

    def estimate_cfo(self, capture, start):
        """Coarse CFO from the STF's 16-sample periodicity."""
        stf = np.asarray(capture[start : start + 160])
        if stf.size < 32:
            return 0.0
        prod = np.sum(stf[:-16] * np.conj(stf[16:]))
        # x[n] ~ e^{j2pi f t}: x[n]x*[n+16] rotates by -2pi f 16 Ts.
        return float(-np.angle(prod) / (2.0 * np.pi * 16.0 / self.sample_rate))

    def fine_sync(self, capture, approximate_start):
        """Locate the first LTF symbol by cross-correlation.

        Searches a window around ``approximate_start + 192`` (STF 160 +
        LTF CP 32).  Returns the index of the first 64-sample LTF symbol.
        """
        from scipy.signal import fftconvolve

        capture = np.asarray(capture)
        nominal = approximate_start + 160 + 32
        lo = max(0, nominal - 48)
        hi = min(capture.size - 64, nominal + 48)
        if hi <= lo:
            return None
        segment = capture[lo : hi + 64]
        corr = fftconvolve(segment, np.conj(self._ltf_symbol[::-1]), mode="valid")
        return lo + int(np.argmax(np.abs(corr)))

    # -- decoding ---------------------------------------------------------------

    def _equalize(self, capture, ltf_start):
        """Channel estimate from the two LTF repetitions."""
        first = np.fft.fft(capture[ltf_start : ltf_start + 64])
        second = np.fft.fft(capture[ltf_start + 64 : ltf_start + 128])
        reference = _ltf_reference()
        scale = FFT_SIZE / np.sqrt(52.0)
        with np.errstate(divide="ignore", invalid="ignore"):
            channel = (first + second) / (2.0 * scale * reference)
        channel[reference == 0] = 0.0
        return channel

    def decode_symbols(self, capture, data_start, n_symbols, channel):
        """Equalize and demap ``n_symbols`` OFDM data symbols."""
        bits = []
        errors = []
        span = FFT_SIZE + CYCLIC_PREFIX
        for k in range(n_symbols):
            start = data_start + k * span + CYCLIC_PREFIX
            if start + FFT_SIZE > len(capture):
                break
            spectrum = np.fft.fft(capture[start : start + FFT_SIZE]) / (
                FFT_SIZE / np.sqrt(52.0)
            )
            with np.errstate(divide="ignore", invalid="ignore"):
                equalized = np.where(channel != 0, spectrum / channel, 0.0)
            # Common phase error from the four pilots; the transmitter
            # sends polarity (1, 1, 1, -1) on subcarriers (-21, -7, 7, 21).
            pilot_ref = np.array([1.0, 1.0, 1.0, -1.0], dtype=complex)
            pilots = np.array(
                [equalized[p % FFT_SIZE] for p in PILOT_SUBCARRIERS]
            )
            cpe = np.angle(np.sum(pilots * np.conj(pilot_ref)))
            rotated = equalized * np.exp(-1j * cpe)
            for subcarrier in DATA_SUBCARRIERS:
                value = rotated[subcarrier % FFT_SIZE]
                bits.append(0 if value.real >= 0 else 1)
                bits.append(0 if value.imag >= 0 else 1)
                ideal = (
                    (1 - 2 * bits[-2]) + 1j * (1 - 2 * bits[-1])
                ) / np.sqrt(2.0)
                errors.append(abs(value - ideal) ** 2)
        evm = float(np.sqrt(np.mean(errors))) if errors else 1.0
        return np.array(bits, dtype=np.int8), evm

    def decode_signal_field(self, capture, signal_start, channel):
        """Decode the SIGNAL symbol; returns the DATA-symbol count or ``None``.

        BPSK demap on the equalized subcarriers, the standard 48-bit
        deinterleaver, Viterbi (the field's own tail terminates the
        trellis), then parity/tail validation.
        """
        from repro.core.convolutional import viterbi_decode
        from repro.wifi.ofdm import parse_signal_bits, signal_deinterleave

        start = signal_start + CYCLIC_PREFIX
        if start + FFT_SIZE > len(capture):
            return None
        spectrum = np.fft.fft(capture[start : start + FFT_SIZE]) / (
            FFT_SIZE / np.sqrt(52.0)
        )
        with np.errstate(divide="ignore", invalid="ignore"):
            equalized = np.where(channel != 0, spectrum / channel, 0.0)
        hard = np.array(
            [0 if equalized[k % FFT_SIZE].real >= 0 else 1
             for k in DATA_SUBCARRIERS],
            dtype=np.int8,
        )
        decoded = viterbi_decode(signal_deinterleave(hard), n_bits=24)
        return parse_signal_bits(decoded)

    def receive(self, capture, n_symbols=None):
        """Full receive chain.  Returns :class:`OfdmReception` or ``None``.

        With ``n_symbols=None`` the DATA length is read from the packet's
        own SIGNAL field (parity/tail-checked); passing it explicitly
        overrides a damaged SIGNAL.
        """
        capture = np.asarray(capture)
        start = self.coarse_detect(capture)
        if start is None:
            return None
        cfo = self.estimate_cfo(capture, start)
        if cfo != 0.0:
            n = np.arange(capture.size)
            capture = capture * np.exp(-1j * 2.0 * np.pi * cfo * n / self.sample_rate)
        ltf_start = self.fine_sync(capture, start)
        if ltf_start is None:
            return None
        channel = self._equalize(capture, ltf_start)
        signal_start = ltf_start + 128
        announced = self.decode_signal_field(capture, signal_start, channel)
        if n_symbols is None:
            if announced is None:
                return None
            n_symbols = announced
        data_start = signal_start + FFT_SIZE + CYCLIC_PREFIX
        bits, evm = self.decode_symbols(capture, data_start, n_symbols, channel)
        if bits.size == 0:
            return None
        return OfdmReception(bits=bits, start_index=start, cfo_hz=cfo, evm=evm)
