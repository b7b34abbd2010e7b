"""Coherent ZigBee receiver.

Used by the cross-technology-broadcast path (paper Section VI-A: the same
SymBee packet is an ordinary ZigBee packet, so any ZigBee node decodes it
at the application layer) and by the baseline simulators to establish
packet delivery.  Detection is a matched filter against the known SHR
waveform; carrier phase is recovered from the correlation peak.
"""

from dataclasses import dataclass

import numpy as np

from repro.constants import WIFI_SAMPLE_RATE_20MHZ, ZIGBEE_MAX_PSDU
from repro.zigbee.frame import SHR_SYMBOLS
from repro.zigbee.mac import MacFrame
from repro.zigbee.oqpsk import OqpskDemodulator, OqpskModulator
from repro.zigbee.symbols import symbols_to_bytes


@dataclass
class ZigBeeReception:
    """Outcome of one receive attempt."""

    frame: "MacFrame | None"
    psdu: bytes
    start_index: int
    carrier_phase: float
    fcs_ok: bool
    symbol_quality: "np.ndarray | None" = None


class ZigBeeReceiver:
    """SHR-synchronized matched-filter receiver."""

    #: Normalized correlation needed to declare a sync (0..1).
    detection_threshold = 0.5

    def __init__(self, sample_rate=WIFI_SAMPLE_RATE_20MHZ):
        self.demodulator = OqpskDemodulator(sample_rate)
        self._mod = OqpskModulator(sample_rate)
        self._shr_reference = self._mod.modulate_symbols(list(SHR_SYMBOLS))
        self._shr_energy = float(np.sum(np.abs(self._shr_reference) ** 2))

    @property
    def sample_rate(self):
        return self.demodulator.sample_rate

    def synchronize(self, waveform):
        """Locate the SHR.  Returns ``(start_index, carrier_phase)`` or ``None``.

        The matched-filter output is normalized by the local received
        energy so the threshold is amplitude-independent.
        """
        from scipy.signal import fftconvolve

        waveform = np.asarray(waveform)
        ref = self._shr_reference
        if waveform.size < ref.size:
            return None
        corr = fftconvolve(waveform, np.conj(ref[::-1]), mode="valid")
        local_energy = fftconvolve(
            np.abs(waveform) ** 2, np.ones(ref.size), mode="valid"
        )
        denom = np.sqrt(np.maximum(local_energy, 1e-30) * self._shr_energy)
        metric = np.abs(corr) / denom
        peak = int(np.argmax(metric))
        if metric[peak] < self.detection_threshold:
            return None
        return peak, float(np.angle(corr[peak]))

    def receive(self, waveform):
        """Full receive chain: sync, PHR, PSDU, FCS check.

        Returns a :class:`ZigBeeReception`; ``frame`` is ``None`` unless the
        FCS verifies and the MAC header parses.
        """
        sync = self.synchronize(waveform)
        if sync is None:
            return None
        start, phase = sync
        waveform = np.asarray(waveform)

        shr_len = self._shr_reference.size - self._mod.quadrature_offset
        phr_start = start + shr_len
        spp = self._mod.samples_per_pulse

        # PHR: one byte = 2 symbols = 32 pulse slots.
        phr_span = 32 * spp + self._mod.quadrature_offset
        if waveform.size < phr_start + phr_span:
            return None
        phr_symbols, _ = self.demodulator.demodulate_symbols(
            waveform[phr_start:], 2, carrier_phase=phase
        )
        length = symbols_to_bytes(phr_symbols)[0]
        if not 0 < length <= ZIGBEE_MAX_PSDU:
            return None

        psdu_start = phr_start + 32 * spp
        psdu_span = length * 32 * spp + self._mod.quadrature_offset
        if waveform.size < psdu_start + psdu_span:
            return None
        psdu_symbols, quality = self.demodulator.demodulate_symbols(
            waveform[psdu_start:], length * 2, carrier_phase=phase
        )
        psdu = symbols_to_bytes(psdu_symbols)

        try:
            frame = MacFrame.from_psdu(psdu)
            fcs_ok = True
        except ValueError:
            frame, fcs_ok = None, False
        return ZigBeeReception(
            frame=frame,
            psdu=psdu,
            start_index=start,
            carrier_phase=phase,
            fcs_ok=fcs_ok,
            symbol_quality=quality,
        )
