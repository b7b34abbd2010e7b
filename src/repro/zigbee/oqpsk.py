"""O-QPSK half-sine modulation — the ZigBee waveform WiFi cross-observes.

Modulation follows the paper's Figure 2 exactly:

* chips are split into even (in-phase) and odd (quadrature) streams;
* chip value 0 becomes a positive half-sine pulse, 1 a negative one
  (Section III-B step (ii));
* each pulse lasts 1 us (two chip periods) and the quadrature branch is
  delayed by half a pulse (0.5 us), so consecutive same-branch pulses abut
  seamlessly — which is what lets special chip patterns form the long
  continuous sinusoids SymBee rides on.

The modulator renders directly at the requested sample rate, which for the
20/40 Msps WiFi rates is an exact integer number of samples per pulse, so
no resampling error enters the cross-observability analysis.
"""

import numpy as np

from repro.constants import ZIGBEE_PULSE_DURATION


class OqpskModulator:
    """Chip/symbol stream to complex-baseband O-QPSK waveform."""

    def __init__(self, sample_rate):
        samples_per_pulse = sample_rate * ZIGBEE_PULSE_DURATION
        if abs(samples_per_pulse - round(samples_per_pulse)) > 1e-9:
            raise ValueError(
                "sample_rate must render an integer number of samples per "
                f"1 us pulse; got {sample_rate} Hz"
            )
        self.sample_rate = float(sample_rate)
        self.samples_per_pulse = int(round(samples_per_pulse))
        if self.samples_per_pulse % 2 != 0:
            raise ValueError("samples per pulse must be even for the half-chip offset")
        #: Samples of delay applied to the quadrature branch (0.5 us).
        self.quadrature_offset = self.samples_per_pulse // 2
        t = np.arange(self.samples_per_pulse) / self.samples_per_pulse
        #: One half-sine pulse, peak amplitude 1.
        self.pulse = np.sin(np.pi * t)
        # Lazily built 16-entry symbol -> baseband segment table; see
        # _symbol_segments().
        self._segments = None

    def waveform_length(self, n_chips):
        """Output sample count for ``n_chips`` chips (must be even)."""
        if n_chips % 2 != 0:
            raise ValueError("chip count must be even (I/Q pairs)")
        n_pairs = n_chips // 2
        if n_pairs == 0:
            return 0
        return n_pairs * self.samples_per_pulse + self.quadrature_offset

    def modulate_chips(self, chips):
        """Render a 0/1 chip stream to a complex baseband waveform."""
        chips = np.asarray(chips, dtype=np.int8)
        if chips.size % 2 != 0:
            raise ValueError("chip count must be even (I/Q pairs)")
        n_pairs = chips.size // 2
        if n_pairs == 0:
            return np.empty(0, dtype=np.complex128)
        # Chip 0 -> +1 pulse, chip 1 -> -1 pulse.
        amplitudes = np.where(chips == 0, 1.0, -1.0)
        even, odd = amplitudes[0::2], amplitudes[1::2]

        spp, off = self.samples_per_pulse, self.quadrature_offset
        total = n_pairs * spp + off
        in_phase = np.zeros(total)
        quadrature = np.zeros(total)
        in_phase[: n_pairs * spp] = (even[:, None] * self.pulse[None, :]).ravel()
        quadrature[off : off + n_pairs * spp] = (
            odd[:, None] * self.pulse[None, :]
        ).ravel()
        return in_phase + 1j * quadrature

    def _symbol_segments(self):
        """Precomputed per-symbol baseband segments (16 x waveform_length(32)).

        Segment ``s`` is exactly ``modulate_chips(CHIP_MATRIX[s])``: 16
        in-phase pulses filling a ``16 * samples_per_pulse`` block plus
        the quadrature tail that spills ``quadrature_offset`` samples
        into the next symbol's block.  Because the spilled tail is purely
        quadrature and the next segment's head is purely in-phase there,
        overlap-adding segments at a ``16 * samples_per_pulse`` stride
        reproduces full-stream modulation sample-exactly.
        """
        if self._segments is None:
            from repro.zigbee.symbols import CHIP_MATRIX

            table = np.stack([self.modulate_chips(CHIP_MATRIX[s]) for s in range(16)])
            seg_len = 16 * self.samples_per_pulse
            # Split into contiguous (main, tail) halves so the per-frame
            # gather is a straight block copy.
            main = np.ascontiguousarray(table[:, :seg_len])
            tail = np.ascontiguousarray(table[:, seg_len:])
            main.setflags(write=False)
            tail.setflags(write=False)
            self._segments = (main, tail)
        return self._segments

    def modulate_symbols(self, symbols):
        """Spread 4-bit data symbols and render the waveform.

        Renders via the per-symbol segment table (one gather plus an
        overlap-add of the quadrature tails) instead of re-spreading and
        pulse-shaping every chip; the output is sample-identical to
        ``modulate_chips(spread(symbols))``.
        """
        symbols = np.asarray(list(symbols), dtype=np.intp)
        if symbols.size == 0:
            return np.empty(0, dtype=np.complex128)
        if symbols.min() < 0 or symbols.max() > 0xF:
            bad = symbols[(symbols < 0) | (symbols > 0xF)][0]
            raise ValueError(f"symbol out of range: {bad}")
        main, tail = self._symbol_segments()
        seg_len = 16 * self.samples_per_pulse
        off = self.quadrature_offset
        n = symbols.size
        out = np.empty(n * seg_len + off, dtype=np.complex128)
        out[: n * seg_len].reshape(n, seg_len)[:] = main[symbols]
        out[n * seg_len :] = 0.0
        # Quadrature tails overlap the head of the following block (the
        # head's quadrature part is zero there, so this is a pure add).
        positions = seg_len * np.arange(1, n + 1)[:, None] + np.arange(off)[None, :]
        out[positions] += tail[symbols]
        return out


class OqpskDemodulator:
    """Coherent matched-filter O-QPSK demodulator.

    Used for the ZigBee-side reception path (cross-technology broadcast,
    baseline packet delivery); the WiFi side never demodulates ZigBee —
    it only observes phase differences.
    """

    def __init__(self, sample_rate):
        self._mod = OqpskModulator(sample_rate)

    @property
    def sample_rate(self):
        return self._mod.sample_rate

    def soft_chips(self, waveform, n_chips):
        """Matched-filter soft chip values (positive means chip 0).

        ``waveform`` must be time-aligned so its first sample is the start
        of the first in-phase pulse.
        """
        if n_chips % 2 != 0:
            raise ValueError("chip count must be even")
        spp, off = self._mod.samples_per_pulse, self._mod.quadrature_offset
        n_pairs = n_chips // 2
        needed = self._mod.waveform_length(n_chips)
        waveform = np.asarray(waveform)
        if waveform.size < needed:
            raise ValueError(f"waveform too short: need {needed}, got {waveform.size}")

        pulse = self._mod.pulse
        i_windows = waveform.real[: n_pairs * spp].reshape(n_pairs, spp)
        q_flat = waveform.imag[off : off + n_pairs * spp]
        q_windows = q_flat.reshape(n_pairs, spp)
        even_soft = i_windows @ pulse
        odd_soft = q_windows @ pulse
        soft = np.empty(n_chips)
        soft[0::2] = even_soft
        soft[1::2] = odd_soft
        return soft

    def demodulate_symbols(self, waveform, n_symbols, carrier_phase=0.0):
        """Recover ``n_symbols`` data symbols from an aligned waveform.

        ``carrier_phase`` de-rotates a residual constant phase before
        matched filtering (the receiver's carrier recovery output).
        Returns ``(symbols, quality)`` as from
        :func:`repro.zigbee.dsss.despread`.
        """
        from repro.zigbee.dsss import despread

        waveform = np.asarray(waveform)
        if carrier_phase:
            waveform = waveform * np.exp(-1j * carrier_phase)
        soft = self.soft_chips(waveform, n_symbols * 32)
        return despread(soft, soft=True)
