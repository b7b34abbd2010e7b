"""End-to-end SymBee link: ZigBee sender -> channel -> WiFi receiver.

This is the harness every experiment drives.  One ``send_bits`` call runs
the full paper pipeline:

1. encode the bits (plus preamble) into a legitimate 802.15.4 packet,
2. modulate at the ZigBee channel frequency,
3. apply the link channel (path loss / fading / Doppler),
4. assemble the WiFi baseband capture: downconversion with the true
   centre-frequency offset, co-channel WiFi interference bursts, and the
   receiver noise floor over the full sampling bandwidth,
5. recycle idle listening for the phase stream, capture the preamble by
   folding, and majority-vote decode the message bits.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from repro.constants import (
    DEFAULT_NOISE_FIGURE_DB,
    DEFAULT_TX_POWER_DBM,
    SYMBEE_BIT0_SYMBOLS,
    SYMBEE_PREAMBLE_BITS,
    SYMBEE_STABLE_PHASE,
    WIFI_SAMPLE_RATE_20MHZ,
)
from repro.core.decoder import SymBeeDecoder
from repro.core.encoder import SymBeeEncoder
from repro.core.phase import cfo_compensation_phase
from repro.core.preamble import capture_preamble
from repro.dsp.signal_ops import linear_to_db, signal_power, watts_to_dbm
from repro.obs.metrics import REGISTRY
from repro.obs.trace import TRACER
from repro.wifi.front_end import WifiFrontEnd
from repro.zigbee.channels import frequency_offset_hz
from repro.zigbee.frame import PHY_OVERHEAD_BYTES
from repro.zigbee.transmitter import ZigBeeTransmitter

#: Link-level frame/bit accounting and the symbol-error taxonomy: a
#: decoded 1 that was sent as 0 (``zero_as_one``), the converse, bits
#: dropped because the decode window ran off the capture (``truncated``),
#: and whole frames lost to a preamble miss.
_M_FRAMES = REGISTRY.counter("link.frames")
_M_FRAMES_LOST = REGISTRY.counter("link.frames.lost")
_M_BITS_SENT = REGISTRY.counter("link.bits.sent")
_M_BITS_DELIVERED = REGISTRY.counter("link.bits.delivered")
_M_ERR_ZERO_AS_ONE = REGISTRY.counter("link.errors.zero_as_one")
_M_ERR_ONE_AS_ZERO = REGISTRY.counter("link.errors.one_as_zero")
_M_ERR_TRUNCATED = REGISTRY.counter("link.errors.truncated_bits")
_M_SNR = REGISTRY.gauge("link.snr_db")


@lru_cache(maxsize=4)
def stable_window_offset(sample_rate=WIFI_SAMPLE_RATE_20MHZ):
    """Offset of the stable plateau inside a SymBee bit's 640 samples.

    Measured once from a noiseless (E,F)(E,F) rendering; used for
    ground-truth bit positions in evaluations (the receiver itself never
    needs it — the preamble provides timing).
    """
    from repro.dsp.runs import run_starts
    from repro.wifi.idle_listening import phase_differences
    from repro.zigbee.oqpsk import OqpskModulator

    mod = OqpskModulator(sample_rate)
    pair = list(SYMBEE_BIT0_SYMBOLS)
    waveform = mod.modulate_symbols(pair + pair)
    lag = int(round(sample_rate * 0.8e-6))
    dp = phase_differences(waveform, lag)
    window = int(84 * sample_rate / WIFI_SAMPLE_RATE_20MHZ)
    stable = np.abs(dp - (-SYMBEE_STABLE_PHASE)) < 1e-9
    starts = run_starts(stable, window)
    if starts.size == 0:
        raise RuntimeError("stable plateau not found — modulator regression")
    return int(starts[0])


@dataclass
class LinkResult:
    """Outcome of one SymBee frame transmission."""

    sent_bits: tuple
    decoded_bits: tuple
    preamble_captured: bool
    bit_errors: int
    counts: tuple               # nonnegative phase count per decoded bit
    rx_power_dbm: float
    snr_db: float
    captured_data_start: "int | None"
    true_data_start: int
    phases: "np.ndarray | None" = None

    @property
    def n_bits(self):
        return len(self.sent_bits)

    @property
    def ber(self):
        """Bit error rate; a lost frame (no preamble) counts all bits."""
        if self.n_bits == 0:
            return 0.0
        if not self.preamble_captured:
            return 1.0
        return self.bit_errors / self.n_bits

    @property
    def delivered_bits(self):
        """Correctly decoded bits (zero when the preamble was missed)."""
        if not self.preamble_captured:
            return 0
        return self.n_bits - self.bit_errors


class SymBeeLink:
    """A configured sender/receiver pair plus its channel."""

    #: Capture samples after the frame's last chip (noise only).
    tail_samples = 1000

    def __init__(
        self,
        zigbee_channel=13,
        wifi_channel=1,
        sample_rate=WIFI_SAMPLE_RATE_20MHZ,
        tx_power_dbm=DEFAULT_TX_POWER_DBM,
        link_channel=None,
        interference=None,
        noise_figure_db=DEFAULT_NOISE_FIGURE_DB,
        include_noise=True,
        tau=None,
        tau_sync=None,
        nibble_order="low-first",
        lead_in_samples=2000,
        residual_cfo_hz=0.0,
        track_residual_cfo=False,
    ):
        self.transmitter = ZigBeeTransmitter(
            channel=zigbee_channel,
            tx_power_dbm=tx_power_dbm,
            sample_rate=sample_rate,
            nibble_order=nibble_order,
        )
        self.front_end = WifiFrontEnd(
            channel=wifi_channel,
            sample_rate=sample_rate,
            noise_figure_db=noise_figure_db,
        )
        self.encoder = SymBeeEncoder(nibble_order=nibble_order)
        offset = frequency_offset_hz(zigbee_channel, wifi_channel)
        lag = int(round(sample_rate * 0.8e-6))
        correction = cfo_compensation_phase(offset, lag, sample_rate)
        self.decoder = SymBeeDecoder(
            sample_rate=sample_rate,
            tau=tau,
            tau_sync=tau_sync,
            cfo_correction=correction,
        )
        self.link_channel = link_channel
        self.interference = interference
        self.include_noise = include_noise
        self.lead_in_samples = int(lead_in_samples)
        #: Carrier offset beyond the channel grid (crystal ppm error of
        #: the ZigBee transmitter); an impairment the paper's Appendix B
        #: does not cover.  +-40 ppm at 2.44 GHz is about +-100 kHz.
        self.residual_cfo_hz = float(residual_cfo_hz)
        #: When True, the decoder estimates the residual offset from the
        #: captured preamble's mean fold angle (which a clean preamble
        #: pins at -4pi/5) and de-rotates the phase stream before the
        #: majority vote — an extension beyond the paper.
        self.track_residual_cfo = bool(track_residual_cfo)

    # -- geometry -------------------------------------------------------------

    def _payload_start_samples(self):
        """Samples from packet start to the first payload byte.

        PHY overhead (SHR + PHR) plus the 9 MAC header bytes precede the
        SymBee payload; each byte spans one bit period.
        """
        header_bytes = PHY_OVERHEAD_BYTES + 9
        return header_bytes * self.decoder.bit_period

    def true_bit_positions(self, n_bits):
        """Ground-truth stable-window start of each message bit.

        Index 0 is the first *message* bit (after the preamble), in
        phase-stream coordinates of a capture built by :meth:`send_bits`.
        """
        base = (
            self.lead_in_samples
            + self._payload_start_samples()
            + SYMBEE_PREAMBLE_BITS * self.decoder.bit_period
            + stable_window_offset(self.decoder.sample_rate)
        )
        return [base + k * self.decoder.bit_period for k in range(n_bits)]

    # -- transmission -----------------------------------------------------------

    def send_bits(
        self,
        bits,
        rng,
        keep_phases=False,
        decode_synchronized=True,
        mac_sequence=None,
    ):
        """Send one SymBee frame of raw message bits and decode it.

        ``decode_synchronized=False`` skips preamble capture and uses the
        ground-truth timing (used by ablation studies isolating the
        decoder from the capture stage).  ``mac_sequence`` pins the MAC
        sequence number instead of consuming the transmitter's counter —
        the parallel runtime uses it so a trial's frame bytes depend only
        on the trial index, not on which worker runs it.

        The receive side runs on the decoder's phasor stream: votes are
        sign tests on the rotated autocorrelation products and preamble
        folding consumes unit phasors, so the angle stream is only
        materialized when ``keep_phases`` or residual-CFO tracking needs
        it.  Decisions are identical to the angle-domain formulation.
        """
        with TRACER.span("link.modulate"):
            bits = tuple(int(b) for b in bits)
            payload = self.encoder.encode_message(bits)
            if mac_sequence is None:
                frame = self.transmitter.build_frame(payload)
            else:
                frame = self.transmitter.build_frame(
                    payload, sequence=int(mac_sequence) & 0xFF
                )
            waveform = self.transmitter.transmit_frame(frame)

        with TRACER.span("link.channel"):
            if self.link_channel is not None:
                rx_waveform = self.link_channel.apply(waveform, rng)
            else:
                rx_waveform = waveform
            if self.residual_cfo_hz != 0.0:
                from repro.dsp.signal_ops import mix

                rx_waveform = mix(
                    rx_waveform, self.residual_cfo_hz, self.decoder.sample_rate
                )

        with TRACER.span("link.front_end"):
            rx_power = signal_power(rx_waveform)
            rx_power_dbm = float(watts_to_dbm(rx_power))
            snr_db = float(
                linear_to_db(rx_power / self.front_end.noise_power_watts)
            )

            total = self.lead_in_samples + rx_waveform.size + self.tail_samples
            contributions = [
                (rx_waveform, self.lead_in_samples, self.transmitter.center_frequency)
            ]
            if self.interference is not None:
                contributions += self.interference.contributions(
                    total, rx_power, rng, self.front_end.center_frequency
                )
            capture = self.front_end.capture(
                contributions, total, rng=rng, include_noise=self.include_noise
            )

        with TRACER.span("link.decode"):
            phasors = self.decoder.phasor_stream(capture)
            phases = None

            true_start = self.true_bit_positions(1)[0]
            if decode_synchronized:
                pre = capture_preamble(
                    None, self.decoder, unit_phasors=self.decoder.unit_phasors(phasors)
                )
                captured = pre is not None
                data_start = pre.data_start if captured else None
            else:
                captured = True
                data_start = true_start

            if captured and decode_synchronized and self.track_residual_cfo:
                from repro.dsp.signal_ops import wrap_phase

                deviation = wrap_phase(pre.mean_angle + SYMBEE_STABLE_PHASE)
                phases = wrap_phase(self.decoder.phases(capture) - deviation)

            if captured:
                if phases is not None:
                    result = self.decoder.decode_synchronized(
                        phases, data_start, len(bits)
                    )
                else:
                    result = self.decoder.decode_synchronized_mask(
                        phasors.imag >= 0.0, data_start, len(bits)
                    )
                decoded = result.bits
                counts = result.counts
                errors = sum(
                    1 for sent, got in zip(bits, decoded) if sent != got
                ) + max(0, len(bits) - len(decoded))
            else:
                decoded, counts, errors = (), (), len(bits)

            if keep_phases and phases is None:
                # The exact angle-path stream (wrap convention included),
                # since tests assert on stored phase values.
                phases = self.decoder.phases(capture)

        if REGISTRY.enabled:
            _M_FRAMES.inc()
            _M_BITS_SENT.inc(len(bits))
            _M_SNR.set(snr_db)
            if captured:
                zero_as_one = one_as_zero = 0
                for sent, got in zip(bits, decoded):
                    if sent != got:
                        if got:
                            zero_as_one += 1
                        else:
                            one_as_zero += 1
                _M_ERR_ZERO_AS_ONE.inc(zero_as_one)
                _M_ERR_ONE_AS_ZERO.inc(one_as_zero)
                _M_ERR_TRUNCATED.inc(max(0, len(bits) - len(decoded)))
                _M_BITS_DELIVERED.inc(len(bits) - errors)
            else:
                _M_FRAMES_LOST.inc()

        return LinkResult(
            sent_bits=bits,
            decoded_bits=decoded,
            preamble_captured=captured,
            bit_errors=errors,
            counts=counts,
            rx_power_dbm=rx_power_dbm,
            snr_db=snr_db,
            captured_data_start=data_start if captured else None,
            true_data_start=true_start,
            phases=phases if keep_phases else None,
        )

    def send_frame(self, data_bits, sequence=0, rng=None, **kwargs):
        """Send a full SymBee frame (header + CRC) and parse it back.

        Returns ``(LinkResult, SymBeeFrame | None)``; the frame is ``None``
        when the preamble was missed or the stream was too mangled to
        parse.  The CRC verdict is in ``frame.crc_ok``.
        """
        from repro.core.frame import build_frame_bits, parse_frame_bits

        if rng is None:
            raise ValueError("rng is required")
        frame_bits = build_frame_bits(list(data_bits), sequence=sequence)
        result = self.send_bits(frame_bits, rng, **kwargs)
        frame = parse_frame_bits(result.decoded_bits) if result.preamble_captured else None
        return result, frame


def noise_floor_dbm(
    sample_rate=WIFI_SAMPLE_RATE_20MHZ, noise_figure_db=DEFAULT_NOISE_FIGURE_DB
):
    """The WiFi receiver's noise floor over its full sampled bandwidth."""
    front = WifiFrontEnd(sample_rate=sample_rate, noise_figure_db=noise_figure_db)
    return float(watts_to_dbm(front.noise_power_watts))


def link_at_snr(snr_db, **link_kwargs):
    """A SymBee link whose per-sample wideband SNR is ``snr_db``.

    No path loss is applied; the transmit power is set so the received
    signal sits ``snr_db`` above the front end's noise floor over the
    full sampling bandwidth.  This is the repo's SNR convention (see
    EXPERIMENTS.md on how it maps to the paper's axis).
    """
    floor_dbm = noise_floor_dbm(
        link_kwargs.get("sample_rate", WIFI_SAMPLE_RATE_20MHZ),
        link_kwargs.get("noise_figure_db", DEFAULT_NOISE_FIGURE_DB),
    )
    return SymBeeLink(tx_power_dbm=floor_dbm + float(snr_db), **link_kwargs)
