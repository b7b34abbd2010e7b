"""The transport's view of the PHY: one fragment in, one observation out.

``TransportChannel`` wraps a :class:`repro.core.link.SymBeeLink` pinned
at a base SNR (the repo's ``link_at_snr`` convention), on the link's
ZigBee channel 13 under WiFi channel 1, and applies the
session's fault profile per transmission: extra path loss scales the
transmit waveform, interference installs a WiFi burst model for the
duration of that frame.

The receive side is deliberately honest about what a real transport
sees.  It reads the frame type, sequence byte and data region from the
*decoded* bit positions — any of which may be corrupted — and it does
**not** require the outer SymBee CRC to pass: a frame whose errors are
confined to the FEC-coded region is exactly the frame link-layer coding
exists to save, and the outer CRC (computed over raw pre-correction
bits) would veto it.  Integrity is the transport PDU's inner checksum's
job (:mod:`repro.transport.pdu`).
"""

from dataclasses import dataclass

from repro.core.frame import (
    DATA_START,
    OUTER_CRC_BITS,
    SEQUENCE_FIELD,
    TYPE_FIELD,
    bits_to_int,
    build_frame_bits,
    parse_frame_bits,
)
from repro.core.link import link_at_snr
from repro.transport.faults import FaultProfile


class _Attenuator:
    """Flat extra path loss applied to the transmit waveform."""

    def __init__(self, loss_db):
        self.loss_db = float(loss_db)

    def apply(self, waveform, rng):
        return waveform * 10.0 ** (-self.loss_db / 20.0)


@dataclass(frozen=True)
class RxObservation:
    """What the receiver extracted from one transmission attempt."""

    delivered: bool              # preamble captured and stream complete
    frame_type: "int | None"
    sequence: "int | None"
    data_bits: tuple             # decoded data region (possibly corrupted)
    decoded_bits: tuple          # full decoded frame bits (tracker input)
    counts: tuple                # per-bit vote counts (soft information)
    outer_crc_ok: bool           # diagnostic only; transport ignores it
    snr_db: float
    extra_loss_db: float
    interfered: bool


class TransportChannel:
    """Fault-aware PHY harness for transport sessions."""

    def __init__(self, snr_db=6.0, fault_profile=None):
        self.snr_db = float(snr_db)
        self.link = link_at_snr(self.snr_db)
        self.profile = fault_profile if fault_profile is not None else FaultProfile()

    def transmit(self, data_bits, frame_type, sequence, time_s, rng, profile_rng):
        """Run one fragment transmission through the faulted PHY.

        ``rng`` drives the PHY noise/interference draw for this attempt;
        ``profile_rng`` is the fault profile's dedicated stream (advanced
        once per call, keeping channel dynamics independent of the data
        path's randomness).
        """
        state = self.profile.state(float(time_s), profile_rng)
        self.link.link_channel = (
            _Attenuator(state.extra_loss_db) if state.extra_loss_db else None
        )
        self.link.interference = state.interference

        frame_bits = build_frame_bits(
            data_bits, sequence=sequence, frame_type=frame_type
        )
        result = self.link.send_bits(frame_bits, rng, mac_sequence=sequence)

        n = len(frame_bits)
        decoded = result.decoded_bits
        if not result.preamble_captured or len(decoded) < n:
            return RxObservation(
                delivered=False,
                frame_type=None,
                sequence=None,
                data_bits=(),
                decoded_bits=tuple(decoded),
                counts=tuple(result.counts),
                outer_crc_ok=False,
                snr_db=result.snr_db,
                extra_loss_db=state.extra_loss_db,
                interfered=state.interference is not None,
            )

        decoded = tuple(decoded[:n])
        frame = parse_frame_bits(decoded)
        return RxObservation(
            delivered=True,
            frame_type=bits_to_int(decoded[TYPE_FIELD]),
            sequence=bits_to_int(decoded[SEQUENCE_FIELD]),
            data_bits=tuple(int(b) for b in decoded[DATA_START : n - OUTER_CRC_BITS]),
            decoded_bits=decoded,
            counts=tuple(result.counts[:n]),
            outer_crc_ok=frame is not None and frame.crc_ok,
            snr_db=result.snr_db,
            extra_loss_db=state.extra_loss_db,
            interfered=state.interference is not None,
        )
