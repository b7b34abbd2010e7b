"""WiFi -> ZigBee acknowledgment side channel (FreeBee-style).

SymBee itself is unidirectional — ZigBee payload bits to a WiFi
listener — so the ARQ's feedback path cannot ride SymBee frames.  What a
WiFi AP *can* do without new hardware is transmit ordinary packets on a
schedule, and a ZigBee node can timestamp their energy bursts: exactly
the FreeBee side channel (Kim & He, MobiCom'15) the baselines module
already models.  The ACK channel therefore encodes each ACK record into
beacon-timing symbols via :class:`repro.baselines.freebee.FreeBee` and
plays the burst schedule through an impairment model: per-beacon loss,
Gaussian timing jitter (energy-detection uncertainty at the ZigBee
node), and scripted blackout windows (the `ack-blackout` fault profile).

An ACK record is 30 bits — ``msg_id(4) | base(6) | bitmap(8) |
quality(4) | crc8(8)`` — a selective-repeat cumulative base plus
received-bitmap for the 8-fragment window, and a quantized link-quality
observation (AdaComm-style decoder soft info fed back to the sender's
rate adaptation).  At 2 bits per beacon the record costs 15 beacons;
with the default 6 ms beacon interval an ACK takes ~90 ms of air time,
two orders of magnitude slower than a data frame — which is what makes
the sender's pipelined window and retransmit timers earn their keep.
"""

from dataclasses import dataclass

from repro.baselines.freebee import FreeBee
from repro.core.frame import bits_to_int, int_to_bits, pack_bits
from repro.zigbee.crc import crc16_itut

#: Selective-repeat window size; the ACK bitmap covers exactly this many
#: fragments starting at the record's cumulative base.
ACK_WINDOW = 8

_MSG_ID_BITS = 4
_BASE_BITS = 6
_QUALITY_BITS = 4
_CRC_BITS = 8

ACK_BITS = _MSG_ID_BITS + _BASE_BITS + ACK_WINDOW + _QUALITY_BITS + _CRC_BITS

#: The AP's beacon schedule: one beacon every 6 ms, each shifted by a
#: multiple of 0.5 ms to carry 2 bits.
BEACON_INTERVAL_S = 0.006
SHIFT_QUANTUM_S = 0.5e-3


@dataclass(frozen=True)
class AckRecord:
    """One acknowledgment: cumulative base + window bitmap + quality."""

    msg_id: int
    base: int                 # lowest fragment index not yet received
    bitmap: tuple             # received flags for base .. base+ACK_WINDOW-1
    quality: int              # quantized receiver channel estimate (4 bits)

    def __post_init__(self):
        if len(self.bitmap) != ACK_WINDOW:
            raise ValueError(f"bitmap must cover {ACK_WINDOW} fragments")
        if not 0 <= self.quality < (1 << _QUALITY_BITS):
            raise ValueError("quality must fit 4 bits")

    def to_bits(self):
        body = (
            int_to_bits(self.msg_id, _MSG_ID_BITS)
            + int_to_bits(self.base, _BASE_BITS)
            + [int(b) for b in self.bitmap]
            + int_to_bits(self.quality, _QUALITY_BITS)
        )
        crc = crc16_itut(pack_bits(body)) & 0xFF
        return body + int_to_bits(crc, _CRC_BITS)

    @classmethod
    def from_bits(cls, bits):
        """Parse + verify; ``None`` on length or checksum mismatch."""
        bits = [int(b) for b in bits]
        if len(bits) != ACK_BITS:
            return None
        body, crc_bits = bits[:-_CRC_BITS], bits[-_CRC_BITS:]
        if crc16_itut(pack_bits(body)) & 0xFF != bits_to_int(crc_bits):
            return None
        base_end = _MSG_ID_BITS + _BASE_BITS
        return cls(
            msg_id=bits_to_int(body[:_MSG_ID_BITS]),
            base=bits_to_int(body[_MSG_ID_BITS:base_end]),
            bitmap=tuple(body[base_end : base_end + ACK_WINDOW]),
            quality=bits_to_int(body[base_end + ACK_WINDOW :]),
        )


@dataclass(frozen=True)
class AckDelivery:
    """Outcome of one ACK transmission attempt."""

    record: "AckRecord | None"   # None when the side channel mangled it
    start_s: float
    arrival_s: float             # when the sender could act on it
    beacons_sent: int
    beacons_lost: int


class AckChannel:
    """FreeBee beacon-timing channel with loss, jitter and blackouts."""

    def __init__(self, loss_prob=0.0, jitter_sigma_s=0.0, blackouts=()):
        self.freebee = FreeBee(
            beacon_interval_s=BEACON_INTERVAL_S,
            shift_quantum_s=SHIFT_QUANTUM_S,
            bits_per_beacon=2,
        )
        if not 0.0 <= loss_prob < 1.0:
            raise ValueError("loss_prob must be in [0, 1)")
        self.loss_prob = float(loss_prob)
        self.jitter_sigma_s = float(jitter_sigma_s)
        self.blackouts = tuple((float(a), float(b)) for a, b in blackouts)

    def _blacked_out(self, t):
        return any(a <= t < b for a, b in self.blackouts)

    def duration_s(self):
        """Air time of one ACK record's beacon train."""
        n_beacons = ACK_BITS // self.freebee.bits_per_beacon
        return n_beacons * self.freebee.beacon_interval_s

    def send(self, record, start_s, rng):
        """Play one ACK through the side channel.

        The sender can act on the record at ``arrival_s`` (the end of the
        beacon train).  A single lost or quantum-displaced beacon shifts
        or shortens the decoded bit stream, which the record's CRC-8
        rejects — ACKs are all-or-nothing, like real FreeBee symbols.
        """
        events, duration = self.freebee.encode(record.to_bits(), rng)
        survivors = []
        lost = 0
        for event in events:
            absolute = start_s + event.time_s
            if self._blacked_out(absolute) or rng.random() < self.loss_prob:
                lost += 1
                continue
            time_s = event.time_s
            if self.jitter_sigma_s > 0.0:
                time_s = max(0.0, time_s + float(rng.normal(0.0, self.jitter_sigma_s)))
            survivors.append(type(event)(time_s=time_s, duration_s=event.duration_s))
        decoded = AckRecord.from_bits(self.freebee.decode(survivors))
        return AckDelivery(
            record=decoded,
            start_s=start_s,
            arrival_s=start_s + duration,
            beacons_sent=len(events),
            beacons_lost=lost,
        )
