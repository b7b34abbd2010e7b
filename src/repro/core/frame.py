"""SymBee frame format.

The paper fixes only the budget ("maximum payload to 127 including 2
bytes control information, 1 byte data sequence and 2 bytes check sum",
Section VIII); the exact layout is this reproduction's choice, recorded
in DESIGN.md Section 2.  The over-the-air SymBee frame, one bit per
ZigBee payload byte, is::

    | preamble 4 bits (0000) | control 16 bits | sequence 8 bits
    | data bits (variable)   | CRC-16 over header+data |

control = version (4 bits) | frame type (4 bits) | data length in bits
(8 bits).  The CRC is the same ITU-T CRC-16 the 802.15.4 FCS uses,
computed over the packed header+data bits.
"""

from dataclasses import dataclass

from repro.core.encoder import PREAMBLE_BITS
from repro.zigbee.crc import crc16_itut
from repro.zigbee.frame import ppdu_duration_seconds
from repro.zigbee.mac import MAC_OVERHEAD_BYTES

#: Protocol version carried in every frame.
VERSION = 1

#: Frame types: application data, channel-coordination control, ACK.
FRAME_TYPE_DATA = 0
FRAME_TYPE_CONTROL = 1
FRAME_TYPE_ACK = 2

#: Transport-layer data fragments (``repro.transport``): the FEC scheme
#: protecting the fragment rides in the frame type itself —
#: ``FRAME_TYPE_TRANSPORT_BASE + scheme_id`` for scheme ids 0 (uncoded),
#: 1 (Hamming(7,4)) and 2 (K=7 convolutional).  Keeping the scheme out
#: of the coded region lets the receiver pick the right decoder even
#: when the payload arrived damaged; a corrupted type field simply fails
#: the transport's inner checksum, which covers it implicitly.
FRAME_TYPE_TRANSPORT_BASE = 4
N_TRANSPORT_SCHEMES = 3

#: Highest frame type any current receiver should accept.
MAX_KNOWN_FRAME_TYPE = FRAME_TYPE_TRANSPORT_BASE + N_TRANSPORT_SCHEMES - 1


def transport_frame_type(scheme_id):
    """Frame type carrying a transport fragment coded with ``scheme_id``."""
    if not 0 <= scheme_id < N_TRANSPORT_SCHEMES:
        raise ValueError(f"unknown transport scheme id {scheme_id}")
    return FRAME_TYPE_TRANSPORT_BASE + scheme_id


def transport_scheme_id(frame_type):
    """Inverse of :func:`transport_frame_type`; ``None`` for other types."""
    scheme_id = frame_type - FRAME_TYPE_TRANSPORT_BASE
    if 0 <= scheme_id < N_TRANSPORT_SCHEMES:
        return scheme_id
    return None


#: Field positions in :func:`build_frame_bits` output (preamble
#: excluded), which ``repro.stream.native`` hands its C kernels too:
#: the four header fields, where the data region starts (the header's
#: length) and the outer CRC trailing it.
VERSION_FIELD = slice(0, 4)
TYPE_FIELD = slice(4, 8)
LENGTH_FIELD = slice(8, 16)
SEQUENCE_FIELD = slice(16, 24)
DATA_START = 24
OUTER_CRC_BITS = 16

#: Data-bit capacity when the whole frame must fit one ZigBee MAC payload
#: (116 bytes): 116 - 4 (preamble) - 24 (header) - 16 (CRC).
MAX_DATA_BITS = 116 - len(PREAMBLE_BITS) - DATA_START - OUTER_CRC_BITS


def int_to_bits(value, width):
    """``value`` as ``width`` bits, MSB first."""
    return [(value >> (width - 1 - i)) & 1 for i in range(width)]


def bits_to_int(bits):
    """MSB-first bits back to an integer."""
    value = 0
    for bit in bits:
        value = (value << 1) | int(bit)
    return value


def pack_bits(bits):
    """MSB-first packing into bytes, zero-padded to a byte boundary."""
    bits = list(bits)
    n_bytes = (len(bits) + 7) // 8
    value = bits_to_int(bits) << (8 * n_bytes - len(bits))
    return value.to_bytes(n_bytes, "big")


def frame_airtime_s(data_bits):
    """Air time of a SymBee frame carrying ``data_bits`` data bits.

    One ZigBee payload byte per SymBee bit (preamble + header + data +
    CRC), plus the MAC overhead bytes of the carrier packet, through the
    802.15.4 PPDU timing.
    """
    payload_bytes = len(PREAMBLE_BITS) + frame_overhead_bits() + int(data_bits)
    return ppdu_duration_seconds(payload_bytes + MAC_OVERHEAD_BYTES)


@dataclass(frozen=True)
class SymBeeFrame:
    """A parsed SymBee frame."""

    data_bits: tuple
    sequence: int
    frame_type: int = FRAME_TYPE_DATA
    version: int = VERSION
    crc_ok: bool = True


def build_frame_bits(data_bits, sequence, frame_type=FRAME_TYPE_DATA):
    """Frame bits (without preamble — the encoder prepends that)."""
    data_bits = [int(b) for b in data_bits]
    if any(b not in (0, 1) for b in data_bits):
        raise ValueError("data bits must be 0/1")
    if len(data_bits) > 255:
        raise ValueError("data length field is 8 bits (max 255 bits)")
    if not 0 <= sequence <= 0xFF:
        raise ValueError("sequence must fit one byte")
    if not 0 <= frame_type <= 0xF:
        raise ValueError("frame type must fit 4 bits")
    header = (
        int_to_bits(VERSION, 4)
        + int_to_bits(frame_type, 4)
        + int_to_bits(len(data_bits), 8)
        + int_to_bits(sequence, 8)
    )
    body = header + data_bits
    crc = crc16_itut(pack_bits(body))
    return body + int_to_bits(crc, OUTER_CRC_BITS)


def parse_frame_bits(bits):
    """Parse frame bits back into a :class:`SymBeeFrame`.

    Returns ``None`` when the stream is too short or the declared length
    is inconsistent; a CRC mismatch yields a frame with ``crc_ok=False``
    so callers can still inspect best-effort contents.
    """
    bits = [int(b) for b in bits]
    if len(bits) < DATA_START + OUTER_CRC_BITS:
        return None
    version = bits_to_int(bits[VERSION_FIELD])
    frame_type = bits_to_int(bits[TYPE_FIELD])
    length = bits_to_int(bits[LENGTH_FIELD])
    sequence = bits_to_int(bits[SEQUENCE_FIELD])
    end = DATA_START + length
    if len(bits) < end + OUTER_CRC_BITS:
        return None
    data_bits = bits[DATA_START:end]
    received_crc = bits_to_int(bits[end : end + OUTER_CRC_BITS])
    expected_crc = crc16_itut(pack_bits(bits[:end]))
    return SymBeeFrame(
        data_bits=tuple(data_bits),
        sequence=sequence,
        frame_type=frame_type,
        version=version,
        crc_ok=received_crc == expected_crc,
    )


def frame_overhead_bits():
    """Header + CRC bits charged against every frame (preamble excluded)."""
    return DATA_START + OUTER_CRC_BITS
