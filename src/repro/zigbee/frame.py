"""802.15.4 PHY framing: synchronization header, PHR, and PSDU.

A PPDU on air is::

    | preamble (4 x 0x00) | SFD (0xA7) | PHR: frame length (1 byte) | PSDU |

The SHR+PHR add 6 bytes (12 symbols, 192 us) in front of every packet,
which the throughput accounting in the experiments charges against SymBee
(the paper's 31.25 kbps is the raw symbol-level rate inside the payload).
"""

from dataclasses import dataclass

from repro.constants import ZIGBEE_MAX_PSDU
from repro.zigbee.symbols import bytes_to_symbols

#: Synchronization-header bytes: 4-byte preamble of zeros then the SFD.
PREAMBLE_BYTES = bytes(4)
SFD_BYTE = 0xA7
SHR_BYTES = PREAMBLE_BYTES + bytes([SFD_BYTE])

#: Data symbols composing the SHR in transmission order (low nibble first).
SHR_SYMBOLS = tuple(bytes_to_symbols(SHR_BYTES))

#: Bytes of PHY overhead per packet (SHR + PHR).
PHY_OVERHEAD_BYTES = len(SHR_BYTES) + 1


@dataclass(frozen=True)
class PhyFrame:
    """A parsed PPDU: the PSDU plus bookkeeping from the header."""

    psdu: bytes

    @property
    def length(self):
        return len(self.psdu)

    def __post_init__(self):
        if len(self.psdu) > ZIGBEE_MAX_PSDU:
            raise ValueError(
                f"PSDU of {len(self.psdu)} bytes exceeds the 802.15.4 "
                f"maximum of {ZIGBEE_MAX_PSDU}"
            )


def build_ppdu_symbols(psdu, nibble_order="low-first"):
    """Data symbols for a complete PPDU carrying ``psdu``.

    The SHR always uses standard nibble order (its bytes are symmetric
    anyway); ``nibble_order`` only affects the payload region, mirroring
    how a SymBee sender controls payload bytes but not the header.
    """
    frame = PhyFrame(bytes(psdu))
    header = bytes([frame.length])
    symbols = list(SHR_SYMBOLS)
    symbols += bytes_to_symbols(header)
    symbols += bytes_to_symbols(frame.psdu, nibble_order)
    return symbols


def ppdu_duration_seconds(psdu_length):
    """On-air duration of a PPDU with the given PSDU length.

    Each byte is 2 symbols of 16 us.  The paper's "minimal ZigBee packet of
    576 us (i.e., 18 bytes)" corresponds to psdu_length = 12 plus the
    6 header bytes.
    """
    from repro.constants import ZIGBEE_SYMBOL_DURATION

    total_bytes = PHY_OVERHEAD_BYTES + psdu_length
    return total_bytes * 2 * ZIGBEE_SYMBOL_DURATION
