"""802.15.4 PPDU parsing: the oracle that a transmitted packet is legal."""

from repro.constants import ZIGBEE_MAX_PSDU
from repro.zigbee.frame import SHR_SYMBOLS, PhyFrame
from repro.zigbee.symbols import symbols_to_bytes


def parse_ppdu_symbols(symbols, nibble_order="low-first"):
    """Inverse of :func:`repro.zigbee.frame.build_ppdu_symbols`.

    Validates the SHR and the PHR length field.  Raises ``ValueError`` on a
    malformed header; symbol errors inside the PSDU are the MAC layer's
    problem (FCS check).
    """
    symbols = list(symbols)
    n_shr = len(SHR_SYMBOLS)
    if len(symbols) < n_shr + 2:
        raise ValueError("symbol stream too short for a PPDU header")
    if tuple(symbols[:n_shr]) != SHR_SYMBOLS:
        raise ValueError("bad synchronization header")
    length = symbols_to_bytes(symbols[n_shr : n_shr + 2])[0]
    if length > ZIGBEE_MAX_PSDU:
        raise ValueError(f"PHR length {length} exceeds maximum PSDU")
    start = n_shr + 2
    end = start + 2 * length
    if len(symbols) < end:
        raise ValueError(
            f"symbol stream truncated: PHR promises {length} bytes"
        )
    psdu = symbols_to_bytes(symbols[start:end], nibble_order)
    return PhyFrame(psdu)
