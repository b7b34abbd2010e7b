"""IEEE 802.15.4 symbol-to-chip mapping (the paper's Table I).

The 2.4 GHz O-QPSK PHY spreads each 4-bit data symbol into a 32-chip
pseudo-noise sequence.  Symbols 1-7 are the base sequence (symbol 0)
cyclically right-shifted by 4 chips per step; symbols 8-15 repeat symbols
0-7 with every odd-indexed chip inverted, which conjugates the transmitted
baseband signal (odd chips feed the quadrature branch).

Chip strings are written transmission-first: character 0 is chip c0, the
first chip on air.  Symbol 0 and symbol F match the paper's Table I
verbatim.
"""

import numpy as np

_BASE_SEQUENCE = "11011001110000110101001000101110"


def _cyclic_right_shift(sequence, shift):
    shift %= len(sequence)
    if shift == 0:
        return sequence
    return sequence[-shift:] + sequence[:-shift]


def _invert_odd_chips(sequence):
    return "".join(
        chip if index % 2 == 0 else ("1" if chip == "0" else "0")
        for index, chip in enumerate(sequence)
    )


def _build_chip_table():
    first_half = [_cyclic_right_shift(_BASE_SEQUENCE, 4 * s) for s in range(8)]
    second_half = [_invert_odd_chips(seq) for seq in first_half]
    table = first_half + second_half
    return tuple(
        tuple(int(chip) for chip in sequence) for sequence in table
    )


#: ``CHIP_TABLE[s]`` is the 32-chip tuple for data symbol ``s`` (0x0-0xF).
CHIP_TABLE = _build_chip_table()

#: The same table as a (16, 32) int8 array for vectorized correlation.
CHIP_MATRIX = np.array(CHIP_TABLE, dtype=np.int8)

#: Antipodal (+1/-1) version, with chip 0 -> +1 and chip 1 -> -1 to match
#: the paper's pulse polarity convention (Section III-B step (ii)).
CHIP_MATRIX_ANTIPODAL = np.where(CHIP_MATRIX == 0, 1, -1).astype(np.int8)

def chips_for_symbol(symbol):
    """32-chip sequence (tuple of 0/1) for a 4-bit data symbol."""
    if not 0 <= symbol <= 0xF:
        raise ValueError(f"symbol must be in 0..15, got {symbol}")
    return CHIP_TABLE[symbol]


def bytes_to_symbols(payload, nibble_order="low-first"):
    """Split bytes into 4-bit data symbols in transmission order.

    802.15.4 sends the low nibble of each octet first (``"low-first"``).
    ``"high-first"`` reproduces the byte values as printed in the SymBee
    paper (e.g. 0x67 for the (6,7) pair); see DESIGN.md Section 2.
    """
    symbols = []
    for byte in bytes(payload):
        low, high = byte & 0xF, byte >> 4
        if nibble_order == "low-first":
            symbols.extend((low, high))
        elif nibble_order == "high-first":
            symbols.extend((high, low))
        else:
            raise ValueError(f"unknown nibble_order: {nibble_order!r}")
    return symbols


def symbols_to_bytes(symbols, nibble_order="low-first"):
    """Inverse of :func:`bytes_to_symbols`; requires an even symbol count."""
    symbols = list(symbols)
    if len(symbols) % 2 != 0:
        raise ValueError("symbol count must be even to form whole bytes")
    for s in symbols:
        if not 0 <= s <= 0xF:
            raise ValueError(f"symbol out of range: {s}")
    out = bytearray()
    for first, second in zip(symbols[0::2], symbols[1::2]):
        if nibble_order == "low-first":
            out.append(first | (second << 4))
        elif nibble_order == "high-first":
            out.append((first << 4) | second)
        else:
            raise ValueError(f"unknown nibble_order: {nibble_order!r}")
    return bytes(out)
