"""Hamming(7,4) link-layer coding (paper Section VIII-E, Figure 21).

Systematic Hamming code: data bits d1..d4, parity p1..p3 with

    p1 = d1 ^ d2 ^ d4
    p2 = d1 ^ d3 ^ d4
    p3 = d2 ^ d3 ^ d4

transmitted as ``[p1, p2, d1, p3, d2, d3, d4]`` so the syndrome read as a
binary number directly names the erroneous position — the classic
(7,4) construction.  Corrects any single bit error per codeword.
"""

import numpy as np

_CODEWORD_LEN = 7
_DATA_LEN = 4

# Position (1-indexed) -> what it carries, in the classic layout.
_DATA_POSITIONS = (3, 5, 6, 7)
_PARITY_POSITIONS = (1, 2, 4)


def _as_bit_array(bits):
    """Bits as an int8 array, without copying an existing ndarray.

    Lists/tuples/generators take the materializing path; ndarray inputs
    (the transport hot path encodes numpy PDUs) convert in place when the
    dtype already matches.
    """
    if isinstance(bits, np.ndarray):
        return bits.astype(np.int8, copy=False)
    return np.asarray(list(bits), dtype=np.int8)


def hamming74_encode(bits):
    """Encode a bit sequence; length must be a multiple of 4.

    Returns a numpy int8 array of 7 bits per 4 input bits.
    """
    bits = _as_bit_array(bits)
    if bits.size % _DATA_LEN != 0:
        raise ValueError("input length must be a multiple of 4")
    if bits.size and not np.all((bits == 0) | (bits == 1)):
        raise ValueError("bits must be 0 or 1")
    blocks = bits.reshape(-1, _DATA_LEN)
    out = np.zeros((blocks.shape[0], _CODEWORD_LEN), dtype=np.int8)
    d1, d2, d3, d4 = (blocks[:, i] for i in range(4))
    out[:, 0] = d1 ^ d2 ^ d4          # p1 at position 1
    out[:, 1] = d1 ^ d3 ^ d4          # p2 at position 2
    out[:, 2] = d1                    # position 3
    out[:, 3] = d2 ^ d3 ^ d4          # p3 at position 4
    out[:, 4] = d2                    # position 5
    out[:, 5] = d3                    # position 6
    out[:, 6] = d4                    # position 7
    return out.ravel()


def hamming74_decode(bits):
    """Decode with single-error correction per 7-bit codeword.

    Returns ``(data_bits, corrections)`` where ``corrections`` counts the
    codewords in which a single-bit error was fixed.  Double errors decode
    wrongly (the code's limit — the paper makes the same point).
    """
    bits = _as_bit_array(bits)
    if bits.size % _CODEWORD_LEN != 0:
        raise ValueError("input length must be a multiple of 7")
    if bits.size and not np.all((bits == 0) | (bits == 1)):
        raise ValueError("bits must be 0 or 1")
    blocks = bits.reshape(-1, _CODEWORD_LEN).copy()
    # Syndrome bits: s1 checks positions {1,3,5,7}, s2 {2,3,6,7}, s4 {4,5,6,7}.
    s1 = blocks[:, 0] ^ blocks[:, 2] ^ blocks[:, 4] ^ blocks[:, 6]
    s2 = blocks[:, 1] ^ blocks[:, 2] ^ blocks[:, 5] ^ blocks[:, 6]
    s4 = blocks[:, 3] ^ blocks[:, 4] ^ blocks[:, 5] ^ blocks[:, 6]
    syndrome = s1 + 2 * s2 + 4 * s4
    errors = syndrome > 0
    rows = np.flatnonzero(errors)
    cols = syndrome[rows] - 1
    blocks[rows, cols] ^= 1
    data = blocks[:, [p - 1 for p in _DATA_POSITIONS]]
    return data.ravel(), int(errors.sum())


def _nibble_table():
    """:func:`hamming74_decode` of every 7-bit codeword, packed."""
    bits = [
        (codeword >> shift) & 1
        for codeword in range(1 << _CODEWORD_LEN)
        for shift in range(_CODEWORD_LEN - 1, -1, -1)
    ]
    data = hamming74_decode(bits)[0].reshape(-1, _DATA_LEN).tolist()
    return tuple(d1 << 3 | d2 << 2 | d3 << 1 | d4 for d1, d2, d3, d4 in data)


#: ``HAMMING74_NIBBLES[c]`` is the corrected data nibble (``d1`` most
#: significant) of codeword ``c`` read MSB first (position 1 most
#: significant): a packed decoder's syndrome table.
HAMMING74_NIBBLES = _nibble_table()


def code_rate():
    """Information rate of the code (4/7)."""
    return _DATA_LEN / _CODEWORD_LEN


def interleave(bits, depth):
    """Block interleaver: write row-wise into ``depth`` rows, read column-wise.

    Why: WiFi interference arrives in *bursts* — a 270 us burst covers
    about 8 consecutive SymBee bits, defeating Hamming(7,4)'s
    single-error correction (visible in the paper's Figure 21 at low
    SINR).  Interleaving with depth >= the burst span scatters a burst's
    errors into distinct codewords where each is correctable.  Length
    must be a multiple of ``depth``; the operation is a pure permutation
    (rate 1).
    """
    bits = np.asarray(list(bits), dtype=np.int8)
    if depth < 1:
        raise ValueError("depth must be positive")
    if bits.size % depth != 0:
        raise ValueError("length must be a multiple of the depth")
    return bits.reshape(depth, -1).T.ravel()


def deinterleave(bits, depth):
    """Inverse of :func:`interleave` for the same ``depth``."""
    bits = np.asarray(list(bits), dtype=np.int8)
    if depth < 1:
        raise ValueError("depth must be positive")
    if bits.size % depth != 0:
        raise ValueError("length must be a multiple of the depth")
    return bits.reshape(-1, depth).T.ravel()
