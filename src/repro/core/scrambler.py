"""PRBS whitening for SymBee messages.

Why this exists: the SymBee preamble is four consecutive bit 0, and four
consecutive *message* zeros are physically indistinguishable from it
(DESIGN.md Section 4b).  Applications that repeatedly send the same
payload — e.g. a sensor reporting a constant value — would produce the
dangerous pattern deterministically on every frame.  XOR-ing the message
with a PRBS-7 sequence (polynomial x^7 + x^4 + 1, the classic 802-family
scrambler) makes long same-bit runs data-independent: they still occur
with probability 2^-4 per position, but never systematically, so the
earliest-capture rule plus the frame CRC handle them.

The operation is additive and self-inverse: descrambling is scrambling
again with the same seed.
"""

import numpy as np

#: Default scrambler seed (must be nonzero, 7 bits).
DEFAULT_SEED = 0x5B


def prbs7(length, seed=DEFAULT_SEED):
    """``length`` bits of the PRBS-7 sequence for a 7-bit nonzero seed."""
    if length < 0:
        raise ValueError("length must be nonnegative")
    state = int(seed) & 0x7F
    if state == 0:
        raise ValueError("seed must be nonzero")
    out = np.empty(length, dtype=np.int8)
    for i in range(length):
        bit = ((state >> 6) ^ (state >> 3)) & 1
        state = ((state << 1) | bit) & 0x7F
        out[i] = bit
    return out


def scramble(bits, seed=DEFAULT_SEED):
    """XOR ``bits`` with the PRBS-7 stream (self-inverse)."""
    bits = np.asarray(list(bits), dtype=np.int8)
    if bits.size and not np.all((bits == 0) | (bits == 1)):
        raise ValueError("bits must be 0 or 1")
    return bits ^ prbs7(bits.size, seed)


def descramble(bits, seed=DEFAULT_SEED):
    """Alias of :func:`scramble` — the whitening is additive."""
    return scramble(bits, seed)
