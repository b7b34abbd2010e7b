"""Direct-sequence spread spectrum: symbol <-> chip conversion.

Spreading is table lookup; despreading is minimum-Hamming-distance (for
hard chip decisions) or maximum-correlation (for soft chip values) against
all 16 sequences, which is the optimum detector for this code set.
"""

import numpy as np

from repro.zigbee.symbols import CHIP_MATRIX, CHIP_MATRIX_ANTIPODAL, CHIP_TABLE


def spread(symbols):
    """Concatenate the 32-chip sequences of ``symbols`` into one int array."""
    symbols = list(symbols)
    if not symbols:
        return np.empty(0, dtype=np.int8)
    for s in symbols:
        if not 0 <= s <= 0xF:
            raise ValueError(f"symbol out of range: {s}")
    return np.concatenate([CHIP_MATRIX[s] for s in symbols])


def despread(chips, soft=False):
    """Recover symbols from a chip stream.

    ``chips`` must contain a whole number of 32-chip groups.  With
    ``soft=False`` the input is 0/1 hard decisions and each group is matched
    to the sequence with minimum Hamming distance.  With ``soft=True`` the
    input is real-valued (+ for chip 0, - for chip 1, matching the
    modulator's pulse polarity) and each group is matched by maximum
    correlation, which degrades more gracefully near sensitivity.

    Returns ``(symbols, distances)`` where ``distances[i]`` is the Hamming
    distance (hard) or negative correlation margin (soft) of the winning
    symbol — a per-symbol quality indicator.
    """
    chips = np.asarray(chips)
    if chips.size % 32 != 0:
        raise ValueError("chip stream length must be a multiple of 32")
    groups = chips.reshape(-1, 32)
    if groups.shape[0] == 0:
        return [], np.empty(0)

    if soft:
        scores = groups.astype(float) @ CHIP_MATRIX_ANTIPODAL.T.astype(float)
        symbols = np.argmax(scores, axis=1)
        quality = -scores[np.arange(len(symbols)), symbols]
    else:
        hard = (groups > 0).astype(np.int8)
        distances = (hard[:, None, :] != CHIP_MATRIX[None, :, :]).sum(axis=2)
        symbols = np.argmin(distances, axis=1)
        quality = distances[np.arange(len(symbols)), symbols]
    return [int(s) for s in symbols], quality
