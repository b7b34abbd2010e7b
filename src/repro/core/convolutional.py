"""Rate-1/2 K=7 convolutional code with hard-decision Viterbi decoding.

The industry-standard code (generators 133/171 octal — the same pair
802.11 uses) as a stronger FEC option for SymBee links than Hamming(7,4):
at a slightly lower rate (1/2 vs 4/7) it corrects scattered *and* short
bursty errors, trading decoder state for robustness.  The FEC ablation
bench (`benchmarks/test_bench_ablation_fec.py`) measures where each code
wins on the real link.

Encoding appends K-1 = 6 tail zeros so the trellis terminates in state 0;
the decoder assumes and exploits that.
"""

import numpy as np

CONSTRAINT_LENGTH = 7
_G0 = 0o133
_G1 = 0o171
_N_STATES = 1 << (CONSTRAINT_LENGTH - 1)   # 64


def _parity(value):
    return bin(value).count("1") & 1


def _build_tables():
    """Per (state, input): next state and the two output bits."""
    next_state = np.zeros((_N_STATES, 2), dtype=np.int64)
    outputs = np.zeros((_N_STATES, 2, 2), dtype=np.int8)
    for state in range(_N_STATES):
        for bit in (0, 1):
            register = (bit << (CONSTRAINT_LENGTH - 1)) | state
            next_state[state, bit] = register >> 1
            outputs[state, bit, 0] = _parity(register & _G0)
            outputs[state, bit, 1] = _parity(register & _G1)
    return next_state, outputs


_NEXT_STATE, _OUTPUTS = _build_tables()

# Reverse view for the Viterbi add-compare-select: for each state s, the
# two (previous state, input bit) pairs that lead into s.
_PREDECESSORS = [[] for _ in range(_N_STATES)]
for _s in range(_N_STATES):
    for _b in (0, 1):
        _PREDECESSORS[_NEXT_STATE[_s, _b]].append((_s, _b))
_PREV_STATE = np.array(
    [[p[0] for p in preds] for preds in _PREDECESSORS], dtype=np.int64
)
_PREV_BIT = np.array(
    [[p[1] for p in preds] for preds in _PREDECESSORS], dtype=np.int8
)


def conv_encode_raw(bits):
    """Encode without appending a tail.

    The caller's bit stream must end in at least K-1 zeros for
    :func:`viterbi_decode`'s terminated-trellis assumption to hold (the
    802.11 SIGNAL field carries its own 6 tail bits, for example).
    """
    bits = np.asarray(list(bits), dtype=np.int8)
    if bits.size and not np.all((bits == 0) | (bits == 1)):
        raise ValueError("bits must be 0 or 1")
    out = np.empty(2 * bits.size, dtype=np.int8)
    state = 0
    for i, bit in enumerate(bits):
        out[2 * i] = _OUTPUTS[state, bit, 0]
        out[2 * i + 1] = _OUTPUTS[state, bit, 1]
        state = _NEXT_STATE[state, bit]
    return out


def conv_encode(bits):
    """Encode ``bits``; output length is ``2 * (len(bits) + 6)``."""
    bits = np.asarray(list(bits), dtype=np.int8)
    padded = np.concatenate([bits, np.zeros(CONSTRAINT_LENGTH - 1, dtype=np.int8)])
    return conv_encode_raw(padded)


def viterbi_decode(coded, n_bits=None):
    """Hard-decision Viterbi decode of a terminated codeword.

    ``coded`` must have even length; ``n_bits`` (default: inferred from
    the tail-terminated length) selects how many data bits to return.
    """
    coded = np.asarray(list(coded), dtype=np.int8)
    if coded.size % 2 != 0:
        raise ValueError("coded length must be even")
    n_steps = coded.size // 2
    if n_steps < CONSTRAINT_LENGTH - 1:
        raise ValueError("codeword shorter than the tail")
    if n_bits is None:
        n_bits = n_steps - (CONSTRAINT_LENGTH - 1)
    if not 0 <= n_bits <= n_steps:
        raise ValueError("n_bits out of range")

    observations = coded.reshape(n_steps, 2)
    metrics = np.full(_N_STATES, 1 << 30, dtype=np.int64)
    metrics[0] = 0  # encoder starts in state 0
    survivors = np.zeros((n_steps, _N_STATES), dtype=np.int8)

    # Branch outputs viewed from the destination state.
    out0 = _OUTPUTS[_PREV_STATE[:, 0], _PREV_BIT[:, 0]]   # (_N_STATES, 2)
    out1 = _OUTPUTS[_PREV_STATE[:, 1], _PREV_BIT[:, 1]]

    for step in range(n_steps):
        observed = observations[step]
        cost0 = metrics[_PREV_STATE[:, 0]] + np.sum(out0 != observed, axis=1)
        cost1 = metrics[_PREV_STATE[:, 1]] + np.sum(out1 != observed, axis=1)
        choose1 = cost1 < cost0
        metrics = np.where(choose1, cost1, cost0)
        survivors[step] = np.where(choose1, 1, 0)

    # Trace back from state 0 (the terminated trellis end).
    state = 0
    decoded = np.empty(n_steps, dtype=np.int8)
    for step in range(n_steps - 1, -1, -1):
        which = survivors[step, state]
        decoded[step] = _PREV_BIT[state, which]
        state = _PREV_STATE[state, which]
    return decoded[:n_bits]
