"""The packed fragment decoder against the bit-array oracle.

:func:`repro.transport.pdu.decode_fragment` packs the data bits into one
int, Hamming(7,4)-decodes through a 128-entry table and checksums packed
bytes; :mod:`tests.transport.pdu_reference` is the decoder it replaced.
Both must return the same fragment, or both ``None``, on every input:
each scheme, 0-3 flipped bits, truncated and overlong regions, wrong
frame types and sequence bytes, and any sequence container.
"""

import numpy as np
import pytest

from repro.core.coding import HAMMING74_NIBBLES, hamming74_decode
from repro.core.frame import (
    MAX_DATA_BITS,
    transport_frame_type,
    transport_scheme_id,
)
from repro.transport.pdu import (
    SCHEME_CONV,
    SCHEME_HAMMING,
    SCHEME_NONE,
    Fragment,
    decode_fragment,
    encode_fragment,
    payload_capacity,
)
from tests.transport import pdu_reference

ALL_SCHEMES = (SCHEME_NONE, SCHEME_HAMMING, SCHEME_CONV)
#: Containers a caller may hand the decoder its bits in.
CONTAINERS = (
    list,
    tuple,
    lambda bits: np.asarray(bits, dtype=np.int8),
    lambda bits: np.asarray(bits, dtype=np.int64),
)


def test_table_is_hamming74_decode_of_every_codeword():
    for codeword in range(128):
        bits = [(codeword >> (6 - k)) & 1 for k in range(7)]
        data, _ = hamming74_decode(bits)
        nibble = int(data[0]) << 3 | int(data[1]) << 2 | int(data[2]) << 1 | int(
            data[3]
        )
        assert HAMMING74_NIBBLES[codeword] == nibble


def _case(rng):
    """One randomized received frame: ``(frame_type, sequence, bits)``."""
    scheme = ALL_SCHEMES[int(rng.integers(3))]
    count = int(rng.integers(1, 65))
    fragment = Fragment(
        msg_id=int(rng.integers(16)),
        frag_index=int(rng.integers(count)),
        frag_count=count,
        payload=tuple(
            int(b)
            for b in rng.integers(0, 2, int(rng.integers(payload_capacity(scheme) + 1)))
        ),
    )
    bits, frame_type, sequence = encode_fragment(fragment, scheme)
    bits = [int(b) for b in bits]
    for position in rng.choice(len(bits), int(rng.integers(4)), replace=False):
        bits[position] ^= 1
    shape = rng.random()
    if shape < 0.15:
        bits = bits[: int(rng.integers(len(bits)))]
    elif shape < 0.2:
        bits = bits + [int(b) for b in rng.integers(0, 2, int(rng.integers(1, 9)))]
    if rng.random() < 0.1:
        frame_type = int(rng.integers(16))
    if rng.random() < 0.1:
        sequence = int(rng.integers(256))
    elif rng.random() < 0.1:
        sequence += 64 * int(rng.integers(1, 4))  # same 6-bit index
    return frame_type, sequence, CONTAINERS[int(rng.integers(4))](bits)


def test_randomized_parity():
    rng = np.random.default_rng(2027)
    outcomes = {scheme: [0, 0] for scheme in ALL_SCHEMES}
    for _ in range(3000):
        frame_type, sequence, bits = _case(rng)
        expected = pdu_reference.decode_fragment(frame_type, sequence, bits)
        assert decode_fragment(frame_type, sequence, bits) == expected
        scheme = transport_scheme_id(frame_type)
        if scheme is not None:
            outcomes[scheme][expected is None] += 1
    # Every scheme both delivered and refused fragments.
    assert all(min(counts) > 20 for counts in outcomes.values()), outcomes


@pytest.mark.parametrize("scheme", ALL_SCHEMES)
def test_garbage_parity(scheme):
    rng = np.random.default_rng(7 + scheme)
    frame_type = transport_frame_type(scheme)
    for n in range(MAX_DATA_BITS + 4):
        for _ in range(3):
            bits = [int(b) for b in rng.integers(0, 2, n)]
            sequence = int(rng.integers(256))
            expected = pdu_reference.decode_fragment(frame_type, sequence, bits)
            assert decode_fragment(frame_type, sequence, bits) == expected
