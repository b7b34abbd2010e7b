"""The bit-array fragment decoder, the oracle of the packed one.

:func:`decode_fragment` is :func:`repro.transport.pdu.decode_fragment`
as it was written over numpy bit arrays: ``hamming74_decode`` over the
whole coded region, per-field ``bits_to_int``, the payload as a tuple
and the inner checksum over ``int_to_bits`` lists packed by
``pack_bits``.  The packed decoder must return the same
:class:`repro.transport.pdu.Fragment` (or ``None``) for every input.
"""

import numpy as np

from repro.core.coding import hamming74_decode
from repro.core.convolutional import CONSTRAINT_LENGTH, viterbi_decode
from repro.core.frame import (
    MAX_DATA_BITS,
    bits_to_int,
    int_to_bits,
    pack_bits,
    transport_scheme_id,
)
from repro.transport.pdu import (
    MAX_FRAGMENTS,
    PDU_OVERHEAD_BITS,
    SCHEME_HAMMING,
    SCHEME_NONE,
    Fragment,
)
from tests.zigbee.crc_reference import crc16_itut_bitwise

_MSG_ID_BITS = 4
_COUNT_BITS = 6
_CRC_BITS = 12


def _crc12(fragment, scheme):
    """Inner checksum over implicit + explicit fields and payload."""
    covered = (
        int_to_bits(fragment.msg_id, _MSG_ID_BITS)
        + int_to_bits(fragment.frag_index, _COUNT_BITS)
        + int_to_bits(scheme, 2)
        + int_to_bits(fragment.frag_count - 1, _COUNT_BITS)
        + list(fragment.payload)
    )
    return crc16_itut_bitwise(pack_bits(covered)) & 0xFFF


def _validate(raw, pdu_len, frag_index, scheme):
    """Check one candidate PDU length; a Fragment on success else None."""
    if pdu_len < PDU_OVERHEAD_BITS:
        return None
    msg_id = bits_to_int(raw[0:_MSG_ID_BITS])
    count = bits_to_int(raw[_MSG_ID_BITS : _MSG_ID_BITS + _COUNT_BITS]) + 1
    if frag_index >= count:
        return None
    payload = tuple(
        int(b) for b in raw[_MSG_ID_BITS + _COUNT_BITS : pdu_len - _CRC_BITS]
    )
    received = bits_to_int(raw[pdu_len - _CRC_BITS : pdu_len])
    fragment = Fragment(
        msg_id=msg_id, frag_index=frag_index, frag_count=count, payload=payload
    )
    if _crc12(fragment, scheme) != received:
        return None
    return fragment


def decode_fragment(frame_type, sequence, data_bits):
    """A received frame's data region as a :class:`Fragment`, or None."""
    scheme = transport_scheme_id(frame_type)
    if scheme is None:
        return None
    frag_index = int(sequence) & (MAX_FRAGMENTS - 1)
    bits = np.asarray(data_bits, dtype=np.int8)
    if bits.size == 0 or bits.size > MAX_DATA_BITS:
        return None
    if scheme == SCHEME_NONE:
        return _validate(bits, bits.size, frag_index, scheme)
    if scheme == SCHEME_HAMMING:
        if bits.size % 7 != 0:
            return None
        raw, _ = hamming74_decode(bits)
        for pad in range(4):
            fragment = _validate(raw, raw.size - pad, frag_index, scheme)
            if fragment is not None:
                return fragment
        return None
    if bits.size % 2 != 0:
        return None
    n_bits = bits.size // 2 - (CONSTRAINT_LENGTH - 1)
    if n_bits < PDU_OVERHEAD_BITS:
        return None
    raw = viterbi_decode(bits, n_bits=n_bits)
    return _validate(raw, raw.size, frag_index, scheme)
