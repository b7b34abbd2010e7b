"""Transport PDU: compact fragment header + per-scheme FEC framing.

A SymBee frame carries at most :data:`repro.core.frame.MAX_DATA_BITS`
(72) data bits, so every header bit spent here is goodput lost.  The
transport therefore reuses the SymBee frame's own uncoded fields for two
of its header values — the *fragment index* rides the frame's sequence
byte and the *FEC scheme* rides the frame type
(:func:`repro.core.frame.transport_frame_type`) — and protects both
**implicitly**: the inner checksum is computed over (msg_id, frag_index,
scheme, frag_count, payload) but only the fields the frame does not
already carry are transmitted.  A corrupted sequence byte or frame type
changes the recomputed checksum and the fragment is rejected, without
spending a single payload bit on either field.

On-air layout of the frame's data-bit region::

    scheme_encode( msg_id(4) | frag_count-1(6) | payload(p) | crc12(12) )

where ``crc12`` is the ITU-T CRC-16 truncated to 12 bits, computed over
the packed implicit+explicit header and payload.  The outer SymBee CRC-16
still covers the whole frame, but the transport deliberately does *not*
require it: a frame whose coded region is recoverable by FEC would fail
the outer check (it covers the raw, pre-correction bits), and rejecting
it would make link-layer coding pointless.

Per-scheme payload capacity inside the 72-bit budget (PDU overhead is
22 bits):

======== ============================== ==========
scheme   coded bits for a PDU of b bits capacity
======== ============================== ==========
none     ``b``                          50
hamming  ``7 * ceil(b / 4)``            18
conv     ``2 * (b + 6)``                8
======== ============================== ==========

Decoding works on packed words, not bit lists: the received data bits
become one int, Hamming(7,4) decodes each 7-bit codeword through a
128-entry syndrome table (:data:`repro.core.coding.HAMMING74_NIBBLES`,
built from the array decoder at import), the header fields are read by
shifts, and the checksum runs over the packed bytes.  Only the Viterbi
decoder still takes a bit array.

The convolutional option is deliberately tiny — rate 1/2 plus the 6-bit
Viterbi tail inside a 72-bit frame leaves 8 payload bits — but it is the
scheme that still delivers when the channel is bad enough that nothing
else does, which is exactly when the adaptive policy reaches for it.
"""

from dataclasses import dataclass

import numpy as np

from repro.core.coding import HAMMING74_NIBBLES, hamming74_encode
from repro.core.convolutional import CONSTRAINT_LENGTH, conv_encode, viterbi_decode
from repro.core.frame import (
    MAX_DATA_BITS,
    int_to_bits,
    transport_frame_type,
    transport_scheme_id,
)
from repro.zigbee.crc import crc16_itut

#: Explicit PDU overhead: msg_id(4) + frag_count(6) + crc12(12).
PDU_OVERHEAD_BITS = 22

_MSG_ID_BITS = 4
_COUNT_BITS = 6
_CRC_BITS = 12
#: Header bits ahead of the payload in the checksummed word: msg_id,
#: frag_index (implicit), scheme (implicit) and frag_count - 1.
_COVERED_HEADER_BITS = _MSG_ID_BITS + _COUNT_BITS + 2 + _COUNT_BITS

#: Bit values to binary digits and back, for packing through ``int(.., 2)``.
_TO_DIGITS = bytes.maketrans(b"\x00\x01", b"01")
_FROM_DIGITS = bytes.maketrans(b"01", b"\x00\x01")

#: Fragment index budget (rides the frame's 8-bit sequence byte but is
#: checksummed at 6 bits, bounding messages at 64 fragments).
MAX_FRAGMENTS = 1 << _COUNT_BITS
MAX_MSG_ID = 1 << _MSG_ID_BITS

#: Scheme ids in robustness order (0 weakest): the policy escalates
#: rightwards through this tuple when the channel degrades.
SCHEME_NONE = 0
SCHEME_HAMMING = 1
SCHEME_CONV = 2
SCHEME_NAMES = ("none", "hamming", "conv")


def scheme_id(name):
    """Scheme id for a scheme name (raises on unknown names)."""
    try:
        return SCHEME_NAMES.index(name)
    except ValueError:
        raise ValueError(
            f"unknown FEC scheme {name!r}; valid: {', '.join(SCHEME_NAMES)}"
        ) from None


def _coded_bits(scheme, pdu_bits):
    """On-air data bits for a PDU of ``pdu_bits`` under ``scheme``."""
    if scheme == SCHEME_NONE:
        return pdu_bits
    if scheme == SCHEME_HAMMING:
        return 7 * ((pdu_bits + 3) // 4)
    return 2 * (pdu_bits + CONSTRAINT_LENGTH - 1)


def payload_capacity(scheme):
    """Largest fragment payload (bits) that fits one frame under ``scheme``."""
    if isinstance(scheme, str):
        scheme = scheme_id(scheme)
    capacity = 0
    while _coded_bits(scheme, PDU_OVERHEAD_BITS + capacity + 1) <= MAX_DATA_BITS:
        capacity += 1
    return capacity


#: Fragment payload the segmenter uses per scheme: the exact per-frame
#: capacity, so the frame budget is never wasted.
NOMINAL_PAYLOAD_BITS = {
    SCHEME_NONE: payload_capacity(SCHEME_NONE),
    SCHEME_HAMMING: payload_capacity(SCHEME_HAMMING),
    SCHEME_CONV: payload_capacity(SCHEME_CONV),
}


def feasible_schemes(payload_bits):
    """Scheme ids able to carry a ``payload_bits`` fragment, weakest first.

    A fragment's raw size is fixed at segmentation time; a retransmission
    may switch FEC only among the schemes whose capacity still fits it.
    """
    return tuple(
        scheme
        for scheme in (SCHEME_NONE, SCHEME_HAMMING, SCHEME_CONV)
        if payload_capacity(scheme) >= payload_bits
    )


@dataclass(frozen=True)
class Fragment:
    """One decoded (or to-be-sent) transport fragment."""

    msg_id: int
    frag_index: int
    frag_count: int
    payload: tuple

    def __post_init__(self):
        if not 0 <= self.msg_id < MAX_MSG_ID:
            raise ValueError("msg_id must fit 4 bits")
        if not 0 <= self.frag_index < MAX_FRAGMENTS:
            raise ValueError("frag_index must fit 6 bits")
        if not 1 <= self.frag_count <= MAX_FRAGMENTS:
            raise ValueError("frag_count must be 1..64")
        if self.frag_index >= self.frag_count:
            raise ValueError("frag_index must be below frag_count")


def _pack(bits):
    """A sequence of 0/1 bits as one int, the first bit most significant."""
    if not isinstance(bits, (tuple, list)):
        bits = list(bits)  # an array's items, not its buffer
    return int(bytes(bits).translate(_TO_DIGITS), 2) if bits else 0


def _unpack(word, n_bits):
    """The ``n_bits`` low bits of ``word`` as a tuple, most significant first."""
    if not n_bits:
        return ()
    return tuple(f"{word:0{n_bits}b}".encode().translate(_FROM_DIGITS))


def _crc12(msg_id, frag_index, scheme, frag_count, payload, payload_bits):
    """Inner checksum over implicit + explicit fields and payload.

    ``payload`` is the packed payload word of ``payload_bits`` bits; the
    covered bits are packed MSB first into zero-padded bytes.
    """
    header = (
        (msg_id << _COUNT_BITS | frag_index) << 2 | scheme
    ) << _COUNT_BITS | (frag_count - 1)
    n_bits = _COVERED_HEADER_BITS + payload_bits
    covered = (header << payload_bits | payload) << (-n_bits % 8)
    return crc16_itut(covered.to_bytes((n_bits + 7) // 8, "big")) & 0xFFF


def encode_fragment(fragment, scheme):
    """Encode one fragment under ``scheme``.

    Returns ``(data_bits, frame_type, sequence)`` ready for
    :func:`repro.core.frame.build_frame_bits`.
    """
    if isinstance(scheme, str):
        scheme = scheme_id(scheme)
    payload = [int(b) for b in fragment.payload]
    if any(b not in (0, 1) for b in payload):
        raise ValueError("payload bits must be 0/1")
    if len(payload) > payload_capacity(scheme):
        raise ValueError(
            f"{len(payload)}-bit payload exceeds scheme "
            f"{SCHEME_NAMES[scheme]!r} capacity {payload_capacity(scheme)}"
        )
    pdu = (
        int_to_bits(fragment.msg_id, _MSG_ID_BITS)
        + int_to_bits(fragment.frag_count - 1, _COUNT_BITS)
        + payload
        + int_to_bits(
            _crc12(
                fragment.msg_id, fragment.frag_index, scheme,
                fragment.frag_count, _pack(payload), len(payload),
            ),
            _CRC_BITS,
        )
    )
    pdu = np.asarray(pdu, dtype=np.int8)
    if scheme == SCHEME_NONE:
        coded = pdu
    elif scheme == SCHEME_HAMMING:
        pad = (-pdu.size) % 4
        if pad:
            pdu = np.concatenate([pdu, np.zeros(pad, dtype=np.int8)])
        coded = hamming74_encode(pdu)
    else:
        coded = conv_encode(pdu)
    return list(coded), transport_frame_type(scheme), fragment.frag_index


def _validate(word, pdu_len, frag_index, scheme):
    """Check one candidate PDU of ``pdu_len`` bits packed MSB first in
    ``word``; a Fragment on success else None."""
    payload_bits = pdu_len - PDU_OVERHEAD_BITS
    if payload_bits < 0:
        return None
    msg_id = word >> (pdu_len - _MSG_ID_BITS)
    count = (word >> (_CRC_BITS + payload_bits) & (MAX_FRAGMENTS - 1)) + 1
    if frag_index >= count:
        return None
    payload = word >> _CRC_BITS & ((1 << payload_bits) - 1)
    crc = _crc12(msg_id, frag_index, scheme, count, payload, payload_bits)
    if crc != word & ((1 << _CRC_BITS) - 1):
        return None
    return Fragment(
        msg_id=msg_id,
        frag_index=frag_index,
        frag_count=count,
        payload=_unpack(payload, payload_bits),
    )


def decode_fragment(frame_type, sequence, data_bits):
    """Decode a received frame's data region back into a :class:`Fragment`.

    ``None`` when the frame is not a transport fragment or fails the
    inner checksum (which covers the frame type and sequence byte, so
    corruption of either uncoded field is caught here).  ``data_bits``
    (0/1 values) are packed into one int up front; Hamming(7,4) decodes
    each 7-bit codeword by table lookup, and the fields and checksum
    are read from the packed word.
    """
    scheme = transport_scheme_id(frame_type)
    if scheme is None:
        return None
    frag_index = int(sequence) & (MAX_FRAGMENTS - 1)
    n_bits = len(data_bits)
    if not 0 < n_bits <= MAX_DATA_BITS:
        return None
    if scheme == SCHEME_NONE:
        return _validate(_pack(data_bits), n_bits, frag_index, scheme)
    if scheme == SCHEME_HAMMING:
        if n_bits % 7 != 0:
            return None
        word, raw = _pack(data_bits), 0
        for shift in range(n_bits - 7, -1, -7):
            raw = raw << 4 | HAMMING74_NIBBLES[word >> shift & 0x7F]
        raw_bits = n_bits // 7 * 4
        # The encoder zero-padded the PDU to a codeword boundary; the pad
        # length is not transmitted, so try each of the <= 3 possible
        # lengths — the checksum (which trails the true PDU) disambiguates.
        for pad in range(4):
            fragment = _validate(raw >> pad, raw_bits - pad, frag_index, scheme)
            if fragment is not None:
                return fragment
        return None
    if n_bits % 2 != 0:
        return None
    pdu_len = n_bits // 2 - (CONSTRAINT_LENGTH - 1)
    if pdu_len < PDU_OVERHEAD_BITS:
        return None
    raw = viterbi_decode(data_bits, n_bits=pdu_len)
    return _validate(_pack(raw), pdu_len, frag_index, scheme)
