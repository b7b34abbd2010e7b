"""Reliable message transport over the SymBee link.

The paper's pipeline ends at frames; this package (an extension beyond
the paper) makes SymBee usable as a *messaging* substrate: arbitrary
byte messages are segmented into sequence-numbered fragments
(:mod:`~repro.transport.segmentation`, :mod:`~repro.transport.pdu`),
delivered under selective-repeat ARQ (:mod:`~repro.transport.arq`) with
a FreeBee-style WiFi->ZigBee beacon side channel carrying the ACKs
(:mod:`~repro.transport.ackchannel`), while an AdaComm-style policy
adapts FEC scheme and fragment size to the channel the decoder's vote
margins reveal (:mod:`~repro.transport.policy`).  Channel dynamics for
experiments come from :mod:`~repro.transport.faults`.
"""

from repro.transport.ackchannel import ACK_WINDOW, AckChannel, AckRecord
from repro.transport.arq import ArqSender
from repro.transport.channel import RxObservation, TransportChannel
from repro.transport.faults import (
    AckBlackout,
    FaultProfile,
    GilbertElliott,
    InterferenceBursts,
    PROFILES,
    SnrRamp,
    make_profile,
)
from repro.transport.pdu import (
    Fragment,
    MAX_FRAGMENTS,
    MAX_MSG_ID,
    NOMINAL_PAYLOAD_BITS,
    SCHEME_CONV,
    SCHEME_HAMMING,
    SCHEME_NAMES,
    SCHEME_NONE,
    decode_fragment,
    encode_fragment,
    feasible_schemes,
    payload_capacity,
    scheme_id,
)
from repro.transport.policy import (
    TransportDecision,
    TransportPolicy,
    dequantize_quality,
    quantize_quality,
)
from repro.transport.receiver import TransportReceiver
from repro.transport.segmentation import Reassembler, segment_message
from repro.transport.session import (
    AckAttempt,
    TransportResult,
    TransportSession,
    TxAttempt,
)
from repro.transport.streamrx import CompletedMessage, StreamReassembler

__all__ = [
    "ACK_WINDOW",
    "AckAttempt",
    "AckBlackout",
    "AckChannel",
    "AckRecord",
    "ArqSender",
    "CompletedMessage",
    "FaultProfile",
    "Fragment",
    "GilbertElliott",
    "InterferenceBursts",
    "MAX_FRAGMENTS",
    "MAX_MSG_ID",
    "NOMINAL_PAYLOAD_BITS",
    "PROFILES",
    "Reassembler",
    "RxObservation",
    "SCHEME_CONV",
    "SCHEME_HAMMING",
    "SCHEME_NAMES",
    "SCHEME_NONE",
    "SnrRamp",
    "StreamReassembler",
    "TransportChannel",
    "TransportDecision",
    "TransportPolicy",
    "TransportReceiver",
    "TransportResult",
    "TransportSession",
    "TxAttempt",
    "decode_fragment",
    "dequantize_quality",
    "encode_fragment",
    "feasible_schemes",
    "make_profile",
    "payload_capacity",
    "quantize_quality",
    "scheme_id",
    "segment_message",
]
