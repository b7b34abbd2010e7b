"""Transport reassembly over the streaming receive engine.

:mod:`repro.stream` surfaces every frame it can delimit from a
continuous capture — including transport fragments, whose frame types
its header gate accepts.  This adapter sits on that output and rebuilds
messages: each :class:`repro.stream.session.StreamFrame` arrives
parsed by the native session (header fields and outer CRC verdict from
its descriptor, no second parse here) and is pushed through the
transport PDU layer once, which packs its data bits into one int,
ignores the outer CRC verdict and lets the inner checksum decide
(:func:`repro.transport.pdu.decode_fragment`); fragments are routed to
per-``(channel, msg_id, frag_count)`` reassemblers, and completed
messages pop out in completion order, each with its wall-clock
reassembly latency.

This is the receive path of a *broadcast* deployment: no ACK channel
and no ARQ, just whatever redundancy the sender's FEC scheme and its own
retransmissions provide.  The session-based transport
(:mod:`repro.transport.session`) is the closed-loop counterpart.
"""

import time
from dataclasses import dataclass

from repro.transport.pdu import decode_fragment
from repro.transport.segmentation import Reassembler


@dataclass(frozen=True)
class CompletedMessage:
    """One fully reassembled message recovered from the stream."""

    msg_id: int
    data: bytes
    frag_count: int
    duplicates: int
    zigbee_channel: "int | None"
    #: Wall seconds from the message's first decoded fragment to its
    #: completion; outside every identity contract.
    latency_s: float


class StreamReassembler:
    """Rebuilds transport messages from demultiplexed stream frames."""

    def __init__(self):
        #: key -> (Reassembler, wall time its first fragment decoded).
        self._reassemblers = {}
        self.fragments_accepted = 0
        self.frames_rejected = 0
        self.messages_completed = 0

    def push(self, stream_frame):
        """Feed one stream frame; a :class:`CompletedMessage` or ``None``.

        Frames that are not transport fragments (other frame types, or
        inner-checksum failures) are counted and dropped.  The first
        fragment of a ``(channel, msg_id, frag_count)`` key opens its
        reassembler and stamps ``time.monotonic()``; the stamp goes with
        the reassembler, so a message that completes without yielding
        bytes leaves nothing behind for the next one under that key.
        """
        frame = stream_frame.frame
        if frame is None:
            self.frames_rejected += 1
            return None
        fragment = decode_fragment(
            frame.frame_type, frame.sequence, frame.data_bits
        )
        if fragment is None:
            self.frames_rejected += 1
            return None
        self.fragments_accepted += 1
        channel = stream_frame.zigbee_channel
        key = (channel, fragment.msg_id, fragment.frag_count)
        entry = self._reassemblers.get(key)
        if entry is None:
            entry = (
                Reassembler(fragment.msg_id, fragment.frag_count),
                time.monotonic(),
            )
            self._reassemblers[key] = entry
        reassembler, first_seen = entry
        reassembler.add(fragment)
        if not reassembler.complete:
            return None
        data = reassembler.message()
        del self._reassemblers[key]
        if data is None:
            return None
        self.messages_completed += 1
        return CompletedMessage(
            msg_id=fragment.msg_id,
            data=data,
            frag_count=fragment.frag_count,
            duplicates=reassembler.duplicates,
            zigbee_channel=channel,
            latency_s=time.monotonic() - first_seen,
        )

    @property
    def pending(self):
        """Number of partially reassembled messages still open."""
        return len(self._reassemblers)
