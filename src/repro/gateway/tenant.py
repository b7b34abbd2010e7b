"""Per-tenant decode session: one engine + server-side reassembly.

:class:`TenantConsumer` is the unit of tenancy the gateway multiplexes:
a private :class:`repro.stream.engine.StreamEngine` (sessions, channel
state and arbitration fully isolated from every other tenant) feeding a
private :class:`repro.transport.streamrx.StreamReassembler`, so what
comes out is not frames but the tenant's *reassembled messages* — the
FreeBee-style delivery receipt a gateway client actually wants.

:class:`repro.gateway.core.GatewayCore` builds one per admitted tenant
and calls :meth:`TenantConsumer.process` from its ``pump`` once a block
has been admitted to the tenant's ring.

Message dicts carry raw ``bytes`` payloads; the wire layer
(:mod:`repro.gateway.protocol`) hex-encodes them.  ``latency_s`` is
wall-clock (first fragment decoded → message completed) and, like
``stream.health.*``, is outside every identity contract; every other
field and all ``gateway.*`` counters are deterministic.
"""

import time

from repro.obs.metrics import REGISTRY
from repro.stream.engine import StreamEngine
from repro.transport.pdu import decode_fragment
from repro.transport.streamrx import StreamReassembler

_FRAMES = REGISTRY.counter("gateway.frames_decoded")
_FRAGMENTS = REGISTRY.counter("gateway.fragments_accepted")
_MESSAGES = REGISTRY.counter("gateway.messages_delivered")
_MESSAGE_BYTES = REGISTRY.counter("gateway.message_bytes_delivered")
#: Wall seconds from a message's first decoded fragment to its
#: completion — the reassembly span a client waits through.
_LATENCY = REGISTRY.histogram(
    "gateway.delivery_latency_seconds",
    edges=(0.001, 0.005, 0.02, 0.05, 0.2, 1.0, 5.0),
)


class TenantConsumer:
    """One tenant's engine + reassembler.

    ``engine`` holds :class:`~repro.stream.engine.StreamEngine` kwargs
    (missing/empty → engine defaults).
    """

    def __init__(self, tenant_id, engine=None):
        self.tenant_id = tenant_id
        self.engine = StreamEngine(**(engine or {}))
        self.reassembler = StreamReassembler()
        #: (channel, msg_id, frag_count) -> wall time of first fragment.
        self._first_seen = {}

    def process(self, block):
        """Decode one block; returns new message dicts or ``None``."""
        messages = self._deliver(self.engine.process_block(block))
        return messages or None

    def finish(self):
        """Flush the engine; returns trailing messages + session stats."""
        return {
            "tenant": self.tenant_id,
            "messages": self._deliver(self.engine.finish()),
            "engine": self.engine.stats(),
            "reassembly": {
                "fragments_accepted": self.reassembler.fragments_accepted,
                "frames_rejected": self.reassembler.frames_rejected,
                "messages_completed": self.reassembler.messages_completed,
                "pending": self.reassembler.pending,
            },
        }

    def _deliver(self, stream_frames):
        messages = []
        for stream_frame in stream_frames:
            _FRAMES.inc()
            frame = stream_frame.frame
            fragment = (
                decode_fragment(frame.frame_type, frame.sequence, frame.data_bits)
                if frame is not None
                else None
            )
            now = time.monotonic()
            key = None
            if fragment is not None:
                _FRAGMENTS.inc()
                key = (
                    getattr(stream_frame, "zigbee_channel", None),
                    fragment.msg_id,
                    fragment.frag_count,
                )
                self._first_seen.setdefault(key, now)
            completed = self.reassembler.push(stream_frame)
            if completed is None:
                continue
            latency = now - self._first_seen.pop(key, now)
            _MESSAGES.inc()
            _MESSAGE_BYTES.inc(len(completed.data))
            _LATENCY.observe(latency)
            messages.append(
                {
                    "msg_id": completed.msg_id,
                    "data": completed.data,
                    "frag_count": completed.frag_count,
                    "duplicates": completed.duplicates,
                    "zigbee_channel": completed.zigbee_channel,
                    "latency_s": latency,
                }
            )
        return messages


__all__ = ["TenantConsumer"]
