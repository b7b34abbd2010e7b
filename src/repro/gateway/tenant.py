"""Per-tenant decode session: one engine + server-side reassembly.

:class:`TenantConsumer` is the unit of tenancy the gateway multiplexes:
a private :class:`repro.stream.engine.StreamEngine` (sessions, channel
state and arbitration fully isolated from every other tenant) feeding a
private :class:`repro.transport.streamrx.StreamReassembler`, so what
comes out is not frames but the tenant's *reassembled messages* — the
FreeBee-style delivery receipt a gateway client actually wants.

:class:`repro.gateway.core.GatewayCore` builds one per admitted tenant
and calls :meth:`TenantConsumer.process` on each block the tenant
submitted.

Message dicts are :class:`repro.transport.streamrx.CompletedMessage`
fields, raw ``bytes`` payloads included; the wire layer
(:mod:`repro.gateway.protocol`) hex-encodes them.  ``latency_s`` is
wall-clock (first fragment decoded → message completed, stamped by the
reassembler) and, like ``stream.health.*``, is outside every identity
contract; every other field and all ``gateway.*`` counters are
deterministic.
"""

from dataclasses import asdict

from repro.obs.metrics import REGISTRY
from repro.stream.engine import StreamEngine
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
        accepted = self.reassembler.fragments_accepted
        messages = []
        for stream_frame in stream_frames:
            completed = self.reassembler.push(stream_frame)
            if completed is None:
                continue
            _MESSAGES.inc()
            _MESSAGE_BYTES.inc(len(completed.data))
            _LATENCY.observe(completed.latency_s)
            messages.append(asdict(completed))
        _FRAMES.inc(len(stream_frames))
        _FRAGMENTS.inc(self.reassembler.fragments_accepted - accepted)
        return messages


__all__ = ["TenantConsumer"]
