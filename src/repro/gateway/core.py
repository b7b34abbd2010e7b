"""Multi-tenant gateway core: admission, backpressure, delivery.

:class:`GatewayCore` is the transport-agnostic heart of ``repro
serve``: the asyncio server (:mod:`repro.gateway.server`), the
in-process load harness (:mod:`repro.gateway.loadgen`) and the tests
all drive this one object, so admission control and delivery semantics
are identical whichever way samples arrive.

Tenancy model
-------------
Each admitted tenant owns one held slot (the block it submitted last,
not yet decoded), one :class:`repro.gateway.tenant.TenantConsumer`
(private engine + reassembler — per-tenant session isolation), and a
pending-delivery queue the client drains with :meth:`poll`.  Nothing in
the gateway queues without bound: a tenant holds at most one undecoded
block, admission past ``max_tenants`` is refused (``tenant-limit``), and
a draining gateway refuses new tenants (``shutting-down``).

Scheduling
----------
Admission and decoding are separate steps.  :meth:`submit` stores the
block in the tenant's slot and counts it, so its answer is known before
the block is decoded; :meth:`pump` decodes every tenant's held block.
A :meth:`submit` that finds a block already held decodes that one
first, as :meth:`pump` would, so the bound holds however many
connections feed one tenant without a pump between.  :meth:`poll`,
:meth:`finish_tenant`, :meth:`abandon` and :meth:`drain` decode the
held blocks first, so nothing admitted is ever missing from a delivery.
The server replies to a ``samples`` request at admission and pumps
after the reply, while the client sends its next block.  To use more
cores, run more independent ``serve`` processes and split tenants
across them.

A tenant whose consumer raises while decoding is finished as *failed*:
the exception is logged once and counted (``gateway.tenants_failed``),
its slot and id are released, its undelivered messages are dropped, and
every later request naming it is refused with ``decode-failed`` until
the id is admitted again.  Nothing re-raises the consumer's exception.

Metrics (``gateway.*``): tenants admitted/rejected/abandoned/failed and
active, blocks and samples admitted, frames/fragments/messages
counters from the consumers, a delivery-latency histogram, and
``gateway.realtime_margin_min`` — the worst per-tenant ingest margin
(stream-seconds admitted per wall-second since the tenant's first
submit; < 1.0 means some tenant is falling behind realtime), refreshed
by every :meth:`pump` and finish, so it holds still while the whole
gateway idles.
"""

import logging
import time

import numpy as np

from repro.constants import WIFI_SAMPLE_RATE_20MHZ
from repro.gateway.errors import (
    ERR_BAD_REQUEST,
    ERR_DECODE_FAILED,
    ERR_DUPLICATE_TENANT,
    ERR_SHUTTING_DOWN,
    ERR_STREAM_ENDED,
    ERR_TENANT_LIMIT,
    ERR_UNKNOWN_TENANT,
    GatewayError,
)
from repro.gateway.tenant import TenantConsumer
from repro.obs.metrics import REGISTRY

_LOG = logging.getLogger("repro.gateway")

#: Inclusive bounds on the numeric engine overrides a tenant may send.
#: Each one sizes a buffer the engine allocates up front, so an
#: unbounded value would be a request to exhaust memory; they are
#: refused before any engine is built.  A key the engine does not take
#: fails when its arguments are bound, also before anything is built.
ENGINE_LIMITS = {
    "scan_stride_bits": (1, 64),
}
#: Channelizer decimations the decoder supports.
ENGINE_DECIMATIONS = (1, 2, 4, 8)
#: Most ZigBee channels one tenant's engine may decode (there are 16).
MAX_ZIGBEE_CHANNELS = 16

_ADMITTED = REGISTRY.counter("gateway.tenants_admitted")
_REJECTED = REGISTRY.counter("gateway.tenants_rejected")
_ABANDONED = REGISTRY.counter("gateway.tenants_abandoned")
_FAILED = REGISTRY.counter("gateway.tenants_failed")
_ACTIVE = REGISTRY.gauge("gateway.tenants_active")
_BLOCKS_ADMITTED = REGISTRY.counter("gateway.blocks_admitted")
_SAMPLES_ADMITTED = REGISTRY.counter("gateway.samples_admitted")
_MARGIN_MIN = REGISTRY.gauge("gateway.realtime_margin_min")


class _TenantState:
    """Parent-side bookkeeping for one tenant stream."""

    __slots__ = (
        "tenant_id",
        "held",
        "consumer",
        "pending",
        "finished",
        "failed",
        "result",
        "blocks_in",
        "samples_in",
        "first_submit",
        "delivered",
        "owner",
    )

    def __init__(self, tenant_id, consumer, owner=None):
        self.tenant_id = tenant_id
        #: The admitted block not yet decoded (at most one).
        self.held = None
        self.consumer = consumer
        self.pending = []
        self.finished = False
        #: The consumer raised: finished, and refused by every request.
        self.failed = False
        self.result = None
        self.blocks_in = 0
        self.samples_in = 0
        self.first_submit = None
        self.delivered = 0
        #: Who admitted the stream (a server connection), for abandon().
        self.owner = owner

    def margin(self, now):
        """Stream-seconds admitted per wall-second since first submit."""
        if self.first_submit is None or self.samples_in == 0:
            return None
        elapsed = now - self.first_submit
        if elapsed <= 0:
            return None
        return (self.samples_in / WIFI_SAMPLE_RATE_20MHZ) / elapsed


def check_engine_overrides(engine):
    """Refuse a tenant's out-of-range engine overrides (``bad-request``).

    Bounds the overrides that size what the engine allocates (see
    :data:`ENGINE_LIMITS`); everything else is left to the engine's
    own validation.
    """

    def refuse(key, why):
        raise GatewayError(
            ERR_BAD_REQUEST, f"bad engine config: {key}={engine[key]!r} {why}"
        )

    for key, (lo, hi) in ENGINE_LIMITS.items():
        value = engine.get(key)
        if value is None:
            continue
        if isinstance(value, bool) or not isinstance(value, int):
            refuse(key, "is not an integer")
        if not lo <= value <= hi:
            refuse(key, f"is outside [{lo:g}, {hi:g}]")
    decimation = engine.get("decimation")
    if decimation is not None and (
        isinstance(decimation, bool) or decimation not in ENGINE_DECIMATIONS
    ):
        refuse("decimation", f"is not one of {ENGINE_DECIMATIONS}")
    channels = engine.get("zigbee_channels")
    if channels is not None and (
        not isinstance(channels, (list, tuple))
        or len(channels) > MAX_ZIGBEE_CHANNELS
    ):
        refuse(
            "zigbee_channels",
            f"is not a list of at most {MAX_ZIGBEE_CHANNELS} channels",
        )


def _decode_failed(tenant_id):
    return GatewayError(
        ERR_DECODE_FAILED,
        f"tenant {tenant_id!r} failed decoding; its stream was ended",
    )


class GatewayCore:
    """Admit tenants, schedule their blocks, deliver their messages.

    ``engine`` holds default :class:`~repro.stream.engine.StreamEngine`
    kwargs for every tenant; :meth:`admit` may override per tenant.
    """

    def __init__(self, engine=None, max_tenants=8):
        self.engine_kwargs = dict(engine or {})
        self.max_tenants = int(max_tenants)
        if self.max_tenants <= 0:
            raise ValueError("max_tenants must be positive")
        self._tenants = {}
        self._draining = False
        self._closed = False

    # -- admission -----------------------------------------------------------

    def admit(self, tenant_id, engine=None, owner=None):
        """Register a tenant; refuses with an explicit code when full.

        ``engine`` overrides the gateway's default engine kwargs for
        this tenant only.  ``owner`` tags the stream with whoever
        admitted it (the server passes its connection), so
        :meth:`abandon` can finish it if that owner goes away.  Returns
        an info dict (echoed to socket clients as the ``welcome``
        response).
        """
        self._ensure_open()
        if self._draining:
            raise GatewayError(ERR_SHUTTING_DOWN, "gateway is draining")
        previous = self._tenants.get(tenant_id)
        if previous is not None:
            if not previous.finished:
                raise GatewayError(
                    ERR_DUPLICATE_TENANT,
                    f"tenant {tenant_id!r} already admitted",
                )
        if self._active_count() >= self.max_tenants:
            _REJECTED.inc()
            raise GatewayError(
                ERR_TENANT_LIMIT,
                f"tenant limit {self.max_tenants} reached",
            )
        merged = dict(self.engine_kwargs)
        try:
            overrides = dict(engine or {})
            check_engine_overrides(overrides)
            merged.update(overrides)
            consumer = TenantConsumer(tenant_id, merged)
        except (TypeError, ValueError, ArithmeticError) as error:
            # A bad engine override is the client's fault, not ours
            # (ArithmeticError: JSON's Infinity reaching an int()).
            raise GatewayError(
                ERR_BAD_REQUEST, f"bad engine config: {error}"
            ) from None
        state = _TenantState(tenant_id, consumer, owner)
        # A finished stream releases its id: re-admission starts a fresh
        # session (empty slot, new engine state, zeroed stats).  The old
        # state's results were already handed back by finish_tenant, so
        # nothing of the previous session can leak into the new one.
        self._tenants.pop(tenant_id, None)
        self._tenants[tenant_id] = state
        _ADMITTED.inc()
        _ACTIVE.set(self._active_count())
        return {
            "tenant": tenant_id,
            "sample_rate": WIFI_SAMPLE_RATE_20MHZ,
        }

    # -- ingest --------------------------------------------------------------

    def submit(self, tenant_id, block):
        """Admit one sample block: hold it, undecoded, and count it.

        A later :meth:`pump` decodes it.  If the tenant still holds an
        earlier block, that one is decoded first, as :meth:`pump` would,
        so a tenant never holds more than one undecoded block.  A
        consumer that raises on that decode fails the tenant, and the
        request is refused with ``decode-failed``.
        """
        state = self._live(tenant_id)
        block = np.asarray(block)
        if not self._decode(state):
            raise _decode_failed(tenant_id)
        if state.first_submit is None:
            state.first_submit = time.monotonic()
        state.held = block
        state.blocks_in += 1
        state.samples_in += int(block.size)
        _BLOCKS_ADMITTED.inc()
        _SAMPLES_ADMITTED.inc(int(block.size))

    # -- scheduling ----------------------------------------------------------

    def pump(self):
        """Decode every tenant's held block.

        A tenant whose consumer raises is finished as failed (see the
        module docstring); the others carry on.
        """
        self._ensure_open()
        for state in self._tenants.values():
            self._decode(state)
        self._update_margin()

    # -- delivery ------------------------------------------------------------

    def poll(self, tenant_id):
        """Drain the tenant's completed messages accumulated so far."""
        self._require(tenant_id)
        self.pump()
        state = self._require(tenant_id)  # the pump may have failed it
        messages, state.pending = state.pending, []
        state.delivered += len(messages)
        return messages

    def finish_tenant(self, tenant_id):
        """End a tenant's stream: decode its held block, flush the rest.

        Returns ``{"messages": [...], "stats": {...}}`` with every
        not-yet-polled message (including trailing ones the engine only
        emits at flush).  The finished state stays registered for
        ``tenant_stats`` until the id is re-admitted — finishing
        releases the id, and a later :meth:`admit` under the same id
        starts a completely fresh session.  A consumer that raises while
        flushing fails the tenant, and the request is refused with
        ``decode-failed``.
        """
        result = self._finish(self._live(tenant_id))
        if result is None:
            raise _decode_failed(tenant_id)
        return result

    def abandon(self, owner):
        """Finish every still-active tenant ``owner`` admitted.

        For a client that went away without ``finish``: its streams are
        finished as :meth:`finish_tenant` would, releasing their slots
        and ids, and their undelivered messages are dropped (nobody is
        left to receive them).  Counted in ``gateway.tenants_abandoned``.
        Returns ``{tenant_id: finish_tenant result}``, leaving out any
        tenant whose consumer failed while flushing.
        """
        states = [
            state
            for state in self._tenants.values()
            if state.owner is owner and not state.finished
        ]
        _ABANDONED.inc(len(states))
        return self._finish_all(states)

    # -- lifecycle -----------------------------------------------------------

    def drain(self):
        """Graceful shutdown: finish every active tenant, then close.

        Returns ``{tenant_id: finish_tenant result}`` for tenants that
        were still active — their undelivered messages, so a shutdown
        never silently discards completed work.  A tenant whose consumer
        fails while flushing is left out (it is logged and counted).
        """
        self._draining = True
        results = self._finish_all(
            [state for state in self._tenants.values() if not state.finished]
        )
        self.close()
        return results

    def close(self):
        """Refuse further work; idempotent."""
        self._closed = True

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()
        return False

    # -- introspection -------------------------------------------------------

    @property
    def draining(self):
        return self._draining

    def tenant_ids(self):
        return list(self._tenants)

    def tenant_stats(self, tenant_id):
        return self._stats_of(self._require(tenant_id))

    def stats(self):
        return {
            "max_tenants": self.max_tenants,
            "active_tenants": self._active_count(),
            "draining": self._draining,
            "tenants": {
                tid: self._stats_of(state)
                for tid, state in self._tenants.items()
            },
        }

    # -- internals -----------------------------------------------------------

    def _ensure_open(self):
        if self._closed:
            raise ValueError("gateway core is closed")

    def _require(self, tenant_id):
        """The tenant's state; refuses unknown and failed tenants."""
        state = self._tenants.get(tenant_id)
        if state is None:
            raise GatewayError(
                ERR_UNKNOWN_TENANT, f"unknown tenant {tenant_id!r}"
            )
        if state.failed:
            raise _decode_failed(tenant_id)
        return state

    def _live(self, tenant_id):
        """The state of a tenant whose stream has not finished."""
        state = self._require(tenant_id)
        if state.finished:
            raise GatewayError(
                ERR_STREAM_ENDED, f"tenant {tenant_id!r} already finished"
            )
        return state

    def _active_count(self):
        return sum(1 for s in self._tenants.values() if not s.finished)

    def _finish(self, state):
        """Flush a live tenant; ``None`` when its consumer fails doing so."""
        if not self._decode(state):
            return None
        try:
            result = state.consumer.finish()
        except Exception:
            self._fail(state)
            return None
        state.pending.extend(result.get("messages") or [])
        state.result = result
        state.finished = True
        _ACTIVE.set(self._active_count())
        self._update_margin()
        messages, state.pending = state.pending, []
        state.delivered += len(messages)
        return {"messages": messages, "stats": self._stats_of(state)}

    def _finish_all(self, states):
        results = {}
        for state in states:
            result = self._finish(state)
            if result is not None:
                results[state.tenant_id] = result
        return results

    def _decode(self, state):
        """Decode the tenant's held block, if any.

        ``False`` when the consumer raised: the tenant is then failed.
        """
        block, state.held = state.held, None
        if block is None:
            return True
        try:
            messages = state.consumer.process(block)
        except Exception:
            self._fail(state)
            return False
        if messages:
            state.pending.extend(messages)
        return True

    def _fail(self, state):
        """Finish a tenant whose consumer raised; call from the handler."""
        _LOG.exception(
            "tenant %r decoder failed; finished it as failed, dropping %d "
            "undelivered message(s)",
            state.tenant_id,
            len(state.pending),
        )
        _FAILED.inc()
        state.pending = []
        state.failed = True
        state.finished = True
        _ACTIVE.set(self._active_count())

    def _stats_of(self, state):
        now = time.monotonic()
        return {
            "tenant": state.tenant_id,
            "finished": state.finished,
            "failed": state.failed,
            "blocks_in": state.blocks_in,
            "samples_in": state.samples_in,
            "pending_messages": len(state.pending),
            "delivered_messages": state.delivered,
            "realtime_margin": state.margin(now),
            "engine": state.result["engine"] if state.result else None,
            "reassembly": state.result["reassembly"] if state.result else None,
        }

    def _update_margin(self):
        now = time.monotonic()
        margins = [
            margin
            for state in self._tenants.values()
            if not state.finished
            for margin in [state.margin(now)]
            if margin is not None
        ]
        if margins:
            _MARGIN_MIN.set(min(margins))


__all__ = ["ENGINE_LIMITS", "GatewayCore", "check_engine_overrides"]
