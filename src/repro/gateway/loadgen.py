"""Deterministic gateway load harness: N tenants × M senders, seeded.

Each tenant's offered load is a :class:`repro.network.traffic.StreamTraffic`
capture — M scripted senders, each airing the transport fragments of one
known message (the :func:`repro.transport.segmentation.segment_message` →
:func:`repro.transport.pdu.encode_fragment` path), rendered through the
shared WiFi front end with its noise floor.  Everything draws from
``numpy.random.default_rng([seed, tenant_index, ...])`` streams, so two
runs with the same arguments offer sample-identical load — which is what
lets the harness assert *byte-exact* delivery, not just counts: every
message whose fragments all aired must come back from the gateway with
exactly the bytes the sender fragmented.

The same workloads drive both gateway faces:

* :func:`drive_core` — in-process against a
  :class:`repro.gateway.core.GatewayCore` (the benchmark path);
* :func:`drive_client` — over the wire through a
  :class:`repro.gateway.protocol.GatewayClient` (the CI smoke path).

Blocks are submitted round-robin across tenants — the multiplexing
pattern a real gateway sees — with periodic polls so delivery flows
mid-stream, then a ``finish`` per tenant flushes the trailing state.
:func:`run_loadgen` wraps build → drive → verify into one report dict;
``repro loadgen`` prints it as a table and exits non-zero unless every
tenant was byte-exact.
"""

import time
from dataclasses import dataclass, field
from itertools import zip_longest

import numpy as np

from repro.constants import WIFI_SAMPLE_RATE_20MHZ
from repro.gateway.core import GatewayCore
from repro.network.traffic import StreamSender, StreamTraffic
from repro.transport.pdu import (
    MAX_MSG_ID,
    encode_fragment,
    payload_capacity,
    scheme_id,
)
from repro.transport.segmentation import segment_message

#: Default FEC scheme name for scripted fragments (see repro.transport).
DEFAULT_SCHEME = "hamming"


@dataclass
class TenantWorkload:
    """One tenant's precomputed offered load + ground truth."""

    tenant_id: str
    samples: np.ndarray
    #: (zigbee_channel, msg_id) -> the exact message bytes that must
    #: come back (every fragment of it aired).
    expected: dict
    #: Messages scripted but not fully aired (arrival jitter ran the
    #: capture out of room) — excluded from the delivery contract.
    incomplete: int = 0
    engine: "dict | None" = None
    delivered: list = field(default_factory=list)
    #: Always 0: a tenant holds at most one undecoded block and the
    #: gateway sheds nothing.  Kept because the perf ledger reads it.
    shed_blocks: int = 0
    #: Every capture is rendered at the WiFi receiver's 20 MHz.
    sample_rate = WIFI_SAMPLE_RATE_20MHZ

    @property
    def stream_seconds(self):
        return self.samples.size / self.sample_rate


def build_workloads(
    tenants,
    senders,
    seed,
    duration_s=0.03,
    message_bytes=5,
    scheme=DEFAULT_SCHEME,
    channels=(13,),
    reading_interval_s=0.0015,
    engine=None,
    dtype=None,
):
    """Synthesize every tenant's capture + expected-delivery ground truth.

    Senders spread round-robin over ``channels``; each sender fragments
    one seeded ``message_bytes``-byte message under ``scheme`` and airs
    it as scripted transport frames.  ``msg_id`` is the sender's index
    on its channel, so reassembly keys never collide — which caps
    senders at ``16 * len(channels)`` per tenant (4-bit msg_id).
    """
    tenants = int(tenants)
    senders = int(senders)
    channels = list(channels)
    if senders > MAX_MSG_ID * len(channels):
        raise ValueError(
            f"at most {MAX_MSG_ID * len(channels)} senders per tenant on "
            f"{len(channels)} channel(s) (4-bit msg_id)"
        )
    scheme = scheme_id(scheme) if isinstance(scheme, str) else int(scheme)
    fragment_bits = payload_capacity(scheme)
    workloads = []
    for tenant_index in range(tenants):
        script_rng = np.random.default_rng([int(seed), tenant_index, 0])
        capture_rng = np.random.default_rng([int(seed), tenant_index, 1])
        sender_objs = []
        scripted = {}
        for sender_index in range(senders):
            channel = channels[sender_index % len(channels)]
            msg_id = sender_index // len(channels)
            message = script_rng.bytes(int(message_bytes))
            fragments = segment_message(
                message, msg_id=msg_id, fragment_bits=fragment_bits
            )
            script = tuple(encode_fragment(f, scheme) for f in fragments)
            sender_objs.append(
                StreamSender(
                    sender_id=sender_index,
                    zigbee_channel=channel,
                    reading_interval_s=float(reading_interval_s),
                    frames=script,
                )
            )
            scripted[sender_index] = (channel, msg_id, len(script), message)
        traffic = StreamTraffic(sender_objs, duration_s=float(duration_s))
        samples, truth = traffic.capture(capture_rng)
        if dtype is not None:
            samples = np.asarray(samples, dtype=dtype)
        # A message is owed back only when all its fragments aired.
        aired = {}
        for record in truth:
            aired.setdefault(record.sender_id, set()).add(record.sequence)
        expected = {}
        incomplete = 0
        for sender_index, (channel, msg_id, n_frags, message) in scripted.items():
            if aired.get(sender_index, set()) >= set(range(n_frags)):
                expected[(channel, msg_id)] = message
            else:
                incomplete += 1
        workloads.append(
            TenantWorkload(
                tenant_id=f"tenant-{tenant_index}",
                samples=samples,
                expected=expected,
                incomplete=incomplete,
                engine=dict(engine) if engine else None,
            )
        )
    return workloads


def _blocks_of(workload, block_size):
    samples = workload.samples
    return [
        samples[lo : lo + int(block_size)]
        for lo in range(0, samples.size, int(block_size))
    ]


def _drive(workloads, block_size, poll_every, admit, submit, poll, finish):
    """Admit, submit round-robin with periodic polls, finish; wall seconds.

    ``finish`` returns a tenant's trailing messages.  Fills each
    workload's ``delivered`` in place.
    """
    t0 = time.perf_counter()
    for workload in workloads:
        admit(workload.tenant_id, workload.engine)
    rounds = zip_longest(*(_blocks_of(w, block_size) for w in workloads))
    submitted = 0
    for blocks in rounds:
        for workload, block in zip(workloads, blocks):
            if block is None:
                continue
            submit(workload.tenant_id, block)
            submitted += 1
            if submitted % int(poll_every) == 0:
                workload.delivered.extend(poll(workload.tenant_id))
    for workload in workloads:
        workload.delivered.extend(finish(workload.tenant_id))
    return time.perf_counter() - t0


def drive_core(core, workloads, block_size=16384, poll_every=8):
    """Offer every workload to an in-process core, round-robin.

    Each ``submit`` is followed by a ``pump``: the same work, in the
    same order, as a ``serve`` connection does.  Fills each workload's
    ``delivered`` in place and returns the wall seconds the drive took
    (admit → last finish).
    """

    def submit(tenant_id, block):
        core.submit(tenant_id, block)
        core.pump()

    return _drive(
        workloads, block_size, poll_every,
        admit=core.admit,
        submit=submit,
        poll=core.poll,
        finish=lambda tenant_id: core.finish_tenant(tenant_id)["messages"],
    )


def drive_client(client, workloads, block_size=16384, poll_every=8):
    """Same offered pattern as :func:`drive_core`, over the wire."""
    return _drive(
        workloads, block_size, poll_every,
        admit=client.hello,
        submit=client.send_samples,
        poll=client.poll,
        finish=lambda tenant_id: client.finish(tenant_id)[0],
    )


def verify(workloads):
    """Score delivered vs expected; per-tenant rows + overall verdict.

    Byte-exact means: every expected message arrived with exactly the
    fragmented bytes, and nothing arrived corrupted (an unexpected
    (channel, msg_id) is tolerated only if the stream double-delivered —
    it never is — so any extra counts against the tenant).  The
    ``shed_blocks`` column always reads 0 (nothing is shed); the perf
    ledger still checks it.
    """
    rows = []
    all_exact = True
    for workload in workloads:
        got = {
            (m["zigbee_channel"], m["msg_id"]): m["data"]
            for m in workload.delivered
        }
        matched = sum(
            1
            for key, message in workload.expected.items()
            if got.get(key) == message
        )
        extra = len(got) - sum(1 for key in got if key in workload.expected)
        byte_exact = (
            matched == len(workload.expected)
            and len(workload.delivered) == len(got)  # no duplicate deliveries
            and extra == 0
        )
        all_exact = all_exact and byte_exact
        rows.append(
            {
                "tenant": workload.tenant_id,
                "expected": len(workload.expected),
                "delivered": len(workload.delivered),
                "matched": matched,
                "incomplete_scripts": workload.incomplete,
                "shed_blocks": workload.shed_blocks,
                "byte_exact": byte_exact,
            }
        )
    return rows, all_exact


def run_loadgen(
    tenants=2,
    senders=2,
    seed=7,
    duration_s=0.03,
    block_size=16384,
    message_bytes=5,
    scheme=DEFAULT_SCHEME,
    channels=(13,),
    engine=None,
    poll_every=8,
    client=None,
    dtype=None,
):
    """Build → drive → verify; returns the report dict.

    With ``client`` the load goes over the wire to a running ``serve``
    process; otherwise an in-process :class:`GatewayCore` is created
    and torn down here.
    """
    workloads = build_workloads(
        tenants,
        senders,
        seed,
        duration_s=duration_s,
        message_bytes=message_bytes,
        scheme=scheme,
        channels=channels,
        engine=engine,
        dtype=dtype,
    )
    if client is not None:
        elapsed = drive_client(
            client, workloads, block_size=block_size, poll_every=poll_every
        )
    else:
        with GatewayCore(
            engine=engine, max_tenants=max(int(tenants), 1)
        ) as core:
            elapsed = drive_core(
                core, workloads, block_size=block_size, poll_every=poll_every
            )
    rows, all_exact = verify(workloads)
    total_samples = sum(w.samples.size for w in workloads)
    stream_seconds = sum(w.stream_seconds for w in workloads)
    return {
        "tenants": rows,
        "ok": all_exact,
        "elapsed_s": elapsed,
        "total_samples": int(total_samples),
        "stream_seconds": stream_seconds,
        "aggregate_x_realtime": (
            stream_seconds / elapsed if elapsed > 0 else float("inf")
        ),
        "seed": int(seed),
    }


__all__ = [
    "TenantWorkload",
    "build_workloads",
    "drive_core",
    "drive_client",
    "verify",
    "run_loadgen",
    "DEFAULT_SCHEME",
]
