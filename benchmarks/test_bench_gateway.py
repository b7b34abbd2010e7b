"""Perf acceptance benchmark for the multi-tenant gateway (PR 9).

Drives the deterministic :mod:`repro.gateway.loadgen` fleet — N tenants,
each a seeded 2-sender :class:`StreamTraffic` capture — through
:class:`repro.gateway.core.GatewayCore` end to end (admission → held
block → per-tenant engine+reassembler → delivered transport messages)
and prints one row per drive.  ``BENCH_GATEWAY.json`` at the repo root
is a frozen record of an earlier run; nothing rewrites it.

Headline number: **tenants-per-core at realtime** — how many concurrent
realtime tenant streams one core sustains through the full gateway path,
i.e. aggregate stream-seconds decoded per wall-second.  The gateway
decodes on one core; more cores mean more independent ``serve``
processes.  The row must clear >= 1.0 on any machine (the per-tenant
engine is the single-channel decimated fast path, ~1.5x realtime per
stream).

The ``wire`` row drives the same workloads over loopback through a
:class:`repro.gateway.server.GatewayServer` running on an event loop
thread of this process (:func:`repro.gateway.loadgen.drive_client`, one
connection): the codec, the socket path and the decode behind each
reply, without a process spawn.  Client and server then share one
interpreter and contend for its lock, so the row reads below what a
separate ``serve`` process sustains (the perf ledger's ``gateway``
workload measures that).

Correctness is asserted harder than speed: every timed drive must
deliver **byte-identical** per-tenant message sets (payload bytes, msg
ids, channels, fragment counts — everything except wall-clock latency),
matching the workloads' ground truth exactly, over the wire as in
process.
"""

import asyncio
import gc
import os
import threading
from contextlib import contextmanager

from benchmarks.ledger.child import blas_threads
from repro.gateway.core import GatewayCore
from repro.gateway.loadgen import (
    build_workloads,
    drive_client,
    drive_core,
    verify,
)
from repro.gateway.protocol import GatewayClient
from repro.gateway.server import GatewayServer

TENANTS = 4
SENDERS = 2
SEED = 20260809
DURATION_S = 0.03
BLOCK_SIZE = 16384

#: Floor for the headline serial number, asserted unconditionally.
TARGET_TENANTS_PER_CORE = 1.0

#: Per-tenant engine: single decimated channel, fast kernels — the
#: multi-tenant serving configuration (a wideband engine cannot
#: decimate and would not clear realtime for even one tenant).
ENGINE_KWARGS = {
    "demux": True,
    "zigbee_channels": [13],
    "decimation": 4,
    "working_dtype": "complex64",
}


def _fresh(workloads):
    """Same samples and ground truth, empty delivery ledgers."""
    for workload in workloads:
        workload.delivered = []
        workload.shed_blocks = 0
    return workloads


def _drive(workloads):
    with GatewayCore(engine=ENGINE_KWARGS, max_tenants=TENANTS) as core:
        return drive_core(core, _fresh(workloads), block_size=BLOCK_SIZE)


@contextmanager
def _serving():
    """A ``GatewayServer`` on an event loop thread; yields its port."""
    server = GatewayServer(
        GatewayCore(engine=ENGINE_KWARGS, max_tenants=TENANTS), port=0
    )
    started = threading.Event()
    loops = []

    def on_started(_server):
        loops.append(asyncio.get_running_loop())
        started.set()

    serving = server.run(install_signal_handlers=False, on_started=on_started)
    thread = threading.Thread(target=asyncio.run, args=(serving,), daemon=True)
    thread.start()
    assert started.wait(30), "gateway server did not start"
    try:
        yield server.port
    finally:
        shutdown = server.shutdown()
        asyncio.run_coroutine_threadsafe(shutdown, loops[0]).result(30)
        thread.join(30)


def _wire_drive(port):
    """A drive over one fresh loopback connection to the server."""

    def drive(workloads):
        with GatewayClient("127.0.0.1", port) as client:
            return drive_client(
                client, _fresh(workloads), block_size=BLOCK_SIZE
            )

    return drive


def _best_timed(workloads, repeats, drive=_drive):
    """Best wall seconds over ``repeats`` drives, GC paused, plus each
    drive's delivery identity (asserted byte-identical below)."""
    drive(workloads)  # warm-up: waveform caches
    best = float("inf")
    identities = []
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(repeats):
            best = min(best, drive(workloads))
            identities.append(_delivery_identity(workloads))
    finally:
        if gc_was_enabled:
            gc.enable()
    return best, identities


def _delivery_identity(workloads):
    """Per-tenant delivered messages minus wall-clock fields."""
    return {
        w.tenant_id: sorted(
            (
                m["zigbee_channel"],
                m["msg_id"],
                m["frag_count"],
                m["duplicates"],
                m["data"],
            )
            for m in w.delivered
        )
        for w in workloads
    }


def _row(elapsed, workloads):
    total_samples = sum(w.samples.size for w in workloads)
    stream_seconds = sum(w.stream_seconds for w in workloads)
    x_realtime = stream_seconds / elapsed
    return {
        "tenants": len(workloads),
        "elapsed_seconds": round(elapsed, 4),
        "effective_msps": round(total_samples / elapsed / 1e6, 3),
        "x_realtime": round(x_realtime, 4),
        "cores_used": 1,
        "tenants_per_core_at_realtime": round(x_realtime, 4),
        "messages_delivered": sum(len(w.delivered) for w in workloads),
        "block_size": BLOCK_SIZE,
    }


def test_bench_gateway():
    cpu_count = os.cpu_count() or 1
    workloads = build_workloads(
        TENANTS,
        SENDERS,
        SEED,
        duration_s=DURATION_S,
        engine=ENGINE_KWARGS,
        dtype="complex64",
    )
    assert all(w.expected for w in workloads), "seed must air full messages"

    serial_s, identities = _best_timed(workloads, repeats=3)
    serial_rows, serial_exact = verify(workloads)
    assert serial_exact, serial_rows
    assert any(identities[0].values())
    # The acceptance contract: the gateway path is deterministic —
    # every drive delivers byte-identical messages, per tenant.
    assert all(identity == identities[0] for identity in identities)

    serial_row = _row(serial_s, workloads)

    with _serving() as port:
        wire_s, wire_identities = _best_timed(
            workloads, repeats=3, drive=_wire_drive(port)
        )
    wire_rows, wire_exact = verify(workloads)
    assert wire_exact, wire_rows
    # The wire delivers exactly what the in-process core delivers.
    assert all(identity == identities[0] for identity in wire_identities)
    wire_row = _row(wire_s, workloads)

    print()
    for name, row in (("serial", serial_row), ("wire", wire_row)):
        print(
            f"{name:6}  {row['elapsed_seconds']:7.4f} s  "
            f"{row['effective_msps']:6.2f} Msps  "
            f"{row['x_realtime']:5.2f}x realtime  "
            f"{row['tenants_per_core_at_realtime']:5.2f} tenants/core  "
            f"{row['messages_delivered']} msgs  "
            f"(cpus={cpu_count}, blas threads={blas_threads()})"
        )

    # The headline gate: one core must carry at least one realtime
    # tenant through the whole gateway path.
    assert (
        serial_row["tenants_per_core_at_realtime"]
        >= TARGET_TENANTS_PER_CORE
    ), serial_row
