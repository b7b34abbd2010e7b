"""Perf acceptance benchmark for the multi-tenant gateway (PR 9).

Drives the deterministic :mod:`repro.gateway.loadgen` fleet — N tenants,
each a seeded 2-sender :class:`StreamTraffic` capture — through
:class:`repro.gateway.core.GatewayCore` end to end (admission → bounded
ring → per-tenant engine+reassembler → delivered transport messages)
and writes ``BENCH_GATEWAY.json`` at the repo root.

Headline number: **tenants-per-core at realtime** — how many concurrent
realtime tenant streams one core sustains through the full gateway path,
i.e. aggregate stream-seconds decoded per wall-second.  The gateway
decodes on one core; more cores mean more independent ``serve``
processes.  The row must clear >= 1.0 on any machine (the per-tenant
engine is the single-channel decimated fast path, ~1.5x realtime per
stream).

Correctness is asserted harder than speed: every timed drive must
deliver **byte-identical** per-tenant message sets (payload bytes, msg
ids, channels, fragment counts — everything except wall-clock latency),
matching the workloads' ground truth exactly.
"""

import gc
import json
import os
import time
from pathlib import Path

from benchmarks.ledger.child import blas_threads
from repro.gateway.core import GatewayCore
from repro.gateway.loadgen import build_workloads, drive_core, verify

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


def _best_timed(workloads, repeats):
    """Best wall seconds over ``repeats`` drives, GC paused, plus each
    drive's delivery identity (asserted byte-identical below)."""
    _drive(workloads)  # warm-up: waveform caches
    best = float("inf")
    identities = []
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(repeats):
            best = min(best, _drive(workloads))
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
    root = Path(__file__).resolve().parent.parent
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

    report = {
        "pr": 9,
        "workload": {
            "tenants": TENANTS,
            "senders_per_tenant": SENDERS,
            "duration_s": DURATION_S,
            "seed": SEED,
            "samples_per_tenant": int(workloads[0].samples.size),
            "expected_messages": sum(len(w.expected) for w in workloads),
            "engine": {
                k: str(v) if not isinstance(v, (int, bool)) else v
                for k, v in ENGINE_KWARGS.items()
            },
        },
        "protocol": (
            "best-of-N wall time over full gateway drives (admit -> ring "
            "-> decode -> reassemble -> finish), gc disabled, after one "
            "warm-up drive; every timed drive's delivery ledger asserted "
            "byte-identical and byte-exact against ground truth"
        ),
        "cpu_count": cpu_count,
        "blas_threads": blas_threads(),
        "serial": serial_row,
        "delivery": serial_rows,
        "gates": {
            "target_tenants_per_core": TARGET_TENANTS_PER_CORE,
            "serial_gate_applied": True,
            "byte_identity": "asserted (every drive, per tenant)",
        },
    }
    (root / "BENCH_GATEWAY.json").write_text(
        json.dumps(report, indent=2) + "\n"
    )

    print()
    print(
        f"serial  {serial_row['elapsed_seconds']:7.4f} s  "
        f"{serial_row['effective_msps']:6.2f} Msps  "
        f"{serial_row['x_realtime']:5.2f}x realtime  "
        f"{serial_row['tenants_per_core_at_realtime']:5.2f} tenants/core  "
        f"{serial_row['messages_delivered']} msgs  (cpus={cpu_count})"
    )

    # The headline gate: one core must carry at least one realtime
    # tenant through the whole gateway path.
    assert (
        serial_row["tenants_per_core_at_realtime"]
        >= TARGET_TENANTS_PER_CORE
    ), serial_row
