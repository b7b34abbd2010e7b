"""Perf gate: the live collector must be invisible in the hot path.

The PR-7 acceptance criterion: a metered streaming decode with a
:class:`~repro.obs.live.LiveCollector` attached (JSONL sink, aggressive
0.05 s interval) must stay within noise of the same metered decode
without one — the gate allows 3% Msps.  Best-of-3 on both sides so a
scheduler hiccup cannot fail the build, and the exact-totals contract is
asserted on the same run the timing came from.  ``BENCH_PR7.json`` at
the repo root is a frozen record of an earlier run; nothing rewrites it.
"""

import time

import numpy as np
import pytest

from repro.network.traffic import StreamSender, StreamTraffic
from repro.obs import REGISTRY, JsonlSink, LiveCollector, read_metrics_stream
from repro.stream import StreamEngine

BLOCK_SIZE = 32768

#: Msps with the collector must be >= this fraction of Msps without it.
OVERHEAD_FLOOR = 0.97


def _workload():
    senders = [
        StreamSender(0, zigbee_channel=11, reading_interval_s=0.008),
        StreamSender(1, zigbee_channel=13, reading_interval_s=0.008),
        StreamSender(2, zigbee_channel=14, reading_interval_s=0.008),
    ]
    traffic = StreamTraffic(senders, duration_s=0.0125)
    samples, truth = traffic.capture(np.random.default_rng(20260806))
    assert truth
    return traffic, samples


def _engine():
    return StreamEngine(
        demux=True,
        decimation=4,
        working_dtype=np.complex64,
    )


@pytest.mark.perf_smoke
def test_live_collector_overhead_within_noise(tmp_path):
    traffic, samples = _workload()

    def metered_decode(collector=None):
        engine = _engine()
        REGISTRY.enable()
        REGISTRY.reset()
        try:
            t0 = time.perf_counter()
            frames = engine.run(
                traffic.blocks(samples, BLOCK_SIZE), collector=collector
            )
            if collector is not None:
                collector.finalize()
            elapsed = time.perf_counter() - t0
            snapshot = REGISTRY.snapshot()
        finally:
            REGISTRY.disable()
            REGISTRY.reset()
        return frames, elapsed, snapshot

    metered_decode()  # warm-up: waveform caches, BLAS pools, page faults

    plain_best = float("inf")
    for _ in range(3):
        _frames, elapsed, _snapshot = metered_decode()
        plain_best = min(plain_best, elapsed)

    live_best = float("inf")
    final_totals = None
    snapshot = None
    for index in range(3):
        path = tmp_path / f"live_{index}.jsonl"
        sink = JsonlSink(str(path))
        collector = LiveCollector(interval_s=0.05, sinks=[sink])
        _frames, elapsed, snapshot = metered_decode(collector)
        sink.close()
        live_best = min(live_best, elapsed)
        final_totals = read_metrics_stream(str(path))[-1]

    # Exact-totals contract on the very run that was timed.
    assert final_totals["final"] is True
    assert final_totals["counters"] == snapshot["counters"]
    assert final_totals["histograms"] == {
        name: {"count": data["count"], "total": data["total"]}
        for name, data in snapshot["histograms"].items()
    }

    plain_msps = samples.size / plain_best / 1e6
    live_msps = samples.size / live_best / 1e6
    ratio = live_msps / plain_msps

    print(
        f"\nlive-collector smoke: plain {plain_msps:.2f} Msps, "
        f"live {live_msps:.2f} Msps (ratio {ratio:.3f}, "
        f"floor {OVERHEAD_FLOOR})"
    )
    assert live_msps >= plain_msps * OVERHEAD_FLOOR, (
        f"live collector cost {100 * (1 - ratio):.1f}% Msps "
        f"(allowed {100 * (1 - OVERHEAD_FLOOR):.0f}%)"
    )
