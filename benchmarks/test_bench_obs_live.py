"""Perf gate: the live collector must be invisible in the hot path.

The PR-7 acceptance criterion: a metered streaming decode
(:meth:`StreamEngine.run`) with a :class:`~repro.obs.live.LiveCollector`
attached (JSONL sink, aggressive 0.05 s interval) must stay within noise
of the same metered decode without one — the gate allows 3% Msps.  Both
decodes run on one capture in interleaved rounds, alternating which goes
first, and the gate reads the median of the per-round ratios, so load
that drifts across the run hits both sides of a ratio alike (the perf
smoke's ``headline_ratio`` is timed the same way).

The once-per-run :meth:`LiveCollector.finalize` (a snapshot plus one
flushed JSONL line, ~0.2-0.3 ms on a 2-CPU host) is timed apart from the
decode and held to its own absolute limit: against a ~9 ms decode it
would otherwise read as a ~3 % hot-path cost that no block pays.  The
exact-totals contract is asserted on every timed live run.
``BENCH_PR7.json`` at the repo root is a frozen record of an earlier
run; nothing rewrites it.
"""

import gc
import statistics
import time

import numpy as np
import pytest

from repro.network.traffic import StreamSender, StreamTraffic
from repro.obs import REGISTRY, JsonlSink, LiveCollector, read_metrics_stream
from repro.stream import StreamEngine

BLOCK_SIZE = 32768

#: Median live/plain Msps ratio of ``StreamEngine.run`` must be >= this.
OVERHEAD_FLOOR = 0.97
#: Median wall milliseconds of the once-per-run ``finalize`` must be <=.
FINALIZE_LIMIT_MS = 2.0
#: Interleaved plain/live rounds; odd, so the median is one round's.
ROUNDS = 41


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
        """Decode once; returns ``(run seconds, finalize seconds, snapshot)``."""
        engine = _engine()
        REGISTRY.enable()
        REGISTRY.reset()
        try:
            t0 = time.perf_counter()
            engine.run(traffic.blocks(samples, BLOCK_SIZE), collector=collector)
            t1 = time.perf_counter()
            if collector is not None:
                collector.finalize()
            t2 = time.perf_counter()
            snapshot = REGISTRY.snapshot()
        finally:
            REGISTRY.disable()
            REGISTRY.reset()
        return t1 - t0, t2 - t1, snapshot

    def live_decode(path):
        sink = JsonlSink(str(path))
        collector = LiveCollector(interval_s=0.05, sinks=[sink])
        run_s, finalize_s, snapshot = metered_decode(collector)
        sink.close()
        # Exact-totals contract on the very run that was timed.
        final_totals = read_metrics_stream(str(path))[-1]
        assert final_totals["final"] is True
        assert final_totals["counters"] == snapshot["counters"]
        assert final_totals["histograms"] == {
            name: {"count": data["count"], "total": data["total"]}
            for name, data in snapshot["histograms"].items()
        }
        return run_s, finalize_s

    # Warm-up: waveform caches, page faults, the sink's first file.
    metered_decode()
    live_decode(tmp_path / "warm.jsonl")

    ratios = []
    finalizes = []
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        for index in range(ROUNDS):
            path = tmp_path / f"live_{index}.jsonl"
            if index % 2:
                live_s, finalize_s = live_decode(path)
                plain_s = metered_decode()[0]
            else:
                plain_s = metered_decode()[0]
                live_s, finalize_s = live_decode(path)
            ratios.append(plain_s / live_s)  # live Msps over plain Msps
            finalizes.append(finalize_s)
    finally:
        if gc_was_enabled:
            gc.enable()
    ratio = statistics.median(ratios)
    finalize_ms = 1e3 * statistics.median(finalizes)

    print(
        f"\nlive-collector smoke: median live/plain Msps ratio {ratio:.3f} "
        f"over {ROUNDS} rounds (range {min(ratios):.3f}-{max(ratios):.3f}, "
        f"floor {OVERHEAD_FLOOR}); median finalize {finalize_ms:.3f} ms "
        f"(max {1e3 * max(finalizes):.3f} ms, limit {FINALIZE_LIMIT_MS} ms)"
    )
    assert ratio >= OVERHEAD_FLOOR, (
        f"live collector cost {100 * (1 - ratio):.1f}% Msps "
        f"(allowed {100 * (1 - OVERHEAD_FLOOR):.0f}%)"
    )
    assert finalize_ms <= FINALIZE_LIMIT_MS, (
        f"LiveCollector.finalize took {finalize_ms:.3f} ms "
        f"(allowed {FINALIZE_LIMIT_MS} ms)"
    )
