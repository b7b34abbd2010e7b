"""Perf acceptance benchmark for the PR-10 serial scan engine.

Decodes the BENCH_PR6 workload (3 senders, 1 M samples, seed 20260806,
4-session demux) through the PR-6 headline serial configuration and the
PR-10 fast path, and writes ``BENCH_PR10.json`` at the repo root:

* **batched_d4** — the PR-6 configuration re-measured in this same run
  (``decimation=4``, complex64, 32768-sample blocks).
  Every ratio below uses this same-run baseline; shared-host drift
  between recording sessions routinely exceeds 20%.
* **batched_d8** — the decimation-8 product domain at the PR-6 block
  size.
* **batched_d8_deep** — the headline: decimation 8, 131072-sample
  blocks.  Block size is a latency/throughput knob, not a
  decision knob — the engine is block-size invariant by construction —
  so the fast path may legitimately run deeper blocks than the PR-6
  baseline config pinned for comparability (6.5 ms of stream per block
  at 20 Msps, still far below a frame's own duration).

Equivalence asserted here, not just speed:

* the decimation-8 frame lists are **bit-identical** across block
  sizes (same frames, order, payloads, band powers);
* the CRC-valid frame multiset — ``(channel, payload bits)`` — is
  identical across d4 in complex128, d4 and d8 in complex64, and
  matches the scheduled traffic.

The headline speed gate (batched d8 deep >= 1.5x the same-run PR-6
baseline) is asserted with the PR-6 noise floor convention: the JSON
records the exact measured ratio, the hard assert sits at 0.85x the
target so a loaded shared host cannot flake CI, and a fast path that
genuinely regressed still fails loudly.  Timing is interleaved
round-robin (baseline and contenders alternate every iteration) so
slow-host drift hits all configurations alike instead of biasing the
ratio.
"""

import gc
import json
import os
import time
from pathlib import Path

import numpy as np

from repro.network.traffic import StreamSender, StreamTraffic
from repro.stream import StreamEngine

DURATION_S = 0.05
SEED = 20260806
SAMPLE_RATE = 20e6
BASE_BLOCK = 32768
DEEP_BLOCK = 131072
REPEATS = 7

#: Headline acceptance: d8 deep vs the same-run PR-6 configuration.
TARGET_RATIO = 1.5
#: Noise floor applied to the hard assert (PR-6 convention): the exact
#: ratio is recorded, CI tolerates a loaded host, real regressions fail.
RATIO_FLOOR = TARGET_RATIO * 0.85

BASELINE = dict(
    demux=True,
    decimation=4,
    working_dtype=np.complex64,
)


def _capture():
    senders = [
        StreamSender(0, zigbee_channel=11, reading_interval_s=0.008),
        StreamSender(1, zigbee_channel=13, reading_interval_s=0.008),
        StreamSender(2, zigbee_channel=14, reading_interval_s=0.008),
    ]
    traffic = StreamTraffic(senders, duration_s=DURATION_S)
    samples, truth = traffic.capture(np.random.default_rng(SEED))
    return traffic, samples, truth


def _frame_fields(frames):
    """Full per-frame identity: equality here is bit-identity."""
    return [
        (
            f.zigbee_channel,
            f.preamble_index,
            tuple(f.bits),
            f.crc_ok,
            f.band_power,
        )
        for f in frames
    ]


def _crc_multiset(frames):
    """Decode-equivalence across product domains: channel + payload."""
    return sorted(
        (f.zigbee_channel, tuple(f.bits)) for f in frames if f.crc_ok
    )


def _interleaved_best(runners, repeats):
    """Best wall seconds per runner, round-robin, GC paused.

    Interleaving matters more than repeat count here: the headline
    number is a *ratio*, and alternating configurations every
    iteration turns slow-host drift into common-mode noise.
    """
    frames = {}
    for key, run in runners.items():
        run()  # warm-up: waveform caches, page faults, branch history
        frames[key] = run()  # second warm-up; keep the decode output
    best = {key: float("inf") for key in runners}
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(repeats):
            for key, run in runners.items():
                t0 = time.perf_counter()
                run()
                best[key] = min(best[key], time.perf_counter() - t0)
    finally:
        if gc_was_enabled:
            gc.enable()
    return frames, best


def _row(n_samples, frames, elapsed, block_size, **extra):
    return {
        "frames": len(frames),
        "crc_ok_frames": sum(1 for f in frames if f.crc_ok),
        "elapsed_seconds": round(elapsed, 4),
        "effective_msps": round(n_samples / elapsed / 1e6, 3),
        "x_realtime": round(n_samples / elapsed / SAMPLE_RATE, 4),
        "block_size": block_size,
        **extra,
    }


def test_bench_stream_pr10():
    root = Path(__file__).resolve().parent.parent
    traffic, samples, truth = _capture()
    n = samples.size
    cpu_count = os.cpu_count() or 1

    def make(block_size, **overrides):
        kwargs = {**BASELINE, **overrides}

        def run():
            engine = StreamEngine(**kwargs)
            return engine.run(traffic.blocks(samples, block_size))

        return run

    configs = {
        "batched_d4": (make(BASE_BLOCK), BASE_BLOCK),
        "batched_d8": (make(BASE_BLOCK, decimation=8), BASE_BLOCK),
        "batched_d8_deep": (make(DEEP_BLOCK, decimation=8), DEEP_BLOCK),
    }
    frames, best = _interleaved_best(
        {key: run for key, (run, _) in configs.items()}, REPEATS
    )

    # -- equivalence before speed ------------------------------------
    assert frames["batched_d4"], "baseline decode produced no frames"
    # Same product domain => bit-identical frames, not just same CRCs.
    d8_fields = _frame_fields(frames["batched_d8"])
    assert _frame_fields(frames["batched_d8_deep"]) == d8_fields

    # Across product domains: identical CRC-valid
    # payload multisets, all matching the scheduled traffic.
    crc_ref = _crc_multiset(frames["batched_d4"])
    c128_engine = StreamEngine(demux=True, decimation=4)
    c128_frames = c128_engine.run(traffic.blocks(samples, BASE_BLOCK))
    assert _crc_multiset(c128_frames) == crc_ref
    for key in ("batched_d8", "batched_d8_deep"):
        assert _crc_multiset(frames[key]) == crc_ref, key
    assert len(crc_ref) == len(truth)

    ratio_deep = best["batched_d4"] / best["batched_d8_deep"]
    ratio_d8 = best["batched_d4"] / best["batched_d8"]
    best_msps = n / min(best.values()) / 1e6

    report = {
        "pr": 10,
        "workload": {
            "senders": 3,
            "duration_s": DURATION_S,
            "samples": int(n),
            "scheduled_frames": len(truth),
            "crc_ok_frames": len(crc_ref),
            "seed": SEED,
            "mode": "demux (4 sessions)",
        },
        "protocol": (
            "interleaved round-robin best-of-N wall time, gc disabled, "
            "after two warm-up decodes per configuration; ratios use "
            "the same-run PR-6 configuration (decimation 4, "
            "32768-sample blocks) because shared-host speed drifts >20% "
            "between recording sessions; the headline assert applies "
            "the 0.85x noise floor recorded under 'gates'"
        ),
        "cpu_count": cpu_count,
    }
    for key, (_, block_size) in configs.items():
        extra = {}
        if key == "batched_d8_deep":
            extra = {
                "ratio_vs_baseline": round(ratio_deep, 3),
                "target_ratio": TARGET_RATIO,
            }
        elif key != "batched_d4":
            extra = {
                "ratio_vs_baseline": round(best["batched_d4"] / best[key], 3)
            }
        report[key] = _row(n, frames[key], best[key], block_size, **extra)
    report["gates"] = {
        "headline_ratio": round(ratio_deep, 3),
        "target_ratio": TARGET_RATIO,
        "assert_floor": round(RATIO_FLOOR, 3),
        "best_effective_msps": round(best_msps, 3),
        "previous_serial_record_msps": 7.208,
        "note": (
            "serial-vs-serial ratio, so no cpu-count condition; the "
            "floor absorbs shared-host noise, the JSON records the "
            "exact measured ratio"
        ),
    }
    (root / "BENCH_PR10.json").write_text(json.dumps(report, indent=2) + "\n")

    print()
    for key in configs:
        row = report[key]
        print(
            f"{key:18s} {row['elapsed_seconds']:7.4f} s  "
            f"{row['effective_msps']:6.2f} Msps  "
            f"{row['crc_ok_frames']} crc_ok"
        )
    print(
        f"headline ratio {ratio_deep:.3f}x (target {TARGET_RATIO}, "
        f"floor {RATIO_FLOOR:.3f})  d8@32k {ratio_d8:.3f}x  "
        f"best {best_msps:.2f} Msps"
    )

    assert ratio_deep >= RATIO_FLOOR, (
        f"batched d8 deep ratio {ratio_deep:.3f}x fell below the "
        f"{RATIO_FLOOR:.3f}x floor (target {TARGET_RATIO}x)"
    )
