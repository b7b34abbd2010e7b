"""Perf smoke benchmark for the PR-1 runtime (parallel MC + waveform cache).

Times a fixed 200-frame link sweep in two flavours and writes
``BENCH_PR1.json`` at the repo root; a third timed pass re-runs the
random-payload workload with the PR-2 telemetry registry enabled and
records the overhead comparison to ``BENCH_PR2.json`` (metrics-off must
stay within noise of the PR-1 numbers, metrics-on within the <5% budget
from ISSUE 2 — both asserted softly, with the JSON carrying the data):

* **random-payload** — every trial draws fresh payload bits, so the
  frame-waveform cache never hits; this measures the honest per-trial
  pipeline cost (and is the workload behind the recorded pre-PR
  baseline of 65.34 frames/sec on the 1-CPU reference container).
* **fixed-payload** — every trial resends the same frame (the paper's
  testbed pattern: fixed '01' payloads), so modulation amortizes to a
  cache lookup; pre-PR baseline 60.65 frames/sec on the same container.

The baselines were measured at commit eff6581 (the pre-runtime seed) on
the same machine that runs this benchmark suite; both workloads and
seeds are pinned so the comparison stays apples-to-apples.  Assertions
are deliberately soft (the suite must not fail on a slow or loaded
machine) — the JSON artifact carries the real numbers.
"""

import json
import time
from pathlib import Path

import numpy as np

from repro.core.link import SymBeeLink
from repro.experiments.common import measure_link
from repro.obs import REGISTRY, TRACER
from repro.runtime import default_jobs
from repro.zigbee.waveform_cache import FRAME_WAVEFORM_CACHE

#: Pre-PR throughput on the reference container (frames/sec, 1 CPU),
#: measured at the seed commit with the identical workloads below.
BASELINE_RANDOM_FPS = 65.34
BASELINE_FIXED_FPS = 60.65

N_FRAMES_PER_SNR = 100
BITS_PER_FRAME = 64
SNRS_DB = (0.0, 4.0)


def _link_at_snr(snr_db):
    return SymBeeLink(tx_power_dbm=-95.0 + snr_db)


def _run_random_payload():
    """200 trials with per-trial random payloads (cache-cold workload)."""
    frames = 0
    for i, snr in enumerate(SNRS_DB):
        stats = measure_link(
            _link_at_snr(snr),
            np.random.default_rng(20260806 + i),
            n_frames=N_FRAMES_PER_SNR,
            bits_per_frame=BITS_PER_FRAME,
        )
        frames += stats.frames
    return frames


def _run_fixed_payload():
    """200 trials resending one frame (cache-hot testbed workload)."""
    bits = np.random.default_rng(99).integers(0, 2, BITS_PER_FRAME)
    frames = 0
    for i, snr in enumerate(SNRS_DB):
        link = _link_at_snr(snr)
        for seed in np.random.SeedSequence(20260806 + i).spawn(N_FRAMES_PER_SNR):
            link.send_bits(bits, np.random.default_rng(seed), mac_sequence=7)
            frames += 1
    return frames


def _stage_seconds(workload):
    """Per-stage seconds of one traced pass, from the ``link.*`` spans.

    Spans are per-process, so with ``REPRO_JOBS`` > 1 only the stages
    that ran in this process are counted.
    """
    TRACER.reset()
    TRACER.enable()
    try:
        workload()
    finally:
        TRACER.disable()
    totals = TRACER.totals()
    TRACER.reset()
    return {
        name.removeprefix("link."): round(entry["seconds"], 4)
        for name, entry in totals.items()
        if name.startswith("link.")
    }


def _timed(workload):
    FRAME_WAVEFORM_CACHE.clear()
    workload()  # warm-up: JIT-free but fills caches and page-faults
    warm = FRAME_WAVEFORM_CACHE.cache_info()
    t0 = time.perf_counter()
    frames = workload()
    elapsed = time.perf_counter() - t0
    final = FRAME_WAVEFORM_CACHE.cache_info()
    return {
        "frames": frames,
        "elapsed_seconds": round(elapsed, 4),
        "frames_per_sec": round(frames / elapsed, 2),
        # An extra traced pass: the timed pass above stays untraced.
        "stage_seconds": _stage_seconds(workload),
        # Hit/miss deltas of the *timed* pass only: the warm-up pass has
        # already populated the cache, so a repeated-frame workload must
        # show pure hits here and a random-payload one pure misses.
        "waveform_cache": {
            "hits": final["hits"] - warm["hits"],
            "misses": final["misses"] - warm["misses"],
            "size": final["size"],
            "maxsize": final["maxsize"],
        },
    }


def _previous_bench(path):
    """The committed PR-1 numbers, read before this run overwrites them."""
    try:
        with open(path) as fh:
            report = json.load(fh)
        return {
            name: row["frames_per_sec"]
            for name, row in report.get("workloads", {}).items()
        }
    except (OSError, ValueError, KeyError):
        return {}


def test_bench_runtime_sweep():
    root = Path(__file__).resolve().parent.parent
    pr1_recorded = _previous_bench(root / "BENCH_PR1.json")

    random_payload = _timed(_run_random_payload)
    fixed_payload = _timed(_run_fixed_payload)

    # PR-2 telemetry overhead: the identical random-payload workload with
    # the metrics registry live (counters + histograms firing per frame).
    REGISTRY.enable()
    try:
        metrics_on = _timed(_run_random_payload)
    finally:
        REGISTRY.disable()
        REGISTRY.reset()

    report = {
        "workloads": {
            "random_payload": {
                **random_payload,
                "baseline_frames_per_sec": BASELINE_RANDOM_FPS,
                "speedup": round(
                    random_payload["frames_per_sec"] / BASELINE_RANDOM_FPS, 2
                ),
            },
            "fixed_payload": {
                **fixed_payload,
                "baseline_frames_per_sec": BASELINE_FIXED_FPS,
                "speedup": round(
                    fixed_payload["frames_per_sec"] / BASELINE_FIXED_FPS, 2
                ),
            },
        },
        "jobs": default_jobs(),
        "workload": {
            "snrs_db": list(SNRS_DB),
            "n_frames_per_snr": N_FRAMES_PER_SNR,
            "bits_per_frame": BITS_PER_FRAME,
        },
        "baseline_commit": "eff6581",
    }
    out = root / "BENCH_PR1.json"
    out.write_text(json.dumps(report, indent=2) + "\n")

    off_fps = random_payload["frames_per_sec"]
    on_fps = metrics_on["frames_per_sec"]
    pr2 = {
        "pr": 2,
        "workload": "random_payload (200 frames, see BENCH_PR1.json)",
        "metrics_off": random_payload,
        "metrics_on": metrics_on,
        "metrics_overhead_pct": round(100.0 * (off_fps / on_fps - 1.0), 2),
        "pr1_recorded_frames_per_sec": pr1_recorded,
        "metrics_off_vs_pr1_pct": round(
            100.0 * (off_fps / pr1_recorded["random_payload"] - 1.0), 2
        ) if pr1_recorded.get("random_payload") else None,
        "jobs": default_jobs(),
    }
    (root / "BENCH_PR2.json").write_text(json.dumps(pr2, indent=2) + "\n")

    print()
    for name, row in report["workloads"].items():
        print(
            f"{name}: {row['frames_per_sec']:.2f} frames/sec "
            f"({row['speedup']:.2f}x vs pre-PR)"
        )
    print(
        f"telemetry overhead: {off_fps:.2f} -> {on_fps:.2f} frames/sec "
        f"({pr2['metrics_overhead_pct']:+.1f}% when enabled)"
    )

    # Soft sanity floor only — CI machines vary; the JSON has the data.
    assert random_payload["frames"] == fixed_payload["frames"] == 200
    assert metrics_on["frames"] == 200
    # Cache accounting (hard): the fixed-payload timed pass must run
    # entirely out of the warm frame-waveform cache, and the random one
    # must never hit it — otherwise the two workloads aren't measuring
    # what their names claim.
    assert fixed_payload["waveform_cache"]["hits"] == 200
    assert fixed_payload["waveform_cache"]["misses"] == 0
    assert random_payload["waveform_cache"]["hits"] == 0
    assert random_payload["waveform_cache"]["misses"] == 200
    assert random_payload["frames_per_sec"] > 1.0
    assert fixed_payload["frames_per_sec"] >= random_payload["frames_per_sec"] * 0.8
    # Telemetry budget (soft): enabled metrics must not halve throughput.
    assert on_fps >= off_fps * 0.5
