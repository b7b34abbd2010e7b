"""CI perf-smoke: the streaming fast path must not silently regress.

Two small guards CI can afford on every push:

* a **throughput floor** — decode a quarter of the stream workload (3
  senders, 1 M samples, seed 20260806) through the headline
  configuration (``decimation=8``, complex64, 131072-sample blocks) and
  require a conservative Msps floor; and
* a **serial trend recorder** — time the decimation-4 comparison
  configuration, then the **headline ratio** (the headline
  configuration against that one, interleaved on the whole stream
  workload, gated at 0.85 x 1.5) and **streaming against batch** (the
  full-rate engine in 16384-sample blocks against one whole-capture
  call, gated at 3x),
  plus a **scan-path micro-benchmark** (pure-noise capture through the
  headline configuration, so the scan cascade is the whole decode), a
  **front-end micro-benchmark** (the headline four-channel
  decimation-8 complex64 channelizer bank over noise blocks, nothing
  else), a **derive micro-benchmark** and a **scan micro-benchmark**
  (the derive and scan stage counters of one decimation-8 complex64
  session's native pushes over noise products),
  a **serve micro-benchmark** (noise blocks through a ``repro
  serve`` subprocess over the wire, one tenant, closed loop) and an
  **interference micro-benchmark** (802.11g OFDM bursts drawn the way
  the fleet's ``DeliveryTable`` calibration draws them), and
  append the Msps figures and ratios, with the CPU count and the BLAS
  thread count they were measured under, to ``BENCH_SMOKE_TREND.jsonl``
  (one JSON line per run, rendered by ``python -m benchmarks.trajectory``).
  The front-end, derive, scan, serve and interference figures are
  scaled to reference host speed by the ledger's speed probe and gated
  by floors of their own, so a regression in any native kernel, in the
  wire or in the OFDM synthesis shows up as that layer, not as a blur
  in the whole decode or in the fleet's set-up.

The floor is ~2.9x below the ~13 Msps a 1-CPU reference container
measured for the headline configuration when it was set (the frozen
``BENCH_PR10.json`` record; the trend file has the current figures), so
an ordinarily loaded CI runner passes with a wide margin while a real
regression — losing the decimating channelizer, the native bank or
the native session — drops throughput 2-5x past it.  Correctness rides
along: the decode must deliver every scheduled CRC-valid frame.
"""

import gc
import json
import os
import statistics
import time
from pathlib import Path

import numpy as np
import pytest

from benchmarks.ledger.child import blas_threads
from benchmarks.ledger.common import speed_factor
from benchmarks.ledger.fleet import CALIBRATION
from benchmarks.ledger.gateway import BLOCK as SERVE_BLOCK
from benchmarks.ledger.gateway import CAPTURE_S as GATEWAY_SECONDS
from benchmarks.ledger.gateway import ENGINE as SERVE_ENGINE
from benchmarks.ledger.gateway import SENDERS as GATEWAY_SENDERS
from benchmarks.ledger.gateway import TENANTS as GATEWAY_TENANTS
from benchmarks.ledger.gateway import GatewayWorkload
from repro.core.decoder import SymBeeDecoder
from repro.gateway.core import GatewayCore
from repro.gateway.loadgen import build_workloads, drive_core, verify
from repro.network.traffic import StreamSender, StreamTraffic
from repro.obs.metrics import REGISTRY
from repro.sim.fastpath import interference_model_for
from repro.stream import StreamEngine, batch_decode_stream
from repro.stream.frontend import FastChannelBank
from repro.stream.session import StreamSession
from repro.zigbee.channels import (
    frequency_offset_hz,
    overlapping_zigbee_channels,
)

#: Conservative Msps floor for the fast-path decode: ~2.9x below the
#: ~13 Msps the headline configuration measured on a 1-CPU reference
#: container when the floor was set.
FLOOR_MSPS = 4.5

BLOCK_SIZE = 32768
#: Headline block depth (block size is a latency knob, not a decision
#: knob — the engine is block-size invariant by construction).
DEEP_BLOCK = 131072

#: The headline serial configuration.
FAST_PATH = dict(
    demux=True,
    decimation=8,
    working_dtype=np.complex64,
)
#: The comparison configuration, timed in :data:`BLOCK_SIZE` blocks.
D4 = dict(FAST_PATH, decimation=4)

#: Seconds of the whole stream workload; the floor and the serial trend
#: decode a quarter of it.
STREAM_SECONDS = 0.05
#: Interleaved rounds timing the headline ratio and streaming vs batch.
REPEATS = 7
#: The headline configuration must decode the whole stream workload at
#: least 1.5x faster than :data:`D4`; the assert sits at 0.85x that, so
#: a loaded host does not flake while a lost fast path still fails.
HEADLINE_RATIO_FLOOR = 0.85 * 1.5
#: Full-rate streaming in STREAM_BLOCK blocks may take at most this
#: many times the whole-capture batch call (a soft gate: it reads
#: ~0.55), and must keep up with a sanity floor of input Msps.
STREAM_VS_BATCH_CEILING = 3.0
STREAM_FLOOR_MSPS = 0.05
STREAM_BLOCK = 16384

TREND_PATH = Path(__file__).resolve().parent.parent / "BENCH_SMOKE_TREND.jsonl"

#: Conservative floor for the front-end micro-benchmark, in input Msps
#: at reference host speed (see :func:`frontend_msps`).  The numpy/BLAS
#: bank measured 95-143 on the reference 2-CPU host, the native kernel
#: that replaced it 263-313; the floor sits above the former, ~1.9x
#: below the latter.
FRONTEND_FLOOR_MSPS = 150.0
#: Noise blocks the front-end micro-benchmark filters (one 5 M-sample
#: ledger capture in headline blocks).
FRONTEND_BLOCKS = 38
#: Conservative floor for the derive micro-benchmark, in input Msps at
#: reference host speed (see :func:`derive_msps`).  The native kernel
#: measures ~700 on the reference 2-CPU host, the numpy derive it
#: replaced ~250; the floor sits ~2.3x below the former, above the
#: latter.
DERIVE_FLOOR_MSPS = 300.0
#: Products the derive micro-benchmark pushes (32 headline blocks).
DERIVE_PRODUCTS = 32 * (DEEP_BLOCK // 8)
#: Conservative floor for the scan micro-benchmark, in input Msps at
#: reference host speed (see :func:`scan_msps`).  The Python hot-index
#: walk measured 840-1110 on the reference 2-CPU host, the native walk
#: that replaced it 1640-1860; the floor sits at the top of the former,
#: ~1.5x below the latter.
SCAN_FLOOR_MSPS = 1100.0
#: Conservative floor for the serve micro-benchmark, in input Msps at
#: reference host speed (see :func:`serve_msps`).  On the reference
#: 2-CPU host the asyncio stream wire measured 31-67 (median ~46), the
#: zero-copy wire that replaced it 52-89 (median ~64): the spread is
#: wide, so the floor sits below both, ~2.5x under the latter.  It
#: catches a wire that collapses (a lost ``TCP_NODELAY`` stalls each
#: reply for tens of milliseconds), not a drift.
SERVE_FLOOR_MSPS = 25.0
#: Noise blocks per timed serve pass (the ledger's gateway block size).
SERVE_BLOCKS = 64
#: Conservative floor for the interference micro-benchmark, in burst
#: Msps at reference host speed (see :func:`interference_msps`).  One
#: dict grid and one IFFT per OFDM symbol measured ~2.5 on the reference
#: 2-CPU host, the batched grid that replaced it 19-26; the floor sits
#: ~3x above the former, ~2.5x below the latter.
INTERFERENCE_FLOOR_MSPS = 8.0
#: Captures per timed interference pass, each as long as one capture of
#: the fleet ledger's calibration (a 16-data-bit SymBee frame with its
#: lead-in and tail).
INTERFERENCE_CAPTURES = 64
INTERFERENCE_CAPTURE_SAMPLES = 52290
#: The in-process gateway drive with the registry on must keep at least
#: this share of its Msps with the registry off (the median per-round
#: ratio; see :func:`test_metering_cost`).  On the reference 2-CPU host
#: per-frame recording in Python measured 0.863-0.875 (three runs), the
#: native binning that replaced it 0.918-0.939 (nine runs); the floor
#: sits midway, ~3% below the latter.
METERING_RATIO_FLOOR = 0.89
#: Interleaved off/on rounds of the metering gate; odd, so the median is
#: one round's.
METERING_ROUNDS = 31


def _capture(duration_s):
    """The stream workload: 3 senders on channels 11, 13 and 14."""
    senders = [
        StreamSender(i, zigbee_channel=ch, reading_interval_s=0.008)
        for i, ch in enumerate((11, 13, 14))
    ]
    traffic = StreamTraffic(senders, duration_s=duration_s)
    samples, truth = traffic.capture(np.random.default_rng(20260806))
    return traffic, samples, truth


def _interleaved_best(runners, repeats):
    """Best wall seconds per runner over ``repeats`` rounds, GC paused.

    Each runner is warmed up twice, then every round times each runner
    once in turn, so slow-host drift hits all of them alike and their
    ratios hold.
    """
    for run in runners.values():
        run()
        run()
    best = dict.fromkeys(runners, float("inf"))
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
    return best


def frontend_msps():
    """The headline demux front end over complex64 noise blocks.

    Times :data:`FRONTEND_BLOCKS` headline-sized noise blocks through a
    fresh four-channel decimation-8 complex64
    :class:`FastChannelBank` — channelizer, lagged products and product
    rotation, with no session behind it — and returns the input sample
    rate it keeps up with (in millions per second), best of five, scaled
    to reference host speed by the ledger's speed probe.
    """
    rng = np.random.default_rng(20260806)
    blocks = [
        (
            rng.standard_normal(DEEP_BLOCK) + 1j * rng.standard_normal(DEEP_BLOCK)
        ).astype(np.complex64)
        for _ in range(FRONTEND_BLOCKS)
    ]
    offsets = [frequency_offset_hz(ch, 1) for ch in overlapping_zigbee_channels(1)]

    def bank():
        front_end = FastChannelBank(
            offsets,
            20e6,
            16,
            decimation=FAST_PATH["decimation"],
            working_dtype=np.complex64,
        )
        for block in blocks:
            front_end.process_block(block)

    bank()  # warm-up
    best = float("inf")
    for _ in range(5):
        t0 = time.perf_counter()
        bank()
        best = min(best, time.perf_counter() - t0)
    factor = speed_factor(5)
    return FRONTEND_BLOCKS * DEEP_BLOCK / (best * factor) / 1e6


def _session_stage_seconds():
    """Best-of-five derive and scan seconds of one session over noise.

    Pushes :data:`DERIVE_PRODUCTS` decimation-8 complex64 noise products
    through a fresh session in headline-sized blocks, one native
    ``session_push`` call each, and sums the call's own stage counters
    (:attr:`StreamSession.stage_ns`): *derive* is the products' unit
    phasors, vote counts and fold prefixes; *scan* the windowed caches,
    the hot-index walk and the header gate with its reject chains.  The
    bodies of noise captures decode as they would in a receiver (their
    failed CRC resumes the search one bit on) and count as neither.
    Returns the best of five passes per stage, after a warm-up.
    """
    decimation = FAST_PATH["decimation"]
    block = DEEP_BLOCK // decimation
    rng = np.random.default_rng(20260806)
    products = (
        rng.standard_normal(DERIVE_PRODUCTS)
        + 1j * rng.standard_normal(DERIVE_PRODUCTS)
    ).astype(np.complex64)
    decoder = SymBeeDecoder(decimation=decimation)

    def stages():
        session = StreamSession(decoder, dtype=np.complex64)
        derive = scan = 0
        for lo in range(0, products.size, block):
            session.push_products(products[lo : lo + block])
            derive_ns, scan_ns, _ = session.stage_ns
            derive += derive_ns
            scan += scan_ns
        session.finish()
        return derive * 1e-9, scan * 1e-9

    stages()  # warm-up
    passes = [stages() for _ in range(5)]
    return min(p[0] for p in passes), min(p[1] for p in passes)


def derive_msps():
    """One session's derived caches over decimation-8 complex64 noise.

    The derive stage of :func:`_session_stage_seconds`, as the input
    sample rate it keeps up with (products times the decimation, per
    second, in millions), scaled to reference host speed by the ledger's
    speed probe.
    """
    derive, _ = _session_stage_seconds()
    factor = speed_factor(5)
    return DERIVE_PRODUCTS * FAST_PATH["decimation"] / (derive * factor) / 1e6


def scan_msps():
    """One session's scans over decimation-8 complex64 noise.

    The scan stage of :func:`_session_stage_seconds` (windowed caches,
    hot-index walk, header gate and reject chains), as the input sample
    rate it keeps up with, scaled like :func:`derive_msps`.
    """
    _, scan = _session_stage_seconds()
    factor = speed_factor(5)
    return DERIVE_PRODUCTS * FAST_PATH["decimation"] / (scan * factor) / 1e6


def serve_msps():
    """One tenant's noise blocks through ``repro serve``, over the wire.

    Spawns ``python -m repro serve --port 0`` the way the ledger's
    gateway workload does, admits one tenant with the ledger's gateway
    engine and times :data:`SERVE_BLOCKS` complex64
    noise blocks of the ledger's gateway size through
    :meth:`GatewayClient.send_samples`, each waiting for its reply.
    Returns the input sample rate it keeps up with (in millions per
    second), best of five passes after a warm-up, scaled to reference
    host speed by the ledger's speed probe.
    """
    rng = np.random.default_rng(20260806)
    blocks = [
        (
            rng.standard_normal(SERVE_BLOCK)
            + 1j * rng.standard_normal(SERVE_BLOCK)
        ).astype(np.complex64)
        for _ in range(SERVE_BLOCKS)
    ]
    server = GatewayWorkload(seed=0, work=None)
    server.setup(time.monotonic())
    try:
        client = server.client
        client.hello("smoke", SERVE_ENGINE)

        def send():
            for block in blocks:
                reply = client.send_samples("smoke", block)
                assert reply["type"] == "accepted"

        send()  # warm-up
        best = float("inf")
        for _ in range(5):
            t0 = time.perf_counter()
            send()
            best = min(best, time.perf_counter() - t0)
        client.finish("smoke")
    finally:
        server.close()  # bye, SIGTERM, and a clean exit is required
    factor = speed_factor(5)
    return SERVE_BLOCKS * SERVE_BLOCK / (best * factor) / 1e6


def interference_msps():
    """WiFi OFDM interference, drawn the way the calibration draws it.

    Times :data:`INTERFERENCE_CAPTURES` burst lists from the fleet
    ledger calibration's most crowded interferer column
    (:func:`interference_model_for` at its ``max_interferers``) over
    calibration-length captures — burst timing, OFDM synthesis and
    power scaling, with no mixing, capture or decode — and returns the
    burst samples synthesized per second (in millions), best of five,
    scaled to reference host speed by the ledger's speed probe.
    """
    model = interference_model_for(
        CALIBRATION.max_interferers,
        CALIBRATION.interferer_duty,
        CALIBRATION.interferer_sir_db,
    )

    def synthesize():
        rng = np.random.default_rng(20260806)
        return sum(
            burst.waveform.size
            for _ in range(INTERFERENCE_CAPTURES)
            for burst in model.generate(INTERFERENCE_CAPTURE_SAMPLES, 1e-9, rng)
        )

    synthesize()  # warm-up
    best = float("inf")
    for _ in range(5):
        t0 = time.perf_counter()
        samples = synthesize()
        best = min(best, time.perf_counter() - t0)
    factor = speed_factor(5)
    return samples / (best * factor) / 1e6


@pytest.mark.perf_smoke
def test_streaming_fast_path_throughput_floor():
    traffic, samples, truth = _capture(STREAM_SECONDS / 4)
    assert truth

    def decode():
        engine = StreamEngine(**FAST_PATH)
        return engine.run(traffic.blocks(samples, DEEP_BLOCK))

    decode()  # warm-up: waveform caches, BLAS pools, page faults
    best = float("inf")
    frames = []
    for _ in range(3):
        t0 = time.perf_counter()
        frames = decode()
        best = min(best, time.perf_counter() - t0)

    crc_ok = sum(1 for f in frames if f.crc_ok)
    msps = samples.size / best / 1e6
    print(f"\nfast-path smoke: {msps:.2f} Msps (floor {FLOOR_MSPS}), "
          f"{crc_ok}/{len(truth)} frames")
    assert crc_ok == len(truth)
    assert msps >= FLOOR_MSPS, (
        f"streaming fast path at {msps:.2f} Msps, floor {FLOOR_MSPS} Msps "
        f"(1-CPU reference container: ~13)"
    )


@pytest.mark.perf_smoke
def test_serial_trend_record():
    traffic, samples, _ = _capture(STREAM_SECONDS / 4)

    def decode():
        engine = StreamEngine(**D4)
        return engine.run(traffic.blocks(samples, BLOCK_SIZE))

    decode()  # warm-up
    serial_best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        decode()
        serial_best = min(serial_best, time.perf_counter() - t0)
    serial_msps = samples.size / serial_best / 1e6

    # The whole stream workload: the headline configuration against D4,
    # and the full-rate engine streaming against one batch call.
    whole, whole_samples, _ = _capture(STREAM_SECONDS)
    best = _interleaved_best(
        {
            "d4": lambda: StreamEngine(**D4).run(
                whole.blocks(whole_samples, BLOCK_SIZE)
            ),
            "headline": lambda: StreamEngine(**FAST_PATH).run(
                whole.blocks(whole_samples, DEEP_BLOCK)
            ),
            "batch": lambda: batch_decode_stream(whole_samples, demux=True),
            "stream": lambda: StreamEngine(demux=True).run(
                whole.blocks(whole_samples, STREAM_BLOCK)
            ),
        },
        REPEATS,
    )
    headline_ratio = best["d4"] / best["headline"]
    stream_vs_batch = best["stream"] / best["batch"]
    stream_msps = whole_samples.size / best["stream"] / 1e6

    # Scan-path micro-benchmark: a pure-noise capture makes the
    # idle-listening preamble search the entire decode, so this number
    # isolates the scan cascade (the receiver's dominant cost at
    # 20 Msps) from frame decoding.
    rng = np.random.default_rng(20260806)
    noise = (
        rng.standard_normal(samples.size) + 1j * rng.standard_normal(samples.size)
    ).astype(np.complex64) * 0.01

    def scan_noise():
        engine = StreamEngine(**FAST_PATH)
        frames = []
        for lo in range(0, noise.size, DEEP_BLOCK):
            frames.extend(engine.process_block(noise[lo : lo + DEEP_BLOCK]))
        frames.extend(engine.finish())
        return frames

    assert not [f for f in scan_noise() if f.crc_ok]  # warm-up: noise only
    scan_best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        scan_noise()
        scan_best = min(scan_best, time.perf_counter() - t0)
    scan_noise_msps = noise.size / scan_best / 1e6

    frontend = frontend_msps()
    derive = derive_msps()
    scan = scan_msps()
    serve = serve_msps()
    interference = interference_msps()

    cpu_count = os.cpu_count() or 1
    entry = {
        "recorded_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "cpu_count": cpu_count,
        "blas_threads": blas_threads(),
        "serial_msps": round(serial_msps, 3),
        # Pure-noise decode through the headline configuration:
        # the scan cascade with no frames to decode.
        "scan_noise_msps": round(scan_noise_msps, 3),
        # The headline four-channel d8 complex64 channelizer bank over
        # noise, at reference host speed (see frontend_msps).
        "frontend_msps": round(frontend, 3),
        # One d8 complex64 session's derive layer over noise, at
        # reference host speed (see derive_msps).
        "derive_msps": round(derive, 3),
        # One d8 complex64 session's scan layer over noise caches, at
        # reference host speed (see scan_msps).
        "scan_msps": round(scan, 3),
        # One tenant's noise blocks through `repro serve` over the wire,
        # at reference host speed (see serve_msps).
        "serve_msps": round(serve, 3),
        # OFDM interference bursts as the fleet calibration draws them,
        # at reference host speed (see interference_msps).
        "interference_msps": round(interference, 3),
        # D4 time over headline time on the whole stream workload.
        "headline_ratio": round(headline_ratio, 3),
        # Full-rate streaming time over whole-capture batch time.
        "stream_vs_batch": round(stream_vs_batch, 3),
    }
    with TREND_PATH.open("a") as fh:
        fh.write(json.dumps(entry) + "\n")
    print(
        f"\ntrend: serial {serial_msps:.2f} Msps, scan-only "
        f"{scan_noise_msps:.2f} Msps, bank {frontend:.1f} Msps, derive "
        f"{derive:.1f} Msps, scan "
        f"{scan:.1f} Msps, serve {serve:.1f} Msps, interference "
        f"{interference:.1f} Msps, headline ratio {headline_ratio:.3f}x, "
        f"stream/batch {stream_vs_batch:.2f}x on "
        f"{cpu_count} cpu(s), {entry['blas_threads']} BLAS thread(s) "
        f"-> {TREND_PATH.name}"
    )
    assert headline_ratio >= HEADLINE_RATIO_FLOOR, (
        f"headline ratio {headline_ratio:.3f}x, floor "
        f"{HEADLINE_RATIO_FLOOR:.3f}x"
    )
    assert stream_vs_batch < STREAM_VS_BATCH_CEILING, (
        f"streaming at {stream_vs_batch:.2f}x the batch time, ceiling "
        f"{STREAM_VS_BATCH_CEILING}x"
    )
    assert stream_msps > STREAM_FLOOR_MSPS, (
        f"full-rate streaming at {stream_msps:.2f} Msps, floor "
        f"{STREAM_FLOOR_MSPS} Msps"
    )
    assert frontend >= FRONTEND_FLOOR_MSPS, (
        f"front-end layer at {frontend:.1f} Msps, floor "
        f"{FRONTEND_FLOOR_MSPS} Msps"
    )
    assert derive >= DERIVE_FLOOR_MSPS, (
        f"derive layer at {derive:.1f} Msps, floor {DERIVE_FLOOR_MSPS} Msps"
    )
    assert scan >= SCAN_FLOOR_MSPS, (
        f"scan layer at {scan:.1f} Msps, floor {SCAN_FLOOR_MSPS} Msps"
    )
    assert serve >= SERVE_FLOOR_MSPS, (
        f"serve wire at {serve:.1f} Msps, floor {SERVE_FLOOR_MSPS} Msps"
    )
    assert interference >= INTERFERENCE_FLOOR_MSPS, (
        f"OFDM interference at {interference:.1f} Msps, floor "
        f"{INTERFERENCE_FLOOR_MSPS} Msps"
    )


@pytest.mark.perf_smoke
def test_metering_cost():
    """What ``serve``'s always-on registry costs the gateway decode.

    The ledger's ``gateway`` workload (four tenants, the gateway engine,
    complex64) through an in-process :class:`GatewayCore` with
    :func:`drive_core`, with the registry off and on in interleaved
    rounds, alternating which goes first; the gate reads the median of
    the per-round ratios (metered Msps over plain Msps), so load that
    drifts across the run hits both sides alike.
    """
    workloads = build_workloads(
        GATEWAY_TENANTS, GATEWAY_SENDERS, 20260806,
        duration_s=GATEWAY_SECONDS, engine=SERVE_ENGINE, dtype="complex64",
    )

    def drive(metered):
        for workload in workloads:
            workload.delivered = []
        REGISTRY.reset()
        if metered:
            REGISTRY.enable()
        try:
            with GatewayCore(
                engine=SERVE_ENGINE, max_tenants=len(workloads)
            ) as core:
                return drive_core(core, workloads, block_size=SERVE_BLOCK)
        finally:
            REGISTRY.disable()
            REGISTRY.reset()

    for metered in (False, True):  # warm-up, and the decode delivers
        drive(metered)
        rows, exact = verify(workloads)
        assert exact, rows
    seconds = {False: [], True: []}
    ratios = []
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        for index in range(METERING_ROUNDS):
            order = (True, False) if index % 2 else (False, True)
            timed = {metered: drive(metered) for metered in order}
            for metered, wall in timed.items():
                seconds[metered].append(wall)
            ratios.append(timed[False] / timed[True])
    finally:
        if gc_was_enabled:
            gc.enable()
    ratio = statistics.median(ratios)
    plain_ms, metered_ms = (
        1e3 * statistics.median(seconds[metered]) for metered in (False, True)
    )
    print(
        f"\nmetering smoke: registry off {plain_ms:.1f} ms, on "
        f"{metered_ms:.1f} ms (medians of {METERING_ROUNDS}); median "
        f"metered/plain Msps ratio {ratio:.3f} (range {min(ratios):.3f}-"
        f"{max(ratios):.3f}, floor {METERING_RATIO_FLOOR})"
    )
    assert ratio >= METERING_RATIO_FLOOR, (
        f"metering cost {100 * (1 - ratio):.1f}% Msps "
        f"(allowed {100 * (1 - METERING_RATIO_FLOOR):.0f}%)"
    )
