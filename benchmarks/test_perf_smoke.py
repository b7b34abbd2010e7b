"""CI perf-smoke: the streaming fast path must not silently regress.

Two small guards CI can afford on every push:

* a **throughput floor** — decode a quarter of the BENCH_PR5 workload
  through the PR-10 headline configuration (``decimation=8``, fast
  kernels, complex64, batched scan kernel, 131072-sample blocks) and
  require a conservative Msps floor; and
* a **serial trend recorder** — time the PR-6 comparison configuration
  plus a **scan-path micro-benchmark** (pure-noise capture through the
  headline configuration, so the scan cascade is the whole decode), a
  **front-end micro-benchmark** (the headline four-channel
  decimation-8 complex64 channelizer bank over noise blocks, nothing
  else), a **derive micro-benchmark** (one decimation-8 complex64
  session's derived caches over noise products, nothing else) and a
  **scan micro-benchmark** (the same session's scans over those caches)
  and a **serve micro-benchmark** (noise blocks through a ``repro
  serve`` subprocess over the wire, one tenant, closed loop), and
  append the Msps figures, with the CPU count and the BLAS thread
  count they were measured under, to ``BENCH_SMOKE_TREND.jsonl`` (one
  JSON line per run, rendered by ``python -m repro bench trajectory``).
  The front-end, derive, scan and serve figures are scaled to reference
  host speed by the ledger's speed probe and gated by floors of their
  own, so a regression in any native kernel or in the wire shows up as
  that layer, not as a blur in the whole decode.

The floor is ~2.9x below the ~13 Msps the reference 1-CPU container
measures for the PR-10 configuration (see ``BENCH_PR10.json``), so an
ordinarily loaded CI runner passes with a wide margin while a real
regression — losing the decimating channelizer, the fused kernels,
the bank, or the batched scanner — drops throughput 2-5x past it.
Correctness rides along: the decode must deliver every scheduled
CRC-valid frame.
"""

import json
import os
import time
from pathlib import Path

import numpy as np
import pytest

from benchmarks.ledger.child import blas_threads
from benchmarks.ledger.common import speed_factor
from benchmarks.ledger.gateway import BLOCK as SERVE_BLOCK
from benchmarks.ledger.gateway import ENGINE as SERVE_ENGINE
from benchmarks.ledger.gateway import GatewayWorkload
from repro.core.decoder import SymBeeDecoder
from repro.network.traffic import StreamSender, StreamTraffic
from repro.stream import StreamEngine
from repro.stream.frontend import FastChannelBank
from repro.stream.session import StreamSession
from repro.zigbee.channels import (
    frequency_offset_hz,
    overlapping_zigbee_channels,
)

#: Conservative Msps floor for the fast-path decode.  Raised from 3.0
#: (PR-5 era, 8.4 Msps reference) now that the PR-10 scan engine
#: measures ~13 Msps on the reference container — the same ~2.9x
#: loaded-runner margin, at the new level.
FLOOR_MSPS = 4.5

BLOCK_SIZE = 32768
#: PR-10 headline block depth (block size is a latency knob, not a
#: decision knob — the engine is block-size invariant by construction).
DEEP_BLOCK = 131072

#: The PR-10 headline serial configuration (see BENCH_PR10.json).
FAST_PATH = dict(
    demux=True,
    decimation=8,
    working_dtype=np.complex64,
)

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


def derive_msps():
    """One session's derived caches over decimation-8 complex64 noise.

    Pushes :data:`DERIVE_PRODUCTS` noise products through a fresh
    session's derive layer in headline-sized blocks — ``extend``,
    ``extend_windowed`` and the trim the scan would leave behind, with
    no scan, header or body — and returns the input sample rate it keeps
    up with (products times the decimation, per second, in millions),
    best of five, scaled to reference host speed by the ledger's speed
    probe.
    """
    decimation = FAST_PATH["decimation"]
    block = DEEP_BLOCK // decimation
    rng = np.random.default_rng(20260806)
    products = (
        rng.standard_normal(DERIVE_PRODUCTS)
        + 1j * rng.standard_normal(DERIVE_PRODUCTS)
    ).astype(np.complex64)
    decoder = SymBeeDecoder(decimation=decimation)

    def derive():
        derived = StreamSession(decoder, dtype=np.complex64)._derived
        for lo in range(0, products.size, block):
            derived.extend(products[lo : lo + block])
            derived.extend_windowed()
            derived.trim(derived.win_end)

    derive()  # warm-up
    best = float("inf")
    for _ in range(5):
        t0 = time.perf_counter()
        derive()
        best = min(best, time.perf_counter() - t0)
    factor = speed_factor(5)
    return products.size * decimation / (best * factor) / 1e6


def scan_msps():
    """One session's scan over decimation-8 complex64 noise caches.

    Derives a fresh session's caches over :data:`DERIVE_PRODUCTS` noise
    products outside the timing (the push's derive pass and nothing
    else), then times the scans a push would run next:
    ``_scan_batched`` from the origin until no full chunk is left — the
    windowed caches, the hot-index walk, the header gate and its reject
    chains, one kernel call each.  A noise header that passes the gate
    is skipped one bit on, as its failed CRC would be.  Returns the
    input sample rate it keeps up with (products times the decimation,
    per second, in millions), best of five, scaled to reference host
    speed by the ledger's speed probe.
    """
    decimation = FAST_PATH["decimation"]
    rng = np.random.default_rng(20260806)
    products = (
        rng.standard_normal(DERIVE_PRODUCTS)
        + 1j * rng.standard_normal(DERIVE_PRODUCTS)
    ).astype(np.complex64)
    decoder = SymBeeDecoder(decimation=decimation)

    def derived():
        session = StreamSession(decoder, dtype=np.complex64)
        session._buf.append(products)
        session._derived.extend(products)
        return session

    def scan(session):
        while session._buf.end - session._origin >= session.scan_len:
            if session._state != "search":
                session._state = "search"
                session._origin = session._n0 + decoder.bit_period
                continue
            avail = session._buf.end - session._origin
            session._scan_batched(
                1 + (avail - session.scan_len) // session.stride
            )

    scan(derived())  # warm-up
    best = float("inf")
    for _ in range(5):
        session = derived()
        t0 = time.perf_counter()
        scan(session)
        best = min(best, time.perf_counter() - t0)
    factor = speed_factor(5)
    return products.size * decimation / (best * factor) / 1e6


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
                assert client.send_samples("smoke", block)["accepted"]

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


@pytest.mark.perf_smoke
def test_streaming_fast_path_throughput_floor():
    senders = [
        StreamSender(0, zigbee_channel=11, reading_interval_s=0.008),
        StreamSender(1, zigbee_channel=13, reading_interval_s=0.008),
        StreamSender(2, zigbee_channel=14, reading_interval_s=0.008),
    ]
    traffic = StreamTraffic(senders, duration_s=0.0125)
    samples, truth = traffic.capture(np.random.default_rng(20260806))
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
        f"(reference container: ~13; see BENCH_PR10.json)"
    )


@pytest.mark.perf_smoke
def test_serial_trend_record():
    senders = [
        StreamSender(0, zigbee_channel=11, reading_interval_s=0.008),
        StreamSender(1, zigbee_channel=13, reading_interval_s=0.008),
        StreamSender(2, zigbee_channel=14, reading_interval_s=0.008),
    ]
    traffic = StreamTraffic(senders, duration_s=0.0125)
    samples, truth = traffic.capture(np.random.default_rng(20260806))

    def decode():
        engine = StreamEngine(
            demux=True,
            decimation=4,
            working_dtype=np.complex64,
        )
        return engine.run(traffic.blocks(samples, BLOCK_SIZE))

    decode()  # warm-up
    serial_best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        decode()
        serial_best = min(serial_best, time.perf_counter() - t0)
    serial_msps = samples.size / serial_best / 1e6

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

    cpu_count = os.cpu_count() or 1
    entry = {
        "recorded_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "cpu_count": cpu_count,
        "blas_threads": blas_threads(),
        "serial_msps": round(serial_msps, 3),
        # Pure-noise decode through the PR-10 headline configuration:
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
    }
    with TREND_PATH.open("a") as fh:
        fh.write(json.dumps(entry) + "\n")
    print(
        f"\ntrend: serial {serial_msps:.2f} Msps, scan-only "
        f"{scan_noise_msps:.2f} Msps, bank {frontend:.1f} Msps, derive "
        f"{derive:.1f} Msps, scan "
        f"{scan:.1f} Msps, serve {serve:.1f} Msps on "
        f"{cpu_count} cpu(s), {entry['blas_threads']} BLAS thread(s) "
        f"-> {TREND_PATH.name}"
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
