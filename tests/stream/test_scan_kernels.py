"""Scan-kernel registry: identity, invariance, pooled equality.

The scanner contract, asserted rather than assumed:

* ``batched`` (the hot-index event walk) is **bit-identical** to the
  ``grouped`` reference — same frames, same order, same float
  diagnostics — on every product domain it runs over (decimation 4
  and 8), because both kernels reach every decision from the same
  cache floats and the walk skips only chunks the dense cascade
  provably rejects.
* that holds with the metrics registry on as well: the same
  ``decoder.preamble.*`` outcome counters and coherence histogram, the
  same ``stream.session.*`` counters, and the same frames as with the
  registry off (telemetry must not switch what the scanner decides).
* on crafted float32 caches crowded onto every gate threshold, the
  walk reaches the dense cascade's decisions and outcome counts from
  any origin — the float32 threshold rounding the argument for the
  walk's exactness leans on is exercised, not assumed.
* the reject chain on pure noise at the capture floor — the idle
  regime, where nearly every hit is a false preamble whose header is
  rejected — matches between kernels frame for frame and reject for
  reject, whole-stream and under random cuts.
* the batched kernel is block-size invariant at decimation 8, the
  deepest product domain: adversarial fixed sizes plus random cuts all
  reproduce one reference decode.
* the persistent worker pool replays the serial decode byte for byte
  with the batched kernel — pooling is a transport, not a decoder.
"""

from collections import Counter

import numpy as np
import pytest

from repro.core.decoder import SymBeeDecoder
from repro.network.traffic import StreamSender, StreamTraffic
from repro.obs.metrics import REGISTRY
from repro.stream.engine import StreamEngine
from repro.stream.scan import DEFAULT_SCAN_KERNEL, SCAN_KERNELS
from repro.stream.session import StreamSession

BLOCK_SIZES = (64, 1000, 4096, 9973)

#: Decimated fast path, the configuration the scanner was built for.
FAST = dict(demux=True, mode="fast", working_dtype=np.complex64)

#: Metric namespaces the scanner and the session state machine feed.
SCAN_METRICS = ("decoder.preamble.", "stream.session.")


def _decode_fields(frames):
    return [frame.decode_fields() for frame in frames]


def _random_cuts(engine, samples, seed):
    """Decode ``samples`` pushed in random-size blocks (1..20000)."""
    cuts = np.random.default_rng(seed)
    frames = []
    lo = 0
    while lo < samples.size:
        size = int(cuts.integers(1, 20000))
        frames.extend(engine.process_block(samples[lo : lo + size]))
        lo += size
    frames.extend(engine.finish())
    return frames


@pytest.fixture(scope="module")
def demux_case():
    senders = [
        StreamSender(0, zigbee_channel=11),
        StreamSender(1, zigbee_channel=13),
        StreamSender(2, zigbee_channel=14),
    ]
    traffic = StreamTraffic(senders, duration_s=0.025)
    samples, truth = traffic.capture(np.random.default_rng(42))
    assert truth
    return traffic, samples


@pytest.fixture(scope="module")
def noise_case():
    """1 M samples of receiver noise at the capture floor, no sender."""
    traffic = StreamTraffic([StreamSender(0)], duration_s=0.05)
    return traffic.front_end.capture(
        [],
        traffic.total_samples,
        rng=np.random.default_rng(7),
        include_noise=traffic.include_noise,
    )


def _run(demux_case, block_size=65536, **overrides):
    traffic, samples = demux_case
    engine = StreamEngine(**{**FAST, **overrides})
    return engine.run(traffic.blocks(samples, block_size))


@pytest.fixture(scope="module")
def grouped_d8(demux_case):
    frames = _run(demux_case, decimation=8, scan_kernel="grouped")
    assert frames
    return _decode_fields(frames)


@pytest.mark.parametrize("decimation", [4, 8])
def test_batched_is_bit_identical_to_grouped(demux_case, decimation):
    grouped = _run(demux_case, decimation=decimation, scan_kernel="grouped")
    batched = _run(demux_case, decimation=decimation, scan_kernel="batched")
    assert grouped
    assert _decode_fields(batched) == _decode_fields(grouped)


@pytest.mark.parametrize("block_size", BLOCK_SIZES)
def test_batched_d8_is_block_size_invariant(
    demux_case, grouped_d8, block_size
):
    frames = _run(
        demux_case, block_size, decimation=8, scan_kernel="batched"
    )
    assert _decode_fields(frames) == grouped_d8


def test_batched_d8_random_cuts_match(demux_case, grouped_d8, rng):
    _, samples = demux_case
    engine = StreamEngine(**FAST, decimation=8, scan_kernel="batched")
    frames = _random_cuts(engine, samples, rng.integers(1 << 31))
    assert _decode_fields(frames) == grouped_d8


def _metered(decode):
    """``decode()`` with the registry on: frames plus scan metrics."""
    REGISTRY.enable()
    REGISTRY.reset()
    try:
        frames = decode()
        snapshot = REGISTRY.snapshot()
    finally:
        REGISTRY.disable()
        REGISTRY.reset()
    counters = {
        name: value
        for name, value in snapshot["counters"].items()
        if name.startswith(SCAN_METRICS)
    }
    return frames, counters, snapshot["histograms"]["decoder.preamble.coherence"]


def _assert_metered_parity(decode):
    """Kernels agree with the registry on; return grouped's counters."""
    grouped, grouped_counters, grouped_hist = _metered(lambda: decode("grouped"))
    batched, batched_counters, batched_hist = _metered(lambda: decode("batched"))
    assert grouped
    assert _decode_fields(batched) == _decode_fields(grouped)
    assert batched_counters == grouped_counters
    assert batched_hist == grouped_hist
    # Telemetry must not switch the outcome of the decision path.
    assert _decode_fields(batched) == _decode_fields(decode("batched"))
    return grouped_counters


@pytest.mark.parametrize("cuts", ["blocks", "random"])
@pytest.mark.parametrize("decimation", [4, 8])
def test_registry_on_batched_matches_grouped(demux_case, decimation, cuts):
    _, samples = demux_case

    def decode(kernel):
        if cuts == "blocks":
            return _run(demux_case, decimation=decimation, scan_kernel=kernel)
        engine = StreamEngine(**FAST, decimation=decimation, scan_kernel=kernel)
        return _random_cuts(engine, samples, 1234)

    counters = _assert_metered_parity(decode)
    assert counters["decoder.preamble.hit"] > 0
    assert counters["decoder.preamble.miss.concentration"] > 0
    assert counters["stream.session.header_rejects"] > 0


def test_registry_on_miss_split_matches_grouped(demux_case):
    # At full rate some chunks miss the count and coherence floors too
    # (the decimated domains clear both on nearly every chunk), so this
    # exercises every branch of the walk's bulk miss accounting.
    traffic, samples = demux_case

    def decode(kernel):
        engine = StreamEngine(demux=False, scan_kernel=kernel)
        return engine.run(traffic.blocks(samples, 9973))

    counters = _assert_metered_parity(decode)
    for outcome in ("hit", "miss.count_floor", "miss.coherence",
                    "miss.concentration"):
        assert counters[f"decoder.preamble.{outcome}"] > 0, outcome


@pytest.mark.parametrize(
    "kernel, cuts",
    [("grouped", "random"), ("batched", "whole"), ("batched", "random")],
)
def test_noise_reject_chain_matches_grouped(noise_case, kernel, cuts):
    def decode(kernel, cuts):
        engine = StreamEngine(**FAST, decimation=8, scan_kernel=kernel)
        if cuts == "random":
            frames = _random_cuts(engine, noise_case, 99)
        else:
            frames = engine.process_block(noise_case)
            frames.extend(engine.finish())
        rejects = [s["header_rejects"] for s in engine.stats()["sessions"]]
        return _decode_fields(frames), rejects

    reference = decode("grouped", "whole")
    # The idle regime: the false-preamble/header-reject chain runs on
    # every session, many times over.
    assert min(reference[1]) >= 10
    assert decode(kernel, cuts) == reference


def _dense_cascade(caches, o, chunks, s, floor, coh_min, slack):
    """The grouped kernel's per-chunk arithmetic over windowed caches.

    Returns ``(n0, coherence, outcomes)`` for the first accepted chunk
    (``n0`` absolute), or ``(None, None, outcomes)`` when every chunk
    misses or hits late.
    """
    counts, cohcand, conc = caches
    outcomes = Counter()
    for c in range(chunks):
        lo = o + c * s
        sl = slice(lo, lo + s + 1)
        if counts[sl].max() < floor:
            outcomes["miss.count_floor"] += 1
            continue
        coh_c = cohcand[sl]
        best = float(coh_c.max())
        if best < coh_min:
            outcomes["miss.coherence"] += 1
            continue
        kept = coh_c >= max(best - slack, coh_min)
        conc_c = np.where(kept, conc[sl], -np.inf)
        best_conc = float(conc_c.max())
        if best_conc < 0.6:
            outcomes["miss.concentration"] += 1
            continue
        cand = (conc_c >= max(best_conc - slack, 0.6)).nonzero()[0]
        breaks = (np.diff(cand) > 1).nonzero()[0]
        end = cand[breaks[0]] if breaks.size else cand[-1]
        n0 = int(cand[0] + np.argmax(counts[lo + cand[0] : lo + end + 1]))
        outcomes["hit"] += 1
        if n0 < s:
            return lo + n0, float(coh_c[n0]), outcomes
    return None, None, outcomes


def _adversarial_caches(rng, n, s, floor, coh_min, slack):
    """float32 windowed caches crowded onto every threshold boundary.

    Each stride block draws a best coherence ``b`` and concentration
    ``bc`` and fills its positions with them plus values on and one ulp
    either side of ``coherence_min``, ``b - slack``, 0.6 and
    ``bc - slack`` — exactly where comparing a float64 threshold instead
    of its float32 rounding flips a decision.  A third of the blocks are
    quiet (no concentration reaches 0.6, so no hot position) and a
    third weak (coherence capped at ``f32(coherence_min)``), so the walk
    also skips long hot-free runs and gates chunks that can fail.
    """
    f32 = np.float32

    def near(v):
        v = f32(v)
        return [np.nextafter(v, f32(0)), v, np.nextafter(v, f32(2))]

    counts = rng.integers(floor - 2, floor + 3, n).astype(np.int32)
    cohcand = np.empty(n, f32)
    conc = np.empty(n, f32)
    for lo in range(0, n, s):
        m = min(s, n - lo)
        kind = rng.integers(3)
        b = f32(coh_min) if kind == 1 else f32(rng.uniform(coh_min, 1.0))
        bc = f32(rng.uniform(0.6, 1.0))
        coh_pool = np.array(
            [b, *near(coh_min), *near(b - slack), rng.uniform(0.3, b)], f32
        )
        conc_pool = np.array(
            [bc, *near(0.6), *near(bc - slack), rng.uniform(0.3, bc)], f32
        )
        if kind == 2:
            conc_pool = conc_pool[conc_pool < 0.6]
        cohcand[lo : lo + m] = rng.choice(coh_pool[coh_pool <= b], m)
        conc[lo : lo + m] = rng.choice(conc_pool, m)
    cohcand[counts < floor] = -np.inf
    return counts, cohcand, conc


@pytest.mark.parametrize("metered", [True, False])
@pytest.mark.parametrize("coherence_min, slack", [(0.5, 0.2), (0.7, 0.3)])
def test_walk_matches_dense_cascade_on_threshold_boundaries(
    coherence_min, slack, metered
):
    # Both 0.7 and ``x - 0.3`` (for float32 x in [0.8, 1)) round *down*
    # in float32: the fused gate's nudged threshold then differs from
    # the hot filter's, and the concentration threshold's rounding
    # decides survivors.  (``x - 0.2`` always rounds up there.)
    session = StreamSession(
        SymBeeDecoder(decimation=8),
        scan_stride_bits=1,
        coherence_slack=slack,
        coherence_min=coherence_min,
        dtype=np.complex64,
    )
    derived = session._derived
    s = session.stride
    floor = derived._capture_floor
    n = 400 * s + 1
    rng = np.random.default_rng(11)
    caches = _adversarial_caches(rng, n, s, floor, coherence_min, slack)
    windowed = (derived.count_win, derived.cohcand_win, derived.conc_win)
    for buf, values in zip(windowed, caches):
        buf.alloc(n)[:] = values
    derived._index(0, *caches)
    derived.extend_windowed = lambda: None  # the caches are all there is
    if metered:
        REGISTRY.enable()
    # Origins around hot positions probe the walk's first-chunk
    # arithmetic: a hot position at the very edge of a chunk.
    hot = rng.choice(derived.hot_pos, 100)
    origins = [0, *(h - s + d for h in hot for d in (-1, 0, 1) if h > s)]
    accepts = 0
    for o in origins:
        chunks = (n - 1 - o) // s
        REGISTRY.reset()
        session._state = "search"
        session._origin = o
        session._scan_batched(chunks)
        n0, coherence, outcomes = _dense_cascade(
            caches, o, chunks, s, floor, coherence_min, slack
        )
        if n0 is None:
            assert session._state == "search"
            assert session._origin == o + chunks * s
        else:
            accepts += 1
            assert session._state == "header"
            assert (session._n0, session._coherence) == (n0, coherence)
        if metered:
            counters = REGISTRY.snapshot()["counters"]
            assert {
                name[len("decoder.preamble."):]: value
                for name, value in counters.items()
                if name.startswith("decoder.preamble.")
            } == {k: v for k, v in outcomes.items() if v}
    assert accepts > 100


def test_pooled_matches_serial_batched_d8(demux_case, grouped_d8):
    traffic, samples = demux_case
    engine = StreamEngine(**FAST, decimation=8, scan_kernel="batched")
    frames = engine.run(traffic.blocks(samples, 65536), jobs=2)
    assert _decode_fields(frames) == grouped_d8


def test_unknown_scan_kernel_rejected():
    with pytest.raises(ValueError, match="unknown scan kernel"):
        StreamEngine(demux=True, decimation=4, scan_kernel="vectorized")


def test_registry_shape():
    assert DEFAULT_SCAN_KERNEL in SCAN_KERNELS
    assert set(SCAN_KERNELS) == {"grouped", "batched"}
    for name, spec in SCAN_KERNELS.items():
        assert spec.name == name
        assert spec.batched == (name == "batched")


def test_stats_report_scan_kernel(demux_case):
    traffic, samples = demux_case
    engine = StreamEngine(**FAST, decimation=8, scan_kernel="grouped")
    engine.run(traffic.blocks(samples, 65536))
    stats = engine.stats()
    assert stats["scan_kernel"] == "grouped"
    assert stats["decimation"] == 8
