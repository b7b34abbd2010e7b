"""The stream scanner against its golden fixtures.

The hot-index walk is the receiver's only scanner.  Its reference is
``tests/stream/golden/scan_golden.json``: decodes frozen while the dense
``grouped`` reference scanner still existed and produced them
identically (see :mod:`tests.stream.golden`).  The contract, asserted
rather than assumed:

* **bit identity** — on every product domain the walk runs over
  (decimation 4 and 8 in complex64, decimation 4 in complex128, the
  full-rate wideband receiver) the frames, their order and float
  diagnostics, and each session's header rejects are the frozen ones.
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
  rejected — reproduces the frozen frames and per-session rejects,
  whole-stream and under random cuts, and the walk's bulk reject count
  reaches the ``stream.session.header_rejects`` counter in full.
* decimation 8, the deepest product domain, is block-size invariant:
  adversarial fixed sizes plus random cuts all reproduce the fixture.
"""

from collections import Counter

import numpy as np
import pytest

from repro.core.decoder import SymBeeDecoder
from repro.obs.metrics import REGISTRY
from repro.stream.engine import StreamEngine
from repro.stream.session import StreamSession
from tests.stream.golden import (
    CASES,
    decode,
    demux_capture,
    encode_frames,
    encode_histogram,
    header_rejects,
    load,
    metered,
    noise_capture,
)
from tests.stream.walk_reference import adversarial_caches, load_caches

BLOCK_SIZES = (64, 1000, 4096, 9973)


@pytest.fixture(scope="module")
def golden():
    return load()


@pytest.fixture(scope="module")
def demux_case():
    return demux_capture()


@pytest.fixture(scope="module")
def noise_case():
    return noise_capture()


def _assert_golden(golden, case, samples, cut_seed=None):
    """Registry off, then on: both reproduce ``case``'s fixture.

    Returns the registry-on counters.
    """
    expected = golden[case]
    frames, engine = decode(case, samples, cut_seed)
    assert encode_frames(frames) == expected["frames"]
    assert header_rejects(engine) == expected["header_rejects"]
    (frames_on, engine_on), counters, coherence = metered(
        lambda: decode(case, samples, cut_seed)
    )
    # Telemetry must not switch the outcome of the decision path.
    assert encode_frames(frames_on) == encode_frames(frames)
    assert header_rejects(engine_on) == expected["header_rejects"]
    assert counters == expected["counters"]
    assert encode_histogram(coherence) == expected["coherence"]
    return counters


@pytest.mark.parametrize("decimation", [4, 8])
def test_batched_is_bit_identical_to_grouped(golden, demux_case, decimation):
    frames, engine = decode(f"d{decimation}", demux_case)
    assert frames
    assert encode_frames(frames) == golden[f"d{decimation}"]["frames"]
    assert header_rejects(engine) == golden[f"d{decimation}"]["header_rejects"]


def test_d4_complex128_matches_golden(golden, demux_case):
    _assert_golden(golden, "d4_c128", demux_case)


@pytest.mark.parametrize("block_size", BLOCK_SIZES)
def test_batched_d8_is_block_size_invariant(golden, demux_case, block_size):
    engine = StreamEngine(**CASES["d8"][1])
    blocks = (
        demux_case[lo : lo + block_size]
        for lo in range(0, demux_case.size, block_size)
    )
    assert encode_frames(engine.run(blocks)) == golden["d8"]["frames"]


def test_batched_d8_random_cuts_match(golden, demux_case, rng):
    frames, _ = decode("d8", demux_case, cut_seed=rng.integers(1 << 31))
    assert encode_frames(frames) == golden["d8"]["frames"]


@pytest.mark.parametrize("cuts", ["blocks", "random"])
@pytest.mark.parametrize("decimation", [4, 8])
def test_registry_on_batched_matches_grouped(
    golden, demux_case, decimation, cuts
):
    # Random cuts change only the push sizes, so the fast-mode totals
    # (float32 coherences, whose float64 sum is exact in any order)
    # match the fixture too.
    counters = _assert_golden(
        golden,
        f"d{decimation}",
        demux_case,
        cut_seed=1234 if cuts == "random" else None,
    )
    assert counters["decoder.preamble.hit"] > 0
    assert counters["decoder.preamble.miss.concentration"] > 0
    assert counters["stream.session.header_rejects"] > 0


def test_registry_on_miss_split_matches_grouped(golden, demux_case):
    # At full rate some chunks miss the count and coherence floors too
    # (the decimated domains clear both on nearly every chunk), so this
    # exercises every branch of the walk's bulk miss accounting.
    counters = _assert_golden(golden, "full_rate", demux_case)
    for outcome in ("hit", "miss.count_floor", "miss.coherence",
                    "miss.concentration"):
        assert counters[f"decoder.preamble.{outcome}"] > 0, outcome


def test_metered_decode_counts_each_emitted_bit_once(demux_case):
    # Only the body decode feeds the bit diagnostics: headers gated on
    # the way (rejected false preambles included) add nothing, and an
    # emitted frame's header bits are counted once.
    REGISTRY.enable()
    try:
        frames, _ = decode("full_rate", demux_case)
        snapshot = REGISTRY.snapshot()
    finally:
        REGISTRY.disable()
        REGISTRY.reset()
    n_bits = sum(frame.n_bits for frame in frames)
    assert n_bits > 0
    assert snapshot["counters"]["decoder.bits_decoded"] == n_bits
    assert snapshot["histograms"]["decoder.vote_margin"]["count"] == n_bits


@pytest.mark.parametrize(
    "kernel, cuts", [("batched", "whole"), ("batched", "random")]
)
def test_noise_reject_chain_matches_grouped(golden, noise_case, kernel, cuts):
    # ``kernel`` is the one name the engine's scan_kernel keyword takes.
    expected = golden["noise_d8"]
    # The idle regime: the false-preamble/header-reject chain runs on
    # every session, many times over.
    assert min(expected["header_rejects"]) >= 10
    frames, engine = decode(
        "noise_d8",
        noise_case,
        cut_seed=99 if cuts == "random" else None,
        scan_kernel=kernel,
    )
    assert encode_frames(frames) == expected["frames"]
    assert header_rejects(engine) == expected["header_rejects"]


@pytest.mark.parametrize("cuts", ["whole", "random"])
def test_noise_header_rejects_counted_in_bulk(golden, noise_case, cuts):
    counters = _assert_golden(
        golden, "noise_d8", noise_case, cut_seed=99 if cuts == "random" else None
    )
    assert counters["stream.session.header_rejects"] == sum(
        golden["noise_d8"]["header_rejects"]
    )


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
    caches = adversarial_caches(rng, n, s, floor, coherence_min, slack)
    # No product is buffered, so every accept waits on its header.
    load_caches(session, *caches, buffered=0)
    if metered:
        REGISTRY.enable()
    # Origins around hot positions probe the walk's first-chunk
    # arithmetic: a hot position at the very edge of a chunk.
    hot = rng.choice(derived.hot.view(derived.hot.base, derived.hot.end), 100)
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


def test_unknown_scan_kernel_rejected():
    for kernel in ("grouped", "vectorized"):
        with pytest.raises(ValueError, match="unknown scan kernel"):
            StreamEngine(demux=True, decimation=4, scan_kernel=kernel)


def test_stats_report_scan_kernel(golden, demux_case):
    # The keyword takes the scanner's one name and changes nothing, so
    # the stats no longer report a scanner.
    frames, engine = decode("d8", demux_case, scan_kernel="batched")
    assert encode_frames(frames) == golden["d8"]["frames"]
    stats = engine.stats()
    assert "scan_kernel" not in stats
    assert stats["decimation"] == 8
