"""The native scan walk against the Python walk, decision for decision.

The native session walks the hot index with one ``walk_*`` kernel call
(``walk_body.h``); :class:`tests.stream.session_reference.
KernelWalkSession` makes that call over Python-held caches, and
:class:`tests.stream.session_reference.ReferenceSession` walks them in
Python, the way the receiver did before.
On crafted windowed caches both must leave the same session state
(``_state``, ``_origin``, ``_n0``, ``_data_start``, ``_coherence``,
``_total_bits``, ``header_rejects``) and, with the metrics registry on,
the same ``decoder.preamble.*`` / ``stream.session.*`` counters and the
same coherence histogram, float total included -- in float32 and
float64, from any origin.  The caches crowd every gate threshold
(:func:`adversarial_caches`) and carry NaN and infinities in the
candidate coherence and concentration, hot positions sit at chunk
edges, planted valid header words end reject chains, and the buffered
stream may end inside a header.  A walk may run in two calls, the
second after more products arrive (a capture left pending by the first
is gated first), and the last call may be the end of the stream, which
also gates the tail after the last full chunk.
"""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.frame import MAX_DATA_BITS, VERSION
from repro.obs.metrics import REGISTRY
from tests.stream.session_reference import (
    KernelWalkSession,
    ReferenceSession,
    adversarial_caches,
    load_caches,
)

DTYPES = (np.complex64, np.complex128)
#: Frame types the header gate accepts.
VALID_TYPES = (0, 1, 2, 4, 5, 6)
METRICS = ("decoder.preamble.", "stream.session.")


def _make(cls, geometry, dtype, caches, votes, buffered):
    bp, window, tau, tau_sync, stride_bits, folds, cmin, slack = geometry
    decoder = SimpleNamespace(
        bit_period=bp, window=window, tau=tau, tau_sync=tau_sync,
        rotation=None,
    )
    session = cls(
        decoder,
        scan_stride_bits=stride_bits,
        folds=folds,
        coherence_slack=slack,
        coherence_min=cmin,
        dtype=dtype,
    )
    load_caches(session, *caches, votes=votes, buffered=buffered)
    return session


def _state(session):
    return (
        session._state,
        session._origin,
        session._n0,
        session._data_start,
        session._coherence,
        session._total_bits,
        session.header_rejects,
    )


def _scan(session):
    """One walk, over the full chunks buffered from the origin."""
    avail = session._buf.end - session._origin
    session._scan_batched(
        max(avail - session.scan_len + session.stride, 0) // session.stride
    )


def _walks(session, held, final):
    """A walk with ``held`` products still to come, then one after them.

    The first call leaves the search, a capture pending on its header,
    or a body; the second runs, as a push would, unless a body waits.
    ``final`` makes the last call the end of the stream.  Returns the
    state and ``n0`` the first call left (None for a single call).
    """
    first = None
    if held:
        _scan(session)
        first = session._state, session._n0
        if session._state == "body":
            return first
        session._buf.skip(held)
    session._final = final
    _scan(session)
    return first


def _walk(cls, setup, origin, held, final, metered):
    """State (and metrics, if ``metered``) after the walks from ``origin``."""
    geometry, dtype, caches, votes, buffered = setup
    session = _make(
        cls, geometry, dtype, caches, votes, max(buffered - held, 0)
    )
    held = min(held, buffered)
    session._origin = origin
    if not metered:
        first = _walks(session, held, final)
        return (first, *_state(session)), None
    REGISTRY.reset()
    REGISTRY.enable()
    try:
        first = _walks(session, held, final)
        snapshot = REGISTRY.snapshot()
    finally:
        REGISTRY.disable()
        REGISTRY.reset()
    counters = {
        name: value
        for name, value in snapshot["counters"].items()
        if name.startswith(METRICS)
    }
    return (first, *_state(session)), (
        counters,
        snapshot["histograms"].get("decoder.preamble.coherence"),
    )


def _header_bits(frame_type, length):
    word = (VERSION << 20) | (frame_type << 16) | (length << 8)
    return [(word >> (23 - b)) & 1 for b in range(24)]


def _setup(rng, geometry, dtype, n_blocks, hostile, plants, buffered_cut):
    """Crafted caches, vote flags and the buffered end for one case.

    ``hostile`` NaN/inf values go into the candidate coherence and the
    concentration; ``plants`` header words (valid but for lengths one
    past the limit) are written at the data start of as many hot
    positions, each bit's votes on the edge of ``tau_sync`` (the rest of
    the vote stream is coin flips, whose header words are nearly always
    rejected);
    ``buffered_cut`` products are cut off the end of the stream a real
    session would have buffered with these windows.
    """
    bp, window, tau, tau_sync, stride_bits, folds, cmin, slack = geometry
    s = stride_bits * bp
    floor = window - tau
    n = n_blocks * s + 1
    rdtype = np.float32 if dtype == np.complex64 else np.float64
    counts, cohcand, conc = adversarial_caches(
        rng, n, s, floor, cmin, slack, dtype=rdtype
    )
    for _ in range(hostile):
        p = rng.integers(n)
        if rng.integers(2):
            cohcand[p] = rng.choice([np.nan, np.inf, -np.inf])
        else:
            conc[p] = rng.choice([np.nan, np.inf])
    full = n + (folds - 1) * bp + window - 1
    votes = rng.integers(0, 2, full + 24 * bp + window).astype(bool)
    hot = ((conc >= 0.6) & (cohcand >= cmin)).nonzero()[0]
    for n0 in rng.choice(hot, min(plants, hot.size), replace=False):
        start = n0 + folds * bp
        # Lengths on both sides of the limit (one past it is a reject).
        length = int(rng.choice([0, MAX_DATA_BITS, MAX_DATA_BITS + 1,
                                 rng.integers(0, MAX_DATA_BITS)]))
        for b, bit in enumerate(_header_bits(rng.choice(VALID_TYPES), length)):
            # Votes one either side of the bit threshold.
            lo = start + b * bp
            votes[lo : lo + window] = False
            votes[lo : lo + tau_sync - 1 + bit] = True
    buffered = max(full - buffered_cut, 0)
    return (geometry, dtype, (counts, cohcand, conc), votes, buffered), hot


def _origins(rng, hot, s, n, count):
    """Origins putting hot positions at, and one off, chunk edges."""
    origins = [0]
    for h in rng.choice(hot, min(count, hot.size), replace=False):
        k = int(rng.integers(0, 3))
        origins += [max(int(h) - k * s + d, 0) for d in (-s, -1, 0, 1)]
    origins.append(int(rng.integers(n)))
    return origins


def _check(setup, origin, held=0, final=False):
    """Native and reference agree, metered and not; returns the state."""
    case = (origin, held, final)
    native, _ = _walk(KernelWalkSession, setup, *case, False)
    reference, _ = _walk(ReferenceSession, setup, *case, False)
    assert native == reference, case
    native_on, native_metrics = _walk(KernelWalkSession, setup, *case, True)
    reference_on, reference_metrics = _walk(
        ReferenceSession, setup, *case, True
    )
    # Telemetry never switches a decision.
    assert native_on == native
    assert reference_on == reference
    assert native_metrics == reference_metrics, case
    return native


geometries = st.tuples(
    st.sampled_from([2, 3, 5, 8, 20, 40]),  # bit period
    st.integers(1, 12),                  # window (clipped to the period)
    st.integers(0, 2),                   # tau (clipped below window / 2)
    st.integers(1, 12),                  # tau_sync (clipped to the window)
    st.integers(1, 3),                   # scan stride in bits
    st.sampled_from([1, 2, 4]),          # folds
    st.sampled_from([(0.5, 0.2), (0.7, 0.3)]),
)


def _geometry(raw):
    bp, window, tau, tau_sync, stride_bits, folds, (cmin, slack) = raw
    window = min(window, bp)
    tau = min(tau, (window - 1) // 2)
    tau_sync = min(tau_sync, window)
    return bp, window, tau, tau_sync, stride_bits, folds, cmin, slack


@pytest.mark.parametrize("dtype", DTYPES)
@settings(max_examples=60, deadline=None)
@given(
    raw=geometries,
    seed=st.integers(0, 2**32 - 1),
    n_blocks=st.integers(1, 40),
    hostile=st.integers(0, 12),
    plants=st.integers(0, 6),
    buffered_cut=st.sampled_from([0, 0, 1, 7, 40, 200]),
    held=st.sampled_from([0, 0, 1, 7, 40, 200, 900]),
    final=st.booleans(),
)
def test_native_walk_matches_python_walk(
    dtype, raw, seed, n_blocks, hostile, plants, buffered_cut, held, final
):
    geometry = _geometry(raw)
    rng = np.random.default_rng(seed)
    setup, hot = _setup(
        rng, geometry, dtype, n_blocks, hostile, plants, buffered_cut
    )
    s = geometry[4] * geometry[0]
    for origin in _origins(rng, hot, s, n_blocks * s + 1, 3):
        _check(setup, origin, held, final)


@pytest.mark.parametrize("dtype", DTYPES)
def test_native_walk_reaches_every_outcome(dtype):
    # Long crafted streams from many origins: the agreement above must
    # cover reject chains, accepted headers, headers cut off by the
    # buffered end, pending headers gated by the next call (accepted,
    # or rejected and the walk going on), hits in the stream's tail,
    # hostile values in hit chunks, and plain misses.
    rng = np.random.default_rng(2027)
    states = []
    tail_moves = 0
    for geometry in [
        (4, 3, 1, 2, 1, 4, 0.5, 0.2),
        (20, 10, 1, 5, 1, 4, 0.7, 0.3),
        (5, 5, 2, 3, 2, 2, 0.7, 0.3),
        (3, 1, 0, 1, 3, 1, 0.5, 0.2),
    ]:
        mid_header = (23 * geometry[0] + geometry[1]) // 2
        for cut in (0, 60):
            setup, hot = _setup(rng, geometry, dtype, 60, 20, 4, cut)
            s = geometry[4] * geometry[0]
            for origin in _origins(rng, hot, s, 60 * s + 1, 12):
                for held in (0, mid_header):
                    last = _check(setup, origin, held, final=False)
                    tail = _check(setup, origin, held, final=True)
                    states += [last, tail]
                    tail_moves += last != tail
    reached = {state for _, state, *_ in states}
    assert reached == {"search", "pending", "body"}
    resumed = [
        (state, n0 == first[1])
        for first, state, _, n0, *_ in states
        if first and first[0] == "pending"
    ]
    # A pending header accepted, and one rejected with the walk going on
    # to a later capture.
    assert ("body", True) in resumed
    assert {state for state, same in resumed if not same} >= {
        "pending", "body"
    }
    assert max(rejects for *_, rejects in states) >= 3
    assert tail_moves > 0


@pytest.mark.parametrize(
    "origin, extra_chunks, extra_buffered",
    [(0, 1, 0), (0, 0, 1), (-1, 0, 0)],
    ids=["chunk-past-windows", "buffered-past-caches", "origin-below-trim"],
)
def test_walk_refuses_scans_outside_the_caches(
    origin, extra_chunks, extra_buffered
):
    # The kernel reads the caches by pointer, so a scan reaching past
    # them is refused before the call.
    geometry = (4, 3, 1, 2, 1, 4, 0.5, 0.2)
    rng = np.random.default_rng(5)
    setup, _ = _setup(rng, geometry, np.complex64, 10, 0, 0, 0)
    geometry, dtype, caches, votes, buffered = setup
    session = _make(
        KernelWalkSession, geometry, dtype, caches, votes, buffered
    )
    session._derived.trim(1)
    session._origin = origin + 1
    chunks = 1 + (buffered - session._origin - session.scan_len) // 4
    session._buf.skip(extra_buffered)
    with pytest.raises(IndexError, match="outside the caches"):
        session._scan_batched(chunks + extra_chunks)
