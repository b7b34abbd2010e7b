"""The native stream session against the numpy/Python reference session.

One ``session_push`` call per push does what
:class:`tests.stream.session_reference.ReferenceSession` does in numpy
and Python: derive, walk, header gate, body votes, CRC, band power,
trims.  Pushed the same products in the same pieces, the two must emit
the same frames (every field, latency included), keep the same state,
counters and horizon, hold byte-identical caches after every push, and
-- with the metrics registry on -- record the same metrics: on real
channel products (frames, leaks, header rejects; float32 streams
crossing the float prefixes' seams), and on hostile values in small
geometries (signed zeros, NaN, infinities, overflowing squares).
"""

import cmath
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.decoder import SymBeeDecoder
from repro.gateway.loadgen import build_workloads
from repro.obs.metrics import REGISTRY
from repro.obs.trace import TRACER
from repro.stream.frontend import FastChannelBank
from repro.stream.session import STATES, StreamSession
from repro.zigbee.channels import frequency_offset_hz
from tests.stream.session_reference import ReferenceSession, native_caches

DTYPES = (np.complex64, np.complex128)
HOSTILE = (
    0.0, -0.0, 1.0, -1.0, np.nan, np.inf, -np.inf,
    1e-45, -1e-45, 1e-40, 5e-324, -1e-310, 1e-20,
    1e38, -3e38, 1e154, 1e200,
)
METRICS = ("decoder.", "stream.session.")
#: The post-compensation zero phase of a decoder with a CFO rotation.
ROTATED = cmath.exp(0.8j * cmath.pi)


def _bytes(values):
    """Raw bytes of an array, with every NaN made the same NaN."""
    values = np.array(values, ndmin=1)
    if values.dtype.kind == "c":
        values = values.view(values.real.dtype)
    if values.dtype.kind == "f":
        values[np.isnan(values)] = np.nan
    return values.tobytes()


def _frame(frame):
    fields = list(frame.decode_fields()) + [frame.latency_products]
    # NaN band powers compare by position, not payload.
    fields[9] = _bytes(np.float64(fields[9]))
    return tuple(fields)


def _state(session):
    if isinstance(session, StreamSession):
        native = session._native
        state = (
            STATES[native.state], native.origin, native.n0,
            native.data_start, native.total_bits, native.coherence,
        )
    else:
        state = (
            session._state, session._origin, session._n0,
            session._data_start, session._total_bits, session._coherence,
        )
    return state, session.horizon, session.stats()


def _caches(session):
    caches = (
        native_caches(session) if isinstance(session, StreamSession)
        else session.caches()
    )
    return [(base, _bytes(values)) for base, values in caches]


def _metrics():
    snapshot = REGISTRY.snapshot()
    return {
        kind: {
            name: value for name, value in snapshot[kind].items()
            if name.startswith(METRICS)
        }
        for kind in ("counters", "histograms")
    }


def _run(session, pieces, check_caches):
    """Frames, states (and caches) after every push, then the finish."""
    trail = []
    with np.errstate(all="ignore"):
        for piece in pieces:
            frames = [_frame(f) for f in session.push_products(piece)]
            trail.append((frames, _state(session)))
            if check_caches:
                trail.append(_caches(session))
        frames = [_frame(f) for f in session.finish()]
    trail.append((frames, session.horizon, session.stats()))
    return trail


def _agree(make, pieces, check_caches=True):
    """Native and reference agree, metered and not."""
    trails = {}
    for metered in (False, True):
        for cls in (StreamSession, ReferenceSession):
            REGISTRY.reset()
            if metered:
                REGISTRY.enable()
            try:
                trails[cls, metered] = (
                    _run(make(cls), pieces, check_caches),
                    _metrics() if metered else None,
                )
            finally:
                REGISTRY.disable()
                REGISTRY.reset()
    native, reference = (trails[cls, False] for cls in
                         (StreamSession, ReferenceSession))
    assert native == reference
    assert trails[StreamSession, True] == trails[ReferenceSession, True]
    # Telemetry never switches a decision.
    assert trails[StreamSession, True][0] == native[0]
    return native[0]


def _cuts(rng, n, pieces):
    cuts = np.sort(rng.integers(0, n + 1, pieces - 1))
    return np.split(np.arange(n), cuts)


def _channel_products(samples, decimation, dtype, channel=13):
    bank = FastChannelBank(
        [frequency_offset_hz(channel, 1)], 20e6, 16,
        decimation=decimation, working_dtype=dtype,
    )
    blocks = [bank.process_block(samples), bank.flush()]
    return np.concatenate([b[0].products for b in blocks])


@pytest.fixture(scope="module")
def tenant_capture():
    engine = {"demux": True, "zigbee_channels": [13], "decimation": 4}
    return build_workloads(
        1, 16, 2027, duration_s=0.07, engine=engine, dtype=np.complex64
    )[0].samples


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("decimation", [4, 8])
def test_native_session_matches_reference_on_channel_products(
    tenant_capture, decimation, dtype
):
    products = _channel_products(tenant_capture, decimation, dtype)
    decoder = SymBeeDecoder(cfo_correction=None, decimation=decimation)
    rng = np.random.default_rng(decimation)
    pieces = [products[i] for i in _cuts(rng, products.size, 12)]

    def make(cls):
        return cls(decoder, zigbee_channel=13, capture_tau=5, dtype=dtype)

    trail = _agree(make, pieces)
    emitted = [f for frames, *_ in trail[::2] for f in frames]
    assert sum(f[7] for f in emitted) >= 10        # CRC-valid frames
    assert trail[-1][2]["header_rejects"] > 0


def test_float32_seams_match_reference(tenant_capture):
    # ~3.5e5 decimation-4 products: the float prefixes restart twice
    # (every 2^17), and windows straddle each restart.
    products = _channel_products(tenant_capture, 4, np.complex64)
    assert products.size > 2 * (1 << 17)
    decoder = SymBeeDecoder(cfo_correction=None, decimation=4)
    rng = np.random.default_rng(17)
    pieces = [products[i] for i in _cuts(rng, products.size, 40)]

    def make(cls):
        return cls(decoder, zigbee_channel=13, capture_tau=5,
                   dtype=np.complex64)

    _agree(make, pieces, check_caches=False)
    # One push decodes the same frames.
    whole = StreamSession(decoder, zigbee_channel=13, capture_tau=5,
                          dtype=np.complex64)
    frames = whole.push_products(products) + whole.finish()
    cut = make(StreamSession)
    pieced = [f for p in pieces for f in cut.push_products(p)] + cut.finish()
    assert [f.decode_fields() for f in frames] == [
        f.decode_fields() for f in pieced
    ]


@pytest.mark.parametrize("dtype", DTYPES)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_native_session_matches_reference_on_hostile_values(dtype, data):
    folds = data.draw(st.sampled_from([1, 2, 4]))
    bit_period = data.draw(st.integers(1, 6))
    window = data.draw(st.integers(1, bit_period))
    decoder = SimpleNamespace(
        bit_period=bit_period,
        window=window,
        tau=data.draw(st.integers(0, (window - 1) // 2)),
        tau_sync=data.draw(st.integers(1, window)),
        rotation=data.draw(st.sampled_from([None, ROTATED])),
    )
    stride_bits = data.draw(st.integers(1, 3))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    n = data.draw(st.integers(0, 3000))
    run = data.draw(st.sampled_from([1, 4, 16, 64]))
    phase = np.repeat(rng.uniform(-np.pi, np.pi, n // run + 1), run)[:n]
    products = rng.exponential(1.0, n) * np.exp(
        1j * (phase + rng.normal(0.0, 0.3, n))
    )
    for i in rng.integers(0, max(n, 1), n // 50 if n else 0):
        products[i] = complex(rng.choice(HOSTILE), rng.choice(HOSTILE))
    with np.errstate(all="ignore"):
        products = products.astype(dtype)
    pieces = [products[i] for i in _cuts(rng, n, data.draw(st.integers(1, 9)))]

    def make(cls):
        return cls(decoder, scan_stride_bits=stride_bits, folds=folds,
                   dtype=dtype)

    _agree(make, pieces)


def test_stage_times_are_child_spans_under_the_tracer(tenant_capture):
    # The push times its own stages; under the tracer they become
    # finished scan and body spans inside whatever span wraps the push,
    # so the wrapper's self time is the derive and bookkeeping.
    products = _channel_products(tenant_capture, 8, np.complex64)
    session = StreamSession(SymBeeDecoder(cfo_correction=None, decimation=8),
                            zigbee_channel=13, capture_tau=5,
                            dtype=np.complex64)
    TRACER.reset()
    TRACER.enable()
    try:
        with TRACER.span("push"):
            frames = session.push_products(products)
        records = TRACER.drain()
    finally:
        TRACER.disable()
        TRACER.reset()
    assert frames
    scan, body, push = records
    assert (scan["name"], body["name"]) == (
        "stream.session.scan", "stream.session.body"
    )
    for child in (scan, body):
        assert (child["depth"], child["parent"]) == (1, "push")
    assert scan["duration_s"] + body["duration_s"] <= push["duration_s"]
    derive_ns, scan_ns, body_ns = session.stage_ns
    assert derive_ns > 0 and scan_ns > 0 and body_ns > 0
