"""The native derive kernel against the numpy reference, bit for bit.

Every derived cache the scanner reads -- the vote, count, coherence,
concentration and coherence-pass prefixes, the windowed count /
candidate-coherence / concentration caches and the hot index -- must be
byte-identical between :class:`tests.stream.session_reference.
KernelDerived` (the ``derive_*`` kernel and the windowed pass of the
``walk_*`` kernel, as the native session calls them) and
:class:`tests.stream.session_reference.ReferenceDerived` (numpy), in
complex64 and complex128, for any push split, with trims interleaved,
with the float prefixes restarting at short seams, and on hostile
values: signed zeros, NaN, infinities, subnormals and magnitudes whose
squares overflow.

One allowance: a NaN compares by position, not payload.  When two NaNs
meet in an addition, which one's sign survives is the hardware's
operand order -- numpy's compiled loops and the kernel's may pick
differently -- and no decision can see it (every comparison against a
NaN is false).  Every other float, zeros' signs included, must match to
the bit.
"""

import cmath
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.decoder import SymBeeDecoder
from repro.stream.session import StreamSession
from tests.stream.session_reference import (
    KernelDerived,
    ReferenceDerived,
    native_caches,
    unit_from_products,
)

DTYPES = (np.complex64, np.complex128)
HOSTILE = (
    0.0, -0.0, 1.0, -1.0, np.nan, np.inf, -np.inf,
    1e-45, -1e-45, 1e-40, 5e-324, -1e-310, 1e-20,
    1e38, -3e38, 1e154, 1e200,
)
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


def _prefix_bytes(prefix):
    return _bytes(prefix.view(prefix.base, prefix.end)), _bytes(prefix.total)


def _buffer_bytes(buf):
    return _bytes(buf.view(buf.base, buf.end))


def _state(derived):
    """Every derived cache, as bytes."""
    return {
        "profile_end": derived.profile_end,
        "win_end": derived.win_end,
        **{
            name: _prefix_bytes(getattr(derived, name))
            for name in (
                "mask_prefix",
                "count_prefix",
                "coherence_prefix",
                "concentration_prefix",
                "cohpass_prefix",
            )
        },
        **{
            name: _buffer_bytes(getattr(derived, name))
            for name in ("count_win", "cohcand_win", "conc_win")
        },
        "hot": _buffer_bytes(derived.hot),
    }


def _products(data, n, dtype):
    """Coherent runs (so positions reach the hot index), noise, hostiles."""
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    run = data.draw(st.sampled_from([1, 4, 16, 64]))
    jitter = data.draw(st.sampled_from([0.0, 0.3, 3.0]))
    phase = np.repeat(rng.uniform(-np.pi, np.pi, n // run + 1), run)[:n]
    phase = phase + rng.normal(0.0, jitter, n)
    products = rng.exponential(1.0, n) * np.exp(1j * phase)
    if n:
        hostile = data.draw(
            st.lists(
                st.tuples(
                    st.integers(0, n - 1),
                    st.sampled_from(HOSTILE),
                    st.sampled_from(HOSTILE),
                ),
                max_size=n // 4 + 1,
            )
        )
        for i, re, im in hostile:
            products[i] = complex(re, im)
    with np.errstate(over="ignore"):
        return products.astype(dtype)


def _pair(data, dtype):
    folds = data.draw(st.sampled_from([1, 2, 4]))
    bit_period = data.draw(st.integers(1, 6))
    window = data.draw(st.integers(1, 6))
    decoder = SimpleNamespace(
        bit_period=bit_period,
        window=window,
        tau=data.draw(st.integers(0, (window - 1) // 2)),
        tau_sync=window // 2,
        rotation=data.draw(st.sampled_from([None, ROTATED])),
    )
    kwargs = dict(
        dtype=dtype,
        coherence_min=data.draw(st.sampled_from([0.5, 0.7, 0.3])),
        # Float prefixes restarting every few positions (never closer
        # than a window), so windows start on seams and straddle them
        # (None: the dtype's own segment).
        seam=data.draw(st.sampled_from([None, 6, 7, 16, 50])),
    )
    return (
        KernelDerived(decoder, folds, **kwargs),
        ReferenceDerived(decoder, folds, **kwargs),
    )


@pytest.mark.parametrize("dtype", DTYPES)
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_native_caches_match_numpy_reference(dtype, data):
    native, reference = _pair(data, dtype)
    n = data.draw(st.integers(0, 400))
    products = _products(data, n, dtype)
    cuts = sorted(data.draw(st.lists(st.integers(0, n), max_size=8)))
    pushed = 0
    for lo, hi in zip([0, *cuts], [*cuts, n]):
        piece = products[lo:hi]
        pushed += piece.size
        with np.errstate(all="ignore"):
            for derived in (native, reference):
                derived.extend(piece)
            if data.draw(st.booleans()):
                for derived in (native, reference):
                    derived.extend_windowed()
        if data.draw(st.booleans()):
            # Anything up to a little past the pushed end, as the session
            # trims to a scan origin or a rejected capture.  Trimming past
            # the windowed high-water mark exercises the rejoin path.
            keep = data.draw(st.integers(0, pushed + 3))
            for derived in (native, reference):
                derived.trim(keep)
        assert _state(native) == _state(reference)
    with np.errstate(all="ignore"):
        for derived in (native, reference):
            derived.extend_windowed()
    assert _state(native) == _state(reference)


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("fill", [1.0 + 0.0j, ROTATED])
def test_unit_phasors_match_numpy_reference(dtype, fill):
    # The unit phasors the derive pass writes into the unit buffer,
    # every one of them still held before the first trim.
    values = np.array(HOSTILE)
    grid = np.empty(values.size**2, dtype=np.complex128)
    grid.real = np.repeat(values, values.size)
    grid.imag = np.tile(values, values.size)
    signed = np.array([complex(-2.0, -0.0), complex(-0.0, -0.0)])
    rng = np.random.default_rng(5)
    noise = rng.normal(size=1000) + 1j * rng.normal(size=1000)
    decoder = SimpleNamespace(
        bit_period=1, window=1, tau=0, tau_sync=1, rotation=fill
    )
    derived = KernelDerived(decoder, 1, dtype=dtype)
    with np.errstate(all="ignore"):
        chunk = np.concatenate((grid, signed, noise)).astype(dtype)
        derived.extend(chunk)
        want = unit_from_products(chunk, fill)
    got = derived.units.view(0, chunk.size)
    assert got.dtype == chunk.dtype
    assert _bytes(got) == _bytes(want)


@pytest.mark.parametrize("dtype", DTYPES)
def test_receiver_scale_caches_match_numpy_reference(dtype):
    # The headline domain (decimation 8, four folds) over ~60k products
    # in uneven pushes, with the scan's trims: long prefixes, full tiles,
    # and a few float-prefix seams.
    decoder = SymBeeDecoder(decimation=8)
    native = KernelDerived(decoder, 4, dtype=dtype, seam=7919)
    reference = ReferenceDerived(decoder, 4, dtype=dtype, seam=7919)
    rng = np.random.default_rng(3)
    products = (rng.normal(size=60000) + 1j * rng.normal(size=60000)).astype(
        dtype
    )
    lo = 0
    for size in (1, 4095, 1024, 9973, 17, 20000, 24890):
        for derived in (native, reference):
            derived.extend(products[lo : lo + size])
            derived.extend_windowed()
            derived.trim(lo + size // 2)
        lo += size
        assert _state(native) == _state(reference)
    assert native.hot.end > native.hot.base


def test_session_accepts_strided_products():
    # The kernel reads products by pointer; a strided view must derive
    # the same caches as its contiguous copy.
    decoder = SymBeeDecoder(decimation=8)
    rng = np.random.default_rng(9)
    wide = rng.normal(size=(3000, 2)) @ np.array([1.0, 1j])
    strided = StreamSession(decoder, dtype=np.complex64)
    contiguous = StreamSession(decoder, dtype=np.complex64)
    strided.push_products(wide[::2])
    contiguous.push_products(wide[::2].copy())
    assert _bytes_of(native_caches(strided)) == _bytes_of(
        native_caches(contiguous)
    )


def _bytes_of(caches):
    return [(base, _bytes(values)) for base, values in caches]
