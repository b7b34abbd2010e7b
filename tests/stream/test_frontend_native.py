"""The native front end against its numpy oracle, byte for byte.

:class:`repro.stream.frontend.FastChannelBank` computes every fast demux
channel's polyphase FIR, lagged products and product rotation in one C
call per block.  :mod:`tests.stream.frontend_reference` spells out the
same arithmetic (correctly rounded FMAs in a fixed order) in numpy with
no BLAS and no hardware FMA, over the whole stream at once.  The
kernel's products over any cuts, flush included, must equal the
oracle's bytes: every decimation the engine takes, filters from 3 to
255 taps, 1 to 16 channels, complex64 and complex128, the lag at 20
and 40 Msps, empty blocks and blocks below one output, and NaN or
infinite samples.

One allowance, as for the derive kernel: a NaN compares by position,
not payload (which NaN's sign survives an operation is the hardware's
operand order).

The deferred-emission contract is checked directly too: mid-stream,
an output leaves only once its last polyphase row is buffered, so no
cut changes an output; the flush emits the rest.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.stream.frontend import FastChannelBank
from tests.stream import frontend_reference as reference

HOSTILE = (np.nan, np.inf, -np.inf, 0.0, -0.0, 1e-45, 3e38, 1e300)


def _bytes(values):
    """Raw bytes of an array, with every NaN made the same NaN."""
    values = np.array(values, ndmin=1)
    if values.dtype.kind == "c":
        values = values.view(values.real.dtype)
    values[np.isnan(values)] = np.nan
    return values.tobytes()


def _drive(bank, z, cuts, flush=True):
    """Concatenated products of every channel over ``cuts``."""
    outs = [[] for _ in range(len(bank.product_rotations))]
    emitted = 0
    blocks = [z[lo:hi] for lo, hi in zip((0, *cuts), (*cuts, z.size))]
    results = [bank.process_block(block) for block in blocks]
    if flush:
        results.append(bank.flush())
    for result in results:
        for out, fe_block in zip(outs, result):
            assert fe_block.start == emitted
            out.append(fe_block.products)
        emitted += result[0].products.size
    return np.stack([np.concatenate(out) for out in outs])


def _oracle(bank, z):
    return reference.products(
        z, bank._weights, bank.product_rotations, bank.ntaps,
        bank.decimation, bank.lag,
    )


def _bank(dtype=np.complex64, decimation=4, ntaps=21):
    return FastChannelBank(
        (-7e6, 3e6), 20e6, 16, ntaps=ntaps, decimation=decimation,
        working_dtype=dtype,
    )


def _signal(rng, n):
    return rng.standard_normal(n) + 1j * rng.standard_normal(n)


@st.composite
def cases(draw):
    dtype = draw(st.sampled_from((np.complex64, np.complex128)))
    d = draw(st.sampled_from((1, 2, 4, 8)))
    ntaps = draw(st.sampled_from((3, 21, 255)))
    sample_rate = draw(st.sampled_from((20e6, 40e6)))
    wide = dtype == np.complex64
    # The float64 oracle computes every FMA in exact rationals: keep
    # its cases small.
    channels = draw(st.integers(1, 16 if wide else 2))
    # Mostly streams long enough for products; sometimes shorter than
    # one output.
    lag = int(round(sample_rate * 0.8e-6))
    n = draw(
        st.one_of(
            st.integers(0, ntaps + lag),
            st.integers(ntaps + lag, ntaps + lag + (200 if wide else 6) * d),
        )
    )
    offsets = draw(
        st.lists(st.integers(-9, 9), min_size=channels, max_size=channels)
    )
    cuts = sorted(draw(st.lists(st.integers(0, n), max_size=8)))
    seed = draw(st.integers(0, 2**32 - 1))
    hostile = draw(
        st.lists(
            st.tuples(st.integers(0, max(n - 1, 0)), st.sampled_from(HOSTILE),
                      st.booleans()),
            max_size=3 if n else 0,
        )
    )
    in_dtype = draw(st.sampled_from((np.complex64, np.complex128)))
    rng = np.random.default_rng(seed)
    z = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    for at, value, imag in hostile:
        if imag:
            z[at] = complex(z[at].real, value)
        else:
            z[at] = complex(value, z[at].imag)
    with np.errstate(over="ignore"):
        z = z.astype(in_dtype)
    bank = FastChannelBank(
        [f * 1e6 for f in offsets],
        sample_rate,
        lag,
        ntaps=ntaps,
        decimation=d,
        working_dtype=dtype,
    )
    return bank, z, cuts


@settings(max_examples=150, deadline=None)
@given(case=cases())
def test_kernel_matches_oracle_bytes(case):
    bank, z, cuts = case
    with np.errstate(invalid="ignore", over="ignore"):
        got = _drive(bank, z, cuts)
        want = _oracle(bank, z)
    assert got.shape == want.shape
    assert _bytes(got) == _bytes(want)


@pytest.mark.parametrize("dtype", (np.complex64, np.complex128))
def test_reads_the_block_as_astype_rounds_it(rng, dtype):
    # The kernel reads complex128 blocks in place, rounding each sample
    # as astype would: no conversion pass, the same bits.
    z = (rng.standard_normal(5000) + 1j * rng.standard_normal(5000)) * 1e3
    cuts = (17, 1000, 1001, 3000)
    direct = _drive(_bank(dtype), z, cuts)
    converted = _drive(_bank(dtype), z.astype(dtype), cuts)
    assert _bytes(direct) == _bytes(converted)


class TestDeferredEmission:
    """Mid-stream, only outputs whose polyphase rows are all buffered."""

    def test_mid_stream_outputs_are_a_prefix_of_flushed(self, rng):
        for n in range(84, 130):
            z = _signal(rng, n)
            bank = _bank()
            held = np.concatenate([b.products for b in bank.process_block(z)])
            full = _drive(_bank(), z, ())
            assert held.size <= full.size, n
            # At most one output per channel waits for the flush.
            assert full.size - held.size <= 2, n
            # The flushed tail only appends: what left mid-stream stays.
            mid = _drive(_bank(), z, (), flush=False)
            np.testing.assert_array_equal(full[:, : mid.shape[1]], mid)

    def test_cuts_never_change_an_output(self, rng):
        z = _signal(rng, 4096)
        whole = _drive(_bank(), z, (), flush=False)
        for cut in (85, 1000, 2048, 4000):
            head = _drive(_bank(), z[:cut], (), flush=False)
            np.testing.assert_array_equal(whole[:, : head.shape[1]], head)
            cut_twice = _drive(_bank(), z, (cut // 2, cut), flush=False)
            np.testing.assert_array_equal(whole, cut_twice)

    def test_empty_below_one_output(self, rng):
        # 22 samples hold one 21-tap window, but its last polyphase row
        # (samples 20..23 at decimation 4) is incomplete: withheld, every
        # sample kept, until the flush emits it.
        bank = _bank()
        assert all(b.products.size == 0 for b in bank.process_block(_signal(rng, 22)))
        assert (bank._have, bank._buf.size, bank.samples_in) == (0, 22, 22)
        bank.flush()
        assert (bank._have, bank._buf.size) == (1, 18)

    def test_decimation_one_never_defers(self, rng):
        # No zero padding at decimation 1, so the flush has nothing left.
        bank = _bank(decimation=1)
        emitted = bank.process_block(_signal(rng, 100))[0].products.size
        assert emitted == 100 - 21 + 1 - 16
        assert all(b.products.size == 0 for b in bank.flush())
        assert bank._buf.size == 20

    @pytest.mark.parametrize("ntaps", (3, 255))
    def test_flush_reads_zeros_past_the_end(self, rng, ntaps):
        z = _signal(rng, 700).astype(np.complex64)
        got = _drive(_bank(ntaps=ntaps, decimation=8), z, (300,))
        padded = np.concatenate((z, np.zeros(8 * 40, np.complex64)))
        no_flush = _drive(_bank(ntaps=ntaps, decimation=8), padded, (), flush=False)
        np.testing.assert_array_equal(got, no_flush[:, : got.shape[1]])
