"""The exact reference kernels, and the native front end against them.

``repro.dsp.kernels`` holds the exact numpy kernels (single-rounding
real ufunc ops, bit-stable under blocking) that define the reference
semantics of the stream front end.  The fast implementation of the same
operations is the native :class:`repro.stream.frontend.FastChannelBank`:
its polyphase FIR, lagged products and product rotation must agree with
the exact kernels to float tolerance on every shape the stream can hand
them — lengths that fall off the polyphase rows, decimation phases,
complex64 inputs, and cuts shorter than the lag.  (Bit for bit, the
bank is held to its FMA oracle in ``tests/stream/test_frontend_native.py``.)
The engine's ``mode`` keyword names only the bank.
"""

import numpy as np
import pytest

import repro.stream.engine as engine_module
from repro.dsp.kernels import (
    exact_cmul,
    exact_lagged_products,
    polyphase_decimate_exact,
)
from repro.stream.engine import StreamEngine
from repro.stream.frontend import FastChannelBank, StreamingFrontEnd


def _signal(rng, n, dtype=np.complex128):
    z = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return z.astype(dtype)


def fir_exact(z, taps):
    """Valid-mode FIR, ``out[k] = sum_j taps[j] * z[k + ntaps - 1 - j]``.

    Accumulated tap-by-tap on the real/imag planes in a fixed tap order:
    the full-rate oracle the decimated exact kernel subsamples.
    """
    z = np.asarray(z)
    ntaps = len(taps)
    m = z.size - ntaps + 1
    if m <= 0:
        return np.empty(0, dtype=np.complex128)
    acc_r = np.zeros(m, dtype=np.float64)
    acc_i = np.zeros(m, dtype=np.float64)
    for j in range(ntaps):
        shift = ntaps - 1 - j
        s = z[shift : shift + m]
        acc_r += taps[j] * s.real
        acc_i += taps[j] * s.imag
    out = np.empty(m, dtype=np.complex128)
    out.real = acc_r
    out.imag = acc_i
    return out


def _bank(lag, taps=None, decimation=1, offset_hz=0.0, dtype=np.complex128):
    """A one-channel native bank, optionally running arbitrary ``taps``.

    With ``taps=None`` the filter is the 1-tap identity; otherwise the
    designed low-pass is replaced by ``taps`` (at offset 0 Hz the bank's
    weights are the reversed taps, zero-padded to whole polyphase rows).
    """
    ntaps = 1 if taps is None else len(taps)
    bank = FastChannelBank(
        [offset_hz],
        20e6,
        lag,
        ntaps=ntaps,
        decimation=decimation,
        working_dtype=dtype,
    )
    if taps is not None:
        bank._weights[0, :ntaps] = np.asarray(taps)[::-1]
    return bank


def _products(bank, z, cuts=(), flush=True):
    """One channel's products over ``cuts`` of ``z`` (then a flush)."""
    edges = (0, *cuts, z.size)
    results = [bank.process_block(z[lo:hi]) for lo, hi in zip(edges, edges[1:])]
    if flush:
        results.append(bank.flush())
    return np.concatenate([result[0].products for result in results])


def _pairs(y, lag):
    """``y[n] * conj(y[n + lag])`` in numpy's own arithmetic."""
    n = max(0, y.size - lag)
    return y[:n] * np.conjugate(y[lag : lag + n])


class TestModeValidation:
    """The engine's kernel-mode keyword names the one front end."""

    def test_modes(self):
        engine = StreamEngine(demux=True, mode="fast")
        assert isinstance(engine._bank, FastChannelBank)

    def test_rejects_unknown(self):
        for mode in ("exact", "quick", None):
            with pytest.raises(ValueError, match="unknown kernel mode"):
                StreamEngine(demux=True, mode=mode)


class TestCmul:
    def test_fast_matches_exact(self, rng):
        # The bank's product rotation against the exact complex multiply.
        z = _signal(rng, 257)
        bank = _bank(16, offset_hz=3e6)
        (rotation,) = bank.product_rotations
        np.testing.assert_allclose(
            _products(bank, z),
            exact_cmul(exact_lagged_products(z, 16), rotation),
            rtol=1e-12,
        )

    def test_exact_dispatch_is_bitwise(self, rng):
        # The engine's ``cmul`` attribute (wrapped by the perf ledger) is
        # the exact kernel.
        a = _signal(rng, 64)
        b = _signal(rng, 64)
        assert np.array_equal(engine_module.cmul(a, b), exact_cmul(a, b))


class TestLaggedProducts:
    @pytest.mark.parametrize("lag", (1, 4, 16))
    def test_fast_matches_exact(self, rng, lag):
        x = _signal(rng, 400)
        exact = exact_lagged_products(x, lag)
        fast = _products(_bank(lag), x)
        assert fast.shape == exact.shape
        np.testing.assert_allclose(fast, exact, rtol=1e-12)

    def test_complex64_input(self, rng):
        x = _signal(rng, 300, np.complex64)
        fast = _products(_bank(16, dtype=np.complex64), x)
        exact = exact_lagged_products(x.astype(np.complex128), 16)
        assert fast.dtype == np.complex64
        np.testing.assert_allclose(fast, exact, rtol=2e-6)


class TestFir:
    def test_fast_short_filter_uses_direct_path(self, rng):
        # The native FIR is direct-form (no FFT, no BLAS) at every length.
        z = _signal(rng, 512)
        taps = rng.standard_normal(21)
        np.testing.assert_allclose(
            _products(_bank(16, taps), z),
            exact_lagged_products(fir_exact(z, taps), 16),
            rtol=1e-10,
            atol=1e-12,
        )

    def test_fast_long_filter_matches_exact(self, rng):
        z = _signal(rng, 4096)
        taps = rng.standard_normal(129)
        np.testing.assert_allclose(
            _products(_bank(16, taps), z),
            exact_lagged_products(fir_exact(z, taps), 16),
            rtol=1e-10,
            atol=1e-12,
        )


class TestPolyphaseExact:
    @pytest.mark.parametrize("decimation", (1, 2, 4))
    @pytest.mark.parametrize("offset", (0, 1, 3))
    def test_is_bitwise_subsample_of_fir_exact(self, rng, decimation, offset):
        z = _signal(rng, 1000)
        taps = rng.standard_normal(21)
        dec = polyphase_decimate_exact(z, taps, decimation, offset=offset)
        full = fir_exact(z, taps)
        assert np.array_equal(dec, full[offset::decimation])


class TestPolyphaseFast:
    """The native bank's polyphase FIR against the strided reference.

    The bank emits products, so each case compares its products with
    the lagged products of the reference's filtered stream.  Its lag
    (20) is divisible by every decimation drawn here.
    """

    LAG = 20

    def _reference(self, z, taps, decimation, offset=0):
        rev = np.asarray(taps)[::-1]
        n_out = z.size - len(taps) + 1
        y = np.array(
            [
                z[lo : lo + len(taps)] @ rev
                for lo in range(offset, n_out, decimation)
            ],
            dtype=np.result_type(z.dtype, rev.dtype),
        )
        return _pairs(y, self.LAG // decimation)

    def _fast(self, z, taps, decimation, dtype=np.complex128):
        return _products(_bank(self.LAG, taps, decimation, dtype=dtype), z)

    @pytest.mark.parametrize("n", (21, 22, 40, 85, 1000, 4099))
    @pytest.mark.parametrize("decimation", (1, 2, 4, 5))
    def test_matches_reference(self, rng, n, decimation):
        z = _signal(rng, n)
        taps = _signal(rng, 21)
        out = self._fast(z, taps, decimation)
        ref = self._reference(z, taps, decimation)
        assert out.shape == ref.shape
        np.testing.assert_allclose(out, ref, rtol=1e-12, atol=1e-13)

    @pytest.mark.parametrize("offset", (0, 1, 2, 3))
    def test_offsets(self, rng, offset):
        # The decimation phase is set by where the stream starts.
        z = _signal(rng, 501)
        taps = _signal(rng, 21)
        out = self._fast(z[offset:], taps, 4)
        ref = self._reference(z, taps, 4, offset=offset)
        assert out.shape == ref.shape
        np.testing.assert_allclose(out, ref, rtol=1e-12, atol=1e-13)

    def test_tail_outputs_past_blocked_region(self, rng):
        # Sizes chosen so the final output's zero-padded polyphase rows
        # reach past the end of the stream: the flush must still emit
        # it, reading zeros only where the padding weights are zero.
        for n in range(84, 120):
            z = _signal(rng, n)
            taps = _signal(rng, 21)
            out = self._fast(z, taps, 4)
            ref = self._reference(z, taps, 4)
            assert out.shape == ref.shape, n
            np.testing.assert_allclose(out, ref, rtol=1e-12, atol=1e-13)

    def test_complex64(self, rng):
        z = _signal(rng, 2000, np.complex64)
        taps = _signal(rng, 21, np.complex64)
        out = self._fast(z, taps, 4, dtype=np.complex64)
        assert out.dtype == np.complex64
        ref = self._reference(
            z.astype(np.complex128), taps.astype(np.complex128), 4
        )
        np.testing.assert_allclose(out, ref, rtol=2e-5, atol=2e-5)

    def test_empty_when_too_short(self, rng):
        z = _signal(rng, 10)
        taps = _signal(rng, 21)
        assert self._fast(z, taps, 4).size == 0

    def test_blocking_invariance(self, rng):
        # Window content alone determines each output: a longer stream
        # must reproduce the shorter stream's mid-stream outputs.
        z = _signal(rng, 3000)
        taps = _signal(rng, 21)
        full = _products(_bank(self.LAG, taps, 4), z, flush=False)
        half = _products(_bank(self.LAG, taps, 4), z[:1500], flush=False)
        np.testing.assert_array_equal(full[: half.size], half)

    def test_rejects_bad_decimation(self):
        with pytest.raises(ValueError):
            FastChannelBank([0.0], 20e6, 16, ntaps=5, decimation=0)


class TestStreamLaggedProducts:
    """Both front ends' lagged products across block cuts.

    ``exact``: :class:`StreamingFrontEnd` (the numpy reference) must
    reproduce the whole-stream exact kernel bit for bit; ``fast``: the
    native bank with the 1-tap identity filter must reproduce its own
    whole-stream output bit for bit.
    """

    def _drive(self, x, cuts, lag, mode):
        if mode == "exact":
            fe = StreamingFrontEnd(lag)
            edges = (0, *cuts, x.size)
            return np.concatenate(
                [fe.process(x[lo:hi]).products for lo, hi in zip(edges, edges[1:])]
            )
        return _products(_bank(lag, dtype=x.dtype), x, cuts)

    def _whole(self, x, lag, mode):
        if mode == "exact":
            return exact_lagged_products(x, lag)
        return _products(_bank(lag, dtype=x.dtype), x)

    @pytest.mark.parametrize("mode", ("exact", "fast"))
    @pytest.mark.parametrize("lag", (1, 4, 16))
    def test_matches_whole_stream(self, rng, mode, lag):
        x = _signal(rng, 3000)
        got = self._drive(x, (7, 8, 700, 1500, 1500, 2999), lag, mode)
        np.testing.assert_array_equal(got, self._whole(x, lag, mode))

    def test_blocks_shorter_than_lag(self, rng):
        x = _signal(rng, 64)
        got = self._drive(x, tuple(range(1, 64, 3)), 16, "fast")
        np.testing.assert_array_equal(got, self._whole(x, 16, "fast"))

    def test_random_cuts_bit_identical(self, rng):
        x = _signal(rng, 10000, np.complex64)
        want = self._whole(x, 4, "fast")
        cuts = np.unique(rng.integers(0, x.size, size=40))
        got = self._drive(x, cuts.tolist(), 4, "fast")
        np.testing.assert_array_equal(got, want)

    def test_carry_is_owned_copy(self, rng):
        # The bank keeps its own copy of the carried tail: the caller may
        # reuse the block's memory as soon as the call returns.
        x = _signal(rng, 100)
        more = _signal(rng, 50)
        want = _products(_bank(4), np.concatenate((x, more)), (100,))
        bank = _bank(4)
        head = bank.process_block(x)[0].products
        x[-30:] = 0
        tail = _products(bank, more)
        np.testing.assert_array_equal(np.concatenate((head, tail)), want)
