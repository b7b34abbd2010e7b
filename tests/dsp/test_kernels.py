"""Unit tests for the exact/fast DSP kernel pairs in ``repro.dsp.kernels``.

The exact kernels define the reference semantics (single-rounding real
ufunc ops, bit-stable under blocking); the fast kernels must agree to
float tolerance on every shape the streaming front end can hand them —
including the awkward ones: offsets, sub-filter-length tails, complex64
inputs, and sizes that fall back off the blocked GEMM path.
"""

import numpy as np
import pytest

from repro.dsp.kernels import (
    KERNEL_MODES,
    cmul,
    exact_cmul,
    exact_lagged_products,
    fir_exact,
    fir_fast,
    fir_fft,
    lagged_products,
    polyphase_decimate,
    polyphase_decimate_exact,
    polyphase_decimate_fast,
    stream_lagged_products,
    validate_mode,
)


def _signal(rng, n, dtype=np.complex128):
    z = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return z.astype(dtype)


class TestModeValidation:
    def test_modes(self):
        assert KERNEL_MODES == ("exact", "fast")
        for mode in KERNEL_MODES:
            assert validate_mode(mode) == mode

    def test_rejects_unknown(self):
        with pytest.raises(ValueError):
            validate_mode("quick")


class TestCmul:
    def test_fast_matches_exact(self, rng):
        a = _signal(rng, 257)
        b = _signal(rng, 257)
        np.testing.assert_allclose(
            cmul(a, b, "fast"), exact_cmul(a, b), rtol=1e-12
        )

    def test_exact_dispatch_is_bitwise(self, rng):
        a = _signal(rng, 64)
        b = _signal(rng, 64)
        assert np.array_equal(cmul(a, b, "exact"), exact_cmul(a, b))


class TestLaggedProducts:
    @pytest.mark.parametrize("lag", (1, 4, 16))
    def test_fast_matches_exact(self, rng, lag):
        x = _signal(rng, 400)
        exact = exact_lagged_products(x, lag)
        fast = lagged_products(x, lag, mode="fast")
        assert fast.shape == exact.shape
        np.testing.assert_allclose(fast, exact, rtol=1e-12)

    def test_complex64_input(self, rng):
        x = _signal(rng, 300, np.complex64)
        fast = lagged_products(x, 16, mode="fast")
        exact = exact_lagged_products(x.astype(np.complex128), 16)
        assert fast.dtype == np.complex64
        np.testing.assert_allclose(fast, exact, rtol=2e-6)


class TestFir:
    def test_fft_matches_exact(self, rng):
        z = _signal(rng, 2048)
        taps = rng.standard_normal(63)
        np.testing.assert_allclose(
            fir_fft(z, taps), fir_exact(z, taps), rtol=1e-10, atol=1e-12
        )

    def test_fast_short_filter_uses_direct_path(self, rng):
        z = _signal(rng, 512)
        taps = rng.standard_normal(21)
        np.testing.assert_allclose(
            fir_fast(z, taps), fir_exact(z, taps), rtol=1e-10, atol=1e-12
        )

    def test_fast_long_filter_matches_exact(self, rng):
        z = _signal(rng, 4096)
        taps = rng.standard_normal(129)
        np.testing.assert_allclose(
            fir_fast(z, taps), fir_exact(z, taps), rtol=1e-10, atol=1e-12
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

    def test_mode_dispatch(self, rng):
        z = _signal(rng, 500)
        taps = rng.standard_normal(21)
        assert np.array_equal(
            polyphase_decimate(z, taps, 4, mode="exact"),
            polyphase_decimate_exact(z, taps, 4),
        )
        assert np.array_equal(
            polyphase_decimate(z, taps, 4, mode="fast"),
            polyphase_decimate_fast(z, taps, 4),
        )


class TestPolyphaseFast:
    """The blocked-GEMM fast path against the strided reference."""

    def _reference(self, z, taps, decimation, offset=0):
        rev = np.asarray(taps)[::-1]
        n_out = z.size - len(taps) + 1
        return np.array(
            [
                z[lo : lo + len(taps)] @ rev
                for lo in range(offset, n_out, decimation)
            ],
            dtype=np.result_type(z.dtype, rev.dtype),
        )

    @pytest.mark.parametrize("n", (21, 22, 40, 85, 1000, 4099))
    @pytest.mark.parametrize("decimation", (1, 2, 4, 5))
    def test_matches_reference(self, rng, n, decimation):
        z = _signal(rng, n)
        taps = _signal(rng, 21)
        out = polyphase_decimate_fast(z, taps, decimation)
        ref = self._reference(z, taps, decimation)
        assert out.shape == ref.shape
        np.testing.assert_allclose(out, ref, rtol=1e-12, atol=1e-13)

    @pytest.mark.parametrize("offset", (0, 1, 2, 3))
    def test_offsets(self, rng, offset):
        z = _signal(rng, 501)
        taps = _signal(rng, 21)
        out = polyphase_decimate_fast(z, taps, 4, offset=offset)
        ref = self._reference(z, taps, 4, offset=offset)
        assert out.shape == ref.shape
        np.testing.assert_allclose(out, ref, rtol=1e-12, atol=1e-13)

    def test_tail_outputs_past_blocked_region(self, rng):
        # Sizes chosen so the final output's padded window would reach
        # past the strided block view: the kernel must fall back to a
        # direct dot for it without losing the output.
        for n in range(84, 120):
            z = _signal(rng, n)
            taps = _signal(rng, 21)
            out = polyphase_decimate_fast(z, taps, 4)
            ref = self._reference(z, taps, 4)
            assert out.shape == ref.shape, n
            np.testing.assert_allclose(out, ref, rtol=1e-12, atol=1e-13)

    def test_complex64(self, rng):
        z = _signal(rng, 2000, np.complex64)
        taps = _signal(rng, 21, np.complex64)
        out = polyphase_decimate_fast(z, taps, 4)
        assert out.dtype == np.complex64
        ref = self._reference(
            z.astype(np.complex128), taps.astype(np.complex128), 4
        )
        np.testing.assert_allclose(out, ref, rtol=2e-5, atol=2e-5)

    def test_empty_when_too_short(self, rng):
        z = _signal(rng, 10)
        taps = _signal(rng, 21)
        assert polyphase_decimate_fast(z, taps, 4).size == 0

    def test_blocking_invariance(self, rng):
        # Window content alone determines each output: computing over a
        # longer array must reproduce the shorter array's outputs.
        z = _signal(rng, 3000)
        taps = _signal(rng, 21)
        full = polyphase_decimate_fast(z, taps, 4)
        half = polyphase_decimate_fast(z[:1500], taps, 4)
        np.testing.assert_array_equal(full[: half.size], half)

    def test_rejects_bad_decimation(self, rng):
        with pytest.raises(ValueError):
            polyphase_decimate_fast(_signal(rng, 100), np.ones(5), 0)


class TestStreamLaggedProducts:
    """The fused seam+interior streaming kernel against the
    concatenate-then-slice reference it replaces."""

    def _drive(self, x, cuts, lag, mode):
        carry = np.empty(0, dtype=x.dtype)
        outs = []
        pos = 0
        for cut in list(cuts) + [x.size]:
            block = x[pos:cut]
            pos = cut
            prod, carry = stream_lagged_products(block, carry, lag, mode)
            outs.append(prod)
        return np.concatenate(outs)

    @pytest.mark.parametrize("mode", ("exact", "fast"))
    @pytest.mark.parametrize("lag", (1, 4, 16))
    def test_matches_whole_stream(self, rng, mode, lag):
        x = _signal(rng, 3000)
        got = self._drive(x, (7, 8, 700, 1500, 1500, 2999), lag, mode)
        want = lagged_products(x, lag, mode)
        np.testing.assert_array_equal(got, want)

    def test_blocks_shorter_than_lag(self, rng):
        x = _signal(rng, 64)
        got = self._drive(x, tuple(range(1, 64, 3)), 16, "fast")
        want = lagged_products(x, 16, "fast")
        np.testing.assert_array_equal(got, want)

    def test_random_cuts_bit_identical(self, rng):
        x = _signal(rng, 10000, np.complex64)
        want = lagged_products(x, 4, "fast")
        cuts = np.unique(rng.integers(0, x.size, size=40))
        got = self._drive(x, cuts.tolist(), 4, "fast")
        np.testing.assert_array_equal(got, want)

    def test_carry_is_owned_copy(self, rng):
        x = _signal(rng, 100)
        carry = np.empty(0, dtype=x.dtype)
        _, carry = stream_lagged_products(x, carry, 4, "fast")
        assert carry.base is None or carry.base is not x
        x[-4:] = 0
        assert not np.any(carry == 0)

    def test_rejects_oversized_carry(self, rng):
        with pytest.raises(ValueError):
            stream_lagged_products(_signal(rng, 10), _signal(rng, 5), 4)
