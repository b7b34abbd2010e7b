"""The exact reference front ends: tail state, deterministic arithmetic.

:class:`StreamingFrontEnd` and :class:`ChannelizerFrontEnd` are the
numpy reference chain the native bank is compared against; these tests
hold the reference itself to scalar arithmetic and block-size
invariance.
"""

import numpy as np
import pytest

from repro.dsp.kernels import exact_cmul
from repro.dsp.kernels import exact_lagged_products as lagged_products
from repro.stream.frontend import (
    ChannelizerFrontEnd,
    StreamingFrontEnd,
    _mixer_period,
    design_lowpass,
)


def _random_splits(rng, n, n_splits):
    cuts = np.sort(rng.choice(np.arange(1, n), size=n_splits, replace=False))
    return [0, *cuts.tolist(), n]


class TestExactCmul:
    def test_matches_scalar_complex_arithmetic(self, rng):
        a = rng.standard_normal(257) + 1j * rng.standard_normal(257)
        b = rng.standard_normal(257) + 1j * rng.standard_normal(257)
        out = exact_cmul(a, b)
        for k in (0, 1, 100, 256):
            ar, ai, br, bi = a[k].real, a[k].imag, b[k].real, b[k].imag
            assert out[k] == complex(ar * br - ai * bi, ar * bi + ai * br)

    def test_scalar_operand(self, rng):
        a = rng.standard_normal(64) + 1j * rng.standard_normal(64)
        r = complex(0.6, -0.8)
        out = exact_cmul(a, r)
        assert out.shape == a.shape
        assert out[3] == complex(
            a[3].real * r.real - a[3].imag * r.imag,
            a[3].real * r.imag + a[3].imag * r.real,
        )

    def test_alignment_independent(self, rng):
        # numpy's native complex kernel rounds differently depending on
        # buffer alignment; the decomposed form must not.
        n = 4096
        a = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        b = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        ref = exact_cmul(a, b)
        for off in range(1, 4):
            buf_a = np.empty(n + 8, dtype=np.complex128)
            buf_b = np.empty(n + 8, dtype=np.complex128)
            va, vb = buf_a[off : off + n], buf_b[off : off + n]
            va[:] = a
            vb[:] = b
            assert (exact_cmul(va, vb) == ref).all()


class TestLaggedProducts:
    def test_matches_scalar(self, rng):
        x = rng.standard_normal(200) + 1j * rng.standard_normal(200)
        out = lagged_products(x, 16)
        assert out.size == 184
        for k in (0, 50, 183):
            a, b = x[k], x[k + 16]
            assert out[k] == complex(
                a.real * b.real + a.imag * b.imag,
                a.imag * b.real - a.real * b.imag,
            )

    def test_short_and_invalid(self):
        assert lagged_products(np.ones(10, complex), 16).size == 0
        with pytest.raises(ValueError):
            lagged_products(np.ones(100, complex), 0)


class TestStreamingFrontEnd:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_bit_identical_for_random_splits(self, seed):
        rng = np.random.default_rng(seed)
        n = 5000
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        ref = lagged_products(x, 16)
        fe = StreamingFrontEnd(16)
        edges = _random_splits(rng, n, 40)
        pieces = [
            fe.process(x[lo:hi]).products
            for lo, hi in zip(edges[:-1], edges[1:])
        ]
        got = np.concatenate(pieces)
        assert got.size == ref.size
        assert (got == ref).all()

    def test_blocks_shorter_than_lag(self, rng):
        x = rng.standard_normal(100) + 1j * rng.standard_normal(100)
        fe = StreamingFrontEnd(16)
        got = np.concatenate(
            [fe.process(x[lo : lo + 3]).products for lo in range(0, 100, 3)]
        )
        assert (got == lagged_products(x, 16)).all()

    def test_start_indices_are_contiguous(self, rng):
        x = rng.standard_normal(300) + 1j * rng.standard_normal(300)
        fe = StreamingFrontEnd(16)
        pos = 0
        for lo in range(0, 300, 37):
            block = fe.process(x[lo : lo + 37])
            assert block.start == pos
            pos += block.products.size
        assert pos == 300 - 16

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            StreamingFrontEnd(0)
        with pytest.raises(ValueError):
            StreamingFrontEnd(-16)

    def test_reset(self, rng):
        x = rng.standard_normal(100) + 1j * rng.standard_normal(100)
        fe = StreamingFrontEnd(16)
        fe.process(x)
        fe.reset()
        assert fe.samples_in == 0
        assert (fe.process(x).products == lagged_products(x, 16)).all()


class TestDesignLowpass:
    def test_unit_dc_gain(self):
        taps = design_lowpass(21, 1.4e6, 20e6)
        assert taps.size == 21
        assert abs(taps.sum() - 1.0) < 1e-12

    def test_rejects_even_or_tiny_taps(self):
        with pytest.raises(ValueError):
            design_lowpass(20, 1.4e6, 20e6)
        with pytest.raises(ValueError):
            design_lowpass(0, 1.4e6, 20e6)
        with pytest.raises(ValueError):
            design_lowpass(-1, 1.4e6, 20e6)

    def test_one_tap_is_the_identity(self):
        # A windowed sinc of length 1: the wideband receiver's filter.
        assert design_lowpass(1, 1.4e6, 20e6).tolist() == [1.0]

    def test_rejects_bad_cutoff(self):
        with pytest.raises(ValueError):
            design_lowpass(21, 0.0, 20e6)
        with pytest.raises(ValueError):
            design_lowpass(21, 11e6, 20e6)

    def test_attenuates_out_of_band_tone(self):
        taps = design_lowpass(21, 1.4e6, 20e6)
        freqs = np.fft.rfftfreq(4096, d=1 / 20e6)
        response = np.abs(np.fft.rfft(taps, 4096))
        in_band = response[freqs < 0.5e6].min()
        at_5mhz = response[np.argmin(np.abs(freqs - 5e6))]
        assert in_band > 0.9
        assert at_5mhz < 0.2


class TestMixerPeriod:
    def test_channel_offsets_have_small_periods(self):
        # Appendix-B offsets are multiples of 1 MHz at fs = 20 MHz.
        assert _mixer_period(8e6, 20e6) == 5
        assert _mixer_period(-7e6, 20e6) == 20
        assert _mixer_period(0.0, 20e6) == 1

    def test_irrational_offset_has_none(self):
        assert _mixer_period(1.234567e6 + 0.5, 20e6) is None


class TestChannelizerFrontEnd:
    @pytest.mark.parametrize("block_size", [7, 64, 997, 4096])
    def test_bit_identical_for_any_blocking(self, rng, block_size):
        n = 20000
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        one_shot = ChannelizerFrontEnd(8e6, 20e6, 16)
        ref = one_shot.process(x).products
        fe = ChannelizerFrontEnd(8e6, 20e6, 16)
        pieces = [
            fe.process(x[lo : lo + block_size]).products
            for lo in range(0, n, block_size)
        ]
        got = np.concatenate(pieces)
        assert got.size == ref.size
        assert (got == ref).all()

    def test_blocks_shorter_than_fir(self, rng):
        n = 400
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        ref = ChannelizerFrontEnd(3e6, 20e6, 16).process(x).products
        fe = ChannelizerFrontEnd(3e6, 20e6, 16)
        got = np.concatenate(
            [fe.process(x[lo : lo + 5]).products for lo in range(0, n, 5)]
        )
        assert (got == ref).all()

    def test_isolates_neighbouring_subband(self, rng):
        # A tone 5 MHz away must come out heavily attenuated relative to
        # a tone inside the passband.
        n = 8192
        t = np.arange(n)
        in_band = np.exp(1j * 2 * np.pi * 0.2e6 * t / 20e6)
        neighbour = np.exp(1j * 2 * np.pi * 5.2e6 * t / 20e6)
        fe = ChannelizerFrontEnd(0.0, 20e6, 16)
        kept = np.abs(fe.process(in_band).products).mean()
        fe.reset()
        leaked = np.abs(fe.process(neighbour).products).mean()
        assert leaked < 0.05 * kept
