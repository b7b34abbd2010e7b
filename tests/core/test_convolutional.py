"""Unit and property tests for the K=7 convolutional code."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.convolutional import (
    CONSTRAINT_LENGTH,
    conv_encode,
    viterbi_decode,
)


class TestEncoder:
    def test_rate_and_tail(self):
        coded = conv_encode([1, 0, 1])
        assert coded.size == 2 * (3 + CONSTRAINT_LENGTH - 1)

    def test_all_zero_input_gives_all_zero_output(self):
        assert np.all(conv_encode([0] * 20) == 0)

    def test_linear_code(self, rng):
        a = rng.integers(0, 2, 40)
        b = rng.integers(0, 2, 40)
        assert np.array_equal(
            conv_encode(a) ^ conv_encode(b), conv_encode(a ^ b)
        )

    def test_impulse_response_is_generators(self):
        # A single 1 produces the generator taps 133/171 (octal), MSB first.
        coded = conv_encode([1])
        g0_bits = coded[0::2][:7]
        g1_bits = coded[1::2][:7]
        g0 = int("".join(map(str, g0_bits)), 2)
        g1 = int("".join(map(str, g1_bits)), 2)
        assert g0 == 0o133 and g1 == 0o171

    def test_non_binary_rejected(self):
        with pytest.raises(ValueError):
            conv_encode([0, 2])


class TestViterbi:
    @given(st.lists(st.integers(0, 1), min_size=1, max_size=80))
    @settings(max_examples=25, deadline=None)
    def test_clean_roundtrip(self, bits):
        decoded = viterbi_decode(conv_encode(bits))
        assert list(decoded) == bits

    def test_corrects_scattered_errors(self, rng):
        bits = rng.integers(0, 2, 120)
        coded = conv_encode(bits).copy()
        # Flip well-separated bits (beyond ~5 constraint lengths apart).
        for position in range(5, coded.size - 5, 40):
            coded[position] ^= 1
        assert np.array_equal(viterbi_decode(coded), bits)

    def test_corrects_short_bursts(self, rng):
        bits = rng.integers(0, 2, 80)
        coded = conv_encode(bits).copy()
        coded[40:44] ^= 1
        assert np.array_equal(viterbi_decode(coded), bits)

    def test_survives_5_percent_channel(self, rng):
        bits = rng.integers(0, 2, 400)
        coded = conv_encode(bits)
        noisy = coded ^ (rng.random(coded.size) < 0.05).astype(np.int8)
        errors = int(np.sum(viterbi_decode(noisy) != bits))
        assert errors <= 4

    def test_beats_hamming_at_matched_channel(self, rng):
        from repro.core.coding import hamming74_decode, hamming74_encode

        bits = rng.integers(0, 2, 2000)
        p = 0.04
        conv_coded = conv_encode(bits)
        conv_noisy = conv_coded ^ (rng.random(conv_coded.size) < p).astype(np.int8)
        conv_errors = int(np.sum(viterbi_decode(conv_noisy) != bits))

        hamming_coded = hamming74_encode(bits)
        hamming_noisy = hamming_coded ^ (
            rng.random(hamming_coded.size) < p
        ).astype(np.int8)
        hamming_decoded, _ = hamming74_decode(hamming_noisy)
        hamming_errors = int(np.sum(hamming_decoded != bits))
        assert conv_errors < hamming_errors

    def test_odd_length_rejected(self):
        with pytest.raises(ValueError):
            viterbi_decode([0, 1, 0])

    def test_too_short_rejected(self):
        with pytest.raises(ValueError):
            viterbi_decode([0, 0])

    def test_explicit_n_bits(self):
        coded = conv_encode([1, 0, 1, 1])
        assert list(viterbi_decode(coded, n_bits=2)) == [1, 0]

    def test_n_bits_out_of_range(self):
        coded = conv_encode([1])
        with pytest.raises(ValueError):
            viterbi_decode(coded, n_bits=100)
