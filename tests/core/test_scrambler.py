"""Unit and property tests for PRBS whitening."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.core.scrambler import descramble, prbs7, scramble


def longest_same_bit_run(bits):
    """Longest run of identical bits: the oracle of preamble mimicry."""
    bits = list(bits)
    if not bits:
        return 0
    best = current = 1
    for previous, value in zip(bits, bits[1:]):
        current = current + 1 if value == previous else 1
        best = max(best, current)
    return best


class TestPrbs7:
    def test_period_127(self):
        stream = prbs7(254)
        assert np.array_equal(stream[:127], stream[127:254])
        # No shorter period.
        for candidate in (7, 31, 63):
            assert not np.array_equal(stream[:candidate], stream[candidate:2 * candidate])

    def test_balanced(self):
        stream = prbs7(127)
        assert stream.sum() == 64  # PRBS-7: 64 ones, 63 zeros per period

    def test_zero_seed_rejected(self):
        with pytest.raises(ValueError):
            prbs7(10, seed=0)

    def test_negative_length_rejected(self):
        with pytest.raises(ValueError):
            prbs7(-1)

    def test_different_seeds_differ(self):
        assert not np.array_equal(prbs7(64, seed=0x5B), prbs7(64, seed=0x13))


class TestScramble:
    @given(st.lists(st.integers(0, 1), max_size=300))
    def test_self_inverse(self, bits):
        assert list(descramble(scramble(bits))) == bits

    def test_non_binary_rejected(self):
        with pytest.raises(ValueError):
            scramble([0, 2])

    def test_kills_constant_runs(self):
        # The pathological payload: all zeros (mimics the preamble).
        scrambled = scramble([0] * 112)
        assert longest_same_bit_run(scrambled) < 8

    def test_all_ones_also_whitened(self):
        scrambled = scramble([1] * 112)
        assert longest_same_bit_run(scrambled) < 8

    def test_seed_mismatch_garbles(self):
        bits = [1, 0, 1, 1, 0, 0, 1, 0] * 8
        wrong = descramble(scramble(bits, seed=0x5B), seed=0x2A)
        assert list(wrong) != bits


class TestRunDiagnostic:
    def test_empty(self):
        assert longest_same_bit_run([]) == 0

    def test_single(self):
        assert longest_same_bit_run([1]) == 1

    def test_mixed(self):
        assert longest_same_bit_run([0, 0, 1, 1, 1, 0]) == 3


class TestEndToEndWithLink:
    def test_scrambled_constant_payload_survives_the_link(self, rng):
        """All-zero data + scrambling decodes over the real PHY.

        Without whitening, a constant all-zero payload extends the
        preamble pattern through the whole frame; with it the capture
        anchors correctly and the data descrambles back.
        """
        from repro.core.link import SymBeeLink

        link = SymBeeLink()
        data = [0] * 48
        sent = list(scramble(data))
        result = link.send_bits(sent, rng)
        assert result.preamble_captured
        recovered = list(descramble(list(result.decoded_bits)))
        assert recovered == data
