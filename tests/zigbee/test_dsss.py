"""Unit and property tests for DSSS spreading/despreading."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.zigbee.dsss import despread, spread
from repro.zigbee.symbols import CHIP_TABLE


def min_intercode_distance():
    """Minimum pairwise Hamming distance of the 16 chip sequences: the
    error-correction headroom of the DSSS code."""
    return min(
        sum(x != y for x, y in zip(CHIP_TABLE[a], CHIP_TABLE[b]))
        for a in range(16)
        for b in range(a + 1, 16)
    )


class TestSpread:
    def test_single_symbol(self):
        assert np.array_equal(spread([0]), np.array(CHIP_TABLE[0]))

    def test_concatenation(self):
        chips = spread([3, 9])
        assert chips.size == 64
        assert tuple(chips[:32]) == CHIP_TABLE[3]
        assert tuple(chips[32:]) == CHIP_TABLE[9]

    def test_empty(self):
        assert spread([]).size == 0

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            spread([16])


class TestDespreadHard:
    @given(st.lists(st.integers(0, 15), min_size=1, max_size=16))
    @settings(max_examples=50, deadline=None)
    def test_clean_roundtrip(self, symbols):
        decoded, distances = despread(spread(symbols))
        assert decoded == symbols
        assert np.all(distances == 0)

    def test_corrects_chip_errors(self, rng):
        # The code's minimum distance supports correcting several flips.
        symbols = [5, 12, 0]
        chips = spread(symbols).copy()
        flip = rng.choice(chips.size, size=6, replace=False)
        chips[flip] ^= 1
        decoded, _ = despread(chips)
        assert decoded == symbols

    def test_distance_reported(self):
        chips = spread([7]).copy()
        chips[0] ^= 1
        decoded, distances = despread(chips)
        assert decoded == [7]
        assert distances[0] == 1

    def test_bad_length_raises(self):
        with pytest.raises(ValueError):
            despread(np.zeros(31))

    def test_empty(self):
        decoded, distances = despread(np.zeros(0))
        assert decoded == []
        assert distances.size == 0


class TestDespreadSoft:
    @given(st.lists(st.integers(0, 15), min_size=1, max_size=8))
    @settings(max_examples=30, deadline=None)
    def test_clean_soft_roundtrip(self, symbols):
        chips = spread(symbols)
        soft = np.where(chips == 0, 1.0, -1.0)
        decoded, _ = despread(soft, soft=True)
        assert decoded == symbols

    def test_soft_beats_hard_under_noise(self, rng):
        # With attenuated-but-informative soft values the correlator
        # still decodes where hard slicing at zero would be random.
        symbols = [4] * 20
        chips = spread(symbols)
        soft = np.where(chips == 0, 1.0, -1.0) + 1.2 * rng.standard_normal(
            chips.size
        )
        decoded, _ = despread(soft, soft=True)
        errors = sum(1 for got in decoded if got != 4)
        assert errors <= 2


class TestCodeProperties:
    def test_min_intercode_distance(self):
        # The 802.15.4 near-orthogonal code family keeps pairwise
        # Hamming distances large; its minimum is well above 0.
        assert min_intercode_distance() >= 12
