"""Unit and property tests for repro.zigbee.symbols (paper Table I)."""

import pytest
from hypothesis import given, strategies as st

from repro.zigbee.symbols import (
    CHIP_MATRIX,
    CHIP_MATRIX_ANTIPODAL,
    CHIP_TABLE,
    bytes_to_symbols,
    chips_for_symbol,
    symbols_to_bytes,
)


def symbol_for_chips(chips):
    """Exact inverse lookup of the chip table (raises ``KeyError`` for a
    sequence outside it): the oracle that the 16 sequences are distinct."""
    table = {CHIP_TABLE[s]: s for s in range(16)}
    return table[tuple(int(c) for c in chips)]


class TestChipTable:
    def test_symbol_0_matches_paper_table1(self):
        expected = "11011001110000110101001000101110"
        assert "".join(map(str, CHIP_TABLE[0])) == expected

    def test_symbol_f_matches_paper_table1(self):
        expected = "11001001011000000111011110111000"
        assert "".join(map(str, CHIP_TABLE[0xF])) == expected

    def test_sixteen_sequences_of_32_chips(self):
        assert len(CHIP_TABLE) == 16
        assert all(len(seq) == 32 for seq in CHIP_TABLE)

    def test_all_sequences_distinct(self):
        assert len(set(CHIP_TABLE)) == 16

    @pytest.mark.parametrize("symbol", range(1, 8))
    def test_cyclic_shift_structure(self, symbol):
        base = CHIP_TABLE[0]
        shifted = base[-4 * symbol :] + base[: -4 * symbol]
        assert CHIP_TABLE[symbol] == shifted

    @pytest.mark.parametrize("symbol", range(8))
    def test_conjugate_structure(self, symbol):
        # Symbols 8-15 invert exactly the odd-indexed (quadrature) chips.
        low, high = CHIP_TABLE[symbol], CHIP_TABLE[symbol + 8]
        for i in range(32):
            if i % 2 == 0:
                assert low[i] == high[i]
            else:
                assert low[i] != high[i]

    def test_balanced_chips(self):
        # Each PN sequence has equal numbers of 0s and 1s.
        for seq in CHIP_TABLE:
            assert sum(seq) == 16

    def test_chip_matrix_consistent(self):
        assert CHIP_MATRIX.shape == (16, 32)
        for s in range(16):
            assert tuple(CHIP_MATRIX[s]) == CHIP_TABLE[s]

    def test_antipodal_mapping(self):
        # Chip 0 -> +1, chip 1 -> -1 (the paper's pulse polarity).
        assert set(CHIP_MATRIX_ANTIPODAL.ravel().tolist()) == {-1, 1}
        assert all(
            (CHIP_MATRIX[s][i] == 0) == (CHIP_MATRIX_ANTIPODAL[s][i] == 1)
            for s in range(16)
            for i in range(32)
        )


class TestLookups:
    @given(st.integers(0, 15))
    def test_roundtrip(self, symbol):
        assert symbol_for_chips(chips_for_symbol(symbol)) == symbol

    @pytest.mark.parametrize("bad", [-1, 16, 255])
    def test_out_of_range_symbol(self, bad):
        with pytest.raises(ValueError):
            chips_for_symbol(bad)

    def test_unknown_chips_raise(self):
        with pytest.raises(KeyError):
            symbol_for_chips((0,) * 32)


class TestNibbleConversion:
    def test_low_first_order(self):
        # 802.15.4 sends the low nibble first: 0x76 -> symbols (6, 7).
        assert bytes_to_symbols(b"\x76") == [6, 7]

    def test_high_first_order(self):
        # The paper's printed byte values: 0x67 -> symbols (6, 7).
        assert bytes_to_symbols(b"\x67", nibble_order="high-first") == [6, 7]

    def test_multibyte(self):
        assert bytes_to_symbols(b"\x10\x32") == [0, 1, 2, 3]

    def test_empty(self):
        assert bytes_to_symbols(b"") == []

    def test_unknown_order_raises(self):
        with pytest.raises(ValueError):
            bytes_to_symbols(b"\x00", nibble_order="middle-endian")

    def test_symbols_to_bytes_inverse(self):
        assert symbols_to_bytes([6, 7]) == b"\x76"
        assert symbols_to_bytes([6, 7], nibble_order="high-first") == b"\x67"

    def test_odd_symbol_count_raises(self):
        with pytest.raises(ValueError):
            symbols_to_bytes([1, 2, 3])

    def test_symbol_out_of_range_raises(self):
        with pytest.raises(ValueError):
            symbols_to_bytes([1, 17])

    @given(st.binary(max_size=64), st.sampled_from(["low-first", "high-first"]))
    def test_roundtrip_property(self, payload, order):
        symbols = bytes_to_symbols(payload, order)
        assert symbols_to_bytes(symbols, order) == payload
