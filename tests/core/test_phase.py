"""Unit tests for phase extraction and CFO compensation."""

import numpy as np
import pytest

from repro.constants import SYMBEE_STABLE_PHASE
from repro.core.phase import (
    cfo_compensation_phase,
    compensate_cfo,
    cross_observed_phases,
    discrete_phase_levels,
    pair_phase_stream,
    stable_run_lengths,
)
from repro.dsp.runs import longest_run


def sign_run_lengths(symbol_pair):
    """Longest same-sign runs: what the sign-threshold decoder sees."""
    dp = pair_phase_stream(symbol_pair)
    return longest_run(dp < 0), longest_run(dp >= 0)


class TestCfoCompensation:
    @pytest.mark.parametrize("offset_mhz", [-7, -2, 3, 8])
    def test_all_valid_offsets_need_same_correction(self, offset_mhz):
        # Paper Appendix B: every overlapping channel pair compensates
        # with the same +4pi/5 constant.
        corr = cfo_compensation_phase(offset_mhz * 1e6, 16, 20e6)
        assert corr == pytest.approx(SYMBEE_STABLE_PHASE)

    def test_40mhz_same_correction(self):
        corr = cfo_compensation_phase(3e6, 32, 40e6)
        assert corr == pytest.approx(SYMBEE_STABLE_PHASE)

    def test_zero_offset_zero_correction(self):
        assert cfo_compensation_phase(0.0, 16, 20e6) == pytest.approx(0.0)

    def test_compensation_restores_baseband_phase(self, rng):
        # Mix a (6,7) waveform by +3 MHz, observe, compensate: the
        # plateau must sit at +4pi/5 again.
        from repro.dsp.signal_ops import mix
        from repro.zigbee.oqpsk import OqpskModulator

        wf = OqpskModulator(20e6).modulate_symbols([0x6, 0x7])
        shifted = mix(wf, 3e6, 20e6)
        dp = cross_observed_phases(shifted, 16)
        compensated = compensate_cfo(dp)
        plateau = np.abs(compensated - SYMBEE_STABLE_PHASE) < 1e-6
        assert plateau.sum() >= 84

    def test_compensate_wraps(self):
        out = compensate_cfo(np.array([np.pi - 0.1]))
        assert -np.pi < out[0] <= np.pi


class TestStableRuns:
    def test_pair_67(self):
        neg, pos = stable_run_lengths((0x6, 0x7))
        assert pos >= 84 and neg < 84

    def test_pair_ef(self):
        neg, pos = stable_run_lengths((0xE, 0xF))
        assert neg >= 84 and pos < 84

    def test_symmetry_of_conjugate_pairs(self):
        neg67, pos67 = stable_run_lengths((0x6, 0x7))
        negef, posef = stable_run_lengths((0xE, 0xF))
        assert (neg67, pos67) == (posef, negef)

    def test_optimality_over_all_pairs(self):
        # Paper Section IV-A: the longest stable phase among any
        # combination belongs to (6,7) and (E,F).
        best = max(
            max(stable_run_lengths((a, b)))
            for a in range(16)
            for b in range(16)
            if (a, b) not in ((0x6, 0x7), (0xE, 0xF))
        )
        assert max(stable_run_lengths((0x6, 0x7))) > best

    def test_sign_runs_longer_than_plateaus(self):
        neg_sign, pos_sign = sign_run_lengths((0x6, 0x7))
        neg_plateau, pos_plateau = stable_run_lengths((0x6, 0x7))
        assert pos_sign >= pos_plateau

    def test_pair_stream_length(self):
        dp = pair_phase_stream((0, 0))
        # Two symbols = 640 samples + Q tail, minus the lag.
        assert dp.size == 650 - 16


class TestDiscreteLevels:
    def test_extremes_are_4pi5(self):
        levels = discrete_phase_levels()
        assert min(levels) == pytest.approx(-SYMBEE_STABLE_PHASE, abs=1e-6)
        assert max(levels) == pytest.approx(SYMBEE_STABLE_PHASE, abs=1e-6)

    def test_contains_derived_17_levels(self):
        levels = {round(v, 6) for v in discrete_phase_levels()}
        for i in range(-8, 9):
            assert round(np.pi / 10 * i, 6) in levels or round(
                -np.pi / 10 * -i, 6
            ) in levels

    def test_levels_on_pi_over_20_grid(self):
        for v in discrete_phase_levels():
            ratio = v / (np.pi / 20)
            assert abs(ratio - round(ratio)) < 1e-4
