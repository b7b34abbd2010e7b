"""Unit tests for the analytical models (paper Sections II-B, VII)."""

import numpy as np
import pytest

from repro.constants import SYMBEE_BIT_DURATION, SYMBEE_STABLE_PHASE
from repro.core.analytics import (
    ber_from_phase_error,
    packet_level_bandwidth_hz,
    phase_error_probability,
    raw_bit_rate_bps,
    shannon_gain_factor,
    speedup_versus,
    symbol_level_bandwidth_hz,
)
from repro.core.frame import frame_airtime_s
from repro.dsp.signal_ops import db_to_linear
from repro.zigbee.frame import ppdu_duration_seconds
from repro.zigbee.mac import MAC_OVERHEAD_BYTES


def phase_error_probability_gaussian(snr_db):
    """Closed-form Gaussian approximation of Pr_eps (the oracle).

    Each sample's phase error is approximately Normal(0, 1/(2*SNR)) at
    moderate SNR; the difference of two independent phase errors has
    variance 1/SNR.  An error occurs when the difference pushes the
    nominal +-4pi/5 across the nearer decision boundary: the zero
    boundary is 4pi/5 away, the wrap boundary (pi) only pi/5 away, so
    both tails contribute.  Accurate above roughly 0 dB.
    """
    from scipy import stats

    sigma = np.sqrt(1.0 / db_to_linear(snr_db))
    to_zero = SYMBEE_STABLE_PHASE
    to_wrap = np.pi - SYMBEE_STABLE_PHASE
    return float(stats.norm.sf(to_zero / sigma) + stats.norm.sf(to_wrap / sigma))


def analytic_ber_curve(snr_grid_db, rng, n_samples):
    """BER(SNR) by Eq. 2 over Monte-Carlo Pr_eps: the paper's Figure 12."""
    return [
        ber_from_phase_error(phase_error_probability(snr, rng, n_samples))
        for snr in snr_grid_db
    ]


def effective_throughput_bps(data_bits, ifs_seconds=192e-6):
    """Sustained rate of back-to-back frames of ``data_bits`` data bits.

    The paper's 31.25 kbps is the in-payload symbol rate; a continuous
    sender also pays each frame's PHY and MAC overhead, the SymBee
    preamble, header and CRC, and the inter-frame spacing.
    """
    return data_bits / (frame_airtime_s(data_bits) + ifs_seconds)


class TestRates:
    def test_raw_rate_is_31250(self):
        assert raw_bit_rate_bps() == pytest.approx(31_250.0)

    def test_bit_airtime(self):
        assert SYMBEE_BIT_DURATION == pytest.approx(32e-6)

    def test_packet_level_bandwidth(self):
        # Paper Section II-B: 1/576us = 1.736 kHz.
        assert packet_level_bandwidth_hz() == pytest.approx(1736.1, rel=1e-3)

    def test_symbol_level_bandwidth(self):
        assert symbol_level_bandwidth_hz() == pytest.approx(62_500.0)

    def test_shannon_gain_36x(self):
        assert shannon_gain_factor() == pytest.approx(36.0)

    def test_speedup_vs_cmorse(self):
        assert speedup_versus(215.0) == pytest.approx(145.35, rel=1e-3)

    def test_invalid_baseline(self):
        with pytest.raises(ValueError):
            speedup_versus(0.0)


class TestPhaseErrorProbability:
    def test_monotone_in_snr(self, rng):
        values = [
            phase_error_probability(snr, rng, n_samples=40_000)
            for snr in (-10, -5, 0, 5, 10)
        ]
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_small_at_high_snr(self, rng):
        assert phase_error_probability(15.0, rng, n_samples=40_000) < 0.01

    def test_near_half_at_terrible_snr(self, rng):
        p = phase_error_probability(-25.0, rng, n_samples=40_000)
        assert 0.4 < p < 0.55

    def test_gaussian_approximation_tracks_mc(self, rng):
        for snr in (3.0, 6.0, 10.0):
            mc = phase_error_probability(snr, rng, n_samples=300_000)
            approx = phase_error_probability_gaussian(snr)
            assert approx == pytest.approx(mc, abs=0.05)


class TestBerFormula:
    def test_zero_error_probability(self):
        assert ber_from_phase_error(0.0) == 0.0

    def test_certain_error(self):
        assert ber_from_phase_error(1.0) == pytest.approx(1.0)

    def test_half_is_half(self):
        # With p = 0.5, the majority vote is a coin flip (threshold 42/84
        # slightly overshoots half, so a bit above 0.5 by symmetry).
        assert ber_from_phase_error(0.5) == pytest.approx(0.5, abs=0.05)

    def test_majority_vote_suppresses_moderate_errors(self):
        assert ber_from_phase_error(0.2) < 1e-5

    def test_invalid_probability(self):
        with pytest.raises(ValueError):
            ber_from_phase_error(1.5)

    def test_binomial_tail_matches_direct_sum(self):
        from math import comb

        p = 0.35
        direct = sum(
            comb(84, l) * p**l * (1 - p) ** (84 - l) for l in range(42, 85)
        )
        assert ber_from_phase_error(p) == pytest.approx(direct, rel=1e-9)

    def test_curve_shape(self, rng):
        curve = analytic_ber_curve((-8, -4, 0), rng, n_samples=30_000)
        assert curve[0] > curve[1] > curve[2]


class TestEffectiveThroughput:
    def test_overheads_reduce_raw_rate(self):
        assert effective_throughput_bps(72) < raw_bit_rate_bps()

    def test_bigger_frames_amortize_overhead(self):
        assert effective_throughput_bps(72) > effective_throughput_bps(16)

    def test_mac_overhead_costs_airtime(self):
        # 4 preamble + 40 header/CRC + 48 data bits, one byte per bit.
        symbee_only = ppdu_duration_seconds(4 + 40 + 48)
        assert frame_airtime_s(48) - symbee_only == pytest.approx(
            MAC_OVERHEAD_BYTES * SYMBEE_BIT_DURATION
        )
