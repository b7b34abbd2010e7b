"""Fault-profile dynamics: determinism, trajectories, registry."""

import numpy as np
import pytest

from repro.transport.faults import (
    AckBlackout,
    ChannelState,
    FaultProfile,
    GilbertElliott,
    InterferenceBursts,
    PROFILES,
    SnrRamp,
    make_profile,
)


class TestRegistry:
    def test_all_profiles_constructible(self):
        for name in PROFILES:
            profile = make_profile(name)
            assert profile.name == name
            assert name in profile.describe() or profile.describe() == name

    def test_unknown_profile_raises(self):
        with pytest.raises(ValueError, match="unknown fault profile"):
            make_profile("earthquake")

    def test_expected_names(self):
        assert set(PROFILES) == {
            "none",
            "burst",
            "interference",
            "snr-ramp",
            "ack-blackout",
        }


class TestBaseProfile:
    def test_clean_and_unimpaired(self, rng):
        profile = FaultProfile()
        state = profile.state(0.5, rng)
        assert state.extra_loss_db == 0.0
        assert state.interference is None
        impairments = profile.ack_impairments()
        assert impairments.loss_prob == 0.0
        assert impairments.blackouts == ()


class TestGilbertElliott:
    def _trace(self, seed, times):
        profile = GilbertElliott()
        rng = np.random.default_rng(seed)
        return [profile.state(t, rng).extra_loss_db for t in times]

    def test_deterministic_given_rng(self):
        times = np.linspace(0.0, 5.0, 200)
        assert self._trace(3, times) == self._trace(3, times)

    def test_visits_both_states(self):
        times = np.linspace(0.0, 20.0, 800)
        trace = self._trace(1, times)
        assert 0.0 in trace and 6.0 in trace

    def test_bad_fraction_matches_sojourn_ratio(self):
        # Stationary bad probability = mean_bad / (mean_good + mean_bad).
        times = np.linspace(0.0, 200.0, 20000)
        trace = self._trace(9, times)
        bad_fraction = sum(1 for v in trace if v > 0) / len(trace)
        assert 0.15 < bad_fraction < 0.35  # nominal 0.08/0.33 ~ 0.24

    def test_invalid_sojourns_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            GilbertElliott(mean_good_s=0.0)

    def test_hands_out_one_frozen_state_per_channel_state(self):
        profile = GilbertElliott(bad_extra_loss_db=9.0)
        rng = np.random.default_rng(1)
        states = [profile.state(t, rng) for t in np.linspace(0.0, 20.0, 800)]
        distinct = {id(state): state for state in states}.values()
        assert sorted(distinct, key=lambda s: s.extra_loss_db) == [
            ChannelState(),
            ChannelState(extra_loss_db=9.0),
        ]


class TestInterferenceBursts:
    def test_interference_only_inside_windows(self, rng):
        profile = InterferenceBursts(windows=((0.2, 0.6),), sir_db=2.0)
        assert profile.state(0.1, rng).interference is None
        inside = profile.state(0.3, rng)
        assert inside.interference is not None
        assert inside.interference.mean_sir_db == 2.0
        assert profile.state(0.6, rng).interference is None  # half-open

    def test_bad_window_rejected(self):
        with pytest.raises(ValueError, match="end > start"):
            InterferenceBursts(windows=((0.5, 0.5),))


class TestSnrRamp:
    def test_piecewise_linear_interpolation(self, rng):
        profile = SnrRamp(points=((0.0, 0.0), (1.0, 4.0), (2.0, 4.0), (3.0, 0.0)))
        assert profile.loss_db(0.0) == 0.0
        assert profile.loss_db(0.5) == pytest.approx(2.0)
        assert profile.loss_db(1.5) == pytest.approx(4.0)
        assert profile.loss_db(2.5) == pytest.approx(2.0)
        # Held flat outside the knots.
        assert profile.loss_db(-1.0) == 0.0
        assert profile.loss_db(99.0) == 0.0
        assert profile.state(0.5, rng).extra_loss_db == pytest.approx(2.0)

    def test_knot_validation(self):
        with pytest.raises(ValueError, match="at least two"):
            SnrRamp(points=((0.0, 1.0),))
        with pytest.raises(ValueError, match="strictly increasing"):
            SnrRamp(points=((0.0, 1.0), (0.0, 2.0)))


class TestAckBlackout:
    def test_data_path_untouched(self, rng):
        profile = AckBlackout()
        state = profile.state(0.5, rng)
        assert state.extra_loss_db == 0.0
        assert state.interference is None

    def test_impairments_forwarded(self):
        profile = AckBlackout(
            blackouts=((0.3, 0.9),), loss_prob=0.02, jitter_sigma_s=5e-5
        )
        impairments = profile.ack_impairments()
        assert impairments.blackouts == ((0.3, 0.9),)
        assert impairments.loss_prob == 0.02
        assert impairments.jitter_sigma_s == 5e-5
