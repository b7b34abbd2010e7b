"""Parallel runs must reproduce serial runs bit-for-bit (satellite #3).

These are the acceptance tests for the runtime: the same experiment seed
must yield *identical* statistics whether trials run inline or across a
process pool, and whether the frame-waveform cache is warm or cold.
"""

import numpy as np
import pytest

from repro.core.link import SymBeeLink
from repro.experiments.common import measure_link
from repro.network.simulator import ConvergecastNetwork, NodeConfig
from repro.zigbee.waveform_cache import FRAME_WAVEFORM_CACHE


def _stats_tuple(stats):
    return (
        stats.frames,
        stats.captures,
        stats.bits_sent,
        stats.bits_delivered,
        stats.bit_errors,
        stats.snr_samples,
    )


class TestMeasureLinkDeterminism:
    def test_parallel_equals_serial_bit_identical(self):
        # Exact equality, including the per-frame SNR sample list — not
        # approximate: per-trial seeding makes the randomness identical.
        kwargs = dict(n_frames=12, bits_per_frame=32)
        link = SymBeeLink(tx_power_dbm=-88.0)
        serial = measure_link(link, np.random.default_rng(2026), jobs=1, **kwargs)
        parallel = measure_link(link, np.random.default_rng(2026), jobs=4, **kwargs)
        assert serial == parallel
        assert serial.snr_samples == parallel.snr_samples

    def test_same_seed_same_stats_across_calls(self):
        link = SymBeeLink(tx_power_dbm=-90.0)
        a = measure_link(link, np.random.default_rng(7), n_frames=6)
        b = measure_link(link, np.random.default_rng(7), n_frames=6)
        assert _stats_tuple(a) == _stats_tuple(b)

    def test_seed_sequence_accepted_directly(self):
        link = SymBeeLink(tx_power_dbm=-90.0)
        a = measure_link(link, np.random.SeedSequence(11), n_frames=4)
        b = measure_link(link, np.random.SeedSequence(11), n_frames=4)
        assert _stats_tuple(a) == _stats_tuple(b)

    def test_cold_and_warm_cache_agree(self):
        # Waveform caching must be a pure optimization: identical stats
        # with the cache cleared versus fully warm.
        link = SymBeeLink(tx_power_dbm=-89.0)
        FRAME_WAVEFORM_CACHE.clear()
        cold = measure_link(link, np.random.default_rng(5), n_frames=6)
        warm = measure_link(link, np.random.default_rng(5), n_frames=6)
        assert _stats_tuple(cold) == _stats_tuple(warm)


class TestNetworkDeterminism:
    @pytest.fixture
    def scenario(self):
        from repro.channel.scenarios import get_scenario

        return get_scenario("office")

    def _network(self, scenario, jobs):
        nodes = [
            NodeConfig(node_id=i, distance_m=2.0 + i, reading_interval_s=0.4)
            for i in range(3)
        ]
        return ConvergecastNetwork(
            nodes, scenario, sim_duration_s=1.5, max_retries=0, seed=99, jobs=jobs,
        )

    def test_deferred_parallel_phy_matches_serial(self, scenario):
        serial = self._network(scenario, jobs=1).run()
        parallel = self._network(scenario, jobs=4).run()
        assert serial.readings_generated == parallel.readings_generated
        fates = lambda result: [
            (r.node_id, r.sequence, r.attempt, r.collided, r.delivered)
            for r in result.records
        ]
        assert fates(serial) == fates(parallel)
