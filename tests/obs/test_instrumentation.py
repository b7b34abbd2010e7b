"""Instrumented layers feed the registry with consistent totals."""

import numpy as np
import pytest

from repro.obs import REGISTRY, TRACER
from repro.core.link import SymBeeLink
from repro.core.link import link_at_snr
from repro.experiments.common import measure_link


class TestLinkCounters:
    def test_clean_link_accounting(self, rng):
        REGISTRY.enable()
        link = link_at_snr(20.0)
        stats = measure_link(link, rng, n_frames=3, bits_per_frame=16)
        snap = REGISTRY.snapshot()
        assert snap["counters"]["link.frames"] == 3
        assert snap["counters"]["link.bits.sent"] == 48
        assert snap["counters"]["link.bits.delivered"] == stats.bits_delivered
        assert snap["counters"]["decoder.preamble.hit"] == 3
        assert snap["counters"]["decoder.bits_decoded"] == 48
        assert "link.frames.lost" not in snap["counters"]
        # A clean capture votes near-unanimously: margins land high.
        margin = snap["histograms"]["decoder.vote_margin"]
        assert margin["count"] == 48
        assert margin["total"] / margin["count"] > 35.0

    def test_error_taxonomy_consistent_with_result(self, rng):
        REGISTRY.enable()
        link = link_at_snr(-2.0)
        stats = measure_link(link, rng, n_frames=6, bits_per_frame=32)
        snap = REGISTRY.snapshot()["counters"]
        captured_errors = (
            snap.get("link.errors.zero_as_one", 0)
            + snap.get("link.errors.one_as_zero", 0)
            + snap.get("link.errors.truncated_bits", 0)
        )
        lost_bits = snap.get("link.frames.lost", 0) * 32
        assert captured_errors + lost_bits == stats.bit_errors
        assert (
            snap.get("decoder.preamble.hit", 0) == stats.captures
        )

    def test_untraced_run_records_no_spans(self, rng):
        REGISTRY.enable()
        SymBeeLink().send_bits([1, 0], rng)
        assert TRACER.drain() == []

    def test_traced_run_records_pipeline_spans(self, rng):
        TRACER.enable()
        SymBeeLink().send_bits([1, 0], rng)
        names = [r["name"] for r in TRACER.drain()]
        assert names == [
            "link.modulate", "link.channel", "link.front_end", "link.decode",
        ]


class TestDisabledIsInert:
    def test_no_metrics_recorded_when_off(self, rng):
        link = link_at_snr(10.0)
        measure_link(link, rng, n_frames=2, bits_per_frame=8)
        snap = REGISTRY.snapshot()
        assert snap == {"counters": {}, "gauges": {}, "histograms": {}}

    def test_results_identical_with_metrics_on(self):
        # Telemetry must observe, never perturb: same seeds, same stats.
        link = link_at_snr(1.0)
        off = measure_link(
            link, np.random.default_rng(42), n_frames=4, bits_per_frame=16
        )
        REGISTRY.enable()
        on = measure_link(
            link, np.random.default_rng(42), n_frames=4, bits_per_frame=16
        )
        assert off == on  # LinkStats equality excludes timings


class TestNetworkCounters:
    def test_mac_accounting(self):
        from repro.channel.scenarios import get_scenario
        from repro.network.simulator import ConvergecastNetwork, NodeConfig

        REGISTRY.enable()
        nodes = [
            NodeConfig(node_id=i, distance_m=5.0, reading_interval_s=0.2,
                       data_bits=8)
            for i in range(3)
        ]
        net = ConvergecastNetwork(
            nodes, get_scenario("office"), sim_duration_s=1.0, seed=3
        )
        result = net.run()
        snap = REGISTRY.snapshot()["counters"]
        assert snap["mac.arrivals"] == result.readings_generated
        assert snap["mac.transmissions"] == len(result.records)
        assert snap.get("mac.collisions", 0) == sum(
            r.collided for r in result.records
        )
        assert snap.get("mac.delivered", 0) == len(result.delivered)
        queue = REGISTRY.snapshot()["histograms"].get("mac.queue_delay_s")
        if result.records:
            assert queue["count"] == len(result.records)


class TestPreambleTaxonomy:
    def test_miss_reasons_sum_to_misses(self, rng):
        REGISTRY.enable()
        link = link_at_snr(-8.0)  # low enough that captures fail often
        stats = measure_link(link, rng, n_frames=8, bits_per_frame=16)
        snap = REGISTRY.snapshot()["counters"]
        misses = sum(
            v for k, v in snap.items()
            if k.startswith("decoder.preamble.miss.")
        )
        assert snap.get("decoder.preamble.hit", 0) == stats.captures
        assert misses == stats.frames - stats.captures

    def test_short_stream_miss(self):
        from repro.core.decoder import SymBeeDecoder
        from repro.core.preamble import capture_preamble

        REGISTRY.enable()
        decoder = SymBeeDecoder()
        assert capture_preamble(np.zeros(10), decoder) is None
        snap = REGISTRY.snapshot()["counters"]
        assert snap["decoder.preamble.miss.short_stream"] == 1
