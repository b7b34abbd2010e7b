"""Parallel runs must report the same aggregate telemetry as serial runs.

The ISSUE-2 acceptance contract: with the registry enabled, a
``measure_link`` run at ``jobs>1`` merges worker metric shards into the
parent such that every counter and histogram total equals the serial
run's on identical seeds (gauges are last-write and excluded).
"""

import numpy as np
import pytest

from repro.obs import REGISTRY
from repro.core.link import link_at_snr
from repro.experiments.common import measure_link
from repro.runtime import run_trials


def _measure(jobs, snr_db=1.0, n_frames=8):
    REGISTRY.reset()
    link = link_at_snr(snr_db)
    stats = measure_link(
        link,
        np.random.default_rng(1234),
        n_frames=n_frames,
        bits_per_frame=24,
        jobs=jobs,
    )
    return stats, REGISTRY.snapshot()


class TestMeasureLinkEquivalence:
    def test_counters_and_histograms_match_serial(self):
        REGISTRY.enable()
        serial_stats, serial = _measure(jobs=1)
        parallel_stats, parallel = _measure(jobs=2)
        # the runs themselves are bit-identical (PR-1 guarantee) ...
        assert serial_stats == parallel_stats
        # ... and so is every aggregated counter and histogram.
        assert serial["counters"] == parallel["counters"]
        assert serial["histograms"] == parallel["histograms"]
        # sanity: the run actually recorded link + decoder telemetry
        assert serial["counters"]["link.frames"] == 8
        assert serial["histograms"]["decoder.vote_margin"]["count"] > 0

    def test_gauges_present_in_both(self):
        REGISTRY.enable()
        _, serial = _measure(jobs=1)
        _, parallel = _measure(jobs=2)
        assert set(serial["gauges"]) == set(parallel["gauges"])


def _counting_trial(task):
    from repro.obs.metrics import REGISTRY as worker_registry

    worker_registry.counter("trial.calls").inc()
    worker_registry.histogram("trial.values", edges=(2, 4, 8)).observe(task)
    return task * 2


class TestRunTrialsSharding:
    def test_shards_merge_in_parent(self):
        REGISTRY.enable()
        tasks = [1, 2, 3, 4, 5, 6]
        results = run_trials(_counting_trial, tasks, jobs=2)
        assert results == [t * 2 for t in tasks]
        snap = REGISTRY.snapshot()
        assert snap["counters"]["trial.calls"] == len(tasks)
        hist = snap["histograms"]["trial.values"]
        assert hist["count"] == len(tasks)
        assert hist["total"] == pytest.approx(sum(tasks))
        assert hist["counts"] == [2, 2, 2, 0]  # <=2, <=4, <=8, overflow

    def test_parallel_matches_serial_totals(self):
        REGISTRY.enable()
        tasks = list(range(1, 9))
        run_trials(_counting_trial, tasks, jobs=1)
        serial = REGISTRY.snapshot()
        REGISTRY.reset()
        run_trials(_counting_trial, tasks, jobs=3)
        parallel = REGISTRY.snapshot()
        assert serial["counters"] == parallel["counters"]
        assert serial["histograms"] == parallel["histograms"]

    def test_disabled_registry_skips_sharding(self):
        # With telemetry off the pool path returns raw fn results (no
        # wrapper tuples) and records nothing.
        tasks = [1, 2, 3, 4]
        results = run_trials(_counting_trial, tasks, jobs=2)
        assert results == [2, 4, 6, 8]
        assert REGISTRY.snapshot()["counters"] == {}
