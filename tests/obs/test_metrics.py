"""Metrics registry: instruments, gating, snapshot/merge/shard contract."""

import pickle

import pytest

from repro.obs.metrics import REGISTRY, MetricsRegistry


class TestGating:
    def test_disabled_by_default(self):
        registry = MetricsRegistry()
        assert not registry.enabled

    def test_disabled_instruments_are_noops(self):
        registry = MetricsRegistry()
        counter = registry.counter("c")
        gauge = registry.gauge("g")
        hist = registry.histogram("h", edges=(1, 2))
        counter.inc()
        gauge.set(5.0)
        hist.observe(1.5)
        hist.observe_each([1.5])
        hist.fold([1, 0, 0], 1, 1)
        assert counter.value == 0
        assert gauge.value != gauge.value  # still nan
        assert hist.count == 0

    def test_enable_disable(self):
        registry = MetricsRegistry()
        counter = registry.counter("c")
        registry.enable()
        counter.inc(3)
        registry.disable()
        counter.inc(100)
        assert counter.value == 3

    def test_process_registry_default_off(self):
        assert not REGISTRY.enabled


class TestInstruments:
    def _registry(self):
        registry = MetricsRegistry()
        registry.enable()
        return registry

    def test_counter_accumulates(self):
        c = self._registry().counter("events")
        c.inc()
        c.inc(4)
        assert c.value == 5

    def test_registration_is_idempotent(self):
        registry = self._registry()
        assert registry.counter("x") is registry.counter("x")
        assert registry.gauge("y") is registry.gauge("y")
        assert registry.histogram("z") is registry.histogram("z")

    def test_gauge_keeps_last(self):
        g = self._registry().gauge("level")
        g.set(1.0)
        g.set(2.5)
        assert g.value == 2.5

    def test_histogram_buckets_upper_inclusive(self):
        h = self._registry().histogram("sizes", edges=(10, 20, 30))
        for value in (5, 10, 11, 25, 30, 31, 1000):
            h.observe(value)
        # (<=10): 5, 10 | (<=20): 11 | (<=30): 25, 30 | overflow: 31, 1000
        assert h.counts == [2, 1, 2, 2]
        assert h.count == 7
        assert h.total == pytest.approx(5 + 10 + 11 + 25 + 30 + 31 + 1000)

    def test_histogram_observe_array_matches_scalar(self):
        registry = self._registry()
        a = registry.histogram("a", edges=(1, 4, 9))
        b = registry.histogram("b", edges=(1, 4, 9))
        values = [0.5, 1.0, 1.5, 4.0, 9.0, 9.5, 100.0]
        for v in values:
            a.observe(v)
        b.observe_array(values)
        assert a.counts == b.counts
        assert a.count == b.count
        assert a.total == pytest.approx(b.total)

    def test_histogram_observe_each_and_fold_match_scalar(self):
        # observe_each keeps observe's sequential float total exactly;
        # fold adds bins made elsewhere on the same edges.
        registry = self._registry()
        a, b, c, d = (registry.histogram(n, edges=(1, 4, 9)) for n in "abcd")
        values = [0.1, 0.7, 1e16, 1.0, -1e16, 4.0, 9.5, 0.3]
        for v in values:
            a.observe(v)
        b.observe_each(values)
        assert (a.counts, a.count, a.total) == (b.counts, b.count, b.total)
        ints = [0, 1, 2, 4, 5, 9, 10, 100]
        for v in ints:
            c.observe(v)
        d.fold([2, 2, 2, 2, 7], len(ints), sum(ints))  # 7: past overflow
        assert (c.counts, c.count, c.total) == (d.counts, d.count, d.total)

    def test_histogram_mean(self):
        h = self._registry().histogram("m", edges=(10,))
        h.observe(2)
        h.observe(4)
        assert h.mean == pytest.approx(3.0)

    def test_histogram_rejects_bad_edges(self):
        registry = self._registry()
        with pytest.raises(ValueError):
            registry.histogram("bad", edges=())
        with pytest.raises(ValueError):
            registry.histogram("bad2", edges=(3, 2))

    def test_histogram_edge_conflict_on_reregistration(self):
        registry = self._registry()
        registry.histogram("h", edges=(1, 2))
        with pytest.raises(ValueError):
            registry.histogram("h", edges=(1, 3))


class TestSnapshotMerge:
    def _recorded(self):
        registry = MetricsRegistry()
        registry.enable()
        registry.counter("frames").inc(7)
        registry.gauge("snr").set(3.5)
        h = registry.histogram("margins", edges=(10, 20))
        h.observe(5)
        h.observe(15)
        h.observe(50)
        return registry

    def test_snapshot_skips_untouched(self):
        registry = MetricsRegistry()
        registry.counter("never")
        registry.gauge("never_g")
        registry.histogram("never_h")
        snap = registry.snapshot()
        assert snap == {"counters": {}, "gauges": {}, "histograms": {}}

    def test_snapshot_include_zero(self):
        registry = MetricsRegistry()
        registry.counter("never")
        assert registry.snapshot(include_zero=True)["counters"] == {"never": 0}

    def test_snapshot_layout(self):
        snap = self._recorded().snapshot()
        assert snap["counters"] == {"frames": 7}
        assert snap["gauges"] == {"snr": 3.5}
        assert snap["histograms"]["margins"] == {
            "edges": [10.0, 20.0],
            "counts": [1, 1, 1],
            "count": 3,
            "total": 70.0,
        }

    def test_merge_adds_counters_and_histograms(self):
        shard = self._recorded().snapshot()
        parent = self._recorded()
        parent.merge(shard)
        snap = parent.snapshot()
        assert snap["counters"] == {"frames": 14}
        assert snap["histograms"]["margins"]["counts"] == [2, 2, 2]
        assert snap["histograms"]["margins"]["total"] == pytest.approx(140.0)

    def test_merge_creates_missing_instruments(self):
        parent = MetricsRegistry()
        parent.merge(self._recorded().snapshot())
        snap = parent.snapshot()
        assert snap["counters"] == {"frames": 7}
        assert snap["gauges"] == {"snr": 3.5}
        assert snap["histograms"]["margins"]["count"] == 3

    def test_merge_into_disabled_parent(self):
        # The parent aggregates shards even while its own instruments
        # are gated off — run_trials relies on this.
        parent = MetricsRegistry()
        assert not parent.enabled
        parent.merge({"counters": {"c": 2}})
        assert parent.snapshot()["counters"] == {"c": 2}

    def test_merge_after_pickle_round_trip(self):
        shard = pickle.loads(pickle.dumps(self._recorded().snapshot()))
        parent = MetricsRegistry()
        parent.merge(shard)
        assert parent.snapshot() == self._recorded().snapshot()

    def test_merge_rejects_mismatched_histogram_edges(self):
        parent = self._recorded()
        bad = {
            "histograms": {
                "margins": {
                    "edges": [1, 2],
                    "counts": [0, 0, 0],
                    "count": 0,
                    "total": 0.0,
                }
            }
        }
        with pytest.raises(ValueError):
            parent.merge(bad)

    def test_reset_keeps_registrations(self):
        registry = self._recorded()
        counter = registry.counter("frames")
        registry.reset()
        assert registry.snapshot() == {
            "counters": {}, "gauges": {}, "histograms": {},
        }
        counter.inc()  # original reference still wired in
        assert registry.snapshot()["counters"] == {"frames": 1}
