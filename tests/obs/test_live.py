"""Live telemetry plane: collector ticking, sinks, readers, rendering."""

import json
import math
import threading

import numpy as np
import pytest

from repro.network.traffic import StreamSender, StreamTraffic
from repro.obs.export import (
    LIVE_SCHEMA_VERSION,
    JsonlSink,
    PrometheusFileSink,
    format_live_line,
    parse_record,
    read_metrics_stream,
    render_prometheus,
    summarize_metrics_stream,
)
from repro.obs.live import LiveCollector, TtyDashboard
from repro.obs.metrics import REGISTRY, MetricsRegistry
from repro.stream.engine import StreamEngine


class FakeClock:
    """Injectable monotonic clock: tests advance time explicitly."""

    def __init__(self, start=100.0):
        self.now = start

    def __call__(self):
        return self.now

    def advance(self, dt):
        self.now += dt


class ListSink:
    def __init__(self):
        self.samples = []
        self.snapshots = []
        self.closed = False

    def emit(self, sample, snapshot=None):
        self.samples.append(sample)
        self.snapshots.append(snapshot)

    def close(self):
        self.closed = True


@pytest.fixture
def metered():
    """A private enabled registry with one of each instrument kind."""
    registry = MetricsRegistry()
    registry.enable()
    counter = registry.counter("t.count")
    gauge = registry.gauge("t.level")
    hist = registry.histogram("t.size", edges=(1, 2, 4))
    return registry, counter, gauge, hist


class TestLiveCollector:
    def test_interval_gates_maybe_tick(self, metered):
        registry, counter, _gauge, _hist = metered
        clock = FakeClock()
        sink = ListSink()
        collector = LiveCollector(
            interval_s=0.5, sinks=[sink], registry=registry, clock=clock
        )
        counter.inc()
        assert collector.maybe_tick() is None
        clock.advance(0.4)
        assert collector.maybe_tick() is None
        clock.advance(0.1)
        assert collector.maybe_tick() is not None
        assert len(sink.samples) == 1

    def test_zero_interval_ticks_every_call(self, metered):
        registry, _counter, _gauge, _hist = metered
        collector = LiveCollector(
            interval_s=0, sinks=[], registry=registry, clock=FakeClock()
        )
        assert collector.maybe_tick() is not None
        assert collector.maybe_tick() is not None

    def test_negative_interval_rejected(self):
        with pytest.raises(ValueError):
            LiveCollector(interval_s=-1)

    def test_rates_are_counter_deltas_over_dt(self, metered):
        registry, counter, _gauge, _hist = metered
        clock = FakeClock()
        collector = LiveCollector(
            interval_s=0, registry=registry, clock=clock
        )
        counter.inc(10)
        clock.advance(2.0)
        first = collector.tick()
        assert first["counters"] == {"t.count": 10}
        assert first["rates"] == {"t.count": pytest.approx(5.0)}
        counter.inc(3)
        clock.advance(1.0)
        second = collector.tick()
        assert second["counters"] == {"t.count": 13}
        assert second["rates"] == {"t.count": pytest.approx(3.0)}
        assert second["seq"] == first["seq"] + 1
        assert second["elapsed_s"] == pytest.approx(3.0)

    def test_sample_shape(self, metered):
        registry, counter, gauge, hist = metered
        counter.inc()
        gauge.set(7.0)
        hist.observe(3)
        collector = LiveCollector(
            interval_s=0, registry=registry, clock=FakeClock()
        )
        sample = collector.tick()
        assert sample["type"] == "live"
        assert sample["schema_version"] == LIVE_SCHEMA_VERSION
        assert sample["final"] is False
        assert sample["gauges"] == {"t.level": 7.0}
        assert sample["histograms"] == {
            "t.size": {"count": 1, "total": 3.0}
        }

    def test_finalize_is_idempotent_and_final_totals_match(self, metered):
        registry, counter, _gauge, hist = metered
        sink = ListSink()
        collector = LiveCollector(
            interval_s=0, sinks=[sink], registry=registry, clock=FakeClock()
        )
        counter.inc(4)
        collector.tick()
        counter.inc(2)
        hist.observe(1)
        final = collector.finalize()
        assert final["final"] is True
        assert collector.finalize() is None
        assert len(sink.samples) == 2
        snap = registry.snapshot()
        assert final["counters"] == snap["counters"]
        assert final["histograms"] == {
            name: {"count": data["count"], "total": data["total"]}
            for name, data in snap["histograms"].items()
        }

    def test_context_manager_finalizes(self, metered):
        registry, counter, _gauge, _hist = metered
        sink = ListSink()
        with LiveCollector(
            interval_s=0, sinks=[sink], registry=registry, clock=FakeClock()
        ):
            counter.inc()
        assert sink.samples[-1]["final"] is True

    def test_background_thread_ticks_and_stops(self, metered):
        registry, counter, _gauge, _hist = metered
        counter.inc()
        emitted = threading.Event()

        class EventSink(ListSink):
            def emit(self, sample, snapshot=None):
                super().emit(sample, snapshot)
                emitted.set()

        sink = EventSink()
        collector = LiveCollector(
            interval_s=0.01, sinks=[sink], registry=registry
        )
        collector.start()
        assert emitted.wait(timeout=5.0)
        final = collector.finalize()
        assert final["final"] is True
        assert collector._thread is None

    def test_background_needs_positive_interval(self, metered):
        registry, _counter, _gauge, _hist = metered
        collector = LiveCollector(interval_s=0, registry=registry)
        with pytest.raises(ValueError):
            collector.start()


class TestEngineRun:
    """``StreamEngine.run`` with a collector: live, exact, and inert."""

    @pytest.mark.timeout(120)
    def test_serial_run_with_collector_ticks(self, tmp_path):
        traffic = StreamTraffic(
            [
                StreamSender(0, zigbee_channel=11, reading_interval_s=0.006),
                StreamSender(1, zigbee_channel=13, reading_interval_s=0.006),
                StreamSender(2, zigbee_channel=14, reading_interval_s=0.006),
            ],
            duration_s=0.02,
        )
        samples, truth = traffic.capture(np.random.default_rng(20260808))
        assert truth
        bare = StreamEngine(demux=True).run(traffic.blocks(samples, 16384))
        assert bare

        path = tmp_path / "serial.jsonl"
        sink = JsonlSink(str(path))
        # interval 0 -> one sample per block, so even a short run
        # exercises the mid-run sample path deterministically.
        collector = LiveCollector(interval_s=0, sinks=[sink])
        REGISTRY.enable()
        REGISTRY.reset()
        try:
            frames = StreamEngine(demux=True).run(
                traffic.blocks(samples, 16384), collector=collector
            )
            collector.finalize()
            snapshot = REGISTRY.snapshot()
        finally:
            sink.close()
            REGISTRY.disable()
            REGISTRY.reset()

        # Telemetry observes the decode; it does not change it.
        assert [f.decode_fields() for f in frames] == [
            f.decode_fields() for f in bare
        ]
        records = read_metrics_stream(str(path))
        assert len(records) >= 2, "expected mid-run samples plus a final one"
        assert not any(r["final"] for r in records[:-1])
        final = records[-1]
        assert final["final"] is True
        # Cumulative totals of the last sample == the end-of-run registry.
        assert final["counters"] == snapshot["counters"]
        assert final["gauges"] == snapshot["gauges"]
        assert final["histograms"] == {
            name: {"count": data["count"], "total": data["total"]}
            for name, data in snapshot["histograms"].items()
        }
        seen = 0
        for record in records:
            value = record["counters"].get("stream.engine.samples_in", 0)
            assert value >= seen
            seen = value
        assert seen == samples.size


class TestSinksAndReaders:
    def test_jsonl_round_trip(self, tmp_path, metered):
        registry, counter, _gauge, _hist = metered
        path = tmp_path / "live.jsonl"
        sink = JsonlSink(str(path))
        collector = LiveCollector(
            interval_s=0, sinks=[sink], registry=registry, clock=FakeClock()
        )
        counter.inc(2)
        collector.tick()
        counter.inc(3)
        collector.finalize()
        sink.close()
        samples = read_metrics_stream(str(path))
        assert [s["seq"] for s in samples] == [0, 1]
        assert samples[-1]["final"] is True
        assert samples[-1]["counters"] == {"t.count": 5}

    def test_reader_skips_blank_and_foreign_records(self, tmp_path):
        path = tmp_path / "mixed.jsonl"
        path.write_text(
            '{"type": "manifest", "id": "x"}\n'
            "\n"
            '{"type": "live", "seq": 0, "final": true}\n'
        )
        samples = read_metrics_stream(str(path))
        assert len(samples) == 1
        assert samples[0]["seq"] == 0

    def test_reader_malformed_line_is_path_prefixed(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"type": "live"}\nnot json\n')
        with pytest.raises(ValueError, match=rf"{path.name}:2: not valid"):
            read_metrics_stream(str(path))

    def test_parse_rejects_non_object(self):
        with pytest.raises(ValueError, match=r"x\.jsonl:3: expected"):
            parse_record("[1, 2]", path="x.jsonl", lineno=3)

    def test_prometheus_rendering(self, metered):
        registry, counter, gauge, hist = metered
        counter.inc(4)
        gauge.set(1.25)
        hist.observe(1)
        hist.observe(3)
        hist.observe(99)
        text = render_prometheus(
            registry.snapshot(), rates={"t.count": 2.0}
        )
        assert "# TYPE repro_t_count counter\nrepro_t_count 4" in text
        assert "repro_t_count_per_second 2" in text
        assert "repro_t_level 1.25" in text
        assert 'repro_t_size_bucket{le="1"} 1' in text
        assert 'repro_t_size_bucket{le="4"} 2' in text
        assert 'repro_t_size_bucket{le="+Inf"} 3' in text
        assert "repro_t_size_sum 103" in text
        assert "repro_t_size_count 3" in text

    def test_prometheus_file_sink_atomic_write(self, tmp_path, metered):
        registry, counter, _gauge, _hist = metered
        path = tmp_path / "metrics.prom"
        sink = PrometheusFileSink(str(path))
        collector = LiveCollector(
            interval_s=0, sinks=[sink], registry=registry, clock=FakeClock()
        )
        counter.inc(6)
        collector.tick()
        text = path.read_text()
        assert "repro_t_count 6" in text
        assert not path.with_suffix(".prom.tmp").exists()

    def test_format_live_line(self):
        sample = {
            "elapsed_s": 1.5,
            "final": True,
            "rates": {"stream.engine.samples_in": 10e6},
            "counters": {
                "stream.engine.frames": 12,
                "stream.session.crc_failed": 1,
            },
            "gauges": {"stream.realtime_margin": 0.5},
        }
        line = format_live_line(sample)
        assert "10.00 Msps" in line
        assert "0.50x of 20" in line
        assert "margin  0.50x" in line
        assert "frames 12" in line
        assert "[final]" in line

    def test_format_live_line_missing_gauges(self):
        line = format_live_line({"rates": {}, "counters": {}, "gauges": {}})
        assert "margin     -" in line

    def test_tty_dashboard_prints_lines(self, metered):
        import io

        registry, counter, _gauge, _hist = metered
        out = io.StringIO()
        collector = LiveCollector(
            interval_s=0,
            sinks=[TtyDashboard(stream=out)],
            registry=registry,
            clock=FakeClock(),
        )
        counter.inc()
        collector.tick()
        collector.finalize()
        lines = out.getvalue().splitlines()
        assert len(lines) == 2
        assert lines[-1].endswith("[final]")

    def test_summarize_metrics_stream(self):
        samples = [
            {
                "elapsed_s": 1.0,
                "dt_s": 1.0,
                "final": False,
                "rates": {"stream.engine.samples_in": 1e6},
                "counters": {"stream.engine.frames": 1},
            },
            {
                "elapsed_s": 2.0,
                "dt_s": 1.0,
                "final": True,
                "rates": {"stream.engine.samples_in": 3e6},
                "counters": {"stream.engine.frames": 4},
                "gauges": {"stream.realtime_margin": 1.5},
                "histograms": {"t.size": {"count": 2, "total": 5.0}},
            },
        ]
        text = summarize_metrics_stream(samples, path="live.jsonl")
        assert "live.jsonl: 2 sample(s) over 2.00s (final)" in text
        assert "stream.engine.samples_in" in text
        assert "mean=   2000000.0" in text
        assert "stream.engine.frames" in text
        assert "stream.realtime_margin  1.500" in text
        assert "t.size  count=2  mean=2.500" in text

    def test_summarize_empty_raises(self):
        with pytest.raises(ValueError, match="no live records"):
            summarize_metrics_stream([])


class TestObserveArrayEdgeCases:
    """observe_array must agree with a scalar observe loop exactly."""

    EDGES = (1, 2, 4, 8)

    def _pair(self):
        registry = MetricsRegistry()
        registry.enable()
        array_h = registry.histogram("a", edges=self.EDGES)
        scalar_h = registry.histogram("s", edges=self.EDGES)
        return array_h, scalar_h

    def _assert_agree(self, values):
        array_h, scalar_h = self._pair()
        array_h.observe_array(values)
        for value in np.asarray(values).ravel():
            scalar_h.observe(value)
        assert array_h.counts == scalar_h.counts
        assert array_h.count == scalar_h.count
        assert array_h.total == pytest.approx(scalar_h.total)

    def test_empty_array_is_a_noop(self):
        array_h, _ = self._pair()
        array_h.observe_array(np.array([], dtype=np.int64))
        array_h.observe_array(np.array([], dtype=float))
        assert array_h.count == 0
        assert array_h.counts == [0] * (len(self.EDGES) + 1)
        assert array_h.total == 0.0

    def test_values_exactly_on_edges_int(self):
        self._assert_agree(np.array([1, 2, 4, 8], dtype=np.int64))

    def test_values_exactly_on_edges_float(self):
        self._assert_agree(np.array([1.0, 2.0, 4.0, 8.0]))

    def test_values_beyond_last_edge(self):
        self._assert_agree(np.array([9, 100, 10_000], dtype=np.int64))
        self._assert_agree(np.array([8.0001, 1e9]))

    def test_mixed_values_int_fast_path(self):
        values = np.array([0, 1, 1, 2, 3, 4, 5, 8, 9, 50], dtype=np.uint32)
        self._assert_agree(values)

    def test_mixed_values_float_path(self):
        rng = np.random.default_rng(7)
        self._assert_agree(rng.uniform(0.0, 12.0, size=257))

    def test_disabled_registry_ignores_observations(self):
        registry = MetricsRegistry()
        h = registry.histogram("off", edges=self.EDGES)
        h.observe_array(np.array([1, 2, 3]))
        assert h.count == 0

    def test_mean_nan_when_empty(self):
        registry = MetricsRegistry()
        h = registry.histogram("empty", edges=self.EDGES)
        assert math.isnan(h.mean)
