"""Trace spans: nesting, labels, gating, buffer bounds."""

from repro.obs.trace import Tracer, _NULL_SPAN


class TestGating:
    def test_disabled_span_is_shared_noop(self):
        tracer = Tracer()
        assert tracer.span("x") is _NULL_SPAN
        with tracer.span("x"):
            pass
        assert tracer.drain() == []

    def test_enable_records(self):
        tracer = Tracer()
        tracer.enable()
        with tracer.span("work"):
            pass
        records = tracer.drain()
        assert len(records) == 1
        assert records[0]["name"] == "work"
        assert records[0]["duration_s"] >= 0.0


class TestNesting:
    def test_depth_and_parent(self):
        tracer = Tracer()
        tracer.enable()
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        inner, outer = tracer.drain()  # exit order: inner first
        assert inner["name"] == "inner"
        assert inner["depth"] == 1
        assert inner["parent"] == "outer"
        assert outer["depth"] == 0
        assert outer["parent"] is None

    def test_recorded_span_nests_like_an_opened_one(self):
        tracer = Tracer()
        tracer.record("early", 1.0)  # disabled: nothing recorded
        tracer.enable()
        with tracer.span("outer"):
            tracer.record("timed", 0.25, stage="scan")
        timed, outer = tracer.drain()
        assert timed["name"] == "timed"
        assert (timed["depth"], timed["parent"]) == (1, "outer")
        assert timed["duration_s"] == 0.25
        assert timed["labels"] == {"stage": "scan"}
        assert timed["error"] is None
        assert outer["depth"] == 0

    def test_sibling_spans_share_depth(self):
        tracer = Tracer()
        tracer.enable()
        with tracer.span("a"):
            pass
        with tracer.span("b"):
            pass
        a, b = tracer.drain()
        assert a["depth"] == b["depth"] == 0

    def test_labels_recorded(self):
        tracer = Tracer()
        tracer.enable()
        with tracer.span("cell", scenario="office", distance_m=5):
            pass
        (record,) = tracer.drain()
        assert record["labels"] == {"scenario": "office", "distance_m": 5}

    def test_error_marked(self):
        tracer = Tracer()
        tracer.enable()
        try:
            with tracer.span("boom"):
                raise RuntimeError("x")
        except RuntimeError:
            pass
        (record,) = tracer.drain()
        assert record["error"] == "RuntimeError"


class TestBuffer:
    def test_drain_clears(self):
        tracer = Tracer()
        tracer.enable()
        with tracer.span("once"):
            pass
        assert len(tracer.drain()) == 1
        assert tracer.drain() == []

    def test_buffer_bound_counts_drops(self):
        tracer = Tracer(max_records=2)
        tracer.enable()
        for _ in range(5):
            with tracer.span("s"):
                pass
        assert len(tracer.drain()) == 2
        assert tracer.dropped == 3

    def test_totals_aggregate(self):
        tracer = Tracer()
        tracer.enable()
        for _ in range(3):
            with tracer.span("stage"):
                pass
        totals = tracer.totals()
        assert totals["stage"]["calls"] == 3
        assert totals["stage"]["seconds"] >= 0.0

    def test_reset(self):
        tracer = Tracer()
        tracer.enable()
        with tracer.span("s"):
            pass
        tracer.reset()
        assert tracer.drain() == []
        assert tracer.dropped == 0
