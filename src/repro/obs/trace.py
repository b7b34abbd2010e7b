"""Nested, labeled trace spans over the link pipeline.

``TRACER.span("link.decode")`` records an ordered stream of span
records carrying nesting depth and free-form labels, so a run can be
replayed as a timeline (``modulate -> channel -> front_end -> decode``
under each ``measure_link`` parent); :meth:`Tracer.totals` gives the
per-stage totals.  These spans are the link's only stage timing.

Tracing is **off by default**: ``span()`` then returns a shared no-op
context manager, costing one method call per instrumented block.  Spans
record into a bounded in-process buffer (records beyond ``max_records``
are counted, not stored) and :meth:`Tracer.drain` hands them over as
plain dicts ready for JSONL export.

Spans are per-process by design: parallel workers do not ship span
streams back to the parent (metric shards do travel), so a traced
parallel run shows the orchestration spans while a serial run shows the
full pipeline.
"""

import time


class _NullSpan:
    """Reentrant do-nothing context manager for the disabled fast path."""

    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


_NULL_SPAN = _NullSpan()


class _Span:
    """One live span; records itself into the tracer on exit."""

    __slots__ = ("_tracer", "name", "labels", "depth", "start_s", "_t0")

    def __init__(self, tracer, name, labels):
        self._tracer = tracer
        self.name = name
        self.labels = labels

    def __enter__(self):
        tracer = self._tracer
        self.depth = len(tracer._stack)
        tracer._stack.append(self.name)
        self.start_s = time.perf_counter() - tracer._origin
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        duration = time.perf_counter() - self._t0
        tracer = self._tracer
        stack = tracer._stack
        if stack and stack[-1] == self.name:
            stack.pop()
        record = {
            "name": self.name,
            "start_s": round(self.start_s, 6),
            "duration_s": round(duration, 6),
            "depth": self.depth,
            "parent": stack[-1] if stack else None,
            "error": exc_type.__name__ if exc_type is not None else None,
        }
        if self.labels:
            record["labels"] = self.labels
        tracer._record(record)
        return False


class Tracer:
    """Collects :class:`_Span` records; disabled unless :meth:`enable`\\ d."""

    def __init__(self, max_records=100_000):
        self._enabled = False
        self._stack = []
        self._records = []
        self._origin = time.perf_counter()
        self.max_records = int(max_records)
        self.dropped = 0

    @property
    def enabled(self):
        return self._enabled

    def enable(self):
        self._enabled = True

    def disable(self):
        self._enabled = False

    def reset(self):
        self._records.clear()
        self._stack.clear()
        self.dropped = 0
        self._origin = time.perf_counter()

    def span(self, name, **labels):
        """Context manager timing one labeled block (no-op when disabled)."""
        if not self._enabled:
            return _NULL_SPAN
        return _Span(self, name, labels)

    def _record(self, record):
        if len(self._records) >= self.max_records:
            self.dropped += 1
            return
        self._records.append(record)

    def drain(self):
        """Return and clear the recorded spans (chronological exit order)."""
        records = self._records
        self._records = []
        return records

    def peek(self):
        """Return the recorded spans without clearing the buffer.

        Lets a live summary (e.g. the CLI profiler's span tree) render
        the stream while a later ``drain`` still exports it in full.
        """
        return list(self._records)

    def totals(self):
        """Aggregate ``name -> {"calls": n, "seconds": s}`` over the buffer.

        The flat per-stage view (``link.decode`` etc.); useful for quick
        span summaries without exporting the whole stream.
        """
        out = {}
        for record in self._records:
            entry = out.setdefault(record["name"], {"calls": 0, "seconds": 0.0})
            entry["calls"] += 1
            entry["seconds"] += record["duration_s"]
        return out


#: The process-wide tracer every instrumented module shares.
TRACER = Tracer()
