"""Process-wide metrics registry: counters, gauges, fixed-bucket histograms.

The registry is **off by default** and every instrument checks one flag
before doing any work, so instrumented hot paths cost a single attribute
load + branch per event when telemetry is disabled.  Call sites register
their instruments once at import time and keep the returned object:

    from repro.obs.metrics import REGISTRY

    _FRAMES = REGISTRY.counter("link.frames")
    ...
    _FRAMES.inc()          # no-op unless REGISTRY.enable() was called

Instruments live for the life of the process; :meth:`MetricsRegistry.reset`
zeroes their values in place (references stay valid), and
:meth:`MetricsRegistry.snapshot` exports plain picklable dicts that
:meth:`MetricsRegistry.merge` folds back in — the contract the parallel
trial executor uses to ship worker shards to the parent, mirroring how
``StageTimings`` shards merge today.

Histograms use **fixed** upper-edge buckets declared at registration, so
two processes that register the same metric always agree on the layout
and shard merging is plain elementwise addition.
"""

from bisect import bisect_left

import numpy as np

#: Default histogram edges: powers of two, good enough for counts and
#: sample lengths when a call site does not pick domain-specific edges.
DEFAULT_BUCKETS = (1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024)


class Counter:
    """Monotonically increasing event count."""

    __slots__ = ("name", "value", "_registry")

    def __init__(self, name, registry):
        self.name = name
        self.value = 0
        self._registry = registry

    def inc(self, n=1):
        if self._registry._enabled:
            self.value += n

    def _reset(self):
        self.value = 0


class Gauge:
    """Last-observed value (e.g. a rate or level); ``nan`` until set."""

    __slots__ = ("name", "value", "_registry")

    def __init__(self, name, registry):
        self.name = name
        self.value = float("nan")
        self._registry = registry

    def set(self, value):
        if self._registry._enabled:
            self.value = float(value)

    def _reset(self):
        self.value = float("nan")


class Histogram:
    """Fixed-bucket histogram of nonnegative observations.

    ``edges`` are inclusive upper bounds; an observation lands in the
    first bucket whose edge is >= the value, with one extra overflow
    bucket past the last edge.  ``count`` / ``total`` track the running
    count and sum so means survive shard merging.
    """

    __slots__ = (
        "name", "edges", "counts", "count", "total", "_registry",
        "_int_cuts", "_int_cap",
    )

    def __init__(self, name, registry, edges=DEFAULT_BUCKETS):
        edges = tuple(float(e) for e in edges)
        if not edges or any(b <= a for a, b in zip(edges, edges[1:])):
            raise ValueError("histogram edges must be strictly increasing")
        self.name = name
        self.edges = edges
        self.counts = [0] * (len(edges) + 1)
        self.count = 0
        self.total = 0.0
        self._registry = registry
        # Integer-edge histograms get a bincount fast path in
        # observe_array: segment cut points [0, e0+1, e1+1, ...] so
        # np.add.reduceat folds a per-value bincount into the buckets.
        # Bounded by the last edge since bincount allocates that many slots.
        if all(e == int(e) for e in edges) and edges[-1] < 1 << 20:
            self._int_cap = int(edges[-1]) + 1
            self._int_cuts = np.concatenate(
                ([0], np.asarray(edges, dtype=np.int64) + 1)
            )
        else:
            self._int_cap = None
            self._int_cuts = None

    def observe(self, value):
        if not self._registry._enabled:
            return
        value = float(value)
        self.counts[bisect_left(self.edges, value)] += 1
        self.count += 1
        self.total += value

    def observe_array(self, values):
        """Vectorized :meth:`observe` for a numpy array of values."""
        if not self._registry._enabled:
            return
        values = np.asarray(values)
        if values.size == 0:
            return
        if (
            self._int_cuts is not None
            and values.dtype.kind in "iu"
            and (values.dtype.kind == "u" or values.min() >= 0)
        ):
            # bincount over the raw (clipped) integers then fold the
            # per-value counts into buckets — much cheaper than a
            # searchsorted when values repeat heavily (run lengths do).
            per_value = np.bincount(
                np.minimum(values, self._int_cap), minlength=self._int_cap + 1
            )
            binned = np.add.reduceat(per_value, self._int_cuts)
        else:
            values = np.asarray(values, dtype=float)
            idx = np.searchsorted(self.edges, values, side="left")
            binned = np.bincount(idx, minlength=len(self.edges) + 1)
        for i, n in enumerate(binned):
            self.counts[i] += int(n)
        self.count += int(values.size)
        self.total += float(values.sum())

    @property
    def mean(self):
        return self.total / self.count if self.count else float("nan")

    def _reset(self):
        self.counts = [0] * (len(self.edges) + 1)
        self.count = 0
        self.total = 0.0


class MetricsRegistry:
    """Named instruments plus enable/disable, snapshot and shard merge."""

    def __init__(self):
        self._enabled = False
        self._counters = {}
        self._gauges = {}
        self._histograms = {}

    # -- lifecycle ----------------------------------------------------------

    @property
    def enabled(self):
        return self._enabled

    def enable(self):
        self._enabled = True

    def disable(self):
        self._enabled = False

    def reset(self):
        """Zero every instrument in place (registrations survive)."""
        for group in (self._counters, self._gauges, self._histograms):
            for instrument in group.values():
                instrument._reset()

    # -- registration -------------------------------------------------------

    def counter(self, name):
        try:
            return self._counters[name]
        except KeyError:
            c = self._counters[name] = Counter(name, self)
            return c

    def gauge(self, name):
        try:
            return self._gauges[name]
        except KeyError:
            g = self._gauges[name] = Gauge(name, self)
            return g

    def histogram(self, name, edges=DEFAULT_BUCKETS):
        try:
            h = self._histograms[name]
        except KeyError:
            h = self._histograms[name] = Histogram(name, self, edges)
            return h
        if h.edges != tuple(float(e) for e in edges):
            raise ValueError(
                f"histogram {name!r} re-registered with different edges"
            )
        return h

    # -- export / merge -----------------------------------------------------

    def snapshot(self, include_zero=False):
        """Plain-dict export of every instrument's current value.

        Untouched instruments are skipped unless ``include_zero`` — a
        worker shard should only carry what the trial actually recorded.
        The layout is stable and JSON/pickle friendly::

            {"counters":   {name: int},
             "gauges":     {name: float},
             "histograms": {name: {"edges": [...], "counts": [...],
                                   "count": int, "total": float}}}
        """
        counters = {
            c.name: c.value
            for c in self._counters.values()
            if include_zero or c.value
        }
        gauges = {
            g.name: g.value
            for g in self._gauges.values()
            if include_zero or g.value == g.value  # skip untouched (nan)
        }
        histograms = {
            h.name: {
                "edges": list(h.edges),
                "counts": list(h.counts),
                "count": h.count,
                "total": h.total,
            }
            for h in self._histograms.values()
            if include_zero or h.count
        }
        return {"counters": counters, "gauges": gauges, "histograms": histograms}

    def merge(self, shard):
        """Fold a :meth:`snapshot` dict back into this registry.

        Counters and histograms add; gauges take the shard's value
        (last merged wins).  Instruments the parent has not registered
        yet are created on the fly, so merging works even when the
        recording module was only imported in the worker.  Merging
        bypasses the enabled flag: a disabled parent still aggregates
        shards handed to it explicitly.
        """
        for name, value in shard.get("counters", {}).items():
            self.counter(name).value += value
        for name, value in shard.get("gauges", {}).items():
            self.gauge(name).value = value
        for name, data in shard.get("histograms", {}).items():
            h = self.histogram(name, data["edges"])
            if list(h.edges) != [float(e) for e in data["edges"]]:
                raise ValueError(
                    f"cannot merge histogram {name!r}: bucket edges differ"
                )
            for i, n in enumerate(data["counts"]):
                h.counts[i] += n
            h.count += data["count"]
            h.total += data["total"]
        return self


#: The process-wide registry every instrumented module shares.
REGISTRY = MetricsRegistry()
