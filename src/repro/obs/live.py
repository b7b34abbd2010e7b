"""Live telemetry plane: periodic registry snapshots fanned out to sinks.

``repro.obs`` (PR 2) records what a run *did* — a metric snapshot
written after the fact.  :class:`LiveCollector` shows what a run *is
doing*: on a wall-clock interval it snapshots the process-wide
:data:`~repro.obs.metrics.REGISTRY`, computes counter deltas/rates
against the previous tick, and emits one *live sample* to every sink
(JSONL time series, Prometheus exposition file, TTY dashboard — see
:mod:`repro.obs.export`).

Two driving modes:

* **inline** — a run loop calls :meth:`LiveCollector.maybe_tick` at a
  natural cadence point (``StreamEngine.run`` does this per block); the
  collector decides whether the interval has elapsed.  Deterministic
  and test-friendly: no thread is involved.
* **background** — :meth:`start` spawns a daemon thread ticking every
  interval, for long-running hosts whose hot loop should not carry the
  tick check.  Instrument mutations are plain int/float stores under
  the GIL, so a concurrent snapshot is torn at worst *between*
  instruments — fine for a monitoring view, never corrupting.

The cumulative-totals contract, asserted in ``tests/obs/``: after
:meth:`finalize`, the last emitted sample's counters/histogram totals
equal the end-of-run registry snapshot exactly.
"""

import threading
import time

from repro.obs.metrics import REGISTRY
from repro.obs.export import LIVE_SCHEMA_VERSION, format_live_line


class LiveCollector:
    """Snapshot the registry on an interval; emit delta/rate samples.

    ``interval_s=0`` ticks on every :meth:`maybe_tick` call — useful in
    tests and for per-block resolution on short runs.  ``clock`` is the
    monotonic interval clock, ``wall`` stamps ``t_unix``; both are
    injectable so tick timing is testable without sleeping.
    """

    def __init__(
        self,
        interval_s=0.5,
        sinks=(),
        registry=None,
        clock=time.monotonic,
        wall=time.time,
    ):
        self.interval_s = float(interval_s)
        if self.interval_s < 0:
            raise ValueError("interval_s must be >= 0")
        self.sinks = list(sinks)
        self._registry = registry if registry is not None else REGISTRY
        self._clock = clock
        self._wall = wall
        self._lock = threading.Lock()
        self._start_clock = self._clock()
        self._last_tick_clock = self._start_clock
        self._prev_counters = {}
        self._seq = 0
        self.samples_emitted = 0
        self._finalized = False
        self._thread = None
        self._stop_event = None

    # -- ticking -------------------------------------------------------------

    def maybe_tick(self):
        """Tick if the interval has elapsed; returns the sample or ``None``."""
        if self._clock() - self._last_tick_clock < self.interval_s:
            return None
        return self.tick()

    def tick(self, final=False):
        """Force one sample now and emit it to every sink."""
        with self._lock:
            now = self._clock()
            dt = now - self._last_tick_clock
            self._last_tick_clock = now
            snapshot = self._registry.snapshot()
            counters = snapshot.get("counters", {})
            safe_dt = max(dt, 1e-9)
            rates = {
                name: (value - self._prev_counters.get(name, 0)) / safe_dt
                for name, value in counters.items()
            }
            self._prev_counters = dict(counters)
            sample = {
                "type": "live",
                "schema_version": LIVE_SCHEMA_VERSION,
                "seq": self._seq,
                "t_unix": round(self._wall(), 3),
                "elapsed_s": round(now - self._start_clock, 6),
                "dt_s": round(dt, 6),
                "final": bool(final),
                "counters": counters,
                "rates": rates,
                "gauges": snapshot.get("gauges", {}),
                "histograms": {
                    name: {"count": data["count"], "total": data["total"]}
                    for name, data in snapshot.get("histograms", {}).items()
                },
            }
            self._seq += 1
            self.samples_emitted += 1
        for sink in self.sinks:
            sink.emit(sample, snapshot)
        return sample

    def finalize(self):
        """Stop any background thread and emit the final sample once.

        Idempotent: a second call neither re-emits nor re-stops.  The
        final sample's cumulative totals are exactly the registry's
        end-of-run snapshot.
        """
        if self._finalized:
            return None
        self._finalized = True
        self.stop()
        return self.tick(final=True)

    # -- background mode -----------------------------------------------------

    def start(self):
        """Tick from a daemon thread every ``interval_s`` until :meth:`stop`."""
        if self._thread is not None:
            raise ValueError("collector thread already running")
        if self.interval_s <= 0:
            raise ValueError("background mode needs a positive interval_s")
        self._stop_event = threading.Event()

        def loop():
            while not self._stop_event.wait(self.interval_s):
                self.tick()

        self._thread = threading.Thread(
            target=loop, name="repro-live-collector", daemon=True
        )
        self._thread.start()

    def stop(self):
        """Stop the background thread (no-op when not running)."""
        if self._thread is None:
            return
        self._stop_event.set()
        self._thread.join(timeout=5.0)
        self._thread = None
        self._stop_event = None

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.finalize()
        return False


class TtyDashboard:
    """Sink printing one status line per tick (stderr by default).

    Plain lines rather than an ANSI redraw: the output stays readable in
    CI logs, under redirection, and side by side with the run's own
    tables.  Rendering is :func:`repro.obs.export.format_live_line`, the
    same line ``obs tail`` prints when replaying a recorded stream.
    """

    def __init__(self, stream=None, target_msps=None):
        import sys

        from repro.obs.export import TARGET_MSPS

        self.stream = stream if stream is not None else sys.stderr
        self.target_msps = (
            TARGET_MSPS if target_msps is None else float(target_msps)
        )

    def emit(self, sample, snapshot=None):
        print(
            format_live_line(sample, target_msps=self.target_msps),
            file=self.stream,
        )

    def close(self):
        pass


__all__ = ["LiveCollector", "TtyDashboard"]
