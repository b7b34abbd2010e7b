"""Telemetry for the SymBee stack: metrics, trace spans, run manifests.

Three cooperating pieces, all off by default and cheap when off:

* :mod:`repro.obs.metrics` — the process-wide :data:`~repro.obs.metrics.REGISTRY`
  of counters / gauges / fixed-bucket histograms.  Worker processes ship
  snapshot shards back through ``repro.runtime.run_trials``, which merges
  them into the parent so parallel runs report the same aggregate
  telemetry as serial ones.
* :mod:`repro.obs.trace` — the process-wide :data:`~repro.obs.trace.TRACER`
  of nested, labeled spans over the modulate→channel→front_end→decode
  pipeline (the link's one per-stage timing).
* :mod:`repro.obs.manifest` — per-run manifest records (seed, config,
  git rev, experiment status, metric snapshot) and JSONL export/import.
* :mod:`repro.obs.live` / :mod:`repro.obs.export` — the live telemetry
  plane (PR 7): a periodic :class:`~repro.obs.live.LiveCollector`
  snapshotting the registry while the run is still going, fanning
  delta/rate samples out to a JSONL time series, a Prometheus text
  exposition file, or a TTY dashboard line.

CLI surface: ``python -m repro run <id> --metrics-out run.jsonl --trace``
records a run, ``python -m repro obs summary run.jsonl`` pretty-prints
it; ``listen --live --metrics-stream live.jsonl`` streams live samples
and ``python -m repro obs tail live.jsonl`` replays them.  Schemas are
documented in ``docs/observability.md``.
"""

import logging

from repro.obs.export import (
    JsonlSink,
    PrometheusFileSink,
    format_live_line,
    read_metrics_stream,
    render_prometheus,
    summarize_metrics_stream,
)
from repro.obs.live import LiveCollector, TtyDashboard
from repro.obs.manifest import (
    build_manifest,
    read_run_jsonl,
    summarize_manifest,
    write_run_jsonl,
)
from repro.obs.metrics import REGISTRY, MetricsRegistry
from repro.obs.trace import TRACER, Tracer

__all__ = [
    "REGISTRY",
    "TRACER",
    "JsonlSink",
    "LiveCollector",
    "MetricsRegistry",
    "PrometheusFileSink",
    "Tracer",
    "TtyDashboard",
    "build_manifest",
    "configure_logging",
    "enable",
    "disable",
    "format_live_line",
    "read_metrics_stream",
    "read_run_jsonl",
    "render_prometheus",
    "summarize_manifest",
    "summarize_metrics_stream",
    "write_run_jsonl",
]


def enable(trace=False):
    """Turn on metrics collection (and optionally span tracing)."""
    REGISTRY.enable()
    if trace:
        TRACER.enable()


def disable():
    """Turn off metrics and tracing (recorded data is kept until reset)."""
    REGISTRY.disable()
    TRACER.disable()


def configure_logging(verbosity=0, stream=None):
    """Wire the ``repro.*`` logger namespace to a stderr handler.

    ``verbosity`` maps CLI flags to levels: ``-q`` → -1 (errors only),
    default 0 → warnings, ``-v`` → info, ``-vv`` → debug.  Diagnostics go
    through :mod:`logging` so experiments' table output keeps stdout to
    itself.  Re-invoking replaces the previous handler (idempotent under
    repeated CLI entry, e.g. in tests).
    """
    level = {
        -1: logging.ERROR,
        0: logging.WARNING,
        1: logging.INFO,
    }.get(max(-1, min(int(verbosity), 2)), logging.DEBUG)
    logger = logging.getLogger("repro")
    for handler in list(logger.handlers):
        logger.removeHandler(handler)
    handler = logging.StreamHandler(stream)
    handler.setFormatter(
        logging.Formatter("%(levelname)s %(name)s: %(message)s")
    )
    logger.addHandler(handler)
    logger.setLevel(level)
    logger.propagate = False
    return logger
