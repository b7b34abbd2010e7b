"""Sinks for the live telemetry time series, and the telemetry JSONL reader.

The :class:`repro.obs.live.LiveCollector` fans each periodic sample out
to pluggable sinks; this module holds the built-in ones plus the JSONL
reader the CLI (``obs tail`` / ``obs summary``) uses:

* :class:`JsonlSink` — one JSON object per tick, appended to a file.
  The **live-sample schema** (``schema_version`` 1)::

      {"type": "live", "schema_version": 1, "seq": 0,
       "t_unix": 1754640000.0, "elapsed_s": 0.5, "dt_s": 0.5,
       "final": false,
       "counters":   {name: cumulative int},
       "rates":      {name: counter delta per second over dt_s},
       "gauges":     {name: float},
       "histograms": {name: {"count": int, "total": float}}}

  ``counters`` / ``histograms`` are cumulative since collector start, so
  the final record's totals equal the end-of-run registry snapshot;
  ``rates`` are the per-second deltas of the tick.  The last record of a
  clean run has ``"final": true``.
* :class:`PrometheusFileSink` — a Prometheus text-exposition file
  rewritten atomically per tick, for node-exporter-style file scraping
  (full bucket layout, cumulative ``le`` convention).
* :func:`parse_record` / :func:`read_jsonl` — the one JSONL line parser
  and file reader behind every telemetry reader (one-line, path-prefixed
  errors on malformed input); :func:`read_metrics_stream` keeps a file's
  live samples and :func:`summarize_metrics_stream` renders their
  per-rate min/mean/max overview, its instrument sections drawn by
  :func:`snapshot_lines` like the run summary's.
* :func:`format_live_line` — the one-line dashboard rendering shared by
  ``listen --live`` and ``obs tail``.
"""

import json
import math
import os

#: Bump when a backwards-incompatible live-sample field change lands.
LIVE_SCHEMA_VERSION = 1

#: The realtime target every margin figure is quoted against (Msps).
TARGET_MSPS = 20.0


class JsonlSink:
    """Append each live sample as one JSON line; flushed per tick.

    Flushing per tick is the point: the file is a *live* feed that an
    ``obs tail --follow`` in another process reads while the run is
    still going.
    """

    def __init__(self, path):
        self.path = path
        self._fh = open(path, "w", encoding="utf-8")

    def emit(self, sample, snapshot=None):
        self._fh.write(json.dumps(sample, sort_keys=True) + "\n")
        self._fh.flush()

    def close(self):
        if not self._fh.closed:
            self._fh.close()


def _prom_name(name, prefix="repro_"):
    """Metric name -> Prometheus-legal name (dots/dashes to underscores)."""
    return prefix + name.replace(".", "_").replace("-", "_")


def render_prometheus(snapshot, rates=None, prefix="repro_"):
    """Registry snapshot -> Prometheus text exposition format.

    Counters and gauges map directly; histograms use the cumulative
    ``_bucket{le=...}`` convention with ``+Inf``, ``_sum`` and
    ``_count``.  When ``rates`` (the live sample's per-second counter
    deltas) are given they export as companion ``*_per_second`` gauges,
    so a dumb scraper gets rates without PromQL.
    """
    lines = []
    for name, value in sorted(snapshot.get("counters", {}).items()):
        metric = _prom_name(name, prefix)
        lines.append(f"# TYPE {metric} counter")
        lines.append(f"{metric} {value}")
    for name, value in sorted((rates or {}).items()):
        metric = _prom_name(name, prefix) + "_per_second"
        lines.append(f"# TYPE {metric} gauge")
        lines.append(f"{metric} {value:g}")
    for name, value in sorted(snapshot.get("gauges", {}).items()):
        if value != value:  # skip unset (nan) gauges
            continue
        metric = _prom_name(name, prefix)
        lines.append(f"# TYPE {metric} gauge")
        lines.append(f"{metric} {value:g}")
    for name, data in sorted(snapshot.get("histograms", {}).items()):
        metric = _prom_name(name, prefix)
        lines.append(f"# TYPE {metric} histogram")
        cumulative = 0
        for edge, count in zip(data["edges"], data["counts"]):
            cumulative += count
            lines.append(f'{metric}_bucket{{le="{edge:g}"}} {cumulative}')
        lines.append(f'{metric}_bucket{{le="+Inf"}} {data["count"]}')
        lines.append(f"{metric}_sum {data['total']:g}")
        lines.append(f"{metric}_count {data['count']}")
    return "\n".join(lines) + "\n"


class PrometheusFileSink:
    """Rewrite a text-exposition file atomically on every tick.

    Write-then-rename keeps a concurrent scraper from ever reading a
    half-written exposition.
    """

    def __init__(self, path, prefix="repro_"):
        self.path = path
        self.prefix = prefix

    def emit(self, sample, snapshot=None):
        if snapshot is None:
            # Degrade to what the sample itself carries (no bucket detail).
            snapshot = {
                "counters": sample.get("counters", {}),
                "gauges": sample.get("gauges", {}),
                "histograms": {},
            }
        text = render_prometheus(
            snapshot, rates=sample.get("rates"), prefix=self.prefix
        )
        tmp = f"{self.path}.tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, self.path)

    def close(self):
        pass


def format_live_line(sample, target_msps=TARGET_MSPS):
    """One dashboard line for a live sample: throughput, margin, health.

    Shared by the ``listen --live`` TTY sink and ``obs tail`` so a live
    run and a replayed time series read identically.
    """
    rates = sample.get("rates", {})
    counters = sample.get("counters", {})
    gauges = sample.get("gauges", {})
    msps = rates.get("stream.engine.samples_in", 0.0) / 1e6
    margin = gauges.get("stream.realtime_margin")
    frames = counters.get("stream.engine.frames", 0)
    frame_rate = rates.get("stream.engine.frames", 0.0)
    crc_failed = counters.get("stream.session.crc_failed", 0)
    parts = [
        f"t={sample.get('elapsed_s', 0.0):8.2f}s",
        f"{msps:7.2f} Msps ({msps / target_msps:5.2f}x of {target_msps:g})",
        (
            f"margin {margin:5.2f}x"
            if margin is not None and margin == margin
            else "margin     -"
        ),
        f"frames {frames} ({frame_rate:.1f}/s)",
        f"crc_fail {crc_failed}",
    ]
    if sample.get("final"):
        parts.append("[final]")
    return " | ".join(parts)


def parse_record(line, path="<stream>", lineno=0):
    """One JSONL line -> record dict, ``None`` for a blank line.

    The one line parser behind every telemetry reader (run files, live
    time series, ``obs tail --follow``): malformed JSON and non-object
    records raise ``ValueError`` with a one-line ``path:lineno:``
    message the CLI prints verbatim.
    """
    line = line.strip()
    if not line:
        return None
    try:
        record = json.loads(line)
    except json.JSONDecodeError as error:
        raise ValueError(
            f"{path}:{lineno}: not valid JSONL ({error.msg})"
        ) from error
    if not isinstance(record, dict):
        raise ValueError(
            f"{path}:{lineno}: expected a JSON object, got "
            f"{type(record).__name__}"
        )
    return record


def read_jsonl(path):
    """Every record of a telemetry JSONL file, in file order.

    ``OSError`` propagates for missing/unreadable paths.
    """
    with open(path, encoding="utf-8") as fh:
        return [
            record
            for lineno, line in enumerate(fh, start=1)
            if (record := parse_record(line, path, lineno)) is not None
        ]


def read_metrics_stream(path):
    """Parse a ``--metrics-stream`` JSONL file into live sample dicts.

    Non-live records (e.g. a manifest sharing the file) are skipped.
    """
    return [r for r in read_jsonl(path) if r.get("type") == "live"]


def snapshot_lines(snapshot, heading=""):
    """The counters / gauges / histograms sections of a summary.

    Shared by the run-manifest and live-stream summaries: every
    instrument, sorted by name, each section titled ``heading`` +
    kind + count.
    """
    lines = []
    counters = snapshot.get("counters", {})
    if counters:
        lines.append(f"{heading}counters ({len(counters)}):")
        width = max(len(name) for name in counters)
        for name, value in sorted(counters.items()):
            lines.append(f"  {name.ljust(width)}  {value}")
    gauges = snapshot.get("gauges", {})
    if gauges:
        lines.append(f"{heading}gauges ({len(gauges)}):")
        for name, value in sorted(gauges.items()):
            lines.append(f"  {name}  {value:.3f}")
    histograms = snapshot.get("histograms", {})
    if histograms:
        lines.append(f"{heading}histograms ({len(histograms)}):")
        for name, data in sorted(histograms.items()):
            count = data.get("count", 0)
            mean = data.get("total", 0.0) / count if count else math.nan
            lines.append(f"  {name}  count={count}  mean={mean:.3f}")
    return lines


def summarize_metrics_stream(samples, path=None):
    """Human-readable overview of a live time series.

    Duration and tick count, then per-rate min/mean/max across ticks
    (zero-dt ticks are excluded from rate statistics) and the final
    cumulative instruments — the ``obs summary`` rendering for the live
    schema.
    """
    if not samples:
        raise ValueError("no live records to summarize")
    last = samples[-1]
    lines = []
    where = f" {path}" if path else ""
    lines.append(
        f"live telemetry stream{where}: {len(samples)} sample(s) over "
        f"{last.get('elapsed_s', 0.0):.2f}s"
        + (" (final)" if last.get("final") else " (no final record)")
    )
    rate_names = sorted({
        name for sample in samples for name in sample.get("rates", {})
    })
    timed = [s for s in samples if s.get("dt_s", 0.0) > 0.0]
    if rate_names and timed:
        lines.append(f"rates over {len(timed)} timed tick(s) [/s]:")
        width = max(len(name) for name in rate_names)
        for name in rate_names:
            values = [s.get("rates", {}).get(name, 0.0) for s in timed]
            mean = sum(values) / len(values)
            lines.append(
                f"  {name.ljust(width)}  min={min(values):12.1f}  "
                f"mean={mean:12.1f}  max={max(values):12.1f}"
            )
    lines.extend(snapshot_lines(last, heading="final "))
    return "\n".join(lines)


__all__ = [
    "LIVE_SCHEMA_VERSION",
    "TARGET_MSPS",
    "JsonlSink",
    "PrometheusFileSink",
    "format_live_line",
    "parse_record",
    "read_jsonl",
    "read_metrics_stream",
    "render_prometheus",
    "snapshot_lines",
    "summarize_metrics_stream",
]
