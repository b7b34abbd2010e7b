"""Aggregate every ``BENCH_*.json`` artifact into one trajectory view.

Each perf PR records its acceptance numbers in a schema shaped around
that PR's claim — link-level frames/sec (PR 1-2), streaming Msps
(PR 3+), transport goodput (PR 4) — so this reader does not demand a
common schema.  It walks each artifact for the throughput-like leaves
(``effective_msps`` with its sibling ``x_realtime``, ``frames_per_sec``,
``goodput_bps``) and renders two views:

* a **trajectory table** — the best streaming throughput per artifact,
  in artifact order, so the PR-over-PR arc is one glance; and
* a **detail table** — every throughput leaf with its config path.

Two artifacts get first-class sections on top of the generic leaf
walk, because their headline figures are not sample throughputs: the
gateway capacity artifact (``BENCH_GATEWAY.json``, headline
**tenants-per-core at realtime**) and the fleet simulator artifact
(``BENCH_PR8.json``, headline **frames/s**).  Both appear as dedicated
tables and as ``gateway`` / ``sim`` keys in the JSON document.

When ``BENCH_SMOKE_TREND.jsonl`` exists (appended by the CI perf-smoke
trend recorder), its most recent entries are shown as well, with the
CPU and BLAS thread counts each was recorded under; when
``BENCH_SMOKE_LIVE.jsonl`` exists (a ``listen --metrics-stream`` live
time series captured by the same job), its throughput envelope is
summarized too.  ``trajectory_report`` renders the same content as a
stable machine-readable document (``bench trajectory --json``).

Numbers from different artifacts were recorded in different sessions on
shared hosts; cross-artifact ratios are indicative only.  The
authoritative speedups are the same-run baselines *inside* each
artifact.
"""

import json
from pathlib import Path

#: Leaf keys treated as throughput figures, with display units.
_THROUGHPUT_KEYS = {
    "effective_msps": "Msps",
    "frames_per_sec": "frames/s",
    "goodput_bps": "bps",
}

#: Trend file appended by the CI perf-smoke trend recorder.
TREND_FILENAME = "BENCH_SMOKE_TREND.jsonl"

#: Live time series captured by the CI perf-smoke job's listen run.
LIVE_FILENAME = "BENCH_SMOKE_LIVE.jsonl"

#: Gateway capacity artifact given a first-class section.
GATEWAY_FILENAME = "BENCH_GATEWAY.json"

#: Fleet simulator artifact given a first-class section.
SIM_FILENAME = "BENCH_PR8.json"

#: Version of the ``trajectory_report`` / ``--json`` document shape.
#: 2 added the ``gateway`` and ``sim`` first-class sections.
REPORT_SCHEMA_VERSION = 2


def _walk_throughput(obj, path=()):
    """Yield ``(config_path, key, value, siblings)`` throughput leaves."""
    if not isinstance(obj, dict):
        return
    for key, value in obj.items():
        if isinstance(value, dict):
            yield from _walk_throughput(value, path + (key,))
        elif key in _THROUGHPUT_KEYS and isinstance(value, (int, float)):
            yield path, key, float(value), obj


def collect_artifacts(root):
    """Read every ``BENCH_*.json`` under ``root`` (non-recursive).

    Returns a list of ``{"name", "path", "data", "leaves"}`` dicts in
    name order, where ``leaves`` is the flat throughput-leaf list from
    :func:`_walk_throughput`.  Unreadable files are skipped with a
    ``"error"`` entry instead of ``"data"`` so the report can say so.
    """
    artifacts = []
    for path in sorted(Path(root).glob("BENCH_*.json")):
        entry = {"name": path.stem, "path": path}
        try:
            data = json.loads(path.read_text())
        except (OSError, ValueError) as error:
            entry["error"] = str(error)
            entry["leaves"] = []
        else:
            entry["data"] = data
            entry["leaves"] = list(_walk_throughput(data))
        artifacts.append(entry)
    return artifacts


def _best_streaming(artifact):
    """Best ``effective_msps`` leaf of one artifact, or ``None``."""
    best = None
    for path, key, value, siblings in artifact["leaves"]:
        if key != "effective_msps":
            continue
        # Recorded prior-PR rows carried alongside for reference are not
        # this artifact's own measurement.
        if any(part.startswith("recorded_") for part in path):
            continue
        if best is None or value > best[1]:
            best = (path, value, siblings)
    return best


def read_trend(root, last=8):
    """Most recent perf-smoke trend entries (empty when none recorded)."""
    trend_path = Path(root) / TREND_FILENAME
    if not trend_path.exists():
        return []
    entries = []
    for line in trend_path.read_text().splitlines():
        line = line.strip()
        if not line:
            continue
        try:
            entries.append(json.loads(line))
        except ValueError:
            continue
    return entries[-last:]


def read_live_summary(root):
    """Throughput envelope of the perf-smoke live time series, or ``None``.

    Reads ``BENCH_SMOKE_LIVE.jsonl`` (a ``listen --metrics-stream``
    capture) and reduces it to duration, tick count and the
    min/mean/max Msps over timed ticks — enough to see whether live
    throughput sagged mid-run even when the end-to-end average held.
    """
    live_path = Path(root) / LIVE_FILENAME
    if not live_path.exists():
        return None
    from repro.obs.export import read_metrics_stream

    try:
        samples = read_metrics_stream(live_path)
    except (OSError, ValueError):
        return None
    if not samples:
        return None
    timed = [s for s in samples if s.get("dt_s", 0.0) > 0.0]
    msps = [
        s.get("rates", {}).get("stream.engine.samples_in", 0.0) / 1e6
        for s in timed
    ]
    last = samples[-1]
    return {
        "samples": len(samples),
        "duration_s": float(last.get("elapsed_s", 0.0)),
        "final": bool(last.get("final", False)),
        "msps_min": min(msps) if msps else None,
        "msps_mean": sum(msps) / len(msps) if msps else None,
        "msps_max": max(msps) if msps else None,
    }


def _read_json(path):
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError):
        return None


def gateway_summary(root):
    """Tenants-per-core capacity rows from the gateway artifact.

    Reads ``BENCH_GATEWAY.json`` and reduces each backend row (any dict
    carrying ``tenants_per_core_at_realtime``) to the capacity claim:
    tenants served, cores used, tenants-per-core at realtime, and the
    per-tenant Msps behind it.  Returns ``None`` when the artifact is
    absent or unreadable.
    """
    data = _read_json(Path(root) / GATEWAY_FILENAME)
    if not isinstance(data, dict):
        return None
    rows = []
    for key, value in data.items():
        if (
            isinstance(value, dict)
            and "tenants_per_core_at_realtime" in value
        ):
            rows.append(
                {
                    "config": key,
                    "tenants": value.get("tenants"),
                    "cores_used": value.get("cores_used"),
                    "tenants_per_core_at_realtime": float(
                        value["tenants_per_core_at_realtime"]
                    ),
                    "effective_msps": value.get("effective_msps"),
                }
            )
    if not rows:
        return None
    gates = data.get("gates", {})
    return {
        "rows": rows,
        "target_tenants_per_core": gates.get("target_tenants_per_core"),
        "cpu_count": data.get("cpu_count"),
    }


def sim_summary(root):
    """Frames-per-second rows from the fleet simulator artifact.

    Reads ``BENCH_PR8.json`` and reduces each campaign row (any dict
    carrying ``frames_per_sec``) to the simulator claim: fleet size,
    frames offered, delivery ratio, wall seconds, frames/s.  Returns
    ``None`` when the artifact is absent or unreadable.
    """
    data = _read_json(Path(root) / SIM_FILENAME)
    if not isinstance(data, dict):
        return None
    rows = []
    for key, value in data.items():
        if isinstance(value, dict) and "frames_per_sec" in value:
            rows.append(
                {
                    "config": key,
                    "nodes": value.get("nodes"),
                    "frames_offered": value.get("frames_offered"),
                    "delivery_ratio": value.get("delivery_ratio"),
                    "wall_seconds": value.get("wall_seconds"),
                    "frames_per_sec": float(value["frames_per_sec"]),
                }
            )
    if not rows:
        return None
    return {
        "rows": rows,
        "fast_path_speedup": data.get("fast_path_speedup"),
    }


def trajectory_report(root="."):
    """The trajectory as one stable machine-readable document.

    Schema (``schema_version`` 2)::

        {"schema_version": 2,
         "root": str,
         "artifacts": [{"name", "error"?,
                        "best_streaming": {"config", "effective_msps",
                                           "x_realtime"} | null,
                        "throughput": [{"config", "key", "value",
                                        "unit"}]}],
         "gateway": gateway_summary() | null,
         "sim": sim_summary() | null,
         "trend": [trend entries, newest last],
         "live": read_live_summary() | null}
    """
    artifacts = []
    for artifact in collect_artifacts(root):
        entry = {"name": artifact["name"]}
        if "error" in artifact:
            entry["error"] = artifact["error"]
        best = _best_streaming(artifact)
        if best is None:
            entry["best_streaming"] = None
        else:
            path, value, siblings = best
            realtime = siblings.get("x_realtime")
            entry["best_streaming"] = {
                "config": "/".join(path),
                "effective_msps": value,
                "x_realtime": (
                    float(realtime) if realtime is not None else None
                ),
            }
        entry["throughput"] = [
            {
                "config": "/".join(path),
                "key": key,
                "value": value,
                "unit": _THROUGHPUT_KEYS[key],
            }
            for path, key, value, _siblings in artifact["leaves"]
        ]
        artifacts.append(entry)
    return {
        "schema_version": REPORT_SCHEMA_VERSION,
        "root": str(Path(root).resolve()),
        "artifacts": artifacts,
        "gateway": gateway_summary(root),
        "sim": sim_summary(root),
        "trend": read_trend(root),
        "live": read_live_summary(root),
    }


def print_trajectory(root=".", print_fn=print):
    """Render the full trajectory report for ``root``; returns 0/1.

    Returns 1 (and says so) when no artifacts exist — a CI checkout
    without recorded benchmarks is a report-worthy state, not a crash.
    """
    from repro.experiments.common import print_table

    artifacts = collect_artifacts(root)
    if not artifacts:
        print_fn(f"no BENCH_*.json artifacts under {Path(root).resolve()}")
        return 1

    rows = []
    for artifact in artifacts:
        if "error" in artifact:
            rows.append((artifact["name"], "(unreadable)", "-", "-"))
            continue
        best = _best_streaming(artifact)
        if best is None:
            rows.append((artifact["name"], "(no streaming rows)", "-", "-"))
            continue
        path, value, siblings = best
        realtime = siblings.get("x_realtime")
        rows.append(
            (
                artifact["name"],
                "/".join(path) or "(top level)",
                f"{value:.3f}",
                f"{realtime:.4f}" if realtime is not None else "-",
            )
        )
    print_table(
        ("artifact", "best streaming config", "Msps", "x realtime"),
        rows,
        title="streaming throughput trajectory (best per artifact)",
    )

    detail_rows = []
    for artifact in artifacts:
        for path, key, value, _siblings in artifact["leaves"]:
            detail_rows.append(
                (
                    artifact["name"],
                    "/".join(path) or "(top level)",
                    f"{value:g}",
                    _THROUGHPUT_KEYS[key],
                )
            )
    if detail_rows:
        print_table(
            ("artifact", "config", "value", "unit"),
            detail_rows,
            title="all recorded throughput figures",
        )

    gateway = gateway_summary(root)
    if gateway is not None:
        target = gateway.get("target_tenants_per_core")
        gateway_rows = [
            (
                row["config"],
                str(row["tenants"] if row["tenants"] is not None else "-"),
                str(
                    row["cores_used"]
                    if row["cores_used"] is not None
                    else "-"
                ),
                f"{row['tenants_per_core_at_realtime']:.2f}",
                f"{row['effective_msps']:.2f}"
                if row["effective_msps"] is not None
                else "-",
            )
            for row in gateway["rows"]
        ]
        print_table(
            ("config", "tenants", "cores", "tenants/core", "Msps"),
            gateway_rows,
            title=(
                f"gateway capacity ({GATEWAY_FILENAME}"
                + (
                    f", target {target:g} tenants/core)"
                    if target is not None
                    else ")"
                )
            ),
        )

    sim = sim_summary(root)
    if sim is not None:
        sim_rows = [
            (
                row["config"],
                str(row["nodes"] if row["nodes"] is not None else "-"),
                str(
                    row["frames_offered"]
                    if row["frames_offered"] is not None
                    else "-"
                ),
                f"{row['delivery_ratio']:.4f}"
                if row["delivery_ratio"] is not None
                else "-",
                f"{row['frames_per_sec']:.1f}",
            )
            for row in sim["rows"]
        ]
        speedup = sim.get("fast_path_speedup")
        print_table(
            ("campaign", "nodes", "frames", "delivery", "frames/s"),
            sim_rows,
            title=(
                f"fleet simulator ({SIM_FILENAME}"
                + (
                    f", fast path {speedup:g}x)"
                    if speedup is not None
                    else ")"
                )
            ),
        )

    trend = read_trend(root)
    if trend:

        def msps(entry, key):
            return f"{entry[key]:.2f}" if key in entry else "-"

        # Lines recorded before BLAS pinning carry no blas_threads, and
        # lines from before the bank, derive, scan or serve
        # micro-benchmarks no frontend_msps, derive_msps, scan_msps or
        # serve_msps.
        trend_rows = [
            (
                str(entry.get("recorded_at", "-")),
                str(entry.get("cpu_count", "-")),
                str(entry.get("blas_threads") or "-"),
                msps(entry, "serial_msps"),
                msps(entry, "scan_noise_msps"),
                msps(entry, "frontend_msps"),
                msps(entry, "derive_msps"),
                msps(entry, "scan_msps"),
                msps(entry, "serve_msps"),
            )
            for entry in trend
        ]
        print_table(
            ("recorded", "cpus", "blas threads", "serial Msps",
             "noise decode", "bank", "derive", "scan", "serve"),
            trend_rows,
            title=f"perf-smoke trend (last {len(trend)} of {TREND_FILENAME})",
        )

    live = read_live_summary(root)
    if live is not None:
        fmt = lambda v: f"{v:.2f}" if v is not None else "-"  # noqa: E731
        print_fn(
            f"live stream ({LIVE_FILENAME}): {live['samples']} sample(s) "
            f"over {live['duration_s']:.2f}s, Msps "
            f"min/mean/max = {fmt(live['msps_min'])}/"
            f"{fmt(live['msps_mean'])}/{fmt(live['msps_max'])}"
            + ("" if live["final"] else " (no final record)")
        )

    print_fn(
        "note: artifacts were recorded in separate sessions; compare "
        "ratios within an artifact, not across them."
    )
    return 0


def main(argv=None):
    import argparse

    parser = argparse.ArgumentParser(
        description="Aggregate BENCH_*.json artifacts into one report"
    )
    parser.add_argument(
        "--root", default=".", help="directory holding the artifacts"
    )
    args = parser.parse_args(argv)
    return print_trajectory(args.root)


if __name__ == "__main__":
    raise SystemExit(main())
