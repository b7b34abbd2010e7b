"""Run manifests and JSONL export for telemetry streams.

A *manifest* is one JSON record that makes a run reproducible and
auditable after the fact: what ran (experiment ids, status, wall time),
under which configuration (``REPRO_SCALE`` / ``REPRO_JOBS``, resolved
worker count), from which code (git revision, package/python/numpy
versions), and what the metrics registry saw (full snapshot inline).

``write_run_jsonl`` streams the manifest plus optional per-metric and
per-span records to one JSONL file — schema documented in
``docs/observability.md``:

    {"type": "manifest", "schema_version": 1, ...}
    {"type": "metric", "kind": "counter", "name": ..., "value": ...}
    {"type": "span", "name": ..., "start_s": ..., "duration_s": ..., ...}
"""

import json
import os
import platform
import subprocess
import sys
import time

#: Bump when a backwards-incompatible field change lands.
SCHEMA_VERSION = 1


def git_revision():
    """Short git revision of the source tree, or ``None`` off-checkout."""
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True,
            text=True,
            timeout=5,
            cwd=os.path.dirname(os.path.abspath(__file__)),
        )
    except (OSError, subprocess.SubprocessError):
        return None
    rev = proc.stdout.strip()
    return rev if proc.returncode == 0 and rev else None


def blas_threads():
    """Threads numpy's bundled OpenBLAS runs with, or None if not found."""
    import ctypes
    from pathlib import Path

    import numpy

    libs = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("libscipy_openblas64_*.so")):
        get = ctypes.CDLL(str(path)).scipy_openblas_get_num_threads64_
        get.argtypes = []
        get.restype = ctypes.c_int
        return int(get())
    return None


def runtime_config():
    """The environment knobs that shape a run, plus the resolved job count."""
    from repro.runtime import default_jobs

    return {
        "REPRO_SCALE": os.environ.get("REPRO_SCALE"),
        "REPRO_JOBS": os.environ.get("REPRO_JOBS"),
        "jobs_resolved": default_jobs(),
    }


def build_manifest(experiments=(), seed=None, metrics=None, argv=None,
                   n_spans=0):
    """Assemble the manifest record for one run.

    ``experiments`` is a sequence of ``{"id", "status", "elapsed_seconds",
    "error"}`` dicts (``error`` is ``None`` on success); ``metrics`` is a
    ``MetricsRegistry.snapshot()`` dict; ``seed`` is whatever seed the
    caller pinned (experiments bake their own defaults, so it may be
    ``None``).
    """
    import numpy as np

    from repro import __version__

    return {
        "type": "manifest",
        "schema_version": SCHEMA_VERSION,
        "tool": "repro",
        "version": __version__,
        "created_unix": round(time.time(), 3),
        "argv": list(argv) if argv is not None else sys.argv[1:],
        "seed": seed,
        "experiments": list(experiments),
        "config": runtime_config(),
        "git_rev": git_revision(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "metrics": metrics if metrics is not None else {},
        "n_spans": int(n_spans),
    }


def metric_records(snapshot):
    """Flatten a registry snapshot into one JSONL record per instrument."""
    records = []
    for name, value in snapshot.get("counters", {}).items():
        records.append(
            {"type": "metric", "kind": "counter", "name": name, "value": value}
        )
    for name, value in snapshot.get("gauges", {}).items():
        records.append(
            {"type": "metric", "kind": "gauge", "name": name, "value": value}
        )
    for name, data in snapshot.get("histograms", {}).items():
        records.append(
            {"type": "metric", "kind": "histogram", "name": name, **data}
        )
    return records


def write_run_jsonl(path, manifest, snapshot=None, spans=None):
    """Write manifest + optional metric/span streams as one JSONL file."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(manifest, sort_keys=True) + "\n")
        if snapshot:
            for record in metric_records(snapshot):
                fh.write(json.dumps(record, sort_keys=True) + "\n")
        for span in spans or ():
            fh.write(json.dumps({"type": "span", **span}, sort_keys=True) + "\n")
    return path


def read_run_jsonl(path):
    """Parse a run JSONL file into ``(manifest, metric_records, spans)``.

    Raises ``ValueError`` with a one-line, path-prefixed message when the
    file is empty, malformed, or holds no manifest record (``OSError``
    propagates for missing/unreadable paths) — the CLI prints these
    verbatim, so they must make sense on their own.
    """
    manifest, metrics, spans = None, [], []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
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
            kind = record.get("type")
            if kind == "manifest" and manifest is None:
                manifest = record
            elif kind == "metric":
                metrics.append(record)
            elif kind == "span":
                spans.append(record)
    if manifest is None:
        raise ValueError(
            f"{path}: no manifest record found — is this a "
            "'run --metrics-out' JSONL file?"
        )
    return manifest, metrics, spans


def summarize_manifest(manifest, metrics=(), spans=(), top=10):
    """Human-readable multi-line summary of a parsed run manifest."""
    lines = []
    created = time.strftime(
        "%Y-%m-%d %H:%M:%S", time.localtime(manifest.get("created_unix", 0))
    )
    rev = manifest.get("git_rev") or "unknown"
    lines.append(
        f"repro {manifest.get('version', '?')} run @ git {rev} — {created}"
    )
    config = manifest.get("config", {})
    lines.append(
        "config: "
        + " ".join(
            f"{k}={v}" for k, v in config.items() if v is not None
        )
    )
    experiments = manifest.get("experiments", [])
    if experiments:
        lines.append("experiments:")
        for entry in experiments:
            status = entry.get("status", "?")
            line = (
                f"  {entry.get('id', '?'):<16} {status:<5} "
                f"{entry.get('elapsed_seconds', 0.0):8.2f}s"
            )
            if entry.get("error"):
                line += f"  {entry['error']}"
            lines.append(line)
    snapshot = manifest.get("metrics", {})
    namespaces = sorted(
        {
            name.split(".", 1)[0]
            for kind in ("counters", "gauges", "histograms")
            for name in snapshot.get(kind, {})
            if "." in name
        }
    )
    if namespaces:
        lines.append(
            "namespaces: " + " ".join(f"{ns}.*" for ns in namespaces)
        )
    counters = snapshot.get("counters", {})
    if counters:
        lines.append(f"counters ({len(counters)}):")
        ranked = sorted(counters.items(), key=lambda kv: -kv[1])[:top]
        width = max(len(name) for name, _ in ranked)
        for name, value in ranked:
            lines.append(f"  {name.ljust(width)}  {value}")
    gauges = snapshot.get("gauges", {})
    if gauges:
        lines.append(f"gauges ({len(gauges)}):")
        for name, value in sorted(gauges.items())[:top]:
            lines.append(f"  {name}  {value:.3f}")
    histograms = snapshot.get("histograms", {})
    if histograms:
        lines.append(f"histograms ({len(histograms)}):")
        for name, data in sorted(histograms.items()):
            count = data.get("count", 0)
            mean = data.get("total", 0.0) / count if count else float("nan")
            lines.append(f"  {name}  count={count}  mean={mean:.3f}")
    n_spans = manifest.get("n_spans", 0) or len(spans)
    if n_spans:
        lines.append(f"spans: {n_spans} recorded")
    return "\n".join(lines)
