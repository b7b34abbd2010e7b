"""Run manifests and the run JSONL file.

A *manifest* is one JSON record that makes a run reproducible and
auditable after the fact: what ran (experiment ids, status, wall time),
under which configuration (``REPRO_SCALE`` / ``REPRO_JOBS``, resolved
worker count), from which code (git revision, package/python/numpy
versions), and what the metrics registry saw (full snapshot inline, the
file's one copy of each instrument).

``write_run_jsonl`` writes the manifest plus one record per trace span
to one JSONL file — schema documented in ``docs/observability.md``:

    {"type": "manifest", "schema_version": 1, "metrics": {...}, ...}
    {"type": "span", "name": ..., "start_s": ..., "duration_s": ..., ...}
"""

import json
import os
import platform
import subprocess
import sys
import time

from repro.obs.export import read_jsonl, snapshot_lines

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


def write_run_jsonl(path, manifest, spans=()):
    """Write the manifest, then one record per span, as one JSONL file."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(manifest, sort_keys=True) + "\n")
        for span in spans:
            fh.write(json.dumps({"type": "span", **span}, sort_keys=True) + "\n")
    return path


def run_records(records, path):
    """Pick ``(manifest, spans)`` out of a run file's parsed records.

    Record types it does not use are skipped, among them the ``metric``
    records older files carry next to the manifest's inline snapshot.
    Raises ``ValueError`` with a one-line, path-prefixed message when no
    manifest record is found.
    """
    manifest = next((r for r in records if r.get("type") == "manifest"), None)
    if manifest is None:
        raise ValueError(
            f"{path}: no manifest record found — is this a "
            "'run --metrics-out' JSONL file?"
        )
    return manifest, [r for r in records if r.get("type") == "span"]


def read_run_jsonl(path):
    """Parse a run JSONL file into ``(manifest, spans)``.

    Raises ``ValueError`` with a one-line, path-prefixed message when the
    file is empty, malformed, or holds no manifest record (``OSError``
    propagates for missing/unreadable paths) — the CLI prints these
    verbatim, so they must make sense on their own.
    """
    return run_records(read_jsonl(path), path)


def summarize_manifest(manifest, spans=()):
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
    lines.extend(snapshot_lines(snapshot))
    n_spans = manifest.get("n_spans", 0) or len(spans)
    if n_spans:
        lines.append(f"spans: {n_spans} recorded")
    return "\n".join(lines)
