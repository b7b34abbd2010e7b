"""Helpers shared by the workloads: pass loops, statistics, digests."""

import gc
import hashlib
import json
import statistics
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent


def benchmark_spec():
    """``BENCHMARK.json`` at the repository root (metric names and units)."""
    return json.loads((HERE.parent.parent / "BENCHMARK.json").read_text())


def per_layer_names():
    return [m["name"] for m in benchmark_spec()["per_layer"]]


#: Seconds :func:`speed_probe` takes on the reference host (2-CPU Intel
#: Xeon VM, median of quiet runs).
REFERENCE_PROBE_S = 0.0245


def speed_probe():
    """Seconds for a fixed mix of numpy block arithmetic and interpreter work.

    The host this benchmark runs on is shared: its speed drifts by tens
    of percent over minutes while other tenants come and go, and that
    drift slows most kinds of work alike.  The probe runs between
    passes and right after every set-up, and end-to-end timings are
    reported at reference speed (scaled by ``REFERENCE_PROBE_S`` over
    the median time of the probes next to them; see :func:`end_to_end`),
    so a comparison between two runs measures the code, not the hour.
    Half the probe is complex64 arithmetic on a 1 MiB array (the stream
    blocks' size class), half is dictionary-heavy interpreter work (the
    simulator's and the gateway's kind).
    """
    import numpy as np

    x = np.linspace(0.0, 1.0, 1 << 17, dtype=np.float32).astype(np.complex64)
    started = time.perf_counter()
    total = 0.0
    for _ in range(48):
        y = x * x.conj() + x
        total += float(np.abs(y[::7]).sum())
    table = {}
    for i in range(120_000):
        table[i & 511] = table.get(i & 511, 0) + i
    return time.perf_counter() - started


def speed_factor(probes=1):
    """``REFERENCE_PROBE_S`` over the median of ``probes`` probe times."""
    return REFERENCE_PROBE_S / median([speed_probe() for _ in range(probes)])


def end_to_end(items, walls, latencies):
    """End-to-end timings as measured and at reference host speed.

    ``items`` is the input one pass processes (samples or frames).
    ``walls`` holds ``(wall_s, speed_factor)`` per closed-loop pass and
    ``latencies`` ``(samples, speed_factor)`` per pass with latencies,
    where each sample is a ``(paced_s, compute_s)`` pair: the part of a
    latency fixed by the input's pacing (waiting for samples that have
    not arrived yet) and the part spent computing.  Only computing time
    and pass walls are scaled, each pass by the factor probed just
    before it, so drift within a run is followed too.  Latency
    percentiles are taken per pass and the median over passes is
    reported, so a host stall that hits one pass does not set the run's
    tail.  Returns ``(metrics, raw_metrics, speed_factor)``, the last
    being the run's median factor.
    """

    def metrics(scaled):
        def scale(factor):
            return factor if scaled else 1.0

        per_pass = [
            [paced + compute * scale(factor) for paced, compute in samples]
            for samples, factor in latencies
            if samples
        ]
        return {
            "throughput": items / median([w * scale(f) for w, f in walls]),
            "latency_p50_ms": 1e3 * median([percentile(p, 50) for p in per_pass]),
            "latency_p90_ms": 1e3 * median([percentile(p, 90) for p in per_pass]),
        }

    factors = [f for _, f in walls] + [f for _, f in latencies]
    return metrics(True), metrics(False), median(factors)


#: Seconds of pass between speed probes: long passes get several probes,
#: so a run of a few long passes still estimates its speed well.
PROBE_EVERY_S = 0.4


def passes(seconds, minimum=1, probe=False):
    """Yield ``(index, speed_factor)`` until ``seconds`` have elapsed.

    At least ``minimum`` passes run however short the budget.  A full
    collection runs before every pass, outside the pass's own timing, so
    each pass starts from the same heap state.  With ``probe``,
    :func:`speed_probe` runs before every pass -- once, plus once per
    :data:`PROBE_EVERY_S` the previous pass took -- and the factor is
    ``REFERENCE_PROBE_S`` over their median; otherwise it is None.
    """
    clock = time.perf_counter
    deadline = clock() + float(seconds)
    index = 0
    last_pass_s = 0.0
    while index < minimum or clock() < deadline:
        gc.collect()
        factor = None
        if probe:
            factor = speed_factor(1 + int(last_pass_s / PROBE_EVERY_S))
        started = clock()
        yield index, factor
        last_pass_s = clock() - started
        index += 1


def median(values):
    return float(statistics.median(values))


def median_metrics(per_pass):
    """Per-metric median over a list of per-pass metric dicts."""
    return {key: median([p[key] for p in per_pass]) for key in per_pass[0]}


def percentile(values, q):
    """Linear-interpolated percentile (``q`` in 0..100) of a sample."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of an empty sample")
    rank = (len(ordered) - 1) * q / 100.0
    lo = int(rank)
    hi = min(lo + 1, len(ordered) - 1)
    return float(ordered[lo] + (ordered[hi] - ordered[lo]) * (rank - lo))


def digest(obj):
    """Short stable hash of a JSON-serialisable value."""
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def golden(workload, seed, size):
    """Recorded digest for ``workload`` at this seed and size, else None.

    ``golden.json`` holds digests for the default seed and full-size
    inputs only; any other seed is checked against its own ground truth
    and against pass-to-pass agreement instead.
    """
    data = json.loads((HERE / "golden.json").read_text())
    entry = data.get(workload)
    if entry is None or data["seed"] != seed or entry["size"] != size:
        return None
    return entry["digest"]


class Outcome:
    """Operations attempted and failed, tallied per kind of failure.

    Every failure counts toward ``failed``.  Receiver errors -- a
    scheduled frame missed, a CRC-valid frame nobody sent (CRC-16 lets
    about one bogus capture in 65536 through), a message not delivered
    byte-exact, a shed block -- leave the run correct: a radio receiver
    makes them at some rate, and that count is what a later change is
    compared on.  A *wrong* result -- output that differs from the
    golden file or from an earlier pass over the same input, a traced
    pass that decodes differently from an untraced one, a broken
    invariant -- also makes the run incorrect.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures = {}
        self.problems = []

    def check(self, attempted, failed, what, wrong=False):
        self.attempted += int(attempted)
        if failed:
            self.failed += int(failed)
            self.failures[what] = self.failures.get(what, 0) + int(failed)
            if wrong and what not in self.problems:
                self.problems.append(what)

    def result(self, metrics, info, **extra):
        return {
            "metrics": metrics,
            "attempted": self.attempted,
            "failed": self.failed,
            "failures": self.failures,
            "problems": list(self.problems),
            "info": info,
            **extra,
        }
