"""One ledger workload inside a fresh interpreter.

Spawned by :mod:`benchmarks.ledger.run`, never run by hand::

    python -m benchmarks.ledger.child MODE WORKLOAD --seed N --work DIR \\
        [--seconds S] [--trace 0|1] [--t0 MONOTONIC]

* ``build`` renders the workload's inputs into ``DIR``;
* ``probe`` sets up only and reports the set-up seconds (and the host's
  speed factor probed right after);
* ``measure`` sets up, then runs the untraced (``--trace 0``) or traced
  (``--trace 1``) passes.

``--t0`` is the parent's ``time.monotonic()`` just before the spawn (the
clock is system-wide), so set-up time starts before the interpreter does.
The parent pins BLAS and OpenMP to one thread in this process's
environment, which only works because the variables are set before
numpy loads; the thread count OpenBLAS actually runs with is read back
and reported so the parent can refuse an unpinned run.  The last line of
stdout is one JSON object.
"""

import argparse
import ctypes
import json
import os
import resource
import sys
import time
from pathlib import Path

from benchmarks.ledger.common import speed_factor

WORKLOADS = ("idle", "demux", "gateway", "fleet")
#: Speed probes right after an untraced set-up; its time is reported at
#: reference speed by their factor.
SETUP_PROBES = 5


def make_workload(name, seed, work):
    if name in ("idle", "demux"):
        from benchmarks.ledger.stream import StreamWorkload

        return StreamWorkload(name, seed, work)
    if name == "gateway":
        from benchmarks.ledger.gateway import GatewayWorkload

        return GatewayWorkload(seed, work)
    from benchmarks.ledger.fleet import FleetWorkload

    return FleetWorkload(seed, work)


def blas_threads():
    """Threads the bundled OpenBLAS runs with, or None if not found."""
    import numpy

    libs = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("libscipy_openblas64_*.so")):
        get = ctypes.CDLL(str(path)).scipy_openblas_get_num_threads64_
        get.argtypes = []
        get.restype = ctypes.c_int
        return int(get())
    return None


def _every_layer(metrics):
    """All per-layer metrics: a layer this workload never calls reads 0."""
    from benchmarks.ledger.common import per_layer_names

    names = per_layer_names()
    unknown = set(metrics) - set(names)
    if unknown:
        raise KeyError(f"metrics not in BENCHMARK.json: {sorted(unknown)}")
    return {name: metrics.get(name, 0.0) for name in names}


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def main(argv=None):
    parser = argparse.ArgumentParser(prog="benchmarks.ledger.child")
    parser.add_argument("mode", choices=("build", "probe", "measure"))
    parser.add_argument("workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--t0", type=float, default=None)
    args = parser.parse_args(argv)
    t0 = time.monotonic() if args.t0 is None else args.t0

    workload = make_workload(args.workload, args.seed, args.work)
    if args.mode == "build":
        workload.build_inputs()
        result = {}
    else:
        try:
            setup_ledger = None
            if args.trace:
                from benchmarks.ledger.spans import SpanLedger, recording

                setup_ledger = SpanLedger()
                with recording(setup_ledger):
                    setup_s = workload.setup(t0)
            else:
                setup_s = workload.setup(t0)
                setup_factor = speed_factor(SETUP_PROBES)
            if args.mode == "probe":
                result = {}
            elif args.trace:
                result = workload.trace(args.seconds, setup_ledger)
                result["metrics"] = _every_layer(result["metrics"])
            else:
                result = workload.measure(args.seconds)
                for metrics in (result["metrics"], result["raw_metrics"]):
                    metrics.setdefault("peak_rss_mb", peak_rss_mb())
        finally:
            workload.close()
        result["setup_s"] = setup_s
        if not args.trace:
            result["setup_factor"] = setup_factor
    import numpy

    result["env"] = {
        "blas_threads": blas_threads(),
        "numpy": numpy.__version__,
        "cpu_count": os.cpu_count(),
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
