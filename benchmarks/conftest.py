"""Benchmark harness configuration.

Each ``test_bench_*`` regenerates one of the paper's tables or figures:
it runs the corresponding experiment once under ``benchmark.pedantic``
(Monte-Carlo experiments are too heavy for repeated timing rounds),
prints the same rows/series the paper reports, and asserts the shape
properties the reproduction targets.  Run with ``-s`` to see the tables:

    pytest benchmarks/ --benchmark-only -s

BLAS is pinned to one thread before anything imports numpy: unpinned,
OpenBLAS sizes its pool to the host and the channelizer GEMMs swing
between a fast and a ~5x slower mode from one process to the next,
which no throughput floor can gate on.  An explicit setting in the
environment still wins.  The thread count OpenBLAS really runs with is
read back and shown in the pytest header.
"""

import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")

import pytest  # noqa: E402


def pytest_report_header(config):
    from benchmarks.ledger.child import blas_threads

    return (
        f"blas threads: {blas_threads()} "
        f"(OPENBLAS_NUM_THREADS={os.environ.get('OPENBLAS_NUM_THREADS')})"
    )


@pytest.fixture
def run_once(benchmark):
    """Run an experiment exactly once under the benchmark timer."""

    def runner(fn, *args, **kwargs):
        return benchmark.pedantic(fn, args=args, kwargs=kwargs,
                                  rounds=1, iterations=1)

    return runner
