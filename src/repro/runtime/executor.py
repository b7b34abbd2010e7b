"""Process-pool trial executor with a serial fallback.

``run_trials`` runs one picklable function over a list of task tuples
and returns the results **in task order**, which together with
:mod:`repro.runtime.seeding` makes parallel runs reproduce serial runs
exactly.  The worker count comes from the ``REPRO_JOBS`` environment
variable (``1`` = serial, ``auto``/``0`` = all cores) unless a call
overrides it.

The serial path never touches ``concurrent.futures``, so ``jobs=1``
keeps the exact call profile (and debuggability) of the original code.

When the :mod:`repro.obs` metrics registry is enabled, each worker runs
its task with a freshly reset registry, snapshots the delta, and ships
that shard back alongside the task result; the parent merges every shard
into its own registry in task order.  Counters and histograms therefore
aggregate to identical totals whether a run is serial (instruments fire
directly in the parent) or parallel.
"""

import os
from functools import partial
from math import ceil

from repro.obs.metrics import REGISTRY


def default_jobs():
    """Worker count from ``REPRO_JOBS`` (default 1; ``auto``/``0`` = cores)."""
    raw = os.environ.get("REPRO_JOBS", "1").strip().lower()
    if raw in ("auto", "0"):
        return os.cpu_count() or 1
    try:
        jobs = int(raw)
    except ValueError:
        return 1
    return max(1, jobs)


def resolve_jobs(jobs=None):
    """Normalize a ``jobs`` argument (``None`` defers to ``REPRO_JOBS``)."""
    if jobs is None:
        return default_jobs()
    return max(1, int(jobs))


def _sharded_trial(fn, task):
    """Run one task in a worker, returning ``(result, metrics shard)``.

    The worker's process-wide registry is enabled (spawn-started workers
    begin disabled; fork-started workers inherit parent values) and reset
    so the shard holds exactly this task's increments.
    """
    REGISTRY.enable()
    REGISTRY.reset()
    result = fn(task)
    return result, REGISTRY.snapshot()


def run_trials(fn, tasks, jobs=None):
    """Apply ``fn`` to every task, serially or across a process pool.

    ``tasks`` is a sequence of picklable argument objects; ``fn`` must be
    a module-level function (picklable by reference).  Results come back
    in task order.  ``jobs=1`` (or a single task) runs inline with no
    pool overhead.  With the metrics registry enabled, worker metric
    shards are merged into the parent registry in task order.
    """
    tasks = list(tasks)
    jobs = resolve_jobs(jobs)
    if jobs == 1 or len(tasks) <= 1:
        return [fn(task) for task in tasks]

    from concurrent.futures import ProcessPoolExecutor

    workers = min(jobs, len(tasks))
    # ~4 chunks per worker bounds both scheduling overhead and the
    # tail-latency cost of one straggler chunk.
    chunk_size = max(1, ceil(len(tasks) / (workers * 4)))
    collect_metrics = REGISTRY.enabled
    worker_fn = partial(_sharded_trial, fn) if collect_metrics else fn
    with ProcessPoolExecutor(max_workers=workers) as pool:
        out = list(pool.map(worker_fn, tasks, chunksize=chunk_size))
    if not collect_metrics:
        return out
    results = []
    for result, shard in out:
        REGISTRY.merge(shard)
        results.append(result)
    return results
