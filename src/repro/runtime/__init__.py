"""Monte-Carlo runtime: deterministic parallel trial execution.

Every figure reproduction is thousands of independent ``send_bits``
trials.  This package makes that embarrassingly parallel workload fast
without giving up reproducibility:

* :mod:`repro.runtime.seeding` — per-trial ``numpy`` generators derived
  with ``SeedSequence.spawn``, so a trial's randomness depends only on
  the experiment seed and the trial index, never on worker scheduling;
* :mod:`repro.runtime.executor` — a ``ProcessPoolExecutor``-backed trial
  runner (``REPRO_JOBS`` env var, serial fallback at ``jobs=1``) that
  returns results in trial order, making parallel and serial runs of the
  same experiment *identical*.

Per-stage timing of the link pipeline is the ``link.*`` trace spans
(:mod:`repro.obs.trace`).
"""

from repro.runtime.executor import default_jobs, run_trials
from repro.runtime.seeding import as_seed_sequence, spawn_seeds

__all__ = [
    "as_seed_sequence",
    "default_jobs",
    "run_trials",
    "spawn_seeds",
]
