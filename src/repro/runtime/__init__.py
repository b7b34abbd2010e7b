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
  same experiment *identical*;
* :mod:`repro.runtime.timing` — per-stage wall-clock counters
  (modulate / channel / front_end / decode) so speedups are measurable.
"""

from repro.runtime.executor import default_jobs, run_trials
from repro.runtime.seeding import as_seed_sequence, spawn_generators, spawn_seeds
from repro.runtime.timing import StageTimings

__all__ = [
    "StageTimings",
    "as_seed_sequence",
    "default_jobs",
    "run_trials",
    "spawn_generators",
    "spawn_seeds",
]
