"""Deterministic per-trial seeding for Monte-Carlo experiments.

The contract: a trial's random stream depends only on (experiment seed,
trial index).  ``SeedSequence.spawn`` guarantees statistically
independent child streams, and because the children are enumerated in
trial order, serial and parallel executions of the same experiment see
bit-identical randomness regardless of worker scheduling.
"""

import numpy as np


def as_seed_sequence(seed):
    """Coerce ``seed`` into a ``numpy.random.SeedSequence``.

    Accepts a ``SeedSequence`` (returned as is), a ``Generator``
    (entropy is drawn from it, advancing its state deterministically —
    this is how legacy ``rng``-taking call sites join the runtime), an
    integer, or ``None`` (fresh OS entropy).
    """
    if isinstance(seed, np.random.SeedSequence):
        return seed
    if isinstance(seed, np.random.Generator):
        entropy = [int(v) for v in seed.integers(0, 2**63, size=2)]
        return np.random.SeedSequence(entropy)
    return np.random.SeedSequence(seed)


def spawn_seeds(seed, n):
    """``n`` independent child ``SeedSequence`` objects, in trial order."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    return as_seed_sequence(seed).spawn(n)
