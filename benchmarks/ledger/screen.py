"""List the capture draws the receiver errs on: ``screened.json``.

    PYTHONPATH=src python -m benchmarks.ledger.screen

For every seed in :data:`SEEDS`, renders each full-size ``idle`` and
``demux`` capture draw by draw, decoding every draw that qualifies
otherwise, until the receiver decodes one without error
(:func:`benchmarks.ledger.stream.render`), and records the draws it
replaced.  A build for a screened seed then skips exactly those draws
without decoding anything, so its inputs do not depend on the code being
measured.  Run it again after a deliberate change to the receiver's
output or to the input synthesis (about 15 minutes on 2 CPUs).
"""

import os

# Decode with the benchmark's threading: run.py pins its children the
# same way, and the pin only takes effect before numpy loads.
os.environ.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", REPRO_JOBS="1")

import json  # noqa: E402
import sys  # noqa: E402
from concurrent.futures import ProcessPoolExecutor  # noqa: E402

from benchmarks.ledger.run import DEFAULT_SEED  # noqa: E402
from benchmarks.ledger.stream import (  # noqa: E402
    _MAX_DRAWS,
    CAPTURES,
    SAMPLES,
    SCREENED,
    render,
)

#: Half-open seed ranges screened: the small seeds runs usually take,
#: and the default seed.
SEEDS = ((0, 256), (DEFAULT_SEED, DEFAULT_SEED + 1))
JOBS = 2


def screen(seed):
    """``{workload: [[seed, capture, draw], ...]}`` replaced at ``seed``."""
    return {
        name: [
            [seed, index, draw]
            for index in range(CAPTURES[name])
            for draw in render(name, seed, index, SAMPLES,
                               redraws=_MAX_DRAWS)[2]
        ]
        for name in CAPTURES
    }


def main():
    seeds = [seed for lo, hi in SEEDS for seed in range(lo, hi)]
    document = {"size": SAMPLES, "seeds": [list(r) for r in SEEDS]}
    document.update({name: [] for name in CAPTURES})
    with ProcessPoolExecutor(max_workers=JOBS) as pool:
        for seed, found in zip(seeds, pool.map(screen, seeds)):
            for name, draws in found.items():
                document[name].extend(draws)
                for entry in draws:
                    print(f"{name} seed {seed} capture {entry[1]} "
                          f"draw {entry[2]} replaced", file=sys.stderr)
    SCREENED.write_text(json.dumps(document, separators=(",", ":")) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
