"""Scan-kernel registry for the idle-listening preamble search.

The session's search state is by far the hottest idle path — a receiver
at 20 Msps spends almost all of its time scanning noise for a preamble,
not decoding frames — so the scanner is a swappable backend benchmarked
head-to-head rather than a hardcoded loop:

* ``grouped`` — the PR-5 scanner: dense count/coherence gates over
  groups of 8 chunks, then a Python loop running the concentration
  stage per surviving chunk.  Kept as the reference implementation.
* ``batched`` (default) — an event walk over the sparse *hot index*
  (the positions that could clear the concentration floor, kept by the
  session's windowed caches).  Every capture anchors on a hot position,
  so chunks with none are misses that cost no arithmetic at all: the
  walk jumps straight to the first chunk holding the next hot
  position, gates it from two cached prefix entries and one slice max,
  and runs the rest of the cascade over that chunk's few hot entries
  in plain Python.  **Bit-identical decisions and metrics** to
  ``grouped``: both kernels compare exactly the same floats, and the
  walk skips only chunks the dense cascade provably rejects (asserted
  by the test suite, with the metrics registry on and off).

Both kernels build their caches from the exact direct fold
(:func:`repro.dsp.kernels.preamble_fold_exact`).
"""

from dataclasses import dataclass

__all__ = [
    "DEFAULT_SCAN_KERNEL",
    "SCAN_KERNELS",
    "ScanKernel",
    "validate_scan_kernel",
]


@dataclass(frozen=True)
class ScanKernel:
    """One scanner backend."""

    name: str
    #: Whether the session runs the hot-index walk (over windowed
    #: caches) or the PR-5 per-group dense cascade.
    batched: bool
    description: str


SCAN_KERNELS = {
    "grouped": ScanKernel(
        name="grouped",
        batched=False,
        description="PR-5 reference: dense gates per 8-chunk group, "
        "per-chunk Python cascade",
    ),
    "batched": ScanKernel(
        name="batched",
        batched=True,
        description="event walk over the sparse hot index, "
        "bit-identical to grouped",
    ),
}

DEFAULT_SCAN_KERNEL = "batched"


def validate_scan_kernel(name):
    """Return the :class:`ScanKernel` for ``name`` (raise if unknown)."""
    try:
        return SCAN_KERNELS[name]
    except KeyError:
        raise ValueError(
            f"unknown scan kernel {name!r}; expected one of "
            f"{tuple(SCAN_KERNELS)}"
        ) from None
