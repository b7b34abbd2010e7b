"""One benchmark for every performance claim: the per-layer perf ledger.

``python -m benchmarks.ledger`` (or ``python3 benchmarks/ledger/run.py``)
runs each workload in a fresh, thread-pinned child process and prints
every metric as ``workload metric value unit``.  The metric names, units
and regression bounds live in ``BENCHMARK.json`` at the repository root;
``README.md`` next to this file explains the workloads, the metrics and
the comparison protocol.

Layout:

* :mod:`.run` -- the command line (standard library only; spawns children);
* :mod:`.child` -- one workload inside a pinned interpreter;
* :mod:`.stream`, :mod:`.gateway`, :mod:`.fleet` -- the four workloads;
* :mod:`.spans` -- layer timing from outside the program (trace spans
  around public calls, folded into self times);
* :mod:`.common` -- pass loops, host-speed scaling, statistics, digests
  and the golden file;
* :mod:`.baseline` -- records the run-to-run spread in ``baseline.json``.
"""
