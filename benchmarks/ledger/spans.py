"""Layer timing from outside the program.

The traced passes wrap public calls of each layer in ``TRACER`` spans
named after the layer.  Spans the program already opens
(``stream.block``, ``stream.session.scan/header/body``, ``link.*``,
``sim.campaign``, ``sim.calibrate``) then nest under them, and a layer's
*self time* is its spans' durations minus their direct children's.

Nothing under ``src/`` changes: the wrappers are installed on the
classes for the duration of a traced pass and removed afterwards, so
untraced passes run the program exactly as users do.  The metrics
``REGISTRY`` stays disabled throughout, because enabling it switches the
session to its unfused scan/header path.
"""

import inspect
import time
from collections import defaultdict
from contextlib import contextmanager

from repro.obs.metrics import REGISTRY
from repro.obs.trace import TRACER

#: Wrapped calls between tracer drains.  A fleet campaign makes about
#: 300k wrapped calls; draining keeps the buffer far below its
#: 100k-record cap, so no span is ever dropped.
DRAIN_EVERY = 10_000


class SpanLedger:
    """Self time per span name, folded from tracer records.

    Records arrive in exit order, so each span's children have all been
    seen by the time the span itself arrives: the seconds of closed
    spans are summed per depth, and a span at depth ``d`` takes (and
    resets) the sum waiting at ``d + 1``.  The fold is incremental, so
    the tracer can be drained at any moment, even with spans open.
    """

    def __init__(self):
        self.self_s = defaultdict(float)
        self.calls = defaultdict(int)
        self._closed_s = defaultdict(float)
        self._wrapped_calls = 0

    def feed(self, records):
        for record in records:
            depth = record["depth"]
            duration = record["duration_s"]
            children = self._closed_s.pop(depth + 1, 0.0)
            self.self_s[record["name"]] += duration - children
            self.calls[record["name"]] += 1
            self._closed_s[depth] += duration

    def drain(self):
        self.feed(TRACER.drain())

    def total(self, *names):
        return sum(self.self_s.get(name, 0.0) for name in names)

    def _after_call(self):
        self._wrapped_calls += 1
        if self._wrapped_calls % DRAIN_EVERY == 0:
            self.drain()


def _wrap(function, name, ledger, observe):
    span = TRACER.span

    def wrapper(*args, **kwargs):
        with span(name):
            result = function(*args, **kwargs)
        if observe is not None:
            observe(args, result)
        ledger._after_call()
        return result

    return wrapper


@contextmanager
def recording(ledger, patches=()):
    """Trace into ``ledger`` with ``patches`` installed, then restore.

    Each patch is ``(owner, attribute, span_name)`` or
    ``(owner, attribute, span_name, observe)``, where ``observe(args,
    result)`` sees every call (used to read counters off the objects the
    program returns).  Raises if the tracer dropped a record or if the
    metrics registry was switched on.
    """
    if REGISTRY.enabled:
        raise RuntimeError("metrics registry must stay disabled while tracing")
    originals = []
    try:
        for owner, attribute, name, *observe in patches:
            original = inspect.getattr_static(owner, attribute)
            if not inspect.isfunction(original):
                raise TypeError(f"cannot wrap {owner!r}.{attribute}")
            originals.append((owner, attribute, original))
            setattr(
                owner,
                attribute,
                _wrap(original, name, ledger, observe[0] if observe else None),
            )
        TRACER.reset()
        TRACER.enable()
        yield ledger
    finally:
        TRACER.disable()
        for owner, attribute, original in reversed(originals):
            setattr(owner, attribute, original)
        ledger.drain()
    if TRACER.dropped:
        raise RuntimeError(f"tracer dropped {TRACER.dropped} span records")
    if REGISTRY.enabled:
        raise RuntimeError("metrics registry was enabled during a traced pass")


@contextmanager
def timing_calls(owner, attribute, sink):
    """Append the wall seconds of every ``owner.attribute`` call to ``sink``.

    A bare ``perf_counter`` pair, no tracer: used in untraced passes.
    """
    original = inspect.getattr_static(owner, attribute)
    clock = time.perf_counter

    def wrapper(*args, **kwargs):
        started = clock()
        result = original(*args, **kwargs)
        sink.append(clock() - started)
        return result

    setattr(owner, attribute, wrapper)
    try:
        yield sink
    finally:
        setattr(owner, attribute, original)
