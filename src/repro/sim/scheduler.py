"""Deterministic discrete-event core for fleet-scale simulation.

:class:`EventScheduler` is a hand-rolled simpy-idiom event loop (no
dependency, like the rest of the repo): a time-ordered heap of callback
events with **deterministic tie-breaking** — events at the same
simulated time fire in scheduling order, so a run's event sequence is a
pure function of the seed and the model, never of hash order or float
rounding luck.

Randomness follows the repo's runtime contract
(:mod:`repro.runtime.seeding`): every entity gets its *own* seeded
stream derived from the scheduler root by a stable key, so adding a node
or reordering model construction cannot shift any other entity's draws.
String key parts hash through SHA-256 (never ``hash()``, which is
per-process salted) to stable 64-bit spawn-key integers.

A stream that feeds one distribution can instead be served by a
*drawer* (:meth:`EventScheduler.drawer`): a zero-argument callable that
refills :data:`DRAW_BLOCK` values at a time and hands them out one by
one.  A numpy ``Generator`` yields the same values in blocks as one at
a time for every method in :data:`BLOCK_METHODS`, so a drawer replays
the scalar calls it replaces bit for bit.  Models keep one drawer per
entity in a :meth:`EventScheduler.draws` table, so the SHA-256 key
derivation runs once per stream, not once per draw.
"""

import array
import hashlib
import heapq
import itertools

import numpy as np

from repro.runtime import as_seed_sequence

#: Values a drawer takes from its stream per refill.  Larger blocks
#: save little more and hold more Python floats per entity.
DRAW_BLOCK = 32

#: ``Generator`` methods whose block draws equal their scalar draws
#: value for value, each with the ``array`` typecode its blocks are held
#: in: 8 bytes a value, where a list of Python scalars takes 32.
#: ``exponential(scale)`` is served as ``scale * standard_exponential()``
#: (bit-identical), so one stream can mix means.
BLOCK_METHODS = {
    "random": "d",
    "standard_normal": "d",
    "standard_exponential": "d",
    "integers": "q",
}


def stable_key_int(part):
    """A stable nonnegative integer for one RNG-stream key part.

    Integers pass through; strings map via SHA-256 so the value is
    identical across processes, platforms and Python versions.
    """
    if isinstance(part, (int, np.integer)):
        value = int(part)
        if value < 0:
            raise ValueError("key integers must be nonnegative")
        return value
    if isinstance(part, str):
        digest = hashlib.sha256(part.encode("utf-8")).digest()
        return int.from_bytes(digest[:8], "big")
    raise TypeError(f"RNG key parts must be int or str, got {type(part)!r}")


class Event:
    """One scheduled callback; the heap orders it by ``(time_s, seq)``."""

    __slots__ = ("time_s", "seq", "fn", "args", "cancelled")

    def __init__(self, time_s, seq, fn, args):
        self.time_s = time_s
        self.seq = seq
        self.fn = fn
        self.args = args
        self.cancelled = False

    def cancel(self):
        """Mark the event dead; the loop skips it without firing."""
        self.cancelled = True


class _Draws(dict):
    """``entity -> drawer`` for one stream kind, each made on first use."""

    __slots__ = ("_scheduler", "_kind", "_method", "_args")

    def __init__(self, scheduler, kind, method, args):
        super().__init__()
        self._scheduler = scheduler
        self._kind = kind
        self._method = method
        self._args = args

    def __missing__(self, entity):
        draw = self[entity] = self._scheduler.drawer(
            (self._kind, entity), self._method, *self._args
        )
        return draw


class EventScheduler:
    """Time-ordered event loop with per-entity seeded RNG streams.

    Tie-breaking contract: events are ordered by ``(time_s, seq)`` where
    ``seq`` is a monotone scheduling counter — two events at the same
    instant fire in the order they were scheduled.  The heap holds
    ``(time_s, seq, event)`` tuples, so the order is compared in C and
    never reaches the event itself (``seq`` is unique).  Because model
    code only schedules from a deterministic position in the event
    sequence, the whole execution is reproducible bit-for-bit from the
    seed.
    """

    def __init__(self, seed=0, start_s=0.0):
        self.now = float(start_s)
        self._heap = []
        self._counter = itertools.count()
        self._root = as_seed_sequence(seed)
        #: spawn key -> ``(method, args, drawer)`` of block-served streams.
        self._drawers = {}
        #: Events fired so far (skipped cancellations excluded).
        self.events_processed = 0

    # -- randomness ---------------------------------------------------------

    @property
    def root_seed(self):
        """The root ``SeedSequence`` every stream derives from."""
        return self._root

    def seed_for(self, *key):
        """An order-independent ``SeedSequence`` for a one-shot draw.

        Derived purely from the root entropy and the key, so the same
        ``(node, sequence, attempt)`` identity yields the same stream no
        matter when — or in which worker — it is consumed.  This is the
        same convention :class:`repro.network.ConvergecastNetwork` uses
        for PHY trial seeds.
        """
        return self._sequence(tuple(stable_key_int(part) for part in key))

    def _sequence(self, spawn):
        return np.random.SeedSequence(
            entropy=self._root.entropy,
            spawn_key=self._root.spawn_key + spawn,
        )

    def drawer(self, key, method, *args):
        """The next-value callable of stream ``key`` for one distribution.

        ``drawer(key, method, *args)()`` returns the value that
        ``np.random.default_rng(seed_for(*key)).method(*args)`` would,
        as a Python scalar, while drawing :data:`DRAW_BLOCK` values per
        refill.  ``method`` must be one of :data:`BLOCK_METHODS`.
        Repeated calls with the same key and distribution return the
        same callable; a key drawn for another distribution is refused.
        """
        spawn = tuple(stable_key_int(part) for part in key)
        served = self._drawers.get(spawn)
        if served is not None:
            if served[:2] != (method, args):
                raise RuntimeError(
                    f"stream {key!r} is already drawn as "
                    f"{served[0]}{served[1]!r}"
                )
            return served[2]
        if method not in BLOCK_METHODS:
            raise ValueError(
                f"{method!r} is not block-drawable; valid: "
                f"{', '.join(BLOCK_METHODS)}"
            )
        fill = getattr(np.random.default_rng(self._sequence(spawn)), method)
        typecode = BLOCK_METHODS[method]

        def block():
            return array.array(
                typecode, fill(*args, size=DRAW_BLOCK).tobytes()
            )

        draw = itertools.chain.from_iterable(iter(block, None)).__next__
        self._drawers[spawn] = (method, args, draw)
        return draw

    def draws(self, kind, method, *args):
        """A table ``entity -> drawer((kind, entity), method, *args)``.

        Models keep one table per stream kind; indexing it with an
        entity id makes that entity's drawer on first use and is a
        plain dict lookup after.
        """
        return _Draws(self, kind, method, args)

    # -- scheduling ---------------------------------------------------------

    def at(self, time_s, fn, *args):
        """Schedule ``fn(*args)`` at absolute simulated ``time_s``."""
        time_s = float(time_s)
        if time_s < self.now:
            raise ValueError(
                f"cannot schedule at {time_s} before now={self.now}"
            )
        seq = next(self._counter)
        event = Event(time_s, seq, fn, args)
        heapq.heappush(self._heap, (time_s, seq, event))
        return event

    def after(self, delay_s, fn, *args):
        """Schedule ``fn(*args)`` ``delay_s`` seconds from now."""
        if delay_s < 0:
            raise ValueError("delay must be nonnegative")
        return self.at(self.now + float(delay_s), fn, *args)

    def __len__(self):
        return sum(1 for _, _, event in self._heap if not event.cancelled)

    # -- execution ----------------------------------------------------------

    def run(self, until=None, max_events=None):
        """Fire events in order; returns the number fired.

        ``until`` stops the clock *exclusive*: an event at exactly
        ``until`` does not fire (arrivals at the horizon belong to the
        next epoch, matching the arrival-generation convention of the
        network layer).  ``max_events`` bounds runaway models.
        """
        fired = 0
        heap = self._heap
        pop = heapq.heappop
        while heap:
            time_s, _, event = heap[0]
            if event.cancelled:
                pop(heap)
                continue
            if until is not None and time_s >= until:
                break
            if max_events is not None and fired >= max_events:
                break
            pop(heap)
            self.now = time_s
            event.fn(*event.args)
            fired += 1
            self.events_processed += 1
        if until is not None and self.now < until:
            self.now = float(until)
        return fired
