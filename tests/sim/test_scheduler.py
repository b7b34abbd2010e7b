"""EventScheduler: ordering, determinism, RNG streams and drawers."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.sim.scheduler import DRAW_BLOCK, EventScheduler, stable_key_int


class TestOrdering:
    def test_fires_in_time_order(self):
        scheduler = EventScheduler()
        fired = []
        scheduler.at(0.3, fired.append, "c")
        scheduler.at(0.1, fired.append, "a")
        scheduler.at(0.2, fired.append, "b")
        assert scheduler.run() == 3
        assert fired == ["a", "b", "c"]

    def test_ties_break_by_insertion_order(self):
        scheduler = EventScheduler()
        fired = []
        for label in ("first", "second", "third"):
            scheduler.at(1.0, fired.append, label)
        scheduler.run()
        assert fired == ["first", "second", "third"]

    def test_event_scheduled_during_run_at_same_time_fires(self):
        scheduler = EventScheduler()
        fired = []

        def outer():
            fired.append("outer")
            scheduler.at(scheduler.now, fired.append, "inner")

        scheduler.at(0.5, outer)
        scheduler.run()
        assert fired == ["outer", "inner"]

    def test_cannot_schedule_in_the_past(self):
        scheduler = EventScheduler()
        scheduler.at(1.0, lambda: scheduler.at(0.5, lambda: None))
        with pytest.raises(ValueError, match="before now"):
            scheduler.run()

    def test_clock_advances_with_events(self):
        scheduler = EventScheduler()
        seen = []
        scheduler.at(0.25, lambda: seen.append(scheduler.now))
        scheduler.at(0.75, lambda: seen.append(scheduler.now))
        scheduler.run()
        assert seen == [0.25, 0.75]

    def test_after_is_relative_to_now(self):
        scheduler = EventScheduler()
        seen = []
        scheduler.at(1.0, lambda: scheduler.after(0.5, lambda: seen.append(scheduler.now)))
        scheduler.run()
        assert seen == [1.5]

    def test_cancelled_event_does_not_fire(self):
        scheduler = EventScheduler()
        fired = []
        event = scheduler.at(0.1, fired.append, "dead")
        scheduler.at(0.2, fired.append, "alive")
        event.cancel()
        assert scheduler.run() == 1
        assert fired == ["alive"]

    def test_until_is_exclusive_and_advances_clock(self):
        scheduler = EventScheduler()
        fired = []
        scheduler.at(1.0, fired.append, "at-horizon")
        scheduler.at(0.5, fired.append, "before")
        assert scheduler.run(until=1.0) == 1
        assert fired == ["before"]
        assert scheduler.now == 1.0
        assert len(scheduler) == 1  # the horizon event is still queued

    def test_max_events_stops_early(self):
        scheduler = EventScheduler()
        for i in range(10):
            scheduler.at(0.1 * (i + 1), lambda: None)
        assert scheduler.run(max_events=4) == 4
        assert len(scheduler) == 6


def _stream(scheduler, *key):
    """A fresh generator over stream ``key``, the sequence a drawer serves."""
    return np.random.default_rng(scheduler.seed_for(*key))


class TestRngStreams:
    def test_same_key_same_stream(self):
        a = EventScheduler(seed=7)
        b = EventScheduler(seed=7)
        assert _stream(a, "node", 3).random() == _stream(b, "node", 3).random()

    def test_different_keys_differ(self):
        scheduler = EventScheduler(seed=7)
        x = _stream(scheduler, "node", 1).random()
        y = _stream(scheduler, "node", 2).random()
        assert x != y

    def test_streams_are_order_independent(self):
        a = EventScheduler(seed=11)
        b = EventScheduler(seed=11)
        # Touch streams in opposite orders; each stream's draws match.
        first_a = a.drawer(("m", 1), "random")()
        second_a = a.drawer(("m", 2), "random")()
        second_b = b.drawer(("m", 2), "random")()
        first_b = b.drawer(("m", 1), "random")()
        assert first_a == first_b
        assert second_a == second_b

    def test_seed_for_matches_numpy_spawn_convention(self):
        scheduler = EventScheduler(seed=5)
        seq = scheduler.seed_for("frame", 2, 9)
        direct = np.random.SeedSequence(
            entropy=scheduler.root_seed.entropy,
            spawn_key=scheduler.root_seed.spawn_key
            + (stable_key_int("frame"), 2, 9),
        )
        assert (
            np.random.default_rng(seq).integers(0, 1 << 30)
            == np.random.default_rng(direct).integers(0, 1 << 30)
        )

    def test_stable_key_int(self):
        assert stable_key_int("mobility") != stable_key_int("noise")
        assert stable_key_int(17) == 17

    def test_string_keys_are_stable_across_processes(self):
        # Keys must not depend on PYTHONHASHSEED: the per-entity draw
        # tables are dicts, so run one campaign under two hash seeds.
        root = Path(__file__).resolve().parents[2]
        script = (
            "from tests.sim.golden import run_case\n"
            "print(run_case('fleet-mini').summary_json())\n"
        )
        summaries = []
        for hash_seed in ("0", "1"):
            env = dict(
                os.environ,
                PYTHONHASHSEED=hash_seed,
                PYTHONPATH=os.pathsep.join([str(root / "src"), str(root)]),
            )
            done = subprocess.run(
                [sys.executable, "-c", script],
                cwd=root,
                env=env,
                capture_output=True,
                text=True,
                timeout=120,
                check=True,
            )
            summaries.append(done.stdout)
        assert json.loads(summaries[0])["offered"] > 0
        assert summaries[0] == summaries[1]


#: One drawer per method the simulator draws in blocks.
DRAWN = [
    ("random", ()),
    ("standard_normal", ()),
    ("standard_exponential", ()),
    ("integers", (0, 8)),
]


class TestDrawers:
    @pytest.mark.parametrize("method,args", DRAWN)
    def test_block_draws_equal_scalar_draws(self, method, args):
        draw = EventScheduler(seed=4).drawer(("k", 2), method, *args)
        scalar = getattr(_stream(EventScheduler(seed=4), "k", 2), method)
        n = 3 * DRAW_BLOCK + 5  # across three block boundaries
        drawn = [draw() for _ in range(n)]
        assert drawn == [scalar(*args) for _ in range(n)]
        assert all(type(value) in (int, float) for value in drawn)

    def test_scaled_standard_exponential_is_exponential(self):
        draw = EventScheduler(seed=9).drawer(("e",), "standard_exponential")
        reference = _stream(EventScheduler(seed=9), "e")
        means = np.random.default_rng(1).uniform(1e-3, 200.0, 500).tolist()
        for mean in means:
            assert mean * draw() == float(reference.exponential(mean))

    def test_table_makes_one_drawer_per_entity(self):
        scheduler = EventScheduler(seed=2)
        table = scheduler.draws("deliver", "random")
        assert table[3] is table[3]
        assert table[3] is scheduler.drawer(("deliver", 3), "random")
        assert table[3]() != table[4]()

    @pytest.mark.parametrize(
        "part,error", [(-1, ValueError), (1.5, TypeError)]
    )
    def test_bad_key_parts_raise_after_a_good_one_is_cached(self, part, error):
        scheduler = EventScheduler()
        scheduler.drawer(("y", 1), "random")
        with pytest.raises(error):
            scheduler.seed_for("x", part)
        with pytest.raises(error):
            scheduler.drawer(("y", part), "random")
        with pytest.raises(error):
            scheduler.draws("y", "random")[part]

    def test_one_stream_serves_one_distribution(self):
        scheduler = EventScheduler()
        scheduler.drawer(("mac", 0), "integers", 0, 8)
        with pytest.raises(RuntimeError, match="already drawn"):
            scheduler.drawer(("mac", 0), "integers", 0, 16)

    def test_only_block_exact_methods(self):
        with pytest.raises(ValueError, match="block-drawable"):
            EventScheduler().drawer(("e",), "exponential", 2.0)
