"""Calibrated packet-level fast path: frame delivery without waveforms.

The fleet simulator's packet fidelity replaces the sample-level PHY
(modulate → channel → capture → decode, ~8 ms/frame) with one table
lookup + one uniform draw (~1 µs/frame): a **frame-delivery probability
table** over (link SNR × active interferer count × FEC scheme), distilled
from the *actual* sample-level PHY by Monte-Carlo through the PR-1
runtime and cross-validated against it in tests within binomial
confidence bounds.

The table caches on disk keyed by a SHA-256 hash of its full calibration
config (grid, trial count, per-point channel construction parameters and
a schema/calibration version), so any config change invalidates the
cache file name itself — stale tables are unreachable, not merely
detected.  Corrupt or partial cache files are recovered by
recalibration, reported with a one-line path-prefixed message in the
PR-3 ``obs summary`` error style.

Delivery semantics (the quantity the table stores): a frame is
*delivered* when the preamble was captured, the full frame decoded, and
the FEC-corrected data region matches the transmitted payload exactly —
the same "would the application see these bits?" criterion the
transport layer uses, applied per frame.
"""

import json
import logging
import math
import os
import tempfile
from bisect import bisect_left
from dataclasses import dataclass, field

import numpy as np

from repro.obs.metrics import REGISTRY

logger = logging.getLogger("repro.sim.fastpath")

#: Bump when delivery semantics / trial construction change: old cache
#: files become unreachable because the hash covers this too.
CALIBRATION_VERSION = 1

#: Cache schema marker inside the JSON document.
CACHE_SCHEMA = 1

_M_CACHE_HITS = REGISTRY.counter("sim.calibration.cache_hits")
_M_CACHE_MISSES = REGISTRY.counter("sim.calibration.cache_misses")
_M_CAL_FRAMES = REGISTRY.counter("sim.calibration.frames")

#: FEC schemes the calibration understands (transport's link-layer menu).
FEC_SCHEMES = ("none", "hamming", "conv")


def default_cache_dir():
    """Default on-disk cache location (override with ``REPRO_CACHE_DIR``)."""
    root = os.environ.get("REPRO_CACHE_DIR")
    if root:
        return os.path.join(root, "sim")
    return os.path.join(
        os.path.expanduser("~"), ".cache", "repro", "sim"
    )


@dataclass(frozen=True)
class CalibrationConfig:
    """Everything that determines the table's contents.

    ``snr_grid_db`` are the operating points sampled; lookups
    interpolate linearly between them and clamp outside.  Interferer
    columns 0..``max_interferers`` model concurrently active WiFi
    transmitters: column *k* calibrates against a
    :class:`~repro.channel.interference.WifiInterferenceModel` whose
    burst duty is the union of ``k`` independent ``interferer_duty``
    transmitters at ``interferer_sir_db``.  ``seed`` roots the
    calibration Monte-Carlo only — campaign seeds never touch the
    table, so one cached table serves every campaign.
    """

    snr_grid_db: tuple = (-2.0, 0.0, 2.0, 4.0, 6.0, 8.0)
    max_interferers: int = 1
    interferer_duty: float = 0.35
    interferer_sir_db: float = 3.0
    fec_schemes: tuple = ("none",)
    frames_per_point: int = 64
    data_bits: int = 16
    seed: int = 0x5EEDCA1
    zigbee_channel: int = 13
    wifi_channel: int = 1

    def __post_init__(self):
        object.__setattr__(
            self, "snr_grid_db", tuple(float(s) for s in self.snr_grid_db)
        )
        object.__setattr__(
            self, "fec_schemes", tuple(self.fec_schemes)
        )
        if len(self.snr_grid_db) < 2:
            raise ValueError("need at least two SNR grid points")
        if any(
            b <= a for a, b in zip(self.snr_grid_db, self.snr_grid_db[1:])
        ):
            raise ValueError("SNR grid must be strictly increasing")
        if self.max_interferers < 0:
            raise ValueError("max_interferers must be nonnegative")
        if self.frames_per_point < 1:
            raise ValueError("frames_per_point must be positive")
        for fec in self.fec_schemes:
            if fec not in FEC_SCHEMES:
                raise ValueError(
                    f"unknown FEC scheme {fec!r}; valid: "
                    f"{', '.join(FEC_SCHEMES)}"
                )
        if self.data_bits % 4:
            raise ValueError("data_bits must be a multiple of 4 (hamming)")

    def to_dict(self):
        """Canonical JSON-safe form (hashed and stored in the cache)."""
        return {
            "calibration_version": CALIBRATION_VERSION,
            "snr_grid_db": list(self.snr_grid_db),
            "max_interferers": self.max_interferers,
            "interferer_duty": self.interferer_duty,
            "interferer_sir_db": self.interferer_sir_db,
            "fec_schemes": list(self.fec_schemes),
            "frames_per_point": self.frames_per_point,
            "data_bits": self.data_bits,
            "seed": self.seed,
            "zigbee_channel": self.zigbee_channel,
            "wifi_channel": self.wifi_channel,
        }

    def config_hash(self):
        """Stable hex digest naming the cache file for this config."""
        import hashlib

        canonical = json.dumps(self.to_dict(), sort_keys=True)
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]

    def cache_path(self, cache_dir=None):
        directory = cache_dir if cache_dir is not None else default_cache_dir()
        return os.path.join(
            str(directory), f"delivery-{self.config_hash()}.json"
        )

    def points(self):
        """Every (snr_db, interferers, fec) grid point, in stable order."""
        return [
            (snr, k, fec)
            for fec in self.fec_schemes
            for k in range(self.max_interferers + 1)
            for snr in self.snr_grid_db
        ]


def interference_model_for(count, duty, sir_db):
    """The interference model standing in for ``count`` active WiFi TXs.

    ``count`` independent transmitters at per-TX burst duty ``duty``
    union into channel-busy probability ``1 - (1-duty)^count``; bursts
    arrive at ``sir_db`` relative to the SymBee signal (the calibration
    pins SNR, so SIR-mode power tracks it coherently).  Returns ``None``
    for a clean channel.
    """
    if count <= 0 or duty <= 0.0:
        return None
    from repro.channel.interference import WifiInterferenceModel

    aggregate = 1.0 - (1.0 - float(duty)) ** int(count)
    return WifiInterferenceModel(
        duty_cycle=min(aggregate, 0.95),
        mean_sir_db=float(sir_db),
        sir_sigma_db=0.0,
    )


def _fec_encode(payload_bits, fec):
    if fec == "none":
        return list(payload_bits)
    if fec == "hamming":
        from repro.core.coding import hamming74_encode

        return [int(b) for b in hamming74_encode(payload_bits)]
    from repro.core.convolutional import conv_encode

    return [int(b) for b in conv_encode(payload_bits)]


def _fec_decode(coded_bits, fec, n_bits):
    if fec == "none":
        return list(coded_bits)
    if fec == "hamming":
        from repro.core.coding import hamming74_decode

        bits, _ = hamming74_decode(coded_bits)
        return [int(b) for b in bits]
    from repro.core.convolutional import viterbi_decode

    return [int(b) for b in viterbi_decode(coded_bits, n_bits=n_bits)]


def make_calibration_link(snr_db, interferers, config):
    """A :class:`SymBeeLink` pinned at ``snr_db`` with ``interferers``.

    Uses the repo's link-at-SNR convention (transmit power = receiver
    noise floor + SNR, no fading channel) so the table's SNR axis is the
    same quantity the fleet's link-budget computation produces.
    """
    from repro.core.link import SymBeeLink
    from repro.dsp.signal_ops import watts_to_dbm
    from repro.wifi.front_end import WifiFrontEnd

    front = WifiFrontEnd(channel=config.wifi_channel)
    noise_floor_dbm = float(watts_to_dbm(front.noise_power_watts))
    return SymBeeLink(
        zigbee_channel=config.zigbee_channel,
        wifi_channel=config.wifi_channel,
        tx_power_dbm=noise_floor_dbm + float(snr_db),
        interference=interference_model_for(
            interferers, config.interferer_duty, config.interferer_sir_db
        ),
    )


#: Data region offset inside a SymBee frame's bit layout (after the
#: 24-bit header, before the 16-bit outer CRC) — see ``core/frame.py``.
_DATA_START = 24


def sample_frame_outcomes(snr_db, interferers, fec, config, seed, n_frames):
    """Ground truth: ``n_frames`` through the sample-level PHY.

    Returns the number delivered.  Per-frame randomness derives from
    ``seed`` by frame index (the runtime's trial-seeding contract), so
    outcomes are independent of chunking across workers.
    """
    from repro.runtime import as_seed_sequence

    link = make_calibration_link(snr_db, interferers, config)
    root = as_seed_sequence(seed)
    delivered = 0
    for index in range(int(n_frames)):
        rng = np.random.default_rng(
            np.random.SeedSequence(
                entropy=root.entropy, spawn_key=root.spawn_key + (index,)
            )
        )
        if _one_frame(link, fec, config.data_bits, index, rng):
            delivered += 1
    return delivered


def _one_frame(link, fec, data_bits, sequence, rng):
    """One sample-level frame; True when the payload survives FEC."""
    from repro.core.frame import build_frame_bits

    payload = [int(b) for b in rng.integers(0, 2, data_bits)]
    coded = _fec_encode(payload, fec)
    frame_bits = build_frame_bits(coded, sequence=sequence & 0xFF)
    result = link.send_bits(frame_bits, rng, mac_sequence=sequence & 0xFF)
    if not result.preamble_captured:
        return False
    decoded = result.decoded_bits
    if len(decoded) < len(frame_bits):
        return False
    region = list(decoded[_DATA_START : _DATA_START + len(coded)])
    try:
        recovered = _fec_decode(region, fec, n_bits=data_bits)
    except ValueError:
        return False
    return recovered[:data_bits] == payload


def _calibration_trial(task):
    """One grid point's Monte-Carlo (module-level so it pickles)."""
    snr_db, interferers, fec, config, seed = task
    delivered = sample_frame_outcomes(
        snr_db, interferers, fec, config, seed, config.frames_per_point
    )
    return delivered


class DeliveryTable:
    """P(frame delivered | SNR, interferers, FEC), with interpolation.

    ``cells`` maps ``(snr_db, interferers, fec) -> (delivered, trials)``
    over the calibration grid; :meth:`probability` interpolates linearly
    along the SNR axis and clamps both axes at their edges (an SNR past
    the grid is as good/bad as the edge; more interferers than
    calibrated saturate at the worst column).
    """

    def __init__(self, config, cells):
        self.config = config
        self.cells = dict(cells)
        missing = [p for p in config.points() if p not in self.cells]
        if missing:
            raise ValueError(
                f"delivery table is missing {len(missing)} grid point(s), "
                f"first {missing[0]}"
            )
        self._grid = config.snr_grid_db
        # Dense per-(fec, k) probability rows for fast lookup.
        self._rows = {}
        for fec in config.fec_schemes:
            for k in range(config.max_interferers + 1):
                self._rows[(fec, k)] = [
                    self.cells[(snr, k, fec)][0]
                    / max(1, self.cells[(snr, k, fec)][1])
                    for snr in self._grid
                ]

    # -- lookup -------------------------------------------------------------

    def probability(self, snr_db, interferers=0, fec=None):
        """Interpolated delivery probability at an operating point."""
        if fec is None:
            fec = self.config.fec_schemes[0]
        k = min(max(0, int(interferers)), self.config.max_interferers)
        try:
            row = self._rows[(fec, k)]
        except KeyError:
            raise ValueError(
                f"FEC {fec!r} not calibrated; table covers "
                f"{', '.join(self.config.fec_schemes)}"
            ) from None
        grid = self._grid
        if snr_db <= grid[0]:
            return row[0]
        if snr_db >= grid[-1]:
            return row[-1]
        hi = bisect_left(grid, snr_db)
        lo = hi - 1
        frac = (snr_db - grid[lo]) / (grid[hi] - grid[lo])
        return row[lo] + frac * (row[hi] - row[lo])

    def binomial_bound(self, snr_db, interferers=0, fec=None, z=3.0):
        """Half-width of the z-sigma binomial band around a table cell.

        Evaluated at the nearest grid SNR (the cell actually measured).
        Tests assert |observed_rate − table_p| within this bound plus
        the validation run's own binomial noise.
        """
        if fec is None:
            fec = self.config.fec_schemes[0]
        k = min(max(0, int(interferers)), self.config.max_interferers)
        grid = self._grid
        nearest = min(grid, key=lambda s: abs(s - snr_db))
        delivered, trials = self.cells[(nearest, k, fec)]
        p = delivered / max(1, trials)
        return z * math.sqrt(max(p * (1.0 - p), 1.0 / trials) / trials)

    # -- calibration --------------------------------------------------------

    @classmethod
    def calibrate(cls, config, jobs=None):
        """Distill the table from the sample-level PHY (PR-1 runtime).

        One task per grid point; per-point seeds derive from the config
        seed by stable point index, so the table is identical however
        the points are scheduled across workers.
        """
        from repro.obs.trace import TRACER
        from repro.runtime import as_seed_sequence, run_trials

        points = config.points()
        root = as_seed_sequence(config.seed)
        tasks = []
        for index, (snr, k, fec) in enumerate(points):
            seed = np.random.SeedSequence(
                entropy=root.entropy, spawn_key=root.spawn_key + (index,)
            )
            tasks.append((snr, k, fec, config, seed))
        with TRACER.span("sim.calibrate", points=len(points)):
            outcomes = run_trials(_calibration_trial, tasks, jobs=jobs)
        _M_CAL_FRAMES.inc(len(points) * config.frames_per_point)
        cells = {
            point: (int(delivered), config.frames_per_point)
            for point, delivered in zip(points, outcomes)
        }
        return cls(config, cells)

    # -- disk cache ---------------------------------------------------------

    def save(self, path):
        """Atomic rewrite (tmp + rename), creating parent dirs."""
        directory = os.path.dirname(path) or "."
        os.makedirs(directory, exist_ok=True)
        document = {
            "schema": CACHE_SCHEMA,
            "config": self.config.to_dict(),
            "cells": [
                {
                    "snr_db": snr,
                    "interferers": k,
                    "fec": fec,
                    "delivered": delivered,
                    "trials": trials,
                }
                for (snr, k, fec), (delivered, trials) in sorted(
                    self.cells.items(), key=lambda item: str(item[0])
                )
            ],
        }
        fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                json.dump(document, fh, sort_keys=True)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        return path

    @classmethod
    def load(cls, path, config):
        """Read a cache file; raises ``ValueError`` unless it matches.

        A mismatched config hash, wrong schema, truncated JSON or a
        missing grid point all reject the file — the caller falls back
        to recalibration.
        """
        with open(path, encoding="utf-8") as fh:
            try:
                document = json.load(fh)
            except ValueError as error:
                raise ValueError(f"not valid JSON ({error})") from None
        if not isinstance(document, dict):
            raise ValueError("not a delivery-table document")
        if document.get("schema") != CACHE_SCHEMA:
            raise ValueError(
                f"cache schema {document.get('schema')!r} != {CACHE_SCHEMA}"
            )
        if document.get("config") != config.to_dict():
            raise ValueError("calibration config mismatch")
        cells = {}
        for cell in document.get("cells", ()):
            try:
                key = (
                    float(cell["snr_db"]),
                    int(cell["interferers"]),
                    str(cell["fec"]),
                )
                cells[key] = (int(cell["delivered"]), int(cell["trials"]))
            except (KeyError, TypeError, ValueError):
                raise ValueError("malformed table cell") from None
        return cls(config, cells)  # raises on missing grid points

    @classmethod
    def load_or_calibrate(cls, config, cache_dir=None, jobs=None):
        """The front door: cached table when valid, else recalibrate.

        Unreadable/corrupt/stale cache files are reported with one
        path-prefixed line (PR-3 ``obs summary`` style) and replaced by
        a fresh calibration written back atomically.
        """
        path = config.cache_path(cache_dir)
        if os.path.exists(path):
            try:
                table = cls.load(path, config)
            except (OSError, ValueError) as error:
                reason = (
                    (error.strerror or str(error))
                    if isinstance(error, OSError)
                    else str(error)
                )
                logger.warning("%s: %s — recalibrating", path, reason)
            else:
                _M_CACHE_HITS.inc()
                return table
        _M_CACHE_MISSES.inc()
        table = cls.calibrate(config, jobs=jobs)
        try:
            table.save(path)
        except OSError as error:
            reason = error.strerror or str(error)
            logger.warning("%s: %s — table not cached", path, reason)
        return table
