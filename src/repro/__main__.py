"""Command-line interface: reproduce any paper result from the shell.

    python -m repro list                  # available experiments
    python -m repro run fig13             # regenerate one table/figure
    python -m repro run all               # the whole battery
    python -m repro run fig12 --metrics-out m.jsonl --trace   # + telemetry
    python -m repro obs summary m.jsonl   # pretty-print a recorded run
    python -m repro listen --senders 3    # streaming multi-sender decode
    python -m repro send --fault-profile burst   # reliable transport demo
    python -m repro survey                # scenario site survey
    python -m repro info                  # key constants and rates

``-v``/``-q`` tune the ``repro.*`` logger (diagnostics go to stderr;
experiment tables stay on stdout).  ``run all`` keeps going past a
failing experiment and exits non-zero with a pass/fail summary.

BLAS is pinned to one thread before anything loads numpy (``info``
reports the count): unpinned, OpenBLAS sizes its pool to the host and
the channelizer's matrix products swing between a fast and a ~5x
slower mode from one process to the next.  An explicit
``OPENBLAS_NUM_THREADS`` / ``OMP_NUM_THREADS`` in the environment wins.
"""

import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")

import argparse  # noqa: E402
import signal  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from contextlib import contextmanager  # noqa: E402
from types import SimpleNamespace  # noqa: E402


def _profiled(fn):
    """Run ``fn`` under cProfile with span tracing; print both summaries.

    Returns ``fn()``'s result.  The hotspot table comes from cProfile;
    the span tree re-renders the ``repro.obs`` trace stream (enabled for
    the duration if it was off) so the wall-clock shape of the pipeline
    sits next to the per-function costs.
    """
    import cProfile
    import pstats

    from repro import obs
    from repro.experiments.common import print_table

    own_trace = not obs.TRACER.enabled
    if own_trace:
        obs.TRACER.reset()
        obs.TRACER.enable()
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        result = fn()
    finally:
        profiler.disable()
        spans = obs.TRACER.peek()
        if own_trace:
            obs.TRACER.drain()
            obs.TRACER.disable()

    stats = pstats.Stats(profiler)
    rows = []
    entries = sorted(
        stats.stats.items(), key=lambda kv: kv[1][2], reverse=True
    )
    for (filename, line, name), (cc, nc, tt, ct, _callers) in entries[:15]:
        if filename == "~":
            where = name
        else:
            short = filename.rsplit("/", 1)[-1]
            where = f"{short}:{line}:{name}"
        rows.append((nc, f"{tt:.4f}", f"{ct:.4f}", where))
    print_table(
        ("calls", "tottime", "cumtime", "function"),
        rows,
        title="profile (top 15 by internal time)",
    )
    _print_span_tree(spans, print_table)
    return result


def _print_span_tree(spans, print_table):
    """Aggregate span records into a parent/child tree and print it."""
    if not spans:
        print("(no spans recorded)")
        return
    nodes = {}
    for record in spans:
        key = record["name"]
        node = nodes.setdefault(
            key,
            {
                "calls": 0,
                "seconds": 0.0,
                "parent": record.get("parent"),
                "depth": record["depth"],
            },
        )
        node["calls"] += 1
        node["seconds"] += record["duration_s"]
    children = {}
    roots = []
    for name, node in nodes.items():
        parent = node["parent"]
        if parent is not None and parent in nodes:
            children.setdefault(parent, []).append(name)
        else:
            roots.append(name)
    rows = []

    def walk(name, indent):
        node = nodes[name]
        rows.append(
            (
                "  " * indent + name,
                node["calls"],
                f"{node['seconds']:.4f}",
            )
        )
        for child in sorted(
            children.get(name, ()), key=lambda c: -nodes[c]["seconds"]
        ):
            walk(child, indent + 1)

    for root in sorted(roots, key=lambda r: -nodes[r]["seconds"]):
        walk(root, 0)
    print_table(("span", "calls", "seconds"), rows, title="span tree")


class _UsageError(Exception):
    """A flag value argparse cannot check: one ``error:`` line, exit 2."""


def _live_collector(args, serving):
    """The live collector over the sinks ``args`` ask for, or None.

    ``--metrics-stream``, ``--prom-out`` and ``listen --live`` each add a
    sink.  ``listen`` may tick on every block (``--live-interval 0``);
    the gateway ticks from a background thread, which needs a positive
    interval.
    """
    from repro import obs

    live = getattr(args, "live", False)
    if not (args.metrics_stream or args.prom_out or live):
        return None
    if serving and args.live_interval <= 0:
        raise _UsageError("--live-interval must be > 0")
    if args.live_interval < 0:
        raise _UsageError("--live-interval must be >= 0")
    sinks = []
    if args.metrics_stream:
        sinks.append(obs.JsonlSink(args.metrics_stream))
    if args.prom_out:
        sinks.append(obs.PrometheusFileSink(args.prom_out))
    if live:
        sinks.append(obs.TtyDashboard())
    return obs.LiveCollector(interval_s=args.live_interval, sinks=sinks)


@contextmanager
def _recording(args, serving=False, span_table=False):
    """One command's telemetry, from the registry reset to the manifest.

    The metrics registry is reset and enabled when ``--metrics-out``,
    ``--trace`` or a live sink is given, and always when ``serving`` (the
    gateway's /metrics endpoint reads it); the tracer is reset and
    enabled with ``--trace``.  Yields ``run``: ``run.collector`` is the
    live collector (or None).  Every exit, early return and exception
    included, closes the live sinks and disables both.  A command that
    completes sets ``run.experiments`` (and ``run.seed``): then
    ``--metrics-out`` receives the manifest and the metric/span streams,
    or, with ``span_table`` and no output path, the span totals print.
    """
    from repro import obs

    metrics_out = getattr(args, "metrics_out", None)
    trace = getattr(args, "trace", False)
    collector = (
        _live_collector(args, serving)
        if hasattr(args, "live_interval") else None
    )
    meter = serving or bool(metrics_out) or trace or collector is not None
    run = SimpleNamespace(collector=collector, experiments=None, seed=None)
    if meter:
        obs.REGISTRY.reset()
        if trace:
            obs.TRACER.reset()
        obs.enable(trace=trace)
    try:
        yield run
    finally:
        if collector is not None:
            for sink in collector.sinks:
                sink.close()
        if meter:
            obs.disable()
    if run.experiments is None:
        return
    if span_table and trace and not metrics_out:
        from repro.experiments.common import print_table

        rows = [
            (name, entry["calls"], f"{entry['seconds']:.3f}")
            for name, entry in sorted(
                obs.TRACER.totals().items(), key=lambda kv: -kv[1]["seconds"]
            )
        ]
        print_table(("span", "calls", "seconds"), rows, title="trace spans")
    spans = obs.TRACER.drain() if trace else []
    if metrics_out:
        snapshot = obs.REGISTRY.snapshot()
        manifest = obs.build_manifest(
            experiments=run.experiments,
            seed=run.seed,
            metrics=snapshot,
            n_spans=len(spans),
        )
        obs.write_run_jsonl(
            metrics_out, manifest, snapshot=snapshot, spans=spans
        )
        print(f"telemetry written to {metrics_out}", file=sys.stderr)


def _status(name, elapsed, error=None):
    """One manifest ``experiments`` entry (``error`` None on success)."""
    return {
        "id": name,
        "status": "ok" if error is None else "error",
        "elapsed_seconds": round(elapsed, 3),
        "error": error,
    }


def _cmd_list(_args):
    from repro.experiments import EXPERIMENTS

    width = max(len(eid) for eid in EXPERIMENTS)
    for eid, experiment in EXPERIMENTS.items():
        print(f"{eid.ljust(width)}  {experiment.title}")
    return 0


def _run_one(experiment):
    """Run one experiment; returns its manifest status entry."""
    t0 = time.perf_counter()
    try:
        experiment.main()
        error = None
    except Exception as exc:  # noqa: BLE001 — the summary reports it
        traceback.print_exc(file=sys.stderr)
        error = f"{type(exc).__name__}: {exc}"
    return _status(experiment.id, time.perf_counter() - t0, error)


def _cmd_run(args):
    from repro.experiments import EXPERIMENTS

    if args.experiment == "all":
        experiments = list(EXPERIMENTS.values())
    elif args.experiment in EXPERIMENTS:
        experiments = [EXPERIMENTS[args.experiment]]
    else:
        valid = ", ".join(sorted(EXPERIMENTS))
        print(
            f"unknown experiment {args.experiment!r}; valid ids: {valid}",
            file=sys.stderr,
        )
        return 2

    def battery():
        return [_run_one(experiment) for experiment in experiments]

    with _recording(args, span_table=True) as run:
        statuses = _profiled(battery) if args.profile else battery()
        run.experiments = statuses
    failures = [s for s in statuses if s["status"] != "ok"]

    if len(statuses) > 1:
        from repro.experiments.common import print_table

        rows = [
            (s["id"], s["status"], f"{s['elapsed_seconds']:.2f}")
            for s in statuses
        ]
        print_table(
            ("experiment", "status", "seconds"), rows, title="run summary"
        )
        print(
            f"{len(statuses) - len(failures)}/{len(statuses)} experiments passed"
        )
    return 1 if failures else 0


def _cmd_obs(args):
    from repro.obs import read_run_jsonl, summarize_manifest

    try:
        manifest, metrics, spans = read_run_jsonl(args.path)
    except OSError as error:
        reason = error.strerror or str(error)
        print(f"error: {args.path}: {reason}", file=sys.stderr)
        return 2
    except ValueError as error:
        # Not a run manifest — maybe a live time series from
        # ``listen --metrics-stream``; summarize that schema instead.
        from repro.obs import read_metrics_stream, summarize_metrics_stream

        try:
            samples = read_metrics_stream(args.path)
        except (OSError, ValueError):
            samples = []
        if samples:
            print(summarize_metrics_stream(samples, path=args.path))
            return 0
        print(f"error: {error}", file=sys.stderr)
        return 2
    print(summarize_manifest(manifest, metrics, spans))
    return 0


def _cmd_obs_tail(args):
    import time as _time

    from repro.obs import format_live_line, read_metrics_stream
    from repro.obs.export import parse_live_record

    if args.follow:
        try:
            with open(args.path, encoding="utf-8") as fh:
                lineno = 0
                while True:
                    position = fh.tell()
                    line = fh.readline()
                    if not line:
                        _time.sleep(0.2)
                        continue
                    if not line.endswith("\n"):
                        # Mid-write line: rewind and retry once complete.
                        fh.seek(position)
                        _time.sleep(0.2)
                        continue
                    lineno += 1
                    record = parse_live_record(
                        line, path=args.path, lineno=lineno
                    )
                    if record is None:
                        continue
                    print(format_live_line(record))
                    if record.get("final"):
                        return 0
        except OSError as error:
            reason = error.strerror or str(error)
            print(f"error: {args.path}: {reason}", file=sys.stderr)
            return 2
        except ValueError as error:
            print(f"error: {error}", file=sys.stderr)
            return 2
        except KeyboardInterrupt:
            return 0

    try:
        samples = read_metrics_stream(args.path)
    except OSError as error:
        reason = error.strerror or str(error)
        print(f"error: {args.path}: {reason}", file=sys.stderr)
        return 2
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    if not samples:
        print(f"error: {args.path}: no live records", file=sys.stderr)
        return 2
    for sample in samples[-1:] if args.once else samples:
        print(format_live_line(sample))
    return 0


def _cmd_listen(args):
    import numpy as np

    from repro.channel.scenarios import SCENARIOS
    from repro.experiments.common import print_table
    from repro.network.traffic import StreamSender, StreamTraffic
    from repro.stream import RingBufferSource, StreamEngine
    from repro.zigbee.channels import overlapping_zigbee_channels

    if args.senders < 1:
        print("error: --senders must be >= 1", file=sys.stderr)
        return 2
    scenario = None
    if args.scenario is not None:
        if args.scenario not in SCENARIOS:
            valid = ", ".join(sorted(SCENARIOS))
            print(
                f"error: unknown scenario {args.scenario!r}; "
                f"valid names: {valid}",
                file=sys.stderr,
            )
            return 2
        scenario = SCENARIOS[args.scenario]

    demux = not args.wideband
    channels = (
        overlapping_zigbee_channels(args.wifi_channel) if demux else [13]
    )
    senders = [
        StreamSender(
            sender_id=i,
            zigbee_channel=channels[i % len(channels)],
            reading_interval_s=args.interval,
            data_bits=args.data_bits,
            distance_m=args.distance,
        )
        for i in range(args.senders)
    ]
    traffic = StreamTraffic(
        senders,
        wifi_channel=args.wifi_channel,
        duration_s=args.duration,
        scenario=scenario,
    )

    with _recording(args) as run:
        rng = np.random.default_rng(args.seed)
        samples, truth = traffic.capture(rng)
        try:
            engine = StreamEngine(
                wifi_channel=args.wifi_channel,
                demux=demux,
                decimation=args.decimation,
                working_dtype=np.complex64 if args.float32 else None,
            )
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        ring = RingBufferSource(capacity_blocks=args.ring_capacity)

        # Graceful shutdown: SIGINT/SIGTERM stop the *feed*, not the
        # process — the engine then drains the ring, flushes channelizer
        # state and finalizes the live collector exactly as it would at
        # end-of-capture.  A second signal falls back to the default
        # handler (hard kill).
        stop = {"signal": None}

        def _request_stop(signum, _frame):
            stop["signal"] = signal.Signals(signum).name
            signal.signal(signum, previous[signum])
            print(
                f"{stop['signal']} received: draining stream...",
                file=sys.stderr,
                flush=True,
            )

        previous = {}
        for signum in (signal.SIGINT, signal.SIGTERM):
            try:
                previous[signum] = signal.signal(signum, _request_stop)
            except (ValueError, OSError):  # non-main thread / platform quirks
                pass

        def ring_feed():
            # Lock-step producer/consumer: every block passes through the
            # ring on its way to the engine so overrun accounting stays
            # live.
            for block in traffic.blocks(samples, args.block_size):
                if stop["signal"] is not None:
                    break
                ring.push(block)
                popped = ring.pop()
                if popped is not None:
                    yield popped
            ring.close()
            yield from ring

        def decode():
            return engine.run(ring_feed(), collector=run.collector)

        t0 = time.perf_counter()
        try:
            frames = _profiled(decode) if args.profile else decode()
        finally:
            for signum, handler in previous.items():
                try:
                    signal.signal(signum, handler)
                except (ValueError, OSError):
                    pass
        elapsed = time.perf_counter() - t0

        if run.collector is not None:
            # The final sample carries the end-of-run cumulative totals —
            # it must land after the decode.
            run.collector.finalize()
            if args.metrics_stream:
                print(
                    f"live telemetry streamed to {args.metrics_stream}",
                    file=sys.stderr,
                )
            if args.prom_out:
                print(
                    f"prometheus exposition written to {args.prom_out}",
                    file=sys.stderr,
                )

        # Score decoded frames against the schedule: each scheduled frame is
        # delivered when some CRC-valid decode on its channel carried its
        # exact bits (consumed greedily in stream order).
        remaining = {}
        for t in truth:
            remaining.setdefault((t.zigbee_channel, t.frame_bits), []).append(t)
        delivered = 0
        rows = []
        for frame in frames:
            matched = False
            if frame.crc_ok:
                queue = remaining.get((frame.zigbee_channel, frame.bits))
                if queue:
                    queue.pop(0)
                    delivered += 1
                    matched = True
            rows.append(
                (
                    frame.zigbee_channel,
                    frame.preamble_index,
                    frame.n_bits,
                    "ok" if frame.crc_ok else "fail",
                    f"{frame.band_power:.2e}",
                    "yes" if matched else "-",
                )
            )
        print_table(
            ("channel", "preamble", "bits", "crc", "power", "delivered"),
            rows,
            title=f"decoded frames ({'demux' if demux else 'wideband'})",
        )

        msps = samples.size / elapsed / 1e6 if elapsed > 0 else float("inf")
        realtime = msps * 1e6 / traffic.sample_rate
        ring_stats = ring.stats()
        print(
            f"{delivered}/{len(truth)} scheduled frames delivered, "
            f"{engine.frames_suppressed} leak copies suppressed, "
            f"{ring_stats['overruns']} ring overruns"
        )
        print(
            f"processed {samples.size} samples in {elapsed:.3f} s "
            f"({msps:.1f} Msps, {realtime:.2f}x realtime)"
        )
        run.seed = args.seed
        run.experiments = [_status("listen", elapsed)]

    if stop["signal"] is not None:
        # A requested shutdown that drained cleanly is a success even
        # though the truncated feed delivered fewer frames than planned.
        print(
            f"shut down cleanly on {stop['signal']} "
            f"({delivered}/{len(truth)} scheduled frames before the cut)",
            file=sys.stderr,
        )
        return 0
    return 0 if delivered == len(truth) else 1


def _cmd_send(args):
    from repro.experiments.common import print_table
    from repro.transport import SCHEME_NAMES, TransportSession, make_profile

    if args.message is not None and args.size is not None:
        print("error: --message and --size are mutually exclusive", file=sys.stderr)
        return 2
    if args.message is not None:
        message = args.message.encode()
    else:
        import numpy as np

        size = args.size if args.size is not None else 32
        message = np.random.default_rng(args.seed).integers(
            0, 256, size, dtype=np.uint8
        ).tobytes()
    if not message:
        print("error: empty message", file=sys.stderr)
        return 2

    try:
        profile = make_profile(args.fault_profile)
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    if args.fec != "adaptive" and args.fec not in SCHEME_NAMES:
        valid = ", ".join(("adaptive",) + SCHEME_NAMES)
        print(f"error: unknown FEC {args.fec!r}; valid: {valid}", file=sys.stderr)
        return 2

    with _recording(args) as run:
        session = TransportSession(
            snr_db=args.snr,
            fault_profile=profile,
            seed=args.seed,
            fec=args.fec,
            window=args.window,
            rto_s=args.rto,
            max_attempts=args.max_retries,
        )
        t0 = time.perf_counter()
        result = session.send(message)
        elapsed = time.perf_counter() - t0

        acks_ok = sum(1 for ack in result.acks if ack.ok)
        rows = [
            ("message", f"{len(message)} bytes"),
            ("fault profile", profile.describe()),
            ("snr", f"{args.snr:g} dB"),
            ("fec", args.fec),
            ("fragments", f"{result.frag_count} x {result.fragment_bits} bits"),
            ("transmissions", str(result.n_tx)),
            ("retransmits", str(result.retransmits)),
            ("fec switches", str(result.fec_switches)),
            (
                "schemes",
                ", ".join(
                    f"{name}:{count}"
                    for name, count in sorted(result.scheme_counts.items())
                ),
            ),
            ("acks", f"{acks_ok}/{len(result.acks)} delivered"),
            ("link time", f"{result.elapsed_s:.3f} s (simulated)"),
            ("goodput", f"{result.goodput_bps:.1f} bps"),
            (
                "delivered",
                "byte-exact" if result.byte_exact else
                ("delivered (mismatch!)" if result.delivered else "FAILED"),
            ),
        ]
        print_table(("field", "value"), rows, title="transport send")
        run.seed = args.seed
        run.experiments = [
            _status(
                "send",
                elapsed,
                None if result.byte_exact else "delivery failed",
            )
        ]

    return 0 if result.byte_exact else 1


def _cmd_simulate(args):
    from repro.experiments.common import print_table
    from repro.sim import load_manifest, run_campaign

    try:
        manifest = load_manifest(args.manifest) if args.manifest else {}
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2

    # Flags override manifest entries (a manifest is the durable record;
    # flags are for quick what-ifs on top of it).
    if args.seed is not None:
        manifest["seed"] = args.seed
    if args.duration is not None:
        manifest["duration_s"] = args.duration
    if args.fidelity:
        manifest["fidelity"] = args.fidelity
    topology = dict(manifest.get("topology") or {})
    if args.topology:
        topology["kind"] = args.topology
    if args.nodes is not None:
        topology["n_nodes"] = args.nodes
    if topology:
        manifest["topology"] = topology
    comm = dict(manifest.get("comm") or {})
    if args.scenario:
        comm["scenario"] = args.scenario
    if args.fec:
        comm["fec"] = args.fec
    if args.snr_margin is not None:
        comm["snr_margin_db"] = args.snr_margin
    if comm:
        manifest["comm"] = comm
    traffic = dict(manifest.get("traffic") or {})
    if args.interval is not None:
        traffic["interval_s"] = args.interval
    if args.max_retries is not None:
        traffic["max_retries"] = args.max_retries
    if traffic:
        manifest["traffic"] = traffic

    with _recording(args) as run:
        t0 = time.perf_counter()
        try:
            result = run_campaign(
                manifest, cache_dir=args.cache_dir, jobs=args.jobs
            )
        except (TypeError, ValueError) as error:
            print(f"error: {error}", file=sys.stderr)
            return 2
        elapsed = time.perf_counter() - t0

        summary = result.summary()
        latency = summary["latency"]
        rows = [
            ("fidelity", summary["fidelity"]),
            ("seed", str(summary["seed"])),
            ("nodes / domains", f"{summary['n_nodes']} / {summary['n_domains']}"),
            ("sim duration", f"{summary['duration_s']:g} s"),
            ("frames offered", str(summary["offered"])),
            ("delivered", str(summary["delivered"])),
            ("delivery ratio", f"{summary['delivery_ratio']:.4f}"),
            ("collided", str(summary["collided"])),
            ("lost", str(summary["lost"])),
            ("retries", str(summary["retries"])),
            ("csma defers", str(summary["csma_defers"])),
            ("skipped (node down)", str(summary["skipped_down"])),
            ("channel utilization", f"{summary['utilization']:.4f}"),
            (
                "interferer duty",
                f"{summary['interference']['duty']:.3f} x "
                f"{summary['interference']['n_interferers']} "
                f"({summary['interference']['mean_active']:.3f} mean active)",
            ),
            (
                "latency",
                f"{latency['mean_ms']:.2f} ms mean, "
                f"{latency['p50_ms']:.2f}/{latency['p95_ms']:.2f} p50/p95",
            ),
            ("events", str(summary["events_processed"])),
            (
                "wall clock",
                f"{elapsed:.2f} s "
                f"({summary['offered'] / max(elapsed, 1e-9):.0f} frames/s)",
            ),
        ]
        print_table(
            ("field", "value"),
            rows,
            title=f"fleet campaign: {summary['name']}",
        )

        if args.summary_out:
            with open(args.summary_out, "w", encoding="utf-8") as fh:
                fh.write(result.summary_json() + "\n")
            print(f"summary written to {args.summary_out}", file=sys.stderr)
        run.seed = summary["seed"]
        run.experiments = [_status(f"simulate:{summary['name']}", elapsed)]
    return 0


def _gateway_engine_kwargs(args):
    """Per-tenant StreamEngine kwargs shared by serve and loadgen."""
    engine = {
        "wifi_channel": args.wifi_channel,
        "demux": args.demux,
    }
    if args.decimation != 1:
        engine["decimation"] = args.decimation
    if args.float32:
        engine["working_dtype"] = "complex64"
    return engine


def _cmd_serve(args):
    import asyncio

    from repro.gateway.core import GatewayCore
    from repro.gateway.server import GatewayServer

    with _recording(args, serving=True) as run:
        try:
            core = GatewayCore(
                engine=_gateway_engine_kwargs(args),
                max_tenants=args.max_tenants,
                ring_capacity=args.ring_capacity,
            )
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        server = GatewayServer(
            core,
            host=args.host,
            port=args.port,
            metrics_port=args.metrics_port,
            collector=run.collector,
        )

        def announce(started):
            # The readiness line CI and scripts wait for.
            message = f"gateway listening on {started.host}:{started.port}"
            if started.metrics_port is not None:
                message += (
                    f" (metrics http://{started.host}"
                    f":{started.metrics_port}/metrics)"
                )
            print(message, file=sys.stderr, flush=True)

        try:
            asyncio.run(server.run(on_started=announce))
        except KeyboardInterrupt:
            pass  # signal handler already drained; a very early ^C lands here
    print("gateway shut down cleanly", file=sys.stderr)
    return 0


def _cmd_loadgen(args):
    from repro.experiments.common import print_table
    from repro.gateway.loadgen import run_loadgen

    overrides = {}
    if args.config:
        import json

        try:
            with open(args.config, "r", encoding="utf-8") as handle:
                overrides = json.load(handle)
        except (OSError, json.JSONDecodeError) as exc:
            print(f"error: cannot read {args.config}: {exc}", file=sys.stderr)
            return 2
        if not isinstance(overrides, dict):
            print(
                f"error: {args.config} must hold a JSON object",
                file=sys.stderr,
            )
            return 2

    def setting(name, flag_value, default):
        # Priority: explicit CLI flag > config file > default.
        if flag_value is not None:
            return flag_value
        return overrides.get(name, default)

    engine = overrides.get("engine")
    if engine is None and (
        args.demux or args.decimation != 1 or args.float32
        or args.wifi_channel != 1
    ):
        engine = _gateway_engine_kwargs(args)

    client = None
    port = setting("port", args.port, None)
    if port is not None:
        from repro.gateway.protocol import GatewayClient

        try:
            client = GatewayClient(
                setting("host", args.host, "127.0.0.1"),
                port,
                connect_wait_s=args.connect_wait,
            )
        except OSError as exc:
            print(f"error: cannot connect to gateway: {exc}", file=sys.stderr)
            return 2
    try:
        report = run_loadgen(
            tenants=setting("tenants", args.tenants, 2),
            senders=setting("senders", args.senders, 2),
            seed=setting("seed", args.seed, 7),
            duration_s=setting("duration_s", args.duration, 0.03),
            block_size=setting("block_size", args.block_size, 16384),
            message_bytes=setting("message_bytes", args.message_bytes, 5),
            scheme=setting("scheme", args.scheme, "hamming"),
            channels=tuple(overrides.get("channels", (13,))),
            engine=engine,
            client=client,
        )
    finally:
        if client is not None:
            try:
                client.bye()
            except Exception:
                pass
            client.close()

    print_table(
        (
            "tenant", "expected", "delivered", "matched",
            "shed blocks", "byte exact",
        ),
        [
            (
                row["tenant"],
                str(row["expected"]),
                str(row["delivered"]),
                str(row["matched"]),
                str(row["shed_blocks"]),
                "yes" if row["byte_exact"] else "NO",
            )
            for row in report["tenants"]
        ],
        title=(
            "gateway load "
            f"({'wire' if client is not None else 'in-process'})"
        ),
    )
    print(
        f"offered {report['total_samples']} samples "
        f"({report['stream_seconds'] * 1000:.1f} ms of stream) in "
        f"{report['elapsed_s']:.3f} s — "
        f"{report['aggregate_x_realtime']:.2f}x realtime aggregate"
    )
    if not report["ok"]:
        print("error: delivery was not byte-exact", file=sys.stderr)
        return 1
    return 0


def _cmd_bench_trajectory(args):
    from repro.bench.trajectory import print_trajectory, trajectory_report

    if args.json:
        import json

        report = trajectory_report(args.root)
        print(json.dumps(report, indent=2, sort_keys=True))
        return 0 if report["artifacts"] else 1
    return print_trajectory(args.root)


def _cmd_survey(_args):
    import numpy as np

    from repro.channel.scenarios import SCENARIOS
    from repro.core import SymBeeLink
    from repro.experiments.common import measure_link, print_table, scaled

    rng = np.random.default_rng(31)
    rows = []
    for name, scenario in SCENARIOS.items():
        for distance in (5, 15, 25):
            link = SymBeeLink(
                link_channel=scenario.link(distance),
                interference=scenario.interference(),
            )
            stats = measure_link(
                link, rng, n_frames=scaled(15), bits_per_frame=64
            )
            rows.append(
                (
                    name,
                    f"{distance} m",
                    f"{stats.throughput_bps / 1000:.2f}",
                    f"{stats.ber:.3f}",
                    f"{stats.capture_rate:.2f}",
                    f"{stats.mean_snr_db:.1f}",
                )
            )
    print_table(
        ("site", "distance", "kbps", "BER", "capture", "SNR dB"),
        rows,
        title="SymBee site survey",
    )
    return 0


def _cmd_info(_args):
    from repro import __version__
    from repro.constants import (
        SYMBEE_BIT_DURATION,
        SYMBEE_RAW_BIT_RATE,
        SYMBEE_STABLE_WINDOW_20MHZ,
    )
    from repro.core.analytics import (
        packet_level_bandwidth_hz,
        shannon_gain_factor,
        speedup_versus,
    )
    from repro.obs.manifest import blas_threads

    print(f"repro {__version__} — SymBee (ICDCS 2018) reproduction")
    print(f"raw bit rate:          {SYMBEE_RAW_BIT_RATE / 1000:.2f} kbps")
    print(f"bit airtime:           {SYMBEE_BIT_DURATION * 1e6:.0f} us")
    print(f"stable window:         {SYMBEE_STABLE_WINDOW_20MHZ} phase values @ 20 Msps")
    print(f"packet-level bandwidth: {packet_level_bandwidth_hz():.1f} Hz")
    print(f"symbol-level gain:     {shannon_gain_factor():.0f}x")
    print(f"speedup vs C-Morse:    {speedup_versus(215.0):.1f}x")
    print(
        "metric namespaces:     "
        "link.* decoder.* preamble.* network.* stream.* transport.* "
        "sim.* gateway.*"
    )
    threads = blas_threads()
    print(f"blas threads:          {threads or 'unknown'}")
    return 0


def _add_record_flags(command, trace_help):
    """``--metrics-out`` and ``--trace``, recorded by :func:`_recording`."""
    command.add_argument(
        "--metrics-out", metavar="PATH", default=None,
        help="write a run manifest + metric/span JSONL streams to PATH",
    )
    command.add_argument(
        "--trace", action="store_true",
        help=trace_help,
    )


def _add_live_flags(command, interval_help):
    """The live telemetry sinks and their collector's tick interval."""
    command.add_argument(
        "--metrics-stream", metavar="PATH", default=None,
        help="append one live-sample JSON line per collector tick to "
             "PATH (replay with 'obs tail PATH')",
    )
    command.add_argument(
        "--prom-out", metavar="PATH", default=None,
        help="rewrite PATH as a Prometheus text exposition on every "
             "collector tick",
    )
    command.add_argument(
        "--live-interval", type=float, default=0.5, metavar="SECONDS",
        help=f"live collector tick interval; {interval_help}",
    )


def build_parser():
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="SymBee reproduction command line",
    )
    parser.add_argument(
        "-v", "--verbose", action="count", default=0,
        help="more diagnostics on stderr (-v info, -vv debug)",
    )
    parser.add_argument(
        "-q", "--quiet", action="count", default=0,
        help="errors only on stderr",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list reproducible experiments").set_defaults(
        func=_cmd_list
    )
    run = sub.add_parser("run", help="run one experiment (or 'all')")
    run.add_argument("experiment", help="experiment id from 'list', or 'all'")
    _add_record_flags(
        run,
        "record pipeline trace spans (into --metrics-out, or a "
        "span-total table when no output path is given)",
    )
    run.add_argument(
        "--profile", action="store_true",
        help="run the experiments under cProfile and print a hotspot "
             "table plus the pipeline span tree",
    )
    run.set_defaults(func=_cmd_run)
    listen = sub.add_parser(
        "listen",
        help="stream a synthesized multi-sender capture through the "
             "block-by-block receive engine",
    )
    listen.add_argument(
        "--senders", type=int, default=3,
        help="number of SymBee senders (default 3)",
    )
    listen.add_argument(
        "--duration", type=float, default=0.05, metavar="SECONDS",
        help="capture length in seconds (default 0.05)",
    )
    listen.add_argument(
        "--block-size", type=int, default=16384, metavar="SAMPLES",
        help="receive block size in samples (default 16384)",
    )
    listen.add_argument(
        "--wifi-channel", type=int, default=1,
        help="WiFi receive channel (default 1)",
    )
    listen.add_argument(
        "--seed", type=int, default=7,
        help="traffic/noise RNG seed (default 7)",
    )
    listen.add_argument(
        "--interval", type=float, default=0.01, metavar="SECONDS",
        help="mean per-sender reading interval (default 0.01)",
    )
    listen.add_argument(
        "--data-bits", type=int, default=16,
        help="payload bits per reading (default 16)",
    )
    listen.add_argument(
        "--distance", type=float, default=5.0, metavar="METERS",
        help="sender-receiver distance when a scenario is set (default 5)",
    )
    listen.add_argument(
        "--scenario", default=None,
        help="propagation scenario name (default: ideal channel)",
    )
    listen.add_argument(
        "--ring-capacity", type=int, default=64, metavar="BLOCKS",
        help="ring buffer capacity in blocks (default 64)",
    )
    listen.add_argument(
        "--wideband", action="store_true",
        help="single wideband session on ZigBee channel 13 instead of "
             "per-channel demux",
    )
    listen.add_argument(
        "--decimation", type=int, default=None, metavar="D",
        help="channelizer decimation factor (demux only; D must divide "
             "the product lag and bit period: 1, 2, 4 or 8 at 20 Msps — "
             "the vote window floors at D=8 — default 1, no decimation)",
    )
    listen.add_argument(
        "--float32", action="store_true",
        help="complex64 working dtype (default complex128)",
    )
    listen.add_argument(
        "--profile", action="store_true",
        help="run the decode under cProfile and print a hotspot table "
             "plus the pipeline span tree",
    )
    _add_record_flags(
        listen, "record per-block trace spans (into --metrics-out)"
    )
    listen.add_argument(
        "--live", action="store_true",
        help="print a live telemetry dashboard line per collector tick "
             "on stderr (throughput, realtime margin, frame/CRC/ring "
             "health)",
    )
    _add_live_flags(listen, "0 ticks every block (default 0.5)")
    listen.set_defaults(func=_cmd_listen)

    def add_engine_flags(command):
        # Per-tenant engine shape shared by serve and loadgen.  The
        # gateway default is one wideband session per tenant; --demux
        # gives each tenant the multi-channel channelizer path.
        command.add_argument(
            "--demux", action="store_true",
            help="per-channel demux engine per tenant (default: one "
                 "wideband session per tenant)",
        )
        command.add_argument(
            "--wifi-channel", type=int, default=1,
            help="WiFi receive channel (default 1)",
        )
        command.add_argument(
            "--decimation", type=int, default=1, metavar="D",
            help="channelizer decimation factor (demux only; default 1)",
        )
        command.add_argument(
            "--float32", action="store_true",
            help="complex64 working dtype (default complex128)",
        )

    serve = sub.add_parser(
        "serve",
        help="run the multi-tenant stream-serving gateway (length-"
             "prefixed tenant protocol + /metrics; SIGINT/SIGTERM "
             "drains gracefully)",
    )
    serve.add_argument(
        "--host", default="127.0.0.1",
        help="bind address (default 127.0.0.1)",
    )
    serve.add_argument(
        "--port", type=int, default=7713,
        help="tenant protocol port; 0 picks a free port (default 7713)",
    )
    serve.add_argument(
        "--metrics-port", type=int, default=None, metavar="PORT",
        help="also serve GET /metrics (Prometheus text) on PORT "
             "(0 picks a free port; default: no metrics listener)",
    )
    serve.add_argument(
        "--max-tenants", type=int, default=8, metavar="N",
        help="admission limit on concurrent tenant streams (default 8)",
    )
    serve.add_argument(
        "--ring-capacity", type=int, default=64, metavar="BLOCKS",
        help="per-tenant ring capacity in blocks; a full ring sheds "
             "with an explicit overrun code (default 64)",
    )
    add_engine_flags(serve)
    _add_live_flags(serve, "must be positive (default 0.5)")
    serve.set_defaults(func=_cmd_serve)

    loadgen = sub.add_parser(
        "loadgen",
        help="deterministic gateway load harness: N tenants x M "
             "scripted senders, byte-exact delivery verification",
    )
    loadgen.add_argument(
        "--config", metavar="PATH", default=None,
        help="JSON config with loadgen settings (CLI flags override; "
             "see examples/gateway_loadgen.json)",
    )
    loadgen.add_argument(
        "--tenants", type=int, default=None,
        help="concurrent tenant streams (default 2)",
    )
    loadgen.add_argument(
        "--senders", type=int, default=None,
        help="scripted SymBee senders per tenant (default 2)",
    )
    loadgen.add_argument(
        "--seed", type=int, default=None,
        help="workload RNG seed (default 7)",
    )
    loadgen.add_argument(
        "--duration", type=float, default=None, metavar="SECONDS",
        help="per-tenant capture length (default 0.03)",
    )
    loadgen.add_argument(
        "--block-size", type=int, default=None, metavar="SAMPLES",
        help="submitted block size in samples (default 16384)",
    )
    loadgen.add_argument(
        "--message-bytes", type=int, default=None, metavar="BYTES",
        help="message size each sender fragments (default 5)",
    )
    loadgen.add_argument(
        "--scheme", choices=("none", "hamming", "conv"), default=None,
        help="transport FEC scheme for the scripted fragments "
             "(default hamming)",
    )
    loadgen.add_argument(
        "--host", default=None,
        help="gateway host for wire mode (default 127.0.0.1)",
    )
    loadgen.add_argument(
        "--port", type=int, default=None,
        help="gateway port: set to drive a running 'serve' over the "
             "wire (default: in-process gateway core)",
    )
    loadgen.add_argument(
        "--connect-wait", type=float, default=10.0, metavar="SECONDS",
        help="retry the first connection for up to this long — lets CI "
             "start 'serve' in the background (default 10)",
    )
    add_engine_flags(loadgen)
    loadgen.set_defaults(func=_cmd_loadgen)

    obs = sub.add_parser("obs", help="inspect recorded telemetry")
    obs_sub = obs.add_subparsers(dest="obs_command", required=True)
    summary = obs_sub.add_parser(
        "summary", help="pretty-print a run manifest JSONL"
    )
    summary.add_argument(
        "path",
        help="JSONL file from 'run --metrics-out' or a live time series "
             "from 'listen --metrics-stream'",
    )
    summary.set_defaults(func=_cmd_obs)
    tail = obs_sub.add_parser(
        "tail",
        help="replay a live telemetry time series as dashboard lines",
    )
    tail.add_argument(
        "path", help="JSONL file from 'listen --metrics-stream'"
    )
    tail.add_argument(
        "--once", action="store_true",
        help="print only the most recent sample",
    )
    tail.add_argument(
        "--follow", action="store_true",
        help="keep reading appended samples until the final record "
             "(or Ctrl-C)",
    )
    tail.set_defaults(func=_cmd_obs_tail)
    send = sub.add_parser(
        "send",
        help="deliver one message reliably over a faulted SymBee link "
             "(segmentation + selective-repeat ARQ + FEC adaptation)",
    )
    send.add_argument(
        "--message", default=None,
        help="message text to deliver (default: 32 seeded random bytes)",
    )
    send.add_argument(
        "--size", type=int, default=None, metavar="BYTES",
        help="send BYTES seeded random bytes instead of --message",
    )
    send.add_argument(
        "--snr", type=float, default=3.0,
        help="base link SNR in dB before fault dynamics (default 3)",
    )
    send.add_argument(
        "--fault-profile", default="none",
        help="channel dynamics: none, burst, interference, snr-ramp, "
             "ack-blackout (default none)",
    )
    send.add_argument(
        "--fec", default="adaptive",
        help="adaptive, none, hamming or conv (default adaptive)",
    )
    send.add_argument(
        "--seed", type=int, default=0,
        help="session RNG seed (default 0)",
    )
    send.add_argument(
        "--window", type=int, default=8,
        help="selective-repeat send window (default 8)",
    )
    send.add_argument(
        "--max-retries", type=int, default=12, metavar="N",
        help="transmission attempts per fragment before giving up "
             "(default 12)",
    )
    send.add_argument(
        "--rto", type=float, default=0.35, metavar="SECONDS",
        help="retransmit timeout (default 0.35)",
    )
    _add_record_flags(
        send, "record transport trace spans (into --metrics-out)"
    )
    send.set_defaults(func=_cmd_send)
    simulate = sub.add_parser(
        "simulate", help="fleet-scale discrete-event network campaign"
    )
    simulate.add_argument(
        "manifest", nargs="?", default=None, metavar="MANIFEST",
        help="scenario manifest (JSON); flags below override its entries",
    )
    simulate.add_argument(
        "--nodes", type=int, default=None,
        help="sensor count (grid/random topologies)",
    )
    simulate.add_argument(
        "--duration", type=float, default=None, metavar="S",
        help="simulated seconds of traffic generation",
    )
    simulate.add_argument(
        "--topology", choices=("grid", "random", "cluster"), default=None,
        help="node placement model",
    )
    simulate.add_argument(
        "--fidelity", choices=("packet", "sample"), default=None,
        help="packet = calibrated fast path, sample = full PHY per frame",
    )
    simulate.add_argument("--seed", type=int, default=None)
    simulate.add_argument(
        "--scenario", default=None,
        help="channel scenario name (see 'survey')",
    )
    simulate.add_argument(
        "--fec", choices=("none", "hamming", "conv"), default=None,
        help="link-layer FEC scheme",
    )
    simulate.add_argument(
        "--snr-margin", type=float, default=None, metavar="DB",
        help="link SNR at 1 m reference distance (positions the fleet "
             "on the delivery curve)",
    )
    simulate.add_argument(
        "--interval", type=float, default=None, metavar="S",
        help="mean per-node reading interval (Poisson)",
    )
    simulate.add_argument(
        "--max-retries", type=int, default=None,
        help="MAC retries per frame",
    )
    simulate.add_argument(
        "--summary-out", metavar="PATH", default=None,
        help="write the deterministic campaign summary JSON to PATH",
    )
    simulate.add_argument(
        "--cache-dir", metavar="DIR", default=None,
        help="delivery-table cache directory (default ~/.cache/repro/sim)",
    )
    simulate.add_argument(
        "--jobs", type=int, default=None,
        help="worker processes for table calibration",
    )
    _add_record_flags(simulate, "record sim trace spans (into --metrics-out)")
    simulate.set_defaults(func=_cmd_simulate)

    bench = sub.add_parser("bench", help="benchmark artifact tooling")
    bench_sub = bench.add_subparsers(dest="bench_command", required=True)
    trajectory = bench_sub.add_parser(
        "trajectory",
        help="aggregate every BENCH_*.json into one cross-PR report",
    )
    trajectory.add_argument(
        "--root", default=".", metavar="DIR",
        help="directory holding the artifacts (default: cwd)",
    )
    trajectory.add_argument(
        "--json", action="store_true",
        help="emit the report as a machine-readable JSON document "
             "instead of tables",
    )
    trajectory.set_defaults(func=_cmd_bench_trajectory)
    sub.add_parser("survey", help="scenario site survey").set_defaults(
        func=_cmd_survey
    )
    sub.add_parser("info", help="key constants and rates").set_defaults(
        func=_cmd_info
    )
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    from repro.obs import configure_logging

    configure_logging(args.verbose - args.quiet)
    try:
        return args.func(args)
    except _UsageError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
