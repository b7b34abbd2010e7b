"""Asyncio gateway server: tenant sockets, /metrics, graceful shutdown.

:class:`GatewayServer` wraps one :class:`repro.gateway.core.GatewayCore`
behind two listeners:

* the **tenant port** speaks the length-prefixed protocol of
  :mod:`repro.gateway.protocol` — many concurrent client connections,
  each request dispatched inline on the event loop (core calls are
  synchronous, so every request is atomic; no locks needed);
* the optional **metrics port** answers ``GET /metrics`` with the
  process registry rendered by
  :func:`repro.obs.export.render_prometheus` — the same exposition the
  file sink writes, scrape-able while streams are live.

A background pump task keeps tenant rings moving between requests and
ticks an optional :class:`repro.obs.live.LiveCollector`.

Graceful shutdown (SIGINT/SIGTERM via :meth:`run`, or
:meth:`shutdown`): stop accepting connections, finish every active
tenant — draining rings and flushing channelizer state — then finalize
the collector.  A gateway killed politely exits 0 with nothing leaked.

A connection that closes -- ``bye``, EOF, a reset or a dropped frame --
finishes every tenant it admitted that is still active, so a vanished
client cannot hold a slot or a tenant id.

Error contract per connection: a :class:`~repro.gateway.errors.GatewayError`
maps to an ``error`` response (connection stays open — refusals are part
of normal service); a :class:`~repro.gateway.protocol.ProtocolError`
gets a ``bad-request`` error and the connection dropped (framing is
gone); anything else answers ``internal`` and drops.
"""

import asyncio
import contextlib
import logging
import signal

from repro.gateway.errors import (
    ERR_BAD_REQUEST,
    ERR_INTERNAL,
    ERR_OVERRUN,
    GatewayError,
)
from repro.gateway.protocol import (
    ProtocolError,
    decode_block,
    message_to_wire,
    read_message,
    write_message,
)
from repro.obs.export import render_prometheus
from repro.obs.metrics import REGISTRY

_LOG = logging.getLogger("repro.gateway")

_CONNECTIONS = REGISTRY.counter("gateway.connections")
_REQUESTS = REGISTRY.counter("gateway.requests")
_SCRAPES = REGISTRY.counter("gateway.metrics_scrapes")

#: Seconds between background pump passes while the server idles.
_PUMP_INTERVAL_S = 0.005


class GatewayServer:
    """Serve one :class:`~repro.gateway.core.GatewayCore` over asyncio."""

    def __init__(
        self, core, host="127.0.0.1", port=7713, metrics_port=None, collector=None
    ):
        self.core = core
        self.host = host
        self.port = int(port)
        self.metrics_port = None if metrics_port is None else int(metrics_port)
        self.collector = collector
        self._server = None
        self._metrics_server = None
        self._pump_task = None
        self._stop_event = None
        self._shut_down = False

    # -- lifecycle -----------------------------------------------------------

    async def start(self):
        """Bind both listeners and start the pump task."""
        self._stop_event = asyncio.Event()
        self._server = await asyncio.start_server(
            self._handle_client, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        if self.metrics_port is not None:
            self._metrics_server = await asyncio.start_server(
                self._handle_metrics, self.host, self.metrics_port
            )
            self.metrics_port = (
                self._metrics_server.sockets[0].getsockname()[1]
            )
        if self.collector is not None:
            self.collector.start()
        self._pump_task = asyncio.create_task(self._pump_loop())
        _LOG.info(
            "gateway listening on %s:%d (metrics: %s)",
            self.host,
            self.port,
            self.metrics_port,
        )

    async def shutdown(self):
        """Drain and tear down; idempotent, never raises on double call."""
        if self._shut_down:
            return
        self._shut_down = True
        self._stop_event.set()
        for server in (self._server, self._metrics_server):
            if server is not None:
                server.close()
                await server.wait_closed()
        if self._pump_task is not None:
            self._pump_task.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await self._pump_task
        # Finish every live tenant: rings drained, channelizers flushed.
        # Undelivered messages are counted, not silently dropped.
        undelivered = self.core.drain()
        dropped = sum(len(r["messages"]) for r in undelivered.values())
        if dropped:
            _LOG.warning(
                "shutdown drained %d undelivered message(s) from %d tenant(s)",
                dropped,
                len(undelivered),
            )
        if self.collector is not None:
            self.collector.finalize()
        _LOG.info("gateway shut down cleanly")

    async def run(self, install_signal_handlers=True, on_started=None):
        """Start, serve until SIGINT/SIGTERM (or :meth:`shutdown`), drain."""
        await self.start()
        if on_started is not None:
            on_started(self)
        loop = asyncio.get_running_loop()
        if install_signal_handlers:
            for signum in (signal.SIGINT, signal.SIGTERM):
                try:
                    loop.add_signal_handler(signum, self._stop_event.set)
                except (NotImplementedError, RuntimeError):
                    pass  # platform without signal support in loops
        try:
            await self._stop_event.wait()
        finally:
            await self.shutdown()

    async def _pump_loop(self):
        while not self._stop_event.is_set():
            self.core.pump()
            if self.collector is not None:
                self.collector.maybe_tick()
            await asyncio.sleep(_PUMP_INTERVAL_S)

    # -- tenant protocol -----------------------------------------------------

    async def _handle_client(self, reader, writer):
        _CONNECTIONS.inc()
        try:
            while True:
                try:
                    message = await read_message(reader)
                except ProtocolError as exc:
                    await write_message(
                        writer,
                        {
                            "type": "error",
                            "code": ERR_BAD_REQUEST,
                            "message": str(exc),
                        },
                    )
                    return
                if message is None:
                    return
                header, payload = message
                _REQUESTS.inc()
                try:
                    response = self._dispatch(header, payload, owner=writer)
                except ProtocolError as exc:
                    await write_message(
                        writer,
                        {
                            "type": "error",
                            "code": ERR_BAD_REQUEST,
                            "message": str(exc),
                        },
                    )
                    return
                except GatewayError as exc:
                    await write_message(
                        writer,
                        {
                            "type": "error",
                            "code": exc.code,
                            "message": exc.message,
                        },
                    )
                    continue
                except Exception:
                    _LOG.exception("request failed")
                    await write_message(
                        writer,
                        {
                            "type": "error",
                            "code": ERR_INTERNAL,
                            "message": "internal gateway error",
                        },
                    )
                    return
                await write_message(writer, response)
                if response.get("type") == "goodbye":
                    return
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            writer.close()
            with contextlib.suppress(Exception):
                await writer.wait_closed()
            # A client gone without finish must not hold its tenants'
            # slots and ids forever.
            abandoned = self.core.abandon(writer)
            if abandoned:
                _LOG.info(
                    "connection closed with %d unfinished tenant(s); "
                    "finished them, dropping %d undelivered message(s)",
                    len(abandoned),
                    sum(len(r["messages"]) for r in abandoned.values()),
                )

    def _dispatch(self, header, payload, owner=None):
        rtype = header.get("type")
        if rtype == "hello":
            tenant = self._tenant_of(header)
            engine = header.get("engine")
            if engine is not None and not isinstance(engine, dict):
                raise ProtocolError("engine must be a JSON object")
            info = self.core.admit(tenant, engine, owner=owner)
            return {"type": "welcome", **info}
        if rtype == "samples":
            block = decode_block(header, payload)
            accepted = self.core.submit(self._tenant_of(header), block)
            response = {"type": "accepted", "accepted": bool(accepted)}
            if not accepted:
                response["code"] = ERR_OVERRUN
            return response
        if rtype == "poll":
            messages = self.core.poll(self._tenant_of(header))
            return {
                "type": "deliveries",
                "messages": [message_to_wire(m) for m in messages],
            }
        if rtype == "finish":
            result = self.core.finish_tenant(self._tenant_of(header))
            return {
                "type": "finished",
                "messages": [message_to_wire(m) for m in result["messages"]],
                "stats": result["stats"],
            }
        if rtype == "stats":
            stats = (
                self.core.tenant_stats(self._tenant_of(header))
                if header.get("tenant") is not None
                else self.core.stats()
            )
            return {"type": "stats", "stats": stats}
        if rtype == "bye":
            return {"type": "goodbye"}
        raise ProtocolError(f"unknown request type {rtype!r}")

    @staticmethod
    def _tenant_of(header):
        tenant = header.get("tenant")
        if not isinstance(tenant, str) or not tenant:
            raise ProtocolError("request needs a non-empty string tenant")
        return tenant

    # -- metrics endpoint ----------------------------------------------------

    async def _handle_metrics(self, reader, writer):
        """Minimal HTTP/1.0 responder for ``GET /metrics``."""
        try:
            request_line = await reader.readline()
            while True:
                line = await reader.readline()
                if line in (b"\r\n", b"\n", b""):
                    break
            parts = request_line.decode("latin-1", "replace").split()
            path = parts[1] if len(parts) > 1 else ""
            if len(parts) < 2 or parts[0] != "GET" or path not in (
                "/metrics",
                "/metrics/",
            ):
                body = b"not found\n"
                status = "404 Not Found"
                content_type = "text/plain"
            else:
                _SCRAPES.inc()
                body = render_prometheus(REGISTRY.snapshot()).encode("utf-8")
                status = "200 OK"
                content_type = "text/plain; version=0.0.4"
            writer.write(
                (
                    f"HTTP/1.0 {status}\r\n"
                    f"Content-Type: {content_type}\r\n"
                    f"Content-Length: {len(body)}\r\n"
                    "Connection: close\r\n\r\n"
                ).encode("latin-1")
            )
            writer.write(body)
            await writer.drain()
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            writer.close()
            with contextlib.suppress(Exception):
                await writer.wait_closed()


__all__ = ["GatewayServer"]
