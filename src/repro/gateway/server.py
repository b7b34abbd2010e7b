"""Asyncio gateway server: tenant sockets, /metrics, graceful shutdown.

:class:`GatewayServer` wraps one :class:`repro.gateway.core.GatewayCore`
behind two listeners:

* the **tenant port** speaks the length-prefixed protocol of
  :mod:`repro.gateway.protocol` — many concurrent client connections,
  each request dispatched inline on the event loop (core calls are
  synchronous, so every request is atomic; no locks needed).  The
  listener is a plain non-blocking socket accepted with
  ``loop.sock_accept``; each connection (``TCP_NODELAY`` set) is one
  coroutine over a :class:`~repro.gateway.protocol.FrameSocket`, which
  receives every payload straight into a buffer of its own (committed
  as bytes arrive, never copied again: the tenant's block is a view of
  it) and answers pipelined requests in order;
* the optional **metrics port** answers ``GET /metrics`` with the
  process registry rendered by
  :func:`repro.obs.export.render_prometheus` — the same exposition the
  file sink writes, scrape-able while streams are live.

Decoding runs behind the replies.  A ``samples`` request is answered
as soon as the tenant holds the block; the connection then runs
:meth:`GatewayCore.pump` before it reads its next frame.  That lets
the client send its next block during the decode, but on a 2-CPU host
the two do not overlap: the client preempts ``serve`` about once per
request and they run in turn (``docs/gateway.md`` has the scheduler
counts), so the decode time lands on the request round trip.  A
tenant holds at most one undecoded block whichever connections feed
it.  Every request is read after the blocks before it were decoded, so
a ``poll`` sees them.
An optional :class:`repro.obs.live.LiveCollector` ticks from its own
background thread.

Graceful shutdown (SIGINT/SIGTERM via :meth:`run`, or
:meth:`shutdown`): stop accepting connections, finish every active
tenant — decoding its held block and flushing channelizer state — then
close the connections still open and finalize the collector.  A gateway
killed politely exits 0 with nothing leaked.

A connection that closes -- ``bye``, EOF, a reset or a dropped frame --
finishes every tenant it admitted that is still active, so a vanished
client cannot hold a slot or a tenant id.

Error contract per connection: a :class:`~repro.gateway.errors.GatewayError`
maps to an ``error`` response (connection stays open — refusals are part
of normal service); a :class:`~repro.gateway.protocol.ProtocolError`
gets a ``bad-request`` error and the connection dropped (framing is
gone); anything else answers ``internal`` and drops.  A tenant whose
decoder raises is the core's to contain: it is finished as failed and
later requests naming it are refused with ``decode-failed``.
"""

import asyncio
import contextlib
import logging
import signal
import socket

from repro.gateway.errors import (
    ERR_BAD_REQUEST,
    ERR_INTERNAL,
    GatewayError,
)
from repro.gateway.protocol import (
    FrameSocket,
    ProtocolError,
    decode_block,
    message_to_wire,
)
from repro.obs.export import render_prometheus
from repro.obs.metrics import REGISTRY

_LOG = logging.getLogger("repro.gateway")

_CONNECTIONS = REGISTRY.counter("gateway.connections")
_REQUESTS = REGISTRY.counter("gateway.requests")
_SCRAPES = REGISTRY.counter("gateway.metrics_scrapes")

#: Seconds the accept loop backs off after a failed ``accept`` (for
#: instance out of file descriptors), as asyncio's own servers do.
_ACCEPT_RETRY_S = 1.0


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
        self._listener = None
        self._accept_task = None
        #: Live connection tasks (the loop holds tasks only weakly).
        self._connections = set()
        self._metrics_server = None
        self._stop_event = None
        self._shut_down = False

    # -- lifecycle -----------------------------------------------------------

    async def start(self):
        """Bind both listeners and start the live collector."""
        self._stop_event = asyncio.Event()
        # Resolved before anything is served, so blocking costs no one.
        family = socket.getaddrinfo(
            self.host, self.port, type=socket.SOCK_STREAM
        )[0][0]
        self._listener = socket.create_server(
            (self.host, self.port), family=family
        )
        self._listener.setblocking(False)
        self.port = self._listener.getsockname()[1]
        self._accept_task = asyncio.create_task(self._accept_loop())
        if self.metrics_port is not None:
            self._metrics_server = await asyncio.start_server(
                self._handle_metrics, self.host, self.metrics_port
            )
            self.metrics_port = (
                self._metrics_server.sockets[0].getsockname()[1]
            )
        if self.collector is not None:
            self.collector.start()
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
        if self._accept_task is not None:
            self._accept_task.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await self._accept_task
        if self._listener is not None:
            self._listener.close()
        if self._metrics_server is not None:
            self._metrics_server.close()
            await self._metrics_server.wait_closed()
        # Finish every live tenant: held blocks decoded, channelizers
        # flushed.
        # Undelivered messages are counted, not silently dropped.
        undelivered = self.core.drain()
        dropped = sum(len(r["messages"]) for r in undelivered.values())
        if dropped:
            _LOG.warning(
                "shutdown drained %d undelivered message(s) from %d tenant(s)",
                dropped,
                len(undelivered),
            )
        # Connections still open close last, their tenants finished.
        connections = list(self._connections)
        for task in connections:
            task.cancel()
        await asyncio.gather(*connections, return_exceptions=True)
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

    # -- tenant protocol -----------------------------------------------------

    async def _accept_loop(self):
        loop = asyncio.get_running_loop()
        while True:
            try:
                sock, _address = await loop.sock_accept(self._listener)
            except OSError:
                _LOG.exception("accept failed")
                await asyncio.sleep(_ACCEPT_RETRY_S)
                continue
            sock.setblocking(False)
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            task = asyncio.create_task(self._handle_client(sock))
            self._connections.add(task)
            task.add_done_callback(self._connections.discard)

    async def _handle_client(self, sock):
        _CONNECTIONS.inc()
        conn = FrameSocket(sock)
        try:
            while True:
                try:
                    message = await conn.read()
                except ProtocolError as exc:
                    await conn.send(
                        {
                            "type": "error",
                            "code": ERR_BAD_REQUEST,
                            "message": str(exc),
                        }
                    )
                    return
                if message is None:
                    return
                header, payload = message
                _REQUESTS.inc()
                try:
                    response = self._dispatch(header, payload, owner=conn)
                except ProtocolError as exc:
                    await conn.send(
                        {
                            "type": "error",
                            "code": ERR_BAD_REQUEST,
                            "message": str(exc),
                        }
                    )
                    return
                except GatewayError as exc:
                    await conn.send(
                        {
                            "type": "error",
                            "code": exc.code,
                            "message": exc.message,
                        }
                    )
                    continue
                except Exception:
                    _LOG.exception("request failed")
                    await conn.send(
                        {
                            "type": "error",
                            "code": ERR_INTERNAL,
                            "message": "internal gateway error",
                        }
                    )
                    return
                await conn.send(response)
                if response["type"] == "goodbye":
                    return
                if response["type"] == "accepted":
                    # Decode behind the reply: the client's next block
                    # lands in the socket buffer meanwhile.
                    self.core.pump()
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            sock.close()
            # A client gone without finish must not hold its tenants'
            # slots and ids forever.
            abandoned = self.core.abandon(conn)
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
            self.core.submit(self._tenant_of(header), block)
            return {"type": "accepted"}
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
