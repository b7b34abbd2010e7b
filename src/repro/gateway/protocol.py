"""Length-prefixed request/response wire protocol for the gateway.

Framing: ``!II`` big-endian ``(header_len, payload_len)`` followed by a
UTF-8 JSON header and an opaque payload.  The JSON carries control
fields (request ``type``, tenant id, dtype, error codes); bulk sample
data rides the payload raw (little-endian numpy complex64/complex128
bytes), so a 256k-sample block costs 2 MiB on the wire, not a JSON
number per sample.  Both lengths are bounded (1 MiB header, 64 MiB
payload) — an oversized frame is a ``bad-request``, never an unbounded
allocation.

Request types (client → gateway):

========  ==========================================  =================
type      header fields                               payload
========  ==========================================  =================
hello     ``tenant``, optional ``engine`` kwargs      —
samples   ``tenant``, ``dtype``, ``count``            raw sample bytes
poll      ``tenant``                                  —
finish    ``tenant``                                  —
stats     optional ``tenant``                         —
bye       —                                           —
========  ==========================================  =================

Responses: ``welcome``, ``accepted`` (``accepted`` bool + ``code``
``"overrun"`` when the tenant's ring shed the block), ``deliveries``,
``finished``, ``stats``, ``goodbye``, and ``error`` with a
machine-readable ``code`` from :mod:`repro.gateway.errors`.  Message
payload bytes are hex-encoded in delivery headers (``data_hex``) so the
response stays one JSON document.

The module holds both ends of the wire, and neither copies a sample
block in user space:

* the server's :class:`FrameSocket` reads one connection's frames off
  a non-blocking socket with ``loop.sock_recv_into``.  One recv into a
  small head buffer (:data:`HEAD_BUFFER_BYTES`) picks up the prefix,
  the header and the start of the payload; the prefix bounds are
  checked before anything is allocated; the rest of the payload is
  received straight into a buffer of its own, allocated per frame with
  ``np.empty`` so its pages commit only as bytes arrive (an announced
  but unsent 64 MiB payload costs nothing) and never reused, because
  :func:`decode_block`'s array is a view of it.  Bytes past the current
  frame stay in the head buffer, so pipelined requests are answered in
  order.  Replies go out with one direct ``send``, awaiting
  ``loop.sock_sendall`` only for a remainder;
* the blocking :class:`GatewayClient` (stdlib ``socket``, for the load
  generator, benchmarks and CI smoke) sends a ``samples`` request as one
  ``sendmsg`` scatter list -- prefix and header, then the sample
  array's own memory -- and reads each reply with ``recv_into`` into a
  reusable buffer.

Both ends set ``TCP_NODELAY``: every exchange is one small request or
reply waiting on the other side, which Nagle's algorithm would delay.
"""

import asyncio
import json
import socket
import struct
import time

import numpy as np

from repro.gateway.errors import ERR_BAD_REQUEST, GatewayError

#: Wire frame prefix: header length, payload length.
_PREFIX = struct.Struct("!II")
MAX_HEADER_BYTES = 1 << 20
MAX_PAYLOAD_BYTES = 1 << 26
#: Server head buffer: one ``recv`` picks up a frame's prefix, a typical
#: header and the start of its payload, or several small pipelined
#: requests (kept for the next read).
HEAD_BUFFER_BYTES = 4096

#: Sample dtypes a gateway accepts — the streaming engine's two
#: canonical working precisions.
SAMPLE_DTYPES = ("complex64", "complex128")
#: Their names by native dtype (``dtype.name`` costs microseconds).
_DTYPE_NAMES = {np.dtype(name): name for name in SAMPLE_DTYPES}
#: ``json.dumps(..., separators=(",", ":"))`` without building an
#: encoder per frame.
_HEADER_ENCODER = json.JSONEncoder(separators=(",", ":"))


class ProtocolError(ValueError):
    """A malformed wire frame (maps to the ``bad-request`` code)."""


def _pack_head(header, payload_len):
    """Prefix and JSON header of a frame carrying ``payload_len`` bytes."""
    header_bytes = _HEADER_ENCODER.encode(header).encode("utf-8")
    if len(header_bytes) > MAX_HEADER_BYTES:
        raise ProtocolError("header too large")
    if payload_len > MAX_PAYLOAD_BYTES:
        raise ProtocolError("payload too large")
    return _PREFIX.pack(len(header_bytes), payload_len) + header_bytes


def pack_message(header, payload=b""):
    """Serialize one ``(header dict, payload bytes)`` wire frame."""
    return _pack_head(header, len(payload)) + bytes(payload)


def _parse_prefix(buffer, offset=0):
    header_len, payload_len = _PREFIX.unpack_from(buffer, offset)
    if header_len > MAX_HEADER_BYTES:
        raise ProtocolError(f"header length {header_len} exceeds bound")
    if payload_len > MAX_PAYLOAD_BYTES:
        raise ProtocolError(f"payload length {payload_len} exceeds bound")
    return header_len, payload_len


def _parse_header(header_bytes):
    """A frame's header (any bytes-like object) as a dict."""
    try:
        header = json.loads(str(header_bytes, "utf-8"))
    except (ValueError, RecursionError) as exc:
        # ValueError covers bad UTF-8, bad JSON and over-long integers;
        # RecursionError covers pathologically deep nesting.
        raise ProtocolError(f"bad header JSON: {exc}") from exc
    if not isinstance(header, dict):
        raise ProtocolError("header must be a JSON object")
    return header


# -- sample blocks -----------------------------------------------------------


def _block_fields(samples):
    """Sample array → ``(contiguous array, header fields)``."""
    samples = np.ascontiguousarray(samples)
    dtype = _DTYPE_NAMES.get(samples.dtype) or samples.dtype.name
    if dtype not in SAMPLE_DTYPES:
        raise ProtocolError(f"unsupported sample dtype {dtype!r}")
    return samples, {"dtype": dtype, "count": int(samples.size)}


def encode_block(samples):
    """Sample array → ``(header fields, payload bytes)``."""
    samples, fields = _block_fields(samples)
    return fields, samples.tobytes()


def decode_block(header, payload):
    """``samples`` request → read-only sample array (``bad-request`` safe)."""
    dtype = header.get("dtype")
    if dtype not in SAMPLE_DTYPES:
        raise ProtocolError(f"unsupported sample dtype {dtype!r}")
    count = header.get("count")
    np_dtype = np.dtype(dtype)
    if not isinstance(count, int) or isinstance(count, bool) or count < 0:
        raise ProtocolError("count must be a non-negative integer")
    if count * np_dtype.itemsize != len(payload):
        raise ProtocolError(
            f"payload is {len(payload)} bytes; "
            f"{count} x {dtype} needs {count * np_dtype.itemsize}"
        )
    block = np.frombuffer(payload, dtype=np_dtype, count=count)
    block.flags.writeable = False
    return block


def message_to_wire(message):
    """Delivery dict (raw bytes) → JSON-safe dict (``data_hex``)."""
    wire = {k: v for k, v in message.items() if k != "data"}
    wire["data_hex"] = message["data"].hex()
    return wire


def message_from_wire(wire):
    """Inverse of :func:`message_to_wire`."""
    message = {k: v for k, v in wire.items() if k != "data_hex"}
    message["data"] = bytes.fromhex(wire["data_hex"])
    return message


# -- server side -------------------------------------------------------------


class FrameSocket:
    """One server connection: frames in, replies out, on a non-blocking socket.

    Create it inside the event loop that serves the connection.  A frame
    is read through the head buffer, then received straight into buffers
    allocated for that frame alone (see the module docstring).
    """

    def __init__(self, sock):
        self._sock = sock
        self._loop = asyncio.get_running_loop()
        self._view = memoryview(bytearray(HEAD_BUFFER_BYTES))
        #: Buffered bytes not yet consumed: ``self._view[start:end]``.
        self._start = 0
        self._end = 0

    async def read(self):
        """Next frame as ``(header dict, payload memoryview)``.

        ``None`` on a clean EOF between frames; :class:`ProtocolError`
        on an out-of-bounds prefix (before anything is allocated), a bad
        header, or EOF mid-frame.
        """
        if not await self._fill(_PREFIX.size):
            if self._start == self._end:
                return None
            raise ProtocolError("connection closed mid-frame")
        header_len, payload_len = _parse_prefix(self._view, self._start)
        self._start += _PREFIX.size
        header = await self._take(header_len)
        payload = await self._take(payload_len)
        return _parse_header(header), payload

    async def send(self, header):
        """Send one reply frame (replies carry no payload)."""
        frame = _pack_head(header, 0)
        try:
            sent = self._sock.send(frame)
        except (BlockingIOError, InterruptedError):
            sent = 0
        if sent < len(frame):
            await self._loop.sock_sendall(self._sock, memoryview(frame)[sent:])

    async def _fill(self, n):
        """Hold at least ``n`` bytes in the head buffer; False on EOF."""
        while self._end - self._start < n:
            kept = self._end - self._start
            if self._start:
                self._view[:kept] = bytes(self._view[self._start : self._end])
                self._start, self._end = 0, kept
            got = await self._loop.sock_recv_into(
                self._sock, self._view[self._end :]
            )
            if not got:
                return False
            self._end += got
        return True

    async def _take(self, n):
        """The next ``n`` bytes, in a buffer of their own.

        What the head buffer holds is copied in; the rest is received
        straight into the buffer.  ``np.empty``, unlike a zero-filled
        ``bytearray``, commits pages only as bytes land in them.
        """
        dest = memoryview(np.empty(n, dtype=np.uint8))
        have = min(n, self._end - self._start)
        dest[:have] = self._view[self._start : self._start + have]
        self._start += have
        while have < n:
            got = await self._loop.sock_recv_into(self._sock, dest[have:])
            if not got:
                raise ProtocolError("connection closed mid-frame")
            have += got
        return dest


# -- blocking client ---------------------------------------------------------


class GatewayClient:
    """Blocking gateway client for harnesses, smoke tests and scripts.

    ``connect_wait_s`` retries the initial connection — the CI smoke
    starts ``serve`` in the background and polls until it listens.
    An ``error`` response raises :class:`~repro.gateway.errors.GatewayError`
    with the server's code; every other response returns as a dict.
    """

    def __init__(self, host, port, timeout_s=30.0, connect_wait_s=0.0):
        self._sock = None
        deadline = time.monotonic() + float(connect_wait_s)
        while True:
            try:
                self._sock = socket.create_connection(
                    (host, int(port)), timeout=float(timeout_s)
                )
                break
            except OSError:
                if time.monotonic() >= deadline:
                    raise
                time.sleep(0.1)
        self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        #: Reply buffer, reused across requests: ``self._reply[:self._held]``
        #: holds received bytes not yet consumed.
        self._reply = bytearray(HEAD_BUFFER_BYTES)
        self._held = 0

    def request(self, header, payload=b""):
        self._send(_pack_head(header, len(payload)), payload)
        return self._response()

    def _send(self, *parts):
        """``sendmsg`` the parts as one scatter list, resuming partial sends."""
        views = [memoryview(part) for part in parts]
        while views:
            sent = self._sock.sendmsg(views)
            while views and sent >= views[0].nbytes:
                sent -= views[0].nbytes
                views.pop(0)
            if views:
                views[0] = views[0][sent:]

    def _response(self):
        """Read one reply frame; bytes past it stay held for the next."""
        self._recv_at_least(_PREFIX.size)
        header_len, payload_len = _parse_prefix(self._reply)
        size = _PREFIX.size + header_len + payload_len
        if size > len(self._reply):
            self._reply = self._reply[: self._held] + bytearray(
                size - self._held
            )
        self._recv_at_least(size)
        # Responses carry no payload; a stray one is skipped.
        response = _parse_header(
            self._reply[_PREFIX.size : _PREFIX.size + header_len]
        )
        self._held -= size
        if self._held:
            self._reply[: self._held] = self._reply[size : size + self._held]
        if response.get("type") == "error":
            raise GatewayError(
                response.get("code", ERR_BAD_REQUEST),
                response.get("message", "gateway error"),
            )
        return response

    def _recv_at_least(self, n):
        while self._held < n:
            with memoryview(self._reply) as view:
                got = self._sock.recv_into(view[self._held :])
            if not got:
                raise ProtocolError("connection closed mid-frame")
            self._held += got

    def hello(self, tenant, engine=None):
        header = {"type": "hello", "tenant": tenant}
        if engine:
            header["engine"] = dict(engine)
        return self.request(header)

    def send_samples(self, tenant, samples):
        """One ``samples`` request, sent from the array's own memory."""
        samples, fields = _block_fields(samples)
        header = {"type": "samples", "tenant": tenant, **fields}
        self._send(
            _pack_head(header, samples.nbytes),
            samples.reshape(-1).view(np.uint8),
        )
        return self._response()

    def poll(self, tenant):
        response = self.request({"type": "poll", "tenant": tenant})
        return [message_from_wire(m) for m in response.get("messages", [])]

    def finish(self, tenant):
        response = self.request({"type": "finish", "tenant": tenant})
        messages = [message_from_wire(m) for m in response.get("messages", [])]
        return messages, response.get("stats")

    def stats(self, tenant=None):
        header = {"type": "stats"}
        if tenant is not None:
            header["tenant"] = tenant
        return self.request(header).get("stats")

    def bye(self):
        return self.request({"type": "bye"})

    def close(self):
        if self._sock is not None:
            try:
                self._sock.close()
            finally:
                self._sock = None

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()
        return False


__all__ = [
    "MAX_HEADER_BYTES",
    "MAX_PAYLOAD_BYTES",
    "SAMPLE_DTYPES",
    "HEAD_BUFFER_BYTES",
    "FrameSocket",
    "ProtocolError",
    "GatewayClient",
    "pack_message",
    "encode_block",
    "decode_block",
    "message_to_wire",
    "message_from_wire",
]
