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

The module is transport-symmetric: asyncio helpers for the server, a
blocking :class:`GatewayClient` (stdlib ``socket``) for the load
generator and CI smoke.
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

#: Sample dtypes a gateway accepts — the streaming engine's two
#: canonical working precisions.
SAMPLE_DTYPES = ("complex64", "complex128")


class ProtocolError(ValueError):
    """A malformed wire frame (maps to the ``bad-request`` code)."""


def pack_message(header, payload=b""):
    """Serialize one ``(header dict, payload bytes)`` wire frame."""
    header_bytes = json.dumps(header, separators=(",", ":")).encode("utf-8")
    if len(header_bytes) > MAX_HEADER_BYTES:
        raise ProtocolError("header too large")
    if len(payload) > MAX_PAYLOAD_BYTES:
        raise ProtocolError("payload too large")
    return _PREFIX.pack(len(header_bytes), len(payload)) + header_bytes + bytes(payload)


def _parse_prefix(prefix):
    header_len, payload_len = _PREFIX.unpack(prefix)
    if header_len > MAX_HEADER_BYTES:
        raise ProtocolError(f"header length {header_len} exceeds bound")
    if payload_len > MAX_PAYLOAD_BYTES:
        raise ProtocolError(f"payload length {payload_len} exceeds bound")
    return header_len, payload_len


def _parse_header(header_bytes):
    try:
        header = json.loads(header_bytes.decode("utf-8"))
    except (ValueError, RecursionError) as exc:
        # ValueError covers bad UTF-8, bad JSON and over-long integers;
        # RecursionError covers pathologically deep nesting.
        raise ProtocolError(f"bad header JSON: {exc}") from exc
    if not isinstance(header, dict):
        raise ProtocolError("header must be a JSON object")
    return header


# -- sample blocks -----------------------------------------------------------


def encode_block(samples):
    """Sample array → ``(header fields, payload bytes)``."""
    samples = np.ascontiguousarray(samples)
    dtype = samples.dtype.name
    if dtype not in SAMPLE_DTYPES:
        raise ProtocolError(f"unsupported sample dtype {dtype!r}")
    return {"dtype": dtype, "count": int(samples.size)}, samples.tobytes()


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


# -- asyncio side ------------------------------------------------------------


async def read_message(reader):
    """Read one frame; ``None`` on clean EOF, :class:`ProtocolError` on junk."""
    try:
        prefix = await reader.readexactly(_PREFIX.size)
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None
        raise ProtocolError("connection closed mid-frame") from exc
    header_len, payload_len = _parse_prefix(prefix)
    try:
        header_bytes = await reader.readexactly(header_len)
        payload = await reader.readexactly(payload_len)
    except asyncio.IncompleteReadError as exc:
        raise ProtocolError("connection closed mid-frame") from exc
    return _parse_header(header_bytes), payload


async def write_message(writer, header, payload=b""):
    writer.write(pack_message(header, payload))
    await writer.drain()


# -- blocking client ---------------------------------------------------------


def _recv_exactly(sock, n):
    chunks = []
    remaining = n
    while remaining:
        chunk = sock.recv(min(remaining, 1 << 20))
        if not chunk:
            raise ProtocolError("connection closed mid-frame")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


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

    def request(self, header, payload=b""):
        self._sock.sendall(pack_message(header, payload))
        prefix = _recv_exactly(self._sock, _PREFIX.size)
        header_len, payload_len = _parse_prefix(prefix)
        response = _parse_header(_recv_exactly(self._sock, header_len))
        _recv_exactly(self._sock, payload_len)  # responses carry no payload
        if response.get("type") == "error":
            raise GatewayError(
                response.get("code", ERR_BAD_REQUEST),
                response.get("message", "gateway error"),
            )
        return response

    def hello(self, tenant, engine=None):
        header = {"type": "hello", "tenant": tenant}
        if engine:
            header["engine"] = dict(engine)
        return self.request(header)

    def send_samples(self, tenant, samples):
        fields, payload = encode_block(samples)
        header = {"type": "samples", "tenant": tenant, **fields}
        return self.request(header, payload)

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
    "ProtocolError",
    "GatewayClient",
    "pack_message",
    "encode_block",
    "decode_block",
    "message_to_wire",
    "message_from_wire",
    "read_message",
    "write_message",
]
