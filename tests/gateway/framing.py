"""Drive the server's frame reader over a real socket pair."""

import asyncio
import contextlib
import socket

from repro.gateway.protocol import FrameSocket


def read_frames(data, chunk=None, frames=1):
    """Feed ``data`` through a socket pair, then EOF; read ``frames`` frames.

    The writer sends ``chunk``-byte pieces (the whole input at once when
    ``None``) while a :class:`FrameSocket` reads the other end, so a
    frame can arrive split anywhere.  Returns the list of what each
    :meth:`FrameSocket.read` returned; a :class:`ProtocolError` escapes.
    """

    async def run():
        reader_sock, writer_sock = socket.socketpair()
        with reader_sock, writer_sock:
            reader_sock.setblocking(False)
            writer_sock.setblocking(False)
            loop = asyncio.get_running_loop()

            async def feed():
                step = chunk or max(len(data), 1)
                for lo in range(0, len(data), step):
                    await loop.sock_sendall(writer_sock, data[lo : lo + step])
                writer_sock.shutdown(socket.SHUT_WR)

            feeder = asyncio.create_task(feed())
            try:
                conn = FrameSocket(reader_sock)
                return [await conn.read() for _ in range(frames)]
            finally:
                feeder.cancel()
                with contextlib.suppress(asyncio.CancelledError):
                    await feeder

    return asyncio.run(run())


def read_frame(data, chunk=None):
    """The one frame (or ``None``) :func:`read_frames` reads off ``data``."""
    (result,) = read_frames(data, chunk)
    return result
