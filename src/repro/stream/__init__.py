"""repro.stream — continuous streaming idle-listening receive engine.

Turns the repo's batch SymBee pipeline into a continuously listening
receiver: an unbounded 20/40 Msps sample stream is consumed in
fixed-size blocks and decoded frames come out, with no dependence on
where the blocks were cut.  See ``docs/streaming.md`` for the
architecture and the block-size-invariance argument.
"""

from repro.stream.engine import StreamEngine, batch_decode_stream
from repro.stream.frontend import (
    ChannelizerFrontEnd,
    FastChannelBank,
    FrontEndBlock,
    StreamingFrontEnd,
    design_lowpass,
)
from repro.stream.ring import RingBufferSource
from repro.stream.session import StreamFrame, StreamSession

__all__ = [
    "ChannelizerFrontEnd",
    "FastChannelBank",
    "FrontEndBlock",
    "RingBufferSource",
    "StreamEngine",
    "StreamFrame",
    "StreamSession",
    "StreamingFrontEnd",
    "batch_decode_stream",
    "design_lowpass",
]
