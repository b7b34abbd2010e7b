"""Async multi-tenant stream-serving gateway.

The serving layer over :mod:`repro.stream`: a long-running process that
admits N concurrent tenant sample streams, decodes each through its
private :class:`~repro.stream.engine.StreamEngine` session, and serves back
*reassembled transport messages* (not raw frames) over a
length-prefixed request/response protocol, with ``gateway.*`` metrics
scrapeable at ``/metrics``.

Layers, bottom up:

* :mod:`repro.gateway.tenant` — one tenant's engine + reassembler, the
  unit of tenancy;
* :mod:`repro.gateway.core` — admission control, one held block per
  tenant, pumping, delivery queues (transport-agnostic);
* :mod:`repro.gateway.protocol` — the wire format + blocking client;
* :mod:`repro.gateway.server` — asyncio listeners, ``/metrics``,
  signal-driven graceful drain;
* :mod:`repro.gateway.loadgen` — the deterministic N×M load harness
  with byte-exact delivery verification.

Entry points: ``python -m repro serve`` and ``python -m repro loadgen``;
see ``docs/gateway.md``.
"""

from repro.gateway.core import GatewayCore
from repro.gateway.errors import GatewayError
from repro.gateway.loadgen import run_loadgen
from repro.gateway.protocol import GatewayClient, ProtocolError
from repro.gateway.server import GatewayServer
from repro.gateway.tenant import TenantConsumer

__all__ = [
    "GatewayCore",
    "GatewayError",
    "GatewayServer",
    "GatewayClient",
    "ProtocolError",
    "TenantConsumer",
    "run_loadgen",
]
