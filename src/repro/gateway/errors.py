"""Gateway error codes: every rejection is explicit and machine-readable.

The admission-control contract is that the gateway never queues without
bound — anything it cannot take *right now* is refused with one of these
codes, both in-process (:class:`GatewayError`) and on the wire (the
``error`` responses of :mod:`repro.gateway.protocol`).
"""

#: Admission refused: the configured tenant cap is reached.
ERR_TENANT_LIMIT = "tenant-limit"
#: Admission refused: a tenant with this id is already registered.
ERR_DUPLICATE_TENANT = "duplicate-tenant"
#: Request names a tenant the gateway has never admitted.
ERR_UNKNOWN_TENANT = "unknown-tenant"
#: Samples offered to a tenant whose stream is already finished.
ERR_STREAM_ENDED = "stream-ended"
#: The request was malformed (bad frame, bad JSON, missing field,
#: oversized payload, unknown request type...).
ERR_BAD_REQUEST = "bad-request"
#: The gateway is draining for shutdown and admits no new work.
ERR_SHUTTING_DOWN = "shutting-down"
#: The gateway hit an internal failure serving the request.
ERR_INTERNAL = "internal"
#: The tenant's decoder raised: its stream was finished as failed and
#: its id released; every request naming it is refused until re-admitted.
ERR_DECODE_FAILED = "decode-failed"


class GatewayError(Exception):
    """A gateway refusal with a machine-readable ``code``."""

    def __init__(self, code, message):
        super().__init__(message)
        self.code = code
        self.message = message


__all__ = [
    "ERR_TENANT_LIMIT",
    "ERR_DUPLICATE_TENANT",
    "ERR_UNKNOWN_TENANT",
    "ERR_STREAM_ENDED",
    "ERR_BAD_REQUEST",
    "ERR_SHUTTING_DOWN",
    "ERR_INTERNAL",
    "ERR_DECODE_FAILED",
    "GatewayError",
]
