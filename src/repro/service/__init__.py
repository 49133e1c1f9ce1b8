"""Long-running classification service: JSON-lines protocol over stdio/TCP.

The :mod:`repro.engine` batch classifier made duplicate-heavy workloads cheap
*within* one process; this package makes the amortization span processes and
machines.  A single :class:`ClassificationService` hosts one
:class:`~repro.api.session.LocalDriver` — the engine behind ``local://``
sessions, with one persistent, LRU-bounded
:class:`~repro.engine.cache.ClassificationCache` — and only translates the
wire's frames into calls on it, so a remote request answers and fails
exactly like a local one.  It serves any number of sequential or concurrent
clients, streaming per-item results as the exponential certificate searches
finish instead of blocking until a whole batch is done.  The searches
execute through the single-flight scheduler of :mod:`repro.workers`:
independent problems from concurrent connections classify in parallel on
the configured worker backend (no process-wide lock), concurrent requests
for the same uncached canonical key share exactly one search, and the
``warm`` operation pre-populates the cache with an upcoming workload's
canonical keys.

Layout:

* :mod:`repro.service.protocol` — the wire format: newline-delimited JSON
  request/response envelopes, streaming ``item``/``done`` frames, and
  structured error objects (authoritative spec in ``docs/service_protocol.md``),
* :mod:`repro.service.server` — :class:`ClassificationService`, the asyncio
  wire codec over a local driver, speaking the protocol over stdio
  (``serve --stdio``) and TCP (``serve --host/--port``), plus
  :class:`ThreadedService` for embedding a live TCP service inside tests and
  benchmarks,
* :mod:`repro.service.client` — :class:`ServiceClient`, a synchronous client
  that connects over TCP or spawns a private stdio server subprocess, used by
  the ``python -m repro client`` subcommand.
"""

from .client import ServiceClient, ServiceError
from .protocol import (
    PROTOCOL_VERSION,
    ProtocolError,
    Request,
    decode_frame,
    decode_request,
    done_frame,
    encode_frame,
    error_frame,
    hello_frame,
    item_frame,
    result_frame,
)
from .server import ClassificationService, ThreadedService

__all__ = [
    "PROTOCOL_VERSION",
    "ClassificationService",
    "ProtocolError",
    "Request",
    "ServiceClient",
    "ServiceError",
    "ThreadedService",
    "decode_frame",
    "decode_request",
    "done_frame",
    "encode_frame",
    "error_frame",
    "hello_frame",
    "item_frame",
    "result_frame",
]
