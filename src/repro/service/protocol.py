"""Wire format of the classification service: newline-delimited JSON frames.

Every message — in both directions — is one JSON object on one line
(``\\n``-terminated, UTF-8).  The authoritative prose spec with transcripts
lives in ``docs/service_protocol.md``; this module is its executable form.

Requests carry a client-chosen ``id``, an operation name, and parameters::

    {"id": 1, "op": "classify", "params": {"problem": "1 : 2 2\\n2 : 1 1"}}

Responses echo the ``id`` and carry a ``type``:

* ``hello``  — sent once per connection before any request, no ``id``,
* ``item``   — one streamed result of a batch/census, with a ``seq`` counter,
* ``done``   — terminates a stream, carrying the request summary,
* ``result`` — the single response of a non-streaming operation,
* ``error``  — terminal failure, carrying ``{"code", "message"}``.

The frame helpers below build well-formed frames; :func:`decode_request`
validates an incoming line into a :class:`Request` and raises
:class:`ProtocolError` (which carries a machine-readable error ``code``)
on anything malformed, so the server can answer with a structured error
frame instead of dying or emitting a traceback.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, Mapping, Tuple

PROTOCOL_VERSION = 3
"""Version of the JSON-lines protocol, announced in the ``hello`` frame.

Version 3 adds deadline-aware priority scheduling and cancellation:

* ``classify``, ``classify_batch``, ``census`` and ``warm`` accept optional
  ``params.priority`` (``"interactive"``/``"batch"``/``"warm"``) and
  ``params.deadline_ms`` (per-problem budget covering canonicalization
  and search) fields;
* a new ``cancel`` operation addresses an *in-flight* request by its id
  (from another connection) and detaches its outstanding searches;
* item frames (and single ``classify`` results) carry an ``outcome`` field:
  ``"ok"``, or ``"timeout"``/``"cancelled"`` with ``complexity: null`` when
  the search was interrupted — a *timeout item frame*; streaming summaries
  gain ``timeouts``/``cancelled`` counts.

Version-2 clients remain wire-compatible: requests without the new fields
behave exactly as protocol 2 (the extra ``outcome: "ok"`` item field and
summary counters are additive).  Version 2 added ``warm``, the ``workers``
stats section, and lock-free concurrent execution semantics.

Still within version 3 (additive frames, no bump needed): the
observability operations ``metrics`` (a ``repro.metrics/1`` snapshot plus
its Prometheus text rendering) and ``trace`` (the finished ``repro.trace/1``
span tree of ``params.request_id``, when the server's ring still holds it),
and a ``trace`` section in the ``stats`` result.  Clients that never send
the new ops see byte-identical behavior.
"""

SERVICE_NAME = "repro-classifier"

OPERATIONS: Tuple[str, ...] = (
    "classify",
    "classify_batch",
    "census",
    "warm",
    "cancel",
    "stats",
    "metrics",
    "trace",
    "shutdown",
)
"""Operations a server must implement, announced in the ``hello`` frame."""

# Machine-readable error codes (the ``code`` field of error objects).
ERROR_PARSE = "parse-error"  # request line is not valid JSON
ERROR_BAD_REQUEST = "bad-request"  # JSON but not a well-formed request
ERROR_UNKNOWN_OP = "unknown-op"  # op not in OPERATIONS
ERROR_BAD_PROBLEM = "bad-problem"  # problem spec failed to parse/validate
ERROR_INTERNAL = "internal"  # unexpected server-side failure


class ProtocolError(ValueError):
    """A malformed request or frame, with a machine-readable error code."""

    def __init__(self, code: str, message: str) -> None:
        super().__init__(message)
        self.code = code
        self.message = message


@dataclass(frozen=True)
class Request:
    """A validated request: client-chosen id, operation, parameters."""

    id: Any
    op: str
    params: Dict[str, Any] = field(default_factory=dict)

    def to_frame(self) -> Dict[str, Any]:
        """The request as a JSON-friendly frame dictionary."""
        return {"id": self.id, "op": self.op, "params": self.params}


# ----------------------------------------------------------------------
# Encoding / decoding
# ----------------------------------------------------------------------
def encode_frame(frame: Mapping[str, Any]) -> str:
    """Serialize one frame to its wire form: compact JSON plus a newline."""
    return json.dumps(frame, separators=(",", ":"), sort_keys=True) + "\n"


def decode_frame(line: str) -> Dict[str, Any]:
    """Parse one wire line into a frame dictionary.

    Raises :class:`ProtocolError` (code ``parse-error``) when the line is not
    a JSON object.
    """
    try:
        frame = json.loads(line)
    except json.JSONDecodeError as error:
        raise ProtocolError(ERROR_PARSE, f"invalid JSON: {error}") from error
    if not isinstance(frame, dict):
        raise ProtocolError(ERROR_PARSE, "frame must be a JSON object")
    return frame


def decode_request(line: str) -> Request:
    """Parse and validate one request line.

    Raises :class:`ProtocolError` with code ``parse-error`` (not JSON),
    ``bad-request`` (missing/ill-typed fields) or ``unknown-op``.
    """
    frame = decode_frame(line)
    if "op" not in frame:
        raise ProtocolError(ERROR_BAD_REQUEST, "request is missing 'op'")
    op = frame["op"]
    if not isinstance(op, str):
        raise ProtocolError(ERROR_BAD_REQUEST, "'op' must be a string")
    if op not in OPERATIONS:
        raise ProtocolError(
            ERROR_UNKNOWN_OP, f"unknown op {op!r} (known: {', '.join(OPERATIONS)})"
        )
    params = frame.get("params", {})
    if not isinstance(params, dict):
        raise ProtocolError(ERROR_BAD_REQUEST, "'params' must be an object")
    request_id = frame.get("id")
    if not isinstance(request_id, (str, int, type(None))):
        raise ProtocolError(ERROR_BAD_REQUEST, "'id' must be a string or integer")
    return Request(id=request_id, op=op, params=params)


# ----------------------------------------------------------------------
# Frame builders (server → client)
# ----------------------------------------------------------------------
def hello_frame() -> Dict[str, Any]:
    """The greeting sent once per connection, before any request."""
    return {
        "type": "hello",
        "service": SERVICE_NAME,
        "protocol": PROTOCOL_VERSION,
        "ops": list(OPERATIONS),
    }


def item_frame(request_id: Any, seq: int, data: Mapping[str, Any]) -> Dict[str, Any]:
    """One streamed result; ``seq`` counts items of the request from 0."""
    return {"id": request_id, "type": "item", "seq": seq, "data": dict(data)}


def done_frame(request_id: Any, data: Mapping[str, Any]) -> Dict[str, Any]:
    """Terminates a stream, carrying the request summary (counts, stats)."""
    return {"id": request_id, "type": "done", "data": dict(data)}


def result_frame(request_id: Any, data: Mapping[str, Any]) -> Dict[str, Any]:
    """The single response of a non-streaming operation."""
    return {"id": request_id, "type": "result", "data": dict(data)}


def error_frame(request_id: Any, error: Any) -> Dict[str, Any]:
    """A terminal error response for one request.

    ``error`` is anything with a ``code`` and a ``message``: a
    :class:`ProtocolError`, or the :class:`~repro.api.errors.SessionError`
    a request handler raised (its codes are the wire's codes).
    """
    return {
        "id": request_id,
        "type": "error",
        "error": {"code": error.code, "message": error.message},
    }


def is_terminal_frame(frame: Mapping[str, Any]) -> bool:
    """True when ``frame`` ends its request (``done``/``result``/``error``)."""
    return frame.get("type") in ("done", "result", "error")

