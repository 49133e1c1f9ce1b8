"""Synchronous client for the classification service.

:class:`ServiceClient` speaks the JSON-lines protocol of
:mod:`repro.service.protocol` over either transport:

* :meth:`ServiceClient.connect_tcp` — connect to a running
  ``python -m repro serve --host ... --port ...`` (with optional connect
  retries, so supervised services can be raced safely), or
* :meth:`ServiceClient.spawn_stdio` — spawn a private
  ``python -m repro serve stdio:`` subprocess and talk over its pipes,
  which gives scripts a self-contained service whose cache file still
  persists across spawns.

The high-level methods (:meth:`classify`, :meth:`classify_batch`,
:meth:`census`, :meth:`stats`, :meth:`shutdown`) hide the framing: streamed
``item`` frames are surfaced through an optional ``on_item`` callback as they
arrive — this is the client edge of the server's streaming design — and the
terminal ``done``/``result`` payload is returned.  ``error`` frames raise
:class:`ServiceError` carrying the server's machine-readable error code.
"""

from __future__ import annotations

import itertools
import os
import socket
import subprocess
import sys
import time
from typing import Any, Callable, Dict, IO, Iterator, List, Optional, Sequence

from .protocol import (
    Request,
    decode_frame,
    encode_frame,
    is_terminal_frame,
    problem_params,
)


class ServiceError(RuntimeError):
    """An ``error`` frame from the service, or a broken connection."""

    def __init__(self, code: str, message: str) -> None:
        super().__init__(f"{code}: {message}")
        self.code = code
        self.message = message


class ServiceClient:
    """A synchronous JSON-lines client over a pair of text streams.

    .. deprecated:: 1.2
        Constructing a ``ServiceClient`` directly is the *legacy* remote
        front door.  New code should open a
        :class:`repro.api.ClassificationSession` on a ``tcp://host:port`` or
        ``stdio:`` endpoint, which wraps this client behind the same typed
        surface as local execution.  The raw client remains supported as the
        session's wire layer (and for protocol-level tests).
    """

    def __init__(
        self,
        read_stream: IO[str],
        write_stream: IO[str],
        *,
        process: Optional[subprocess.Popen] = None,
        sock: Optional[socket.socket] = None,
    ) -> None:
        self._read = read_stream
        self._write = write_stream
        self._process = process
        self._socket = sock
        self._ids = itertools.count(1)
        self.server_info = self._read_hello()

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def connect_tcp(
        cls,
        host: str,
        port: int,
        retries: int = 0,
        retry_delay: float = 0.25,
    ) -> "ServiceClient":
        """Connect to a TCP service, retrying ``retries`` times on refusal."""
        attempt = 0
        while True:
            try:
                sock = socket.create_connection((host, port))
                break
            except OSError:
                attempt += 1
                if attempt > retries:
                    raise
                time.sleep(retry_delay)
        read_stream = sock.makefile("r", encoding="utf-8", newline="\n")
        write_stream = sock.makefile("w", encoding="utf-8", newline="\n")
        return cls(read_stream, write_stream, sock=sock)

    @classmethod
    def spawn_stdio(
        cls, endpoint: str = "stdio:", *, python: str = sys.executable
    ) -> "ServiceClient":
        """Spawn ``python -m repro serve ENDPOINT`` and connect to its pipes.

        ``endpoint`` is a ``stdio:`` URL; its query parameters configure the
        service's cache exactly as for ``repro serve``
        (``stdio:?cache=sqlite:c.db&cache_ttl=60``).  The subprocess inherits
        the environment with ``PYTHONPATH`` extended so the *current*
        ``repro`` package is importable even when it has not been installed
        (the repo's ``src`` layout).
        """
        argv: List[str] = [python, "-m", "repro", "serve", endpoint]
        package_root = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
        env = dict(os.environ)
        existing = env.get("PYTHONPATH")
        env["PYTHONPATH"] = (
            package_root if not existing else f"{package_root}{os.pathsep}{existing}"
        )
        process = subprocess.Popen(
            argv,
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
            bufsize=1,
            env=env,
        )
        assert process.stdout is not None and process.stdin is not None
        return cls(process.stdout, process.stdin, process=process)

    # ------------------------------------------------------------------
    # Framing
    # ------------------------------------------------------------------
    def _read_hello(self) -> Dict[str, Any]:
        frame = self._read_frame()
        if frame.get("type") != "hello":
            raise ServiceError(
                "bad-hello", f"expected a hello frame, got {frame.get('type')!r}"
            )
        return frame

    def _read_frame(self) -> Dict[str, Any]:
        line = self._read.readline()
        if not line:
            raise ServiceError("connection-closed", "service closed the connection")
        return decode_frame(line)

    def reserve_request_id(self) -> int:
        """Mint the id the *next* request sent with it will carry.

        Lets a caller learn a submission's wire id *before* sending it, so
        the id can be handed to another connection's ``cancel``/``trace`` —
        the mechanism behind remote ``PendingOutcome.cancel()``.
        """
        return next(self._ids)

    def _send_request(
        self,
        op: str,
        params: Optional[Dict[str, Any]] = None,
        request_id: Optional[Any] = None,
    ) -> Any:
        request = Request(
            id=request_id if request_id is not None else next(self._ids),
            op=op,
            params=params or {},
        )
        self._write.write(encode_frame(request.to_frame()))
        self._write.flush()
        return request.id

    def frames(self, request_id: Any) -> Iterator[Dict[str, Any]]:
        """Yield this request's frames, ending with its terminal frame."""
        while True:
            frame = self._read_frame()
            if frame.get("id") != request_id:
                continue  # stale frame of an abandoned request
            yield frame
            if is_terminal_frame(frame):
                return

    def request(
        self,
        op: str,
        params: Optional[Dict[str, Any]] = None,
        on_item: Optional[Callable[[Dict[str, Any]], None]] = None,
        request_id: Optional[Any] = None,
    ) -> Dict[str, Any]:
        """Send one request; stream items to ``on_item``; return the terminal data.

        ``request_id`` pins the wire id (normally auto-assigned) — pass a
        value from :meth:`reserve_request_id` when another connection needs
        to address this request.  Raises :class:`ServiceError` when the
        service answers with an error frame.
        """
        request_id = self._send_request(op, params, request_id=request_id)
        for frame in self.frames(request_id):
            kind = frame.get("type")
            if kind == "item":
                if on_item is not None:
                    on_item(frame["data"])
            elif kind in ("done", "result"):
                return frame.get("data", {})
            elif kind == "error":
                error = frame.get("error", {})
                raise ServiceError(
                    error.get("code", "unknown"), error.get("message", "")
                )
        raise ServiceError("connection-closed", "stream ended without a terminal frame")

    def stream(
        self, op: str, params: Optional[Dict[str, Any]] = None
    ) -> Iterator[Dict[str, Any]]:
        """Send one request; *yield* each streamed item payload as it arrives.

        The generator edge of :meth:`request`, used by the session facade to
        expose batches and censuses as iterators.  The terminal ``done``/
        ``result`` data is kept on :attr:`last_summary` once the generator is
        exhausted; ``error`` frames raise :class:`ServiceError`.  Abandoning
        the generator mid-stream is safe — leftover frames of this request
        are skipped by the next request's frame loop.
        """
        self.last_summary: Optional[Dict[str, Any]] = None
        request_id = self._send_request(op, params)
        for frame in self.frames(request_id):
            kind = frame.get("type")
            if kind == "item":
                yield frame["data"]
            elif kind in ("done", "result"):
                self.last_summary = frame.get("data", {})
                return
            elif kind == "error":
                error = frame.get("error", {})
                raise ServiceError(
                    error.get("code", "unknown"), error.get("message", "")
                )
        raise ServiceError("connection-closed", "stream ended without a terminal frame")

    @staticmethod
    def _scheduling_params(
        params: Dict[str, Any],
        priority: Optional[str],
        deadline_ms: Optional[float],
    ) -> Dict[str, Any]:
        """Attach the protocol-v3 scheduling fields when given (else v2 wire)."""
        if priority is not None:
            params["priority"] = priority
        if deadline_ms is not None:
            params["deadline_ms"] = deadline_ms
        return params

    # ------------------------------------------------------------------
    # Operations
    # ------------------------------------------------------------------
    def classify(
        self,
        problem: Any,
        priority: Optional[str] = None,
        deadline_ms: Optional[float] = None,
        request_id: Optional[Any] = None,
    ) -> Dict[str, Any]:
        """Classify one problem (text or serialized dict); return its payload.

        ``priority`` (``interactive``/``batch``/``warm``; the server defaults
        a bare classify to ``interactive``) and ``deadline_ms`` bound how the
        search is scheduled; a blown deadline returns a payload with
        ``outcome: "timeout"`` and ``complexity: null``.  ``request_id`` pins
        the wire id so another connection can ``cancel``/``trace`` this call.
        """
        params = self._scheduling_params(
            problem_params(problem), priority, deadline_ms
        )
        return self.request("classify", params, request_id=request_id)

    def classify_batch(
        self,
        problems: Sequence[Any],
        on_item: Optional[Callable[[Dict[str, Any]], None]] = None,
        priority: Optional[str] = None,
        deadline_ms: Optional[float] = None,
    ) -> Dict[str, Any]:
        """Classify a batch, streaming per-item payloads to ``on_item``.

        Returns the ``done`` summary (count, cache hits/misses, ``hit_rate``,
        ``timeouts``/``cancelled``, lifetime engine stats).  When ``on_item``
        is omitted the collected items are attached to the summary under
        ``"items"``.  ``deadline_ms`` is a per-problem budget covering
        canonicalization and search.
        """
        collected: List[Dict[str, Any]] = []
        callback = on_item if on_item is not None else collected.append
        specs = [problem_params(problem)["problem"] for problem in problems]
        params = self._scheduling_params(
            {"problems": specs}, priority, deadline_ms
        )
        summary = self.request("classify_batch", params, callback)
        if on_item is None:
            summary["items"] = collected
        return summary

    def census(
        self,
        labels: int = 2,
        delta: int = 2,
        density: float = 0.5,
        count: int = 100,
        seed: int = 0,
        on_item: Optional[Callable[[Dict[str, Any]], None]] = None,
        priority: Optional[str] = None,
        deadline_ms: Optional[float] = None,
    ) -> Dict[str, Any]:
        """Run a server-side random census; return the tally summary.

        The server schedules a census at ``warm`` (lowest) priority unless
        overridden, so it never starves interactive classifies.  With
        ``deadline_ms``, keys whose search blows the budget tally under
        ``"timeout"`` in the counts while the rest complete.
        """
        params = {
            "labels": labels,
            "delta": delta,
            "density": density,
            "count": count,
            "seed": seed,
        }
        self._scheduling_params(params, priority, deadline_ms)
        return self.request("census", params, on_item)

    def cancel(self, request_id: Any) -> Dict[str, Any]:
        """Cancel an in-flight request by id (necessarily from another client).

        Returns ``{"request_id", "found", "cancelled"}``; ``found: false``
        means nothing with that id was in flight (already finished, or never
        existed) — cancellation is racy by nature, so that is not an error.
        """
        return self.request("cancel", {"request_id": request_id})

    def warm(
        self,
        problems: Optional[Sequence[Any]] = None,
        census: Optional[Dict[str, Any]] = None,
        wait: bool = False,
        priority: Optional[str] = None,
        deadline_ms: Optional[float] = None,
        budget_ms: Optional[float] = None,
    ) -> Dict[str, Any]:
        """Pre-populate the service cache ahead of a batch or census.

        Ship either a list of problem specs, the census parameter object
        (``labels``/``delta``/``density``/``count``/``seed``), or both; the
        service schedules every distinct uncached canonical key on its worker
        backend.  With ``wait=True`` the call returns after the searches
        complete (the follow-up request is then answered entirely from
        cache); otherwise the cache fills in the background.  ``budget_ms``
        is a *wall-clock* budget spread best-effort across the whole sweep:
        the service waits until the budget expires, cancels whatever is still
        unfinished, and reports how many keys completed within it (implies
        waiting; ``deadline_ms`` remains the per-key bound).
        """
        params: Dict[str, Any] = {"wait": wait}
        if budget_ms is not None:
            params["budget_ms"] = budget_ms
        if problems is not None:
            params["problems"] = [
                problem_params(problem)["problem"] for problem in problems
            ]
        if census is not None:
            params["census"] = dict(census)
        self._scheduling_params(params, priority, deadline_ms)
        return self.request("warm", params)

    def stats(self) -> Dict[str, Any]:
        """Service, cache, batch, and worker counters of the running service."""
        return self.request("stats")

    def metrics(self) -> Dict[str, Any]:
        """The service's metrics: ``{"snapshot": repro.metrics/1, "text": ...}``."""
        return self.request("metrics")

    def trace(self, request_id: Any) -> Dict[str, Any]:
        """Fetch a finished request's span tree by its wire id.

        Returns ``{"request_id", "found", "trace"}`` — ``found: false`` when
        the server's tracing is off or its retention ring has evicted the id.
        """
        return self.request("trace", {"request_id": request_id})

    def shutdown(self) -> Dict[str, Any]:
        """Ask the service to persist its cache and exit."""
        return self.request("shutdown")

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Close streams; wait for a spawned stdio service to exit."""
        for stream in (self._write, self._read):
            try:
                stream.close()
            except OSError:  # pragma: no cover - already torn down
                pass
        if self._socket is not None:
            try:
                self._socket.close()
            except OSError:  # pragma: no cover
                pass
        if self._process is not None:
            try:
                self._process.wait(timeout=30)
            except subprocess.TimeoutExpired:  # pragma: no cover - hung server
                self._process.kill()
                self._process.wait()

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()
