"""Synchronous wire transport for the classification service.

:class:`ServiceClient` frames requests in the JSON-lines protocol of
:mod:`repro.service.protocol` and reads the answers back, over either
transport:

* :meth:`ServiceClient.connect_tcp` — connect to a running
  ``python -m repro serve --host ... --port ...`` (with optional connect
  retries, so supervised services can be raced safely), or
* :meth:`ServiceClient.spawn_stdio` — spawn a private
  ``python -m repro serve stdio:`` subprocess and talk over its pipes,
  which gives scripts a self-contained service whose cache file still
  persists across spawns.

The transport knows the framing and nothing of what an operation means:

* :meth:`~ServiceClient.send` writes one request line and returns its id;
  :meth:`~ServiceClient.reserve_request_id` mints an id ahead of sending,
* :meth:`~ServiceClient.frames` yields one request's frames up to its
  terminal frame,
* :meth:`~ServiceClient.request` returns a request's terminal ``done``/
  ``result`` data, and :meth:`~ServiceClient.stream` yields its ``item``
  payloads as they arrive (the generator's return value is the terminal
  data),
* :meth:`~ServiceClient.close` tears the connection down.

``error`` frames raise :class:`ServiceError` carrying the server's
machine-readable error code.  Remote sessions (``tcp://``, ``stdio:``) build
each operation's params in their driver and send them through
:meth:`~ServiceClient.request` and :meth:`~ServiceClient.stream`; protocol
tests drive the transport directly.
"""

from __future__ import annotations

import itertools
import os
import socket
import subprocess
import sys
import time
from typing import Any, Dict, Generator, IO, Iterator, Optional

from .protocol import Request, decode_frame, encode_frame, is_terminal_frame

CONNECT_RETRY_DELAY = 0.25
"""Seconds between :meth:`ServiceClient.connect_tcp` attempts."""


class ServiceError(RuntimeError):
    """An ``error`` frame from the service, or a broken connection."""

    def __init__(self, code: str, message: str) -> None:
        super().__init__(f"{code}: {message}")
        self.code = code
        self.message = message


def _terminal_data(frame: Dict[str, Any]) -> Dict[str, Any]:
    """A terminal frame's data; an ``error`` frame raises :class:`ServiceError`."""
    if frame.get("type") == "error":
        error = frame.get("error", {})
        raise ServiceError(error.get("code", "unknown"), error.get("message", ""))
    return frame.get("data", {})


class ServiceClient:
    """The wire transport: JSON-lines requests and frames over two text streams.

    The layer under ``tcp://`` and ``stdio:`` sessions, and the handle
    protocol tests drive the wire with.  It frames whatever ``op`` and
    ``params`` it is given and checks none of them; the server does.
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
    def connect_tcp(cls, host: str, port: int, retries: int = 0) -> "ServiceClient":
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
                time.sleep(CONNECT_RETRY_DELAY)
        read_stream = sock.makefile("r", encoding="utf-8", newline="\n")
        write_stream = sock.makefile("w", encoding="utf-8", newline="\n")
        return cls(read_stream, write_stream, sock=sock)

    @classmethod
    def spawn_stdio(cls, endpoint: str = "stdio:") -> "ServiceClient":
        """Spawn ``python -m repro serve ENDPOINT`` and connect to its pipes.

        ``endpoint`` is a ``stdio:`` URL; its query parameters configure the
        service's cache exactly as for ``repro serve``
        (``stdio:?cache=sqlite:c.db&cache_max_entries=1000``).  The subprocess runs on
        the current interpreter and inherits the environment with
        ``PYTHONPATH`` extended so the *current* ``repro`` package is
        importable even when it has not been installed (the repo's ``src``
        layout).
        """
        argv = [sys.executable, "-m", "repro", "serve", endpoint]
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

    def send(
        self,
        op: str,
        params: Optional[Dict[str, Any]] = None,
        request_id: Optional[Any] = None,
    ) -> Any:
        """Write one request line; return its wire id.

        ``request_id`` pins the id (normally the next of this client's
        counter) — pass a value from :meth:`reserve_request_id` when another
        connection needs to address this request.
        """
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
        request_id: Optional[Any] = None,
    ) -> Dict[str, Any]:
        """Send one request; return its terminal ``done``/``result`` data.

        Streamed ``item`` frames are skipped (:meth:`stream` yields them).
        Raises :class:`ServiceError` when the service answers with an error
        frame.
        """
        for frame in self.frames(self.send(op, params, request_id)):
            if is_terminal_frame(frame):
                return _terminal_data(frame)
        raise ServiceError("connection-closed", "stream ended without a terminal frame")

    def stream(
        self, op: str, params: Optional[Dict[str, Any]] = None
    ) -> Generator[Dict[str, Any], None, Dict[str, Any]]:
        """Send one request; *yield* each streamed item payload as it arrives.

        The generator's return value is the terminal ``done``/``result``
        data; ``error`` frames raise :class:`ServiceError`.  Abandoning the
        generator mid-stream is safe — leftover frames of this request are
        skipped by the next request's frame loop.
        """
        for frame in self.frames(self.send(op, params)):
            if is_terminal_frame(frame):
                return _terminal_data(frame)
            yield frame["data"]
        raise ServiceError("connection-closed", "stream ended without a terminal frame")

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
