"""Typed session configuration and URL-style endpoint parsing.

A :class:`SessionConfig` absorbs the cache, worker-backend and connection
kwargs of ``ClassificationCache(...)``, ``ClassificationScheduler(...)`` and
``ServiceClient.connect_tcp(...)`` into one frozen dataclass, and every
config has a canonical URL spelling so endpoints travel well through CLIs,
env vars, and config files:

``local://inline``
    Synchronous in-process classification (the zero-dependency default).
``local://threads?workers=8``
    In-process classification on a thread pool (concurrency, streaming).
``local://processes?workers=4``
    CPU-parallel classification on a process pool.
``tcp://host:port?retries=20``
    A running ``python -m repro serve`` service over TCP.
``stdio:``
    A private ``python -m repro serve stdio:`` subprocess over its pipes;
    the session hands it its own endpoint URL, cache parameters included.

Cache query parameters (shared by every mode — on ``tcp`` they configure
the *server* when the endpoint is handed to ``repro serve``):

``cache=URL``
    Persistent result cache.  The value is a cache URL selecting the
    durable backend (:mod:`repro.engine.backends`): a bare path or
    ``json:path`` for the single-file JSON format, ``sqlite:path`` for the
    WAL-mode SQLite store, ``memory:`` for none.
``cache_max_entries=N``
    LRU budget.
``cache_ttl=SECONDS``
    Entry time-to-live; expired entries count as misses.
``cache_flush_interval=SECONDS`` / ``cache_flush_count=N``
    Write-behind thresholds: dirty entries are persisted in the background
    once ``N`` keys are pending or ``SECONDS`` have elapsed, instead of on
    every store.

All modes accept ``priority`` and ``deadline`` (seconds) as session-wide
scheduling defaults, and ``obs=0`` to bypass the observability layer
(request ids, metrics registry, tracer) entirely.  Anything unrecognized
raises
:class:`~repro.api.errors.EndpointError` — a typo in an endpoint should
never be silently ignored.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Dict, Optional
from urllib.parse import parse_qsl, quote, urlsplit

from ..engine.backends import parse_cache_url
from ..workers.backends import BACKEND_NAMES
from ..workers.scheduler import PRIORITIES
from .errors import EndpointError

MODE_LOCAL = "local"
MODE_TCP = "tcp"
MODE_STDIO = "stdio"
MODES = (MODE_LOCAL, MODE_TCP, MODE_STDIO)

DEFAULT_TCP_PORT = 8765
"""Port assumed by ``tcp://host`` endpoints, matching ``repro serve``."""

_COMMON_QUERY_KEYS = ("priority", "deadline", "obs")
# tcp endpoints accept cache parameters too: when a tcp endpoint is handed
# to `repro serve` it describes the *server*, whose cache they configure.
# A connecting session ignores them (the cache lives server-side).
_CACHE_QUERY_KEYS = (
    "cache",
    "cache_max_entries",
    "cache_ttl",
    "cache_flush_interval",
    "cache_flush_count",
)
_QUERY_KEYS = {
    MODE_LOCAL: ("workers",) + _CACHE_QUERY_KEYS + _COMMON_QUERY_KEYS,
    MODE_TCP: ("retries",) + _CACHE_QUERY_KEYS + _COMMON_QUERY_KEYS,
    MODE_STDIO: _CACHE_QUERY_KEYS + _COMMON_QUERY_KEYS,
}


@dataclass(frozen=True)
class SessionConfig:
    """Everything a :class:`~repro.api.ClassificationSession` needs to exist.

    Parameters
    ----------
    mode:
        ``"local"`` (in-process engine), ``"tcp"`` (remote service), or
        ``"stdio"`` (private spawned service).
    backend:
        Local mode only: the worker backend name (``inline``/``threads``/
        ``processes``).
    workers:
        Pool size for ``threads``/``processes`` backends (default CPU count).
    host, port:
        TCP mode only: the service address.
    retries:
        TCP mode: connection attempts before giving up (0.25 s apart).
    cache_path, cache_max_entries:
        Persistent result cache URL (bare path / ``json:`` / ``sqlite:`` /
        ``memory:``) and LRU budget.
    cache_ttl:
        Optional entry time-to-live in seconds.
    cache_flush_interval, cache_flush_count:
        Optional write-behind thresholds (seconds between background
        flushes / pending dirty keys that trigger one).
    default_priority, default_deadline:
        Session-wide scheduling defaults applied when a call does not pass
        its own ``priority``/``deadline``.
    obs:
        Whether the observability layer (request ids, the metrics registry,
        the env-gated tracer) is wired up at all.  ``obs=False`` (``?obs=0``)
        bypasses it completely — the baseline configuration the
        ``obs`` overhead gate of ``benchmarks/bench_gates.py`` compares against.  Note tracing
        itself is additionally opt-in via ``REPRO_TRACE`` even when ``True``.
    """

    mode: str = MODE_LOCAL
    backend: str = "inline"
    workers: Optional[int] = None
    host: Optional[str] = None
    port: Optional[int] = None
    retries: int = 0
    cache_path: Optional[str] = None
    cache_max_entries: Optional[int] = None
    cache_ttl: Optional[float] = None
    cache_flush_interval: Optional[float] = None
    cache_flush_count: Optional[int] = None
    default_priority: Optional[str] = None
    default_deadline: Optional[float] = None
    obs: bool = True

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise EndpointError(
                f"unknown session mode {self.mode!r} (known: {', '.join(MODES)})"
            )
        if self.mode == MODE_LOCAL and self.backend not in BACKEND_NAMES:
            raise EndpointError(
                f"unknown local backend {self.backend!r} "
                f"(known: {', '.join(BACKEND_NAMES)})"
            )
        if self.mode == MODE_TCP and not self.host:
            raise EndpointError("tcp sessions require a host")
        if self.workers is not None and self.workers < 1:
            raise EndpointError("workers must be >= 1")
        if self.default_priority is not None and self.default_priority not in PRIORITIES:
            raise EndpointError(
                f"unknown priority {self.default_priority!r} "
                f"(known: {', '.join(PRIORITIES)})"
            )
        if self.default_deadline is not None and self.default_deadline <= 0:
            raise EndpointError("deadline must be positive seconds")
        if self.cache_path is not None:
            try:
                parse_cache_url(self.cache_path)
            except ValueError as error:
                raise EndpointError(f"bad cache URL: {error}") from None
        if self.cache_ttl is not None and self.cache_ttl <= 0:
            raise EndpointError("cache_ttl must be positive seconds")
        if self.cache_flush_interval is not None and self.cache_flush_interval <= 0:
            raise EndpointError("cache_flush_interval must be positive seconds")
        if self.cache_flush_count is not None and self.cache_flush_count < 1:
            raise EndpointError("cache_flush_count must be >= 1")

    # ------------------------------------------------------------------
    # URL form
    # ------------------------------------------------------------------
    def endpoint(self) -> str:
        """The canonical URL spelling of this configuration."""
        query: Dict[str, Any] = {}
        if self.mode == MODE_LOCAL:
            base = f"local://{self.backend}"
            if self.workers is not None:
                query["workers"] = self.workers
        elif self.mode == MODE_TCP:
            base = f"tcp://{self.host}:{self.port or DEFAULT_TCP_PORT}"
            if self.retries:
                query["retries"] = self.retries
        else:
            base = "stdio:"
        if self.cache_path:
            query["cache"] = self.cache_path
        if self.cache_max_entries is not None:
            query["cache_max_entries"] = self.cache_max_entries
        if self.cache_ttl is not None:
            query["cache_ttl"] = self.cache_ttl
        if self.cache_flush_interval is not None:
            query["cache_flush_interval"] = self.cache_flush_interval
        if self.cache_flush_count is not None:
            query["cache_flush_count"] = self.cache_flush_count
        if self.default_priority is not None:
            query["priority"] = self.default_priority
        if self.default_deadline is not None:
            query["deadline"] = self.default_deadline
        if not self.obs:
            query["obs"] = 0
        if not query:
            return base
        # Quoted so any cache path survives the round trip through
        # parse_endpoint (a stdio: session hands this URL to `repro serve`).
        encoded = "&".join(
            f"{key}={quote(str(value), safe='/:')}" for key, value in query.items()
        )
        return f"{base}?{encoded}"

    @classmethod
    def from_endpoint(cls, endpoint: str, **overrides: Any) -> "SessionConfig":
        """Parse a URL-style endpoint; keyword overrides win over the URL."""
        config = parse_endpoint(endpoint)
        return replace(config, **overrides) if overrides else config


def _int_param(params: Dict[str, str], key: str, endpoint: str) -> Optional[int]:
    if key not in params:
        return None
    try:
        return int(params[key])
    except ValueError:
        raise EndpointError(
            f"{key} must be an integer in endpoint {endpoint!r}, "
            f"got {params[key]!r}"
        ) from None


def _float_param(params: Dict[str, str], key: str, endpoint: str) -> Optional[float]:
    if key not in params:
        return None
    try:
        return float(params[key])
    except ValueError:
        raise EndpointError(
            f"{key} must be a number in endpoint {endpoint!r}, got {params[key]!r}"
        ) from None


def _bool_param(
    params: Dict[str, str], key: str, endpoint: str, default: bool
) -> bool:
    if key not in params:
        return default
    value = params[key].strip().lower()
    if value in ("0", "false", "off", "no"):
        return False
    if value in ("", "1", "true", "on", "yes"):
        return True
    raise EndpointError(
        f"{key} must be a boolean (0/1) in endpoint {endpoint!r}, "
        f"got {params[key]!r}"
    )


def parse_endpoint(endpoint: str) -> SessionConfig:
    """Turn an endpoint URL into a validated :class:`SessionConfig`.

    Raises :class:`~repro.api.errors.EndpointError` on unknown schemes,
    backends, or query parameters.
    """
    if not isinstance(endpoint, str) or not endpoint.strip():
        raise EndpointError("endpoint must be a non-empty URL string")
    parts = urlsplit(endpoint.strip())
    scheme = parts.scheme
    if not scheme:
        raise EndpointError(
            f"endpoint {endpoint!r} has no scheme "
            "(expected local://, tcp://, or stdio:)"
        )
    if scheme == MODE_STDIO:
        mode = MODE_STDIO
    elif scheme == MODE_LOCAL:
        mode = MODE_LOCAL
    elif scheme == MODE_TCP:
        mode = MODE_TCP
    else:
        raise EndpointError(
            f"unknown endpoint scheme {scheme!r} in {endpoint!r} "
            "(expected local://, tcp://, or stdio:)"
        )

    params: Dict[str, str] = {}
    for key, value in parse_qsl(parts.query, keep_blank_values=True):
        if key in params:
            raise EndpointError(f"duplicate query parameter {key!r} in {endpoint!r}")
        params[key] = value
    unknown = set(params) - set(_QUERY_KEYS[mode])
    if unknown:
        raise EndpointError(
            f"unknown query parameter(s) {', '.join(sorted(unknown))} "
            f"for a {mode} endpoint ({endpoint!r})"
        )

    common = {
        "default_priority": params.get("priority"),
        "default_deadline": _float_param(params, "deadline", endpoint),
        "obs": _bool_param(params, "obs", endpoint, default=True),
        "cache_path": params.get("cache"),
        "cache_max_entries": _int_param(params, "cache_max_entries", endpoint),
        "cache_ttl": _float_param(params, "cache_ttl", endpoint),
        "cache_flush_interval": _float_param(
            params, "cache_flush_interval", endpoint
        ),
        "cache_flush_count": _int_param(params, "cache_flush_count", endpoint),
    }
    if mode == MODE_LOCAL:
        backend = parts.netloc or parts.path.strip("/")
        if not backend:
            raise EndpointError(
                f"local endpoint {endpoint!r} must name a backend "
                f"(local://{'|'.join(BACKEND_NAMES)})"
            )
        return SessionConfig(
            mode=MODE_LOCAL,
            backend=backend,
            workers=_int_param(params, "workers", endpoint),
            **common,
        )
    if mode == MODE_TCP:
        if not parts.hostname:
            raise EndpointError(f"tcp endpoint {endpoint!r} must name a host")
        try:
            port = parts.port
        except ValueError as error:
            raise EndpointError(f"bad port in endpoint {endpoint!r}: {error}") from None
        return SessionConfig(
            mode=MODE_TCP,
            host=parts.hostname,
            port=port if port is not None else DEFAULT_TCP_PORT,
            retries=_int_param(params, "retries", endpoint) or 0,
            **common,
        )
    # stdio: — tolerate both "stdio:" and "stdio://" spellings.
    return SessionConfig(mode=MODE_STDIO, **common)


__all__ = [
    "DEFAULT_TCP_PORT",
    "MODES",
    "MODE_LOCAL",
    "MODE_STDIO",
    "MODE_TCP",
    "SessionConfig",
    "parse_endpoint",
]
