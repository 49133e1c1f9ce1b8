"""repro.api — the unified classification front door.

The package grew several entry points for the same operation
(``repro.classify``, ``ClassificationScheduler.submit``), each with its own
kwargs, errors, and result shape.  This package is the single seam on top of them:

* :class:`ClassificationSession` — the one supported way to classify,
  constructed from a URL-style endpoint: ``local://inline``,
  ``local://threads?workers=8``, ``local://processes``, ``tcp://host:port``,
  or ``stdio:`` (see :mod:`repro.api.config`),
* :class:`SessionConfig` — the typed form of those endpoints, absorbing the
  previously scattered cache/worker/priority/deadline kwargs,
* :class:`Outcome` — the one result type, carrying ``ok``/``timeout``/
  ``cancelled``/``error`` identically for in-process and remote execution,
* :mod:`repro.api.errors` — the one exception hierarchy, mapping service
  error codes and local search interruptions onto shared types with
  identical messages.

Quick start::

    from repro.api import connect

    with connect("local://threads?workers=4") as session:
        outcome = session.classify("1 : 2 2\\n2 : 1 1")
        print(outcome.complexity)           # "n^Theta(1)"
        for outcome in session.census(labels=2, count=100):
            ...
        print(session.stats()["workers"]["search_times"]["p99_ms"])

``ClassificationScheduler`` remains as the implementation layer and
``repro.service.ServiceClient`` as the wire transport under ``tcp://`` and
``stdio:`` sessions, but new code — and everything in ``repro.cli``,
``examples/`` and the census benchmarks — goes through sessions.
"""

from . import errors
from .config import (
    DEFAULT_TCP_PORT,
    MODES,
    MODE_LOCAL,
    MODE_STDIO,
    MODE_TCP,
    SessionConfig,
    parse_endpoint,
)
from .errors import (
    ClassificationCancelled,
    ClassificationTimeout,
    EndpointError,
    InternalError,
    ProblemFormatError,
    RequestError,
    SessionError,
    TransportError,
    UnsupportedOperationError,
)
from .outcome import (
    OUTCOMES,
    OUTCOME_CANCELLED,
    OUTCOME_ERROR,
    OUTCOME_OK,
    OUTCOME_TIMEOUT,
    Outcome,
)
from .session import (
    ClassificationSession,
    PendingOutcome,
    ProblemSpec,
    census_problems,
    connect,
    resolve_problem,
)

__all__ = [
    "ClassificationCancelled",
    "ClassificationSession",
    "ClassificationTimeout",
    "DEFAULT_TCP_PORT",
    "EndpointError",
    "InternalError",
    "MODES",
    "MODE_LOCAL",
    "MODE_STDIO",
    "MODE_TCP",
    "OUTCOMES",
    "OUTCOME_CANCELLED",
    "OUTCOME_ERROR",
    "OUTCOME_OK",
    "OUTCOME_TIMEOUT",
    "Outcome",
    "PendingOutcome",
    "ProblemFormatError",
    "ProblemSpec",
    "RequestError",
    "SessionConfig",
    "SessionError",
    "TransportError",
    "UnsupportedOperationError",
    "census_problems",
    "connect",
    "errors",
    "parse_endpoint",
    "resolve_problem",
]
