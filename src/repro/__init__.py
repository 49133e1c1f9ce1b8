"""repro — a reproduction of "Locally Checkable Problems in Rooted Trees" (PODC 2021).

The package provides:

* the LCL problem formalism on rooted regular trees (``repro.core``),
* the complexity classifier deciding between ``O(1)``, ``Θ(log* n)``,
  ``Θ(log n)`` and ``n^{Θ(1)}`` (``repro.core.classifier``),
* certificates for each complexity class and their constructive materialization,
* the rooted-tree and automata substrates,
* a LOCAL/CONGEST simulator with certificate-driven distributed solvers,
* a batch classification engine — canonical forms invariant under label
  renaming and a result cache keyed by them (``repro.engine``), behind a
  single-flight scheduler on inline, thread or process workers
  (``repro.workers``),
* a catalog of the paper's sample problems and an experiment harness.

The command line (``python -m repro``) exposes ``classify`` (single problems
or the paper's catalog), ``classify-batch`` (directories or multi-problem
files, deduplicated through the engine), ``census`` (random-problem sweeps),
``warm`` (time-budgeted cache warming), ``serve``, and ``stats``/
``metrics``/``trace``/``cancel``/``shutdown`` on any endpoint; the
problem verbs take ``--endpoint URL`` and ``--json``.

Quick start — the session facade of :mod:`repro.api` is the one front door
for classification, whatever the execution backend::

    from repro.api import connect

    with connect("local://threads?workers=4") as session:
        outcome = session.classify("1 : 2 2\\n2 : 1 1")
        print(outcome.complexity)   # "n^Theta(1)"

Core quick start (certificates and solvers)::

    from repro import classify, problems

    result = classify(problems.maximal_independent_set())
    print(result.complexity)        # ComplexityClass.CONSTANT

The lower-level pieces (``ClassificationScheduler``, ``ServiceClient``)
remain as the implementation layer; prefer sessions in new code.
"""

from . import automata, core, labeling, problems, trees
from .core import (
    ClassificationResult,
    ComplexityClass,
    Configuration,
    LCLProblem,
    classify,
    classify_with_certificates,
    complexity_of,
    parse_problem,
)
from . import engine
from .engine import ClassificationCache, canonical_form
from . import api
from .api import ClassificationSession, Outcome, SessionConfig, connect

__version__ = "1.2.0"

__all__ = [
    "ClassificationCache",
    "ClassificationResult",
    "ClassificationSession",
    "ComplexityClass",
    "Configuration",
    "LCLProblem",
    "Outcome",
    "SessionConfig",
    "api",
    "automata",
    "canonical_form",
    "classify",
    "classify_with_certificates",
    "complexity_of",
    "connect",
    "core",
    "engine",
    "labeling",
    "parse_problem",
    "problems",
    "trees",
]
