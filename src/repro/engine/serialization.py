"""JSON-friendly serialization of problems and classification results.

The batch engine needs classification results to survive two process
boundaries: the ``processes`` worker backend of :mod:`repro.workers` and the
on-disk cache of :class:`repro.engine.cache.ClassificationCache`.  This
module converts the core value types
(:class:`~repro.core.problem.LCLProblem` and
:class:`~repro.core.complexity.ClassificationResult`) to and from plain
dictionaries containing only JSON primitives.

Certificate *objects* (the materialized trees of
:mod:`repro.core.certificates`) are intentionally not serialized — they can
be rebuilt from the problem on demand — but every certificate *label set*
recorded in a :class:`ClassificationResult` is preserved, so a deserialized
result carries the same witnesses as the original.

The module also provides :func:`relabel_result`, which pushes a result
through a label bijection.  This is the key operation that lets the cache
store results in canonical labels and translate them back to each caller's
original alphabet (see :mod:`repro.engine.canonical`).
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Optional, Tuple

from ..core.complexity import ClassificationResult, ComplexityClass
from ..core.configuration import Configuration, Label
from ..core.problem import LCLProblem

SCHEMA_VERSION = 1
"""Version tag embedded in serialized payloads (bumped on incompatible changes)."""


# ----------------------------------------------------------------------
# Problems
# ----------------------------------------------------------------------
def problem_to_dict(problem: LCLProblem) -> Dict[str, Any]:
    """Serialize a problem to a JSON-friendly dictionary."""
    return {
        "delta": problem.delta,
        "labels": problem.sorted_labels(),
        "configurations": [
            [config.parent, list(config.children)]
            for config in problem.sorted_configurations()
        ],
        "name": problem.name,
    }


def problem_from_dict(payload: Mapping[str, Any]) -> LCLProblem:
    """Rebuild a problem from :func:`problem_to_dict` output."""
    return LCLProblem.create(
        delta=payload["delta"],
        configurations=[
            (parent, tuple(children)) for parent, children in payload["configurations"]
        ],
        labels=payload["labels"],
        name=payload.get("name", ""),
    )


# ----------------------------------------------------------------------
# Configurations and label sets
# ----------------------------------------------------------------------
def _configuration_to_list(config: Optional[Configuration]) -> Optional[List[Any]]:
    if config is None:
        return None
    return [config.parent, list(config.children)]


def _configuration_from_list(payload: Optional[List[Any]]) -> Optional[Configuration]:
    if payload is None:
        return None
    parent, children = payload
    return Configuration(parent, tuple(children))


def _labels_to_list(labels: Optional[frozenset]) -> Optional[List[Label]]:
    if labels is None:
        return None
    return sorted(labels)


def _labels_from_list(payload: Optional[List[Label]]) -> Optional[frozenset]:
    if payload is None:
        return None
    return frozenset(payload)


# ----------------------------------------------------------------------
# Classification results
# ----------------------------------------------------------------------
def result_to_dict(result: ClassificationResult) -> Dict[str, Any]:
    """Serialize a classification result to a JSON-friendly dictionary."""
    return {
        "schema": SCHEMA_VERSION,
        "complexity": result.complexity.name,
        "complexity_value": result.complexity.value,
        "polynomial_exponent_bound": result.polynomial_exponent_bound,
        "zero_round_solvable": result.zero_round_solvable,
        "log_certificate_labels": _labels_to_list(result.log_certificate_labels),
        "logstar_certificate_labels": _labels_to_list(result.logstar_certificate_labels),
        "constant_certificate_labels": _labels_to_list(result.constant_certificate_labels),
        "special_configuration": _configuration_to_list(result.special_configuration),
        "pruning_sets": [sorted(labels) for labels in result.pruning_sets],
        "notes": list(result.notes),
    }


def result_from_dict(payload: Mapping[str, Any]) -> ClassificationResult:
    """Rebuild a classification result from :func:`result_to_dict` output.

    Raises :class:`ValueError` on missing or unknown fields, so corrupt cache
    entries surface as clean errors rather than ``KeyError`` tracebacks.
    """
    try:
        complexity = ComplexityClass[payload["complexity"]]
    except KeyError as error:
        raise ValueError(f"malformed classification payload: {error}") from error
    return ClassificationResult(
        complexity=complexity,
        polynomial_exponent_bound=payload.get("polynomial_exponent_bound"),
        zero_round_solvable=payload.get("zero_round_solvable", False),
        log_certificate_labels=_labels_from_list(payload.get("log_certificate_labels")),
        logstar_certificate_labels=_labels_from_list(
            payload.get("logstar_certificate_labels")
        ),
        constant_certificate_labels=_labels_from_list(
            payload.get("constant_certificate_labels")
        ),
        special_configuration=_configuration_from_list(
            payload.get("special_configuration")
        ),
        pruning_sets=tuple(
            frozenset(labels) for labels in payload.get("pruning_sets", [])
        ),
        notes=tuple(payload.get("notes", [])),
    )


# ----------------------------------------------------------------------
# Relabeling results through a bijection
# ----------------------------------------------------------------------
def relabel_result(
    result: ClassificationResult, mapping: Mapping[Label, Label]
) -> ClassificationResult:
    """Push every label occurring in ``result`` through ``mapping``.

    Labels missing from ``mapping`` are kept as-is, mirroring
    :meth:`LCLProblem.relabel`.  The complexity class, exponent bound,
    zero-round flag and notes are renaming-invariant and pass through
    unchanged; certificate label sets, pruning sets and the special
    configuration are translated.
    """

    def map_label(label: Label) -> Label:
        return mapping.get(label, label)

    def map_labels(labels: Optional[frozenset]) -> Optional[frozenset]:
        if labels is None:
            return None
        return frozenset(map_label(label) for label in labels)

    special = result.special_configuration
    if isinstance(special, Configuration):
        special = Configuration(
            map_label(special.parent),
            tuple(map_label(child) for child in special.children),
        )
    pruning: Tuple[frozenset, ...] = tuple(
        frozenset(map_label(label) for label in labels) for labels in result.pruning_sets
    )
    return ClassificationResult(
        complexity=result.complexity,
        polynomial_exponent_bound=result.polynomial_exponent_bound,
        zero_round_solvable=result.zero_round_solvable,
        log_certificate_labels=map_labels(result.log_certificate_labels),
        logstar_certificate_labels=map_labels(result.logstar_certificate_labels),
        constant_certificate_labels=map_labels(result.constant_certificate_labels),
        special_configuration=special,
        pruning_sets=pruning,
        notes=result.notes,
    )
