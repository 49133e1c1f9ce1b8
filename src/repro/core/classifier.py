"""The complete complexity classifier for LCL problems on rooted regular trees.

Given a problem ``Π = (δ, Σ, C)``, :func:`classify` determines its distributed
round complexity, following the decision procedure of the paper:

1. *Solvability.*  If no label admits an infinite continuation the problem is
   unsolvable on deep complete trees — reported as ``UNSOLVABLE`` (the paper
   implicitly assumes solvable problems).
2. *Super-logarithmic region* (Section 5, polynomial time).  Run Algorithm 2:
   if no certificate for ``O(log n)`` solvability exists, the complexity is
   ``n^{Θ(1)}`` and the number of pruning iterations ``k`` yields the
   ``Ω(n^{1/k})`` lower bound (exactly ``Θ(n)`` when ``k = 1``).
3. *Sub-logarithmic region* (Section 6, exponential time).  Run Algorithm 4: if
   no uniform certificate for ``O(log* n)`` solvability exists, the complexity
   is ``Θ(log n)``.
4. *Sub-log-star region* (Section 7, exponential time).  Run Algorithm 5: if no
   certificate for ``O(1)`` solvability exists the complexity is ``Θ(log* n)``,
   otherwise it is ``O(1)``.

The classifier also exposes the certificates themselves so that the distributed
solvers of :mod:`repro.distributed` can be instantiated from them.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional, Tuple

from .certificates import (
    CertificateError,
    ConstantCertificate,
    UniformCertificate,
    build_constant_certificate,
    build_uniform_certificate,
)
from .complexity import ClassificationResult, ComplexityClass
from .constant_certificate import find_constant_certificate_builder
from .log_certificate import LogCertificate, LogCertificateAbsence, find_log_certificate
from .logstar_certificate import find_certificate_builder
from .problem import LCLProblem


@dataclass(frozen=True)
class ClassificationArtifacts:
    """Classification result bundled with the materialized certificates."""

    problem: LCLProblem
    result: ClassificationResult
    log_certificate: Optional[LogCertificate] = None
    logstar_certificate: Optional[UniformCertificate] = None
    constant_certificate: Optional[ConstantCertificate] = None
    elapsed_seconds: float = 0.0

    @property
    def complexity(self) -> ComplexityClass:
        """The complexity class of the problem."""
        return self.result.complexity


def classify(problem: LCLProblem) -> ClassificationResult:
    """Classify the round complexity of ``problem`` (decision only)."""
    return classify_with_certificates(problem).result


def classify_with_certificates(problem: LCLProblem) -> ClassificationArtifacts:
    """Classify ``problem`` and materialize every certificate that exists.

    The whole decision procedure runs inside one
    :func:`repro.core.kernel.classification_scope`, so the bitmask kernel's
    Algorithm 4 and Algorithm 5 sweeps share their per-subset memo tables: a
    label subset whose plain Algorithm 3 search already ran is never swept
    twice in one classification.  The scope (and every memo in it) is
    dropped when this function returns or unwinds, so interrupted searches
    cache nothing.
    """
    from . import kernel

    with kernel.classification_scope(problem):
        return _classify_with_certificates(problem)


def _classify_with_certificates(problem: LCLProblem) -> ClassificationArtifacts:
    start = time.perf_counter()
    notes: Tuple[str, ...] = ()
    zero_round = problem.is_zero_round_solvable()

    # Step 1: solvability.
    if not problem.is_solvable():
        result = ClassificationResult(
            complexity=ComplexityClass.UNSOLVABLE,
            zero_round_solvable=False,
            notes=("no label admits an infinite continuation below",),
        )
        return ClassificationArtifacts(
            problem=problem,
            result=result,
            elapsed_seconds=time.perf_counter() - start,
        )

    # Step 2: O(log n) vs n^{Ω(1)} (Algorithm 2, polynomial time).
    log_outcome = find_log_certificate(problem)
    if isinstance(log_outcome, LogCertificateAbsence):
        exponent = log_outcome.lower_bound_exponent
        result = ClassificationResult(
            complexity=ComplexityClass.POLYNOMIAL,
            polynomial_exponent_bound=exponent,
            zero_round_solvable=zero_round,
            pruning_sets=log_outcome.pruning_sets,
            notes=(
                "Algorithm 2 emptied the problem after "
                f"{log_outcome.iterations} pruning iteration(s)",
            ),
        )
        return ClassificationArtifacts(
            problem=problem,
            result=result,
            elapsed_seconds=time.perf_counter() - start,
        )
    log_certificate: LogCertificate = log_outcome

    # Step 3: O(log* n) vs Θ(log n) (Algorithm 4, exponential time).
    logstar_builder = find_certificate_builder(problem)
    if logstar_builder is None:
        result = ClassificationResult(
            complexity=ComplexityClass.LOG,
            zero_round_solvable=zero_round,
            log_certificate_labels=log_certificate.labels,
            pruning_sets=log_certificate.pruning_sets,
            notes=notes,
        )
        return ClassificationArtifacts(
            problem=problem,
            result=result,
            log_certificate=log_certificate,
            elapsed_seconds=time.perf_counter() - start,
        )
    try:
        logstar_certificate: Optional[UniformCertificate] = build_uniform_certificate(
            logstar_builder
        )
    except CertificateError as error:  # pragma: no cover - defensive
        logstar_certificate = None
        notes = notes + (f"log* certificate could not be materialized: {error}",)

    # Step 4: O(1) vs Θ(log* n) (Algorithm 5, exponential time).
    constant_outcome = find_constant_certificate_builder(problem)
    if constant_outcome is None:
        result = ClassificationResult(
            complexity=ComplexityClass.LOGSTAR,
            zero_round_solvable=zero_round,
            log_certificate_labels=log_certificate.labels,
            logstar_certificate_labels=(
                logstar_certificate.labels if logstar_certificate is not None else None
            ),
            pruning_sets=log_certificate.pruning_sets,
            notes=notes,
        )
        return ClassificationArtifacts(
            problem=problem,
            result=result,
            log_certificate=log_certificate,
            logstar_certificate=logstar_certificate,
            elapsed_seconds=time.perf_counter() - start,
        )

    constant_builder, special_configuration = constant_outcome
    try:
        constant_certificate: Optional[ConstantCertificate] = build_constant_certificate(
            constant_builder, special_configuration
        )
    except CertificateError as error:  # pragma: no cover - defensive
        constant_certificate = None
        notes = notes + (f"O(1) certificate could not be materialized: {error}",)

    result = ClassificationResult(
        complexity=ComplexityClass.CONSTANT,
        zero_round_solvable=zero_round,
        log_certificate_labels=log_certificate.labels,
        logstar_certificate_labels=(
            logstar_certificate.labels if logstar_certificate is not None else None
        ),
        constant_certificate_labels=(
            constant_certificate.labels if constant_certificate is not None else None
        ),
        special_configuration=special_configuration,
        pruning_sets=log_certificate.pruning_sets,
        notes=notes,
    )
    return ClassificationArtifacts(
        problem=problem,
        result=result,
        log_certificate=log_certificate,
        logstar_certificate=logstar_certificate,
        constant_certificate=constant_certificate,
        elapsed_seconds=time.perf_counter() - start,
    )
