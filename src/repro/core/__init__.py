"""Core formalism: LCL problems, certificates, and the complexity classifier."""

from .cancellation import (
    CancelToken,
    SearchCancelled,
    SearchInterrupted,
    SearchTimeout,
    cancel_scope,
    checkpoint,
    current_token,
)
from .configuration import Configuration, Label, configuration
from .problem import LCLError, LCLProblem
from .parser import format_problem, parse_problem
from .complexity import ClassificationResult, ComplexityClass
from .log_certificate import (
    LogCertificate,
    LogCertificateAbsence,
    find_log_certificate,
    has_log_certificate,
    remove_path_inflexible_configurations,
)
from .logstar_certificate import (
    CertificateBuilder,
    find_certificate_builder,
    find_unrestricted_certificate,
    has_logstar_certificate,
)
from .constant_certificate import find_constant_certificate_builder, has_constant_certificate
from .kernel import (
    KERNELS,
    ProblemEncoding,
    active_kernel,
    kernel_override,
    problem_encoding,
)
from .certificates import (
    CertificateError,
    CertificateTree,
    ConstantCertificate,
    CoprimeCertificate,
    UniformCertificate,
    build_constant_certificate,
    build_uniform_certificate,
)
from .classifier import (
    ClassificationArtifacts,
    classify,
    classify_with_certificates,
)

__all__ = [
    "CancelToken",
    "CertificateBuilder",
    "CertificateError",
    "CertificateTree",
    "ClassificationArtifacts",
    "ClassificationResult",
    "ComplexityClass",
    "Configuration",
    "ConstantCertificate",
    "CoprimeCertificate",
    "KERNELS",
    "LCLError",
    "LCLProblem",
    "Label",
    "LogCertificate",
    "LogCertificateAbsence",
    "ProblemEncoding",
    "SearchCancelled",
    "SearchInterrupted",
    "SearchTimeout",
    "UniformCertificate",
    "active_kernel",
    "build_constant_certificate",
    "build_uniform_certificate",
    "cancel_scope",
    "checkpoint",
    "classify",
    "classify_with_certificates",
    "configuration",
    "current_token",
    "find_certificate_builder",
    "find_constant_certificate_builder",
    "find_log_certificate",
    "find_unrestricted_certificate",
    "format_problem",
    "has_constant_certificate",
    "has_log_certificate",
    "has_logstar_certificate",
    "kernel_override",
    "parse_problem",
    "problem_encoding",
    "remove_path_inflexible_configurations",
]
