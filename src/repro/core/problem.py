"""The LCL problem formalism of the paper (Definition 4.1).

An LCL problem on rooted regular trees is a triple ``Π = (δ, Σ, C)`` where ``δ``
is the number of children of every internal node, ``Σ`` is a finite label set and
``C`` is the set of allowed configurations.  Leaves are unconstrained.

This module provides the immutable :class:`LCLProblem` value type together with
the elementary operations used throughout the paper:

* restriction to a label subset (Definition 4.3),
* continuations below (Definitions 4.4/4.5),
* the path-form ``Π_path`` (Definition 4.6), and
* structural introspection helpers used by the classifier and the solvers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import FrozenSet, Iterable, List, Mapping, Optional, Sequence, Set, Tuple

from .configuration import Configuration, Label


class LCLError(ValueError):
    """Raised when an LCL problem description is malformed."""


@dataclass(frozen=True)
class LCLProblem:
    """An LCL problem ``Π = (δ, Σ, C)`` on rooted ``δ``-ary trees.

    Attributes
    ----------
    delta:
        Number of children of every internal node (``δ >= 1``).
    labels:
        The output alphabet ``Σ``.
    configurations:
        The allowed configurations ``C``; every configuration must have exactly
        ``delta`` children and use only labels from ``labels``.
    name:
        Optional human-readable name, used in reports and benchmarks.
    """

    delta: int
    labels: FrozenSet[Label]
    configurations: FrozenSet[Configuration]
    name: str = field(default="", compare=False)

    def __post_init__(self) -> None:
        if self.delta < 1:
            raise LCLError(f"delta must be >= 1, got {self.delta}")
        delta = self.delta
        labels = frozenset(self.labels)
        configurations = frozenset(self.configurations)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "configurations", configurations)
        for config in configurations:
            if len(config.children) != delta:
                raise LCLError(
                    f"configuration {config} has {config.delta} children, expected {delta}"
                )
            if config.parent not in labels or not labels.issuperset(config.children):
                raise LCLError(
                    f"configuration {config} uses labels outside the alphabet {sorted(labels)}"
                )

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @staticmethod
    def create(
        delta: int,
        configurations: Iterable[Tuple[Label, Sequence[Label]]],
        labels: Optional[Iterable[Label]] = None,
        name: str = "",
    ) -> "LCLProblem":
        """Build a problem from ``(parent, children)`` pairs.

        If ``labels`` is omitted the alphabet is the set of labels appearing in
        the configurations.
        """
        configs = frozenset(
            Configuration(parent, children) for parent, children in configurations
        )
        if labels is None:
            used: Set[Label] = set()
            for config in configs:
                used.add(config.parent)
                used.update(config.children)
            labels = used
        return LCLProblem(delta=delta, labels=labels, configurations=configs, name=name)

    # ------------------------------------------------------------------
    # Basic introspection
    # ------------------------------------------------------------------
    @property
    def num_labels(self) -> int:
        """Size of the alphabet ``|Σ|``."""
        return len(self.labels)

    @property
    def num_configurations(self) -> int:
        """Number of allowed configurations ``|C|``."""
        return len(self.configurations)

    def is_empty(self) -> bool:
        """Return ``True`` iff the problem has no labels or no configurations.

        The empty problem plays the role of the fixed point reached by the
        pruning procedure of Section 5 when no certificate exists.
        """
        return not self.labels or not self.configurations

    def sorted_labels(self) -> List[Label]:
        """The alphabet in a deterministic (sorted) order."""
        return sorted(self.labels)

    def sorted_configurations(self) -> List[Configuration]:
        """The configurations in a deterministic (sorted) order."""
        return sorted(self.configurations)

    # ------------------------------------------------------------------
    # Configurations indexed by parent / children
    # ------------------------------------------------------------------
    def configurations_of(self, parent: Label) -> List[Configuration]:
        """All configurations whose parent label is ``parent``."""
        return sorted(c for c in self.configurations if c.parent == parent)

    def parents(self) -> FrozenSet[Label]:
        """Labels that occur as the parent of at least one configuration."""
        return frozenset(c.parent for c in self.configurations)

    def has_configuration(self, parent: Label, children: Sequence[Label]) -> bool:
        """Check membership of ``(parent : children)`` in ``C`` (children unordered)."""
        return Configuration(parent, children) in self.configurations

    # ------------------------------------------------------------------
    # Continuations (Definitions 4.4 / 4.5)
    # ------------------------------------------------------------------
    def has_continuation_below(self, label: Label) -> bool:
        """Return ``True`` iff ``label`` is the parent of at least one configuration."""
        return any(c.parent == label for c in self.configurations)

    def has_continuation_below_with(self, label: Label, allowed: Iterable[Label]) -> bool:
        """Continuation below using only labels of ``allowed`` (Definition 4.5)."""
        allowed_set = frozenset(allowed)
        if label not in allowed_set:
            return False
        return any(
            c.parent == label and c.uses_only(allowed_set) for c in self.configurations
        )

    def continuation_of(self, label: Label, allowed: Optional[Iterable[Label]] = None
                        ) -> Optional[Configuration]:
        """Return a deterministic continuation configuration for ``label`` (or ``None``).

        When ``allowed`` is given, only configurations using labels of ``allowed``
        are considered.  The lexicographically smallest matching configuration is
        returned so that repeated calls are reproducible.
        """
        allowed_set = frozenset(allowed) if allowed is not None else self.labels
        candidates = [
            c
            for c in self.configurations
            if c.parent == label and c.uses_only(allowed_set)
        ]
        if not candidates:
            return None
        return min(candidates)

    # ------------------------------------------------------------------
    # Restriction (Definition 4.3) and relabeling
    # ------------------------------------------------------------------
    def restrict(self, allowed: Iterable[Label], name: str = "") -> "LCLProblem":
        """Restriction of the problem to the labels ``allowed`` (Definition 4.3).

        The new problem keeps exactly the configurations that only use labels from
        ``allowed``.  Labels of ``allowed`` that are not in the alphabet are
        ignored.
        """
        allowed_set = frozenset(allowed) & self.labels
        configs = frozenset(c for c in self.configurations if c.uses_only(allowed_set))
        return LCLProblem(
            delta=self.delta,
            labels=allowed_set,
            configurations=configs,
            name=name or (f"{self.name}|restricted" if self.name else ""),
        )

    def relabel(self, mapping: Mapping[Label, Label]) -> "LCLProblem":
        """Rename labels according to ``mapping`` (must be injective on ``Σ``)."""
        targets = [mapping.get(label, label) for label in self.labels]
        if len(set(targets)) != len(targets):
            raise LCLError("relabeling must be injective on the alphabet")
        configs = frozenset(
            Configuration(
                mapping.get(c.parent, c.parent),
                [mapping.get(child, child) for child in c.children],
            )
            for c in self.configurations
        )
        return LCLProblem(
            delta=self.delta,
            labels=frozenset(targets),
            configurations=configs,
            name=self.name,
        )

    # ------------------------------------------------------------------
    # Path-form (Definition 4.6)
    # ------------------------------------------------------------------
    def path_form(self) -> "LCLProblem":
        """The path-form ``Π_path`` of the problem (Definition 4.6).

        ``Π_path`` is the LCL problem on directed paths (``δ = 1``) whose
        configurations are the pairs ``(a : b)`` such that some configuration of
        ``Π`` has parent ``a`` and ``b`` among its children.
        """
        pairs: Set[Configuration] = set()
        for config in self.configurations:
            for child in set(config.children):
                pairs.add(Configuration(config.parent, (child,)))
        return LCLProblem(
            delta=1,
            labels=self.labels,
            configurations=frozenset(pairs),
            name=f"{self.name}|path" if self.name else "path-form",
        )

    def path_edges(self) -> FrozenSet[Tuple[Label, Label]]:
        """The transition relation of the automaton ``M(Π)`` as ``(parent, child)`` pairs."""
        edges: Set[Tuple[Label, Label]] = set()
        for config in self.configurations:
            for child in set(config.children):
                edges.add((config.parent, child))
        return frozenset(edges)

    # ------------------------------------------------------------------
    # Solvability helpers
    # ------------------------------------------------------------------
    def infinite_continuation_labels(self) -> FrozenSet[Label]:
        """Greatest fixed point of "has a continuation below within the set".

        A label in this set can root an arbitrarily deep complete ``δ``-ary tree
        labeled correctly using only labels of the set.  The problem is solvable
        on all full ``δ``-ary trees iff this set is non-empty.
        """
        current: Set[Label] = set(self.labels)
        while True:
            nxt = {
                label
                for label in current
                if any(
                    c.parent == label and set(c.children) <= current
                    for c in self.configurations
                )
            }
            if nxt == current:
                return frozenset(current)
            current = nxt

    def is_solvable(self) -> bool:
        """Solvability on arbitrarily deep complete ``δ``-ary trees."""
        return bool(self.infinite_continuation_labels())

    def is_zero_round_solvable(self) -> bool:
        """True iff all nodes may output one fixed label without any communication.

        This requires a label ``σ`` with ``(σ : σ, ..., σ) ∈ C``; it is a strictly
        stronger requirement than ``O(1)`` solvability (cf. the MIS example of
        Section 1.3 which needs 4 rounds).
        """
        return any(
            Configuration(label, (label,) * self.delta) in self.configurations
            for label in self.labels
        )

    def special_configurations(self) -> List[Configuration]:
        """All special configurations ``(a : ..., a, ...)`` (Definition 7.1)."""
        return sorted(c for c in self.configurations if c.is_special())

    # ------------------------------------------------------------------
    # Misc
    # ------------------------------------------------------------------
    def with_name(self, name: str) -> "LCLProblem":
        """Return a copy of the problem carrying ``name``."""
        return LCLProblem(self.delta, self.labels, self.configurations, name=name)

    def summary(self) -> str:
        """One-line human readable summary."""
        label_text = ", ".join(self.sorted_labels())
        return (
            f"LCLProblem(name={self.name or '<anonymous>'}, delta={self.delta}, "
            f"|Sigma|={self.num_labels} [{label_text}], |C|={self.num_configurations})"
        )

    def __str__(self) -> str:  # pragma: no cover - convenience
        return self.summary()
