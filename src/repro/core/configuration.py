"""Node configurations of LCL problems on rooted regular trees.

A configuration ``x : y1 y2 ... yδ`` (Definition 4.1 of the paper) states that an
internal node labeled ``x`` may have children labeled ``y1, ..., yδ`` *in some
order*.  The order of the children is irrelevant, so a configuration is a pair
``(parent, multiset of children)``.  We store the children as a sorted tuple,
which gives every configuration a unique canonical form and makes configurations
hashable and comparable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Tuple

Label = str
"""Type alias for node labels.  Labels are short strings such as ``"1"`` or ``"a"``."""

_set_field = object.__setattr__  # how a frozen dataclass sets its fields


@dataclass(frozen=True, order=True, init=False)
class Configuration:
    """A single allowed configuration ``parent : children``.

    Parameters
    ----------
    parent:
        The label of the internal node.
    children:
        The labels of its ``δ`` children.  The tuple is canonicalized (sorted) on
        construction, so ``Configuration("1", ("2", "3"))`` and
        ``Configuration("1", ("3", "2"))`` compare equal.
    """

    parent: Label
    children: Tuple[Label, ...] = ()

    def __init__(self, parent: Label, children: Iterable[Label] = ()) -> None:
        # The children are sorted once, on the way in.  Writing through
        # ``self.__dict__`` would be quicker still, but it gives every
        # instance a dict of its own: more memory and slower attribute reads.
        _set_field(self, "parent", parent)
        _set_field(self, "children", tuple(sorted(children)))

    @property
    def delta(self) -> int:
        """The number of children in this configuration."""
        return len(self.children)

    @property
    def labels(self) -> frozenset:
        """The set of labels used by this configuration (parent and children)."""
        return frozenset((self.parent,) + self.children)

    def uses_only(self, allowed: Iterable[Label]) -> bool:
        """Return ``True`` iff every label of the configuration is in ``allowed``."""
        allowed_set = frozenset(allowed)
        return self.labels <= allowed_set

    def is_special(self) -> bool:
        """Return ``True`` iff this is a *special* configuration (Definition 7.1).

        A configuration is special when the parent label also appears among the
        children, i.e. it has the form ``(a : b1, ..., a, ..., bδ)``.  Special
        configurations are the key ingredient of constant-time solvability.
        """
        return self.parent in self.children

    def to_text(self) -> str:
        """Render the configuration in the paper's notation, e.g. ``"1 : 2 3"``."""
        return f"{self.parent} : {' '.join(self.children)}"

    def __str__(self) -> str:  # pragma: no cover - convenience
        return self.to_text()


def configuration(parent: Label, *children: Label) -> Configuration:
    """Convenience constructor: ``configuration("1", "2", "3")``."""
    return Configuration(parent, children)
