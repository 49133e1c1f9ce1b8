"""Catalog of LCL problems on rooted regular trees.

All sample problems of the paper are provided here, together with their known
complexity classes (used as golden values by the test-suite and benchmarks):

* proper ``c``-coloring (Section 1.2) — ``Θ(log* n)`` for ``c >= 3``,
  ``Θ(n)`` for ``c = 2``;
* maximal independent set (Section 1.3) — ``O(1)``;
* branch 2-coloring (Section 1.4) — ``Θ(log n)``;
* the combined problem ``Π_0`` of Figure 2 — ``Θ(log n)``;
* the polynomial family ``Π_k`` of Section 8 — ``Θ(n^{1/k})``;
* assorted trivial / unsolvable problems used as edge cases.
"""

from __future__ import annotations

from itertools import combinations_with_replacement
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..core.complexity import ComplexityClass
from ..core.configuration import Configuration, Label
from ..core.problem import LCLProblem


def _multisets(labels: Sequence[Label], size: int) -> Iterable[Tuple[Label, ...]]:
    """All multisets (as sorted tuples) of the given size over ``labels``."""
    return combinations_with_replacement(sorted(labels), size)


# ----------------------------------------------------------------------
# Coloring problems
# ----------------------------------------------------------------------
def coloring(num_colors: int, delta: int = 2) -> LCLProblem:
    """Proper vertex coloring with ``num_colors`` colors on rooted ``δ``-ary trees.

    A node's color must differ from all its children's colors (which, together
    with the parent constraint applied at the parent, encodes proper coloring of
    the tree).  For ``num_colors >= 3`` the complexity is ``Θ(log* n)``
    (Section 1.2); for ``num_colors = 2`` it is ``Θ(n)``.
    """
    if num_colors < 1:
        raise ValueError("need at least one color")
    labels = [str(index) for index in range(1, num_colors + 1)]
    configurations: List[Tuple[Label, Tuple[Label, ...]]] = []
    for parent in labels:
        others = [label for label in labels if label != parent]
        for children in _multisets(others, delta):
            configurations.append((parent, children))
    return LCLProblem.create(
        delta=delta,
        configurations=configurations,
        labels=labels,
        name=f"{num_colors}-coloring (delta={delta})",
    )


def two_coloring(delta: int = 2) -> LCLProblem:
    """Proper 2-coloring (Section 1.2, equation (2)) — a global problem, ``Θ(n)``."""
    return coloring(2, delta=delta).with_name(f"2-coloring (delta={delta})")


def three_coloring(delta: int = 2) -> LCLProblem:
    """Proper 3-coloring (Section 1.2, equation (1)) — ``Θ(log* n)``."""
    return coloring(3, delta=delta).with_name(f"3-coloring (delta={delta})")


# ----------------------------------------------------------------------
# Maximal independent set (Section 1.3)
# ----------------------------------------------------------------------
def maximal_independent_set(delta: int = 2) -> LCLProblem:
    """Maximal independent set encoded with labels ``{1, a, b}`` (Section 1.3).

    ``1`` marks nodes in the independent set, ``a`` marks nodes whose parent is
    in the set, ``b`` marks nodes with a child in the set.  For ``δ = 2`` the
    configurations are exactly equation (3) of the paper; the natural
    generalization is used for larger ``δ``.  The complexity is ``O(1)``.
    """
    configurations: List[Tuple[Label, Tuple[Label, ...]]] = []
    # A node in the set: children are not in the set (labels a or b).
    for children in _multisets(["a", "b"], delta):
        configurations.append(("1", children))
    # A node with label a (parent in the set): no child in the set, and no child
    # may rely on this node being in the set, so all children are labeled b.
    configurations.append(("a", tuple(["b"] * delta)))
    # A node with label b: at least one child in the set, the rest either in the
    # set or b themselves.
    for children in _multisets(["1", "b"], delta):
        if "1" in children:
            configurations.append(("b", children))
    return LCLProblem.create(
        delta=delta,
        configurations=configurations,
        labels=["1", "a", "b"],
        name=f"maximal independent set (delta={delta})",
    )


# ----------------------------------------------------------------------
# Log-class problems
# ----------------------------------------------------------------------
def branch_two_coloring(delta: int = 2) -> LCLProblem:
    """Branch 2-coloring (Section 1.4, equation (5)) — ``Θ(log n)``.

    ``1 : 1 2`` and ``2 : 1 1``: below every node labeled ``1`` there is both a
    monochromatic branch and a properly 2-colored branch.
    """
    if delta < 2:
        raise ValueError("branch 2-coloring needs delta >= 2")
    configurations = [
        ("1", tuple(["1"] * (delta - 1) + ["2"])),
        ("2", tuple(["1"] * delta)),
    ]
    return LCLProblem.create(
        delta=delta,
        configurations=configurations,
        labels=["1", "2"],
        name=f"branch 2-coloring (delta={delta})",
    )


def figure2_combined_problem() -> LCLProblem:
    """The problem ``Π_0`` of Figure 2: branch 2-coloring combined with 2-coloring.

    Labels ``{1, 2}`` implement branch 2-coloring and labels ``{a, b}`` implement
    proper 2-coloring; the labels ``a, b`` are pruned by Algorithm 2 and the
    complexity is ``Θ(log n)``.
    """
    configurations = [
        ("a", ("b", "b")),
        ("b", ("a", "a")),
        ("1", ("1", "2")),
        ("2", ("1", "1")),
    ]
    return LCLProblem.create(
        delta=2,
        configurations=configurations,
        labels=["1", "2", "a", "b"],
        name="figure-2 combined problem",
    )


# ----------------------------------------------------------------------
# Polynomial family (Section 8)
# ----------------------------------------------------------------------
def pi_k(k: int) -> LCLProblem:
    """The problem ``Π_k`` of Section 8 with complexity ``Θ(n^{1/k})`` (``δ = 2``).

    The alphabet is ``{a_1, b_1, x_1, ..., x_{k-1}, a_k, b_k}``; ``Π_k`` combines
    ``k`` proper 2-coloring problems through the one-sided separator labels
    ``x_i``.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    delta = 2
    labels: List[Label] = []
    for index in range(1, k + 1):
        labels.extend([f"a{index}", f"b{index}"])
        if index < k:
            labels.append(f"x{index}")
    configurations: List[Tuple[Label, Tuple[Label, ...]]] = []

    def lower_labels(index: int) -> List[Label]:
        lower: List[Label] = []
        for j in range(1, index):
            lower.extend([f"a{j}", f"b{j}", f"x{j}"])
        return lower

    for index in range(1, k + 1):
        allowed_a = lower_labels(index) + [f"b{index}"]
        allowed_b = lower_labels(index) + [f"a{index}"]
        for children in _multisets(allowed_a, delta):
            configurations.append((f"a{index}", children))
        for children in _multisets(allowed_b, delta):
            configurations.append((f"b{index}", children))
    for index in range(1, k):
        restricted = lower_labels(index) + [f"a{index}", f"b{index}"]
        for first in sorted(labels):
            for second in restricted:
                configurations.append((f"x{index}", tuple(sorted((first, second)))))
    return LCLProblem.create(
        delta=delta,
        configurations=configurations,
        labels=labels,
        name=f"Pi_{k} (Section 8)",
    )


# ----------------------------------------------------------------------
# Edge cases
# ----------------------------------------------------------------------
def trivial_problem(delta: int = 2) -> LCLProblem:
    """A single label, always allowed — solvable with zero rounds."""
    return LCLProblem.create(
        delta=delta,
        configurations=[("1", tuple(["1"] * delta))],
        labels=["1"],
        name=f"trivial problem (delta={delta})",
    )


def unconstrained_problem(num_labels: int = 2, delta: int = 2) -> LCLProblem:
    """Every configuration over ``num_labels`` labels is allowed — zero rounds."""
    labels = [str(index) for index in range(1, num_labels + 1)]
    configurations = [
        (parent, children) for parent in labels for children in _multisets(labels, delta)
    ]
    return LCLProblem.create(
        delta=delta,
        configurations=configurations,
        labels=labels,
        name=f"unconstrained problem ({num_labels} labels, delta={delta})",
    )


def unsolvable_problem(delta: int = 2) -> LCLProblem:
    """A problem with no valid labeling of deep complete trees.

    The only configuration is ``1 : 2 ... 2`` and label ``2`` has no continuation
    below, so complete trees of depth at least two cannot be labeled.
    """
    return LCLProblem.create(
        delta=delta,
        configurations=[("1", tuple(["2"] * delta))],
        labels=["1", "2"],
        name=f"unsolvable problem (delta={delta})",
    )


# ----------------------------------------------------------------------
# Catalog with golden complexities
# ----------------------------------------------------------------------
def catalog() -> Dict[str, Tuple[LCLProblem, ComplexityClass]]:
    """All named sample problems together with their known complexity classes."""
    entries: Dict[str, Tuple[LCLProblem, ComplexityClass]] = {
        "trivial": (trivial_problem(), ComplexityClass.CONSTANT),
        "unconstrained": (unconstrained_problem(), ComplexityClass.CONSTANT),
        "mis": (maximal_independent_set(), ComplexityClass.CONSTANT),
        "3-coloring": (three_coloring(), ComplexityClass.LOGSTAR),
        "4-coloring": (coloring(4), ComplexityClass.LOGSTAR),
        "branch-2-coloring": (branch_two_coloring(), ComplexityClass.LOG),
        "figure-2-combined": (figure2_combined_problem(), ComplexityClass.LOG),
        "2-coloring": (two_coloring(), ComplexityClass.POLYNOMIAL),
        "pi-1": (pi_k(1), ComplexityClass.POLYNOMIAL),
        "pi-2": (pi_k(2), ComplexityClass.POLYNOMIAL),
        "pi-3": (pi_k(3), ComplexityClass.POLYNOMIAL),
        "unsolvable": (unsolvable_problem(), ComplexityClass.UNSOLVABLE),
    }
    return entries
