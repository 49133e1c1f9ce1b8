"""Certificate objects for ``O(log* n)`` and ``O(1)`` solvability.

This module materializes the certificates of Sections 6 and 7:

* :class:`CertificateTree` — a complete ``δ``-ary labeled tree,
* :class:`UniformCertificate` — Definition 6.1 (one tree per certificate label,
  identical leaf layers),
* :class:`CoprimeCertificate` — Definition 6.2 (two families of coprime depths),
* :class:`ConstantCertificate` — Definition 7.1 (a uniform certificate plus a
  special configuration whose repeated label occurs at a certificate leaf),
* :func:`build_uniform_certificate` — the constructive proof of Lemma 6.9 turning
  a certificate builder (Algorithm 3 output) into an actual uniform certificate,
  including the "push the special leaf down" and "balance all leaves" phases.

All certificates can be validated against the original problem; validation is
used heavily by the test-suite and by the certificate-driven distributed solvers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    Dict,
    FrozenSet,
    Iterator,
    List,
    Mapping,
    NamedTuple,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from .configuration import Configuration, Label
from .problem import LCLProblem
from .logstar_certificate import CertificateBuilder, assign_children_to_sets

_MAX_CERTIFICATE_NODES = 500_000
"""Safety cap on the size of a materialized certificate tree."""


class CertificateError(RuntimeError):
    """Raised when a certificate cannot be materialized or is malformed."""


# ----------------------------------------------------------------------
# Labeled complete trees
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class CertificateTree:
    """An immutable labeled rooted tree (complete ``δ``-ary in valid certificates)."""

    label: Label
    children: Tuple["CertificateTree", ...] = ()

    def depth(self) -> int:
        """Depth of the tree: the largest leaf depth (0 for a single node)."""
        return _walk(self).depth

    def size(self) -> int:
        """Total number of nodes."""
        return 1 + sum(child.size() for child in self.children)

    def is_complete(self, delta: int) -> bool:
        """Whether every internal node has exactly ``delta`` children and all leaves share a depth."""
        return _walk(self).is_complete(delta)

    def leaf_labels(self) -> Tuple[Label, ...]:
        """Labels of the leaves in left-to-right order."""
        return _walk(self).leaves

    def labels_used(self) -> FrozenSet[Label]:
        """All labels occurring anywhere in the tree."""
        return frozenset(_walk(self).labels)

    def iter_internal_configurations(self) -> Iterator[Configuration]:
        """Yield the configuration of every internal node."""
        if self.children:
            yield Configuration(self.label, [child.label for child in self.children])
            for child in self.children:
                yield from child.iter_internal_configurations()

    def validate_against(self, problem: LCLProblem) -> List[str]:
        """Check that every internal node uses an allowed configuration."""
        return _walk(self, _allowed_nodes(problem)).problem_issues(problem)


class _TreeShape(NamedTuple):
    """What one pre-order walk of a :class:`CertificateTree` finds."""

    arities: Set[int]
    leaf_depths: Set[int]
    labels: Set[Label]
    forbidden: List[Configuration]
    leaves: Tuple[Label, ...]

    @property
    def depth(self) -> int:
        """The largest leaf depth."""
        return max(self.leaf_depths)

    def is_complete(self, delta: int) -> bool:
        """Every internal node has ``delta`` children and all leaves share a depth."""
        return self.arities <= {delta} and len(self.leaf_depths) == 1

    def problem_issues(self, problem: LCLProblem) -> List[str]:
        """The violations :meth:`CertificateTree.validate_against` reports."""
        issues: List[str] = []
        if not self.labels <= problem.labels:
            issues.append("tree uses labels outside the problem alphabet")
        for config in self.forbidden:
            issues.append(f"configuration {config} not allowed by the problem")
        return issues


def _allowed_nodes(problem: LCLProblem) -> Set[Tuple[Label, Tuple[Label, ...]]]:
    """``(parent, sorted children)`` of every configuration of ``problem``."""
    return {(config.parent, config.children) for config in problem.configurations}


def _walk(
    tree: CertificateTree,
    allowed: Optional[Set[Tuple[Label, Tuple[Label, ...]]]] = None,
) -> _TreeShape:
    """Walk ``tree`` once, in pre-order, for every property a certificate check needs.

    The shape holds the child counts of the internal nodes, the leaf depths,
    every label, the leaf labels from left to right and, when ``allowed`` is
    given, the internal configurations outside it in
    ``iter_internal_configurations`` order.
    """
    arities: Set[int] = set()
    leaf_depths: Set[int] = set()
    labels: Set[Label] = set()
    forbidden: List[Configuration] = []
    leaves: List[Label] = []
    stack: List[Tuple[CertificateTree, int]] = [(tree, 0)]
    while stack:
        node, depth = stack.pop()
        label = node.label
        labels.add(label)
        children = node.children
        if not children:
            leaf_depths.add(depth)
            leaves.append(label)
            continue
        arities.add(len(children))
        if allowed is not None:
            child_labels = tuple(sorted([child.label for child in children]))
            if (label, child_labels) not in allowed:
                forbidden.append(Configuration(label, child_labels))
        depth += 1
        for child in reversed(children):
            stack.append((child, depth))
    return _TreeShape(arities, leaf_depths, labels, forbidden, tuple(leaves))


# ----------------------------------------------------------------------
# Uniform certificates (Definition 6.1)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class UniformCertificate:
    """A uniform certificate for ``O(log* n)`` solvability (Definition 6.1)."""

    problem: LCLProblem
    labels: FrozenSet[Label]
    depth: int
    trees: Mapping[Label, CertificateTree]

    def leaf_labels(self) -> Tuple[Label, ...]:
        """The (shared) leaf labeling of the certificate trees."""
        any_label = sorted(self.labels)[0]
        return self.trees[any_label].leaf_labels()

    def validate(self) -> List[str]:
        """Check all conditions of Definition 6.1; return a list of violations."""
        return self._check()[0]

    def _check(self) -> Tuple[List[str], Tuple[Label, ...]]:
        """:meth:`validate`'s violations and :meth:`leaf_labels`, from one walk."""
        issues: List[str] = []
        if self.depth < 1:
            issues.append("certificate depth must be at least 1")
        if set(self.trees.keys()) != set(self.labels):
            issues.append("certificate must contain exactly one tree per certificate label")
            return issues, ()
        delta = self.problem.delta
        allowed = _allowed_nodes(self.problem)
        reference_leaves: Optional[Tuple[Label, ...]] = None
        for label in sorted(self.labels):
            tree = self.trees[label]
            shape = _walk(tree, allowed)
            if tree.label != label:
                issues.append(f"tree for label {label!r} has root {tree.label!r}")
            if not shape.is_complete(delta):
                issues.append(f"tree for label {label!r} is not a complete {delta}-ary tree")
            if shape.depth != self.depth:
                issues.append(
                    f"tree for label {label!r} has depth {shape.depth}, expected {self.depth}"
                )
            if not shape.labels <= self.labels:
                issues.append(f"tree for label {label!r} uses labels outside the certificate labels")
            issues.extend(shape.problem_issues(self.problem))
            if reference_leaves is None:
                reference_leaves = shape.leaves
            elif shape.leaves != reference_leaves:
                issues.append(f"tree for label {label!r} has a different leaf labeling")
        return issues, reference_leaves or ()

    def is_valid(self) -> bool:
        """Whether the certificate satisfies Definition 6.1."""
        return not self.validate()

    def to_coprime(self) -> "CoprimeCertificate":
        """Derive a coprime certificate of depths ``(d, d+1)`` (Lemma 6.6, first direction)."""
        extended: Dict[Label, CertificateTree] = {}
        for label in sorted(self.labels):
            extended[label] = _extend_tree_by_continuation(
                self.trees[label], self.problem, self.labels
            )
        return CoprimeCertificate(
            problem=self.problem,
            labels=self.labels,
            depth_pair=(self.depth, self.depth + 1),
            trees_first={label: self.trees[label] for label in self.labels},
            trees_second=extended,
        )


def _extend_tree_by_continuation(
    tree: CertificateTree, problem: LCLProblem, allowed: FrozenSet[Label]
) -> CertificateTree:
    """Extend every leaf of ``tree`` by one level using continuations within ``allowed``."""
    if not tree.children:
        continuation = problem.continuation_of(tree.label, allowed)
        if continuation is None:
            raise CertificateError(
                f"label {tree.label!r} has no continuation below within {sorted(allowed)}"
            )
        children = tuple(CertificateTree(child) for child in continuation.children)
        return CertificateTree(tree.label, children)
    return CertificateTree(
        tree.label,
        tuple(_extend_tree_by_continuation(child, problem, allowed) for child in tree.children),
    )


# ----------------------------------------------------------------------
# Coprime certificates (Definition 6.2)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class CoprimeCertificate:
    """A coprime certificate for ``O(log* n)`` solvability (Definition 6.2)."""

    problem: LCLProblem
    labels: FrozenSet[Label]
    depth_pair: Tuple[int, int]
    trees_first: Mapping[Label, CertificateTree]
    trees_second: Mapping[Label, CertificateTree]

    def validate(self) -> List[str]:
        """Check all conditions of Definition 6.2; return a list of violations."""
        from math import gcd

        issues: List[str] = []
        d1, d2 = self.depth_pair
        if d1 < 1 or d2 < 1:
            issues.append("both depths must be at least 1")
        if gcd(d1, d2) != 1:
            issues.append(f"depths {d1} and {d2} are not coprime")
        allowed = _allowed_nodes(self.problem)
        for depth, trees in ((d1, self.trees_first), (d2, self.trees_second)):
            if set(trees.keys()) != set(self.labels):
                issues.append("each family must contain exactly one tree per certificate label")
                continue
            reference: Optional[Tuple[Label, ...]] = None
            for label in sorted(self.labels):
                tree = trees[label]
                shape = _walk(tree, allowed)
                if tree.label != label:
                    issues.append(f"tree for label {label!r} has root {tree.label!r}")
                if not shape.is_complete(self.problem.delta) or shape.depth != depth:
                    issues.append(
                        f"tree for label {label!r} is not a complete tree of depth {depth}"
                    )
                issues.extend(shape.problem_issues(self.problem))
                leaves = shape.leaves
                if reference is None:
                    reference = leaves
                elif leaves != reference:
                    issues.append(
                        f"tree for label {label!r} (depth {depth}) has a different leaf labeling"
                    )
        return issues

    def is_valid(self) -> bool:
        """Whether the certificate satisfies Definition 6.2."""
        return not self.validate()


# ----------------------------------------------------------------------
# Constant certificates (Definition 7.1)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ConstantCertificate:
    """A certificate for ``O(1)`` solvability (Definition 7.1)."""

    uniform: UniformCertificate
    special_configuration: Configuration

    @property
    def problem(self) -> LCLProblem:
        """The underlying problem."""
        return self.uniform.problem

    @property
    def labels(self) -> FrozenSet[Label]:
        """The certificate labels ``Σ_T``."""
        return self.uniform.labels

    @property
    def special_label(self) -> Label:
        """The repeated label ``a`` of the special configuration."""
        return self.special_configuration.parent

    def validate(self) -> List[str]:
        """Check all conditions of Definition 7.1; return a list of violations."""
        issues, leaves = self.uniform._check()
        return issues + _special_configuration_issues(
            self.uniform, self.special_configuration, leaves
        )

    def is_valid(self) -> bool:
        """Whether the certificate satisfies Definition 7.1."""
        return not self.validate()


def _special_configuration_issues(
    uniform: UniformCertificate, config: Configuration, leaves: Sequence[Label]
) -> List[str]:
    """What Definition 7.1 adds to a uniform certificate: the special configuration.

    ``leaves`` is the certificate's leaf labeling.
    """
    issues: List[str] = []
    if not config.is_special():
        issues.append(f"configuration {config} is not special (parent not among children)")
    if config not in uniform.problem.configurations:
        issues.append(f"special configuration {config} not allowed by the problem")
    if not config.labels <= uniform.labels:
        issues.append("special configuration uses labels outside the certificate labels")
    if config.parent not in leaves:
        issues.append(
            f"special label {config.parent!r} does not occur at a certificate leaf"
        )
    return issues


# ----------------------------------------------------------------------
# Lemma 6.9: from certificate builders to uniform certificates
# ----------------------------------------------------------------------
class _TemplateNode:
    """A mutable node of the *simplified temporary tree* of Lemma 6.9.

    Each node carries a set of possible labels; leaves are singletons.  The
    template is later instantiated once per certificate label.
    """

    __slots__ = ("label_set", "children")

    def __init__(self, label_set: FrozenSet[Label], children: Optional[List["_TemplateNode"]] = None):
        self.label_set = label_set
        self.children: List[_TemplateNode] = children if children is not None else []

    def is_leaf(self) -> bool:
        return not self.children

    def depth(self) -> int:
        if not self.children:
            return 0
        return 1 + max(child.depth() for child in self.children)


def _special_trace(builder: CertificateBuilder) -> List[int]:
    """The child-index path from the builder root to the designated special leaf.

    The trace follows children whose flag is set; every flagged pair other than
    the initial ``({a}, True)`` has a builder entry (flags are only set at
    initialization for the special label itself), so the trace always terminates
    at the singleton of the special label.
    """
    assert builder.special_label is not None
    special_singleton = (frozenset({builder.special_label}), True)
    trace: List[int] = []
    key = builder.root
    guard = 0
    while key != special_singleton:
        if key not in builder.entries:
            raise CertificateError("special-label trace lost while walking the builder")
        child_keys = builder.entries[key]
        chosen = None
        for index, child_key in enumerate(child_keys):
            if child_key[1]:
                chosen = index
                key = child_key
                break
        if chosen is None:
            raise CertificateError("special-label trace lost: no flagged child")
        trace.append(chosen)
        guard += 1
        if guard > len(builder.entries) + len(builder.label_set) + 2:
            raise CertificateError("special-label trace does not terminate")
    return trace


def _expand_template(builder: CertificateBuilder) -> Tuple[_TemplateNode, Optional[List[int]]]:
    """Build the simplified temporary tree of Lemma 6.9 from a certificate builder.

    Returns the template root and, when the builder has a special label, the
    child-index path from the root to the designated special leaf.  Singleton
    pairs become leaves, except along the special-label trace, where derived
    singletons are expanded further so that the trace ends exactly at the
    special label.
    """
    node_budget = [0]
    special_trace = (
        _special_trace(builder) if builder.special_label is not None else None
    )

    def expand(key, trace: Optional[List[int]]) -> _TemplateNode:
        node_budget[0] += 1
        if node_budget[0] > _MAX_CERTIFICATE_NODES:
            raise CertificateError("certificate template exceeds the size safety cap")
        label_set, _flag = key
        on_trace = trace is not None
        must_expand = on_trace and bool(trace)
        if (len(label_set) == 1 and not must_expand) or key not in builder.entries:
            if len(label_set) != 1:
                raise CertificateError(
                    f"builder has no entry for non-singleton set {sorted(label_set)}"
                )
            return _TemplateNode(label_set)
        children = []
        for index, child_key in enumerate(builder.entries[key]):
            child_trace: Optional[List[int]] = None
            if must_expand and trace and index == trace[0]:
                child_trace = trace[1:]
            children.append(expand(child_key, child_trace))
        return _TemplateNode(label_set, children)

    root = expand(builder.root, special_trace)

    if special_trace is not None:
        end = _node_at(root, special_trace)
        if end.label_set != frozenset({builder.special_label}):
            raise CertificateError("special-label trace did not end at the special leaf")
        if not end.is_leaf():
            raise CertificateError("special-label trace ended at an internal node")
    return root, special_trace


def _node_at(root: _TemplateNode, path: Sequence[int]) -> _TemplateNode:
    node = root
    for index in path:
        node = node.children[index]
    return node


class _ChildAssigner:
    """Children labels for a template node, memoized per certificate build.

    The labels a node's children get (the final phase of Lemma 6.9) depend
    only on the node's label and its children's label sets: the first
    configuration of the label, in sorted order, whose children can be
    assigned to those sets.  One build instantiates the template once per
    certificate label and once per push-down step, so each such pair is
    resolved once for all of them.
    """

    __slots__ = ("options", "memo")

    def __init__(self, problem: LCLProblem) -> None:
        self.options: Dict[Label, List[Configuration]] = {}
        for config in problem.sorted_configurations():
            self.options.setdefault(config.parent, []).append(config)
        self.memo: Dict[Tuple[Label, Tuple[FrozenSet[Label], ...]], Tuple[Label, ...]] = {}

    def __call__(
        self, label: Label, child_sets: Tuple[FrozenSet[Label], ...]
    ) -> Tuple[Label, ...]:
        key = (label, child_sets)
        assignment = self.memo.get(key)
        if assignment is None:
            for config in self.options.get(label, ()):
                assignment = assign_children_to_sets(config, child_sets)
                if assignment is not None:
                    break
            else:
                raise CertificateError(
                    f"no configuration for label {label!r} matches the template children"
                )
            self.memo[key] = assignment
        return assignment


def _instantiate(
    template: _TemplateNode,
    root_label: Label,
    assign: _ChildAssigner,
    memo: Dict[Tuple[_TemplateNode, Label], CertificateTree],
) -> CertificateTree:
    """Instantiate the template with a concrete root label (final phase of Lemma 6.9).

    The subtree under a template node depends only on that node and its
    label, so ``memo`` maps ``(node, label)`` to the tree built for it.
    Sharing one memo across the certificate labels lets their trees share
    subtree objects: each is built once.  Trees are immutable and
    :meth:`UniformCertificate.validate` still walks every node of every
    tree, so sharing changes neither the trees nor their checks.  A memo
    is only valid while the template does not change.
    """

    def build(node: _TemplateNode, label: Label) -> CertificateTree:
        key = (node, label)
        tree = memo.get(key)
        if tree is None:
            if node.children:
                assignment = assign(
                    label, tuple([child.label_set for child in node.children])
                )
                tree = CertificateTree(
                    label,
                    tuple(
                        build(child, child_label)
                        for child, child_label in zip(node.children, assignment)
                    ),
                )
            else:
                tree = CertificateTree(label)
            memo[key] = tree
        return tree

    if root_label not in template.label_set:
        raise CertificateError(f"root label {root_label!r} not in the template root set")
    return build(template, root_label)


def _graft_special_path(
    template: _TemplateNode,
    special_path: List[int],
    assign: _ChildAssigner,
    special_label: Label,
) -> List[int]:
    """One "push the special leaf down" step of Lemma 6.9 (second phase).

    The template is instantiated with the special label at the root; the hairy
    path from the root down to the special leaf of that instance is grafted below
    the current special leaf.  Returns the path to the new special leaf.
    """
    # A graft changes the template, so this instance gets a memo of its own.
    instance = _instantiate(template, special_label, assign, {})
    # Walk the instance along the special path, collecting (node, next-index) info.
    instance_nodes: List[CertificateTree] = [instance]
    node = instance
    for index in special_path:
        node = node.children[index]
        instance_nodes.append(node)
    # Build the graft: a chain of singleton template nodes following the path,
    # with the off-path children of every path node attached as singleton leaves.
    def build_chain(position: int) -> _TemplateNode:
        current = instance_nodes[position]
        if position == len(instance_nodes) - 1:
            return _TemplateNode(frozenset({current.label}))
        next_index = special_path[position]
        children: List[_TemplateNode] = []
        for index, child in enumerate(current.children):
            if index == next_index:
                children.append(build_chain(position + 1))
            else:
                children.append(_TemplateNode(frozenset({child.label})))
        return _TemplateNode(frozenset({current.label}), children)

    graft = build_chain(0)
    # Replace the current special leaf by the graft (they carry the same singleton).
    special_leaf = _node_at(template, special_path)
    if special_leaf.label_set != graft.label_set:
        raise CertificateError("graft root label does not match the special leaf")
    special_leaf.children = graft.children
    return list(special_path) + list(special_path)


def _balance_leaves(
    template: _TemplateNode, problem: LCLProblem, allowed: FrozenSet[Label], target: int
) -> None:
    """Third phase of Lemma 6.9: extend shallow leaves until all reach depth ``target``.

    ``target`` is the template's depth.  One pre-order walk gives every
    leaf above it its continuation's children and walks on into them.
    ``allowed`` is fixed, so each label's continuation is looked up once.
    """
    continuations: Dict[Label, Optional[Configuration]] = {}
    nodes = 0
    stack: List[Tuple[_TemplateNode, int]] = [(template, 0)]
    while stack:
        node, depth = stack.pop()
        nodes += 1
        if nodes > _MAX_CERTIFICATE_NODES:
            raise CertificateError("certificate grew beyond the size safety cap while balancing")
        if not node.children and depth < target:
            label = next(iter(node.label_set))
            if label in continuations:
                continuation = continuations[label]
            else:
                continuation = continuations[label] = problem.continuation_of(label, allowed)
            if continuation is None:
                raise CertificateError(
                    f"label {label!r} has no continuation below within the certificate labels"
                )
            node.children = [
                _TemplateNode(frozenset({child})) for child in continuation.children
            ]
        stack.extend((child, depth + 1) for child in reversed(node.children))


def build_uniform_certificate(builder: CertificateBuilder) -> UniformCertificate:
    """Materialize a uniform certificate from a certificate builder (Lemma 6.9).

    Every certificate returned has been validated against Definition 6.1.
    """
    return _build_uniform(builder)[0]


def _build_uniform(
    builder: CertificateBuilder,
) -> Tuple[UniformCertificate, Tuple[Label, ...]]:
    """:func:`build_uniform_certificate`, plus the leaf labeling its validation read."""
    problem = builder.problem
    labels = builder.label_set

    # Degenerate case: a single certificate label.
    if len(labels) == 1:
        label = next(iter(labels))
        config = problem.continuation_of(label, labels)
        if config is None:
            raise CertificateError(
                f"single-label builder for {label!r} without a continuation below"
            )
        tree = CertificateTree(label, tuple(CertificateTree(child) for child in config.children))
        return _validated(
            UniformCertificate(problem=problem, labels=labels, depth=1, trees={label: tree})
        )

    template, special_path = _expand_template(builder)
    assign = _ChildAssigner(problem)
    depth = template.depth()

    # Phase 2 (only with a special label): push the special leaf down until it is deepest.
    if special_path is not None and builder.special_label is not None:
        guard = 0
        while len(special_path) < depth:
            special_path = _graft_special_path(
                template, special_path, assign, builder.special_label
            )
            # The graft's deepest leaf is the new special leaf; no other
            # leaf moves.
            depth = max(depth, len(special_path))
            guard += 1
            if guard > 64:
                raise CertificateError("push-down phase did not converge")

    # Phase 3: balance all leaves to the same depth, then build every tree
    # through one memo, so subtrees the trees have in common are built once.
    _balance_leaves(template, problem, labels, depth)
    memo: Dict[Tuple[_TemplateNode, Label], CertificateTree] = {}
    trees: Dict[Label, CertificateTree] = {}
    for label in sorted(labels):
        trees[label] = _instantiate(template, label, assign, memo)
    return _validated(
        UniformCertificate(problem=problem, labels=labels, depth=depth, trees=trees)
    )


def _validated(
    certificate: UniformCertificate,
) -> Tuple[UniformCertificate, Tuple[Label, ...]]:
    """``certificate`` and its leaf labeling, once Definition 6.1 holds for it in full."""
    issues, leaves = certificate._check()
    if issues:
        raise CertificateError("materialized certificate is invalid: " + "; ".join(issues))
    return certificate, leaves


def build_constant_certificate(
    builder: CertificateBuilder, special_configuration: Configuration
) -> ConstantCertificate:
    """Materialize a constant-time certificate (Definition 7.1) from a builder.

    :func:`build_uniform_certificate` has validated the uniform part, so only
    the conditions Definition 7.1 adds are checked here, against the leaf
    labeling that validation walked.
    """
    uniform, leaves = _build_uniform(builder)
    issues = _special_configuration_issues(uniform, special_configuration, leaves)
    if issues:
        raise CertificateError("materialized constant certificate is invalid: " + "; ".join(issues))
    return ConstantCertificate(uniform=uniform, special_configuration=special_configuration)
