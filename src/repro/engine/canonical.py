"""Canonical forms of LCL problems, invariant under label renaming.

Two LCL problems that differ only by a bijective renaming of their labels have
exactly the same round complexity (renaming commutes with every definition in
the paper), so re-running the exponential-time certificate searches on every
isomorphic copy is pure waste.  This module computes, for each problem, a
*canonical form*: a relabeling of the problem onto the fixed alphabet
``"0", "1", ..."`` such that every problem in the same renaming orbit maps to
the identical canonical problem.  The canonical form's stable text key is what
the classification cache (:mod:`repro.engine.cache`) uses as its index.

The canonical labeling is defined in two steps:

1. *Invariant partition.*  Each label gets a renaming-invariant signature
   (how often it parents a configuration, its child-occurrence profile, its
   self-loop count, ...), computed in one pass over the configurations.
   Sorting labels by signature splits the alphabet into ordered groups that
   any canonicalizing order must respect: position ``i`` of a label order
   belongs to one group, and only that group's labels may fill it.
2. *Minimization within groups.*  Among all such group-respecting orders,
   take the one whose relabeled configuration list -- ``(parent index,
   sorted child indices)`` tuples, sorted -- is lexicographically smallest;
   among equally small orders, the first one in ``itertools.permutations``
   order (positions filled left to right, each group's labels tried in
   sorted order).  An isomorphism maps signature groups onto signature
   groups, so both problems range over the same candidates and reach the
   same minimum.

Step 2 is an exact depth-first search over partial orders, pruned three
ways without ever changing the answer:

* **Prefix lower bound.**  Configurations whose parent is already placed
  sort before all others, and every group-respecting order places the same
  number of them (labels of one group share their parent count).  Giving
  each unplaced child the smallest index it can still get -- the current
  depth, or its group's first position when that is later -- bounds that
  prefix of the key from below; a node whose bound exceeds the best key's
  prefix cannot lead to a smaller key.
* **Greedy upper bound.**  Before the search, one greedy descent (at each
  position, the candidate with the smallest bound) yields a complete order
  whose key starts as the best key, so the bound prunes from the first node.
* **Automorphisms** (the nauty scheme of McKay and Piperno).  Two orders
  with the same key differ by a label permutation that maps the problem onto
  itself.  A leaf equal to the best key yields one; the search jumps back to
  the node where the two paths diverge, and at every node it skips any
  candidate in the orbit of an already explored one under the automorphisms
  that fix the current prefix pointwise -- that subtree repeats an earlier
  one key for key.

Nothing is capped: 8-coloring, with ``8! = 40320`` orders that all tie,
takes milliseconds.  The search polls
:func:`~repro.core.cancellation.checkpoint` once per node, so a request's
deadline or cancel scope bounds canonicalization like any other search.
The key text renders labels as strings, so from 11 labels up its
configuration order is string order ("10" < "2"), not index order.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import cached_property
from operator import add, itemgetter
from typing import Dict, Iterable, List, Mapping, Sequence, Set, Tuple

from ..core.cancellation import checkpoint
from ..core.configuration import Configuration, Label
from ..core.problem import LCLProblem

_first = itemgetter(0)


def _signature_groups(problem: LCLProblem) -> List[List[Label]]:
    """Partition the alphabet into signature groups, in canonical group order.

    A label's signature only aggregates *counts* (never label identities), so
    any bijective renaming preserves it: the number of configurations it
    parents, its total child occurrences, the sorted ``(distinct children,
    own occurrences, special?)`` profiles of the configurations it parents,
    and the sorted ``(occurrences, is parent?)`` profiles of those it is a
    child in.  Labels in no configuration share the smallest signature and
    every order of them ties, so they come first as one-label groups in
    sorted order -- the order the search would pick -- and cost it nothing.
    """
    labels = problem.labels
    parented: Dict[Label, List[Tuple[int, int, int]]] = {label: [] for label in labels}
    childed: Dict[Label, List[Tuple[int, int]]] = {label: [] for label in labels}
    for config in problem.configurations:
        parent, children = config.parent, config.children
        distinct = set(children)
        if parent in distinct:
            own = children.count(parent)
            parented[parent].append((len(distinct), own, 1))
            childed[parent].append((own, 1))
            distinct.remove(parent)
        else:
            parented[parent].append((len(distinct), 0, 0))
        for child in distinct:
            childed[child].append((children.count(child), 0))
    unused: List[List[Label]] = []
    by_signature: Dict[Tuple, List[Label]] = {}
    for label in sorted(labels):
        parents, children = parented[label], childed[label]
        if not (parents or children):
            unused.append([label])
            continue
        parents.sort()
        children.sort()
        signature = (
            len(parents),
            sum(map(_first, children)),
            tuple(parents),
            tuple(children),
        )
        by_signature.setdefault(signature, []).append(label)
    return unused + [by_signature[signature] for signature in sorted(by_signature)]


def _canonical_order(
    problem: LCLProblem, groups: Sequence[Sequence[Label]]
) -> List[Label]:
    """The first minimal group-respecting label order (module docstring)."""
    labels = [label for group in groups for label in group]
    if len(labels) == len(groups):
        checkpoint()  # one order only: a search of a single node
        return labels
    search = _OrderSearch(problem, labels, [len(group) for group in groups])
    return [labels[c] for c in search.run()]


class _OrderSearch:
    """Depth-first search for the first minimal group-respecting order.

    Labels are numbered in signature order, so a group owns the ids
    ``lo..hi-1`` *and* the positions ``lo..hi-1``, and a position's
    candidates are its group's unplaced ids in increasing (sorted-label)
    order.

    A configuration whose children sit at indices ``i1..iδ`` is encoded as
    ``-sum((δ+1) ** (n-1-i))``: smaller indices weigh more and base ``δ+1``
    never carries, so the codes sort exactly as the sorted child-index
    tuples do.  A *segment* is the sorted codes of one position's
    configurations; every order gives position ``i`` the same number of
    them, so a key -- the tuple of all ``n`` segments -- compares like the
    sorted configuration list.  ``weight[c]`` is child ``c``'s term: from its
    position once placed, else from the smallest index it can still get,
    which makes segments of a partial order lower bounds.
    """

    def __init__(
        self, problem: LCLProblem, labels: Sequence[Label], group_sizes: Sequence[int]
    ) -> None:
        n = self.n = len(labels)
        id_of = {label: index for index, label in enumerate(labels)}
        self.group_lo: List[int] = []
        self.group_hi: List[int] = []
        for size in group_sizes:
            lo = len(self.group_lo)
            self.group_lo.extend([lo] * size)
            self.group_hi.extend([lo + size] * size)
        index = id_of.__getitem__
        kids: List[List[Tuple[int, ...]]] = [[] for _ in range(n)]
        for config in problem.configurations:
            kids[index(config.parent)].append(tuple(map(index, config.children)))
        # Children of each parent, one tuple per child slot, for map().
        slots = range(problem.delta)
        self.columns = [
            [tuple(children[slot] for children in configs) for slot in slots]
            for configs in kids
        ]
        self.parents_of: List[List[int]] = [[] for _ in range(n)]
        for parent, configs in enumerate(kids):
            for child in {child for children in configs for child in children}:
                self.parents_of[child].append(parent)
        base = problem.delta + 1
        self.term = [-(base ** (n - 1 - index)) for index in range(n)]
        self.pos = [-1] * n
        self.weight = [self.term[lo] for lo in self.group_lo]
        self.order: List[int] = []
        self.best_key: Tuple[List[int], ...] = ()
        self.best_order: List[int] = []
        self.found = False  # whether best_order is a leaf the search reached
        self.version = 0  # bumped whenever best_key shrinks
        self.generators: List[List[int]] = []  # automorphisms, id -> id

    def segment(self, i: int) -> List[int]:
        weight = self.weight.__getitem__
        columns = self.columns[self.order[i]]
        codes = map(weight, columns[0])
        for column in columns[1:]:
            codes = map(add, codes, map(weight, column))
        return sorted(codes)

    def full_key(self) -> Tuple[List[int], ...]:
        return tuple(self.segment(i) for i in range(self.n))

    def unplaced(self, d: int) -> List[int]:
        pos = self.pos
        return [c for c in range(self.group_lo[d], self.group_hi[d]) if pos[c] < 0]

    def place(self, c: int, d: int) -> None:
        self.pos[c] = d
        self.weight[c] = self.term[d]
        self.order.append(c)

    def unplace(self, c: int) -> None:
        self.order.pop()
        self.pos[c] = -1
        self.weight[c] = self.term[self.group_lo[c]]

    def lower(self, labels: Sequence[int], d: int) -> None:
        """Bound the unplaced ``labels`` by index ``d``."""
        term = self.term[d]
        for c in labels:
            self.weight[c] = term

    def touched(self, labels: Sequence[int], last: int) -> List[int]:
        """Positions of the placed parents of ``labels``, plus ``last``."""
        pos = self.pos
        found = {pos[p] for c in labels for p in self.parents_of[c] if pos[p] >= 0}
        found.add(last)
        return sorted(found)

    def compare(self, positions: Iterable[int]) -> int:
        """Sign of the bound minus the best key, over ``positions`` in order."""
        best = self.best_key
        for i in positions:
            mine = self.segment(i)
            if mine != best[i]:
                return -1 if mine < best[i] else 1
        return 0

    def run(self) -> List[int]:
        """Search depth first, iteratively (alphabets can be deep)."""
        self.greedy()
        stack: List[_Node] = []
        back = self.enter(0, -1, stack)
        while stack:
            node = stack[-1]
            if node.current >= 0:  # its child's subtree is done
                self.unplace(node.current)
                _close(node.explored, [node.current], node.usable)
                node.current = -1
                if back < node.d:  # unwinding to a divergence point
                    self.leave(stack.pop())
                    continue
            c = self.next_candidate(node)
            if c < 0:
                self.leave(stack.pop())
                back = node.d
                continue
            node.current = c
            self.place(c, node.d)
            back = self.enter(node.d + 1, node.mine, stack)
        return self.best_order

    def greedy(self) -> None:
        """Descend once, taking the candidate with the smallest bound.

        The leaf is an actual order, so its key bounds the search from
        above.  Candidates for one position differ only in segments whose
        parent has a child among the position's unplaced group members, and
        in the new one.
        """
        for d in range(self.n):
            checkpoint()
            candidates = self.unplaced(d)
            choice = candidates[0]
            if len(candidates) > 1:
                positions = self.touched(candidates, d)
                choice_bound = None
                self.lower(candidates, d + 1)
                for c in candidates:
                    self.place(c, d)
                    bound = [self.segment(i) for i in positions]
                    if choice_bound is None or bound < choice_bound:
                        choice, choice_bound = c, bound
                    self.unplace(c)
                    self.lower((c,), d + 1)
            self.place(choice, d)
        self.best_key = self.full_key()
        self.best_order = list(self.order)
        for c in reversed(self.best_order):
            self.unplace(c)

    def enter(self, d: int, verified: int, stack: List["_Node"]) -> int:
        """Open the node below the current prefix of length ``d``.

        ``verified`` is the ``version`` under which the parent's bound
        equalled the best key's prefix (-1 if it did not): only segments
        whose children moved since then can differ now.  A node that has
        candidates to try is pushed on ``stack``; otherwise the depth whose
        node should continue is returned: ``d`` (or more) to carry on
        normally, less to unwind to a divergence point.
        """
        checkpoint()
        if d == self.n:
            return self.leaf(verified)
        group = self.unplaced(d)
        self.lower(group, d)
        sign = 0
        if d:
            if verified != self.version:
                sign = self.compare(range(d))
            elif self.group_lo[d] == self.group_lo[d - 1]:
                sign = self.compare(self.touched(group, d - 1))
            else:
                sign = self.compare((d - 1,))
        node = _Node(d, group, self.version if sign == 0 else -1)
        if sign > 0:
            self.leave(node)
        else:
            stack.append(node)
        return d

    def leave(self, node: "_Node") -> None:
        for c in node.group:
            self.weight[c] = self.term[self.group_lo[c]]

    def next_candidate(self, node: "_Node") -> int:
        """The next candidate not in the orbit of an explored one, or -1.

        Only automorphisms fixing the prefix pointwise map the node's
        subtrees onto each other.
        """
        generators, order = self.generators, self.order
        while node.index < len(node.group):
            c = node.group[node.index]
            node.index += 1
            if node.explored and node.checked < len(generators):
                fresh = [
                    image
                    for image in generators[node.checked :]
                    if all(image[x] == x for x in order)
                ]
                node.checked = len(generators)
                if fresh:
                    node.usable.extend(fresh)
                    _close(node.explored, list(node.explored), node.usable)
            if c not in node.explored:
                return c
        return -1

    def leaf(self, verified: int) -> int:
        n = self.n
        sign = self.compare((n - 1,) if verified == self.version else range(n))
        if sign < 0 or (sign == 0 and not self.found):
            if sign == 0 and self.order != self.best_order:
                self.generators.append(self.automorphism())
            if sign < 0:
                self.best_key = self.full_key()
                self.version += 1
            self.best_order, self.found = list(self.order), True
            return n
        if sign == 0:
            self.generators.append(self.automorphism())
            return next(i for i in range(n) if self.order[i] != self.best_order[i])
        return n

    def automorphism(self) -> List[int]:
        """The label map sending the best order onto the current one."""
        image = [0] * self.n
        for a, b in zip(self.best_order, self.order):
            image[a] = b
        return image


class _Node:
    """One open node of the search: position ``d`` and its candidates."""

    __slots__ = ("d", "group", "mine", "index", "current", "explored", "usable", "checked")

    def __init__(self, d: int, group: List[int], mine: int) -> None:
        self.d = d
        self.group = group  # candidates, in sorted-label order
        self.mine = mine  # `verified` for the children
        self.index = 0  # next candidate to consider
        self.current = -1  # candidate whose subtree is being searched
        self.explored: Set[int] = set()  # closed under `usable`
        self.usable: List[List[int]] = []  # generators fixing the prefix
        self.checked = 0  # generators already tested for `usable`


def _close(
    closure: Set[int], seeds: Sequence[int], images: Sequence[Sequence[int]]
) -> None:
    """Add the orbits of ``seeds`` under the group ``images`` generate."""
    closure.update(seeds)
    stack = list(seeds)
    while stack:
        x = stack.pop()
        for image in images:
            y = image[x]
            if y not in closure:
                closure.add(y)
                stack.append(y)


def _render_key(problem: LCLProblem, forward: Mapping[Label, Label]) -> str:
    """The stable text key of ``problem`` relabeled through ``forward``."""
    rename = forward.__getitem__
    configs = [
        (rename(config.parent), sorted(map(rename, config.children)))
        for config in problem.configurations
    ]
    configs.sort()
    config_text = "|".join(
        [f"{parent}:{','.join(children)}" for parent, children in configs]
    )
    return f"d={problem.delta};k={len(forward)};C={config_text}"


@dataclass(frozen=True)
class CanonicalForm:
    """The canonical relabeling of a problem.

    Attributes
    ----------
    problem:
        The original problem.
    forward:
        Bijection original label → canonical label.
    inverse:
        Bijection canonical label → original label.
    key:
        A stable, human-readable text key uniquely identifying the canonical
        problem (equal for every problem in the same renaming orbit).
    """

    problem: LCLProblem
    forward: Mapping[Label, Label]
    inverse: Mapping[Label, Label]
    key: str

    @cached_property
    def canonical_problem(self) -> LCLProblem:
        """The problem relabeled onto the canonical alphabet ``"0", "1", ...``.

        Built on first access: classification searches :attr:`problem` and
        translates through :attr:`forward`, so the hot path never needs it.
        """
        forward = self.forward
        return LCLProblem(
            delta=self.problem.delta,
            labels=frozenset(forward.values()),
            configurations=frozenset(
                Configuration(
                    forward[config.parent],
                    [forward[child] for child in config.children],
                )
                for config in self.problem.configurations
            ),
            name="canonical",
        )

    @property
    def digest(self) -> str:
        """A short hex digest of :attr:`key`, handy for filenames and logs."""
        return hashlib.sha256(self.key.encode("utf-8")).hexdigest()[:16]


def canonical_form(problem: LCLProblem) -> CanonicalForm:
    """Compute the canonical form of ``problem`` (see the module docstring).

    Raises :class:`~repro.core.cancellation.SearchTimeout` or
    :class:`~repro.core.cancellation.SearchCancelled` when the active cancel
    scope trips during the search.
    """
    order = _canonical_order(problem, _signature_groups(problem))
    forward = {label: str(index) for index, label in enumerate(order)}
    return CanonicalForm(
        problem=problem,
        forward=forward,
        inverse={canonical: label for label, canonical in forward.items()},
        key=_render_key(problem, forward),
    )


def canonical_key(problem: LCLProblem) -> str:
    """Shortcut: the canonical cache key of ``problem``."""
    return canonical_form(problem).key
