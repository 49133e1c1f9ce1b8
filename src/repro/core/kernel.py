"""Bitmask certificate-search kernel: the hot path of the decision procedure.

The exponential parts of the classifier — the label-subset sweep of
Algorithm 4, the root-set fixed point of Algorithm 3, and the special-leaf
variants of Algorithm 5 — spend all of their time on tiny sets: sets of
labels and sets of root labels, each of size at most ``|Σ|``.  The reference
implementation (:mod:`repro.core.log_certificate`,
:mod:`repro.core.logstar_certificate`, :mod:`repro.core.constant_certificate`)
represents those as ``frozenset``/:class:`~repro.core.configuration.Configuration`
objects, which costs an allocation and a hash per elementary step.  This
module interns every label of a problem to a bit position and re-runs the
same algorithms over plain Python ints:

* a **label set** is an int (bit ``i`` set ⟺ label ``i`` in the set),
* a **configuration** is a ``(parent index, children index tuple, mask)``
  triple computed once per problem,
* **subset enumeration** (Algorithm 4) is integer counting over
  ``itertools.combinations`` of bit positions,
* **restriction** / ``uses_only`` / continuation checks are single
  ``mask & ~allowed == 0`` tests,
* **flexibility** (Algorithm 1) is a reachability/period computation over
  successor masks.

Equivalence contract
--------------------
The kernel is *pinned* to the reference implementation: for every problem it
must return results equal to the frozenset path — the same complexity class,
the same pruning sets, the same certificate problems, and byte-identical
:class:`~repro.core.logstar_certificate.CertificateBuilder` entries.  That is
possible because every pruning shortcut below is order-preserving:

* Candidate subsets are enumerated in exactly the reference order
  (increasing size, lexicographic within a size over the sorted alphabet) —
  only *provably fruitless* subsets are discarded early, by the support
  test: a subset whose labels do not all parent an in-subset configuration
  can never derive its full label set (`Algorithm 3`'s root), so the
  reference would return ``ε`` for it too.
* Algorithm 3 enumerates ``δ``-tuples of root-set pairs as sorted
  multisets (``combinations_with_replacement``) instead of the reference's
  full ``product``.  Because one derivation step is invariant under
  permuting the tuple — the child-to-set assignment is a matching — the
  lexicographically first *deriving* tuple in product order is always
  sorted, so the recorded ``entries`` are identical.
* Algorithm 5 skips the flagged (special-leaf) searches of a subset whose
  *plain* Algorithm 3 sweep already failed: the set-projection of every
  derivable flagged pair is derivable in the plain sweep, so a flagged root
  cannot exist where the plain root does not.  Subsets and special
  configurations are otherwise visited in the reference order.

The sweeps poll :func:`repro.core.cancellation.checkpoint` once per candidate
subset, like the reference loops.  Algorithm 3 polls once before each chunk
of :data:`POLL_STRIDE` δ-tuples: at most that many tuples pass between two
polls, counting every tuple the enumeration yields (the ones the ``newly``
filter skips included), and every derivation round polls at least once.  A
poll costs a function call, so the stride sits in the loop rather than in
:meth:`~repro.core.cancellation.CancelToken.check`; the chunks only group
the enumeration, whose order is unchanged.  Deadlines and cancellation
therefore interrupt the kernel within one chunk of tuples.

Memoization
-----------
A :class:`KernelState` carries the memo tables shared by one classification:
the interned encoding, the per-subset outcome of the plain Algorithm 3 sweep
(reused verbatim by Algorithm 5, so one classification never repeats a
sweep), and the *roots memo*, which maps a tuple of set masks to the roots
one derivation step gives on the **full** problem.  The roots memo is exact
for every restriction: each set of a sweep on subset ``A`` lies inside ``A``,
so a configuration whose children match those sets lies inside ``A`` too,
except possibly its parent, and ``roots & A`` drops that parent.  One memo
therefore serves every Algorithm 4 subset, every flagged Algorithm 5 sweep
and both flag values.  Its misses ask the state's :class:`MatchingTable`,
keyed by the multiset of the children's position masks, instead of
backtracking.  The state lives in a thread-local scope installed by
:func:`repro.core.classifier.classify_with_certificates`; it is dropped when
the classification returns *or unwinds*, so an interrupted search never
leaks partial results into a later one ("interrupted searches cache
nothing").  Only the structural encoding (:func:`problem_encoding`, a
bounded LRU of a pure function) is kept across classifications.

Selecting the kernel
--------------------
``REPRO_KERNEL=bitmask`` (the default) routes the module-level search
functions through this kernel; ``REPRO_KERNEL=reference`` keeps the
original frozenset path, which the differential oracle suite
(``tests/test_kernel_differential.py``) runs against the kernel on every
input.  :func:`kernel_override` forces a kernel for the current thread in
tests and benchmarks.
"""

from __future__ import annotations

import os
import threading
from contextlib import contextmanager
from functools import lru_cache
from itertools import combinations, combinations_with_replacement, islice
from math import comb, gcd
from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional, Set, Tuple

from ..automata.flexibility import automaton_of
from .cancellation import checkpoint
from .configuration import Configuration, Label
from .log_certificate import LogCertificate, LogCertificateAbsence
from .logstar_certificate import BuilderKey, CertificateBuilder
from .problem import LCLProblem

BITMASK = "bitmask"
REFERENCE = "reference"
KERNELS = (BITMASK, REFERENCE)
ENV_VAR = "REPRO_KERNEL"

POLL_STRIDE = 64
"""Algorithm 3 polls :func:`checkpoint` once per this many enumerated δ-tuples."""

_override = threading.local()


def active_kernel() -> str:
    """The kernel name in effect: thread override > ``REPRO_KERNEL`` > bitmask."""
    name = getattr(_override, "name", None)
    if name is None:
        name = os.environ.get(ENV_VAR, "").strip() or BITMASK
    if name not in KERNELS:
        raise ValueError(
            f"unknown {ENV_VAR} value {name!r} (known: {', '.join(KERNELS)})"
        )
    return name


def use_bitmask_kernel() -> bool:
    """Whether the module-level search functions should route through here."""
    return active_kernel() == BITMASK


@contextmanager
def kernel_override(name: str) -> Iterator[str]:
    """Force ``name`` as the active kernel for the current thread.

    Only affects searches running *on this thread* (the ``inline`` backend
    and direct calls); worker threads and processes read ``REPRO_KERNEL``
    from the environment instead.
    """
    if name not in KERNELS:
        raise ValueError(f"unknown kernel {name!r} (known: {', '.join(KERNELS)})")
    previous = getattr(_override, "name", None)
    _override.name = name
    try:
        yield name
    finally:
        _override.name = previous


def _iter_bits(mask: int) -> Iterator[int]:
    """Yield the set bit positions of ``mask`` in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _bit_tuple(mask: int) -> Tuple[int, ...]:
    """The set bit positions of ``mask`` as an ascending tuple."""
    return tuple(_iter_bits(mask))


class ProblemEncoding:
    """The bitmask view of one problem: labels interned to bit positions.

    Bit ``i`` stands for the ``i``-th label of the *sorted* alphabet, so
    comparing two masks by their ascending bit tuples reproduces the
    lexicographic order of sorted label tuples — the order every reference
    loop sorts by.
    """

    __slots__ = (
        "problem",
        "delta",
        "labels",
        "index_of",
        "num_labels",
        "full_mask",
        "configs",
        "configs_by_parent",
        "groups",
        "specials",
    )

    def __init__(self, problem: LCLProblem) -> None:
        self.problem = problem
        self.delta = problem.delta
        self.labels: List[Label] = problem.sorted_labels()
        self.index_of: Dict[Label, int] = {
            label: index for index, label in enumerate(self.labels)
        }
        self.num_labels = len(self.labels)
        self.full_mask = (1 << self.num_labels) - 1

        # One (parent index, config mask, distinct-children bits) triple per
        # configuration, in the deterministic sorted order.
        self.configs: List[Tuple[int, int, int]] = []
        self.configs_by_parent: List[List[int]] = [[] for _ in range(self.num_labels)]
        group_map: Dict[Tuple[int, ...], int] = {}
        group_bits: Dict[Tuple[int, ...], int] = {}
        self.specials: List[Tuple[Configuration, int, int]] = []
        for config in problem.sorted_configurations():
            parent = self.index_of[config.parent]
            children = tuple(self.index_of[child] for child in config.children)
            child_bits = 0
            for child in children:
                child_bits |= 1 << child
            mask = (1 << parent) | child_bits
            self.configs.append((parent, mask, child_bits))
            self.configs_by_parent[parent].append(mask)
            group_map[children] = group_map.get(children, 0) | (1 << parent)
            group_bits[children] = child_bits
            if config.is_special():
                self.specials.append((config, parent, mask))

        # Configurations grouped by children multiset, as ``(children,
        # distinct-children bits, parents mask)``: the child-to-set matching
        # of a derivation step only depends on the multiset, so one matching
        # decision covers every parent sharing it.
        self.groups: List[Tuple[Tuple[int, ...], int, int]] = [
            (children, group_bits[children], parents)
            for children, parents in sorted(group_map.items())
        ]

    # ------------------------------------------------------------------
    # Encode / decode
    # ------------------------------------------------------------------
    def mask_of(self, labels: Iterable[Label]) -> int:
        """Encode an iterable of labels as a bitmask."""
        mask = 0
        for label in labels:
            mask |= 1 << self.index_of[label]
        return mask

    def labels_of(self, mask: int) -> FrozenSet[Label]:
        """Decode a bitmask back to the label set it stands for."""
        return frozenset(self.labels[index] for index in _iter_bits(mask))

    # ------------------------------------------------------------------
    # Elementary set operations (all single mask tests)
    # ------------------------------------------------------------------
    def allowed_config_count(self, allowed: int) -> int:
        """``|C|`` of the restriction to ``allowed`` (Definition 4.3)."""
        return sum(1 for _p, mask, _b in self.configs if mask & ~allowed == 0)

    def all_labels_supported(self, allowed: int) -> bool:
        """Whether every label of ``allowed`` parents an in-``allowed`` config.

        A label failing this test cannot occur in any derived root set of the
        restriction, so Algorithm 3's root (the full subset) is underivable
        and the sweep may skip the subset without running it.
        """
        probe = allowed
        configs_by_parent = self.configs_by_parent
        while probe:
            low = probe & -probe
            probe ^= low
            for mask in configs_by_parent[low.bit_length() - 1]:
                if mask & ~allowed == 0:
                    break
            else:
                return False
        return True

    # ------------------------------------------------------------------
    # Continuation fixed point (solvability / Algorithm 4 universe)
    # ------------------------------------------------------------------
    def infinite_continuation_mask(self) -> int:
        """Greatest fixed point of "has a continuation below within the set"."""
        current = self.full_mask
        while True:
            nxt = 0
            for index in _iter_bits(current):
                for mask in self.configs_by_parent[index]:
                    if mask & ~current == 0:
                        nxt |= 1 << index
                        break
            if nxt == current:
                return current
            current = nxt

    # ------------------------------------------------------------------
    # Path-flexibility (Algorithm 1's inner loop)
    # ------------------------------------------------------------------
    def successor_masks(self, allowed: int) -> List[int]:
        """Successor masks of ``M(Π|allowed)``: bit ``j`` of ``succ[i]`` ⟺ edge ``i→j``."""
        succ = [0] * self.num_labels
        for parent, mask, child_bits in self.configs:
            if mask & ~allowed == 0:
                succ[parent] |= child_bits
        return succ

    def flexible_mask(self, allowed: int) -> int:
        """Path-flexible labels of the restriction to ``allowed`` (Definition 4.9).

        A label is flexible iff its SCC in the automaton of the restriction
        contains an edge and has period 1 — the exact criterion of
        :meth:`repro.automata.semiautomaton.PathAutomaton.flexibility`.
        """
        succ = self.successor_masks(allowed)

        # Forward reachability closure per state (length >= 1 walks).
        reach: Dict[int, int] = {}
        for index in _iter_bits(allowed):
            frontier = succ[index] & allowed
            seen = frontier
            while frontier:
                grown = 0
                for node in _iter_bits(frontier):
                    grown |= succ[node]
                grown &= allowed & ~seen
                seen |= grown
                frontier = grown
            reach[index] = seen

        flexible = 0
        visited = 0
        for index in _iter_bits(allowed):
            if (visited >> index) & 1:
                continue
            scc = 1 << index
            for other in _iter_bits(reach[index]):
                if other != index and (reach[other] >> index) & 1:
                    scc |= 1 << other
            visited |= scc

            if not any(succ[node] & scc for node in _iter_bits(scc)):
                continue  # trivial SCC without a self-loop: inflexible
            # Period via BFS levels: gcd of level(u) + 1 - level(v) over edges.
            start = (scc & -scc).bit_length() - 1
            level = {start: 0}
            frontier_nodes = [start]
            while frontier_nodes:
                nxt_nodes: List[int] = []
                for node in frontier_nodes:
                    for succ_node in _iter_bits(succ[node] & scc):
                        if succ_node not in level:
                            level[succ_node] = level[node] + 1
                            nxt_nodes.append(succ_node)
                frontier_nodes = nxt_nodes
            period = 0
            for node in _iter_bits(scc):
                for succ_node in _iter_bits(succ[node] & scc):
                    period = gcd(period, level[node] + 1 - level[succ_node])
            if abs(period) == 1:
                flexible |= scc
        return flexible


@lru_cache(maxsize=256)
def problem_encoding(problem: LCLProblem) -> ProblemEncoding:
    """The (cached) bitmask encoding of ``problem``; pure and structural."""
    return ProblemEncoding(problem)


# ----------------------------------------------------------------------
# Child-multiset to set-tuple matching (Algorithm 3's elementary step)
# ----------------------------------------------------------------------
def match_children_to_sets(children: Tuple[int, ...], sets: Tuple[int, ...]) -> bool:
    """Whether ``children`` can be assigned bijectively to ``sets``.

    The bitmask twin of
    :func:`repro.core.logstar_certificate.assign_children_to_sets`:
    ``children`` is a multiset of label indices and ``sets`` a tuple of label
    masks; the answer is invariant under permuting ``sets``.
    """
    size = len(children)
    if size != len(sets):
        return False
    if size == 0:
        return True
    if size == 1:
        return bool((sets[0] >> children[0]) & 1)
    if size == 2:
        first, second = children
        set_a, set_b = sets
        return bool(
            ((set_a >> first) & 1 and (set_b >> second) & 1)
            or ((set_a >> second) & 1 and (set_b >> first) & 1)
        )
    counts: Dict[int, int] = {}
    for child in children:
        counts[child] = counts.get(child, 0) + 1
    distinct = list(counts.items())

    def backtrack(position: int) -> bool:
        if position == size:
            return True
        mask = sets[position]
        for slot, (child, remaining) in enumerate(distinct):
            if remaining and (mask >> child) & 1:
                distinct[slot] = (child, remaining - 1)
                if backtrack(position + 1):
                    distinct[slot] = (child, remaining)
                    return True
                distinct[slot] = (child, remaining)
        return False

    return backtrack(0)


class MatchingTable:
    """Child-to-set matching answers for one ``δ``, independent of the alphabet.

    For a ``δ``-tuple of sets, a label's *position mask* has bit ``p`` set
    when ``sets[p]`` holds the label.  Whether ``δ`` children can be
    assigned bijectively to the sets depends only on the multiset of their
    position masks, so one answer serves every tuple with that multiset.
    Masks are numbered as they first appear, and the key is
    ``Σ (δ+1)^n(mask)`` over the children: a mask occurs at most ``δ``
    times, so the base-``(δ+1)`` digits are its counts, and keys grow with
    the masks one search meets instead of with ``2^δ``.  Entries are filled
    lazily, each by one run of :func:`match_children_to_sets`; there are at
    most ``C(2^δ+δ−1, δ)`` of them (10, 120 and 3,876 at ``δ`` = 2, 3, 4).
    """

    __slots__ = ("delta", "answers", "_weights")

    def __init__(self, delta: int) -> None:
        self.delta = delta
        self.answers: Dict[int, bool] = {}
        # Position mask -> (δ+1)^n(mask).
        self._weights: Dict[int, int] = {}

    def roots(
        self, groups: Iterable[Tuple[Tuple[int, ...], int, int]], sets: Tuple[int, ...]
    ) -> int:
        """The union of the parents masks of ``groups`` whose children match ``sets``.

        ``groups`` holds ``(children, distinct-children bits, parents mask)``
        triples, as in :attr:`ProblemEncoding.groups`.
        """
        union = 0
        positions: Dict[int, int] = {}
        bit = 1
        for labels in sets:
            union |= labels
            while labels:
                low = labels & -labels
                labels ^= low
                positions[low] = positions.get(low, 0) | bit
            bit <<= 1
        # The key weight of each label of the union, by label index.
        weights: Dict[int, int] = {}
        mask_weights = self._weights
        for low, mask in positions.items():
            weight = mask_weights.get(mask)
            if weight is None:
                weight = mask_weights[mask] = (self.delta + 1) ** len(mask_weights)
            weights[low.bit_length() - 1] = weight
        answers = self.answers
        roots = 0
        for children, child_bits, parents in groups:
            # A child in no set, or parents already derived: nothing to decide.
            if child_bits & ~union or not parents & ~roots:
                continue
            key = 0
            for child in children:
                key += weights[child]
            feasible = answers.get(key)
            if feasible is None:
                feasible = answers[key] = match_children_to_sets(children, sets)
            if feasible:
                roots |= parents
        return roots


# ----------------------------------------------------------------------
# Algorithm 3 over masks
# ----------------------------------------------------------------------
def _unrestricted_search(
    enc: ProblemEncoding,
    labels_mask: int,
    special_index: Optional[int],
    roots_memo: Dict[Tuple[int, ...], int],
    table: MatchingTable,
    sort_key_cache: Dict[int, Tuple[Tuple[int, ...], int]],
) -> Optional[Tuple[Dict[int, Tuple[int, ...]], int]]:
    """The fixed point of Algorithm 3 over pair codes ``(mask << 1) | flag``.

    Returns ``(entries, root code)`` when the full ``labels_mask`` (with the
    special flag, if any) is derivable, ``None`` otherwise.  Entries map each
    derived pair code to the δ-tuple of pair codes it was derived from —
    the exact analogue of the reference builder's ``entries``.

    ``roots_memo`` maps a tuple of set masks to the roots one derivation
    step gives on the *full* problem.  Every set of a sweep lies inside
    ``labels_mask``, so a configuration whose children match them lies
    inside it too, except possibly its parent: ``roots & labels_mask`` is
    the derivation on the restriction, and one memo serves every subset
    and both flag values.
    """
    if not labels_mask:
        return None
    delta = enc.delta
    groups = enc.groups

    known: Set[int] = {
        ((1 << index) << 1) | (1 if index == special_index else 0)
        for index in _iter_bits(labels_mask)
    }
    entries: Dict[int, Tuple[int, ...]] = {}
    newly: Set[int] = set(known)

    def sort_key(code: int) -> Tuple[Tuple[int, ...], int]:
        cached = sort_key_cache.get(code)
        if cached is None:
            cached = (_bit_tuple(code >> 1), code & 1)
            sort_key_cache[code] = cached
        return cached

    while newly:
        added: Set[int] = set()
        all_pairs = sorted(known, key=sort_key)
        all_sets = [code >> 1 for code in all_pairs]
        # Sorted multisets only: a derivation step is invariant under
        # permuting the tuple, and the lexicographically first deriving
        # tuple in the reference's full product order is always sorted, so
        # the recorded entries come out identical (see module docstring).
        # The second enumeration yields the same positions over the set
        # masks, so each tuple's memo key comes without a per-tuple loop.
        tuples = zip(
            combinations_with_replacement(all_pairs, delta),
            combinations_with_replacement(all_sets, delta),
        )
        # One poll before each chunk of POLL_STRIDE tuples.  C(n + δ − 1, δ)
        # counts every tuple, skipped ones included, so a round that skips
        # nearly everything still polls.
        for _chunk in range(0, comb(len(all_pairs) + delta - 1, delta), POLL_STRIDE):
            checkpoint()
            for tuple_of_pairs, sets in islice(tuples, POLL_STRIDE):
                if newly.isdisjoint(tuple_of_pairs):
                    continue
                roots = roots_memo.get(sets)
                if roots is None:
                    roots = roots_memo[sets] = table.roots(groups, sets)
                roots &= labels_mask
                if roots:
                    flag = 0
                    for code in tuple_of_pairs:
                        flag |= code & 1
                    code = (roots << 1) | flag
                    if code not in known and code not in added:
                        entries[code] = tuple_of_pairs
                        added.add(code)
        known |= added
        newly = added

    root_code = (labels_mask << 1) | (1 if special_index is not None else 0)
    if root_code not in known:
        return None
    return entries, root_code


class KernelState:
    """Memo tables shared by the searches of one classification.

    ``plain_memo`` keeps the outcome of the plain (no special label)
    Algorithm 3 sweep per candidate subset, so Algorithm 5 never repeats a
    sweep Algorithm 4 already ran.  ``roots_memo`` maps a tuple of set masks
    to the full problem's derived roots, so each set tuple is derived once
    for every Algorithm 4 subset, every flagged Algorithm 5 sweep and both
    flag values (a sweep on subset ``A`` uses ``roots & A``).  Its misses
    consult ``table``, this state's :class:`MatchingTable` of ``δ``.  States
    are created per classification (see :func:`classification_scope`) and
    never outlive it, so an interrupted search caches nothing.
    """

    __slots__ = (
        "encoding",
        "table",
        "roots_memo",
        "plain_memo",
        "flagged_memo",
        "sort_key_cache",
        "_universe_mask",
    )

    def __init__(self, encoding: ProblemEncoding) -> None:
        self.encoding = encoding
        self.table = MatchingTable(encoding.delta)
        self.roots_memo: Dict[Tuple[int, ...], int] = {}
        self.plain_memo: Dict[int, Optional[CertificateBuilder]] = {}
        self.flagged_memo: Dict[Tuple[int, int], Optional[CertificateBuilder]] = {}
        self.sort_key_cache: Dict[int, Tuple[Tuple[int, ...], int]] = {}
        self._universe_mask: Optional[int] = None

    # ------------------------------------------------------------------
    # Candidate subsets (Algorithm 4's enumeration, reference order)
    # ------------------------------------------------------------------
    @property
    def universe_mask(self) -> int:
        """The candidate universe: labels with an infinite continuation."""
        if self._universe_mask is None:
            self._universe_mask = self.encoding.infinite_continuation_mask()
        return self._universe_mask

    def candidate_masks(self) -> Iterator[int]:
        """Candidate subsets in the reference order (size, then lex), lazily."""
        bits = _bit_tuple(self.universe_mask)
        for size in range(1, len(bits) + 1):
            for combo in combinations(bits, size):
                mask = 0
                for bit in combo:
                    mask |= 1 << bit
                yield mask

    # ------------------------------------------------------------------
    # Algorithm 3 per subset, memoized
    # ------------------------------------------------------------------
    def plain_builder(self, mask: int) -> Optional[CertificateBuilder]:
        """Algorithm 3 on the restriction to ``mask`` without a special label."""
        if mask in self.plain_memo:
            return self.plain_memo[mask]
        builder = self._search(mask, None)
        self.plain_memo[mask] = builder
        return builder

    def flagged_builder(
        self, mask: int, special_index: int
    ) -> Optional[CertificateBuilder]:
        """Algorithm 3 on the restriction to ``mask`` with a required leaf label."""
        key = (mask, special_index)
        if key in self.flagged_memo:
            return self.flagged_memo[key]
        builder = self._search(mask, special_index)
        self.flagged_memo[key] = builder
        return builder

    def _search(
        self, mask: int, special_index: Optional[int]
    ) -> Optional[CertificateBuilder]:
        enc = self.encoding
        if not enc.all_labels_supported(mask):
            return None
        outcome = _unrestricted_search(
            enc,
            mask,
            special_index,
            self.roots_memo,
            self.table,
            self.sort_key_cache,
        )
        if outcome is None:
            return None
        entries, root_code = outcome
        restricted = enc.problem.restrict(enc.labels_of(mask))
        special_label = (
            enc.labels[special_index] if special_index is not None else None
        )
        return _materialize_builder(
            enc, restricted, mask, special_label, entries, root_code
        )


def _decode_pair(enc: ProblemEncoding, code: int) -> BuilderKey:
    return (enc.labels_of(code >> 1), bool(code & 1))


def _materialize_builder(
    enc: ProblemEncoding,
    problem: LCLProblem,
    labels_mask: int,
    special_label: Optional[Label],
    entries: Dict[int, Tuple[int, ...]],
    root_code: int,
) -> CertificateBuilder:
    decoded: Dict[BuilderKey, Tuple[BuilderKey, ...]] = {
        _decode_pair(enc, code): tuple(_decode_pair(enc, part) for part in parts)
        for code, parts in entries.items()
    }
    return CertificateBuilder(
        problem=problem,
        label_set=enc.labels_of(labels_mask),
        special_label=special_label,
        entries=decoded,
        root=_decode_pair(enc, root_code),
    )


# ----------------------------------------------------------------------
# Per-classification scope
# ----------------------------------------------------------------------
_scope = threading.local()


@contextmanager
def classification_scope(problem: LCLProblem) -> Iterator[Optional[KernelState]]:
    """Install a shared :class:`KernelState` for one classification.

    Installed by :func:`repro.core.classifier.classify_with_certificates`,
    so the log*, and constant searches of one classification share their
    sweep memos.  A no-op under the reference kernel.  The state is dropped
    on exit — including an unwinding :class:`SearchInterrupted` — so partial
    sweeps are never observable later.
    """
    if not use_bitmask_kernel():
        yield None
        return
    stack = getattr(_scope, "stack", None)
    if stack is None:
        stack = _scope.stack = []
    state = KernelState(problem_encoding(problem))
    stack.append(state)
    try:
        yield state
    finally:
        stack.pop()


def _state_for(problem: LCLProblem) -> KernelState:
    stack = getattr(_scope, "stack", None)
    if stack:
        state = stack[-1]
        if state.encoding.problem == problem:
            return state
    return KernelState(problem_encoding(problem))


# ----------------------------------------------------------------------
# Kernel twins of the module-level search functions
# ----------------------------------------------------------------------
def find_log_certificate(problem: LCLProblem):
    """Algorithm 2 with the pruning loop over masks (kernel twin)."""
    enc = problem_encoding(problem)
    mask = enc.full_mask
    removed: List[FrozenSet[Label]] = []
    while True:
        checkpoint()
        if not mask or enc.allowed_config_count(mask) == 0:
            break
        inflexible = mask & ~enc.flexible_mask(mask)
        if not inflexible:
            break
        removed.append(enc.labels_of(inflexible))
        mask &= ~inflexible
    fixed_point = problem.restrict(enc.labels_of(mask), name=problem.name)
    if fixed_point.is_empty():
        return LogCertificateAbsence(
            problem=problem,
            pruning_sets=tuple(removed),
            iterations=len(removed),
        )
    automaton = automaton_of(fixed_point)
    absorbing = automaton.minimal_absorbing_states()
    certificate_problem = fixed_point.restrict(absorbing, name=f"{problem.name}|pf")
    return LogCertificate(
        problem=problem,
        certificate_problem=certificate_problem,
        pruning_sets=tuple(removed),
        iterations=len(removed),
    )


def find_unrestricted_certificate(
    problem: LCLProblem, special_label: Optional[Label] = None
) -> Optional[CertificateBuilder]:
    """Algorithm 3 on an already-restricted problem (kernel twin)."""
    labels = frozenset(problem.labels)
    if not labels or not problem.configurations:
        return None
    if special_label is not None and special_label not in labels:
        return None
    enc = problem_encoding(problem)
    outcome = _unrestricted_search(
        enc,
        enc.full_mask,
        enc.index_of[special_label] if special_label is not None else None,
        {},
        MatchingTable(enc.delta),
        {},
    )
    if outcome is None:
        return None
    entries, root_code = outcome
    return _materialize_builder(
        enc, problem, enc.full_mask, special_label, entries, root_code
    )


def find_certificate_builder(problem: LCLProblem) -> Optional[CertificateBuilder]:
    """Algorithm 4: the label-subset sweep over masks (kernel twin)."""
    state = _state_for(problem)
    for mask in state.candidate_masks():
        checkpoint()
        builder = state.plain_builder(mask)
        if builder is not None:
            return builder
    return None


def find_constant_certificate_builder(
    problem: LCLProblem,
) -> Optional[Tuple[CertificateBuilder, Configuration]]:
    """Algorithm 5: the special-configuration sweep over masks (kernel twin)."""
    state = _state_for(problem)
    enc = state.encoding
    for mask in state.candidate_masks():
        checkpoint()
        specials = [
            (config, parent)
            for config, parent, config_mask in enc.specials
            if config_mask & ~mask == 0
        ]
        if not specials:
            continue
        # Projection shortcut: a flagged root cannot be derivable where the
        # plain root is not, and Algorithm 4 usually computed the plain
        # sweep for this subset already.
        if state.plain_builder(mask) is None:
            continue
        for config, parent in specials:
            builder = state.flagged_builder(mask, parent)
            if builder is not None:
                return builder, config
    return None


__all__ = [
    "BITMASK",
    "REFERENCE",
    "KERNELS",
    "ENV_VAR",
    "KernelState",
    "MatchingTable",
    "ProblemEncoding",
    "active_kernel",
    "classification_scope",
    "find_certificate_builder",
    "find_constant_certificate_builder",
    "find_log_certificate",
    "find_unrestricted_certificate",
    "kernel_override",
    "match_children_to_sets",
    "problem_encoding",
    "use_bitmask_kernel",
]
