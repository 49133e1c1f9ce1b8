"""Round accounting for the distributed algorithms.

The paper analyses algorithms in the LOCAL and CONGEST models, where the cost of
an algorithm is the number of synchronous communication rounds.  Simple
algorithms in this package (Cole–Vishkin coloring, rake-and-compress, the 4-round
MIS algorithm) are executed round by round in the simulator, so their round
counts are measured directly.  The more intricate certificate-driven solvers are
executed as locality-respecting centralized procedures; their round counts are
*derived* from measured quantities (number of decomposition layers, chunk
lengths, iterated-log values) exactly as in the paper's analysis, and every
contribution is itemized in a :class:`RoundBreakdown` so that the accounting is
transparent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Tuple


def log_star(n: float) -> int:
    """The iterated logarithm ``log* n`` (base 2), with ``log*(x) = 0`` for ``x <= 1``."""
    count = 0
    value = float(n)
    while value > 1.0:
        value = math.log2(value)
        count += 1
    return count


@dataclass
class RoundBreakdown:
    """An itemized account of the rounds spent by an algorithm."""

    items: List[Tuple[str, int]] = field(default_factory=list)

    def add(self, phase: str, rounds: int) -> None:
        """Record ``rounds`` rounds spent in ``phase``."""
        if rounds < 0:
            raise ValueError("rounds must be non-negative")
        self.items.append((phase, rounds))

    @property
    def total(self) -> int:
        """Total number of rounds across all phases."""
        return sum(rounds for _, rounds in self.items)

    def as_dict(self) -> Dict[str, int]:
        """Aggregate the breakdown per phase name."""
        aggregated: Dict[str, int] = {}
        for phase, rounds in self.items:
            aggregated[phase] = aggregated.get(phase, 0) + rounds
        return aggregated

    def describe(self) -> str:
        """Human readable multi-line description."""
        lines = [f"  {phase}: {rounds}" for phase, rounds in self.items]
        lines.append(f"  total: {self.total}")
        return "\n".join(lines)


@dataclass
class MessageStats:
    """Message-size statistics for CONGEST accounting.

    CONGEST restricts messages to ``O(log n)`` bits per round per edge.  The
    simulator records the largest message (in bits) sent by any node, next to
    the ``log2(n)`` bound ``congest_budget_bits`` of the run.
    """

    max_message_bits: int = 0
    total_messages: int = 0
    congest_budget_bits: int = 0

    def record(self, bits: int) -> None:
        """Record a message of the given size."""
        self.total_messages += 1
        if bits > self.max_message_bits:
            self.max_message_bits = bits


def message_size_bits(message: object) -> int:
    """A conservative estimate of the number of bits needed to encode ``message``."""
    if message is None:
        return 0
    if isinstance(message, bool):
        return 1
    if isinstance(message, int):
        return max(1, message.bit_length())
    if isinstance(message, str):
        return 8 * len(message)
    if isinstance(message, (tuple, list, frozenset, set)):
        return sum(message_size_bits(item) for item in message) + len(message)  # type: ignore[arg-type]
    if isinstance(message, dict):
        return sum(
            message_size_bits(key) + message_size_bits(value) for key, value in message.items()
        )
    return 64
