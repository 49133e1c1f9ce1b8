"""Parsing and formatting of LCL problem descriptions.

The textual format mirrors the paper's notation and the authors' classifier tool:
one configuration per line, parent first, then the children, e.g. the 3-coloring
problem of Section 1.2 is written as::

    1 : 2 2
    1 : 2 3
    1 : 3 3
    2 : 1 1
    2 : 1 3
    2 : 3 3
    3 : 1 1
    3 : 1 2
    3 : 2 2

Both ``:`` separated and whitespace-only lines are accepted; when no ``:`` is
present the first token is the parent.  Compact single-character notation such as
``"1 : 22"`` (as used in the paper for binary trees) is also accepted: a children
token longer than one character that is not a declared multi-character label is
split into its characters.

Problem-file grammar
--------------------
This is the authoritative description of the format consumed by
:func:`parse_problem` (and therefore by ``python -m repro classify``)::

    problem        ::= line*
    line           ::= comment | blank | configuration
    comment        ::= "#" <anything up to end of line>
    blank          ::=                               (ignored)
    configuration  ::= parent ":" children | parent children
    parent         ::= LABEL
    children       ::= (LABEL | GLUED)+              (exactly delta labels)
    LABEL          ::= any non-whitespace token
    GLUED          ::= multi-character token split into single-character
                      labels, unless declared as a label itself

Semicolons (``;``) are treated as line separators, so several configurations
may share one physical line.  Every configuration must have the same number of
children ``delta`` (inferred from the first configuration when not given
explicitly); children are unordered, so ``1 : 2 3`` and ``1 : 3 2`` denote the
same configuration.  Multi-problem *batch* files additionally separate problem
blocks with ``---`` lines; that outer layer is handled by ``repro.cli``, each
block is parsed with the grammar above.
"""

from __future__ import annotations

from typing import AbstractSet, Iterable, List, Optional, Set

from .configuration import Configuration, Label
from .problem import LCLError, LCLProblem


def _parse_line(line: str, known: AbstractSet[Label]) -> Configuration:
    """Parse ``line``, one stripped non-empty line (the grammar above).

    A children token is split into its characters unless it is one
    character long or a label of ``known``: the paper's compact notation
    glues single-character labels together (``"22"`` means two children
    labeled ``2``).  Errors quote ``line``.
    """
    parent_text, colon, children_text = line.partition(":")
    if colon:
        parent_tokens = parent_text.split()
        if len(parent_tokens) != 1:
            raise LCLError(f"expected exactly one parent label in {line!r}")
        parent = parent_tokens[0]
        tokens = children_text.split()
    else:
        parent, *tokens = line.split()
    children: List[Label] = []
    for token in tokens:
        if len(token) == 1 or token in known:
            children.append(token)
        else:
            children.extend(token)
    if not children:
        raise LCLError(f"configuration {line!r} has no children")
    return Configuration(parent, children)


def parse_problem(
    text: str,
    delta: Optional[int] = None,
    labels: Optional[Iterable[Label]] = None,
    name: str = "",
) -> LCLProblem:
    """Parse a whole problem description.

    Parameters
    ----------
    text:
        Configuration lines separated by newlines or semicolons.  Blank lines and
        lines starting with ``#`` are ignored.
    delta:
        Expected number of children; inferred from the first configuration when
        omitted.
    labels:
        Optional explicit alphabet (useful when some labels never occur in a
        configuration, or when labels have more than one character).
    name:
        Optional problem name.
    """
    known = frozenset(labels) if labels is not None else frozenset()
    # One pass: each configuration is built once, checked against delta (so
    # the first bad line in text order is the one reported), and its labels
    # collected for the alphabet.
    configurations: Set[Configuration] = set()
    used: Set[Label] = set()
    for raw_line in text.replace(";", "\n").splitlines():
        line = raw_line.strip()
        if not line or line[0] == "#":
            continue
        config = _parse_line(line, known)
        children = config.children
        if delta is None:
            delta = len(children)
        elif len(children) != delta:
            raise LCLError(
                f"configuration {config} has {config.delta} children, expected {delta}"
            )
        configurations.add(config)
        used.add(config.parent)
        used.update(children)
    if not configurations:
        raise LCLError("problem description contains no configurations")
    return LCLProblem(
        delta=delta,
        labels=used if labels is None else known,
        configurations=configurations,
        name=name,
    )


def format_problem(problem: LCLProblem, compact: bool = False) -> str:
    """Render a problem back to its textual form.

    ``compact=True`` uses the paper's glued notation (only valid when every label
    is a single character).
    """
    lines: List[str] = []
    for config in problem.sorted_configurations():
        if compact and all(len(label) == 1 for label in config.labels):
            lines.append(f"{config.parent} : {''.join(config.children)}")
        else:
            lines.append(config.to_text())
    return "\n".join(lines)
