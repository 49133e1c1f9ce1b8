"""Golden certificate pin: every materialized certificate tree is committed.

The landscape pin (``tests/test_landscape_golden.py``) fixes the classes;
this one fixes the certificates behind them.  It classifies every catalog
row and two seeded random pools with ``classify_with_certificates`` and
serializes every tree of every log* and O(1) certificate in pre-order, one
``(label, child count)`` token per node.  Each problem's serialization is
pinned by a short digest, and all of them together by one SHA-256, against
the committed fixture ``tests/data/certificate_golden.json``.  A change to
how Lemma 6.9 materializes trees (sharing subtrees, tracking depths) must
leave every tree equal, on both kernels.

The fixture is regenerated on purpose only::

    REPRO_UPDATE_GOLDEN=1 PYTHONPATH=src python -m pytest -q tests/test_certificate_golden.py

A regeneration must come with an explanation of *why* the trees moved.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path
from typing import Iterator, List, Tuple

from repro.core.certificates import CertificateTree
from repro.core.classifier import classify_with_certificates
from repro.core.problem import LCLProblem
from repro.problems.catalog import catalog
from repro.problems.random_problems import random_problem

GOLDEN_PATH = Path(__file__).parent / "data" / "certificate_golden.json"

SEEDS = range(300)
POOLS = {
    "labels4_delta3_density0.15": dict(num_labels=4, delta=3, density=0.15),
    "labels3_delta2_density0.4": dict(num_labels=3, delta=2, density=0.4),
}


def _problems() -> Iterator[Tuple[str, LCLProblem]]:
    """The pinned inputs, in a fixed order: catalog rows, then each pool."""
    for name, (problem, _expected) in sorted(catalog().items()):
        yield f"catalog/{name}", problem
    for pool, params in POOLS.items():
        for seed in SEEDS:
            yield f"{pool}/{seed}", random_problem(seed=seed, **params)


def _preorder(tree: CertificateTree) -> List[str]:
    """One ``label/child count`` token per node, in pre-order."""
    tokens: List[str] = []
    stack = [tree]
    while stack:
        node = stack.pop()
        tokens.append(f"{node.label}/{len(node.children)}")
        stack.extend(reversed(node.children))
    return tokens


def _serialize(problem: LCLProblem) -> Tuple[str, int]:
    """Every certificate tree of ``problem`` as one line, and the tree count."""
    artifacts = classify_with_certificates(problem)
    parts: List[str] = []
    trees = 0
    certificates = (
        ("logstar", artifacts.logstar_certificate),
        (
            "constant",
            artifacts.constant_certificate.uniform
            if artifacts.constant_certificate is not None
            else None,
        ),
    )
    for kind, certificate in certificates:
        if certificate is None:
            continue
        parts.append(f"{kind} depth={certificate.depth}")
        for label in sorted(certificate.labels):
            parts.append(f"{label}: " + " ".join(_preorder(certificate.trees[label])))
            trees += 1
    return "; ".join(parts), trees


def compute_pin() -> dict:
    """The full certificate pin (deterministic: every seed is fixed).

    Each row reads ``"<tree count> <digest prefix of its serialization>"``.
    """
    overall = hashlib.sha256()
    rows = {}
    trees = 0
    for name, problem in _problems():
        line, count = _serialize(problem)
        overall.update(f"{name}\t{line}\n".encode("utf-8"))
        rows[name] = f"{count} {hashlib.sha256(line.encode('utf-8')).hexdigest()[:16]}"
        trees += count
    return {
        "schema": "repro.certificate_golden/1",
        "problems": len(rows),
        "trees": trees,
        "rows": rows,
        "digest": overall.hexdigest(),
    }


def test_certificate_trees_match_committed_golden():
    pin = compute_pin()
    if os.environ.get("REPRO_UPDATE_GOLDEN") == "1":  # pragma: no cover
        GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
        GOLDEN_PATH.write_text(json.dumps(pin, indent=1, sort_keys=True) + "\n")
    golden = json.loads(GOLDEN_PATH.read_text())

    # Row by row first: a digest mismatch alone is undebuggable.
    mismatched = [
        name for name, row in golden["rows"].items() if pin["rows"].get(name) != row
    ]
    assert mismatched == []
    assert pin["rows"].keys() == golden["rows"].keys()
    assert (pin["problems"], pin["trees"]) == (golden["problems"], golden["trees"])
    assert pin["digest"] == golden["digest"]
