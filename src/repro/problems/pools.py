"""Seeded problem pools: the one source of reproducible workload keys.

Three consumers draw from this module and must stay in lockstep:

* the **load-generation harness** (:mod:`repro.loadgen`) builds its
  Zipf-sampled key universe from :func:`distinct_forms`,
* the **scheduler fuzz harness** (``tests/test_scheduler_fuzz.py``)
  interleaves operations over the same pools, and
* the **endpoint parity suites** (``tests/test_api.py``,
  ``tests/test_loadgen_parity.py``) push the same pools through every
  endpoint kind.

Keeping the generation here — seeds consumed in deterministic order, no
wall-clock or machine dependence — guarantees that "seed 7" names the same
canonical-key distribution in a unit test, a fuzz run, and a committed
benchmark trajectory file.  ``tests/problem_pools.py`` re-exports this
module for the test suites.
"""

from __future__ import annotations

from typing import List, Optional

from ..engine.canonical import CanonicalForm, canonical_form
from .random_problems import random_problem


def distinct_forms(
    count: int,
    labels: int = 3,
    density: float = 0.3,
    start: int = 0,
    name_prefix: Optional[str] = None,
) -> List[CanonicalForm]:
    """``count`` canonical forms with pairwise-distinct keys (deterministic).

    Seeds are consumed in order starting at ``start``, skipping draws whose
    orbit was already produced, so the pool is stable across runs and
    machines.  With ``name_prefix`` each accepted problem is named
    ``"<prefix><index>"`` (the name never affects the canonical key, so the
    pool's key sequence is identical with or without it).
    """
    forms: List[CanonicalForm] = []
    seen, seed = set(), start
    while len(forms) < count:
        name = f"{name_prefix}{len(forms)}" if name_prefix is not None else ""
        form = canonical_form(
            random_problem(labels, density=density, seed=seed, name=name)
        )
        if form.key not in seen:
            seen.add(form.key)
            forms.append(form)
        seed += 1
    return forms


__all__ = ["distinct_forms"]
