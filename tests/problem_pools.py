"""Seeded problem pools shared by the fuzz, parity, and loadgen suites.

The generation itself lives in :mod:`repro.problems.pools` so the
load-generation harness (``src/repro/loadgen``) can draw from the very same
pools the test suites exercise; this module re-exports it under the name
the tests have always imported.  One generator, many consumers: the
scheduler fuzz harness (``test_scheduler_fuzz.py``) interleaves operations
over these pools, the session parity tests (``test_api.py``) classify the
same pools through every endpoint kind, and the loadgen differential tests
(``test_loadgen_parity.py``) replay seeded workload streams built on them.
"""

from repro.problems.pools import distinct_forms

__all__ = ["distinct_forms"]
