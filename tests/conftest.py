from __future__ import annotations

import pytest
from hypothesis import settings

from amdigraph import factorization

# Property tests draw the same examples on every run, so a test's run time
# and outcome do not drift between runs; per-test max_examples and deadline
# still apply.
settings.register_profile("fixed", derandomize=True)
settings.load_profile("fixed")


@pytest.fixture(autouse=True)
def _cold_factorization_caches() -> None:
    # tests that count F_p calls must not be served by an earlier test's
    # scans and factorizations
    factorization._scan.cache_clear()
    factorization._factor_over_Q.cache_clear()
