from __future__ import annotations

import pytest

from amdigraph import factorization


@pytest.fixture(autouse=True)
def _cold_factorization_caches() -> None:
    # tests that count F_p calls must not be served by an earlier test's
    # scans and factorizations
    factorization._scan.cache_clear()
    factorization._factor_over_Q.cache_clear()
