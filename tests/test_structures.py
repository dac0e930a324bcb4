from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from amdigraph.structures import CycleStructure, enumerate_structures
from oracles import is_two_critical, structures_by_filter


def _mk(mapping: dict[int, int]) -> CycleStructure:
    return CycleStructure.from_map(sum(j * m for j, m in mapping.items()), mapping)


def test_from_map_drops_zero_multiplicities() -> None:
    s = CycleStructure.from_map(10, {1: 2, 2: 4, 3: 0})
    assert s.entries == ((1, 2), (2, 4))
    assert s.N == 10


def test_two_critical_witness_normal_form() -> None:
    # all lengths even: alpha is the least stored length
    assert is_two_critical(_mk({1: 1, 6: 1, 12: 1})) == (True, 6)
    assert is_two_critical(_mk({2: 1, 4: 1, 8: 1})) == (True, 2)
    # an odd length present: alpha is the least odd part
    assert is_two_critical(_mk({1: 2, 3: 1, 6: 1, 12: 1})) == (True, 3)
    # failures
    assert is_two_critical(_mk({3: 1, 5: 1})) == (False, None)
    assert is_two_critical(_mk({2: 1, 6: 1})) == (False, None)
    assert is_two_critical(_mk({1: 4})) == (False, None)


def test_enumerate_structures_4_3_is_unique() -> None:
    out = enumerate_structures(4, 3)
    assert len(out) == 1
    only = out[0]
    assert only.N == 84
    assert only.entries == ((1, 3), (3, 27))
    assert is_two_critical(only) == (True, 3)


def test_enumerate_structures_5_2_frozen_list() -> None:
    out = enumerate_structures(5, 2)
    assert [s.entries for s in out] == [
        ((1, 2), (4, 7)),
        ((1, 2), (2, 2), (4, 6)),
        ((1, 2), (2, 4), (4, 5)),
        ((1, 2), (2, 6), (4, 4)),
        ((1, 2), (2, 8), (4, 3)),
        ((1, 2), (2, 10), (4, 2)),
        ((1, 2), (2, 12), (4, 1)),
        ((1, 2), (2, 14)),
    ]


@pytest.mark.parametrize(
    "d_prime,k",
    [(d, k) for d in range(2, 7) for k in (2, 3)] + [(4, 4), (5, 4), (9, 2)],
)
def test_enumerate_structures_matches_filter_reference(d_prime: int, k: int) -> None:
    assert enumerate_structures(d_prime, k) == structures_by_filter(d_prime, k)


def test_enumerate_structures_7_3_counts_each_family() -> None:
    # 99 structures on {2,4}, 66 on {3,6} and one on {6} alone
    out = enumerate_structures(7, 3)
    assert len(out) == 166
    least = [next(j for j, _ in s.entries if j > 1) for s in out]
    assert (least.count(2), least.count(3), least.count(6)) == (99, 66, 1)


@given(st.integers(min_value=3, max_value=6), st.integers(min_value=2, max_value=3))
@settings(max_examples=12, deadline=None)
def test_enumerate_structures_invariants(d_prime: int, k: int) -> None:
    N = sum(d_prime**t for t in range(1, k + 1))
    for s in enumerate_structures(d_prime, k):
        assert s.N == N
        assert sum(j * m for j, m in s.entries) == N
        assert dict(s.entries)[1] == k
        flag, alpha = is_two_critical(s)
        assert flag
        assert alpha is not None and (d_prime - 1) % alpha == 0


def test_serialize_round_trip_text() -> None:
    s = enumerate_structures(4, 3)[0]
    assert s.serialize() == "1:3 3:27"

