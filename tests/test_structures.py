from __future__ import annotations

import math

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from amdigraph.structures import (
    CycleStructure,
    char_poly_JP,
    char_poly_P,
    enumerate_structures,
    is_two_critical,
    lcm_closure,
    m_of,
)


def _mk(k: int, mapping: dict[int, int]) -> CycleStructure:
    return CycleStructure.from_map(sum(j * m for j, m in mapping.items()), k, mapping)


def _perm_matrix(s: CycleStructure) -> sympy.Matrix:
    ncols = s.N
    P = sympy.zeros(ncols, ncols)
    base = 0
    for j, mult in s.entries:
        for _ in range(mult):
            for t in range(j):
                P[base + (t + 1) % j, base + t] = 1
            base += j
    assert base == ncols
    return P


def _charpoly_coeffs(M: sympy.Matrix) -> tuple[int, ...]:
    poly = M.charpoly()
    coeffs = [int(c) for c in poly.all_coeffs()]
    return tuple(reversed(coeffs))


def test_from_map_drops_zero_multiplicities() -> None:
    s = CycleStructure.from_map(10, 2, {1: 2, 2: 4, 3: 0})
    assert s.entries == ((1, 2), (2, 4))
    assert s.N == 10
    assert s.lengths() == (1, 2)


def test_m_of_counts_cycles_with_divisible_length() -> None:
    s = _mk(2, {1: 2, 2: 3, 4: 1, 6: 2})
    assert m_of(s, 1) == 8
    assert m_of(s, 2) == 6
    assert m_of(s, 3) == 2
    assert m_of(s, 4) == 1
    with pytest.raises(ValueError):
        m_of(s, 0)


def test_two_critical_witness_normal_form() -> None:
    # all lengths even: alpha is the least stored length
    assert is_two_critical(_mk(2, {1: 1, 6: 1, 12: 1})) == (True, 6)
    assert is_two_critical(_mk(2, {2: 1, 4: 1, 8: 1})) == (True, 2)
    # an odd length present: alpha is the least odd part
    assert is_two_critical(_mk(2, {1: 2, 3: 1, 6: 1, 12: 1})) == (True, 3)
    # failures
    assert is_two_critical(_mk(2, {3: 1, 5: 1})) == (False, None)
    assert is_two_critical(_mk(2, {2: 1, 6: 1})) == (False, None)
    assert is_two_critical(_mk(2, {1: 4})) == (False, None)


def test_lcm_closure_known_values() -> None:
    assert lcm_closure({4}) == frozenset({4})
    assert lcm_closure({2, 3}) == frozenset({2, 3, 6})
    assert lcm_closure({2, 3, 5}) == frozenset({2, 3, 5, 6, 10, 15, 30})


@given(st.sets(st.integers(min_value=1, max_value=24), min_size=1, max_size=5))
@settings(max_examples=60, deadline=None)
def test_lcm_closure_is_closed_and_covers(seed: set[int]) -> None:
    closed = lcm_closure(seed)
    assert seed <= closed
    for a in closed:
        for b in closed:
            assert math.lcm(a, b) in closed


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


@given(st.integers(min_value=3, max_value=6), st.integers(min_value=2, max_value=3))
@settings(max_examples=12, deadline=None)
def test_enumerate_structures_invariants(d_prime: int, k: int) -> None:
    N = sum(d_prime**t for t in range(1, k + 1))
    for s in enumerate_structures(d_prime, k):
        assert s.N == N
        assert sum(j * m for j, m in s.entries) == N
        assert s.m(1) == k
        assert s.m(1) == s.k
        flag, alpha = is_two_critical(s)
        assert flag
        assert alpha is not None and (d_prime - 1) % alpha == 0


def test_serialize_round_trip_text() -> None:
    s = enumerate_structures(4, 3)[0]
    assert s.serialize() == "1:3 3:27"


def test_char_poly_P_identity_structure() -> None:
    assert char_poly_P(_mk(2, {1: 5})).coeffs == (-1, 5, -10, 10, -5, 1)


def test_char_poly_P_matches_matrix_oracle() -> None:
    for mapping in ({1: 2, 3: 3}, {2: 2, 4: 1}, {1: 1, 2: 1, 5: 1}):
        s = _mk(2, mapping)
        assert char_poly_P(s).coeffs == _charpoly_coeffs(_perm_matrix(s))


def test_char_poly_JP_identity_structure() -> None:
    # J + I on six vertices: eigenvalues 7 and 1^5
    assert char_poly_JP(_mk(2, {1: 6})).coeffs == (7, -36, 75, -80, 45, -12, 1)


def test_char_poly_JP_matches_matrix_oracle() -> None:
    for mapping in ({1: 2, 3: 3}, {1: 2, 2: 2, 4: 1}, {2: 1, 3: 2}):
        s = _mk(2, mapping)
        P = _perm_matrix(s)
        J = sympy.ones(s.N, s.N)
        assert char_poly_JP(s).coeffs == _charpoly_coeffs(J + P)

