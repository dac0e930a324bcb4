from __future__ import annotations

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from amdigraph.algebra import (
    IntPoly,
    NotDivisible,
    divisors,
    euler_phi,
    factorize,
    is_prime,
    poly_compose,
    poly_divexact,
    poly_divmod,
    poly_mul,
    prime_range_from,
)
from oracles import evaluate, mobius, primes_in, schoolbook_mul

coeff = st.integers(min_value=-(10**6), max_value=10**6)
small_poly = st.lists(coeff, min_size=0, max_size=33).map(IntPoly)
nonzero_poly = small_poly.filter(lambda p: not p.is_zero)


def test_intpoly_normalizes_trailing_zeros() -> None:
    assert IntPoly((1, 2, 0, 0)).coeffs == (1, 2)
    assert IntPoly((0, 0)).coeffs == ()
    assert IntPoly(()).is_zero


def test_intpoly_basic_accessors() -> None:
    p = IntPoly((2, 0, 4))
    assert p.degree == 2
    assert p.lead == 4
    assert p.content() == 2
    assert p.primitive_part().coeffs == (1, 0, 2)
    assert IntPoly.zero().degree == -1


def test_intpoly_value_semantics() -> None:
    p = IntPoly((1, 2))
    with pytest.raises(AttributeError):
        p.coeffs = (3,)
    assert IntPoly((1,)) != (1,)
    assert hash(IntPoly([1, 2, 0])) == hash(p)
    assert {p, IntPoly((1, 2, 0)), IntPoly(iter([1, 2]))} == {p}
    q = IntPoly(np.array([4, 0, -5, 0, 0], dtype=np.int64))
    assert q.coeffs == (4, 0, -5)
    assert all(type(c) is int for c in q.coeffs)


def test_intpoly_constructors() -> None:
    assert IntPoly.one().coeffs == (1,)
    assert IntPoly.monomial(3).coeffs == (0, 0, 0, 1)
    assert IntPoly.monomial(2, -7).coeffs == (0, 0, -7)
    assert IntPoly.constant(5).coeffs == (5,)


def test_intpoly_scale_and_shift() -> None:
    p = IntPoly((2, 0, 4))
    assert p.scale(3).coeffs == (6, 0, 12)
    assert (IntPoly((1, 1)) * IntPoly.monomial(2)).coeffs == (0, 0, 1, 1)


def test_intpoly_evaluate_and_derivative() -> None:
    p = IntPoly((1, -3, 2))  # 2x^2 - 3x + 1
    assert evaluate(p, 0) == 1
    assert evaluate(p, 2) == 3
    assert p.derivative().coeffs == (-3, 4)
    assert IntPoly((7,)).derivative().is_zero


def test_poly_mul_known_product() -> None:
    # (x + 1)(x - 1) = x^2 - 1
    assert poly_mul(IntPoly((1, 1)), IntPoly((-1, 1))).coeffs == (-1, 0, 1)
    assert poly_mul(IntPoly.zero(), IntPoly((3, 2))).is_zero


@pytest.mark.parametrize(
    "la, lb, bits, negative",
    [
        (45, 45, 400, False),  # 2025 coefficient pairs: the schoolbook loop
        (64, 32, 60, True),  # 2048 pairs, the last below the cutoff
        (46, 45, 400, False),  # 2070 pairs: Kronecker substitution
        (300, 301, 60, False),
        (1300, 2, 400, True),  # lopsided
        (3, 1300, 1, False),
        (1300, 40, 400, True),
    ],
)
def test_poly_mul_matches_schoolbook_on_both_sides_of_the_cutoff(
    la: int, lb: int, bits: int, negative: bool
) -> None:
    rng = random.Random(la * lb + bits)

    def draw(n: int) -> IntPoly:
        cs = [rng.randint(-(2**bits), 2**bits) for _ in range(n - 1)] + [2**bits]
        return IntPoly(-abs(c) for c in cs) if negative else IntPoly(cs)

    a, b = draw(la), draw(lb)
    assert poly_mul(a, b) == schoolbook_mul(a, b)


def test_poly_divmod_known_case() -> None:
    q, r = poly_divmod(IntPoly((1, 0, 1)), IntPoly((1, 1)))
    assert q.coeffs == (-1, 1)
    assert r.coeffs == (2,)


def test_poly_divexact_rejects_inexact() -> None:
    with pytest.raises(NotDivisible):
        poly_divexact(IntPoly((1, 0, 1)), IntPoly((1, 1)))


def test_poly_compose_known_case() -> None:
    # (x + 1) o x^2 = x^2 + 1
    assert poly_compose(IntPoly((1, 1)), IntPoly((0, 0, 1))).coeffs == (1, 0, 1)


@given(small_poly, small_poly, small_poly)
@settings(max_examples=60, deadline=None)
def test_poly_mul_distributes_over_addition(a: IntPoly, b: IntPoly, c: IntPoly) -> None:
    def add(p: IntPoly, q: IntPoly) -> IntPoly:
        n = max(len(p.coeffs), len(q.coeffs))
        pc = p.coeffs + (0,) * (n - len(p.coeffs))
        qc = q.coeffs + (0,) * (n - len(q.coeffs))
        return IntPoly(tuple(x + y for x, y in zip(pc, qc)))

    assert poly_mul(a, add(b, c)) == add(poly_mul(a, b), poly_mul(a, c))


@given(small_poly, nonzero_poly)
@settings(max_examples=60, deadline=None)
def test_poly_divexact_inverts_mul(a: IntPoly, b: IntPoly) -> None:
    assert poly_divexact(poly_mul(a, b), b) == a


@given(small_poly, small_poly, st.integers(min_value=-9, max_value=9))
@settings(max_examples=60, deadline=None)
def test_poly_compose_agrees_with_evaluation(f: IntPoly, g: IntPoly, t: int) -> None:
    assert evaluate(poly_compose(f, g), t) == evaluate(f, evaluate(g, t))


def test_divisors_known_values() -> None:
    assert divisors(1) == [1]
    assert divisors(12) == [1, 2, 3, 4, 6, 12]
    assert divisors(49) == [1, 7, 49]


def test_factorize_known_values() -> None:
    assert factorize(1) == {}
    assert factorize(360) == {2: 3, 3: 2, 5: 1}
    assert factorize(97) == {97: 1}


@given(st.integers(min_value=1, max_value=10**6))
@settings(max_examples=80, deadline=None)
def test_factorize_reconstructs_input(n: int) -> None:
    fac = factorize(n)
    assert math.prod(p**e for p, e in fac.items()) == n
    assert all(is_prime(p) for p in fac)


def test_euler_phi_known_values() -> None:
    assert [euler_phi(n) for n in range(1, 13)] == [1, 1, 2, 2, 4, 2, 6, 4, 6, 4, 10, 4]


@given(st.integers(min_value=1, max_value=10**5))
@settings(max_examples=80, deadline=None)
def test_phi_sums_over_divisors(n: int) -> None:
    assert sum(euler_phi(d) for d in divisors(n)) == n


def test_mobius_known_values() -> None:
    assert [mobius(n) for n in range(1, 13)] == [1, -1, -1, 0, -1, 1, -1, 0, 0, 1, -1, 0]


def test_mertens_value_at_ten_thousand() -> None:
    assert sum(mobius(n) for n in range(1, 10001)) == -23


@given(st.integers(min_value=2, max_value=10**4))
@settings(max_examples=60, deadline=None)
def test_mobius_sums_to_zero_over_divisors(n: int) -> None:
    assert sum(mobius(d) for d in divisors(n)) == 0


def test_is_prime_matches_sieve_below_2000() -> None:
    sieve = set(primes_in(2, 2000))
    for n in range(2000):
        assert is_prime(n) == (n in sieve)


def test_primes_in_bounds_are_half_open() -> None:
    assert primes_in(10, 30) == [11, 13, 17, 19, 23, 29]
    assert primes_in(11, 12) == [11]
    assert primes_in(14, 14) == []


def test_prime_range_from_streams_ascending() -> None:
    it = prime_range_from(100)
    assert [next(it) for _ in range(4)] == [101, 103, 107, 109]
