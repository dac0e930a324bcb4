from __future__ import annotations

import cmath
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from amdigraph.algebra import IntPoly, divisors, euler_phi, poly_mul
from amdigraph.cyclotomic import build_F, chain_poly, cyclotomic, ramanujan_sum
from oracles import evaluate, mobius, primes_in


def test_first_cyclotomics() -> None:
    assert cyclotomic(1).coeffs == (-1, 1)
    assert cyclotomic(2).coeffs == (1, 1)
    assert cyclotomic(4).coeffs == (1, 0, 1)
    assert cyclotomic(6).coeffs == (1, -1, 1)
    assert cyclotomic(8).coeffs == (1, 0, 0, 0, 1)


def test_prime_cyclotomic_is_all_ones() -> None:
    for p in primes_in(2, 60):
        assert cyclotomic(p).coeffs == (1,) * p


def test_phi_105_has_coefficient_minus_two() -> None:
    # smallest index with a coefficient outside {-1, 0, 1}
    c = cyclotomic(105)
    assert c.degree == euler_phi(105) == 48
    assert c.coeffs[7] == -2
    assert c.coeffs[41] == -2
    for n in range(1, 105):
        assert all(abs(a) <= 1 for a in cyclotomic(n).coeffs)


def test_cyclotomic_degree_is_phi() -> None:
    for n in range(1, 301):
        assert cyclotomic(n).degree == euler_phi(n)


def test_cyclotomic_product_over_divisors() -> None:
    for n in range(1, 301):
        prod = IntPoly.one()
        for d in divisors(n):
            prod = poly_mul(prod, cyclotomic(d))
        assert prod.coeffs == (-1,) + (0,) * (n - 1) + (1,)


def test_chain_poly_is_geometric_sum() -> None:
    with pytest.raises(ValueError):
        chain_poly(0)
    assert chain_poly(1).coeffs == (1, 1)
    assert chain_poly(4).coeffs == (1, 1, 1, 1, 1)
    assert chain_poly(9).degree == 9


def test_build_F_known_cells() -> None:
    # F_{2,2} = Phi_2(1 + x + x^2) = x^2 + x + 2
    assert build_F(2, 2).coeffs == (2, 1, 1)
    assert build_F(3, 2).coeffs == (3, 3, 4, 2, 1)


@given(
    st.integers(min_value=2, max_value=20),
    st.integers(min_value=2, max_value=12),
    st.sampled_from([2, 3]),
)
@settings(max_examples=60, deadline=None)
def test_build_F_evaluates_as_composition(i: int, k: int, t: int) -> None:
    F = build_F(i, k)
    assert F.degree == euler_phi(i) * k
    chain_value = sum(t**j for j in range(k + 1))
    assert evaluate(F, t) == evaluate(cyclotomic(i), chain_value)


def _numeric_power_sum(ell: int, n: int) -> complex:
    return sum(
        cmath.exp(2j * cmath.pi * ell * j / n) for j in range(1, n + 1) if math.gcd(j, n) == 1
    )


def test_ramanujan_known_values() -> None:
    assert ramanujan_sum(3, 9) == -3
    assert ramanujan_sum(6, 12) == -4
    assert ramanujan_sum(5, 5) == euler_phi(5)
    assert ramanujan_sum(1, 10) == mobius(10)


def test_ramanujan_matches_numeric_power_sums() -> None:
    for n in range(1, 41):
        for ell in range(1, 41):
            z = _numeric_power_sum(ell, n)
            assert abs(z.imag) < 1e-6
            assert abs(ramanujan_sum(ell, n) - z.real) < 1e-6


def test_ramanujan_matches_divisor_sum() -> None:
    # oracle: c_n(ell) = sum_{j | gcd(n, ell)} mobius(n/j) * j
    for n in range(1, 301):
        for ell in range(1, 301):
            g = math.gcd(n, ell)
            oracle = sum(mobius(n // j) * j for j in divisors(g))
            assert ramanujan_sum(ell, n) == oracle, (ell, n)


@given(st.integers(min_value=1, max_value=200), st.integers(min_value=1, max_value=200))
@settings(max_examples=80, deadline=None)
def test_ramanujan_periodic_in_ell(ell: int, n: int) -> None:
    assert ramanujan_sum(ell, n) == ramanujan_sum(ell + n, n)


@given(st.integers(min_value=1, max_value=200), st.integers(min_value=1, max_value=200))
@settings(max_examples=80, deadline=None)
def test_ramanujan_is_mobius_when_coprime(ell: int, n: int) -> None:
    if math.gcd(ell, n) == 1:
        assert ramanujan_sum(ell, n) == mobius(n)
    if n % 1 == 0:
        assert ramanujan_sum(n, n) == euler_phi(n)


@given(
    st.integers(min_value=1, max_value=60),
    st.integers(min_value=1, max_value=24),
    st.integers(min_value=1, max_value=24),
)
@settings(max_examples=80, deadline=None)
def test_ramanujan_multiplicative_in_modulus(ell: int, m: int, n: int) -> None:
    if math.gcd(m, n) == 1:
        assert ramanujan_sum(ell, m * n) == ramanujan_sum(ell, m) * ramanujan_sum(ell, n)
