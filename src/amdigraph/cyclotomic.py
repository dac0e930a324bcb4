"""Cyclotomic polynomials, chain compositions, and Ramanujan sums.

The central object downstream is F_{i,k} = Phi_i(1 + x + ... + x^k), whose
irreducibility pattern drives the nonexistence arguments, together with the
power sums S_ell(Phi_n) = sum of ell-th powers of the primitive n-th roots of
unity (Ramanujan sums, by Hoelder's closed form) that feed the trace system.
"""
from __future__ import annotations

from functools import lru_cache

from .algebra import IntPoly, divisors, euler_phi, factorize, poly_compose, poly_divexact


@lru_cache(maxsize=None)
def cyclotomic(i: int) -> IntPoly:
    """The i-th cyclotomic polynomial: monic, integer, degree phi(i).

    Phi_i is computed as (x^i - 1) / prod_{d | i, d < i} Phi_d by exact
    integer division, and cached."""
    if i < 1:
        raise ValueError("cyclotomic index must be >= 1")
    den = IntPoly.one()
    for d in divisors(i):
        if d < i:
            den = den * cyclotomic(d)
    return poly_divexact(IntPoly.monomial(i) - IntPoly.one(), den)


def chain_poly(k: int) -> IntPoly:
    """1 + x + ... + x^k."""
    if k < 1:
        raise ValueError("chain_poly expects k >= 1")
    return IntPoly((1,) * (k + 1))


def build_F(i: int, k: int) -> IntPoly:
    """F_{i,k} = Phi_i(1 + x + ... + x^k); degree phi(i) * k."""
    if i < 1 or k < 1:
        raise ValueError("build_F expects i >= 1 and k >= 1")
    out = poly_compose(cyclotomic(i), chain_poly(k))
    assert out.degree == euler_phi(i) * k
    return out


def ramanujan_sum(ell: int, n: int) -> int:
    """Sum of ell-th powers of the primitive n-th roots of unity, by
    Hoelder's closed form (Hardy & Wright 16.6): the product over p^b || n
    of p^b - p^(b-1) if p^b | ell, -p^(b-1) if p^(b-1) || ell, else 0."""
    if ell < 1 or n < 1:
        raise ValueError("ramanujan_sum expects ell >= 1 and n >= 1")
    out = 1
    for p, b in factorize(n).items():
        q = p ** (b - 1)
        if ell % q:
            return 0
        out *= q * p - q if ell % (q * p) == 0 else -q
    return out
