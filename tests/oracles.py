"""Reference helpers the tests check the package against."""
from __future__ import annotations

from math import isqrt

from amdigraph.algebra import IntPoly


def evaluate(poly: IntPoly, x: int) -> int:
    """poly(x) by Horner's rule."""
    acc = 0
    for c in reversed(poly.coeffs):
        acc = acc * x + c
    return acc


def primes_in(lo: int, hi: int) -> list[int]:
    """Primes in the half-open interval [lo, hi), ascending, by a sieve."""
    lo = max(lo, 2)
    if hi <= lo:
        return []
    size = hi - lo
    sieve = bytearray([1]) * size
    for p in range(2, isqrt(hi - 1) + 1):
        start = max(p * p, (lo + p - 1) // p * p)
        if start < hi:
            run = len(range(start - lo, size, p))
            sieve[start - lo :: p] = bytes(run)
    return [lo + i for i in range(size) if sieve[i]]
