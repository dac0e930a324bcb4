"""Reference helpers the tests check the package against."""
from __future__ import annotations

from math import isqrt

from amdigraph.algebra import IntPoly, factorize


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


def mobius(n: int) -> int:
    """Mobius function: (-1)**omega(n) on squarefree n, else 0."""
    if n < 1:
        raise ValueError("mobius expects n >= 1")
    f = factorize(n)
    if any(e > 1 for e in f.values()):
        return 0
    return -1 if len(f) % 2 else 1


def threshold_covered(d: int, k: int) -> tuple[bool, str | None]:
    """The paper's threshold theorem for d >= 6: the odd branch covers k odd
    with k >= 2(d-1), the even branch k even with k >= 2(d-1)^2."""
    if d < 6:
        raise ValueError("threshold_covered expects d >= 6")
    if k % 2 == 1 and k >= 2 * (d - 1):
        return True, "Odd"
    if k % 2 == 0 and k >= 2 * (d - 1) ** 2:
        return True, "Even"
    return False, None
