"""Exact integer polynomial arithmetic and elementary number theory.

Everything downstream (cyclotomic construction, factorization, trace
systems) works with monic-up-to-sign integer polynomials, so coefficients
are arbitrary-precision ints throughout and no rational arithmetic appears.

Polynomials are dense: ``coeffs[j]`` is the coefficient of ``x**j`` and the
last entry is nonzero (the zero polynomial is the empty tuple).  Degrees stay
below ~2000 at the scales this package targets, where a dense representation
is both simpler and fast enough.
"""
from __future__ import annotations

from math import gcd
from typing import Iterable, Iterator, Sequence


class NotDivisible(ArithmeticError):
    """Raised when an exact polynomial division leaves a remainder."""


# ---------------------------------------------------------------------------
# IntPoly
# ---------------------------------------------------------------------------

# Products with more coefficient pairs than this go through Kronecker
# substitution (pack into one big int, multiply once, unpack).
_KRONECKER_CUTOFF = 2048


def _trimmed(cs: Iterable[int]) -> tuple[int, ...]:
    cs = tuple(int(c) for c in cs)
    n = len(cs)
    while n > 0 and cs[n - 1] == 0:
        n -= 1
    return cs[:n]


class IntPoly:
    """Immutable dense polynomial with integer coefficients (ascending)."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[int] = ()):
        object.__setattr__(self, "coeffs", _trimmed(coeffs))

    def __setattr__(self, *a):  # pragma: no cover - immutability guard
        raise AttributeError("IntPoly is immutable")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero() -> "IntPoly":
        return IntPoly(())

    @staticmethod
    def one() -> "IntPoly":
        return IntPoly((1,))

    @staticmethod
    def x() -> "IntPoly":
        return IntPoly((0, 1))

    @staticmethod
    def constant(c: int) -> "IntPoly":
        return IntPoly((c,))

    @staticmethod
    def monomial(n: int, c: int = 1) -> "IntPoly":
        return IntPoly((0,) * n + (c,))

    # -- basic queries -----------------------------------------------------

    @property
    def degree(self) -> int:
        """Degree, with the convention degree(0) = -1."""
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def lead(self) -> int:
        if not self.coeffs:
            return 0
        return self.coeffs[-1]

    @property
    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def __getitem__(self, j: int) -> int:
        return self.coeffs[j] if 0 <= j < len(self.coeffs) else 0

    def __iter__(self) -> Iterator[int]:
        return iter(self.coeffs)

    def __eq__(self, other) -> bool:
        return isinstance(other, IntPoly) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __repr__(self) -> str:
        if not self.coeffs:
            return "IntPoly(0)"
        terms = []
        for j in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[j]
            if c == 0:
                continue
            if j == 0:
                terms.append(f"{c:+d}")
            else:
                xs = "x" if j == 1 else f"x^{j}"
                if c == 1:
                    terms.append(f"+{xs}")
                elif c == -1:
                    terms.append(f"-{xs}")
                else:
                    terms.append(f"{c:+d}*{xs}")
        s = "".join(terms).lstrip("+")
        return f"IntPoly({s})"

    # -- ring operations ---------------------------------------------------

    def __add__(self, other: "IntPoly") -> "IntPoly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for j, c in enumerate(b):
            out[j] += c
        return IntPoly(out)

    def __sub__(self, other: "IntPoly") -> "IntPoly":
        out = list(self.coeffs)
        out.extend([0] * (len(other.coeffs) - len(out)))
        for j, c in enumerate(other.coeffs):
            out[j] -= c
        return IntPoly(out)

    def __neg__(self) -> "IntPoly":
        return IntPoly(tuple(-c for c in self.coeffs))

    def __mul__(self, other: "IntPoly") -> "IntPoly":
        return poly_mul(self, other)

    def __pow__(self, e: int) -> "IntPoly":
        if e < 0:
            raise ValueError("negative exponent")
        r = IntPoly.one()
        b = self
        while e:
            if e & 1:
                r = poly_mul(r, b)
            b = poly_mul(b, b)
            e >>= 1
        return r

    def scale(self, c: int) -> "IntPoly":
        return IntPoly(tuple(c * a for a in self.coeffs))

    # -- calculus --------------------------------------------------------

    def derivative(self) -> "IntPoly":
        return IntPoly(tuple(j * c for j, c in enumerate(self.coeffs))[1:])

    def content(self) -> int:
        g = 0
        for c in self.coeffs:
            g = gcd(g, c)
            if g == 1:
                break
        return g

    def primitive_part(self) -> "IntPoly":
        g = self.content()
        if g in (0, 1):
            return self
        return IntPoly(tuple(c // g for c in self.coeffs))


def poly_mul(a: IntPoly, b: IntPoly) -> IntPoly:
    """Exact product of two integer polynomials."""
    ca, cb = a.coeffs, b.coeffs
    if not ca or not cb:
        return IntPoly.zero()
    if len(ca) * len(cb) <= _KRONECKER_CUTOFF:
        out = [0] * (len(ca) + len(cb) - 1)
        for i, ai in enumerate(ca):
            if ai:
                for j, bj in enumerate(cb):
                    out[i + j] += ai * bj
        return IntPoly(out)
    return IntPoly(_kronecker_mul(ca, cb))


def _kronecker_mul(ca: Sequence[int], cb: Sequence[int]) -> list[int]:
    # Split into nonnegative parts so each packed integer has nonnegative
    # fixed-width slots; slot width covers the largest convolution entry.
    na = max(abs(c) for c in ca)
    nb = max(abs(c) for c in cb)
    bits = (na * nb * min(len(ca), len(cb))).bit_length() + 1
    width = (bits + 7) // 8 + 1  # slot width in bytes

    def pack(cs, sign):
        return int.from_bytes(
            b"".join(
                (c if sign > 0 else -c if c < 0 else 0).to_bytes(width, "little")
                if (c > 0 if sign > 0 else c < 0)
                else bytes(width)
                for c in cs
            ),
            "little",
        )

    ap, am = pack(ca, +1), pack(ca, -1)
    bp, bm = pack(cb, +1), pack(cb, -1)
    pos = ap * bp + am * bm
    neg = ap * bm + am * bp
    n = len(ca) + len(cb) - 1
    raw_p = pos.to_bytes(n * width + width, "little")
    raw_n = neg.to_bytes(n * width + width, "little")
    out = []
    for j in range(n):
        seg = slice(j * width, (j + 1) * width)
        out.append(
            int.from_bytes(raw_p[seg], "little") - int.from_bytes(raw_n[seg], "little")
        )
    return out


def poly_divmod(a: IntPoly, b: IntPoly) -> tuple[IntPoly, IntPoly]:
    """Division with remainder; requires the leading coefficient of b to
    divide every leading term encountered (always true for monic b)."""
    if b.is_zero:
        raise ZeroDivisionError("polynomial division by zero")
    rem = list(a.coeffs)
    db = b.degree
    lb = b.lead
    if a.degree < db:
        return IntPoly.zero(), a
    q = [0] * (a.degree - db + 1)
    for i in range(a.degree - db, -1, -1):
        c = rem[i + db]
        if c == 0:
            continue
        if c % lb:
            raise NotDivisible(f"leading coefficient {lb} does not divide {c}")
        c //= lb
        q[i] = c
        for j, bc in enumerate(b.coeffs):
            rem[i + j] -= c * bc
    return IntPoly(q), IntPoly(rem[:db])


def poly_divexact(a: IntPoly, b: IntPoly) -> IntPoly:
    """Exact quotient a/b over the integers; NotDivisible if remainder."""
    q, r = poly_divmod(a, b)
    if not r.is_zero:
        raise NotDivisible(f"remainder of degree {r.degree} is nonzero")
    return q


def poly_compose(outer: IntPoly, inner: IntPoly) -> IntPoly:
    """Exact composition outer(inner(x)) by Horner's rule."""
    acc = IntPoly.zero()
    for c in reversed(outer.coeffs):
        acc = poly_mul(acc, inner) + IntPoly.constant(c)
    return acc


# ---------------------------------------------------------------------------
# Elementary number theory
# ---------------------------------------------------------------------------

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic primality for n < 2**64 (strong-pseudoprime bases)."""
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _SMALL_PRIMES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def prime_range_from(start: int) -> Iterator[int]:
    """Unbounded ascending prime generator starting at ``start``."""
    n = max(start, 2)
    while True:
        if is_prime(n):
            yield n
        n += 1


def factorize(n: int) -> dict[int, int]:
    """Prime factorization by trial division (inputs are desk-scale)."""
    if n < 1:
        raise ValueError("factorize expects n >= 1")
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def euler_phi(n: int) -> int:
    """Euler totient: number of units mod n."""
    if n < 1:
        raise ValueError("euler_phi expects n >= 1")
    out = n
    for p in factorize(n):
        out -= out // p
    return out


def divisors(n: int) -> list[int]:
    """All positive divisors of n, ascending."""
    f = factorize(n)
    out = [1]
    for p, e in f.items():
        out = [d * p**a for d in out for a in range(e + 1)]
    return sorted(out)

