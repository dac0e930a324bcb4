"""Dense polynomial arithmetic over prime fields F_p.

Internal kernel behind factor_mod_p / degree-set certification.  Polynomials
are numpy int64 arrays, ascending coefficients, residues in [0, p), trimmed.

Arithmetic modulo a fixed f of degree n goes through PolyMod, which
precomputes x^(n+j) mod f once (Shoup's precomputed-modulus arithmetic, as in
NTL), so a modular product is one convolution plus one matrix product.  Both
sum at most n products of two residues, so they stay exact in int64 while
n*(p-1)**2 < 2**63: with p < 2**20 that holds for every n below 2**23.  The
primes this package feeds in are a few hundred at most.

Euclidean division, remainders and (extended) gcds run on Python int lists:
a long division touches one coefficient per step, which numpy calls would
only slow down.

The distinct-degree routine uses the Frobenius matrix (rows x^{p*j} mod f) so
repeated Frobenius steps are matrix-vector products, with gcd extraction
batched in blocks and each block's product split on its own (von zur Gathen
& Gerhard, Modern Computer Algebra, ch. 14); this is what makes desk-scale
certification sweeps cheap.
"""
from __future__ import annotations

import random
from typing import Iterable

import numpy as np

GFArray = np.ndarray

_MAX_P = 1 << 20


def gf_trim(a: GFArray) -> GFArray:
    n = len(a)
    while n > 0 and a[n - 1] == 0:
        n -= 1
    return a[:n]


def gf_from_coeffs(cs: Iterable[int], p: int) -> GFArray:
    if p <= 1 or p >= _MAX_P:
        raise ValueError(f"modulus {p} out of supported range")
    return gf_trim(np.array([c % p for c in cs], dtype=np.int64))


def gf_zero() -> GFArray:
    return np.zeros(0, dtype=np.int64)


def gf_one() -> GFArray:
    return np.ones(1, dtype=np.int64)


def gf_x() -> GFArray:
    return np.array([0, 1], dtype=np.int64)


def gf_degree(a: GFArray) -> int:
    return len(a) - 1


def gf_add(a: GFArray, b: GFArray, p: int) -> GFArray:
    if len(a) < len(b):
        a, b = b, a
    out = a.copy()
    out[: len(b)] = (out[: len(b)] + b) % p
    return gf_trim(out)


def gf_sub(a: GFArray, b: GFArray, p: int) -> GFArray:
    n = max(len(a), len(b))
    out = np.zeros(n, dtype=np.int64)
    out[: len(a)] = a
    out[: len(b)] = (out[: len(b)] - b) % p
    return gf_trim(out)


def gf_mul(a: GFArray, b: GFArray, p: int) -> GFArray:
    if len(a) == 0 or len(b) == 0:
        return gf_zero()
    return gf_trim(np.convolve(a, b) % p)


def gf_scale(a: GFArray, c: int, p: int) -> GFArray:
    c %= p
    if c == 0:
        return gf_zero()
    return (a * c) % p


def gf_monic(a: GFArray, p: int) -> GFArray:
    if len(a) == 0 or a[-1] == 1:
        return a
    return gf_scale(a, pow(int(a[-1]), p - 2, p), p)


def _divmod_list(a: list[int], b: list[int], p: int) -> tuple[list[int], list[int]]:
    """Long division of trimmed coefficient lists, b nonzero: (quotient, remainder).

    The working remainder is reduced mod p only where a quotient coefficient
    is read and at the end; Python ints cannot overflow in between.
    """
    db = len(b) - 1
    da = len(a) - 1
    if da < db:
        return [], a[:]
    inv = pow(b[-1], -1, p)
    r = a[:]
    q = [0] * (da - db + 1)
    for i in range(da - db, -1, -1):
        c = r[i + db] % p * inv % p
        if c:
            q[i] = c
            for j in range(db):
                r[i + j] -= c * b[j]
    rem = [c % p for c in r[:db]]
    while rem and rem[-1] == 0:
        rem.pop()
    return q, rem


def _array(cs: list[int]) -> GFArray:
    return np.array(cs, dtype=np.int64)


def gf_divmod(a: GFArray, b: GFArray, p: int) -> tuple[GFArray, GFArray]:
    if len(b) == 0:
        raise ZeroDivisionError("division by zero polynomial")
    q, r = _divmod_list(a.tolist(), b.tolist(), p)
    return _array(q), _array(r)


def gf_rem(a: GFArray, b: GFArray, p: int) -> GFArray:
    return gf_divmod(a, b, p)[1]


def gf_gcd(a: GFArray, b: GFArray, p: int) -> GFArray:
    r0, r1 = a.tolist(), b.tolist()
    while r1:
        r0, r1 = r1, _divmod_list(r0, r1, p)[1]
    return gf_monic(_array(r0), p)


def gf_gcdext(a: GFArray, b: GFArray, p: int) -> tuple[GFArray, GFArray, GFArray]:
    """Extended Euclid: (g, s, t) with s*a + t*b = g, g monic."""
    r0, r1 = a.tolist(), b.tolist()
    s0, s1 = gf_one(), gf_zero()
    t0, t1 = gf_zero(), gf_one()
    while r1:
        q, r = _divmod_list(r0, r1, p)
        r0, r1 = r1, r
        q = _array(q)
        s0, s1 = s1, gf_sub(s0, gf_mul(q, s1, p), p)
        t0, t1 = t1, gf_sub(t0, gf_mul(q, t1, p), p)
    if not r0:
        raise ZeroDivisionError("gcdext of zero polynomials")
    c = pow(r0[-1], p - 2, p)
    return gf_scale(_array(r0), c, p), gf_scale(s0, c, p), gf_scale(t0, c, p)


def gf_derivative(a: GFArray, p: int) -> GFArray:
    if len(a) <= 1:
        return gf_zero()
    return gf_trim((a[1:] * np.arange(1, len(a), dtype=np.int64)) % p)


def gf_is_squarefree(a: GFArray, p: int) -> bool:
    return gf_degree(gf_gcd(a, gf_derivative(a, p), p)) == 0


class PolyMod:
    """Arithmetic in F_p[x]/(f) with f monic.

    Builds the reduction table (row j = x^(n+j) mod f, j < n-1) up front and
    caches the Frobenius matrix on first use.
    """

    def __init__(self, f: GFArray, p: int):
        self.p = p
        self.f = gf_monic(np.asarray(f, dtype=np.int64), p)
        n = self.n = gf_degree(self.f)
        self._frob: GFArray | None = None
        # a product of two residues has degree at most 2n-2
        table = np.zeros((max(n - 1, 0), max(n, 0)), dtype=np.int64)
        if n > 1:
            table[0] = (-self.f[:n]) % p
            for j in range(1, n - 1):
                prev = table[j - 1]
                table[j, 1:] = prev[:-1]
                table[j] = (table[j] + prev[-1] * table[0]) % p
        self._table = table

    def mul(self, a: GFArray, b: GFArray) -> GFArray:
        """a*b mod f, for a and b already reduced mod f."""
        if len(a) == 0 or len(b) == 0:
            return gf_zero()
        c = np.convolve(a, b) % self.p
        n = self.n
        if len(c) > n:
            c = (c[:n] + c[n:] @ self._table[: len(c) - n]) % self.p
        return gf_trim(c)

    def pow(self, a: GFArray, e: int) -> GFArray:
        r = gf_one()
        a = gf_rem(a, self.f, self.p)
        while e:
            if e & 1:
                r = self.mul(r, a)
            a = self.mul(a, a)
            e >>= 1
        return r

    def frobenius_matrix(self) -> GFArray:
        """Rows j = x^{p*j} mod f, j in [0, n)."""
        if self._frob is None:
            n, p = self.n, self.p
            Q = np.zeros((n, n), dtype=np.int64)
            Q[0, 0] = 1
            if n > 1:
                xp = self.pow(gf_x(), p)
                cur = xp
                Q[1, : len(cur)] = cur
                for j in range(2, n):
                    cur = self.mul(cur, xp)
                    Q[j, : len(cur)] = cur
            self._frob = Q
        return self._frob

    def frobenius(self, a: GFArray) -> GFArray:
        """a -> a**p mod f via the cached matrix."""
        Q = self.frobenius_matrix()
        v = np.zeros(self.n, dtype=np.int64)
        v[: len(a)] = a
        return gf_trim(Q.T @ v % self.p)


def _pth_root(a: GFArray, p: int) -> GFArray:
    # a is a polynomial in x**p; in F_p[x] the root just decimates indices
    return gf_trim(a[::p].copy())


def gf_squarefree_list(f: GFArray, p: int) -> list[tuple[GFArray, int]]:
    """Squarefree decomposition: list of (monic squarefree factor, multiplicity).

    Yun/Musser adapted to characteristic p (p-th powers handled by root
    extraction).  The unit content is dropped; input must be nonzero.
    """
    if len(f) == 0:
        raise ValueError("zero polynomial")
    f = gf_monic(f, p)
    out: list[tuple[GFArray, int]] = []
    e = 1
    while gf_degree(f) > 0:
        d = gf_gcd(f, gf_derivative(f, p), p)
        w = gf_divmod(f, d, p)[0]
        i = 1
        while gf_degree(w) > 0:
            y = gf_gcd(w, d, p)
            z = gf_divmod(w, y, p)[0]
            if gf_degree(z) > 0:
                out.append((z, i * e))
            w = y
            d = gf_divmod(d, y, p)[0]
            i += 1
        if gf_degree(d) == 0:
            break
        f = _pth_root(d, p)
        e *= p
    return out


def gf_distinct_degree_list(f: GFArray, p: int) -> list[tuple[GFArray, int]]:
    """Distinct-degree split of squarefree monic f: list of (product, degree).

    Factors of degree j are returned multiplied together.  The iterates
    h_j = x^(p^j) mod f come in blocks of 8: one gcd with the product of the
    block's h_j - x takes every factor of a degree in the block out of the
    remainder at once, and only that gcd g is split further, by
    gcd(g, h_j - x) in ascending j.  Early exit once the remainder must be
    irreducible.

    Splitting g at jj, every factor left in g has degree in [jj, j], j the
    block's last iterate, so two cases need no gcd: deg g < 2*jj leaves one
    irreducible factor, of degree deg g, and jj == j leaves factors of degree
    j only.  Either way g is appended as is and the split stops, which gives
    the list the gcds would have built.
    """
    ctx = PolyMod(f, p)
    n = ctx.n
    if n == 0:
        return []
    if n == 1:
        return [(ctx.f, 1)]
    out: list[tuple[GFArray, int]] = []
    remaining = ctx.f
    rem_deg = n
    x = gf_x()
    h = x
    j = 0
    block = 8
    while rem_deg >= 2 * (j + 1):
        iterates: list[tuple[int, GFArray]] = []  # (j, h_j - x)
        while len(iterates) < block and rem_deg >= 2 * (j + 1):
            j += 1
            h = ctx.frobenius(h)
            iterates.append((j, gf_sub(h, x, p)))
        acc = gf_one()
        for _, hx in iterates:
            acc = ctx.mul(acc, hx)
        g = gf_gcd(remaining, acc, p)
        if gf_degree(g) == 0:
            continue
        remaining = gf_divmod(remaining, g, p)[0]
        rem_deg -= gf_degree(g)
        for jj, hx in iterates:
            dg = gf_degree(g)
            if dg < 2 * jj or jj == j:
                out.append((g, dg if dg < 2 * jj else j))
                break
            # the first Euclid step reduces h_j - x mod g
            gj = gf_gcd(hx, g, p)
            if gf_degree(gj) > 0:
                out.append((gj, jj))
                g = gf_divmod(g, gj, p)[0]
                if gf_degree(g) == 0:
                    break
    if rem_deg > 0:
        out.append((remaining, rem_deg))
    return out


def gf_degree_multiset(f: GFArray, p: int) -> list[int]:
    """Degrees (with multiplicity) of the irreducible factors of f mod p.

    Accepts non-squarefree input; degrees of repeated factors repeat.
    """
    out: list[int] = []
    for sqf, mult in gf_squarefree_list(f, p):
        for prod, d in gf_distinct_degree_list(sqf, p):
            out.extend([d] * (gf_degree(prod) // d) * mult)
    return sorted(out)


def gf_equal_degree_split(f: GFArray, d: int, p: int, rng: random.Random) -> list[GFArray]:
    """Cantor-Zassenhaus: split monic squarefree f, all factors of degree d."""
    n = gf_degree(f)
    if n == d:
        return [f]
    ctx = PolyMod(f, p)
    while True:
        a = np.array([rng.randrange(p) for _ in range(n)], dtype=np.int64)
        a = gf_trim(a)
        if gf_degree(a) < 1:
            continue
        g = gf_gcd(f, a, p)
        if 0 < gf_degree(g) < n:
            h = gf_divmod(f, g, p)[0]
            break
        if p == 2:
            # trace map sum a^(2^i), i < d
            t = gf_zero()
            b = a
            for _ in range(d):
                t = gf_add(t, b, p)
                b = ctx.mul(b, b)
            g = gf_gcd(f, t, p)
        else:
            b = ctx.pow(a, (p**d - 1) // 2)
            g = gf_gcd(f, gf_sub(b, gf_one(), p), p)
        if 0 < gf_degree(g) < n:
            h = gf_divmod(f, g, p)[0]
            break
    return gf_equal_degree_split(g, d, p, rng) + gf_equal_degree_split(h, d, p, rng)


def gf_factor(f: GFArray, p: int) -> tuple[int, list[tuple[GFArray, int]]]:
    """Full factorization mod p: (leading unit, [(monic irreducible, mult)]).

    Deterministic: the equal-degree randomness is seeded from (f, p).
    """
    if len(f) == 0:
        raise ValueError("zero polynomial")
    lead = int(f[-1]) % p
    seed = hash((p,) + tuple(int(c) for c in f)) & 0xFFFFFFFF
    rng = random.Random(seed)
    out: list[tuple[GFArray, int]] = []
    for sqf, mult in gf_squarefree_list(f, p):
        for prod, d in gf_distinct_degree_list(sqf, p):
            for irr in gf_equal_degree_split(prod, d, p, rng):
                out.append((irr, mult))
    out.sort(key=lambda t: (gf_degree(t[0]), tuple(int(c) for c in t[0])))
    return lead, out
