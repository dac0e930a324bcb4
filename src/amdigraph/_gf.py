"""Dense polynomial arithmetic over prime fields F_p.

Internal kernel behind degree-set certification and Hensel factoring.  Only
the Hensel route reaches gf_gcdext (b != 0), gf_squarefree_list (every
multiplicity below p), gf_equal_degree_split (f monic and squarefree, every
factor of degree d, p odd) and gf_factor (f squarefree, p odd).
Polynomials are numpy int64 arrays, ascending coefficients, residues in
[0, p), trimmed.

Arithmetic modulo a fixed f of degree n goes through PolyMod, which
precomputes x^(n+j) mod f once (Shoup's precomputed-modulus arithmetic, as in
NTL), so a modular product is one convolution plus one matrix product.  The
table is built by doubling: x^m times rows [0, m) gives rows [m, 2m), each
row's low columns shifted up by m plus its top m columns times rows [0, m),
so about log2 n float64 products build it.  A trinomial f = x^n + a*x + b
needs no table: x^n = -a*x - b and x times the high half of a product has
degree below n, so one fold, two shifted axpys, reduces it and adds at most
2*(p-1)**2 to a residue.

Two exactness bounds hold every sum of products of residues:

- int64, n*(p-1)**2 < 2**63: the convolution, the table product, the fold
  and the packed slots of Euclid below;
- float64, n*(p-1)**2 < 2**53: the reduction table's doubling steps, the
  Frobenius matrix, its build and its products.  Every such sum has at most
  n terms, each below (p-1)**2, so it is an exact float64 integer.  With
  p < 2**20 this holds for every n below 2**13.

PolyMod refuses an f and p past the float64 bound, which implies the int64
one.  The primes this package feeds in are about 10**4 at most, and its
degrees are at most 1600.

The distinct-degree routine uses the Frobenius matrix Q (row j = x^(p*j)
mod f), so repeated Frobenius steps are vector-matrix products, with gcd
extraction batched in blocks and each block's product split on its own (von
zur Gathen & Gerhard, Modern Computer Algebra, ch. 14; Shoup, J. Symb. Comp.
20 (1995)); this is what makes desk-scale certification sweeps cheap.  Q,
one float64 matrix, is a Krylov sequence: M, the matrix of multiplication
by x^p mod f (row i = x^i * x^p mod f), comes from a Toeplitz matrix of
x^p, whose columns of degree n and above the fold or the table reduce in a
few whole-array operations; then row j of Q is row j-1 times M, one float64
product per row, reduced mod p in int64.  The first step needs no matrix:
x^p mod f is kept on its own, as row 1, and is taken left to right over the
bits of p: a square by one modular product per bit, and for a set bit one
multiplication by x, a one-slot shift whose top, x^n, takes one fold or one
table row.  Each iterate's h_j - x is a copy of h_j with coefficient 1
lowered, trimmed only when deg h_j <= 1.  A caller that asks only about
factor degrees up to some u bounds the routine there: it stops after the
iterate x^(p^u) and returns the unsplit rest, every factor of degree above
u, as one entry, so a bound of 1 builds no matrix at all.

The equal-degree split is reached only through gf_factor, on the Hensel
route.  gf_factor builds one PolyMod per squarefree part and hands it to the
DDF and to every split of its parts, so a split works modulo a multiple of
its f and reuses the Frobenius matrix.  The Cantor-Zassenhaus power
a^((p^d-1)/2) is N(a)^((p-1)/2), N(a) = a * a^p * ... * a^(p^(d-1)) the norm
from F_{p^d} to F_p (von zur Gathen & Gerhard, 14.3): d - 1 Frobenius
applies and a (p-1)/2 power in place of a d*log2(p)-bit power.

Euclidean division, remainders and (extended) gcds run one quotient loop,
``_euclid``, which steps through every division of Euclid inline, with no
call per division; a single division is Euclid stopped after the first.
Each operand is packed into one Python int, one 64-bit slot per coefficient,
the leading coefficient in the lowest slot (Kronecker substitution; von zur
Gathen & Gerhard, 8.4).  A quotient step reads the lowest slot s and adds
m = s * t[c] mod p times the divisor, c its leading coefficient and
t[c] = -1/c mod p, which makes that slot 0 mod p, and shifts it out: one
multi-precision multiply-add per step in place of a loop over the divisor's
coefficients.  t is a table of negated inverses, built once per prime by the
recurrence 1/c = -(p // c) * 1/(p mod c) and kept in a bounded LRU, so a
division computes no inverse.  Slots only grow, so no borrow crosses a
slot, and they are reduced mod p only when they must be.  In one division a
slot receives at most min(quotient length, deg b + 1) additions, each at
most p - 1 times the divisor's largest slot.  The loop carries such a bound
for both remainders and reduces them (unpack, % p, repack) only before a
division whose bound would pass 2**63 - 1, so slots always read back as
int64.  From reduced operands the bound is (p-1) + (deg b + 1)*(p-1)**2,
which stays below 2**63 for deg b below 2**23 when p < 2**20.  A long
quotient runs on a window of the divisor's length plus 16 slots, topped up
from the dividend every 16 steps, so a step costs O(deg b) words whatever
the dividend's length.  Only gf_divmod and gf_gcdext read quotients; a gcd
lists none, and its common division, two quotient steps, is written out
with no loop.
"""
from __future__ import annotations

from array import array
from functools import lru_cache
import random
from typing import Iterable

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

GFArray = np.ndarray

_MAX_P = 1 << 20
_FLOAT_EXACT = 1 << 53  # float64 holds every integer below it


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


def gf_sub(a: GFArray, b: GFArray, p: int) -> GFArray:
    n = max(len(a), len(b))
    out = np.zeros(n, dtype=np.int64)
    out[: len(a)] = a
    out[: len(b)] = (out[: len(b)] - b) % p
    return gf_trim(out)


def _minus_x(h: GFArray, p: int) -> GFArray:
    """h - x: a copy of h with coefficient 1 lowered by 1 mod p.  Only a
    top of degree at most 1 can cancel, so only then does ``gf_sub`` trim."""
    if len(h) <= 2:
        return gf_sub(h, gf_x(), p)
    out = h.copy()
    out[1] = (int(out[1]) - 1) % p
    return out


def gf_mul(a: GFArray, b: GFArray, p: int) -> GFArray:
    if len(a) == 0 or len(b) == 0:
        return gf_zero()
    return gf_trim(np.convolve(a, b) % p)


def gf_monic(a: GFArray, p: int) -> GFArray:
    if len(a) == 0 or a[-1] == 1:
        return a
    return a * pow(int(a[-1]), p - 2, p) % p


_SLOT = np.dtype("<i8")
_MASK = (1 << 64) - 1
_LIMIT = (1 << 63) - 1  # slots stay below 2**63, so they read back as int64
_WINDOW = 16  # quotient steps between two top-ups of the division window
_WINDOW_MASK = (1 << 64 * _WINDOW) - 1


def _pack(a: GFArray) -> int:
    """One 64-bit slot per coefficient, the leading one in the lowest slot."""
    return int.from_bytes(a[::-1].astype(_SLOT, copy=False).tobytes(), "little")


def _slots(r: int, n: int) -> GFArray:
    return np.frombuffer(r.to_bytes(8 * n, "little"), _SLOT)


def _reduce(r: int, n: int, p: int) -> int:
    return int.from_bytes((_slots(r, n) % p).astype(_SLOT, copy=False).tobytes(), "little")


def _unpack(r: int, n: int, p: int) -> GFArray:
    """The n slots of r, reduced mod p, as ascending coefficients."""
    return _slots(r, n)[::-1] % p


@lru_cache(maxsize=64)
def _neg_inverses(p: int) -> array:
    """t[c] = -1/c mod p for c in [1, p), t[0] = 0: the multiplier that makes
    a slot c mod p vanish.  1/c = -(p // c) * 1/(p mod c) mod p, since
    p = (p // c)*c + p mod c, and -1/c satisfies the same recurrence.
    Stored as 8-byte machine ints: at p near 2**20 a list would hold 40 MB."""
    t = array("q", (0, p - 1))
    for c in range(2, p):
        t.append((p - p // c) * t[p % c] % p)
    return t


def _euclid(
    a: GFArray, b: GFArray, p: int, quotients: list[GFArray] | None = None, once: bool = False
) -> tuple[int, int, int, int]:
    """Euclid on a and b, every division in one quotient loop.

    Returns the last two remainders, packed, with their slot counts:
    (r0, n0, r1, n1), r1 = 0 and r0 the last nonzero remainder, not made
    monic.  With ``once`` it stops after the first division, so r1 = a mod b.
    Appends each division's quotient to ``quotients`` when given
    (``gf_divmod`` and ``gf_gcdext``); a gcd lists no quotient coefficient.
    Each division's multiplier comes from the prime's table of negated
    inverses (``_neg_inverses``).  The common division of a gcd, two steps,
    is written out: one read, one multiply-add and one shift per step.
    """
    r0, n0, r1, n1 = _pack(a), len(a), _pack(b), len(b)
    neg_inv = _neg_inverses(p)
    top = p - 1
    b0 = b1 = top  # slot bounds of r0 and r1
    while n1:
        steps = n0 - n1 + 1
        # the most multiply-adds one slot of r0 receives, and the remainder's
        # slot count: a shorter r0 (only ever in the first division) is the
        # remainder as it stands
        if steps > 0:
            touches, n = (steps if steps < n1 else n1), n1 - 1
        else:
            touches, n = 0, n0
        bound = b0 + touches * top * b1  # the remainder's slot bound
        if bound > _LIMIT:
            r0, r1, b1 = _reduce(r0, n0, p), _reduce(r1, n1, p), top
            bound = top + touches * top * top
        # adding ((lowest slot) * neg % p) * r1 makes the lowest slot 0 mod p;
        # that multiplier is p - c for the quotient coefficient c, or 0
        neg = neg_inv[(r1 & _MASK) % p]
        if steps == 2 and quotients is None:
            w = (r0 + (r0 & _MASK) * neg % p * r1) >> 64
            w = (w + (w & _MASK) * neg % p * r1) >> 64
        else:
            w, rest = r0, 0
            if steps > _WINDOW:
                cut = 64 * (n1 - 1 + _WINDOW)
                w, rest = r0 & ((1 << cut) - 1), r0 >> cut
            q: list[int] = []
            for step in range(steps):
                c = (w & _MASK) * neg % p
                w = (w + c * r1) >> 64
                if quotients is not None:
                    q.append(c)
                if rest and step % _WINDOW == _WINDOW - 1:  # top the window up
                    w |= (rest & _WINDOW_MASK) << 64 * (n1 - 1)
                    rest >>= 64 * _WINDOW
            if quotients is not None:
                quotients.append(-np.array(q[::-1], dtype=np.int64) % p)
        # drop the remainder's leading slots that are 0 mod p
        while n and (w & _MASK) % p == 0:
            w >>= 64
            n -= 1
        r0, n0, b0, r1, n1, b1 = r1, n1, b1, w, n, bound
        if once:
            break
    return r0, n0, r1, n1


def gf_divmod(a: GFArray, b: GFArray, p: int) -> tuple[GFArray, GFArray]:
    if len(b) == 0:
        raise ZeroDivisionError("division by zero polynomial")
    quotients: list[GFArray] = []
    _, _, r, n = _euclid(a, b, p, quotients, once=True)
    return quotients[0], _unpack(r, n, p)


def gf_gcd(a: GFArray, b: GFArray, p: int) -> GFArray:
    r, n, _, _ = _euclid(a, b, p)
    return gf_monic(_unpack(r, n, p), p)


def gf_gcdext(a: GFArray, b: GFArray, p: int) -> tuple[GFArray, GFArray, GFArray]:
    """Extended Euclid for b != 0: (g, s, t) with s*a + t*b = g, g monic.  Only
    s runs the recurrence over Euclid's quotients; t = (g - s*a)/b, exactly."""
    if len(b) == 0:
        raise ZeroDivisionError("gcdext needs a nonzero b")
    quotients: list[GFArray] = []
    r, n, _, _ = _euclid(a, b, p, quotients)
    g = _unpack(r, n, p)
    s0, s1 = gf_one(), gf_zero()
    for q in quotients:
        s0, s1 = s1, gf_sub(s0, gf_mul(q, s1, p), p)
    c = pow(int(g[-1]), p - 2, p)
    g, s = g * c % p, s0 * c % p
    return g, s, gf_divmod(gf_sub(g, gf_mul(s, a, p), p), b, p)[0]


def gf_derivative(a: GFArray, p: int) -> GFArray:
    return gf_trim((a[1:] * np.arange(1, len(a), dtype=np.int64)) % p)


def gf_is_squarefree(a: GFArray, p: int) -> bool:
    return gf_degree(gf_gcd(a, gf_derivative(a, p), p)) == 0


def _reduction_table(f: GFArray, p: int) -> GFArray:
    """Rows j = x^(n+j) mod f, j < n - 1, for f monic of degree n >= 2: a
    product of two residues has degree at most 2n - 2.

    By doubling: row m + j = x^m * row j, so rows [m, 2m) are rows [0, m)
    shifted up by m, plus their top m columns times rows [0, m), one float64
    product of sums of at most m < n terms below (p-1)**2 per step."""
    n = len(f) - 1
    table = np.zeros((n - 1, n), dtype=np.int64)
    table[0] = (-f[:n]) % p
    m = 1
    while m < n - 1:
        rows = table[: min(m, n - 1 - m)]
        new = table[m : m + len(rows)]
        new[:, m:] = rows[:, : n - m]
        new += (rows[:, n - m :].astype(np.float64) @ table[:m].astype(np.float64)).astype(np.int64)
        new %= p
        m += len(rows)
    return table


class PolyMod:
    """Arithmetic in F_p[x]/(f) with f monic, n = deg f, n*(p-1)**2 < 2**53.

    A trinomial f = x^n + a*x + b (n > 1) reduces by one fold; any other f
    builds the reduction table (row j = x^(n+j) mod f, j < n-1) up front,
    by doubling (``_reduction_table``).
    x^p mod f and the Frobenius matrix are cached on first use.
    """

    def __init__(self, f: GFArray, p: int):
        n = len(f) - 1
        if n * (p - 1) ** 2 >= _FLOAT_EXACT:
            raise ValueError(f"degree {n} at p = {p} passes n*(p-1)**2 < 2**53")
        self.p = p
        self.f = gf_monic(np.asarray(f, dtype=np.int64), p)
        self.n = n
        self._xp: GFArray | None = None
        self._frob: np.ndarray | None = None
        self._table: GFArray | None = None
        self._fold = (int(self.f[0]), int(self.f[1])) if n > 1 else (0, 0)
        if n > 1 and self.f[2:n].any():
            self._table = _reduction_table(self.f, p)

    def mul(self, a: GFArray, b: GFArray) -> GFArray:
        """a*b mod f, for a and b already reduced mod f."""
        if len(a) == 0 or len(b) == 0:
            return gf_zero()
        p = self.p
        c = np.convolve(a, b)
        c %= p
        n = self.n
        if len(c) > n:
            hi = c[n:]
            if self._table is None:  # x^n = -a*x - b, and x*hi has degree < n
                f0, f1 = self._fold
                c[: len(hi)] -= f0 * hi
                c[1 : len(hi) + 1] -= f1 * hi
            else:
                c[:n] += hi @ self._table[: len(hi)]
            c = c[:n]
            c %= p
        return gf_trim(c)

    def pow(self, a: GFArray, e: int) -> GFArray:
        """a**e mod f for a reduced mod f, as in ``mul``.  Only the
        equal-degree split calls it, on a norm (a draw of degree below n, or
        a ``mul`` product); ``x_to_p`` has its own ladder."""
        r = gf_one()
        while e:
            if e & 1:
                r = self.mul(r, a)
            a = self.mul(a, a)
            e >>= 1
        return r

    def x_to_p(self) -> GFArray:
        """x^p mod f, the first Frobenius iterate of x and row 1 of the matrix,
        asked for only at n >= 2, where x is reduced mod f.  Left to right
        over the bits of p: each further bit squares by ``mul``, and a set
        bit then multiplies by x (``_times_x``)."""
        if self._xp is None:
            r = gf_x()
            for bit in bin(self.p)[3:]:
                r = self.mul(r, r)
                if bit == "1":
                    r = self._times_x(r)
            self._xp = r
        return self._xp

    def _times_x(self, a: GFArray) -> GFArray:
        """x*a mod f for a reduced mod f: a one-slot shift, and when a has
        degree n-1, one fold or one table row (x^n mod f) for its top."""
        n, p = self.n, self.p
        c = np.zeros(len(a) + 1, dtype=np.int64)
        c[1:] = a
        if len(c) > n:
            hi = c[n]
            c = c[:n]
            if self._table is None:  # x^n = -a*x - b
                f0, f1 = self._fold
                c[0] -= f0 * hi
                c[1] -= f1 * hi
            else:
                c += hi * self._table[0]
            c %= p
        return gf_trim(c)

    def frobenius_matrix(self) -> np.ndarray:
        """Rows j = x^{p*j} mod f, j in [0, n), in the one float64 matrix that
        ``frobenius`` multiplies by, built once: row j is row j-1 times M, the
        matrix of multiplication by x^p mod f, reduced through an int64 row."""
        if self._frob is None:
            n, p = self.n, self.p
            Q = np.zeros((n, n))
            Q[0, 0] = 1
            if n > 1:
                M = self._times_x_to_p().astype(np.float64)
                Q[1] = M[0]
                q = np.empty(n, dtype=np.int64)
                for j in range(2, n):
                    q[...] = Q[j - 1] @ M
                    q %= p
                    Q[j] = q
            self._frob = Q
        return self._frob

    def _times_x_to_p(self) -> GFArray:
        """M, row i = x^i * x^p mod f, i in [0, n): the unreduced rows are a
        Toeplitz matrix of x^p, whose high columns the fold or the table
        reduce in whole-array operations."""
        n, p, xp = self.n, self.p, self.x_to_p()
        v = np.zeros(3 * n - 2, dtype=np.int64)
        v[n - 1 : n - 1 + len(xp)] = xp
        shifts = sliding_window_view(v, 2 * n - 1)[::-1]  # row i = x^i * x^p
        M, hi = shifts[:, :n].copy(), shifts[:, n:]
        if self._table is None:
            f0, f1 = self._fold
            M[:, : n - 1] -= f0 * hi
            M[:, 1:] -= f1 * hi
        else:
            M += (hi.astype(np.float64) @ self._table.astype(np.float64)).astype(np.int64)
        M %= p
        return M

    def frobenius(self, a: GFArray) -> GFArray:
        """a -> a**p mod f: a times the matrix's first len(a) rows, in
        float64, exact as the rows are."""
        r = (a @ self.frobenius_matrix()[: len(a)]).astype(np.int64)
        r %= self.p
        return gf_trim(r)


def gf_squarefree_list(f: GFArray, p: int) -> list[tuple[GFArray, int]]:
    """(monic squarefree factor, multiplicity) pairs of nonzero f, units dropped,
    every multiplicity below p: one pass of Yun/Musser's loop (von zur Gathen &
    Gerhard, 14.6).  A multiplicity that p divides stays in d: ValueError."""
    if len(f) == 0:
        raise ValueError("zero polynomial")
    f = gf_monic(f, p)
    out: list[tuple[GFArray, int]] = []
    d = gf_gcd(f, gf_derivative(f, p), p)
    w = gf_divmod(f, d, p)[0]
    i = 1
    while gf_degree(w) > 0:
        y = gf_gcd(w, d, p)
        z = gf_divmod(w, y, p)[0]
        if gf_degree(z) > 0:
            out.append((z, i))
        w = y
        d = gf_divmod(d, y, p)[0]
        i += 1
    if gf_degree(d) > 0:
        raise ValueError(f"a multiplicity divisible by p = {p}")
    return out


def gf_distinct_degree_list(
    f: GFArray, p: int, ctx: PolyMod | None = None, upto: int | None = None
) -> list[tuple[GFArray, int]]:
    """Distinct-degree split of squarefree monic f: list of (product, degree).

    Factors of degree j are returned multiplied together.  The iterates
    h_j = x^(p^j), taken in ``ctx`` modulo f or a multiple of f (every gcd
    is with a divisor of f), come in blocks of 8: one gcd with the product
    of the block's h_j - x takes every factor of a degree in the block out
    of the remainder at once, and only that gcd g is split further, by
    gcd(g, h_j - x) in ascending j.  Early exit once the remainder must be
    irreducible.  h_1 = x^p comes from ``ctx.x_to_p``, not the matrix, and
    a block's product starts from its first h_j - x.

    With ``upto`` = u the last block closes at j = u, and the remainder,
    the product of every factor of degree above u, is appended whole with
    its own degree, as an irreducible leftover is: entries of degree at most
    u are exactly those of the unbounded split.  u = 1 builds no Frobenius
    matrix.

    Splitting g at jj, every factor left in g has degree in [jj, j], j the
    block's last iterate, so two cases need no gcd: deg g < 2*jj leaves one
    irreducible factor, of degree deg g, and jj == j leaves factors of degree
    j only.  Either way g is appended as is and the split stops, which gives
    the list the gcds would have built.
    """
    remaining = gf_monic(f, p)
    rem_deg = gf_degree(remaining)
    ctx = ctx or PolyMod(remaining, p)
    out: list[tuple[GFArray, int]] = []
    h = gf_x()
    j = 0
    block = 8
    last = rem_deg if upto is None else upto
    while j < last and rem_deg >= 2 * (j + 1):
        iterates: list[tuple[int, GFArray]] = []  # (j, h_j - x)
        while len(iterates) < block and j < last and rem_deg >= 2 * (j + 1):
            j += 1
            h = ctx.frobenius(h) if j > 1 else ctx.x_to_p()
            iterates.append((j, _minus_x(h, p)))
        acc = iterates[0][1]
        for _, hx in iterates[1:]:
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


def gf_equal_degree_split(
    f: GFArray, d: int, p: int, rng: random.Random, ctx: PolyMod
) -> list[GFArray]:
    """Cantor-Zassenhaus: split monic squarefree f, all factors of degree d,
    p odd, in ``ctx`` modulo f or a multiple of f (the gcd with f reads each
    power mod f); a**((p**d - 1)/2) is taken by the norm.

    A constant or zero draw a needs no skip: a**((p**d - 1)/2) - 1 is then
    0, -2 or -1, so its gcd with f is f or 1, which splits nothing, and the
    loop draws again.  Each draw splits with probability at least 1/2, so 64
    misses in a row mean a faulty kernel and raise ArithmeticError."""
    n = gf_degree(f)
    if n == d:
        return [f]
    for _ in range(64):
        a = norm = gf_trim(np.array([rng.randrange(p) for _ in range(n)], dtype=np.int64))
        for _ in range(d - 1):
            a = ctx.frobenius(a)
            norm = ctx.mul(norm, a)
        g = gf_gcd(f, gf_sub(ctx.pow(norm, (p - 1) // 2), gf_one(), p), p)
        if 0 < gf_degree(g) < n:
            break
    else:
        raise ArithmeticError(f"no split of a degree-{n} product of degree-{d} factors mod {p}")
    h = gf_divmod(f, g, p)[0]
    return gf_equal_degree_split(g, d, p, rng, ctx) + gf_equal_degree_split(h, d, p, rng, ctx)


def gf_factor(f: GFArray, p: int) -> list[GFArray]:
    """Monic irreducible factors of squarefree f mod an odd prime p, sorted
    by degree, then coefficients.

    Deterministic: the equal-degree randomness is seeded from (f, p).
    """
    if p == 2:
        raise ValueError("gf_factor expects an odd prime")
    seed = hash((p,) + tuple(int(c) for c in f)) & 0xFFFFFFFF
    rng = random.Random(seed)
    out: list[GFArray] = []
    for sqf, mult in gf_squarefree_list(f, p):
        if mult != 1:
            raise ValueError("gf_factor expects a squarefree polynomial")
        ctx = PolyMod(sqf, p)
        for prod, d in gf_distinct_degree_list(sqf, p, ctx):
            out.extend(gf_equal_degree_split(prod, d, p, rng, ctx))
    out.sort(key=lambda g: (gf_degree(g), tuple(int(c) for c in g)))
    return out
