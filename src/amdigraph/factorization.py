"""Rational factorization and irreducibility certificates for F_{i,k}.

One degree-set engine, ``_intersect``, serves every certificate here.  It
reads a stream of (prime, mod-p images), ANDs together the subset-sum
closures of the images' factor-degree multisets, and stops at {0, deg}
(irreducible), after 24 contributing primes (``_PRIME_BUDGET``), or after
64 * 24 primes scanned.  Never a false positive: every true rational factor
degree survives in each closure.  Each image's DDF stops at the mask's
highest open degree u <= deg/2 and lists the rest as one part, which leaves
the mask exactly as full DDFs would (the proof is in ``_intersect``).

The scan from _PRIME_FLOOR and the rational factorization are memoised per
sign-normalised polynomial in bounded caches (``_CACHE_SIZE`` entries each),
so ``certify_irreducible`` after ``factor_over_Q`` on the same polynomial, or
the reverse, reuses the scan and the Hensel factorization instead of
repeating them.  The squarefree gate lives in the prime stream
``_reductions`` that every scan of a rational polynomial reads, so a
repeated factor ends the scan after 41 primes with NotSquarefree.  Three
users:

* degree-set certification (``certify_irreducible``) over the squarefree
  full-degree reductions that ``_reductions`` yields;
* full rational factorization: Hensel lifting of one mod-p factorization,
  at the prime with the fewest counted parts, plus recombination pruned by the
  degree set.  Each quadratic step lifts coefficient lists reduced mod m^2,
  and recombination refuses a candidate whose constant term does not divide
  the cofactor's before any trial division.  The reducible F_{i,k} split
  into just two factors, which keeps recombination away from lattice
  reduction;
* tower sampling for F_{i,k} itself: writing s = 1 + x + ... + x^k, the
  composite F_{i,k} = Phi_i(s) is irreducible over Q as soon as s - zeta is
  irreducible over Q(zeta) for a primitive i-th root zeta (a root theta of
  F generates zeta = s(theta)^t, so [Q(theta):Q] = k * phi(i) forces a single
  factor).  For primes p = 1 (mod i), each primitive i-th root zbar of F_p is
  the residue of zeta at one of the phi(i) primes above p, so the factor
  degrees of s - zbar over F_p are a sound sample for degree-set
  certification of s - zeta at degree k instead of degree phi(i)*k.  This is
  what makes the k <= 300 sweeps cheap.  Each sample's DDF runs modulo the
  trinomial T = (x - 1)(s - zbar), which PolyMod reduces by a fold.  A
  sample is used only when squarefree, which needs no gcd: with
  a = (k + 1)(zbar - 1)/(zbar*k), s - zbar has a repeated root exactly when
  p does not divide k(k + 1), a != 1 and a^k = zbar/(k + 1) mod p, and the
  peeled quotient exactly when also a != -1/zbar (the proof is at
  ``_tower_sample_squarefree``).  Whether
  Phi_m | F is read off k (the lemma at ``split_index``), so F is built only
  for a peeled cell's cofactor.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, reduce
from itertools import combinations, islice, zip_longest
from math import gcd, isqrt
from typing import Callable, Iterable, Iterator

import numpy as np

from . import _gf
from .algebra import (
    IntPoly,
    NotDivisible,
    _kronecker_mul,
    factorize,
    poly_divexact,
    poly_divmod,
    poly_mul,
    prime_range_from,
)
from .cyclotomic import build_F, cyclotomic

__all__ = [
    "NoUsablePrime",
    "NotSquarefree",
    "ConjectureVerdict",
    "CONJECTURE_READINGS",
    "certify_irreducible",
    "factor_over_Q",
    "score_conjecture",
    "conjecture_verdict",
    "split_index",
]

# Prime policy for degree-set certification: ascending from here, skipping
# primes whose reduction is not squarefree, up to a budget of usable primes.
# Small primes show disproportionately many spurious splits.
_PRIME_FLOOR = 101
_PRIME_BUDGET = 24
_HENSEL_CHOICES = 5  # usable primes whose counts choose the Hensel prime
_DEGREE_CAP = 1600
_CACHE_SIZE = 128  # entries in each of the _scan and _factor_over_Q caches
_FULL_FACTOR_DEGREE = 48  # below this, go straight to factor_over_Q
_Image = tuple[_gf.GFArray, _gf.PolyMod | None]  # f mod p, and a PolyMod for its DDF


class NoUsablePrime(ValueError):
    """Every supplied prime was skipped (non-squarefree or bad reduction)."""


class NotSquarefree(ValueError):
    """The polynomial shares a nonconstant factor with its derivative."""


@dataclass(frozen=True)
class FactorReport:
    """Outcome of factoring one F_{i,k} over the rationals; the verdict and
    the certificate kind are read off ``factor_degrees`` and ``factors``."""

    i: int
    k: int
    degree: int
    factor_degrees: tuple[int, ...]  # ascending; () when Unresolved
    primes_used: tuple[int, ...]
    factors: tuple[IntPoly, ...] = ()  # the exhibited factors, if any

    def __post_init__(self):
        if self.factor_degrees:
            assert sum(self.factor_degrees) == self.degree

    @property
    def verdict(self) -> str:
        if not self.factor_degrees:
            return "Unresolved"
        return "Irreducible" if len(self.factor_degrees) == 1 else "Reducible"

    @property
    def certificate_kind(self) -> str:
        return "FullFactorization" if self.factors else "DegreeSetIntersection"


@dataclass(frozen=True)
class IrreducibilityOutcome:
    """Result of degree-set certification: definite Irreducible or Unknown."""

    status: str  # "Irreducible" | "Unknown"
    primes_used: tuple[int, ...]
    degree_set: frozenset[int]

    @property
    def is_irreducible(self) -> bool:
        return self.status == "Irreducible"


# The even case of the two-factor conjecture is unambiguous: reducible iff
# i | k+2.  The odd case is stated in a self-contradictory way, so both
# candidate readings are carried as data and verdicts are scored against each:
#   A (literal):   irreducible iff i | 2(k+2)
#   B (symmetric): reducible   iff i | 2(k+2)
CONJECTURE_READINGS: dict[str, Callable[[int, int], bool]] = {
    "A": lambda i, k: (k + 2) % i == 0 if k % 2 == 0 else (2 * (k + 2)) % i != 0,
    "B": lambda i, k: (k + 2) % i == 0 if k % 2 == 0 else (2 * (k + 2)) % i == 0,
}


@dataclass(frozen=True)
class ConjectureVerdict:
    """Observed factorization of F_{i,k} scored against the conjecture."""

    i: int
    k: int
    predicted_reducible_reading_A: bool
    predicted_reducible_reading_B: bool
    observed: FactorReport
    match: str  # "Consistent" | "Inconsistent" | "Unresolved"
    match_by_reading: tuple[tuple[str, str], ...]


# ---------------------------------------------------------------------------
# Degree sets
# ---------------------------------------------------------------------------


def _closure_mask(degrees: Iterable[int]) -> int:
    # bit d set <=> d is a subset sum of the degree multiset
    mask = 1
    for d in degrees:
        mask |= mask << d
    return mask


def _mask_to_set(mask: int) -> frozenset[int]:
    return frozenset(d for d in range(mask.bit_length()) if mask >> d & 1)


def _open_bound(mask: int, n: int) -> int:
    """u: the highest factor degree in [1, n // 2] that mask still allows,
    or 0 when it allows none."""
    return max((mask & ((1 << (n // 2 + 1)) - 2)).bit_length() - 1, 0)


def _reductions(poly: IntPoly, primes: Iterable[int]) -> Iterator[tuple[int, list[_Image]]]:
    """(p, [(poly mod p, None)]) for each prime, or (p, []) when the
    reduction drops degree or is not squarefree.

    The squarefree gate: one squarefree image among the first 41 pairs
    proves poly squarefree.  Without one, the exact gcd(poly, poly') is
    decided before the 41st pair is yielded, and NotSquarefree is raised
    when it is nonconstant."""
    seen = False
    for count, p in enumerate(primes, 1):
        f = None if poly.lead % p == 0 else _gf.gf_from_coeffs(poly.coeffs, p)
        images = [] if f is None or not _gf.gf_is_squarefree(f, p) else [(f, None)]
        seen = seen or bool(images)
        if count == 41 and not seen and not _rational_gcd_is_constant(poly, poly.derivative()):
            raise NotSquarefree("polynomial shares a factor with its derivative")
        yield p, images


def _intersect(n: int, samples: Iterable[tuple[int, Iterable[_Image]]]) -> tuple[int, dict[int, int]]:
    """The degree-set engine: AND the closure masks of the squarefree
    degree-n images in ``samples`` into one mask of possible factor degrees.

    The mask is checked after every image and the scan returns once it is
    {0, n}.  Otherwise it stops after _PRIME_BUDGET primes with an image, or
    after 64 * _PRIME_BUDGET primes scanned; the cap is applied before a
    prime's images are generated.  Returns the mask and, in scan order, the
    number of parts counted in the first image at each prime that had one.

    Each image's DDF stops at u = ``_open_bound(mask, n)``, the highest
    mask bit in [1, n // 2], and lists the factors of degree above u as one
    part, their product.  The first count is exact: the mask is still full,
    so u = n // 2, and a squarefree image has at most one factor above n/2.
    Later counts are lower bounds.  The mask is the one full DDFs would give:
    mask & closure(D) = mask & closure(D'), D the factor degrees and D'
    those <= u plus the sum of the rest:
    * the mask and every closure are symmetric (b <-> n - b), since the
      parts outside a sub-multiset of sum b sum to n - b;
    * closure(D') <= closure(D), as each part of D' is a sum of parts of D;
    * a mask bit b <= n/2 in closure(D) is a sum of factor degrees <= b <= u,
      all of which D' keeps, so b is in closure(D'); a mask bit b > n/2 has
      n - b in the mask too, so n - b, and by symmetry b, is in closure(D').
    """
    target = 1 | (1 << n)
    mask = (1 << (n + 1)) - 1
    counts: dict[int, int] = {}
    for p, images in islice(samples, 64 * _PRIME_BUDGET):
        for f, ctx in images:
            parts = _gf.gf_distinct_degree_list(f, p, ctx, upto=_open_bound(mask, n))
            degs = [d for prod, d in parts for _ in range(_gf.gf_degree(prod) // d)]
            counts.setdefault(p, len(degs))
            mask &= _closure_mask(degs)
            if mask == target:
                return mask, counts
        if len(counts) >= _PRIME_BUDGET:
            break
    return mask, counts


@lru_cache(maxsize=_CACHE_SIZE)
def _scan(f: IntPoly) -> tuple[int, tuple[tuple[int, int], ...]]:
    """``_intersect`` over the reductions of f at the primes from
    _PRIME_FLOOR up: the mask and the (prime, counted parts) pairs in scan
    order, the first count exact and the rest lower bounds.  NotSquarefree,
    from the gate in ``_reductions``, when f has a repeated factor.  Negating
    f changes no mod-p degree, so callers pass f with a positive leading
    coefficient and share one entry."""
    primes = prime_range_from(_PRIME_FLOOR)
    mask, counts = _intersect(f.degree, _reductions(f, primes))
    return mask, tuple(counts.items())


def _positive(poly: IntPoly) -> IntPoly:
    return -poly if poly.lead < 0 else poly


def certify_irreducible(poly: IntPoly) -> IrreducibilityOutcome:
    """Degree-set certification over an adaptive ascending prime sequence.

    Irreducible when the intersected closure shrinks to {0, deg}; Unknown
    once the usable-prime budget or the scan cap runs out, or, with no prime
    used and every degree possible, when the squarefree gate finds a
    repeated factor.  Small squarefree irreducible inputs never stay
    Unknown: when the degree set cannot separate (composite cyclotomic
    towers force a proper subset sum at every prime), the verdict is
    completed by factoring the primitive part outright.  Never falsely
    Irreducible.
    """
    n = poly.degree
    if n < 1:
        raise ValueError("certify_irreducible expects a nonconstant polynomial")
    if n == 1:
        return IrreducibilityOutcome("Irreducible", (), frozenset({0, 1}))
    f = _positive(poly)
    try:
        mask, counts = _scan(f)
    except NotSquarefree:
        mask, counts = (1 << (n + 1)) - 1, ()
    status = "Irreducible" if mask == 1 | (1 << n) else "Unknown"
    # a usable prime shows f squarefree, so factoring cannot raise
    if status == "Unknown" and counts and n <= _FULL_FACTOR_DEGREE:
        if len(_factor_over_Q(f.primitive_part())[0]) == 1:
            status = "Irreducible"
    return IrreducibilityOutcome(status, tuple(p for p, _ in counts), _mask_to_set(mask))


# ---------------------------------------------------------------------------
# Rational factorization (Hensel lifting + pruned recombination)
# ---------------------------------------------------------------------------


def _trim_mod(cs: Iterable[int], m: int) -> list[int]:
    out = [c % m for c in cs]
    while out and not out[-1]:
        out.pop()
    return out


def _mul_mod(a: list[int], b: list[int], m: int) -> list[int]:
    return _trim_mod(_kronecker_mul(a, b), m) if a and b else []


def _prod_mod(polys: Iterable[list[int]], m: int) -> list[int]:
    return reduce(lambda u, v: _mul_mod(u, v, m), polys, [1])


def _center(cs: list[int], m: int) -> IntPoly:
    """The residues cs mod m lifted to (-m/2, m/2]."""
    return IntPoly(c - m if c > m // 2 else c for c in cs)


def _add_mod(a: list[int], b: list[int], m: int, sign: int = 1) -> list[int]:
    return _trim_mod((x + sign * y for x, y in zip_longest(a, b, fillvalue=0)), m)


def _divmod_monic(a: list[int], h: list[int], m: int) -> tuple[list[int], list[int]]:
    """(q, r) with a = q*h + r mod m for monic h, on reduced coefficient
    lists: each quotient coefficient is reduced mod m as it is taken, so an
    entry of the running remainder stays below (deg h + 1) * m**2."""
    n = len(h) - 1
    rem, q = list(a), []
    for i in range(len(a) - n - 1, -1, -1):
        c = rem[i + n] % m
        q.append(c)
        if c:
            rem[i : i + n] = [x - c * y for x, y in zip(rem[i : i + n], h)]
    return q[::-1], _trim_mod(rem[:n], m)


def _rational_gcd_is_constant(f: IntPoly, g: IntPoly) -> bool:
    # Euclid over Q with primitive-part reduction each step; exact
    a, b = f.primitive_part(), g.primitive_part()
    while not b.is_zero:
        scale = b.lead ** (a.degree - b.degree + 1) if a.degree >= b.degree else 1
        _, r = poly_divmod(a.scale(scale), b)
        a, b = b, r.primitive_part()
    return a.degree == 0


def _hensel_lift_monic(f: list[int], facs: list[list[int]], p: int, modulus: int) -> list[list[int]]:
    """Lift f = prod(facs) (mod p) to (mod modulus), a power p^(2^e): f and
    facs monic coefficient lists, f and the lifted factors reduced mod modulus.
    Each quadratic step (von zur Gathen & Gerhard, Algorithm 15.10) lifts
    g*h = f and s*g + t*h = 1 from mod m to mod m^2 on lists reduced mod m^2,
    each product one Kronecker-packed multiply; the last lifts g and h only."""
    if len(facs) == 1:
        return [f]
    A, B = facs[: len(facs) // 2], facs[len(facs) // 2 :]
    g, h = _prod_mod(A, p), _prod_mod(B, p)
    one, s0, t0 = _gf.gf_gcdext(_gf.gf_from_coeffs(g, p), _gf.gf_from_coeffs(h, p), p)
    assert _gf.gf_degree(one) == 0
    s, t = s0.tolist(), t0.tolist()
    m = p
    while m < modulus:
        M = m * m
        e = _add_mod(f, _mul_mod(g, h, M), M, -1)
        q, r = _divmod_monic(_mul_mod(s, e, M), h, M)
        g = _add_mod(g, _add_mod(_mul_mod(t, e, M), _mul_mod(q, g, M), M), M)
        h = _add_mod(h, r, M)
        if M < modulus:
            b = _add_mod(_add_mod(_mul_mod(s, g, M), _mul_mod(t, h, M), M), [1], M, -1)
            c, d = _divmod_monic(_mul_mod(s, b, M), h, M)
            s = _add_mod(s, d, M, -1)
            t = _add_mod(t, _add_mod(_mul_mod(t, b, M), _mul_mod(c, g, M), M), M, -1)
        m = M
    return _hensel_lift_monic(g, A, p, modulus) + _hensel_lift_monic(h, B, p, modulus)


def _l2_norm_ceil(f: IntPoly) -> int:
    return isqrt(sum(c * c for c in f.coeffs)) + 1


@lru_cache(maxsize=_CACHE_SIZE)
def _factor_over_Q(f: IntPoly) -> tuple[tuple[IntPoly, ...], tuple[int, ...]]:
    """Factor f (leading coefficient positive) over Q; also returns the
    primes the result rests on.

    The pruning mask and the Hensel prime come from ``_scan(f)``: its counts
    choose the Hensel prime, so only that prime is factored mod p.
    ValueError for a constant, over-_DEGREE_CAP or non-primitive f, before
    any prime is tried; NotSquarefree from the squarefree gate in the scan;
    NoUsablePrime when the scan finds no squarefree full-degree reduction.
    """
    if not 1 <= f.degree <= _DEGREE_CAP:
        raise ValueError(f"factor_over_Q expects a degree from 1 to {_DEGREE_CAP}")
    if f.content() != 1:
        raise ValueError("factor_over_Q expects a primitive polynomial")
    assert f.lead > 0
    n = f.degree
    if n == 1:
        return (f,), ()

    # degree-set pruning mask, behind the squarefree gate
    mask, counts = _scan(f)
    if not counts:
        raise NoUsablePrime("no prime gave a squarefree reduction")
    primes_used = tuple(p for p, _ in counts)
    if mask == (1 | (1 << n)):
        return (f,), primes_used

    # Hensel prime: the first with the fewest counted parts among the first
    # five usable primes; at least two, as one part ends the scan at {0, n}
    hensel_p = min(counts[:_HENSEL_CHOICES], key=lambda pc: pc[1])[0]
    mod_facs = _gf.gf_factor(_gf.gf_from_coeffs(f.coeffs, hensel_p), hensel_p)

    # lift modulus: beyond twice the factor-coefficient bound (Mignotte)
    lc = f.lead
    bound = 2 * abs(lc) * (1 << ((n // 2) + 1)) * _l2_norm_ceil(f)
    modulus = hensel_p
    while modulus < bound:
        modulus *= modulus

    lc_inv = pow(lc % modulus, -1, modulus)
    f_hat = [c * lc_inv % modulus for c in f.coeffs]
    assert f_hat[-1] == 1
    lifted = _hensel_lift_monic(f_hat, [arr.tolist() for arr in mod_facs], hensel_p, modulus)

    found: list[IntPoly] = []
    f_cur = f
    active = list(range(len(lifted)))
    size = 1
    while 2 * size <= len(active):
        hit = False
        for combo in combinations(active, size):
            d = sum(len(lifted[j]) - 1 for j in combo)
            # no degree-half prune as well: subsets stop at half the factors,
            # so a few-factor, high-degree subset is the only way to its factor
            if not (mask >> d) & 1:
                continue
            cand = _prod_mod([[f_cur.lead]] + [lifted[j] for j in combo], modulus)
            cand = _center(cand, modulus).primitive_part()
            # a factor's constant term divides f_cur's, and 0 divides only 0
            c0, f0 = cand.coeffs[0], f_cur.coeffs[0]
            if f0 % c0 if c0 else f0:
                continue
            try:
                q = poly_divexact(f_cur, cand)
            except NotDivisible:
                continue
            found.append(cand)
            f_cur = q.primitive_part()
            active = [j for j in active if j not in combo]
            hit = True
            break
        if not hit:
            size += 1
    if f_cur.degree >= 1:
        found.append(f_cur)
    found.sort(key=lambda g: (g.degree, g.coeffs))
    assert reduce(poly_mul, found) == f
    return tuple(found), primes_used


def factor_over_Q(poly: IntPoly) -> list[IntPoly]:
    """Complete factorization into irreducibles whose product is poly.

    Hensel lifting of a mod-p factorization with recombination pruned by the
    degree set.  Raises ValueError, before any prime is tried, when
    deg(poly) exceeds 1600 (``_DEGREE_CAP``), and NotSquarefree when
    gcd(poly, poly') is nonconstant.  A negative leading coefficient goes to
    the first factor.
    """
    out = list(_factor_over_Q(_positive(poly))[0])
    if poly.lead < 0:
        out[0] = -out[0]
    return out


# ---------------------------------------------------------------------------
# Tower sampling for F_{i,k}
# ---------------------------------------------------------------------------


def split_index(i: int) -> int:
    """Order m of -1/zeta_i.  For i >= 3, Phi_m divides F_{i,k} exactly
    when m | k + 2.

    Proof.  Phi_m is irreducible, so Phi_m | F exactly when s(omega) is a
    primitive i-th root of unity for one primitive m-th root omega; take
    omega = exp(2 pi sqrt(-1)/m) and r = (k + 1) mod m.  As m >= 3,
    s(omega) = (omega^r - 1)/(omega - 1), so |s(omega)| =
    |sin(pi r/m)| / sin(pi/m), which is 1 only for r = 1 or r = m - 1.
    r = 1 gives s(omega) = 1, not a primitive i-th root.  r = m - 1 gives
    -omega^(-1), and the primitive m-th roots are the -zeta^(-1), zeta a
    primitive i-th root, so Phi_m | F.  Mod p, p = 1 (mod i), -1/zbar has
    order m too, so s(-1/zbar) = zbar when m | k + 2: the tower's peel
    always divides.

    What stays conjectural is that F (when m does not divide k + 2) or
    F/Phi_m is irreducible; the tower certifies that cell by cell.  For
    even k, i | k + 2 exactly when m | k + 2 (m is i, 2i with i odd, or
    i/2 odd), so both readings predict "reducible" exactly when Phi_m | F
    (also checked for i = 3..199 and even k <= 398)."""
    if i % 2 == 1:
        return 2 * i
    if i % 4 == 2:
        return i // 2
    return i


def _split_divides(i: int, k: int) -> bool:
    """Whether Phi_m divides F_{i,k}: m | k + 2, m = split_index(i), i >= 3."""
    return (k + 2) % split_index(i) == 0


def _primitive_ith_roots(i: int, p: int) -> list[int]:
    # residues of the phi(i) primitive i-th roots of unity, one per prime of
    # Q(zeta_i) above p; requires p = 1 (mod i).  a^((p-1)/i) has order
    # dividing i, and exactly i unless its (i/q)-th power is 1 for a prime q | i
    qs = factorize(i)
    for a in range(2, p):
        z0 = pow(a, (p - 1) // i, p)
        if all(pow(z0, i // q, p) != 1 for q in qs):
            return [pow(z0, t, p) for t in range(1, i + 1) if gcd(t, i) == 1]
    raise ArithmeticError(f"no primitive {i}-th root of unity mod {p}")


def _chain_minus_root(k: int, zbar: int, p: int, peel: bool) -> _gf.GFArray:
    """s(x) - zbar over F_p, with the root -1/zbar divided out when
    ``peel``; ArithmeticError when it is not a root, which the lemma at
    ``split_index`` rules out on the route ``_certify_tower`` takes."""
    cs = np.ones(k + 1, dtype=np.int64)
    cs[0] = (1 - zbar) % p
    if not peel:
        return cs
    q, r = _gf.gf_divmod(cs, np.array([pow(zbar, -1, p), 1], dtype=np.int64), p)
    if len(r):
        raise ArithmeticError(f"-1/{zbar} is not a root of s - {zbar} mod {p}")
    return q


def _tower_sample_squarefree(k: int, zbar: int, p: int, peel: bool) -> bool:
    """Whether s - zbar, s = 1 + x + ... + x^k, or its quotient by
    x + 1/zbar when ``peel``, is squarefree over F_p, for zbar not 0 or 1
    mod p and, when ``peel``, -1/zbar a root of s - zbar: what
    ``_gf.gf_is_squarefree`` answers on ``_chain_minus_root``, with no gcd.

    Proof.  T = (x - 1)(s - zbar) = x^(k+1) - zbar*x + zbar - 1, and
    T' = (k + 1)x^k - zbar.  A repeated root of s - zbar is a root of T and
    T'.  If p | k + 1, T' = -zbar has no root.  Otherwise x^k = zbar/(k + 1)
    at a common root, where T = zbar - 1 - zbar*k*x/(k + 1): if p | k that is
    zbar - 1, not 0, and else the root is x = a = (k + 1)(zbar - 1)/(zbar*k),
    which is not 0, and T(a) = 0 follows from a^k = zbar/(k + 1).  So T has a
    repeated root exactly when p does not divide k(k + 1) and
    a^k = zbar/(k + 1), and it is a.  T''(a) = k(k + 1)a^(k-1) is not 0, so
    a is a double root of T.  If a = 1, that is zbar = k + 1, and 1 is then a
    simple root of s - zbar, which is squarefree.  If a != 1, a is a double
    root of s - zbar.  The peel divides out x + 1/zbar once, so the quotient
    keeps a double root unless a = -1/zbar, where a is left simple."""
    if k * (k + 1) % p == 0:
        return True
    a = (k + 1) * (zbar - 1) * pow(zbar * k, -1, p) % p
    if a == 1 or pow(a, k, p) != zbar * pow(k + 1, -1, p) % p:
        return True
    return peel and a == -pow(zbar, -1, p) % p


def _certify_tower(i: int, k: int) -> tuple[bool, tuple[int, ...]]:
    """Certify s - zeta, or its quotient by x + 1/zeta when Phi_m | F_{i,k},
    irreducible over Q(zeta_i) by intersecting degree-set closures of the
    residue samples at primes p = 1 (mod i).  Sound regardless of sample
    correlations.

    Each prime's samples are the images s - zbar, one per primitive i-th
    root zbar, computed lazily: once the mask reaches {0, deg} the remaining
    roots are skipped, and the prime, which has contributed, ends the list
    of primes used.  A sample that is not squarefree is skipped before it is
    built (``_tower_sample_squarefree``)."""
    peel = _split_divides(i, k)
    deg = k - 1 if peel else k

    def samples(p: int) -> Iterator[_Image]:
        for zbar in _primitive_ith_roots(i, p):
            if _tower_sample_squarefree(k, zbar, p, peel):
                # the sample divides T = (x - 1)(s - zbar) = x^(k+1) - zbar*x + zbar - 1
                T = np.zeros(k + 2, dtype=np.int64)
                T[0], T[1], T[k + 1] = (zbar - 1) % p, -zbar % p, 1
                yield _chain_minus_root(k, zbar, p, peel), _gf.PolyMod(T, p)

    primes = (p for p in prime_range_from(_PRIME_FLOOR) if (p - 1) % i == 0)
    mask, counts = _intersect(deg, ((p, samples(p)) for p in primes))
    return mask == 1 | (1 << deg), tuple(counts)


# ---------------------------------------------------------------------------
# Conjecture verdicts
# ---------------------------------------------------------------------------


def _observe(i: int, k: int) -> FactorReport:
    """Factor F_{i,k} outright up to _FULL_FACTOR_DEGREE, else by the tower,
    peeled of Phi_m when Phi_m divides F.  A tower that does not certify
    leaves the report Unresolved: no factor degrees and no factors.  The
    cofactor division is checked, so a wrong route can only end Unresolved
    or raise, never in a false verdict."""
    n = cyclotomic(i).degree * k
    if n <= _FULL_FACTOR_DEGREE:
        factors, primes = _factor_over_Q(build_F(i, k))
        return FactorReport(i, k, n, tuple(sorted(g.degree for g in factors)), primes, factors)

    ok, primes = _certify_tower(i, k)
    if not _split_divides(i, k):
        return FactorReport(i, k, n, (n,) if ok else (), primes)
    phi_m = cyclotomic(split_index(i))
    factors = (phi_m, poly_divexact(build_F(i, k), phi_m)) if ok else ()
    return FactorReport(i, k, n, tuple(sorted(g.degree for g in factors)), primes, factors)


def score_conjecture(
    predicted_a: bool, predicted_b: bool, factor_degrees: tuple[int, ...]
) -> tuple[tuple[tuple[str, str], ...], str]:
    """Score an observed factorization against readings A and B: each fits
    when F_{i,k} is reducible exactly as predicted and, if reducible, splits
    into exactly two factors.  ``factor_degrees`` is () when Unresolved and
    has one entry when Irreducible.  Returns the per-reading results and the
    overall match, Consistent when either reading fits."""
    if not factor_degrees:
        return (("A", "Unresolved"), ("B", "Unresolved")), "Unresolved"
    reducible = len(factor_degrees) > 1
    two_at_most = len(factor_degrees) <= 2  # one factor, or the two predicted
    by_reading = tuple(
        (name, "Consistent" if predicted == reducible and two_at_most else "Inconsistent")
        for name, predicted in (("A", predicted_a), ("B", predicted_b))
    )
    match = "Consistent" if any(v == "Consistent" for _, v in by_reading) else "Inconsistent"
    return by_reading, match


@lru_cache(maxsize=None)
def conjecture_verdict(i: int, k: int) -> ConjectureVerdict:
    """Factor F_{i,k} and score the observed shape against the two-factor
    conjecture, under both odd-k readings.  Cached: sweeps revisit cells."""
    if i <= 2 or k <= 1:
        raise ValueError("conjecture_verdict expects i > 2 and k > 1")
    observed = _observe(i, k)
    pred_a, pred_b = (CONJECTURE_READINGS[name](i, k) for name in "AB")
    match_by_reading, match = score_conjecture(pred_a, pred_b, observed.factor_degrees)
    return ConjectureVerdict(
        i=i,
        k=k,
        predicted_reducible_reading_A=pred_a,
        predicted_reducible_reading_B=pred_b,
        observed=observed,
        match=match,
        match_by_reading=match_by_reading,
    )
