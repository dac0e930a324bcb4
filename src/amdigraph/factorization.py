"""Rational factorization and irreducibility certificates for F_{i,k}.

One degree-set engine, ``_intersect``, serves every certificate here.  It
reads a stream of (prime, mod-p images), ANDs together the subset-sum
closures of the images' factor-degree multisets, and stops at {0, deg}
(irreducible), after 24 contributing primes (``_PRIME_BUDGET``), or after
64 * 24 primes scanned; it also counts the mod-p factors at each
contributing prime.  Never a false positive: every true rational factor
degree survives in each closure.

The scan from _PRIME_FLOOR and the rational factorization are memoised per
sign-normalised polynomial in bounded caches (``_CACHE_SIZE`` entries each),
so ``certify_irreducible`` after ``factor_over_Q`` on the same polynomial, or
the reverse, reuses the scan and the Hensel factorization instead of
repeating them.  The scan starts with the squarefree gate
(``_require_squarefree``), so a repeated factor ends it after 41 primes
with NotSquarefree.  Three users:

* degree-set certification (``certify_irreducible``) over the squarefree
  full-degree reductions that ``_reductions`` yields;
* full rational factorization: Hensel lifting of one mod-p factorization,
  at the prime with the fewest factors, plus recombination pruned by the
  degree set.  The reducible F_{i,k} split into just two factors, which
  keeps recombination away from lattice reduction;
* tower sampling for F_{i,k} itself: writing s = 1 + x + ... + x^k, the
  composite F_{i,k} = Phi_i(s) is irreducible over Q as soon as s - zeta is
  irreducible over Q(zeta) for a primitive i-th root zeta (a root theta of
  F generates zeta = s(theta)^t, so [Q(theta):Q] = k * phi(i) forces a single
  factor).  For primes p = 1 (mod i), each primitive i-th root zbar of F_p is
  the residue of zeta at one of the phi(i) primes above p, so the factor
  degrees of s - zbar over F_p are a sound sample for degree-set
  certification of s - zeta at degree k instead of degree phi(i)*k.  This is
  what makes the k <= 200 sweeps cheap.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, islice
from math import gcd, isqrt
from typing import Callable, Iterable, Iterator

import numpy as np

from . import _gf
from .algebra import (
    IntPoly,
    NotDivisible,
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
_DEGREE_CAP = 1600
_CACHE_SIZE = 128  # entries in each of the _scan and _factor_over_Q caches


class NoUsablePrime(ValueError):
    """Every supplied prime was skipped (non-squarefree or bad reduction)."""


class NotSquarefree(ValueError):
    """The polynomial shares a nonconstant factor with its derivative."""


@dataclass(frozen=True)
class FactorReport:
    """Outcome of factoring one F_{i,k} over the rationals."""

    i: int
    k: int
    degree: int
    verdict: str  # "Irreducible" | "Reducible" | "Unresolved"
    factor_degrees: tuple[int, ...]
    certificate_kind: str  # "DegreeSetIntersection" | "FullFactorization"
    primes_used: tuple[int, ...]
    factors: tuple[IntPoly, ...] = ()  # populated for FullFactorization

    def __post_init__(self):
        if self.verdict != "Unresolved":
            assert sum(self.factor_degrees) == self.degree


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


def _ddf_degrees(f: _gf.GFArray, p: int) -> list[int]:
    """Degrees, with multiplicity, of the irreducible factors of squarefree f
    mod p; their number is the number of mod-p factors."""
    return [d for prod, d in _gf.gf_distinct_degree_list(f, p) for _ in range(_gf.gf_degree(prod) // d)]


def _reductions(poly: IntPoly, primes: Iterable[int]) -> Iterator[tuple[int, list[_gf.GFArray]]]:
    """(p, [poly mod p]) for each prime, or (p, []) when the reduction drops
    degree or is not squarefree."""
    for p in primes:
        f = None if poly.lead % p == 0 else _gf.gf_from_coeffs(poly.coeffs, p)
        yield p, [] if f is None or not _gf.gf_is_squarefree(f, p) else [f]


def _intersect(
    n: int, samples: Iterable[tuple[int, Iterable[_gf.GFArray]]]
) -> tuple[int, dict[int, int]]:
    """The degree-set engine: AND the closure masks of the squarefree
    degree-n images in ``samples`` into one mask of possible factor degrees.

    The mask is checked after every image and the scan returns once it is
    {0, n}.  Otherwise it stops after _PRIME_BUDGET primes with an image, or
    after 64 * _PRIME_BUDGET primes scanned; the cap is applied before a
    prime's images are generated.  Returns the mask and, in scan order, the
    number of mod-p factors of the first image at each prime that had one."""
    target = 1 | (1 << n)
    mask = (1 << (n + 1)) - 1
    counts: dict[int, int] = {}
    for p, images in islice(samples, 64 * _PRIME_BUDGET):
        for f in images:
            degs = _ddf_degrees(f, p)
            counts.setdefault(p, len(degs))
            mask &= _closure_mask(degs)
            if mask == target:
                return mask, counts
        if len(counts) >= _PRIME_BUDGET:
            break
    return mask, counts


def _require_squarefree(f: IntPoly) -> None:
    """The squarefree gate: one squarefree modular image among the first 41
    primes from _PRIME_FLOOR proves f squarefree; without one, the exact
    gcd(f, f') decides, and NotSquarefree is raised when it is nonconstant."""
    first = islice(_reductions(f, prime_range_from(_PRIME_FLOOR)), 41)
    if not any(images for _, images in first) and not _rational_gcd_is_constant(f, f.derivative()):
        raise NotSquarefree("polynomial shares a factor with its derivative")


@lru_cache(maxsize=_CACHE_SIZE)
def _scan(f: IntPoly) -> tuple[int, tuple[tuple[int, int], ...]]:
    """``_intersect`` over the reductions of f at the primes from
    _PRIME_FLOOR up: the mask and the (prime, factor count) pairs in scan
    order.  NotSquarefree, from the gate, when f has a repeated factor.
    Negating f changes no mod-p degree, so callers pass f with a positive
    leading coefficient and share one entry."""
    _require_squarefree(f)
    mask, counts = _intersect(f.degree, _reductions(f, prime_range_from(_PRIME_FLOOR)))
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


def _pmod(f: IntPoly, m: int) -> IntPoly:
    return IntPoly(tuple(c % m for c in f.coeffs))


def _pcenter(f: IntPoly, m: int) -> IntPoly:
    half = m // 2
    return IntPoly(tuple(c - m if c > half else c for c in _pmod(f, m).coeffs))


def _divmod_monic_mod(a: IntPoly, b: IntPoly, m: int) -> tuple[IntPoly, IntPoly]:
    q, r = poly_divmod(_pmod(a, m), b)
    return _pmod(q, m), _pmod(r, m)


def _rational_gcd_is_constant(f: IntPoly, g: IntPoly) -> bool:
    # Euclid over Q with primitive-part reduction each step; exact
    a, b = f.primitive_part(), g.primitive_part()
    while not b.is_zero:
        scale = b.lead ** (a.degree - b.degree + 1) if a.degree >= b.degree else 1
        _, r = poly_divmod(a.scale(scale), b)
        a, b = b, r.primitive_part()
    return a.degree == 0


def _hensel_lift_monic(
    f: IntPoly, facs: list[IntPoly], p: int, modulus: int
) -> list[IntPoly]:
    """Lift f = prod(facs) (mod p) to (mod modulus); f and facs monic,
    modulus a power p^(2^e).  Returns the lifted monic factors."""
    if len(facs) == 1:
        return [_pmod(f, modulus)]
    h_count = len(facs) // 2
    A, B = facs[:h_count], facs[h_count:]
    g = _pmod(_prod(A), p)
    h = _pmod(_prod(B), p)
    gg = _gf.gf_from_coeffs(g.coeffs, p)
    hh = _gf.gf_from_coeffs(h.coeffs, p)
    one, s0, t0 = _gf.gf_gcdext(gg, hh, p)
    assert _gf.gf_degree(one) == 0
    s = IntPoly(int(c) for c in s0)
    t = IntPoly(int(c) for c in t0)
    m = p
    while m < modulus:
        m2 = m * m
        e = _pmod(f - poly_mul(g, h), m2)
        q, r = _divmod_monic_mod(poly_mul(s, e), h, m2)
        g = _pmod(g + poly_mul(t, e) + poly_mul(q, g), m2)
        h = _pmod(h + r, m2)
        b = _pmod(poly_mul(s, g) + poly_mul(t, h) - IntPoly.one(), m2)
        c, d = _divmod_monic_mod(poly_mul(s, b), h, m2)
        s = _pmod(s - d, m2)
        t = _pmod(t - poly_mul(t, b) - poly_mul(c, g), m2)
        m = m2
    return _hensel_lift_monic(g, A, p, modulus) + _hensel_lift_monic(h, B, p, modulus)


def _prod(polys: Iterable[IntPoly]) -> IntPoly:
    out = IntPoly.one()
    for q in polys:
        out = poly_mul(out, q)
    return out


def _l2_norm_ceil(f: IntPoly) -> int:
    return isqrt(sum(c * c for c in f.coeffs)) + 1


@lru_cache(maxsize=_CACHE_SIZE)
def _factor_over_Q(f: IntPoly) -> tuple[tuple[IntPoly, ...] | None, tuple[int, ...]]:
    """Factor f (leading coefficient positive) over Q; also returns the
    primes the result rests on.

    The pruning mask and the Hensel prime come from ``_scan(f)``: its counts
    choose the Hensel prime, so only that prime is factored mod p.
    NotSquarefree from the squarefree gate, at every degree; None
    (Unresolved) above _DEGREE_CAP; NoUsablePrime when the scan finds no
    squarefree full-degree reduction.
    """
    if f.degree < 1:
        raise ValueError("factor_over_Q expects a nonconstant polynomial")
    if f.content() != 1:
        raise ValueError("factor_over_Q expects a primitive polynomial")
    assert f.lead > 0
    n = f.degree
    if n == 1:
        return (f,), ()
    if n > _DEGREE_CAP:
        _require_squarefree(f)
        return None, ()

    # degree-set pruning mask, behind the squarefree gate
    mask, counts = _scan(f)
    if not counts:
        raise NoUsablePrime("no prime gave a squarefree reduction")
    primes_used = tuple(p for p, _ in counts)
    if mask == (1 | (1 << n)):
        return (f,), primes_used

    # Hensel prime: the first with the fewest mod-p factors among the first
    # five usable primes
    hensel_p = min(counts[:5], key=lambda pc: pc[1])[0]
    mod_facs = _gf.gf_factor(_gf.gf_from_coeffs(f.coeffs, hensel_p), hensel_p)
    if len(mod_facs) == 1:
        return (f,), primes_used

    # lift modulus: beyond twice the factor-coefficient bound (Mignotte)
    lc = f.lead
    bound = 2 * abs(lc) * (1 << ((n // 2) + 1)) * _l2_norm_ceil(f)
    modulus = hensel_p
    while modulus < bound:
        modulus *= modulus

    lc_inv = pow(lc % modulus, -1, modulus)
    f_hat = _pmod(f.scale(lc_inv), modulus)
    assert f_hat.is_monic
    monic_facs = [IntPoly(int(c) for c in arr) for arr in mod_facs]
    lifted = _hensel_lift_monic(f_hat, monic_facs, hensel_p, modulus)

    found: list[IntPoly] = []
    f_cur = f
    active = list(range(len(lifted)))
    size = 1
    while 2 * size <= len(active):
        hit = False
        for combo in combinations(active, size):
            d = sum(lifted[j].degree for j in combo)
            # no degree-half prune as well: subsets stop at half the factors,
            # so a few-factor, high-degree subset is the only way to its factor
            if not (mask >> d) & 1:
                continue
            cand = _prod(lifted[j] for j in combo)
            cand = _pcenter(cand.scale(f_cur.lead), modulus).primitive_part()
            if cand.degree != d:
                continue
            try:
                q, r = poly_divmod(f_cur, cand)
            except NotDivisible:
                continue
            if not r.is_zero:
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
    assert _prod(found) == f
    return tuple(found), primes_used


def factor_over_Q(poly: IntPoly) -> list[IntPoly] | None:
    """Complete factorization into irreducibles whose product is poly.

    Hensel lifting of a mod-p factorization with recombination pruned by the
    degree set.  Returns None (Unresolved) when deg(poly) exceeds 1600
    (``_DEGREE_CAP``); raises NotSquarefree when gcd(poly, poly') is
    nonconstant.  A negative leading coefficient goes to the first factor.
    """
    factors = _factor_over_Q(_positive(poly))[0]
    if factors is None:
        return None
    out = list(factors)
    if poly.lead < 0:
        out[0] = -out[0]
    return out


# ---------------------------------------------------------------------------
# Tower sampling for F_{i,k}
# ---------------------------------------------------------------------------


def split_index(i: int) -> int:
    """Order m of -1/zeta_i: the peeled factor of a reducible F_{i,k} is
    Phi_m, and reducibility happens exactly when m | k+2 (observed pattern;
    the division below never assumes it)."""
    if i % 2 == 1:
        return 2 * i
    if i % 4 == 2:
        return i // 2
    return i


def _one_primitive_root(p: int) -> int:
    fac = factorize(p - 1)
    for g in range(2, p):
        if all(pow(g, (p - 1) // q, p) != 1 for q in fac):
            return g
    raise ArithmeticError(f"no primitive root mod {p}")


def _primitive_ith_roots(i: int, p: int) -> list[int]:
    # residues of the phi(i) primitive i-th roots of unity, one per prime of
    # Q(zeta_i) above p; requires p = 1 (mod i)
    z0 = pow(_one_primitive_root(p), (p - 1) // i, p)
    return [pow(z0, t, p) for t in range(1, i + 1) if gcd(t, i) == 1]


def _chain_minus_root(k: int, zbar: int, p: int, peel: bool) -> _gf.GFArray | None:
    """s(x) - zbar over F_p, optionally with the root -1/zbar divided out."""
    cs = np.ones(k + 1, dtype=np.int64)
    cs[0] = (1 - zbar) % p
    if not peel:
        return cs
    x0 = (-pow(zbar, p - 2, p)) % p
    out = np.empty(k, dtype=np.int64)
    acc = 0
    for j in range(k, 0, -1):
        acc = (int(cs[j]) + x0 * acc) % p
        out[j - 1] = acc
    if (int(cs[0]) + x0 * acc) % p != 0:
        return None  # -1/zbar is not a root here; sample unusable
    return _gf.gf_trim(out)


def _certify_tower(i: int, k: int, peel: bool) -> tuple[bool, tuple[int, ...]]:
    """Certify s - zeta (or its peeled quotient) irreducible over Q(zeta_i)
    by intersecting degree-set closures of the residue samples at primes
    p = 1 (mod i).  Sound regardless of sample correlations.

    Each prime's samples are the images s - zbar, one per primitive i-th
    root zbar, computed lazily: once the mask reaches {0, deg} the remaining
    roots are skipped, and the prime, which has contributed, ends the list
    of primes used."""
    deg = k - 1 if peel else k

    def samples(p: int) -> Iterator[_gf.GFArray]:
        for zbar in _primitive_ith_roots(i, p):
            f = _chain_minus_root(k, zbar, p, peel)
            if f is not None and _gf.gf_is_squarefree(f, p):
                yield f

    primes = (p for p in prime_range_from(_PRIME_FLOOR) if (p - 1) % i == 0)
    mask, counts = _intersect(deg, ((p, samples(p)) for p in primes))
    return mask == 1 | (1 << deg), tuple(counts)


# ---------------------------------------------------------------------------
# Conjecture verdicts
# ---------------------------------------------------------------------------

_FULL_FACTOR_DEGREE = 48  # below this, go straight to factor_over_Q


def _observe(i: int, k: int) -> FactorReport:
    F = build_F(i, k)
    n = F.degree

    if n <= _FULL_FACTOR_DEGREE:
        factors, primes = _factor_over_Q(F)
        assert factors is not None
        verdict = "Irreducible" if len(factors) == 1 else "Reducible"
        return FactorReport(
            i=i,
            k=k,
            degree=n,
            verdict=verdict,
            factor_degrees=tuple(sorted(g.degree for g in factors)),
            certificate_kind="FullFactorization",
            primes_used=primes,
            factors=factors,
        )

    try:
        cofactor = poly_divexact(F, cyclotomic(split_index(i)))
    except NotDivisible:
        cofactor = None

    if cofactor is not None:
        ok, primes = _certify_tower(i, k, peel=True)
        if ok:
            phi_m = cyclotomic(split_index(i))
            return FactorReport(
                i=i,
                k=k,
                degree=n,
                verdict="Reducible",
                factor_degrees=tuple(sorted((phi_m.degree, cofactor.degree))),
                certificate_kind="FullFactorization",
                primes_used=primes,
                factors=(phi_m, cofactor),
            )
    else:
        ok, primes = _certify_tower(i, k, peel=False)
        if ok:
            return FactorReport(
                i=i,
                k=k,
                degree=n,
                verdict="Irreducible",
                factor_degrees=(n,),
                certificate_kind="DegreeSetIntersection",
                primes_used=primes,
            )
    return FactorReport(
        i=i,
        k=k,
        degree=n,
        verdict="Unresolved",
        factor_degrees=(),
        certificate_kind="DegreeSetIntersection",
        primes_used=primes,
    )


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
