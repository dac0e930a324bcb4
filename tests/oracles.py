"""Reference helpers the tests check the package against."""
from __future__ import annotations

import json
from functools import lru_cache
from math import gcd, isqrt
from typing import Iterable, Iterator

from sympy.polys.domains import ZZ
from sympy.polys.galoistools import gf_div, gf_factor_sqf, gf_sqf_p

from amdigraph import __version__
from amdigraph.algebra import IntPoly, divisors, euler_phi, factorize, poly_divmod, poly_mul
from amdigraph.cli import SCHEMA_VERSION
from amdigraph.cyclotomic import cyclotomic
from amdigraph.factorization import _FULL_FACTOR_DEGREE, FactorReport
from amdigraph.sieve import Certificate, settled
from amdigraph.structures import CycleStructure


def evaluate(poly: IntPoly, x: int) -> int:
    """poly(x) by Horner's rule."""
    acc = 0
    for c in reversed(poly.coeffs):
        acc = acc * x + c
    return acc


def schoolbook_mul(a: IntPoly, b: IntPoly) -> IntPoly:
    """a * b by the quadratic convolution, coefficient by coefficient."""
    out = [0] * max(len(a.coeffs) + len(b.coeffs) - 1, 0)
    for i, x in enumerate(a.coeffs):
        for j, y in enumerate(b.coeffs):
            out[i + j] += x * y
    return IntPoly(out)


def certificate_json(cert: Certificate, generated_at: str | None = None) -> str:
    """The certificate as a dict laid out by json.dumps(doc, indent=2), the
    text serialize_certificate must match byte for byte; generated_at, when
    given, is the last key."""
    doc = {
        "schema_version": SCHEMA_VERSION,
        "d": cert.d,
        "k": cert.k,
        "verdict": cert.verdict,
        "method": cert.method,
        "witness": cert.witness,
        "checked_i": [
            {
                "i": cell.i,
                "predicted": {
                    "A": cell.predicted_reducible_a,
                    "B": cell.predicted_reducible_b,
                },
                "observed_degrees": list(cell.observed_degrees),
                "primes_used": list(cell.primes_used),
            }
            for cell in cert.checked_i
        ],
        "assumptions": list(cert.assumptions),
        "tool_version": __version__,
    }
    if generated_at is not None:
        doc["generated_at"] = generated_at
    return json.dumps(doc, indent=2) + "\n"


def reduction_table_by_rows(f: list[int], p: int) -> list[list[int]]:
    """Rows j = x^(n+j) mod f, j < n - 1, for f monic of degree n >= 2 as
    ascending residues, one row at a time: row 0 is -f without its leading
    1, and row j is x times row j - 1, its top coefficient folded back
    through row 0."""
    n = len(f) - 1
    rows = [[-c % p for c in f[:n]]]
    for _ in range(n - 2):
        prev = rows[-1]
        rows.append([(low + prev[-1] * r0) % p for low, r0 in zip([0] + prev[:-1], rows[0])])
    return rows


def divmod_mod_over_Z(a: list[int], h: list[int], m: int) -> tuple[list[int], list[int]]:
    """a = q*h + r mod m for monic h, as ascending residue lists: a reduced
    mod m, divided over Z by ``poly_divmod``, and only then q and r reduced
    mod m, so coefficients grow through the whole division."""
    q, r = poly_divmod(IntPoly(c % m for c in a), IntPoly(h))
    return [c % m for c in q.coeffs], list(IntPoly(c % m for c in r.coeffs).coeffs)


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


@lru_cache(maxsize=None)  # the trace-table tests read each entry for many k
def ramanujan_divisor_sum(ell: int, n: int) -> int:
    """The Ramanujan sum c_n(ell) by its divisor sum:
    sum over j | gcd(n, ell) of mobius(n/j) * j."""
    return sum(mobius(n // j) * j for j in divisors(gcd(n, ell)))


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


def is_two_critical(s: CycleStructure) -> tuple[bool, int | None]:
    """True iff one alpha > 1 has every stored length j > 1 of the form
    2^t * alpha; returns (flag, alpha) with alpha the least length above 1."""
    longer = [j for j, _ in s.entries if j > 1]
    if not longer:
        return False, None
    alpha = longer[0]
    for j in longer:
        while j % 2 == 0 and j > alpha:
            j //= 2
        if j != alpha:
            return False, None
    return True, alpha


def _vectors(indices: list[int], total: int) -> Iterator[dict[int, int]]:
    # all m-vectors over the given lengths with sum j*m_j = total, lexicographic
    if not indices:
        if total == 0:
            yield {}
        return
    j, rest = indices[0], indices[1:]
    for m in range(total // j + 1):
        for tail in _vectors(rest, total - j * m):
            out = {j: m} if m else {}
            out.update(tail)
            yield out


def structures_by_filter(d_prime: int, k: int) -> list[CycleStructure]:
    """Every cycle type with m_1 = k on the lengths 2..d'-1, kept when it is
    2-critical with alpha | d'-1; the reference for enumerate_structures."""
    N = sum(d_prime**t for t in range(1, k + 1))
    out = []
    for vec in _vectors(list(range(2, d_prime)), N - k):
        s = CycleStructure.from_map(N, {1: k, **vec})
        ok, alpha = is_two_critical(s)
        if ok and (d_prime - 1) % alpha == 0:
            out.append(s)
    return out


def walks_up_to(out: tuple[tuple[int, ...], ...], k: int) -> list[tuple[int, ...]]:
    """Every walk of length 1..k along the out-lists, as vertex tuples."""
    walks, frontier = [], [(u,) for u in range(len(out))]
    for _ in range(k):
        frontier = [walk + (w,) for walk in frontier for w in out[walk[-1]]]
        walks += frontier
    return walks


def rk_closed_by_walks(out: tuple[tuple[int, ...], ...], h: tuple[int, ...], P: tuple[int, ...], k: int) -> bool:
    """(r,k)-closure from its definition: r maps h into h, and every walk of
    length 1..k between distinct vertices of h has all its vertices in h."""
    return all(P[v] in h for v in h) and all(
        set(walk) <= set(h)
        for walk in walks_up_to(out, k)
        if walk[0] != walk[-1] and walk[0] in h and walk[-1] in h
    )


def fixed_walks_by_walks(out: tuple[tuple[int, ...], ...], P: tuple[int, ...], k: int) -> bool:
    """The walk-fixing property from its definition: for each power phi of
    r up to the identity, every walk of length 1..k between distinct
    phi-fixed vertices is mapped to itself, vertex by vertex, by phi^2."""
    walks = walks_up_to(out, k)
    phi = P
    while True:
        for walk in walks:
            u, v = walk[0], walk[-1]
            if u != v and phi[u] == u and phi[v] == v and any(phi[phi[w]] != w for w in walk):
                return False
        if phi == tuple(range(len(P))):
            return True
        phi = tuple(P[w] for w in phi)


def F_mod_cyclotomic(i: int, k: int, m: int) -> IntPoly:
    """F_{i,k} mod Phi_m, exactly, without building F: Phi_i(s) by Horner in
    Z[x]/(Phi_m), where x^m = 1 and 1 + x + ... + x^(m-1) = 0, so
    s = 1 + x + ... + x^k is 1 + x + ... + x^(r-1), r = (k+1) mod m."""
    return _phi_i_of_partial_sum(i, (k + 1) % m, m)


@lru_cache(maxsize=None)  # one entry per residue r serves every k
def _phi_i_of_partial_sum(i: int, r: int, m: int) -> IntPoly:
    phi_m = cyclotomic(m)
    s = IntPoly((1,) * r)
    acc = IntPoly.zero()
    for c in reversed(cyclotomic(i).coeffs):
        acc = poly_divmod(poly_mul(acc, s) + IntPoly.constant(c), phi_m)[1]
    return acc


def tower_cells() -> list[tuple[int, int]]:
    """The (i, k) behind the conjecture cells of d = 6..12, k = 3..300 whose
    F_{i,k} is above the full-factoring degree, so that only the tower
    settles it: every i in 3..d-1 of a cell that no settled rule covers."""
    cells = {(i, k) for d in range(6, 13) for k in range(3, 301) if settled(d, k) is None
             for i in range(3, d)}
    return sorted((i, k) for i, k in cells if euler_phi(i) * k > _FULL_FACTOR_DEGREE)


def _has_order(z: int, i: int, p: int) -> bool:
    # z, z^2, ..., z^i: the first 1 must come at z^i
    w = 1
    for t in range(1, i + 1):
        w = w * z % p
        if w == 1:
            return t == i
    return False


def tower_closure(i: int, k: int, peel: bool, primes: Iterable[int]) -> set[int]:
    """The tower's degree set, by another kernel: the intersected subset-sum
    closures of the factor degrees of s - z over F_p, s = 1 + x + ... + x^k,
    divided by x + 1/z when ``peel``, for every primitive i-th root z mod
    each p in ``primes``.  Samples that are not squarefree, or that x + 1/z
    does not divide, are passed over.  Every closure holds 0 and the
    sample's degree, so the scan returns once two elements are left.  The
    roots come from brute-force orders and the factors from sympy's
    galoistools."""
    out = set(range(k + 1))
    for p in primes:
        for z in (z for z in range(2, p) if _has_order(z, i, p)):
            f = [1] * k + [(1 - z) % p]  # descending coefficients
            if peel:
                f, r = gf_div(f, [1, pow(z, -1, p)], p, ZZ)
                if r:
                    continue
            if not gf_sqf_p(f, p, ZZ):
                continue
            closure = {0}
            for g in gf_factor_sqf(f, p, ZZ)[1]:
                closure |= {c + len(g) - 1 for c in closure}
            out &= closure
            if len(out) == 2:
                return out
    return out


def tower_report_holds(report: FactorReport) -> bool:
    """A tower report on F_{i,k}, checked from its primes_used alone: an
    irreducible F, or Phi_m times a cofactor of degree (k-1)*phi(i) when
    the report peels, with the closure of ``tower_closure`` at {0, deg}."""
    i, k, n = report.i, report.k, report.degree
    peel = len(report.factor_degrees) == 2
    shape = tuple(sorted((euler_phi(i), n - euler_phi(i)))) if peel else (n,)
    deg = k - 1 if peel else k
    return report.factor_degrees == shape and tower_closure(i, k, peel, report.primes_used) == {0, deg}
