"""Trace-constraint infeasibility and the nonexistence decision pipeline.

For a (d,k)-digraph with self-repeats, the eigenvalues of the adjacency
matrix A coming from the factor x^k + ... + x of the characteristic
polynomial contribute power sums that must cancel the d^ell coming from the
eigenvalue d.  Writing a_n for the multiplicity of Phi_n (n | k, n > 1), each
exponent ell with ell*(d-1) < k+1 yields the exact constraint

    0 = d^ell + sum_n a_n * S_ell(Phi_n)

with S_ell the Ramanujan sums.  A prime ell coprime to k collapses the
system to d^ell = d, which is false for d >= 2; this is the engine behind
the nonexistence sweep, with literature facts and conjecture-conditional
elimination filling the remaining cells.
"""
from __future__ import annotations

from dataclasses import dataclass, fields
from math import gcd

from .algebra import factorize
from .cyclotomic import ramanujan_sum
from .factorization import ConjectureVerdict, conjecture_verdict

__all__ = [
    "Certificate",
    "CheckedCell",
    "CertificateError",
    "LITERATURE",
    "MAX_D",
    "prime_witness",
    "build_trace_system",
    "check_infeasible",
    "settled",
    "decide",
    "validate_certificate",
]

# Literature facts are static data with citation keys, kept apart from
# anything this package computes.
LITERATURE: dict[str, tuple[str, ...]] = {
    "k2_exists": (
        "fiol83: (d,2)-digraphs exist for every degree d > 1",
        "gimbert01: complete classification of (d,2)-digraphs",
    ),
    "k34": (
        "cggmm08: no (d,3)-digraphs for d > 1",
        "cggmm13: no (d,4)-digraphs for d > 1",
    ),
    "d2": ("miller92: no (2,k)-digraphs for k >= 3",),
    "d3": (
        "b95: nonexistence of (3,k)-digraphs",
        "baskoro973: nonexistence of (3,k)-digraphs for k >= 3",
    ),
    "conjecture": (
        "cggmm14: if the two-factor conjecture holds for F_{i,k} at every i "
        "with m(i) != 0, then (d,k)-digraphs with that permutation cycle "
        "structure would not exist",
    ),
}

# The cap on d of the CLI, and of the validator for a cell no settled rule
# covers: conjecture elimination factors F_{i,k} for every i < d.  Up to it,
# every such cell has k <= 60, so deciding it again stays cheap.
MAX_D = 12


@dataclass(frozen=True)
class TraceSystem:
    """Exact linear system in the multiplicities a_n, n | k, n > 1."""

    d: int
    k: int
    ell_max: int  # largest ell with ell*(d-1) < k+1
    divisors: tuple[int, ...]
    mobius: tuple[int, ...]  # mu(n) per n, from k's prime exponents

    def row(self, ell: int) -> tuple[int, ...]:
        """S_ell(Phi_n) per n, evaluated from the Ramanujan sums."""
        return tuple(ramanujan_sum(ell, n) for n in self.divisors)


@dataclass(frozen=True)
class CheckedCell:
    """One conjecture-elimination cell, reduced to serializable facts."""

    i: int
    predicted_reducible_a: bool
    predicted_reducible_b: bool
    observed_degrees: tuple[int, ...]  # () = Unresolved; one entry = Irreducible
    primes_used: tuple[int, ...]

    @classmethod
    def from_verdict(cls, v: ConjectureVerdict) -> "CheckedCell":
        return cls(
            i=v.i,
            predicted_reducible_a=v.predicted_reducible_reading_A,
            predicted_reducible_b=v.predicted_reducible_reading_B,
            observed_degrees=v.observed.factor_degrees,
            primes_used=v.observed.primes_used,
        )


@dataclass(frozen=True)
class Certificate:
    """Self-validating record of one decide() run: the decision alone, since
    the validator evaluates every trace row it needs from (d, k)."""

    d: int
    k: int
    verdict: str  # "Exists" | "NotExistSelfRepeat" | "Unknown"
    method: str  # Known_k2 | Literature_k34 | Literature_d23 | PrimeWitness
    #             | ConjectureElimination
    witness: int | None
    checked_i: tuple[CheckedCell, ...]
    assumptions: tuple[str, ...]


class CertificateError(AssertionError):
    """A serialized certificate failed re-validation."""


def prime_witness(d: int, k: int) -> int | None:
    """Smallest prime ell with gcd(ell, k) = 1 and 1 < ell < (k+1)/(d-1).

    The least integer ell > 1 coprime to k is that prime: a prime factor of
    it would be smaller and coprime to k too.  k+1 bounds the scan."""
    if d < 2 or k < 2:
        raise ValueError("prime_witness expects d >= 2 and k >= 2")
    ell = 2
    while gcd(ell, k) != 1:
        ell += 1
    # ell*(d-1) < k+1 <=> ell <= k // (d-1) over the integers
    return ell if ell <= k // (d - 1) else None


def build_trace_system(d: int, k: int) -> TraceSystem:
    """Constraint rows 0 = d^ell + sum_n a_n S_ell(Phi_n) for every ell with
    ell*(d-1) < k+1 (strict), n ranging over the divisors of k above 1; each
    row is evaluated when it is read.  mu(n) per n comes from k's prime
    exponents, not from the Ramanujan sums."""
    if d < 2 or k < 2:
        raise ValueError("build_trace_system expects d >= 2 and k >= 2")
    pairs = [(1, 1)]  # (n, mu(n)) for every n | k
    for p, e in factorize(k).items():
        pairs = [(n * p**a, 0 if a > 1 else mu * (-1) ** a) for n, mu in pairs for a in range(e + 1)]
    divisors, mobius = zip(*sorted(pairs)[1:])
    return TraceSystem(d, k, k // (d - 1), divisors, mobius)


def check_infeasible(sys: TraceSystem, ell: int) -> bool:
    """The mu-collapse at ell (1 < ell <= ell_max): row ell, from the
    Ramanujan sums, equals the stored mu(n), which is row 1 (Hoelder), so the
    two rows force d^ell = d, false for d >= 2.  A prime ell coprime to k
    always collapses, as S_ell(Phi_n) = mu(n) for every n | k.  False for any
    ell outside that range: the system has no row ell."""
    return 1 < ell <= sys.ell_max and sys.row(ell) == sys.mobius


def settled(d: int, k: int) -> Certificate | None:
    """The rules that settle a cell without conjecture: k = 2 existence;
    k in {3,4} literature; d in {2,3} literature; prime witness (a witness
    for d covers every smaller degree, the interval only widens).  None when
    no rule applies."""
    if k == 2:
        verdict, method, key = "Exists", "Known_k2", "k2_exists"
    elif k in (3, 4):
        verdict, method, key = "NotExistSelfRepeat", "Literature_k34", "k34"
    elif d in (2, 3):
        verdict, method, key = "NotExistSelfRepeat", "Literature_d23", f"d{d}"
    else:
        w = prime_witness(d, k)
        if w is None:
            return None
        return Certificate(
            d=d, k=k, verdict="NotExistSelfRepeat", method="PrimeWitness",
            witness=w, checked_i=(), assumptions=(),
        )
    return Certificate(
        d=d, k=k, verdict=verdict, method=method,
        witness=None, checked_i=(), assumptions=LITERATURE[key],
    )


def decide(d: int, k: int) -> Certificate:
    """Decision pipeline for (d,k)-digraphs with self-repeats: the settled
    rules first, then conjecture-conditional elimination over i in 3..d-1,
    otherwise Unknown."""
    if d < 2 or k < 2:
        raise ValueError("decide expects d >= 2 and k >= 2")
    cert = settled(d, k)
    if cert is not None:
        return cert
    verdicts = [conjecture_verdict(i, k) for i in range(3, d)]
    checked = tuple(CheckedCell.from_verdict(v) for v in verdicts)
    base = dict(d=d, k=k, method="ConjectureElimination", witness=None, checked_i=checked)
    if all(v.match == "Consistent" for v in verdicts):
        return Certificate(
            verdict="NotExistSelfRepeat", assumptions=LITERATURE["conjecture"], **base
        )
    return Certificate(verdict="Unknown", assumptions=(), **base)


def validate_certificate(cert: Certificate) -> bool:
    """Re-check a certificate by deciding its cell again; raises
    CertificateError with the failing condition, returns True when
    everything re-verifies.

    Every field must equal the one decide() computes for (d, k), so the
    rules, the conjecture verdicts and their primes exist once; a prime
    witness is then checked on the trace system rebuilt from (d, k).  A cell
    no settled rule covers is decided again only up to d = MAX_D."""

    def need(cond: bool, what: str):
        if not cond:
            raise CertificateError(f"({cert.d},{cert.k}) {cert.method}: {what}")

    need(cert.d >= 2 and cert.k >= 2, "outside d >= 2, k >= 2")
    need(
        cert.d <= MAX_D or settled(cert.d, cert.k) is not None,
        f"no settled rule covers this cell and d is above {MAX_D}",
    )
    expected = decide(cert.d, cert.k)
    if cert != expected:
        name = next(
            f.name for f in fields(Certificate)
            if getattr(cert, f.name) != getattr(expected, f.name)
        )
        need(False, f"{name} differs from the decided certificate")
    if cert.method == "PrimeWitness":
        sys = build_trace_system(cert.d, cert.k)
        need(check_infeasible(sys, cert.witness), "trace system not infeasible")
    return True
