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

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .algebra import divisors as all_divisors, primes_in
from .cyclotomic import ramanujan_sum
from .factorization import (
    CONJECTURE_READINGS,
    ConjectureVerdict,
    conjecture_verdict,
    score_conjecture,
)

__all__ = [
    "Certificate",
    "CheckedCell",
    "CertificateError",
    "LITERATURE",
    "prime_witness",
    "threshold_covered",
    "build_trace_system",
    "check_infeasible",
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


@dataclass(frozen=True)
class TraceSystem:
    """Exact linear system in the multiplicities a_n, n | k, n > 1."""

    d: int
    k: int
    ell_max: int  # largest ell with ell*(d-1) < k+1
    divisors: tuple[int, ...]
    S_table: tuple[tuple[int, ...], ...]  # row ell-1 holds S_ell(Phi_n) per n

    def rows(self) -> list[tuple[int, int, tuple[int, ...]]]:
        """(ell, d**ell, S-values) per constraint row."""
        return [
            (ell, self.d**ell, self.S_table[ell - 1])
            for ell in range(1, self.ell_max + 1)
        ]


@dataclass(frozen=True)
class InfeasibilityResult:
    """Outcome of check_infeasible."""

    status: str  # "Infeasible" | "Inconclusive"
    kind: str | None = None  # "MuCollapse" | "RationalElimination"
    ell_star: int | None = None
    identity: tuple[int, int] | None = None  # (d**ell_star, d), unequal

    @property
    def infeasible(self) -> bool:
        return self.status == "Infeasible"


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

    @property
    def match(self) -> str:
        """Re-derive the conjecture match from the stored degrees alone."""
        return score_conjecture(
            self.predicted_reducible_a, self.predicted_reducible_b, self.observed_degrees
        )[1]


@dataclass(frozen=True)
class Certificate:
    """Self-validating record of one decide() run."""

    d: int
    k: int
    verdict: str  # "Exists" | "NotExistSelfRepeat" | "Unknown"
    method: str  # Known_k2 | Literature_k34 | Literature_d23 | PrimeWitness
    #             | ConjectureElimination
    witness: int | None
    ell_max: int
    divisors: tuple[int, ...]
    trace_rows: tuple[tuple[int, int, tuple[int, ...]], ...]
    checked_i: tuple[CheckedCell, ...]
    assumptions: tuple[str, ...]


class CertificateError(AssertionError):
    """A serialized certificate failed re-validation."""


def prime_witness(d: int, k: int) -> int | None:
    """Smallest prime ell with gcd(ell, k) = 1 and 1 < ell < (k+1)/(d-1)."""
    if d < 2 or k < 2:
        raise ValueError("prime_witness expects d >= 2 and k >= 2")
    # ell*(d-1) < k+1 <=> ell <= k // (d-1) over the integers
    for ell in primes_in(2, k // (d - 1) + 1):
        if gcd(ell, k) == 1:
            return ell
    return None


def threshold_covered(d: int, k: int) -> tuple[bool, str | None]:
    """Odd branch: k odd and k >= 2(d-1); even branch: k even and
    k >= 2(d-1)^2."""
    if d < 6:
        raise ValueError("threshold_covered expects d >= 6")
    if k % 2 == 1 and k >= 2 * (d - 1):
        return True, "Odd"
    if k % 2 == 0 and k >= 2 * (d - 1) ** 2:
        return True, "Even"
    return False, None


def build_trace_system(d: int, k: int) -> TraceSystem:
    """Constraint rows 0 = d^ell + sum_n a_n S_ell(Phi_n) for every ell with
    ell*(d-1) < k+1 (strict), n ranging over the divisors of k above 1.
    Every n divides k, so S_ell(Phi_n) = S_h(Phi_n) with h = gcd(ell, k):
    one row per divisor h <= ell_max of k serves its whole gcd class."""
    if d < 2 or k < 2:
        raise ValueError("build_trace_system expects d >= 2 and k >= 2")
    ell_max = k // (d - 1)
    all_divs = all_divisors(k)
    divs = tuple(all_divs[1:])
    row = {h: tuple(ramanujan_sum(h, n) for n in divs) for h in all_divs if h <= ell_max}
    table = tuple(row[gcd(ell, k)] for ell in range(1, ell_max + 1))
    return TraceSystem(d, k, ell_max, divs, table)


def check_infeasible(sys: TraceSystem) -> InfeasibilityResult:
    """Infeasible via the mu-collapse when a prime ell* coprime to k lies in
    (1, ell_max]: S_ell*(Phi_n) = mu(n) = S_1(Phi_n) for every n | k, so
    subtracting rows 1 and ell* forces d^ell* = d.  Otherwise falls back to
    exact rational elimination; Inconclusive when rationally consistent."""
    d, k = sys.d, sys.k
    for ell_star in primes_in(2, sys.ell_max + 1):
        if gcd(ell_star, k) != 1:
            continue
        assert sys.S_table[0] == sys.S_table[ell_star - 1]
        return InfeasibilityResult(
            status="Infeasible",
            kind="MuCollapse",
            ell_star=ell_star,
            identity=(d**ell_star, d),
        )
    # rational consistency of the full row set
    rows = [
        [Fraction(c) for c in sys.S_table[ell - 1]] + [Fraction(-(d**ell))]
        for ell in range(1, sys.ell_max + 1)
    ]
    ncols = len(sys.divisors)
    pivot_row = 0
    for col in range(ncols):
        pivot = next(
            (r for r in range(pivot_row, len(rows)) if rows[r][col] != 0), None
        )
        if pivot is None:
            continue
        rows[pivot_row], rows[pivot] = rows[pivot], rows[pivot_row]
        pr = rows[pivot_row]
        for r in range(len(rows)):
            if r != pivot_row and rows[r][col] != 0:
                factor = rows[r][col] / pr[col]
                rows[r] = [a - factor * b for a, b in zip(rows[r], pr)]
        pivot_row += 1
    for r in range(pivot_row, len(rows)):
        if all(c == 0 for c in rows[r][:-1]) and rows[r][-1] != 0:
            return InfeasibilityResult(status="Infeasible", kind="RationalElimination")
    return InfeasibilityResult(status="Inconclusive")


def decide(d: int, k: int) -> Certificate:
    """Decision pipeline for (d,k)-digraphs with self-repeats.

    Order: k = 2 existence; k in {3,4} literature; d in {2,3} literature;
    prime witness (a witness for d covers every smaller degree, the interval
    only widens); conjecture-conditional elimination over i in 3..d-1;
    otherwise Unknown.
    """
    if d < 2 or k < 2:
        raise ValueError("decide expects d >= 2 and k >= 2")
    sys = build_trace_system(d, k)
    base = dict(
        d=d,
        k=k,
        witness=None,
        ell_max=sys.ell_max,
        divisors=sys.divisors,
        trace_rows=tuple(sys.rows()),
        checked_i=(),
        assumptions=(),
    )
    if k == 2:
        return Certificate(
            verdict="Exists",
            method="Known_k2",
            **{**base, "assumptions": LITERATURE["k2_exists"]},
        )
    if k in (3, 4):
        return Certificate(
            verdict="NotExistSelfRepeat",
            method="Literature_k34",
            **{**base, "assumptions": LITERATURE["k34"]},
        )
    if d in (2, 3):
        key = "d2" if d == 2 else "d3"
        return Certificate(
            verdict="NotExistSelfRepeat",
            method="Literature_d23",
            **{**base, "assumptions": LITERATURE[key]},
        )
    w = prime_witness(d, k)
    if w is not None:
        return Certificate(
            verdict="NotExistSelfRepeat",
            method="PrimeWitness",
            **{**base, "witness": w},
        )
    verdicts = [conjecture_verdict(i, k) for i in range(3, d)]
    checked = tuple(CheckedCell.from_verdict(v) for v in verdicts)
    if checked and all(v.match == "Consistent" for v in verdicts):
        return Certificate(
            verdict="NotExistSelfRepeat",
            method="ConjectureElimination",
            **{**base, "checked_i": checked, "assumptions": LITERATURE["conjecture"]},
        )
    return Certificate(
        verdict="Unknown",
        method="ConjectureElimination",
        **{**base, "checked_i": checked},
    )


def validate_certificate(cert: Certificate) -> bool:
    """Re-check a certificate from first principles; raises CertificateError
    with the failing condition, returns True when everything re-verifies."""

    def need(cond: bool, what: str):
        if not cond:
            raise CertificateError(f"({cert.d},{cert.k}) {cert.method}: {what}")

    sys = build_trace_system(cert.d, cert.k)
    need(cert.ell_max == sys.ell_max, "ell_max mismatch")
    need(cert.divisors == sys.divisors, "divisor list mismatch")
    need(cert.trace_rows == tuple(sys.rows()), "Ramanujan rows mismatch")
    need(
        cert.verdict in ("Exists", "NotExistSelfRepeat", "Unknown"),
        "unknown verdict tag",
    )
    if cert.method == "Known_k2":
        need(cert.k == 2 and cert.verdict == "Exists", "k=2 table misuse")
    elif cert.method == "Literature_k34":
        need(cert.k in (3, 4), "k not in {3,4}")
        need(cert.verdict == "NotExistSelfRepeat", "verdict mismatch")
    elif cert.method == "Literature_d23":
        need(cert.d in (2, 3) and cert.k >= 3, "d not in {2,3}")
        need(cert.verdict == "NotExistSelfRepeat", "verdict mismatch")
    elif cert.method == "PrimeWitness":
        ell = cert.witness
        need(ell is not None, "missing witness")
        assert ell is not None
        need(len(primes_in(ell, ell + 1)) == 1, "witness not prime")
        need(gcd(ell, cert.k) == 1, "witness shares a factor with k")
        need(1 < ell and ell * (cert.d - 1) < cert.k + 1, "witness outside interval")
        result = check_infeasible(sys)
        need(result.infeasible, "trace system not infeasible")
    elif cert.method == "ConjectureElimination":
        for cell in cert.checked_i:
            need(
                cell.predicted_reducible_a == CONJECTURE_READINGS["A"](cell.i, cert.k)
                and cell.predicted_reducible_b
                == CONJECTURE_READINGS["B"](cell.i, cert.k),
                f"stored prediction wrong at i={cell.i}",
            )
        if cert.verdict == "NotExistSelfRepeat":
            need(
                tuple(c.i for c in cert.checked_i) == tuple(range(3, cert.d)),
                "checked_i does not cover 3..d-1",
            )
            need(
                all(c.match == "Consistent" for c in cert.checked_i),
                "inconsistent cell inside elimination certificate",
            )
            need(
                any("cggmm14" in a for a in cert.assumptions),
                "missing conjecture-implication assumption",
            )
        else:
            need(cert.verdict == "Unknown", "verdict mismatch")
    else:
        need(False, "unknown method tag")
    if cert.assumptions:
        need(
            all(":" in a for a in cert.assumptions),
            "assumption entries must be citation strings",
        )
    return True
