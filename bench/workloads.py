"""Per-cell pipelines of the three workloads, with their output gates.

Each pipeline calls the public ``amdigraph`` functions through their modules
(``sieve.decide``, not a name bound at import), so the tracer's spans see
every call.  A pipeline returns a ``Cell`` with the deterministic output
text, the digest of its decision record (pinned in ``cells.json``), the
seconds spent re-checking the output, the problems the gate found, and the
seconds of checks that only the benchmark makes, which the cell time leaves
out.

- ``grid``: ``conjecture_verdict(i, k)`` and its per-cell JSON report, in the
  format ``amd conjecture --out`` writes, read back and re-derived.  Gate:
  the cell is Consistent and a reducible cell's two factors multiply back to
  F_{i,k}.
- ``factor``: ``build_F`` -> ``factor_over_Q`` -> ``certify_irreducible`` ->
  exact product check.  Gate: the product equals F and there is one factor
  exactly when the certifier says Irreducible.
- ``certify``: ``decide`` -> ``serialize_certificate(deterministic=True)`` ->
  ``parse_certificate`` -> ``validate_certificate``.  Gate: the certificate
  round-trips equal, validates, and its verdict is definite.
"""
from __future__ import annotations

import hashlib
import importlib
import json
import time
from dataclasses import dataclass, field

import speed
from tracer import untraced


@dataclass
class Cell:
    text: str  # deterministic output bytes of the cell (report or certificate)
    digest: str  # sha256 of the decision record, compared with cells.json
    verify_s: float  # seconds the pipeline spent re-checking its output
    problems: list[str] = field(default_factory=list)
    gate_s: float = 0.0  # seconds of checks only the benchmark makes; not timed
    # takes verify_s to reference speed where the pipeline measured it;
    # otherwise the round's speed samples do (``bench/speed.py``)
    verify_scale: float | None = None


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


# The re-checks of grid and factor take tens of microseconds, so the cold
# caches that the preceding cell leaves behind set most of a single timing
# (about 6x the warm time on the reference machine), and the machine's speed
# moves within milliseconds, so one warm timing scaled by the round's speed
# samples still moves by +-30% between runs.  Their verify time is the cost
# of the check itself at reference speed: the fastest of a few batches, each
# repeating the check for about BATCH_S, over the fastest one-pass speed
# sample taken between the batches (+-10% between runs).
VERIFY_BATCHES = 5
BATCH_S = 0.001


def _best_of(check) -> tuple[list[str], float, float, float]:
    """The problems ``check`` finds, its time per check, the factor that
    takes that time to reference speed, and the seconds of the other checks
    and samples, which the cell time leaves out."""
    start = time.perf_counter()
    problems = check()  # cold
    t0 = time.perf_counter()
    check()
    n = max(1, round(BATCH_S / max(time.perf_counter() - t0, 1e-6)))
    best = ref = float("inf")
    for _ in range(VERIFY_BATCHES):
        t0 = time.perf_counter()
        for _ in range(n):
            check()
        best = min(best, (time.perf_counter() - t0) / n)
        ref = min(ref, speed.sample(passes=1) * speed.PASSES)
    return problems, best, speed.REFERENCE_S / ref, time.perf_counter() - start - best


def _modules():
    # by module path: the package re-exports a function named ``cyclotomic``
    names = ("algebra", "cli", "cyclotomic", "factorization", "sieve")
    return tuple(importlib.import_module(f"amdigraph.{n}") for n in names)


def grid_cell(i: int, k: int) -> Cell:
    algebra, _, cyclotomic, factorization, _ = _modules()
    v = factorization.conjecture_verdict(i, k)
    rep = v.observed
    report = {
        "i": i,
        "k": k,
        "degree": rep.degree,
        "verdict": rep.verdict,
        "factor_degrees": list(rep.factor_degrees),
        "certificate_kind": rep.certificate_kind,
        "primes_used": list(rep.primes_used),
        "predicted": {
            "A": v.predicted_reducible_reading_A,
            "B": v.predicted_reducible_reading_B,
        },
        "match": v.match,
        "match_by_reading": dict(v.match_by_reading),
    }
    text = json.dumps(report, indent=2) + "\n"

    # verify: read the report back and re-derive its match from the stored
    # degrees alone, as validate_certificate does for a checked cell
    def check() -> list[str]:
        problems = []
        doc = json.loads(text)
        if doc != report:
            problems.append("report does not round-trip")
        predicted = {n: rule(i, k) for n, rule in factorization.CONJECTURE_READINGS.items()}
        if doc["predicted"] != predicted:
            problems.append("stored predictions are wrong")
        degrees = doc["factor_degrees"]
        if doc["degree"] != algebra.euler_phi(i) * k or sum(degrees) != doc["degree"]:
            problems.append("degrees do not add up to phi(i)*k")
        reducible = len(degrees) > 1
        if doc["match"] != "Consistent" or not any(
            p == reducible and (not reducible or len(degrees) == 2) for p in predicted.values()
        ):
            problems.append(f"match is {doc['match']}")
        return problems

    problems, verify_s, verify_scale, repeats_s = _best_of(check)

    # gate only: a reducible cell's factors multiply back to F exactly
    t0 = time.perf_counter()
    if rep.verdict == "Reducible":
        if len(rep.factors) != 2:
            problems.append(f"{len(rep.factors)} factors, expected 2")
        else:
            with untraced():
                if algebra.poly_mul(*rep.factors) != cyclotomic.build_F(i, k):
                    problems.append("factors do not multiply back to F")
    digest = _sha(text)
    return Cell(text, digest, verify_s, problems, time.perf_counter() - t0 + repeats_s,
                verify_scale)


def factor_cell(i: int, k: int) -> Cell:
    algebra, _, cyclotomic, factorization, _ = _modules()
    F = cyclotomic.build_F(i, k)
    factors = factorization.factor_over_Q(F)
    outcome = factorization.certify_irreducible(F)
    record = {
        "i": i,
        "k": k,
        "degree": F.degree,
        "factors": None if factors is None else [list(g.coeffs) for g in factors],
        "status": outcome.status,
        "primes_used": list(outcome.primes_used),
        "degree_set": sorted(outcome.degree_set),
    }
    text = json.dumps(record, separators=(",", ":")) + "\n"

    def check() -> list[str]:
        if factors is None:
            return ["factor_over_Q left the cell unresolved"]
        problems = []
        with untraced():
            product = algebra.IntPoly.one()
            for g in factors:
                product = algebra.poly_mul(product, g)
        if product != F:
            problems.append("product of factors differs from F")
        if (len(factors) == 1) != outcome.is_irreducible:
            problems.append(f"{len(factors)} factors but certifier says {outcome.status}")
        return problems

    problems, verify_s, verify_scale, repeats_s = _best_of(check)
    t0 = time.perf_counter()
    digest = _sha(text)
    return Cell(text, digest, verify_s, problems, time.perf_counter() - t0 + repeats_s,
                verify_scale)


def certify_cell(d: int, k: int) -> Cell:
    _, cli, _, _, sieve = _modules()
    cert = sieve.decide(d, k)
    text = cli.serialize_certificate(cert, deterministic=True)
    return check_certificate(cert, text)


def check_certificate(cert, text: str) -> Cell:
    """Gate of one certify cell: parse ``text`` back and re-validate it.

    The digest covers the decision a certificate records (verdict, method,
    witness, checked cells with their ``primes_used``), read back from the
    text, so a changed entry fails the pinned comparison even where the
    validator trusts stored values.
    """
    _, cli, _, _, sieve = _modules()
    t0 = time.perf_counter()
    problems = []
    parsed = None
    try:
        parsed = cli.parse_certificate(text)
        sieve.validate_certificate(parsed)
    except (AssertionError, ValueError, KeyError, TypeError) as exc:
        problems.append(f"{type(exc).__name__}: {exc}")
    verify_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    if parsed is not None and parsed != cert:
        problems.append("certificate does not round-trip equal")
    if cert.verdict not in ("Exists", "NotExistSelfRepeat"):
        problems.append(f"verdict {cert.verdict} is not definite")
    decision = parsed if parsed is not None else cert
    record = {
        "d": decision.d,
        "k": decision.k,
        "verdict": decision.verdict,
        "method": decision.method,
        "witness": decision.witness,
        "checked_i": [
            [c.i, c.predicted_reducible_a, c.predicted_reducible_b,
             list(c.observed_degrees), list(c.primes_used)]
            for c in decision.checked_i
        ],
        "assumptions": list(decision.assumptions),
    }
    digest = _sha(json.dumps(record))
    return Cell(text, digest, verify_s, problems, time.perf_counter() - t0)


PIPELINES = {"grid": grid_cell, "factor": factor_cell, "certify": certify_cell}
