"""Acceptance battery: one test per shipped claim, one PASS/FAIL line each.

Run order matters: the conjecture grid warms the factorization cache that the
full sweep then reuses, so these tests execute top to bottom.
"""

from __future__ import annotations

import cmath
import math
import time
from pathlib import Path

import pytest

from amdigraph.algebra import IntPoly, euler_phi, poly_mul
from amdigraph.cli import main, parse_certificate, serialize_certificate
from amdigraph.cyclotomic import build_F, ramanujan_sum
from amdigraph.digraphs import gen_line_digraph_complete, run_battery
from amdigraph.factorization import (
    certify_irreducible,
    conjecture_verdict,
    factor_over_Q,
)
from amdigraph.sieve import (
    build_trace_system,
    check_infeasible,
    decide,
    prime_witness,
    validate_certificate,
)
from amdigraph.structures import CycleStructure, enumerate_structures, is_two_critical
from oracles import mobius, threshold_covered


def _report(num: int, problems: list[str], detail: str) -> None:
    ok = not problems
    line = detail if ok else "; ".join(problems[:4])
    print(f"{'PASS' if ok else 'FAIL'} criterion {num}: {line}")
    assert ok, f"criterion {num}: {line}"


def test_criterion_1_conjecture_grid(capsys: pytest.CaptureFixture[str]) -> None:
    problems: list[str] = []
    t0 = time.monotonic()
    rc = main(["conjecture", "--i", "3..14", "--k", "5..100"])
    summary = capsys.readouterr().out.strip()
    if rc != 0:
        problems.append(f"CLI exit code {rc}")
    if "1152 cells" not in summary or "0 Inconsistent" not in summary:
        problems.append(f"unexpected summary {summary!r}")

    reducible = inconsistent = odd_contradictions = 0
    for i in range(3, 15):
        for k in range(5, 101):
            v = conjecture_verdict(i, k)
            if v.match == "Inconsistent":
                inconsistent += 1
                if k % 2 == 1:
                    odd_contradictions += 1
            if k % 2 == 0 and (k + 2) % i == 0:
                reducible += 1
                rep = v.observed
                if rep.verdict != "Reducible" or len(rep.factor_degrees) != 2:
                    problems.append(f"({i},{k}) expected exactly two factors")
                elif len(rep.factors) != 2 or poly_mul(*rep.factors) != build_F(i, k):
                    problems.append(f"({i},{k}) product does not rebuild F")
    elapsed = time.monotonic() - t0
    if inconsistent:
        problems.append(f"{inconsistent} Inconsistent cells")
    if odd_contradictions:
        problems.append(f"{odd_contradictions} odd-k cells contradict both readings")
    if reducible < 50:
        problems.append(f"only {reducible} predicted-reducible cells seen")
    if elapsed > 900:
        problems.append(f"runtime {elapsed:.0f}s exceeds 15 minutes")
    _report(
        1,
        problems,
        f"i=3..14 k=5..100: 1152 cells, 0 Inconsistent, {reducible} reducible cells "
        f"rebuild bit-exactly, {elapsed:.0f}s",
    )


def test_criterion_2_sweep_nonexistence(tmp_path: Path, capsys: pytest.CaptureFixture[str]) -> None:
    problems: list[str] = []
    allowed = {"PrimeWitness", "ConjectureElimination"}
    by_method: dict[str, int] = {}
    bundle_bytes = 0
    t0 = time.monotonic()
    for d in range(6, 13):
        for k in range(3, 301):
            cert = decide(d, k)
            by_method[cert.method] = by_method.get(cert.method, 0) + 1
            text = serialize_certificate(cert, deterministic=True)
            size = len(text.encode())
            bundle_bytes += size
            if size > 4096:
                problems.append(f"({d},{k}) certificate is {size} B")
            parsed = parse_certificate(text)
            if not (parsed == cert and validate_certificate(parsed)):
                problems.append(f"({d},{k}) certificate does not round-trip")
            if cert.verdict != "NotExistSelfRepeat":
                problems.append(f"({d},{k}) verdict {cert.verdict}")
            if k >= 5 and cert.method not in allowed:
                problems.append(f"({d},{k}) method {cert.method}")
            covered, _ = threshold_covered(d, k)
            if covered and cert.method == "ConjectureElimination":
                problems.append(f"({d},{k}) conjecture used inside threshold region")
    elapsed = time.monotonic() - t0
    if elapsed > 600:
        problems.append(f"runtime {elapsed:.0f}s exceeds 10 minutes")
    if bundle_bytes >= 1_000_000:
        problems.append(f"certificates total {bundle_bytes} B")

    out = tmp_path / "sweep.csv"
    rc = main(["sweep", "--d", "6..12", "--k", "3..300", "--deterministic", "--out", str(out)])
    capsys.readouterr()
    if rc != 0:
        problems.append(f"sweep CLI exit {rc}")
    rows = out.read_text().strip().split("\n")[1:]
    if len(rows) != 7 * 298:
        problems.append(f"CSV has {len(rows)} rows")
    if not all(",NotExistSelfRepeat," in row for row in rows):
        problems.append("CSV contains a non-nonexistence verdict")
    _report(
        2,
        problems,
        f"d=6..12 k=3..300: {7 * 298} cells all NotExistSelfRepeat "
        f"({', '.join(f'{m}:{n}' for m, n in sorted(by_method.items()))}), "
        f"certificates {bundle_bytes} B, {elapsed:.0f}s",
    )


def test_criterion_3_witness_trace_agreement() -> None:
    problems: list[str] = []
    witnessed = 0
    for d in range(2, 13):
        for k in range(2, 301):
            w = prime_witness(d, k)
            if w is None:
                continue
            witnessed += 1
            sys = build_trace_system(d, k)
            if not (
                check_infeasible(sys, w)
                and sys.row(1) == sys.row(w)
                and d**w != d
            ):
                problems.append(f"({d},{k}) witness {w} does not collapse rows 1 and {w}")
    if witnessed < 2000:
        problems.append(f"only {witnessed} witnessed cells")
    _report(
        3,
        problems,
        f"{witnessed} witnessed cells in d=2..12, k=2..300 all collapse to d^l - d != 0",
    )


def test_criterion_4_ramanujan_suite() -> None:
    problems: list[str] = []
    for n in range(1, 61):
        coprime_residues = [j for j in range(1, n + 1) if math.gcd(j, n) == 1]
        for ell in range(1, 61):
            z = sum(cmath.exp(2j * cmath.pi * ell * j / n) for j in coprime_residues)
            got = ramanujan_sum(ell, n)
            if abs(got - z.real) > 1e-6 or abs(z.imag) > 1e-6:
                problems.append(f"S_{ell}(Phi_{n}) = {got} vs numeric {z}")
            if math.gcd(ell, n) == 1 and got != mobius(n):
                problems.append(f"S_{ell}(Phi_{n}) != mu({n})")
    _report(4, problems, "all n, l <= 60 match numeric power sums and the Mobius case")


def test_criterion_5_oracle_battery() -> None:
    problems: list[str] = []
    t0 = time.monotonic()
    checks = 0
    for d in (2, 3, 4, 5):
        rows = run_battery(gen_line_digraph_complete(d), d, 2)
        checks += len(rows)
        for name, ok, detail in rows:
            if not ok:
                problems.append(f"d={d} {name}: {detail}")
    elapsed = time.monotonic() - t0
    if elapsed > 60:
        problems.append(f"runtime {elapsed:.1f}s exceeds 1 minute")
    _report(
        5,
        problems,
        f"d in {{2,3,4,5}}: {checks} battery rows, zero failed assertions, {elapsed:.1f}s",
    )


def test_criterion_6_factorization_cross_check() -> None:
    problems: list[str] = []
    cells = 0
    for i in range(2, 200):
        if euler_phi(i) > 24:
            continue
        for k in range(2, 49):
            if euler_phi(i) * k > 48:
                break
            cells += 1
            F = build_F(i, k)
            facs = factor_over_Q(F)
            if facs is None:
                problems.append(f"({i},{k}) unresolved")
                continue
            prod = IntPoly.one()
            for g in facs:
                prod = poly_mul(prod, g)
            if prod != F:
                problems.append(f"({i},{k}) product mismatch")
            cert = certify_irreducible(F)
            if (len(facs) == 1) != cert.is_irreducible:
                problems.append(f"({i},{k}) {len(facs)} factors vs {cert.status}")
    _report(
        6,
        problems,
        f"{cells} cells with phi(i)*k <= 48: single factor iff Irreducible, exact products",
    )


def test_criterion_7_structure_enumeration() -> None:
    problems: list[str] = []
    out = enumerate_structures(4, 3)
    if len(out) != 1 or out[0].entries != ((1, 3), (3, 27)):
        problems.append(f"enumerate_structures(4,3) -> {[s.entries for s in out]}")

    survivors: list[tuple[int, int]] = []
    for m2 in range(0, 41):
        rest = 84 - 3 - 2 * m2
        if rest < 0 or rest % 3:
            continue
        m3 = rest // 3
        s = CycleStructure.from_map(84, 3, {1: 3, 2: m2, 3: m3})
        flag, alpha = is_two_critical(s)
        if flag and alpha is not None and 3 % alpha == 0:
            survivors.append((m2, m3))
    if survivors != [(0, 27)]:
        problems.append(f"brute force found {survivors}")
    _report(
        7,
        problems,
        "enumerate_structures(4,3) unique (m_1=3, m_3=27), brute force concurs",
    )


def test_emitted_certificates_validate_end_to_end() -> None:
    # not a numbered criterion: spot-check the self-validation contract on a
    # cross-section of the sweep the criteria above exercised
    for d, k in ((6, 5), (6, 11), (7, 2), (9, 3), (12, 60), (12, 200), (2, 9), (3, 300)):
        assert validate_certificate(decide(d, k))
