from __future__ import annotations

import math
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from amdigraph.algebra import divisors, is_prime
from amdigraph.cyclotomic import ramanujan_sum
from amdigraph.factorization import conjecture_verdict
from amdigraph.sieve import (
    LITERATURE,
    Certificate,
    CertificateError,
    CheckedCell,
    build_trace_system,
    check_infeasible,
    decide,
    prime_witness,
    threshold_covered,
    validate_certificate,
)


def test_trace_system_6_11() -> None:
    sys = build_trace_system(6, 11)
    assert sys.ell_max == 2
    assert sys.divisors == (11,)
    assert sys.S_table == ((-1,), (-1,))
    assert sys.rows() == [(1, 6, (-1,)), (2, 36, (-1,))]


def test_trace_system_4_9() -> None:
    sys = build_trace_system(4, 9)
    assert sys.ell_max == 3
    assert sys.divisors == (3, 9)
    assert sys.S_table == ((-1, 0), (-1, 0), (2, -3))


def _per_ell_table(k: int, ell_max: int) -> tuple[tuple[int, ...], ...]:
    # the definition: one row per ell, with no gcd classes shared
    divs = [n for n in divisors(k) if n > 1]
    return tuple(
        tuple(ramanujan_sum(ell, n) for n in divs) for ell in range(1, ell_max + 1)
    )


def test_trace_table_matches_per_ell_definition() -> None:
    for k in range(2, 301):
        table = build_trace_system(2, k).S_table
        assert table == _per_ell_table(k, k)
        for d in range(3, 13):
            assert build_trace_system(d, k).S_table == table[: k // (d - 1)]


@pytest.mark.parametrize("k", [5040, 20000])
def test_trace_table_matches_per_ell_definition_large_k(k: int) -> None:
    sys = build_trace_system(12, k)
    assert sys.S_table == _per_ell_table(k, k // 11)


def test_prime_witness_known_values() -> None:
    assert prime_witness(6, 11) == 2
    assert prime_witness(12, 210) == 11
    assert prime_witness(12, 200) == 3
    assert prime_witness(12, 2) is None
    assert prime_witness(2, 2) is None
    for k in range(5, 11):
        assert prime_witness(6, k) is None


@given(st.integers(min_value=2, max_value=12), st.integers(min_value=2, max_value=300))
@settings(max_examples=150, deadline=None)
def test_prime_witness_contract(d: int, k: int) -> None:
    w = prime_witness(d, k)
    if w is None:
        # no prime coprime to k inside the open interval
        for ell in range(2, k // (d - 1) + 1):
            assert not (is_prime(ell) and math.gcd(ell, k) == 1)
    else:
        assert is_prime(w)
        assert math.gcd(w, k) == 1
        assert 1 < w and w * (d - 1) < k + 1
        # smallest such prime
        for ell in range(2, w):
            assert not (is_prime(ell) and math.gcd(ell, k) == 1)
        # shrinking d widens the interval: witness survives
        for smaller in range(2, d):
            assert prime_witness(smaller, k) is not None


def test_prime_witness_covers_threshold_regions() -> None:
    # why decide never needs a threshold method: wherever the paper's
    # threshold theorem applies, a prime witness exists
    uncovered = [
        (d, k)
        for d in range(6, 13)
        for k in range(3, 5001)
        if threshold_covered(d, k)[0] and prime_witness(d, k) is None
    ]
    assert uncovered == []


def test_threshold_covered_branches() -> None:
    assert threshold_covered(6, 11) == (True, "Odd")
    assert threshold_covered(6, 50) == (True, "Even")
    assert threshold_covered(6, 48) == (False, None)
    with pytest.raises(ValueError):
        threshold_covered(5, 11)


def test_check_infeasible_mu_collapse_6_11() -> None:
    res = check_infeasible(build_trace_system(6, 11))
    assert res.infeasible
    assert res.kind == "MuCollapse"
    assert res.ell_star == 2
    assert res.identity == (36, 6)


def test_check_infeasible_inconclusive_small_systems() -> None:
    for d, k in ((3, 2), (4, 2), (3, 4)):
        res = check_infeasible(build_trace_system(d, k))
        assert res.status == "Inconclusive"
        assert not res.infeasible
        assert res.kind is None


def test_check_infeasible_rational_elimination_2_2() -> None:
    # the d=2 row range reaches ell = k, where the self-repeat trace is
    # genuinely nonzero; the linear rows alone are contradictory even though
    # (2,2) digraphs exist, and decide() never consults them at k = 2
    res = check_infeasible(build_trace_system(2, 2))
    assert res.infeasible
    assert res.kind == "RationalElimination"
    assert res.ell_star is None


@given(st.integers(min_value=4, max_value=12), st.integers(min_value=5, max_value=300))
@settings(max_examples=120, deadline=None)
def test_witness_cells_mu_collapse(d: int, k: int) -> None:
    w = prime_witness(d, k)
    if w is None:
        return
    res = check_infeasible(build_trace_system(d, k))
    assert res.infeasible
    assert res.kind == "MuCollapse"
    assert res.ell_star == w
    assert res.identity == (d**w, d)
    assert d**w != d


def test_decide_literature_rows() -> None:
    c = decide(7, 2)
    assert (c.verdict, c.method, c.witness) == ("Exists", "Known_k2", None)
    assert c.assumptions == LITERATURE["k2_exists"]

    c = decide(9, 3)
    assert (c.verdict, c.method) == ("NotExistSelfRepeat", "Literature_k34")

    assert decide(2, 9).method == "Literature_d23"
    c = decide(3, 9)
    assert c.method == "Literature_d23"
    assert any(a.startswith("baskoro") for a in c.assumptions)


def test_decide_prime_witness_rows() -> None:
    c = decide(6, 11)
    assert (c.verdict, c.method, c.witness) == ("NotExistSelfRepeat", "PrimeWitness", 2)
    assert c.checked_i == ()
    assert decide(12, 200).witness == 3
    assert decide(4, 7).witness == 2


def test_decide_conjecture_elimination_rows() -> None:
    c = decide(4, 6)
    assert (c.verdict, c.method, c.witness) == (
        "NotExistSelfRepeat",
        "ConjectureElimination",
        None,
    )
    assert [cell.i for cell in c.checked_i] == [3]
    cell = c.checked_i[0]
    assert cell.observed_degrees == (12,)
    assert (cell.predicted_reducible_a, cell.predicted_reducible_b) == (False, False)
    assert any("cggmm14" in a for a in c.assumptions)

    below = decide(6, 5)
    assert below.method == "ConjectureElimination"
    assert [cell.i for cell in below.checked_i] == [3, 4, 5]


def test_decide_rejects_bad_domain() -> None:
    with pytest.raises(ValueError):
        decide(1, 5)
    with pytest.raises(ValueError):
        decide(4, 1)


def test_checked_cell_match_recomputation() -> None:
    c = CheckedCell(
        i=3, predicted_reducible_a=True, predicted_reducible_b=True,
        observed_degrees=(2, 6), primes_used=(101,),
    )
    assert c.match == "Consistent"
    one_factor = replace(c, observed_degrees=(8,))
    assert one_factor.match == "Inconsistent"
    unresolved = replace(c, observed_degrees=())
    assert unresolved.match == "Unresolved"
    three = replace(c, observed_degrees=(2, 2, 4))
    assert three.match == "Inconsistent"


@pytest.mark.parametrize(
    "i, k",
    [
        (3, 60),  # irreducible by tower sampling
        (5, 18),  # reducible by the peeled tower
        (5, 8),  # reducible by full factorization
        (5, 6),  # irreducible by full factorization
        (6, 13),  # reducible, only reading B fits
        (5, 9),  # irreducible, only reading B fits
    ],
)
def test_checked_cell_match_equals_verdict_match(i: int, k: int) -> None:
    v = conjecture_verdict(i, k)
    assert CheckedCell.from_verdict(v).match == v.match


def test_validate_certificate_accepts_decided_cells() -> None:
    for d, k in ((7, 2), (9, 3), (2, 9), (3, 9), (6, 11), (12, 200), (4, 6), (6, 5)):
        assert validate_certificate(decide(d, k))


def test_validate_certificate_rejects_tampering() -> None:
    witness_cert = decide(6, 11)
    elim_cert = decide(4, 6)

    bad = replace(witness_cert, witness=4)
    with pytest.raises(CertificateError, match="not prime"):
        validate_certificate(bad)

    bad = replace(witness_cert, witness=None)
    with pytest.raises(CertificateError, match="missing witness"):
        validate_certificate(bad)

    bad = replace(witness_cert, witness=13)
    with pytest.raises(CertificateError, match="outside interval"):
        validate_certificate(bad)

    bad = replace(witness_cert, trace_rows=((1, 5, (-1,)),))
    with pytest.raises(CertificateError, match="rows mismatch"):
        validate_certificate(bad)

    bad = replace(elim_cert, assumptions=("someone00: unrelated claim",))
    with pytest.raises(CertificateError, match="conjecture-implication"):
        validate_certificate(bad)

    bad = replace(elim_cert, checked_i=())
    with pytest.raises(CertificateError, match="cover"):
        validate_certificate(bad)

    wrong_pred = replace(
        elim_cert,
        checked_i=(replace(elim_cert.checked_i[0], predicted_reducible_a=True),),
    )
    with pytest.raises(CertificateError, match="stored prediction"):
        validate_certificate(wrong_pred)

    bad = replace(witness_cert, verdict="Impossible")
    with pytest.raises(CertificateError, match="verdict tag"):
        validate_certificate(bad)

    bad = replace(witness_cert, method="PrimeOracle")
    with pytest.raises(CertificateError, match="method tag"):
        validate_certificate(bad)

    bad = replace(elim_cert, assumptions=("cggmm14 but no separator",))
    with pytest.raises(CertificateError, match="citation strings"):
        validate_certificate(bad)


def test_validate_certificate_threshold_branch() -> None:
    # decide finds the witness inside both threshold regions, so the
    # validator knows no threshold method
    base = decide(6, 50)
    assert base.method == "PrimeWitness"
    for method in ("ThresholdEven", "ThresholdOdd"):
        with pytest.raises(CertificateError, match="unknown method tag"):
            validate_certificate(replace(base, method=method, witness=None))


def test_validate_certificate_unknown_requires_no_coverage() -> None:
    elim = decide(4, 6)
    unknown = replace(elim, verdict="Unknown", assumptions=())
    assert validate_certificate(unknown)


@given(st.integers(min_value=2, max_value=12), st.integers(min_value=2, max_value=120))
@settings(max_examples=80, deadline=None)
def test_every_emitted_certificate_validates(d: int, k: int) -> None:
    cert = decide(d, k)
    assert validate_certificate(cert)
    assert cert.verdict in ("Exists", "NotExistSelfRepeat", "Unknown")
