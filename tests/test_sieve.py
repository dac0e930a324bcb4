from __future__ import annotations

import math
from dataclasses import fields, replace
from itertools import takewhile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from amdigraph.algebra import divisors, is_prime
from amdigraph.cyclotomic import ramanujan_sum
from amdigraph import sieve
from amdigraph.sieve import (
    LITERATURE,
    Certificate,
    CertificateError,
    CheckedCell,
    build_trace_system,
    check_infeasible,
    decide,
    prime_witness,
    settled,
    validate_certificate,
)
from oracles import mobius, primes_in, ramanujan_divisor_sum, threshold_covered


def _table(sys: sieve.TraceSystem) -> tuple[tuple[int, ...], ...]:
    # row ell-1 holds S_ell(Phi_n) per n, as the system evaluates it
    return tuple(sys.row(ell) for ell in range(1, sys.ell_max + 1))


def test_trace_system_6_11() -> None:
    sys = build_trace_system(6, 11)
    assert sys.ell_max == 2
    assert sys.divisors == (11,)
    assert _table(sys) == ((-1,), (-1,))


def test_trace_system_4_9() -> None:
    sys = build_trace_system(4, 9)
    assert sys.ell_max == 3
    assert sys.divisors == (3, 9)
    assert _table(sys) == ((-1, 0), (-1, 0), (2, -3))


def _per_ell_table(k: int, ell_max: int) -> tuple[tuple[int, ...], ...]:
    # the definition: one row per ell, over the divisors of k above 1, each
    # entry by the divisor sum rather than the closed form the system uses
    divs = [n for n in divisors(k) if n > 1]
    return tuple(
        tuple(ramanujan_divisor_sum(ell, n) for n in divs) for ell in range(1, ell_max + 1)
    )


def test_trace_table_matches_per_ell_definition() -> None:
    for k in range(2, 301):
        table = _table(build_trace_system(2, k))
        assert table == _per_ell_table(k, k)
        for d in range(3, 13):
            assert _table(build_trace_system(d, k)) == table[: k // (d - 1)]


@pytest.mark.parametrize("k", [5040, 20000])
def test_trace_table_matches_per_ell_definition_large_k(k: int) -> None:
    sys = build_trace_system(12, k)
    assert _table(sys) == _per_ell_table(k, k // 11)


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
    assert check_infeasible(build_trace_system(6, 11), 2) is True


def test_check_infeasible_refuses_ell_outside_the_system() -> None:
    # ell_max = 2 at (6, 11); rows 3 and 13 would equal row 1, but the
    # system does not contain them
    sys = build_trace_system(6, 11)
    assert sys.ell_max == 2
    assert check_infeasible(sys, 2) is True
    for ell in (0, 1, 3, 13):
        assert check_infeasible(sys, ell) is False


def test_check_infeasible_needs_equal_rows_4_9() -> None:
    # 3 divides 9: row 3 is (2, -3), row 1 is (-1, 0), nothing collapses
    sys = build_trace_system(4, 9)
    assert check_infeasible(sys, 3) is False
    assert check_infeasible(sys, 2) is True


@given(st.integers(min_value=4, max_value=12), st.integers(min_value=5, max_value=300))
@settings(max_examples=120, deadline=None)
def test_witness_cells_mu_collapse(d: int, k: int) -> None:
    w = prime_witness(d, k)
    if w is None:
        return
    sys = build_trace_system(d, k)
    assert check_infeasible(sys, w)
    assert sys.row(1) == sys.row(w)
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


def test_validate_certificate_accepts_decided_cells() -> None:
    for d, k in ((7, 2), (9, 3), (2, 9), (3, 9), (6, 11), (12, 200), (4, 6), (6, 5)):
        assert validate_certificate(decide(d, k))


def test_validate_certificate_rejects_tampering(monkeypatch: pytest.MonkeyPatch) -> None:
    witness_cert = decide(6, 11)
    elim_cert = decide(4, 6)

    bad = replace(decide(4, 25), witness=4)  # inside the interval (ell <= 8), not prime
    with pytest.raises(CertificateError, match="witness differs"):
        validate_certificate(bad)

    bad = replace(witness_cert, witness=4)  # outside the interval
    with pytest.raises(CertificateError, match="witness differs"):
        validate_certificate(bad)

    bad = replace(witness_cert, witness=None)
    with pytest.raises(CertificateError, match="witness differs"):
        validate_certificate(bad)

    bad = replace(witness_cert, witness=13)
    with pytest.raises(CertificateError, match="witness differs"):
        validate_certificate(bad)

    bad = replace(decide(4, 9), witness=3)  # shares a factor with k
    with pytest.raises(CertificateError, match="witness differs"):
        validate_certificate(bad)

    bad = replace(decide(7, 2), d=1)
    with pytest.raises(CertificateError, match="outside d >= 2"):
        validate_certificate(bad)

    bad = replace(elim_cert, assumptions=("someone00: unrelated claim",))
    with pytest.raises(CertificateError, match="assumptions differs from the decided certificate"):
        validate_certificate(bad)

    bad = replace(elim_cert, checked_i=())
    with pytest.raises(CertificateError, match="checked_i differs from the decided certificate"):
        validate_certificate(bad)

    wrong_pred = replace(
        elim_cert,
        checked_i=(replace(elim_cert.checked_i[0], predicted_reducible_a=True),),
    )
    with pytest.raises(CertificateError, match="checked_i differs from the decided certificate"):
        validate_certificate(wrong_pred)

    bad = replace(witness_cert, verdict="Impossible")
    with pytest.raises(CertificateError, match="verdict differs"):
        validate_certificate(bad)

    bad = replace(witness_cert, method="PrimeOracle")
    with pytest.raises(CertificateError, match="method differs"):
        validate_certificate(bad)

    bad = replace(elim_cert, assumptions=("cggmm14 but no separator",))
    with pytest.raises(CertificateError, match="assumptions differs from the decided certificate"):
        validate_certificate(bad)

    # the validator consults the trace rows: unequal rows 1 and w fail it
    # (over the divisor n = 2, row 1 is mu(2) = -1 and row 2 is 1)
    uneven = replace(build_trace_system(6, 11), divisors=(2,))
    assert (uneven.row(1), uneven.row(2)) == ((-1,), (1,))
    monkeypatch.setattr(sieve, "build_trace_system", lambda d, k: uneven)
    with pytest.raises(CertificateError, match="not infeasible"):
        validate_certificate(witness_cert)


def test_validate_certificate_bounds_the_witness_before_testing_it() -> None:
    # 6^(10^30) would never finish; the comparison with the decided witness
    # rejects the witness before the trace check sees it
    bad = replace(decide(6, 11), witness=10**30 + 57)
    with pytest.raises(CertificateError, match="witness differs"):
        validate_certificate(bad)


def test_validate_certificate_threshold_branch() -> None:
    # decide finds the witness inside both threshold regions, so the
    # validator knows no threshold method
    base = decide(6, 50)
    assert base.method == "PrimeWitness"
    for method in ("ThresholdEven", "ThresholdOdd"):
        with pytest.raises(CertificateError, match="method differs"):
            validate_certificate(replace(base, method=method, witness=None))


def test_validate_certificate_unknown_requires_no_coverage() -> None:
    # decide settles (4,6) by conjecture elimination, so an Unknown label on
    # it is not the decided certificate
    elim = decide(4, 6)
    unknown = replace(elim, verdict="Unknown", assumptions=())
    with pytest.raises(CertificateError, match="verdict differs"):
        validate_certificate(unknown)


@given(st.integers(min_value=2, max_value=12), st.integers(min_value=2, max_value=120))
@settings(max_examples=80, deadline=None)
def test_every_emitted_certificate_validates(d: int, k: int) -> None:
    cert = decide(d, k)
    assert validate_certificate(cert)
    assert cert.verdict in ("Exists", "NotExistSelfRepeat", "Unknown")


_VERDICTS = ("Exists", "NotExistSelfRepeat", "Unknown")
_METHODS = (
    "Known_k2", "Literature_k34", "Literature_d23", "PrimeWitness", "ConjectureElimination",
)


def _one_field_changes(cert: Certificate) -> list[Certificate]:
    w = cert.witness
    witnesses = {None, 1, -1} if w is None else {w + 1, w - 1, None}
    extra = CheckedCell(
        i=3, predicted_reducible_a=False, predicted_reducible_b=False,
        observed_degrees=(2 * cert.k,), primes_used=(101,),
    )
    return (
        [replace(cert, verdict=v) for v in _VERDICTS if v != cert.verdict]
        + [replace(cert, method=m) for m in _METHODS if m != cert.method]
        + [replace(cert, witness=x) for x in witnesses - {w}]
        + [
            replace(cert, assumptions=a)
            for a in {(), *LITERATURE.values()} - {cert.assumptions}
        ]
        + [replace(cert, checked_i=cert.checked_i + (extra,))]
    )


def _one_checked_cell_changes(cert: Certificate) -> list[Certificate]:
    # the stored observation of the first checked cell: its degrees and primes
    cell = cert.checked_i[0]
    n = sum(cell.observed_degrees)
    forged = [
        replace(cell, observed_degrees=(1, n - 1) if len(cell.observed_degrees) == 1 else (n,)),
        replace(cell, primes_used=(2,)),
        replace(cell, primes_used=cell.primes_used[:-1]),
    ]
    return [replace(cert, checked_i=(c, *cert.checked_i[1:])) for c in forged]


def test_validate_certificate_rejects_every_one_field_change_of_a_settled_cell() -> None:
    settled_cells = conjecture_cells = 0
    for d in range(2, 13):
        for k in range(2, 41):
            cert = decide(d, k)
            changes = _one_field_changes(cert)
            if cert.method == "ConjectureElimination":
                conjecture_cells += 1
                changes += _one_checked_cell_changes(cert)
            else:
                settled_cells += 1
            for bad in changes:
                with pytest.raises(CertificateError, match="differs from the decided"):
                    validate_certificate(bad)
    assert settled_cells == 295
    assert conjecture_cells == 134


def test_validate_certificate_names_the_one_field_that_differs() -> None:
    # the validator decides the cell from (d, k), so those two fields set
    # what every other field is compared with
    witness, elim = decide(6, 11), decide(4, 6)
    changed = {
        "verdict": replace(witness, verdict="Exists"),
        "method": replace(witness, method="Literature_d23"),
        "witness": replace(witness, witness=3),
        "checked_i": replace(elim, checked_i=elim.checked_i[:-1]),
        "assumptions": replace(elim, assumptions=()),
    }
    assert set(changed) == {f.name for f in fields(Certificate)} - {"d", "k"}
    for name, bad in changed.items():
        message = rf"^\({bad.d},{bad.k}\) {bad.method}: {name} differs from the decided certificate$"
        with pytest.raises(CertificateError, match=message):
            validate_certificate(bad)


def test_validate_certificate_pins_the_verdict_and_the_citations() -> None:
    # a false Exists on a witnessed cell, and a literature cell with no citation
    with pytest.raises(CertificateError, match="verdict differs"):
        validate_certificate(replace(decide(6, 11), verdict="Exists"))
    with pytest.raises(CertificateError, match="assumptions differs"):
        validate_certificate(replace(decide(7, 3), assumptions=()))


def test_validate_certificate_conjecture_cell_fields() -> None:
    elim = decide(4, 6)
    with pytest.raises(CertificateError, match="witness differs from the decided certificate"):
        validate_certificate(replace(elim, witness=2))
    with pytest.raises(CertificateError, match="verdict differs from the decided certificate"):
        validate_certificate(replace(elim, verdict="Unknown"))
    with pytest.raises(CertificateError, match="method differs from the decided certificate"):
        validate_certificate(replace(elim, method="PrimeWitness", witness=2))


@pytest.mark.parametrize(
    "forge",
    [
        {"observed_degrees": (1, 9)},  # F_{3,5} is irreducible of degree 10
        {"primes_used": (2,)},
    ],
    ids=["degrees", "primes"],
)
def test_validate_certificate_rejects_forged_observations(forge: dict) -> None:
    # the checked cells are decided again, not trusted: a forged F_{3,5}
    # observation in decide(6, 5) fails, whatever its scoring would say
    cert = decide(6, 5)
    assert cert.checked_i[0].i == 3
    assert cert.checked_i[0].observed_degrees == (10,)
    forged = replace(cert, checked_i=(replace(cert.checked_i[0], **forge), *cert.checked_i[1:]))
    with pytest.raises(CertificateError, match="checked_i differs"):
        validate_certificate(forged)


def test_validate_certificate_refuses_an_unsettled_cell_above_the_cap(
    monkeypatch: pytest.MonkeyPatch,
) -> None:
    # no rule settles (10^7, 5) and d is above 12: rejected before any
    # factoring, in time and memory independent of d
    def refuse(i: int, k: int):
        raise AssertionError("the validator started factoring")

    monkeypatch.setattr(sieve, "conjecture_verdict", refuse)
    forged = Certificate(
        d=10**7, k=5, verdict="NotExistSelfRepeat", method="ConjectureElimination",
        witness=None, checked_i=(), assumptions=LITERATURE["conjecture"],
    )
    with pytest.raises(CertificateError, match="d is above 12"):
        validate_certificate(forged)


def test_prime_witness_is_the_least_coprime_prime() -> None:
    # the definition by a prime sieve, which the package no longer needs
    primes = primes_in(2, 5001)
    for d in range(2, 13):
        for k in range(2, 5001):
            inside = takewhile(lambda p: p <= k // (d - 1), primes)
            old = next((p for p in inside if math.gcd(p, k) == 1), None)
            assert prime_witness(d, k) == old, (d, k)


def test_validate_certificate_at_huge_k_evaluates_rows_1_and_w_only(
    monkeypatch: pytest.MonkeyPatch,
) -> None:
    # 10^12 + 1 = 73 * 137 * 99990001: seven divisors above 1, so row w takes
    # 7 Ramanujan sums, whatever ell_max is, and row 1, the Moebius row built
    # from k's prime exponents, takes none
    k = 10**12 + 1
    cert = decide(6, k)
    assert (cert.method, cert.witness) == ("PrimeWitness", 2)
    calls = []

    def counted(ell: int, n: int) -> int:
        calls.append((ell, n))
        return ramanujan_sum(ell, n)

    monkeypatch.setattr(sieve, "ramanujan_sum", counted)
    assert validate_certificate(cert)
    sys = build_trace_system(6, k)
    assert calls == [(2, n) for n in sys.divisors]
    assert sys.ell_max == k // 5
    assert len(sys.divisors) == 7
    assert check_infeasible(sys, 2)


def test_witness_check_fails_when_ramanujan_sums_are_wrong(
    monkeypatch: pytest.MonkeyPatch,
) -> None:
    # right at ell = 1 and 0 above: row w no longer equals row 1, so the
    # witness check itself, not only the field comparison, can fail
    monkeypatch.setattr(sieve, "ramanujan_sum", lambda ell, n: ramanujan_sum(ell, n) if ell == 1 else 0)
    with pytest.raises(CertificateError, match="not infeasible"):
        validate_certificate(decide(6, 11))


def test_trace_system_mobius_row_is_mu_of_each_divisor() -> None:
    for k in range(2, 301):
        sys = build_trace_system(2, k)
        assert sys.divisors == tuple(divisors(k)[1:])
        assert sys.mobius == tuple(mobius(n) for n in sys.divisors)


def _witness_certificates() -> list[Certificate]:
    # every PrimeWitness cell of d = 4..12, k = 5..300, from the settled
    # rules alone, so no cell is factored
    cells = (settled(d, k) for d in range(4, 13) for k in range(5, 301))
    certs = [c for c in cells if c is not None and c.method == "PrimeWitness"]
    assert len(certs) == 2521
    return certs


def test_every_witness_certificate_validates() -> None:
    assert all(validate_certificate(c) for c in _witness_certificates())


def _rejects_every_witness() -> None:
    for cert in _witness_certificates():
        with pytest.raises(CertificateError, match="not infeasible"):
            validate_certificate(cert)


def test_witness_check_fails_when_every_ramanujan_sum_is_one(
    monkeypatch: pytest.MonkeyPatch,
) -> None:
    # a sum that depends only on gcd(ell, n) makes rows 1 and w agree by
    # construction; the Moebius row does not come from the sums, so it differs
    monkeypatch.setattr(sieve, "ramanujan_sum", lambda ell, n: 1)
    _rejects_every_witness()


def test_witness_check_fails_when_the_mobius_row_is_ones(
    monkeypatch: pytest.MonkeyPatch,
) -> None:
    honest = sieve.build_trace_system

    def ones(d: int, k: int) -> sieve.TraceSystem:
        sys = honest(d, k)
        return replace(sys, mobius=(1,) * len(sys.divisors))

    monkeypatch.setattr(sieve, "build_trace_system", ones)
    _rejects_every_witness()
