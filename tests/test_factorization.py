from __future__ import annotations

import pytest
import sympy
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from amdigraph import _gf, factorization
from amdigraph.algebra import IntPoly, euler_phi, poly_mul, prime_range_from
from amdigraph.cyclotomic import build_F, cyclotomic
from amdigraph.factorization import (
    NoUsablePrime,
    NotSquarefree,
    certify_irreducible,
    conjecture_verdict,
    factor_over_Q,
    score_conjecture,
    split_index,
)
from oracles import primes_in


def _sympy_degrees(poly: IntPoly) -> list[int]:
    x = sympy.Symbol("x")
    expr = sum(c * x**j for j, c in enumerate(poly.coeffs))
    _, facs = sympy.factor_list(sympy.Poly(expr, x))
    out: list[int] = []
    for base, mult in facs:
        out.extend([sympy.Poly(base, x).degree()] * mult)
    return sorted(out)


def test_degree_set_closure_shape() -> None:
    F = build_F(3, 4)  # factors with rational degrees 2 and 6
    ds = certify_irreducible(F).degree_set
    assert 0 in ds and F.degree in ds
    assert {0, 2, 6, 8} <= ds


def _reference_degree_set(poly: IntPoly, primes: list[int]) -> frozenset[int] | None:
    """Intersect the subset-sum closures at every usable prime, with no early
    exit and no cap, from sympy's factorizations mod p; None if no prime is
    usable."""
    x = sympy.Symbol("x")
    expr = sum(c * x**j for j, c in enumerate(poly.coeffs))
    out: frozenset[int] | None = None
    for p in primes:
        image = sympy.Poly(expr, x, modulus=p)
        factors = image.factor_list()[1]
        # squarefree from the multiplicities: sympy's is_sqf is wrong mod 2
        if image.degree() != poly.degree or any(mult > 1 for _, mult in factors):
            continue
        closure = {0}
        for base, _ in factors:
            closure |= {c + base.degree() for c in closure}
        out = frozenset(closure) if out is None else out & closure
    return out


@given(
    st.lists(st.integers(min_value=-6, max_value=6), min_size=2, max_size=6).filter(
        lambda cs: cs[-1] != 0
    ),
    st.booleans(),
    st.integers(min_value=2, max_value=150),
    st.integers(min_value=0, max_value=60),
)
@example([1, 1, 1], False, 101, 100)  # x^2 + x + 1: irreducible mod 103, exits there
@example([-1, 1], True, 2, 60)  # (x - 1)^2: no prime is usable
@example([1, 1, 1], False, 24, 5)  # an empty window
@settings(max_examples=60, deadline=None)
def test_degree_set_matches_every_prime_reference(
    coeffs: list[int], square: bool, lo: int, width: int
) -> None:
    poly = IntPoly(tuple(coeffs))
    if square:
        poly = poly_mul(poly, poly)
    primes = primes_in(lo, lo + width)
    # fewer primes than the budget: the engine reads every one of them
    assert len(primes) < factorization._PRIME_BUDGET
    expected = _reference_degree_set(poly, primes)
    mask, counts = factorization._intersect(poly.degree, factorization._reductions(poly, primes))
    if expected is None:
        assert counts == {}
        assert mask == (1 << (poly.degree + 1)) - 1
    else:
        assert factorization._mask_to_set(mask) == expected


def test_certify_irreducible_known_cells() -> None:
    out = certify_irreducible(build_F(2, 5))
    assert out.is_irreducible
    assert out.degree_set == frozenset({0, 5})
    big = certify_irreducible(build_F(7, 10))
    assert big.is_irreducible
    assert big.degree_set == frozenset({0, 60})


def test_certify_irreducible_reducible_input_stays_unknown() -> None:
    out = certify_irreducible(IntPoly((-1, 0, 1)))  # x^2 - 1
    assert out.status == "Unknown"
    assert not out.is_irreducible
    assert out.degree_set == frozenset({0, 1, 2})


def test_certify_tower_stops_at_scan_cap(monkeypatch: pytest.MonkeyPatch) -> None:
    # Phi_12 does not divide F_{12,26}, so no peeled sample is ever usable;
    # the scan must stop after 64 * budget primes p = 1 (mod 12)
    cap = 64 * factorization._PRIME_BUDGET
    scanned: list[int] = []
    roots = factorization._primitive_ith_roots

    def spy(i, p):
        scanned.append(p)
        if len(scanned) > cap:
            raise RuntimeError("tower scan did not stop")
        return roots(i, p)

    monkeypatch.setattr(factorization, "_primitive_ith_roots", spy)
    assert factorization._certify_tower(12, 26, peel=True) == (False, ())
    assert len(scanned) == cap
    assert all((p - 1) % 12 == 0 for p in scanned)


def test_certify_irreducible_budget_is_not_read_from_the_environment(monkeypatch: pytest.MonkeyPatch) -> None:
    # the budget is a constant: an AMD_PRIME_BUDGET left in the environment
    # changes neither the primes spent nor the verdict
    monkeypatch.setenv("AMD_PRIME_BUDGET", "4")
    out = certify_irreducible(build_F(5, 8))
    assert out.status == "Unknown"
    assert out.primes_used == _FIRST_24


def test_certify_irreducible_factors_the_primitive_part() -> None:
    # 2(x^4 + 1) splits mod every prime, so only the fallback settles it,
    # and irreducibility over Q ignores the content 2
    out = certify_irreducible(IntPoly((2, 0, 0, 0, 2)))
    assert out.is_irreducible
    assert out.degree_set == frozenset({0, 2, 4})


def test_certify_irreducible_linear_is_trivial() -> None:
    out = certify_irreducible(IntPoly((4, 1)))
    assert out.is_irreducible
    assert out.primes_used == ()


def test_certify_irreducible_completes_inseparable_towers() -> None:
    # the unit group mod 8 is not cyclic, so every prime leaves the proper
    # subset sum 2*ord_8(p) in the closure; the small-degree fallback still
    # settles the cell
    out = certify_irreducible(build_F(8, 2))
    assert out.is_irreducible
    assert len(out.primes_used) == 24
    assert out.degree_set == frozenset({0, 4, 8})


def test_certify_irreducible_terminates_on_repeated_factors() -> None:
    sq = poly_mul(IntPoly((-1, 1)), IntPoly((-1, 1)))
    out = certify_irreducible(sq)
    assert out.status == "Unknown"
    assert out.primes_used == ()


def test_factor_over_Q_quartic_minus_one() -> None:
    facs = factor_over_Q(IntPoly((-1, 0, 0, 0, 1)))
    assert facs is not None
    assert {p.coeffs for p in facs} == {(-1, 1), (1, 1), (1, 0, 1)}


def test_factor_over_Q_rebuilds_product_exactly() -> None:
    for i, k in ((4, 2), (3, 4), (5, 8)):
        F = build_F(i, k)
        facs = factor_over_Q(F)
        assert facs is not None
        assert len(facs) == 2
        prod = IntPoly.one()
        for g in facs:
            prod = poly_mul(prod, g)
        assert prod == F


def test_factor_over_Q_degree_cap_returns_none() -> None:
    over_cap = IntPoly.monomial(factorization._DEGREE_CAP + 1) - IntPoly.one()
    assert factor_over_Q(over_cap) is None


def test_factor_over_Q_without_a_usable_prime_raises(monkeypatch: pytest.MonkeyPatch) -> None:
    # squarefree by the exact gcd, but no reduction is usable: the cached
    # scan finds no image and _factor_over_Q gives up
    monkeypatch.setattr(factorization, "_reductions", lambda poly, primes: ((p, []) for p in primes))
    with pytest.raises(NoUsablePrime):
        factorization._factor_over_Q(IntPoly((1, 0, 1)))


def test_factor_over_Q_rejects_repeated_factors() -> None:
    sq = poly_mul(poly_mul(IntPoly((-1, 1)), IntPoly((-1, 1))), IntPoly((2, 1)))
    with pytest.raises(NotSquarefree):
        factor_over_Q(sq)


def test_factor_over_Q_gates_squarefreeness_above_the_degree_cap(
    monkeypatch: pytest.MonkeyPatch,
) -> None:
    monkeypatch.setattr(factorization, "_DEGREE_CAP", 2)
    sq = poly_mul(poly_mul(IntPoly((-1, 1)), IntPoly((-1, 1))), IntPoly((2, 1)))
    with pytest.raises(NotSquarefree):
        factor_over_Q(sq)
    assert factor_over_Q(IntPoly((-1, 0, 0, 1))) is None  # x^3 - 1, squarefree


def test_certify_irreducible_stops_at_the_squarefree_gate(monkeypatch: pytest.MonkeyPatch) -> None:
    # (x - 1)^2 * F_{5,8}: no reduction is squarefree, and the gate's 41
    # primes end the scan instead of the 64 * 24 of the scan cap
    x_minus_1 = IntPoly((-1, 1))
    poly = poly_mul(poly_mul(x_minus_1, x_minus_1), build_F(5, 8))
    calls = []

    def spy(f, p, _original=_gf.gf_is_squarefree):
        calls.append(p)
        return _original(f, p)

    monkeypatch.setattr(_gf, "gf_is_squarefree", spy)
    out = certify_irreducible(poly)
    assert (out.status, out.primes_used) == ("Unknown", ())
    assert out.degree_set == frozenset(range(poly.degree + 1))
    assert 0 < len(calls) <= 41


def test_factor_over_Q_agrees_with_sympy() -> None:
    for i in range(3, 8):
        for k in range(2, 6):
            F = build_F(i, k)
            facs = factor_over_Q(F)
            assert facs is not None
            assert sorted(g.degree for g in facs) == _sympy_degrees(F)


@given(
    st.lists(st.integers(min_value=-6, max_value=6), min_size=2, max_size=7).map(
        lambda cs: IntPoly(tuple(cs[:-1]) + (1,))
    )
)
@example(IntPoly((1, 0, 1, 1, 1, 1, 1)))  # (x^2+1)(x^4+x^3+1); mod 101 degrees 1, 1, 4
@settings(max_examples=40, deadline=None)
def test_factor_over_Q_roundtrip_on_monic_squarefree(p: IntPoly) -> None:
    assume(p.degree >= 1)
    try:
        facs = factor_over_Q(p)
    except NotSquarefree:
        assume(False)
        return
    assert facs is not None
    prod = IntPoly.one()
    for g in facs:
        prod = poly_mul(prod, g)
    assert prod == p
    assert sorted(g.degree for g in facs) == _sympy_degrees(p)


def test_split_index_cases() -> None:
    assert split_index(5) == 10  # odd
    assert split_index(6) == 3  # 2 mod 4
    assert split_index(8) == 8  # 0 mod 4
    assert split_index(12) == 12


_C, _I, _U = "Consistent", "Inconsistent", "Unresolved"


@pytest.mark.parametrize(
    "predicted, degrees, by_reading, match",
    [
        # unresolved: no degrees, nothing to score
        ((False, False), (), (_U, _U), _U),
        ((False, True), (), (_U, _U), _U),
        ((True, False), (), (_U, _U), _U),
        ((True, True), (), (_U, _U), _U),
        # irreducible: a reading fits when it predicts irreducible
        ((False, False), (24,), (_C, _C), _C),
        ((False, True), (24,), (_C, _I), _C),
        ((True, False), (24,), (_I, _C), _C),
        ((True, True), (24,), (_I, _I), _I),
        # two factors: a reading fits when it predicts reducible
        ((False, False), (4, 28), (_I, _I), _I),
        ((False, True), (4, 28), (_I, _C), _C),
        ((True, False), (4, 28), (_C, _I), _C),
        ((True, True), (4, 28), (_C, _C), _C),
        # three factors break the two-factor shape under either reading
        ((False, False), (2, 2, 4), (_I, _I), _I),
        ((False, True), (2, 2, 4), (_I, _I), _I),
        ((True, False), (2, 2, 4), (_I, _I), _I),
        ((True, True), (2, 2, 4), (_I, _I), _I),
    ],
)
def test_score_conjecture_truth_table(predicted, degrees, by_reading, match) -> None:
    got = score_conjecture(*predicted, degrees)
    assert got == ((("A", by_reading[0]), ("B", by_reading[1])), match)


def test_conjecture_verdict_even_k_cells() -> None:
    v = conjecture_verdict(5, 8)
    assert v.match == "Consistent"
    assert v.observed.verdict == "Reducible"
    assert v.observed.factor_degrees == (4, 28)
    assert v.predicted_reducible_reading_A and v.predicted_reducible_reading_B

    w = conjecture_verdict(5, 6)
    assert w.match == "Consistent"
    assert w.observed.verdict == "Irreducible"
    assert w.observed.factor_degrees == (24,)

    u = conjecture_verdict(14, 12)
    assert u.observed.factor_degrees == (6, 66)
    assert u.match == "Consistent"


def test_conjecture_verdict_odd_k_reading_split() -> None:
    # k odd: the two stored readings can disagree; one must fit
    v = conjecture_verdict(6, 13)
    assert (v.predicted_reducible_reading_A, v.predicted_reducible_reading_B) == (False, True)
    assert v.observed.factor_degrees == (2, 24)
    assert v.match_by_reading == (("A", "Inconsistent"), ("B", "Consistent"))
    assert v.match == "Consistent"

    w = conjecture_verdict(5, 9)
    assert (w.predicted_reducible_reading_A, w.predicted_reducible_reading_B) == (True, False)
    assert w.observed.verdict == "Irreducible"
    assert w.match_by_reading == (("A", "Inconsistent"), ("B", "Consistent"))
    assert w.match == "Consistent"


def test_conjecture_verdict_large_degree_routes() -> None:
    # above the full-factorization cutoff the verdict comes from residue
    # tower sampling: peeled split for reducible, degree sets for irreducible
    ir = conjecture_verdict(5, 14)
    assert ir.observed.verdict == "Irreducible"
    assert ir.observed.certificate_kind == "DegreeSetIntersection"
    assert ir.observed.factor_degrees == (56,)

    red = conjecture_verdict(5, 18)
    assert red.observed.verdict == "Reducible"
    assert red.observed.certificate_kind == "FullFactorization"
    assert red.observed.factor_degrees == (4, 68)
    prod = poly_mul(*red.observed.factors)
    assert prod == build_F(5, 18)
    assert red.observed.factors[0] == cyclotomic(split_index(5))


def test_conjecture_verdict_rejects_domain_errors() -> None:
    with pytest.raises(ValueError):
        conjecture_verdict(2, 5)
    with pytest.raises(ValueError):
        conjecture_verdict(5, 1)


def test_reducible_factor_degrees_follow_split_index() -> None:
    for i, k in ((3, 4), (4, 2), (5, 8), (6, 13), (14, 12)):
        v = conjecture_verdict(i, k)
        assert v.observed.verdict == "Reducible"
        m = split_index(i)
        total = euler_phi(i) * k
        assert v.observed.factor_degrees == tuple(
            sorted((euler_phi(m), total - euler_phi(m)))
        )


# Outputs pinned at the commit before the F_p kernel moved to precomputed
# modular arithmetic: a kernel change must leave every verdict, degree list
# and prime list as it was.
_FIRST_24 = (
    101, 103, 107, 109, 113, 127, 131, 137, 139, 149, 151, 157,
    163, 167, 173, 179, 181, 191, 193, 197, 199, 211, 223, 227,
)


@pytest.mark.parametrize(
    "i, k, kind, degrees, primes",
    [
        # degree <= 48, full factoring: reducible, then irreducible
        (5, 8, "FullFactorization", (4, 28), _FIRST_24),
        (6, 13, "FullFactorization", (2, 24), _FIRST_24),
        (5, 6, "FullFactorization", (24,), _FIRST_24[:8]),
        (3, 20, "FullFactorization", (40,), (101,)),
        # above 48 with Phi_m dividing: the peeled tower
        (14, 12, "FullFactorization", (6, 66), (113, 127)),
        (6, 25, "FullFactorization", (2, 48), (103, 109)),
        # above 48, no Phi_m: the tower alone
        (5, 14, "DegreeSetIntersection", (56,), (101, 131)),
        (7, 9, "DegreeSetIntersection", (54,), (113, 127)),
        # recorded at the commit before the tower checked its target after
        # every root sample: each reaches it before the last root of its
        # last prime, peeled and not
        (5, 28, "FullFactorization", (4, 108), (101, 131, 151)),
        (7, 12, "FullFactorization", (6, 66), (113, 127)),
        (8, 17, "DegreeSetIntersection", (68,), (113, 137)),
        (7, 10, "DegreeSetIntersection", (60,), (113,)),
    ],
)
def test_conjecture_verdict_pinned_outputs(i, k, kind, degrees, primes) -> None:
    observed = conjecture_verdict(i, k).observed
    assert observed.certificate_kind == kind
    assert observed.factor_degrees == degrees
    assert observed.primes_used == primes


@pytest.mark.parametrize(
    "i, k, degree_set",
    [(5, 8, {0, 4, 28, 32}), (4, 10, {0, 2, 18, 20})],
)
def test_certify_irreducible_fallback_on_reducible_pinned(i, k, degree_set) -> None:
    # reducible and of degree <= 48: the budget runs out, the fallback
    # factors outright and the verdict stays Unknown on the scanned primes
    out = certify_irreducible(build_F(i, k))
    assert out.status == "Unknown"
    assert out.primes_used == _FIRST_24
    assert out.degree_set == frozenset(degree_set)


def _record_gf_factor(monkeypatch: pytest.MonkeyPatch) -> list[int]:
    """Spy on _gf.gf_factor: the returned list collects each call's prime."""
    primes: list[int] = []
    gf_factor = _gf.gf_factor

    def spy(f, p):
        primes.append(p)
        return gf_factor(f, p)

    monkeypatch.setattr(_gf, "gf_factor", spy)
    return primes


def _five_prime_hensel_choice(f: IntPoly) -> int:
    """The Hensel-prime loop the scan's factor counts replaced: factor f mod
    each of the first five usable primes, keep the first with fewest factors."""
    best: tuple[int, int] | None = None
    count = 0
    for p in prime_range_from(101):
        img = _gf.gf_from_coeffs(f.coeffs, p)
        if f.lead % p == 0 or not _gf.gf_is_squarefree(img, p):
            continue
        count += 1
        n = len(_gf.gf_factor(img, p))
        if best is None or n < best[1]:
            best = (p, n)
        if count >= 5 or n == 1:
            break
    assert best is not None
    return best[0]


def test_factor_over_Q_factors_mod_p_once(monkeypatch: pytest.MonkeyPatch) -> None:
    # every reducible criterion-6 cell of degree <= 24: one gf_factor call,
    # at the prime the five-prime loop picks, which the result rests on
    reducible = 0
    for i in range(2, 200):
        for k in range(2, 49):
            if euler_phi(i) * k > 24:
                break
            F = build_F(i, k)
            expected = _five_prime_hensel_choice(F)
            with monkeypatch.context() as m:
                factored = _record_gf_factor(m)
                factors, primes = factorization._factor_over_Q(F)
            assert factors is not None
            if len(factors) > 1:
                reducible += 1
                assert factored == [expected]
                assert expected in primes
    assert reducible == 10


def _clear_caches() -> None:
    factorization._scan.cache_clear()
    factorization._factor_over_Q.cache_clear()


def _count_fp_calls(monkeypatch: pytest.MonkeyPatch) -> dict[str, int]:
    """Spy on the mod-p DDF and full factorization: the returned dict counts
    the calls of each."""
    calls = {"gf_distinct_degree_list": 0, "gf_factor": 0}
    for name in calls:

        def spy(*args, _name=name, _original=getattr(_gf, name)):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(_gf, name, spy)
    return calls


def test_certify_irreducible_after_factor_over_Q_reuses_the_analysis(
    monkeypatch: pytest.MonkeyPatch,
) -> None:
    F = build_F(5, 8)  # reducible, degree 32: the certifier falls back to factoring
    cold = certify_irreducible(F)
    _clear_caches()
    factor_over_Q(F)
    calls = _count_fp_calls(monkeypatch)
    assert certify_irreducible(F) == cold
    assert calls == {"gf_distinct_degree_list": 0, "gf_factor": 0}


def test_factor_over_Q_after_certify_irreducible_reuses_the_analysis(
    monkeypatch: pytest.MonkeyPatch,
) -> None:
    F = build_F(5, 8)
    cold = factor_over_Q(F)
    _clear_caches()
    certify_irreducible(F)
    calls = _count_fp_calls(monkeypatch)
    assert factor_over_Q(F) == cold
    assert calls == {"gf_distinct_degree_list": 0, "gf_factor": 0}


def test_certify_irreducible_of_negation_shares_the_entry(monkeypatch: pytest.MonkeyPatch) -> None:
    F = build_F(5, 8)
    out = certify_irreducible(F)
    calls = _count_fp_calls(monkeypatch)
    assert certify_irreducible(-F) == out
    assert calls == {"gf_distinct_degree_list": 0, "gf_factor": 0}


def test_factor_over_Q_returns_a_fresh_list() -> None:
    F = build_F(5, 8)
    first = factor_over_Q(F)
    assert first is not None
    expected = list(first)
    first[0] = IntPoly.one()
    first.append(F)
    assert factor_over_Q(F) == expected
    # the sign of -F goes to a copy, not to the shared entry
    negated = factor_over_Q(-F)
    assert negated == [-expected[0]] + expected[1:]
    assert factor_over_Q(F) == expected
