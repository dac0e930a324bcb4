from __future__ import annotations

import random
from collections import defaultdict
from itertools import islice

import pytest
import sympy
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from amdigraph import _gf, factorization
from amdigraph.algebra import IntPoly, NotDivisible, euler_phi, poly_mul, prime_range_from
from amdigraph.cli import _conjecture_cell
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
from amdigraph.sieve import decide
import crosscheck
from crosscheck import gcd_says_squarefree
from oracles import F_mod_cyclotomic, divmod_mod_over_Z, primes_in, tower_cells


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


def _parts(n: int, cuts: set[int]) -> list[int]:
    # the composition of n cut at the points of cuts inside (0, n)
    ends = [0, *sorted(c for c in cuts if 0 < c < n), n]
    return [b - a for a, b in zip(ends, ends[1:])]


@given(
    st.integers(1, 40),
    st.sets(st.integers(1, 39)),
    st.lists(st.sets(st.integers(1, 39)), max_size=4),
)
@example(6, {3}, [{3}])  # mask {0, 3, 6} and degrees 3 + 3: u = 3; at u = 2 bit 3 goes
@settings(max_examples=300, deadline=None)
def test_bounded_degrees_keep_the_mask(n: int, cuts: set[int], mask_cuts: list[set[int]]) -> None:
    # a mask of ANDed closures loses nothing when the factors of degree above
    # its highest open degree u <= n/2 count as one part
    closure = factorization._closure_mask
    degrees = _parts(n, cuts)
    mask = (1 << (n + 1)) - 1
    for c in mask_cuts:
        mask &= closure(_parts(n, c))
    u = factorization._open_bound(mask, n)
    assert u == max([b for b in range(1, n // 2 + 1) if mask >> b & 1], default=0)
    rest = sum(d for d in degrees if d > u)
    bounded = [d for d in degrees if d <= u] + ([rest] if rest else [])
    assert mask & closure(degrees) == mask & closure(bounded)


@pytest.mark.parametrize("i, k", [(5, 8), (3, 4)])
def test_scan_first_count_is_exact_and_later_ones_are_lower_bounds(i: int, k: int) -> None:
    # the first DDF is bounded at n // 2 by the full mask, so its count is
    # exact; later ones count the factors above the bound as one part
    F = build_F(i, k)
    _, counts = factorization._scan(F)
    assert len(counts) > factorization._HENSEL_CHOICES
    full = [len(_gf.gf_factor(_gf.gf_from_coeffs(F.coeffs, p), p)) for p, _ in counts]
    assert counts[0][1] == full[0]
    assert all(count <= n for (_, count), n in zip(counts, full))
    assert any(count < n for (_, count), n in zip(counts, full))


def test_certify_tower_is_unchanged_by_the_bound(monkeypatch: pytest.MonkeyPatch) -> None:
    # a seeded sample of cells i = 3..14, k <= 100, on the route _observe
    # takes: the tower with every DDF bounded and with none gives the same
    # verdict at the same primes
    rng = random.Random(18)
    cells = []
    for i in range(3, 15):
        for peel in (False, True):
            ks = [
                k
                for k in range(5, 101)
                if euler_phi(i) * k > factorization._FULL_FACTOR_DEGREE
                and factorization._split_divides(i, k) == peel
            ]
            cells.append((i, rng.choice(ks)))
    bounded = [factorization._certify_tower(i, k) for i, k in cells]
    monkeypatch.setattr(factorization, "_open_bound", lambda mask, n: n)  # no bound
    assert [factorization._certify_tower(i, k) for i, k in cells] == bounded
    assert all(ok for ok, _ in bounded)


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
    # with no sample squarefree, none is usable; the scan must stop after
    # 64 * budget primes p = 1 (mod 12)
    cap = 64 * factorization._PRIME_BUDGET
    scanned: list[int] = []
    roots = factorization._primitive_ith_roots

    def spy(i, p):
        scanned.append(p)
        if len(scanned) > cap:
            raise RuntimeError("tower scan did not stop")
        return roots(i, p)

    monkeypatch.setattr(factorization, "_primitive_ith_roots", spy)
    monkeypatch.setattr(factorization, "_tower_sample_squarefree", lambda k, zbar, p, peel: False)
    assert factorization._certify_tower(12, 26) == (False, ())
    assert len(scanned) == cap
    assert all((p - 1) % 12 == 0 for p in scanned)


@pytest.mark.parametrize("i", range(3, 31))
def test_primitive_ith_roots_are_the_elements_of_order_i(i: int) -> None:
    for p in islice((q for q in prime_range_from(101) if (q - 1) % i == 0), 3):
        roots = factorization._primitive_ith_roots(i, p)
        order_i = {
            z for z in range(1, p)
            if pow(z, i, p) == 1 and all(pow(z, e, p) != 1 for e in range(1, i))
        }
        assert len(roots) == len(order_i) == euler_phi(i)
        assert set(roots) == order_i


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
    assert {p.coeffs for p in facs} == {(-1, 1), (1, 1), (1, 0, 1)}


def test_factor_over_Q_rebuilds_product_exactly() -> None:
    for i, k in ((4, 2), (3, 4), (5, 8)):
        F = build_F(i, k)
        facs = factor_over_Q(F)
        assert len(facs) == 2
        prod = IntPoly.one()
        for g in facs:
            prod = poly_mul(prod, g)
        assert prod == F


def test_factor_over_Q_refuses_a_degree_above_the_cap_before_any_prime(
    monkeypatch: pytest.MonkeyPatch,
) -> None:
    calls = []

    def spy(f, p, _original=_gf.gf_is_squarefree):
        calls.append(p)
        return _original(f, p)

    monkeypatch.setattr(_gf, "gf_is_squarefree", spy)
    over_cap = IntPoly.monomial(factorization._DEGREE_CAP + 1) - IntPoly.one()
    with pytest.raises(ValueError, match="from 1 to 1600"):
        factor_over_Q(over_cap)
    assert calls == []


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
    assert calls == list(islice(prime_range_from(factorization._PRIME_FLOOR), 41))


def test_factor_over_Q_agrees_with_sympy() -> None:
    for i in range(3, 8):
        for k in range(2, 6):
            F = build_F(i, k)
            facs = factor_over_Q(F)
            assert sorted(g.degree for g in facs) == _sympy_degrees(F)


@given(
    st.tuples(
        st.lists(st.integers(min_value=-6, max_value=6), min_size=1, max_size=6),
        st.integers(min_value=1, max_value=6),
    ).map(lambda t: IntPoly(tuple(t[0]) + (t[1],)))
)
@example(IntPoly((1, 0, 1, 1, 1, 1, 1)))  # (x^2+1)(x^4+x^3+1); mod 101 degrees 1, 1, 4
@example(IntPoly((-10, -29, -10, 8, 20)))  # (2x+5)(4x^3-2x-5): a candidate does not divide
@settings(max_examples=60, deadline=None)
def test_factor_over_Q_roundtrip_on_monic_squarefree(p: IntPoly) -> None:
    # monic or not: leading coefficients 1..6, primitive inputs only
    assume(p.content() == 1)
    try:
        facs = factor_over_Q(p)
    except NotSquarefree:
        assume(False)
        return
    prod = IntPoly.one()
    for g in facs:
        prod = poly_mul(prod, g)
    assert prod == p
    assert sorted(g.degree for g in facs) == _sympy_degrees(p)


def test_recombination_skips_a_candidate_that_does_not_divide(
    monkeypatch: pytest.MonkeyPatch,
) -> None:
    # spies: every candidate recombination builds, and those the trial
    # division refuses
    built, refused = [], []

    def center(cs: list[int], m: int, _original=factorization._center) -> IntPoly:
        out = _original(cs, m)
        built.append(out.primitive_part())
        return out

    def divexact(a: IntPoly, b: IntPoly, _original=factorization.poly_divexact) -> IntPoly:
        try:
            return _original(a, b)
        except NotDivisible:
            refused.append(b)
            raise

    monkeypatch.setattr(factorization, "_center", center)
    monkeypatch.setattr(factorization, "poly_divexact", divexact)

    # (2x + 5)(4x^3 - 2x - 5): after 2x + 5, the lifted 4x - 3073 is left;
    # 3073 does not divide 5, so the constant-term test refuses it before
    # any trial division
    F = poly_mul(IntPoly((5, 2)), IntPoly((-5, -2, 0, 4)))
    assert factor_over_Q(F) == [IntPoly((5, 2)), IntPoly((-5, -2, 0, 4))]
    assert built == [IntPoly((5, 2)), IntPoly((-3073, 4))]
    assert refused == []

    # x^4 - 14x^2 + 9, roots +-sqrt(5) +- sqrt(2), is irreducible.  Mod 101,
    # where 5 is a square and 2 and 10 are not, it splits as
    # x^2 -+ 2*sqrt(5)*x + 3: both lifts pass the constant-term test (3 | 9)
    # and the trial division refuses them
    built.clear()
    G = IntPoly((9, 0, -14, 0, 1))
    assert factor_over_Q(G) == [G]
    assert factorization._scan(G)[1][0] == (101, 2)
    assert refused == built and len(refused) == 2
    assert [c.coeffs[0] for c in refused] == [3, 3]


def test_lift_division_matches_the_division_over_Z() -> None:
    # the lift's reduced division against poly_divmod over Z then mod m, at
    # moduli p^(2^e) as the lift uses them; the zero dividend and one
    # shorter than h included
    rng = random.Random(30)
    for p in (101, 1009, 10007):
        for e in range(4):
            m = p ** (2**e)
            for n in (0, 3, *(rng.randint(0, 30) for _ in range(10))):
                h = [rng.randrange(m) for _ in range(rng.randint(4, 12))] + [1]
                a = factorization._trim_mod([rng.randrange(m) for _ in range(n)], m)
                assert factorization._divmod_monic(a, h, m) == divmod_mod_over_Z(a, h, m)


def test_factor_over_Q_peeled_degree_404() -> None:
    # F_{4,202} is x^2 + 1 times a degree-402 cofactor (Phi_4 peels: 4 | 204)
    F = build_F(4, 202)
    factors, _ = factorization._factor_over_Q(F)
    assert [g.degree for g in factors] == [2, 402]
    assert factors[0] == cyclotomic(4)
    assert poly_mul(*factors) == F


def _seeded_tower_cells(keep, seed: int) -> tuple[list, list]:
    # the strata (i, number of factors) of the tower cells that ``keep``
    # admits, and one seeded cell of each
    strata = defaultdict(list)
    for i, k in tower_cells():
        if keep(i, k):
            strata[i, len(conjecture_verdict(i, k).observed.factor_degrees)].append((i, k))
    rng = random.Random(seed)
    return sorted(strata), [rng.choice(strata[key]) for key in sorted(strata)]


def test_tower_agrees_with_a_foreign_kernel() -> None:
    # a seeded sample, one cell per i and route, of the tower cells behind
    # the d = 6..12 conjecture cells; CI checks every one of them
    strata, cells = _seeded_tower_cells(lambda i, k: 4 <= i <= 11, seed=16)
    assert strata == [(i, shape) for i in range(4, 12) for shape in (1, 2)]
    assert crosscheck.tower_foreign(cells) == []


def test_tower_agrees_with_full_factoring() -> None:
    # the Hensel route: a seeded sample, one cell per i = 3..10 and route, of
    # the tower cells of degree <= 120; factoring F outright gives the
    # tower's factor degrees and, where it peels, the same two factors
    strata, cells = _seeded_tower_cells(lambda i, k: i <= 10 and euler_phi(i) * k <= 120, seed=17)
    assert strata == [(i, shape) for i in range(3, 11) for shape in (1, 2)]
    assert crosscheck.tower_full(cells) == []


@pytest.mark.parametrize("i", range(3, 31))
def test_split_divides_agrees_with_dividing_F(i: int) -> None:
    # the rule m | k + 2 against F mod Phi_m by Horner for k = 1..300, and
    # against dividing the whole F_{i,k} over two periods of (k + 1) mod m
    # wherever deg F <= 600
    m = split_index(i)
    for k in range(1, 301):
        assert F_mod_cyclotomic(i, k, m).is_zero == factorization._split_divides(i, k), k
    assert crosscheck.route_rule([(i, k) for k in range(1, 2 * m + 1) if euler_phi(i) * k <= 600]) == []


def test_every_peel_of_a_tower_cell_divides() -> None:
    # x + 1/zbar divides s - zbar at each stored prime and primitive root of
    # every peeled tower cell: the remainder s(-1/zbar) - zbar is zero
    peeled = 0
    for i, k in tower_cells():
        if not factorization._split_divides(i, k):
            continue
        peeled += 1
        for p in conjecture_verdict(i, k).observed.primes_used:
            for zbar in factorization._primitive_ith_roots(i, p):
                w = -pow(zbar, -1, p) % p
                assert sum(pow(w, j, p) for j in range(k + 1)) % p == zbar, (i, k, p)
    assert peeled == 23


@pytest.mark.parametrize(
    "i, k, p, zbar, peel, squarefree, unpeeled_squarefree",
    [
        pytest.param(3, 103, 103, 46, False, True, True, id="p-divides-k"),
        pytest.param(3, 102, 103, 46, False, True, True, id="p-divides-k+1"),
        pytest.param(4, 202, 101, 10, True, True, True, id="peeled-p-divides-k"),
        pytest.param(6, 205, 103, 57, True, True, True, id="peeled-p-divides-k+1"),
        pytest.param(3, 45, 103, 46, False, True, True, id="a-is-1"),  # zbar = k + 1
        pytest.param(3, 148, 103, 46, True, True, True, id="peeled-a-is-1"),
        pytest.param(3, 65, 103, 46, False, False, False, id="double-root"),
        pytest.param(5, 158, 101, 95, True, False, False, id="peeled-double-root"),
        pytest.param(3, 148, 103, 56, True, True, False, id="peeled-double-root-at-minus-1/zbar"),
    ],
)
def test_tower_squarefree_rule_at_its_edges(
    i: int, k: int, p: int, zbar: int, peel: bool, squarefree: bool, unpeeled_squarefree: bool
) -> None:
    # tower samples (the route read off k, the root primitive) on each branch
    # of the rule: p | k, p | k + 1, a = 1, a double root, and a double root
    # at -1/zbar, which the peel leaves simple; s - zbar itself beside each
    assert zbar in factorization._primitive_ith_roots(i, p)
    assert factorization._split_divides(i, k) == peel
    for route, expected in ((peel, squarefree), (False, unpeeled_squarefree)):
        assert gcd_says_squarefree(k, zbar, p, route) == expected
        assert factorization._tower_sample_squarefree(k, zbar, p, route) == expected


def test_tower_squarefree_rule_matches_the_gcd_on_seeded_tower_samples() -> None:
    # 60 unpeeled and 20 peeled cells of i = 3..30, k = 2..300, every
    # primitive root at the first two primes p = 1 (mod i) of each
    rng = random.Random(23)
    cells = [(i, k) for i in range(3, 31) for k in range(2, 301)]
    peeled = [c for c in cells if factorization._split_divides(*c)]
    unpeeled = [c for c in cells if not factorization._split_divides(*c)]
    samples = crosscheck.sqf_samples(rng.sample(unpeeled, 60) + rng.sample(peeled, 20))
    assert len(samples) > 1000
    assert crosscheck.sqf_rule(samples) == []


@pytest.mark.parametrize("name", sorted(crosscheck.CHECKS))
def test_every_crosscheck_list_has_its_pinned_length(name: str) -> None:
    # each full list asserts its pinned length as it is built
    build, _ = crosscheck.CHECKS[name]
    assert build()


def test_range_full_flags_a_report_that_full_factoring_contradicts() -> None:
    # reports as `amd conjecture --out` writes them: (5, 8) splits 4 + 28
    reports = [_conjecture_cell(cell) for cell in ((3, 6), (5, 8))]
    assert crosscheck.range_full(reports) == []
    reports[1]["factor_degrees"] = [32]
    assert crosscheck.range_full(reports) == [(5, 8)]


def test_a_partial_tower_mask_is_unresolved_not_irreducible(monkeypatch: pytest.MonkeyPatch) -> None:
    # with one prime the tower of F_{3,54} stops on the mask {0, 16, 38, 54}:
    # not certified, so the cell is Unresolved and (12, 54) is Unknown
    monkeypatch.setattr(factorization, "_PRIME_BUDGET", 1)
    conjecture_verdict.cache_clear()
    try:
        assert factorization._certify_tower(3, 54) == (False, (103,))
        report = factorization._observe(3, 54)
        assert (report.verdict, report.primes_used) == ("Unresolved", (103,))
        assert decide(12, 54).verdict == "Unknown"
    finally:
        conjecture_verdict.cache_clear()


def test_tower_squarefree_rule_matches_the_gcd_on_every_small_case() -> None:
    # every zbar not 0 or 1 mod p in {7, 11, 13} and k < 3p, peeled too
    # wherever -1/zbar is a root of s - zbar; every branch of the rule occurs
    cases = set()
    for p in (7, 11, 13):
        for zbar in range(2, p):
            w = -pow(zbar, -1, p) % p
            for k in range(1, 3 * p):
                for peel in (False, True):
                    if peel and sum(pow(w, j, p) for j in range(k + 1)) % p != zbar:
                        continue
                    squarefree = gcd_says_squarefree(k, zbar, p, peel)
                    got = factorization._tower_sample_squarefree(k, zbar, p, peel)
                    assert got == squarefree, (p, zbar, k, peel)
                    if k % p == 0 or (k + 1) % p == 0:
                        cases.add(("p | k" if k % p == 0 else "p | k + 1", peel, squarefree))
                        continue
                    a = (k + 1) * (zbar - 1) * pow(zbar * k, -1, p) % p
                    double = a != 1 and pow(a, k, p) * (k + 1) % p == zbar
                    branch = "a = 1" if a == 1 else "a = -1/zbar" if a == w else "a"
                    cases.add((branch, peel, double))
    assert {("p | k", False, True), ("p | k + 1", False, True), ("a = 1", False, False)} <= cases
    assert {("p | k", True, True), ("p | k + 1", True, True), ("a = 1", True, False)} <= cases
    # a double root of s - zbar that the peel leaves simple, and one it keeps
    assert {("a = -1/zbar", False, True), ("a = -1/zbar", True, True), ("a", True, True)} <= cases


def test_chain_minus_root_refuses_a_peel_that_does_not_divide() -> None:
    # Phi_12 does not divide F_{12,26}: asked to peel, no root divides
    assert not factorization._split_divides(12, 26)
    for p in islice((q for q in prime_range_from(101) if (q - 1) % 12 == 0), 3):
        for zbar in factorization._primitive_ith_roots(12, p):
            assert len(factorization._chain_minus_root(26, zbar, p, peel=False)) == 27
            with pytest.raises(ArithmeticError):
                factorization._chain_minus_root(26, zbar, p, peel=True)


@pytest.mark.parametrize("i, k, builds", [(5, 14, 0), (5, 18, 1)])
def test_tower_builds_F_only_for_the_cofactor(
    i: int, k: int, builds: int, monkeypatch: pytest.MonkeyPatch
) -> None:
    # an unpeeled tower cell builds neither F nor a PolyMod reduction table;
    # a peeled one builds F once, to divide out Phi_m
    built, tables = [], []
    build, init = factorization.build_F, _gf.PolyMod.__init__

    def spy_build(i, k):
        built.append((i, k))
        return build(i, k)

    def spy_init(self, f, p):
        init(self, f, p)
        tables.append(self._table is not None)

    monkeypatch.setattr(factorization, "build_F", spy_build)
    monkeypatch.setattr(_gf.PolyMod, "__init__", spy_init)
    observed = conjecture_verdict.__wrapped__(i, k).observed  # past the cache
    assert len(observed.factor_degrees) == builds + 1
    assert len(built) == builds
    assert tables and not any(tables)


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


@pytest.mark.parametrize("i, k, peel", [(5, 14, False), (5, 18, True)])
def test_observe_is_unresolved_when_the_tower_does_not_certify(
    i: int, k: int, peel: bool, monkeypatch: pytest.MonkeyPatch
) -> None:
    calls = []

    def fail(i, k):
        calls.append((i, k))
        return False, (101, 131)

    monkeypatch.setattr(factorization, "_certify_tower", fail)
    v = conjecture_verdict.__wrapped__(i, k)  # past the cache
    assert calls == [(i, k)]
    assert factorization._split_divides(i, k) == peel
    assert v.observed.verdict == "Unresolved"
    assert v.observed.certificate_kind == "DegreeSetIntersection"
    assert v.observed.factor_degrees == ()
    assert v.observed.factors == ()
    assert v.observed.primes_used == (101, 131)
    assert v.match == "Unresolved"


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


def _fewest_factor_primes(f: IntPoly) -> set[int]:
    """The primes with the fewest mod-p factors of f among the first five
    usable ones, counted by an unbounded DDF mod each."""
    counts = {}
    for p in prime_range_from(101):
        img = _gf.gf_from_coeffs(f.coeffs, p)
        if f.lead % p and _gf.gf_is_squarefree(img, p):
            parts = _gf.gf_distinct_degree_list(img, p)
            counts[p] = sum(_gf.gf_degree(prod) // d for prod, d in parts)
            if len(counts) == 5:
                break
    return {p for p, n in counts.items() if n == min(counts.values())}


def test_factor_over_Q_factors_mod_p_once(monkeypatch: pytest.MonkeyPatch) -> None:
    # every reducible criterion-6 cell of degree <= 24: one gf_factor call,
    # at a prime with the fewest mod-p factors of the first five usable
    # ones, which the result rests on
    reducible = 0
    for i in range(2, 200):
        for k in range(2, 49):
            if euler_phi(i) * k > 24:
                break
            F = build_F(i, k)
            fewest = _fewest_factor_primes(F)
            with monkeypatch.context() as m:
                factored = _record_gf_factor(m)
                factors, primes = factorization._factor_over_Q(F)
            if len(factors) > 1:
                reducible += 1
                assert len(factored) == 1 and factored[0] in fewest
                assert factored[0] in primes
    assert reducible == 10


class _HenselPrime(Exception):
    pass


def test_hensel_prime_has_the_fewest_factors_where_the_scan_stays_open(
    monkeypatch: pytest.MonkeyPatch,
) -> None:
    # every criterion-6 cell whose scan ends above {0, n}: the counts that
    # choose the Hensel prime are lower bounds past the first, yet the prime
    # factored at has the fewest mod-p factors of the first five usable ones
    def stop(f, p):
        raise _HenselPrime(p)  # the lift and recombination are not needed

    monkeypatch.setattr(_gf, "gf_factor", stop)
    open_scans = 0
    for i in range(2, 200):
        for k in range(2, 49):
            if euler_phi(i) * k > 48:
                break
            F = build_F(i, k)
            if factorization._scan(F)[0] == 1 | (1 << F.degree):
                continue
            open_scans += 1
            with pytest.raises(_HenselPrime) as chosen:
                factorization._factor_over_Q.__wrapped__(F)  # past the cache
            assert chosen.value.args[0] in _fewest_factor_primes(F), (i, k)
    assert open_scans == 102


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


@pytest.mark.parametrize("i, k, tests", [(5, 8, 24), (7, 6, 2)])
def test_scan_tests_each_prime_for_squarefreeness_once(
    i: int, k: int, tests: int, monkeypatch: pytest.MonkeyPatch
) -> None:
    # the gate's first usable prime feeds the degree-set scan as it is,
    # instead of being reduced and tested again; every tested prime is used
    _clear_caches()
    tested = []

    def spy(f, p, _original=_gf.gf_is_squarefree):
        tested.append(p)
        return _original(f, p)

    monkeypatch.setattr(_gf, "gf_is_squarefree", spy)
    assert factorization._factor_over_Q(build_F(i, k))[1] == tuple(tested)
    assert len(tested) == tests


def test_certify_irreducible_of_negation_shares_the_entry(monkeypatch: pytest.MonkeyPatch) -> None:
    F = build_F(5, 8)
    out = certify_irreducible(F)
    calls = _count_fp_calls(monkeypatch)
    assert certify_irreducible(-F) == out
    assert calls == {"gf_distinct_degree_list": 0, "gf_factor": 0}


def test_factor_over_Q_returns_a_fresh_list() -> None:
    F = build_F(5, 8)
    first = factor_over_Q(F)
    expected = list(first)
    first[0] = IntPoly.one()
    first.append(F)
    assert factor_over_Q(F) == expected
    # the sign of -F goes to a copy, not to the shared entry
    negated = factor_over_Q(-F)
    assert negated == [-expected[0]] + expected[1:]
    assert factor_over_Q(F) == expected
