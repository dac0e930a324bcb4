"""Oracle tests for the F_p kernel: pure-Python-int references and sympy."""
from __future__ import annotations

import functools
import random
from array import array

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from sympy.polys.domains import ZZ
from sympy.polys.galoistools import (
    gf_div,
    gf_factor_sqf,
    gf_gcd as sympy_gcd,
    gf_gcdex,
    gf_irreducible_p,
    gf_sqf_list,
)

from amdigraph import _gf
from amdigraph.factorization import _chain_minus_root, _primitive_ith_roots
from oracles import reduction_table_by_rows

PRIMES = (2, 3, 101, 997)

# ---------------------------------------------------------------------------
# References on ascending Python int lists, trimmed, residues in [0, p)
# ---------------------------------------------------------------------------


def _trim(a: list[int]) -> list[int]:
    a = list(a)
    while a and a[-1] == 0:
        a.pop()
    return a


def ref_mul(a: list[int], b: list[int], p: int) -> list[int]:
    out = [0] * max(len(a) + len(b) - 1, 0)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return _trim([c % p for c in out])


def ref_divmod(a: list[int], b: list[int], p: int) -> tuple[list[int], list[int]]:
    r = list(a)
    q = [0] * max(len(a) - len(b) + 1, 0)
    inv = pow(b[-1], p - 2, p)
    while len(r) >= len(b):
        c = r[-1] * inv % p
        shift = len(r) - len(b)
        q[shift] = c
        r[shift:] = [(x - c * y) % p for x, y in zip(r[shift:], b)]
        while r and r[-1] == 0:
            r.pop()
    return _trim(q), r


def ref_gcd(a: list[int], b: list[int], p: int) -> list[int]:
    while b:
        a, b = b, ref_divmod(a, b, p)[1]
    if not a:
        return a
    inv = pow(a[-1], p - 2, p)
    return [c * inv % p for c in a]


def _pack(a: list[int]) -> int:
    return int.from_bytes(array("Q", a).tobytes(), "little")


def _unpack(x: int, n: int) -> list[int]:
    return list(array("Q", x.to_bytes(8 * n, "little")))


@functools.lru_cache(maxsize=8)
def _packed_table(f: tuple[int, ...], p: int) -> list[int]:
    return [_pack(row) for row in reduction_table_by_rows(list(f), p)]


def ref_powmod(a: list[int], e: int, f: list[int], p: int) -> list[int]:
    """a**e mod f by square-and-multiply on Python ints, one 64-bit slot per
    coefficient: a product is one Kronecker product, reduced by the rows
    x^(n+j) mod f of ``reduction_table_by_rows``, each slot a sum of at most
    n terms below p**2."""
    n = len(f) - 1
    assert n * p * p < 2**64
    rows = _packed_table(tuple(f), p)

    def mulmod(x: list[int], y: list[int]) -> list[int]:
        if not x or not y:
            return []
        c = [s % p for s in _unpack(_pack(x) * _pack(y), len(x) + len(y) - 1)]
        acc = _pack(c[:n]) + sum(h * row for h, row in zip(c[n:], rows))
        return _trim([s % p for s in _unpack(acc, n)])

    r, a = [1], ref_divmod(a, f, p)[1]
    while e:
        if e & 1:
            r = mulmod(r, a)
        a = mulmod(a, a)
        e >>= 1
    return r


def ref_sub(a: list[int], b: list[int], p: int) -> list[int]:
    n = max(len(a), len(b))
    a, b = a + [0] * (n - len(a)), b + [0] * (n - len(b))
    return _trim([(x - y) % p for x, y in zip(a, b)])


def ref_ddf(f: list[int], p: int) -> list[tuple[list[int], int]]:
    """Unblocked distinct-degree split: one gcd per Frobenius iterate.

    Iterates are kept mod the shrinking remainder, which leaves each gcd alone.
    """
    out = []
    rem = f
    h = [0, 1]
    j = 0
    while len(rem) - 1 >= 2 * (j + 1):
        j += 1
        h = ref_powmod(h, p, rem, p)
        g = ref_gcd(rem, ref_sub(h, [0, 1], p), p)
        if len(g) > 1:
            out.append((g, j))
            rem = ref_divmod(rem, g, p)[0]
    if len(rem) > 1:
        out.append((rem, len(rem) - 1))
    return out


def ref_squarefree(f: list[int], p: int) -> bool:
    deriv = _trim([(j * c) % p for j, c in enumerate(f)][1:])
    return len(ref_gcd(f, deriv, p)) == 1


def arr(a: list[int]) -> np.ndarray:
    return np.array(a, dtype=np.int64)


def lst(a: np.ndarray) -> list[int]:
    return [int(c) for c in a]


def sympy_dense(a: list[int]) -> list[int]:
    return a[::-1]


def from_sympy(a: list[int]) -> list[int]:
    return [int(c) for c in a[::-1]]


# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------


@st.composite
def poly(draw, p: int, max_len: int, monic_degree: int | None = None) -> list[int]:
    """Trimmed residues; monic of exactly ``monic_degree`` when given."""
    if monic_degree is not None:
        body = draw(st.lists(st.integers(0, p - 1), min_size=monic_degree, max_size=monic_degree))
        return body + [1]
    return _trim(draw(st.lists(st.integers(0, p - 1), max_size=max_len)))


@st.composite
def modulus_and_residues(draw):
    """A dense monic modulus, or a trinomial x^n + a*x + b, which PolyMod
    reduces by a fold instead of a table."""
    p = draw(st.sampled_from(PRIMES))
    n = draw(st.integers(1, 120))
    f = draw(poly(p, n, monic_degree=n))
    if n > 1 and draw(st.booleans()):
        f = f[:2] + [0] * (n - 2) + [1]
    a = draw(poly(p, n))
    b = draw(poly(p, n))
    return p, f, a, b


@st.composite
def dividend_and_divisor(draw):
    p = draw(st.sampled_from(PRIMES))
    a = draw(poly(p, 121))
    b = draw(poly(p, 121).filter(bool))
    return p, a, b


@functools.cache
def _irreducibles(d: int, p: int) -> list[list[int]]:
    """Up to three distinct monic irreducibles of degree d mod p, from a fixed seed."""
    rng = random.Random(1000 * d + p)
    found: list[list[int]] = []
    for _ in range(300):
        f = [rng.randrange(p) for _ in range(d)] + [1]
        if f not in found and gf_irreducible_p(sympy_dense(f), p, ZZ):
            found.append(f)
            if len(found) == 3:
                break
    return found


@st.composite
def squarefree_with_close_degrees(draw):
    """Products of distinct irreducibles whose degrees share one block of 8."""
    p = draw(st.sampled_from((2, 3, 101)))
    degrees = draw(st.lists(st.integers(1, 8), min_size=2, max_size=5))
    f = [1]
    used = set()
    for d in degrees:
        choices = [g for g in _irreducibles(d, p) if tuple(g) not in used]
        if not choices:
            continue
        g = draw(st.sampled_from(choices))
        used.add(tuple(g))
        f = ref_mul(f, g, p)
    assume(len(f) > 2)
    return p, f


# ---------------------------------------------------------------------------
# Tests
# ---------------------------------------------------------------------------


@given(modulus_and_residues())
@example((101, [0, 7] + [0] * 118 + [1], [100] * 120, [100] * 120))  # b = 0
@example((101, [7, 0] + [0] * 118 + [1], [100] * 120, [100] * 120))  # a = 0
@example((997, [0, 0, 1], [5, 996], [3, 1]))  # x^2
@settings(max_examples=80, deadline=None)
def test_polymod_mul_matches_schoolbook(case) -> None:
    p, f, a, b = case
    ctx = _gf.PolyMod(arr(f), p)
    expected = ref_divmod(ref_mul(a, b, p), f, p)[1]
    assert lst(ctx.mul(arr(a), arr(b))) == expected


def test_polymod_refuses_n_times_p_minus_1_squared_at_2_to_the_53() -> None:
    # at p = 65537, n = 2^21 gives n(p-1)^2 = 2^53 exactly: refused; one
    # degree below, a trinomial is accepted and folds with no table
    p, n = 65537, 1 << 21
    with pytest.raises(ValueError):
        _gf.PolyMod(np.zeros(n + 1, dtype=np.int64), p)
    f = np.zeros(n, dtype=np.int64)
    f[0], f[1], f[-1] = 3, 5, 1
    assert _gf.PolyMod(f, p)._table is None


@given(dividend_and_divisor())
@settings(max_examples=80, deadline=None)
def test_divmod_matches_sympy(case) -> None:
    p, a, b = case
    q, r = _gf.gf_divmod(arr(a), arr(b), p)
    sq, sr = gf_div(sympy_dense(a), sympy_dense(b), p, ZZ)
    assert (lst(q), lst(r)) == (from_sympy(sq), from_sympy(sr))


@given(dividend_and_divisor())
@settings(max_examples=80, deadline=None)
def test_gcd_and_gcdext_match_sympy(case) -> None:
    p, a, b = case
    g = sympy_gcd(sympy_dense(a), sympy_dense(b), p, ZZ)
    assert lst(_gf.gf_gcd(arr(a), arr(b), p)) == from_sympy(g)
    s, t, h = gf_gcdex(sympy_dense(a), sympy_dense(b), p, ZZ)
    got = _gf.gf_gcdext(arr(a), arr(b), p)
    assert [lst(x) for x in got] == [from_sympy(h), from_sympy(s), from_sympy(t)]


@st.composite
def long_dividend_and_short_divisor(draw):
    """The shapes of the squarefree test and of the DDF split gcds: a long
    quotient run on a divisor of a few coefficients."""
    p = draw(st.sampled_from(PRIMES))
    a = draw(poly(p, 301, monic_degree=draw(st.integers(100, 300))))
    b = draw(poly(p, 9, monic_degree=draw(st.integers(1, 8))))
    lead = draw(st.integers(1, p - 1))
    return p, a, [c * lead % p for c in b]


@given(long_dividend_and_short_divisor())
@settings(max_examples=40, deadline=None)
def test_long_quotient_divmod_and_gcd_match_sympy(case) -> None:
    p, a, b = case
    q, r = _gf.gf_divmod(arr(a), arr(b), p)
    sq, sr = gf_div(sympy_dense(a), sympy_dense(b), p, ZZ)
    assert (lst(q), lst(r)) == (from_sympy(sq), from_sympy(sr))
    g = sympy_gcd(sympy_dense(a), sympy_dense(b), p, ZZ)
    assert lst(_gf.gf_gcd(arr(a), arr(b), p)) == from_sympy(g)
    assert lst(_gf.gf_gcd(arr(b), arr(a), p)) == from_sympy(g)


@given(st.sampled_from(PRIMES), st.integers(1, 120), st.data())
@settings(max_examples=30, deadline=None)
def test_distinct_degree_list_matches_unblocked_reference(p: int, n: int, data) -> None:
    f = data.draw(poly(p, n, monic_degree=n))
    assume(ref_squarefree(f, p))
    got = [(lst(g), d) for g, d in _gf.gf_distinct_degree_list(arr(f), p)]
    assert got == ref_ddf(f, p)


@pytest.mark.parametrize("p", PRIMES)
def test_distinct_degree_list_on_degree_zero_and_one(p: int) -> None:
    # the block loop never runs; the leftover test returns a linear f as is
    assert _gf.gf_distinct_degree_list(arr([1]), p) == []
    got = [(lst(g), d) for g, d in _gf.gf_distinct_degree_list(arr([p - 1, 1]), p)]
    assert got == [([p - 1, 1], 1)]


@given(squarefree_with_close_degrees())
@settings(max_examples=60, deadline=None)
def test_distinct_degree_list_splits_degrees_within_one_block(case) -> None:
    p, f = case
    got = [(lst(g), d) for g, d in _gf.gf_distinct_degree_list(arr(f), p)]
    assert got == ref_ddf(f, p)


def test_distinct_degree_list_several_degrees_in_first_block() -> None:
    # degrees 1, 2, 3, 5 and 7 all fall in the block j = 1..8, and the
    # degree-10 factor is left over as the irreducible remainder
    p = 3
    degrees = (1, 2, 3, 5, 7, 10)
    f = [1]
    for d in degrees:
        f = ref_mul(f, _irreducibles(d, p)[0], p)
    got = [(lst(g), d) for g, d in _gf.gf_distinct_degree_list(arr(f), p)]
    assert got == ref_ddf(f, p)
    assert [d for _, d in got] == list(degrees)


@pytest.mark.parametrize(
    "p, degrees",
    [
        # block j = 9..16 takes one degree-12 factor: deg g < 2*9 at once
        (3, (12, 30)),
        # deg g < 2*jj in mid block: the degree-5 factor left after jj = 3
        (3, (3, 5, 20)),
        # two degree-8 factors left at the last iterate j = 8
        (3, (5, 8, 8)),
        # a block cut short at j = 4 holding degrees jj = 2 and j = 4
        (101, (2, 4, 4)),
    ],
)
def test_distinct_degree_list_split_shortcuts(p: int, degrees: tuple[int, ...]) -> None:
    f = [1]
    for n, d in enumerate(degrees):
        f = ref_mul(f, _irreducibles(d, p)[degrees[:n].count(d)], p)
    got = [(lst(g), d) for g, d in _gf.gf_distinct_degree_list(arr(f), p)]
    assert got == ref_ddf(f, p)
    assert [d for g, d in got for _ in range(len(g) // d)] == list(degrees)


@pytest.mark.parametrize(
    "i, k, peel, primes, double_root",
    [
        (5, 14, False, (101, 131), False),
        (7, 9, False, (113, 127), False),
        (5, 18, True, (101, 131), False),
        # zbar = 15 = k + 1 at p = 113, so (x - 1)**2 divides T
        (4, 14, False, (113,), True),
        (4, 14, True, (113,), True),
    ],
)
def test_distinct_degree_list_in_a_multiple_of_f(
    i: int, k: int, peel: bool, primes: tuple[int, ...], double_root: bool
) -> None:
    # tower samples f = s - zbar, s = 1 + x + ... + x^k, or f = (s - zbar) /
    # (x + 1/zbar) when peeled, with the Frobenius iterates taken modulo the
    # trinomial T = (x - 1)(s - zbar) = x^(k+1) - zbar*x + (zbar - 1)
    seen = []
    for p in primes:
        for zbar in _primitive_ith_roots(i, p):
            f = _chain_minus_root(k, zbar, p, peel)
            if not ref_squarefree(lst(f), p):
                continue
            seen.append((k + 1 - zbar) % p)
            T = [(zbar - 1) % p, -zbar % p] + [0] * (k - 1) + [1]
            assert ref_divmod(T, lst(f), p)[1] == []
            got = _gf.gf_distinct_degree_list(f, p, _gf.PolyMod(arr(T), p))
            assert [(lst(g), d) for g, d in got] == ref_ddf(lst(f), p)
    assert seen and (0 in seen) == double_root  # T'(1) = k + 1 - zbar


@given(st.sampled_from(PRIMES), st.integers(2, 60), st.data())
@settings(max_examples=30, deadline=None)
def test_bounded_distinct_degree_list_matches_reference(p: int, n: int, data) -> None:
    # bounded at upto, the split lists the reference's entries of degree <=
    # upto as they are, then the product of every factor above upto as one
    f = data.draw(poly(p, n, monic_degree=n))
    assume(ref_squarefree(f, p))
    upto = data.draw(st.integers(1, n // 2))
    got = [(lst(g), d) for g, d in _gf.gf_distinct_degree_list(arr(f), p, upto=upto)]
    ref = ref_ddf(f, p)
    rest = functools.reduce(lambda a, b: ref_mul(a, b, p), [g for g, d in ref if d > upto], [1])
    last = [(rest, len(rest) - 1)] if len(rest) > 1 else []
    assert got == [(g, d) for g, d in ref if d <= upto] + last


def test_distinct_degree_list_bounded_at_one_builds_no_frobenius_matrix() -> None:
    # x^p is row 1 of the matrix, kept on its own: the first iterate needs no
    # matrix, and a split bounded at 1 takes no other
    p = 101
    linear = ref_mul([7, 1], [5, 1], p)
    rest = ref_mul(_irreducibles(2, p)[0], _irreducibles(3, p)[0], p)
    f = ref_mul(linear, rest, p)
    ctx = _gf.PolyMod(arr(f), p)
    got = _gf.gf_distinct_degree_list(arr(f), p, ctx, upto=1)
    assert [(lst(g), d) for g, d in got] == [(linear, 1), (rest, 5)]
    assert ctx._frob is None
    assert lst(ctx.x_to_p()) == lst(_gf.gf_trim(ctx.frobenius_matrix()[1]))


def test_x_to_p_divides_nothing(monkeypatch: pytest.MonkeyPatch) -> None:
    # pow takes its base reduced, as mul does, and x is reduced modulo any f
    # of degree >= 2, so the first Frobenius iterate needs no division
    p = 101
    f = ref_mul(_irreducibles(2, p)[0], _irreducibles(3, p)[0], p)
    ctx = _gf.PolyMod(arr(f), p)
    calls = []

    def spy(a, b, q, _original=_gf.gf_divmod):
        calls.append(len(b))
        return _original(a, b, q)

    monkeypatch.setattr(_gf, "gf_divmod", spy)
    assert lst(ctx.x_to_p()) == ref_powmod([0, 1], p, f, p)
    assert calls == []


def test_int64_edge_largest_prime_degree_300() -> None:
    # n * (p - 1)**2 < 2**63 bounds every convolution and table-matmul sum,
    # and a trinomial's fold adds at most 2 * (p - 1)**2 to a residue; the
    # largest prime the kernel accepts stays far inside both, for a dense f
    # of degree 300 and for x^301 + a*x + b with a, b in {0, p - 1}
    p = 1048573  # largest prime below 2**20
    assert p < _gf._MAX_P
    rng = random.Random(300)
    dense = [rng.randrange(p) for _ in range(300)] + [1]
    trinomials = [[b, a] + [0] * 299 + [1] for b, a in ((p - 1, p - 1), (p - 1, 0), (0, p - 1))]
    for f in [dense, *trinomials]:
        n = len(f) - 1
        a = _trim([rng.randrange(p) for _ in range(n)])
        b = _trim([rng.randrange(p) for _ in range(n)])
        ctx = _gf.PolyMod(arr(f), p)
        assert (ctx._table is None) == (f is not dense)  # the fold serves trinomials
        assert lst(ctx.mul(arr(a), arr(b))) == ref_divmod(ref_mul(a, b, p), f, p)[1]
        a_to_p = ref_powmod(a, p, f, p)
        assert lst(ctx.pow(arr(a), p)) == a_to_p
        assert lst(ctx.frobenius(arr(a))) == a_to_p


@pytest.mark.parametrize("shape", ["planted degree-75 factor", "degree 300 by degree 2"])
def test_division_slots_at_largest_prime_degree_300(shape: str) -> None:
    # at p near 2**20 each division multiplies the remainders' slot bound by
    # about 2**21, so Euclid reaches the 2**63 slot limit every few divisions
    # and must reduce; the long quotient of 300 by 2 never reaches it
    p = 1048573
    rng = random.Random(75)
    if shape == "planted degree-75 factor":
        g = [rng.randrange(p) for _ in range(75)] + [1]
        a = ref_mul(g, [rng.randrange(p) for _ in range(225)] + [1], p)
        b = ref_mul(g, [rng.randrange(p) for _ in range(225)] + [rng.randrange(1, p)], p)
    else:
        a = [rng.randrange(p) for _ in range(300)] + [rng.randrange(1, p)]
        b = [rng.randrange(p) for _ in range(2)] + [rng.randrange(1, p)]
    q, r = _gf.gf_divmod(arr(a), arr(b), p)
    sq, sr = gf_div(sympy_dense(a), sympy_dense(b), p, ZZ)
    assert (lst(q), lst(r)) == (from_sympy(sq), from_sympy(sr))
    g = sympy_gcd(sympy_dense(a), sympy_dense(b), p, ZZ)
    assert lst(_gf.gf_gcd(arr(a), arr(b), p)) == from_sympy(g)
    if shape == "planted degree-75 factor":
        assert len(g) == 76
    s, t, h = gf_gcdex(sympy_dense(a), sympy_dense(b), p, ZZ)
    got = _gf.gf_gcdext(arr(a), arr(b), p)
    assert [lst(x) for x in got] == [from_sympy(h), from_sympy(s), from_sympy(t)]


def _frobenius_cases() -> list:
    """Seeded trinomials up to degree 302 and dense monic f up to 150, at
    small primes, at primes near the scan's and at the largest prime the
    kernel accepts."""
    rng = random.Random(302)
    cases = []
    for p in (3, 5, 101, 113, 241, 1048573):
        for n in (2, 3, 17, rng.randrange(4, 120), 150, 302):
            f = [rng.randrange(p), rng.randrange(p)] + [0] * (n - 2) + [1]
            cases.append(pytest.param(p, f, id=f"p{p}-trinomial-{n}"))
        for n in (2, 5, rng.randrange(6, 60), 150):
            f = [rng.randrange(p) for _ in range(n)] + [1]
            cases.append(pytest.param(p, f, id=f"p{p}-dense-{n}"))
    # n * (p - 1)**2 is about 3.3e14 here, the tightest float64 sums of the suite
    p = 1048573
    f = [rng.randrange(p), rng.randrange(p)] + [0] * 299 + [1]
    cases.append(pytest.param(p, f, id=f"p{p}-trinomial-301"))
    f = [rng.randrange(p) for _ in range(300)] + [1]
    cases.append(pytest.param(p, f, id=f"p{p}-dense-300"))
    return cases


@pytest.mark.parametrize("p, f", _frobenius_cases())
def test_frobenius_matrix_equals_the_product_route(p: int, f: list[int]) -> None:
    # the Krylov build (row j = row j-1 times the matrix of multiplication by
    # x^p) equals the rows x^(p*j) mod f multiplied out one product at a time
    ctx = _gf.PolyMod(arr(f), p)
    Q = ctx.frobenius_matrix()
    n = len(f) - 1
    xp = ctx.x_to_p()
    assert Q.dtype == np.float64 and Q.shape == (n, n)  # the matrix `frobenius` reads
    assert lst(Q[0]) == [1] + [0] * (n - 1)
    assert lst(_gf.gf_trim(Q[1])) == lst(xp)
    for j in range(2, n):
        assert lst(_gf.gf_trim(Q[j])) == lst(ctx.mul(_gf.gf_trim(Q[j - 1]), xp))
    a = arr(_trim([random.Random(n).randrange(p) for _ in range(n)]))
    assert lst(ctx.frobenius(a)) == lst(ctx.pow(a, p))


def _table_cases() -> list:
    """Dense monic f of degrees 2, 3, 48, 150 and one seeded degree at a
    small prime, a prime near the scan's and the largest prime the kernel
    accepts, and degree 300 at that prime, where the doubling's float64 sums
    come nearest 2**53."""
    rng = random.Random(48)
    cases = []
    for p in (3, 113, 1048573):
        for n in (2, 3, 48, 150, rng.randrange(4, 120)):
            f = [rng.randrange(p) for _ in range(n)] + [1]
            cases.append(pytest.param(p, f, id=f"p{p}-dense-{n}"))
    p = 1048573
    f = [rng.randrange(p) for _ in range(300)] + [1]
    cases.append(pytest.param(p, f, id=f"p{p}-dense-300"))
    return cases


@pytest.mark.parametrize("p, f", _table_cases())
def test_reduction_table_by_doubling_equals_the_row_recurrence(p: int, f: list[int]) -> None:
    n = len(f) - 1
    table = _gf._reduction_table(arr(f), p)
    assert table.dtype == np.int64 and table.shape == (n - 1, n)
    assert table.tolist() == reduction_table_by_rows(f, p)
    ctx = _gf.PolyMod(arr(f), p)
    if any(f[2:n]):  # not a trinomial: PolyMod keeps this table
        assert ctx._table.tolist() == table.tolist()


def test_polymod_refuses_a_degree_past_the_float64_bound() -> None:
    # every Frobenius row sums at most n products below (p-1)**2 in float64,
    # exact while n * (p-1)**2 < 2**53: at the largest prime that is n <= 8192
    p = 1048573
    assert 8192 * (p - 1) ** 2 < 2**53 <= 8193 * (p - 1) ** 2
    rng = random.Random(8193)
    dense = arr([rng.randrange(p) for _ in range(8193)] + [1])
    with pytest.raises(ValueError, match="2\\*\\*53"):
        _gf.PolyMod(dense, p)  # refused before its 8192 x 8193 table is made
    for n in (8191, 8192):
        ctx = _gf.PolyMod(arr([p - 1, p - 1] + [0] * (n - 2) + [1]), p)
        assert ctx.n == n and ctx._table is None and ctx._frob is None


@st.composite
def quotient_of_length(draw):
    """a and b whose first division takes 1 to 40 quotient steps, on both
    sides of the 16-slot division window."""
    p = draw(st.sampled_from((3, 1048573)))
    steps = draw(st.integers(1, 40))
    nb = draw(st.integers(1, 30))
    b = draw(poly(p, nb, monic_degree=nb - 1))
    b[-1] = draw(st.integers(1, p - 1))
    a = draw(poly(p, nb + steps - 1, monic_degree=nb + steps - 2))
    a[-1] = draw(st.integers(1, p - 1))
    return p, a, b


@given(quotient_of_length())
@settings(max_examples=120, deadline=None)
def test_euclid_loop_matches_references_at_every_quotient_length(case) -> None:
    p, a, b = case
    q, r = _gf.gf_divmod(arr(a), arr(b), p)
    assert (lst(q), lst(r)) == ref_divmod(a, b, p)
    assert len(q) == len(a) - len(b) + 1
    g = ref_gcd(a, b, p)
    assert lst(_gf.gf_gcd(arr(a), arr(b), p)) == g
    assert lst(_gf.gf_gcd(arr(b), arr(a), p)) == g  # a first division of no steps
    h, s, t = _gf.gf_gcdext(arr(a), arr(b), p)
    assert lst(h) == g
    sa, tb = ref_mul(lst(s), a, p), ref_mul(lst(t), b, p)
    n = max(len(sa), len(tb))
    total = [(x + y) % p for x, y in zip(sa + [0] * (n - len(sa)), tb + [0] * (n - len(tb)))]
    assert _trim(total) == g
    assert len(s) <= max(len(b) - len(g), 0) and len(t) <= max(len(a) - len(g), 1)


@pytest.mark.parametrize("p", (101, 113))
@pytest.mark.parametrize("seed", range(6))
def test_squarefree_list_matches_sympy(p: int, seed: int) -> None:
    # a unit times one to four distinct irreducibles of degree 1..4, each of
    # multiplicity 1..4, so factors of one multiplicity come grouped
    rng = random.Random(100 * p + seed)
    pool = [g for d in (1, 2, 3, 4) for g in _irreducibles(d, p)]
    f = [rng.randrange(1, p)]
    for g in rng.sample(pool, rng.randint(1, 4)):
        for _ in range(rng.randint(1, 4)):
            f = ref_mul(f, g, p)
    got = sorted((lst(z), e) for z, e in _gf.gf_squarefree_list(arr(f), p))
    _, want = gf_sqf_list(sympy_dense(f), p, ZZ)
    assert got == sorted((from_sympy(z), e) for z, e in want)


@pytest.mark.parametrize("p", (101, 1009))
@pytest.mark.parametrize("d", range(1, 7))
def test_equal_degree_split_matches_sympy(p: int, d: int) -> None:
    # f, a product of three distinct monic irreducibles of degree d, split in
    # PolyMod(f) and in the PolyMod of a proper multiple of f
    rng = random.Random(100 * p + d)
    irreducibles: set[tuple[int, ...]] = set()
    while len(irreducibles) < 3:
        g = [rng.randrange(p) for _ in range(d)] + [1]
        if gf_irreducible_p(g[::-1], p, ZZ):
            irreducibles.add(tuple(g))
    f = functools.reduce(lambda u, v: ref_mul(u, list(v), p), irreducibles, [1])
    want = sorted(g[::-1] for g in gf_factor_sqf(f[::-1], p, ZZ)[1])
    multiple = ref_mul(f, [rng.randrange(p) for _ in range(d + 2)] + [1], p)
    for ctx in (_gf.PolyMod(arr(f), p), _gf.PolyMod(arr(multiple), p)):
        got = _gf.gf_equal_degree_split(arr(f), d, p, random.Random(d), ctx)
        assert sorted(lst(g) for g in got) == want


def test_squarefree_list_refuses_a_multiplicity_of_p() -> None:
    p = 101
    f = [2, 1]
    for _ in range(p):
        f = ref_mul(f, [1, 1], p)
    with pytest.raises(ValueError, match="multiplicity"):
        _gf.gf_squarefree_list(arr(f), p)  # (x+1)^101 * (x+2)


def test_gf_factor_refuses_a_repeated_factor() -> None:
    p = 101
    f = ref_mul(ref_mul([1, 1], [1, 1], p), [2, 1], p)
    with pytest.raises(ValueError, match="squarefree"):
        _gf.gf_factor(arr(f), p)  # (x+1)^2 * (x+2)
