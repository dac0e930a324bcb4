from __future__ import annotations

import random

import numpy as np
import pytest

from amdigraph import digraphs
from amdigraph.digraphs import (
    Digraph,
    MooreCheck,
    NotAlmostMoore,
    NotDiregular,
    OrderMismatch,
    StructuralViolation,
    build_H_alpha,
    check_fixed_walks,
    check_rk_closed,
    check_subdigraph_theorem,
    gen_line_digraph_complete,
    profile_in_neighborhood,
    r_set_sizes,
    run_battery,
    verify_moore,
)
from oracles import fixed_walks_by_walks, rk_closed_by_walks

# two hand-picked order-6 instances with nontrivial repeat permutations:
# cycle type 2+4 and cycle type 3+3
FIX_24 = Digraph(6, ((1, 2), (2, 3), (4, 5), (0, 4), (0, 5), (1, 3)))
FIX_33 = Digraph(6, ((1, 2), (2, 3), (4, 5), (0, 4), (1, 5), (0, 3)))


def test_digraph_validates_out_lists() -> None:
    with pytest.raises(ValueError, match="ascending"):
        Digraph(3, ((1, 1), (0, 2), (0, 1)))
    with pytest.raises(ValueError, match="self-loop"):
        Digraph(2, ((0, 1), (0, 1)))
    with pytest.raises(ValueError, match="out of range"):
        Digraph(2, ((1, 2), (0,)))


def test_adjacency_and_in_lists() -> None:
    g = Digraph(3, ((1, 2), (2,), (0,)))
    A = g.adjacency()
    assert A.dtype == np.int64
    assert A.tolist() == [[0, 1, 1], [0, 0, 1], [1, 0, 0]]
    assert g.in_lists() == ((2,), (0,), (0, 1))


def test_generator_produces_verified_instances() -> None:
    for d in (2, 3, 4, 5):
        g = gen_line_digraph_complete(d)
        assert g.n == d + d * d
        chk = verify_moore(g, d, 2)
        # arcs of the complete digraph repeat to themselves
        assert chk.P == tuple(range(g.n))
        assert chk.orders == (1,) * g.n
        assert chk.self_repeats == tuple(range(g.n))


def test_verify_moore_rejects_degree_defects() -> None:
    with pytest.raises(NotDiregular, match="out-degree"):
        verify_moore(Digraph(6, ((1,), (2, 3), (4, 5), (0, 4), (0, 5), (1, 3))), 2, 2)
    with pytest.raises(NotDiregular, match="in-degree"):
        verify_moore(Digraph(6, ((1, 2), (2, 3), (4, 5), (0, 5), (0, 5), (1, 3))), 2, 2)


def test_verify_moore_rejects_wrong_order() -> None:
    with pytest.raises(OrderMismatch, match="12 != 39"):
        verify_moore(gen_line_digraph_complete(3), 3, 3)


def test_verify_moore_rejects_non_moore_residual() -> None:
    circulant = Digraph(6, tuple(tuple(sorted(((v + 1) % 6, (v + 2) % 6))) for v in range(6)))
    with pytest.raises(NotAlmostMoore, match="residual"):
        verify_moore(circulant, 2, 2)


def test_serialize_parse_round_trip() -> None:
    g = gen_line_digraph_complete(2)
    text = g.serialize(2, 2)
    assert text == "6 2 2\n2 3\n4 5\n0 1\n4 5\n0 1\n2 3\n"
    back, d, k = Digraph.parse("# leading comment\n\n" + text)
    assert (back, d, k) == (g, 2, 2)


def test_parse_rejects_malformed_input() -> None:
    with pytest.raises(ValueError):
        Digraph.parse("x 2 2\n0 1\n")
    with pytest.raises(ValueError, match="expected 2 out-lists"):
        Digraph.parse("2 2 2\n0 1\n")
    with pytest.raises(ValueError, match="out of range"):
        Digraph.parse("2 2 2\n0 7\n0 1\n")
    with pytest.raises(ValueError, match="d >= 2 and k >= 2"):
        Digraph.parse("2 2 1\n1\n0\n")


def test_fixture_repeat_permutations() -> None:
    chk = verify_moore(FIX_24, 2, 2)
    assert chk.P == (2, 4, 5, 0, 1, 3)
    assert chk.orders == (4, 2, 4, 4, 2, 4)
    assert chk.self_repeats == ()
    assert chk.cycle_structure().entries == ((2, 1), (4, 1))
    assert chk.period == 4
    assert chk.r_power(2) == (5, 1, 3, 2, 4, 0)
    assert chk.r_power(4) == chk.r_power(0) == tuple(range(6))

    chk33 = verify_moore(FIX_33, 2, 2)
    assert chk33.P == (2, 4, 5, 1, 3, 0)
    assert chk33.orders == (3,) * 6
    assert chk33.cycle_structure().entries == ((3, 2),)
    assert chk33.period == 3


def test_battery_green_on_generated_and_fixture_instances() -> None:
    for g, d in ((gen_line_digraph_complete(2), 2), (gen_line_digraph_complete(3), 3),
                 (FIX_24, 2), (FIX_33, 2)):
        rows = run_battery(g, d, 2)
        assert all(ok for _, ok, _ in rows), rows


def test_battery_details_identity_instance() -> None:
    rows = dict((name, detail) for name, _, detail in run_battery(gen_line_digraph_complete(2), 2, 2))
    assert rows["eq1_permutation_residual"] == "|self-repeats| = 6"
    assert rows["H_alpha[2]"] == "6 vertices, d'=2"
    assert rows["in_neighborhood_cases"] == "I_i:6"
    assert rows["r_set_trace_agreement"] == "sum over ell<=4, j<=n: 108"


@pytest.mark.parametrize("d", range(2, 13))
def test_battery_rows_on_line_digraphs_follow_closed_forms(d: int) -> None:
    # r is the identity, so R_{ell,j} is the set of vertices on a closed walk
    # of length exactly ell: none for ell = 1, every vertex for ell = 2, 3, 4
    # ((a,b)(b,a)(a,b); (a,b)(b,c)(c,a)(a,b); the 2-cycle twice)
    n = d * (d + 1)
    assert run_battery(gen_line_digraph_complete(d), d, 2) == [
        ("eq1_permutation_residual", True, f"|self-repeats| = {n}"),
        ("repeat_is_automorphism", True, ""),
        ("trace_identities", True, ""),
        ("fixed_walks_square", True, ""),
        ("H_alpha[2]", True, f"{n} vertices, d'={d}"),
        ("in_neighborhood_cases", True, f"I_i:{n}"),
        ("r_set_trace_agreement", True, f"sum over ell<=4, j<=n: {3 * n * n}"),
    ]


def test_battery_details_nontrivial_fixtures() -> None:
    rows24 = dict((name, detail) for name, _, detail in run_battery(FIX_24, 2, 2))
    assert rows24["eq1_permutation_residual"] == "|self-repeats| = 0"
    assert rows24["in_neighborhood_cases"] == "I_ii:6"
    assert rows24["r_set_trace_agreement"] == "sum over ell<=4, j<=n: 92"

    rows33 = dict((name, detail) for name, _, detail in run_battery(FIX_33, 2, 2))
    assert rows33["H_alpha[2]"] == "0 vertices, d'=None"
    assert rows33["H_alpha[3]"] == "6 vertices, d'=2"
    assert rows33["in_neighborhood_cases"] == "II_ii:3 I_ii:3"
    assert rows33["r_set_trace_agreement"] == "sum over ell<=4, j<=n: 90"


def test_in_neighborhood_profile_fields() -> None:
    chk = verify_moore(FIX_24, 2, 2)
    prof = profile_in_neighborhood(FIX_24, chk, 0)
    assert prof.v == 0
    assert prof.out_neighbors == (1, 2)
    assert prof.T_sets == (frozenset({1, 3}), frozenset({2, 4, 5}))
    assert prof.n_counts == (1, 1)
    assert prof.case == "I_ii"
    assert prof.back_vertices == ((3,), (4,))
    assert prof.W1_sets == (frozenset(), frozenset({5}))


def test_in_neighborhood_profile_matches_a_bfs_per_vertex() -> None:
    # T-sets and back vertices from a fresh BFS for v and each v_j and the
    # whole in-list table, for every vertex of three instances
    def bfs(out: tuple[tuple[int, ...], ...], s: int) -> dict[int, int]:
        dist, queue = {s: 0}, [s]
        for u in queue:
            for w in out[u]:
                if w not in dist:
                    dist[w] = dist[u] + 1
                    queue.append(w)
        return dist

    for g, d in ((FIX_24, 2), (FIX_33, 2), (gen_line_digraph_complete(3), 3)):
        chk = verify_moore(g, d, 2)
        for v in range(g.n):
            dist_v = bfs(g.out, v)
            T_sets = tuple(
                frozenset(w for w, dw in bfs(g.out, vj).items() if w != v and dist_v[w] == 1 + dw)
                for vj in g.out[v]
            )
            prof = profile_in_neighborhood(g, chk, v)
            assert prof.T_sets == T_sets
            assert prof.back_vertices == tuple(tuple(sorted(T & set(g.in_lists()[v]))) for T in T_sets)


def test_battery_runs_one_bfs_per_source(monkeypatch: pytest.MonkeyPatch) -> None:
    g = gen_line_digraph_complete(4)
    sources, in_lists = [], []

    def bfs(h: Digraph, s: int, _original=digraphs._bfs_dist) -> list[int]:
        if h is g:
            sources.append(s)
        return _original(h, s)

    def spy_in_lists(h: Digraph, _original=Digraph.in_lists) -> tuple[tuple[int, ...], ...]:
        if h is g:
            in_lists.append(h)
        return _original(h)

    monkeypatch.setattr(digraphs, "_bfs_dist", bfs)
    monkeypatch.setattr(Digraph, "in_lists", spy_in_lists)
    rows = run_battery(g, 4, 2)
    assert dict((name, detail) for name, _, detail in rows)["in_neighborhood_cases"] == "I_i:20"
    assert sorted(sources) == list(range(g.n))
    assert len(in_lists) == 1  # verify_moore's in-degree check


def test_in_neighborhood_case_distribution() -> None:
    chk33 = verify_moore(FIX_33, 2, 2)
    cases = [profile_in_neighborhood(FIX_33, chk33, v).case for v in range(6)]
    assert cases.count("II_ii") == 3 and cases.count("I_ii") == 3

    chk_id = verify_moore(gen_line_digraph_complete(2), 2, 2)
    assert all(
        profile_in_neighborhood(gen_line_digraph_complete(2), chk_id, v).case == "I_i"
        for v in range(6)
    )


def test_walk_counts_are_one_plus_repeat_indicator() -> None:
    chk = verify_moore(FIX_33, 2, 2)
    A = FIX_33.adjacency()
    residual = np.zeros((6, 6), dtype=np.int64)
    residual[range(6), chk.P] = 1
    assert (A + A @ A == np.ones((6, 6)) - np.eye(6) + residual).all()
    h_all = build_H_alpha(FIX_33, chk, 3)
    assert h_all == (0, 1, 2, 3, 4, 5)
    assert check_rk_closed(FIX_33, h_all, chk, 2)


def test_rk_closed_detects_broken_subset() -> None:
    chk = verify_moore(FIX_33, 2, 2)
    assert not check_rk_closed(FIX_33, (0, 1, 2, 3, 4), chk, 2)


def test_fixed_walks_square_property() -> None:
    for g in (FIX_24, FIX_33, gen_line_digraph_complete(2)):
        chk = verify_moore(g, 2, 2)
        assert check_fixed_walks(g, chk)


def test_walk_checks_match_brute_force_reference() -> None:
    # fabricated checks on random digraphs: the walk-count checks against
    # enumerating every walk; both outcomes must occur for each check
    rng = random.Random(2024)
    outcomes: dict[str, set[bool]] = {"rk": set(), "fixed": set()}
    for _ in range(500):
        n, k = rng.randint(3, 7), rng.randint(1, 3)
        out = tuple(
            tuple(sorted(rng.sample([w for w in range(n) if w != v], rng.randint(0, min(3, n - 1)))))
            for v in range(n)
        )
        g = Digraph(n, out)
        P = tuple(rng.sample(range(n), n))
        fake = MooreCheck(d=2, k=k, P=P)
        h = tuple(sorted(rng.sample(range(n), rng.randint(0, n))))
        rk = check_rk_closed(g, h, fake, k)
        assert rk == rk_closed_by_walks(out, h, P, k), (out, h, P, k)
        try:
            fixed = check_fixed_walks(g, fake)
        except StructuralViolation:
            fixed = False
        assert fixed == fixed_walks_by_walks(out, P, k), (out, P, k)
        outcomes["rk"].add(rk)
        outcomes["fixed"].add(fixed)
    assert outcomes == {"rk": {True, False}, "fixed": {True, False}}


def test_empty_H_alpha_without_self_repeats_passes() -> None:
    chk = verify_moore(FIX_33, 2, 2)
    h2 = build_H_alpha(FIX_33, chk, 2)
    assert h2 == ()
    rep = check_subdigraph_theorem(FIX_33, chk, 2)
    assert rep.vertices == ()
    assert rep.failures == ()
    assert rep.passed


def test_subdigraph_theorem_diregular_branch() -> None:
    chk = verify_moore(FIX_33, 2, 2)
    rep = check_subdigraph_theorem(FIX_33, chk, 3)
    assert not rep.is_cycle_case
    assert rep.d_prime == 2
    assert rep.diameter == 2
    assert rep.passed


def test_subdigraph_theorem_cycle_branch_synthetic() -> None:
    # no genuine (2,2) instance has exactly k self-repeats, so the cycle
    # branch is exercised on a fabricated check object: r fixes 0 and 1 and
    # turns 2 -> 3 -> 4, so H_2 = {0, 1}; the shape conditions hold while the
    # walk 0 -> 2 -> 1 correctly fails the closure
    gs = Digraph(5, ((1, 2), (0, 3), (1, 3), (0, 4), (2,)))
    fake = MooreCheck(d=2, k=2, P=(0, 1, 3, 4, 2))
    rep = check_subdigraph_theorem(gs, fake, 2)
    assert rep.is_cycle_case
    assert rep.vertices == (0, 1)
    assert rep.failures == ("rk_closed",)
    assert not rep.passed


def test_subdigraph_theorem_cycle_shape_rejects_a_tail() -> None:
    # 0 -> 1 -> 2 -> 1 has one out-arc per vertex and three vertices, but it
    # is a 2-cycle with a tail, not C_3
    gs = Digraph(3, ((1,), (2,), (1,)))
    fake = MooreCheck(d=2, k=3, P=(0, 1, 2))
    rep = check_subdigraph_theorem(gs, fake, 2)
    assert rep.is_cycle_case
    assert "self_repeat_cycle_shape" in rep.failures


def test_r_set_sizes_fixture_values() -> None:
    chk = verify_moore(FIX_24, 2, 2)
    assert [r_set_sizes(FIX_24, chk, ell, (1, 2)) for ell in range(1, 5)] == [[0, 0], [6, 4], [4, 6], [6, 6]]


def test_r_set_size_validates_arguments() -> None:
    chk = verify_moore(FIX_24, 2, 2)
    with pytest.raises(ValueError):
        r_set_sizes(FIX_24, chk, 9, (1,))
    with pytest.raises(ValueError):
        r_set_sizes(FIX_24, chk, 2, (1, 0))
