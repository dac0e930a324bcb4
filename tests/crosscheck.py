"""Cross-checks of the conjecture path, each a predicate that takes an
explicit list and returns the items that fail; README.md's Tests section
describes them.  ``python tests/crosscheck.py NAME [DIR]`` runs one on its
full list, asserts the list's pinned length, prints the seconds taken and
exits 1 on a failure.  range-full reads DIR, the ``--out`` directory of
``amd conjecture --i 3..30 --k 5..300 --deterministic``."""
from __future__ import annotations

import argparse
import json
import random
import sys
import time
from itertools import islice
from pathlib import Path

from oracles import tower_cells, tower_report_holds

from amdigraph import _gf
from amdigraph.algebra import euler_phi, poly_divmod, prime_range_from
from amdigraph.cyclotomic import build_F, cyclotomic
from amdigraph.factorization import (
    _chain_minus_root,
    _factor_over_Q,
    _primitive_ith_roots,
    _split_divides,
    _tower_sample_squarefree,
    conjecture_verdict,
    split_index,
)


def _pinned(items: list, count: int) -> list:
    # a list that changes length changes the check, so it must not pass unseen
    assert len(items) == count, f"{len(items)} items, pinned at {count}"
    return items


def tower_foreign(cells: list) -> list:
    """Cells whose tower report the foreign kernel (sympy) refutes."""
    return [c for c in cells if not tower_report_holds(conjecture_verdict(*c).observed)]


def tower_full(cells: list) -> list:
    """Cells where factoring F outright gives other degrees than the tower
    report, or other factors where it peels."""
    bad = []
    for c in cells:
        report = conjecture_verdict(*c).observed
        factors, _ = _factor_over_Q(build_F(*c))
        if tuple(g.degree for g in factors) != report.factor_degrees or (
            report.factors and set(factors) != set(report.factors)
        ):
            bad.append(c)
    return bad


def route_rule(cells: list) -> list:
    """Cells where m | k + 2 disagrees with dividing F_{i,k} by Phi_m."""
    return [
        (i, k) for i, k in cells
        if _split_divides(i, k) != poly_divmod(build_F(i, k), cyclotomic(split_index(i)))[1].is_zero
    ]


def gcd_says_squarefree(k: int, zbar: int, p: int, peel: bool) -> bool:
    return _gf.gf_is_squarefree(_chain_minus_root(k, zbar, p, peel), p)


def sqf_rule(samples: list) -> list:
    """Samples (i, k, zbar, p, peel) where the tower's closed-form
    squarefree test disagrees with the gcd."""
    return [s for s in samples if _tower_sample_squarefree(*s[1:]) != gcd_says_squarefree(*s[1:])]


def range_full(reports: list) -> list:
    """Cells of `amd conjecture` reports whose factor degrees full
    factoring refutes."""
    return [
        (r["i"], r["k"]) for r in reports
        if [g.degree for g in _factor_over_Q(build_F(r["i"], r["k"]))[0]] != r["factor_degrees"]
    ]


def sqf_samples(cells: list) -> list:
    """Each primitive i-th root at the first two primes p = 1 (mod i) from
    101, for each cell (i, k), with the cell's route."""
    return [
        (i, k, zbar, p, _split_divides(i, k))
        for i, k in cells
        for p in islice((q for q in prime_range_from(101) if (q - 1) % i == 0), 2)
        for zbar in _primitive_ith_roots(i, p)
    ]


def band_list() -> list:
    # one of the 12 peeled cells of k = 296..300 and two of the other 128
    band = [(i, k) for i in range(3, 31) for k in range(296, 301)]
    peeled = _pinned([c for c in band if _split_divides(*c)], 12)
    rng = random.Random(296)
    return rng.sample(peeled, 1) + rng.sample([c for c in band if c not in peeled], 2)


def _report_name(cell: tuple) -> str:
    return f"factor_i{cell[0]}_k{cell[1]}.json"


RANGE = [(i, k) for i in range(3, 31) for k in range(5, 301)]


def range_list() -> list:
    # 60 seeded cells of degree <= 600, drawn in the order of the report files
    cells = sorted(_pinned(RANGE, 8288), key=_report_name)
    return random.Random(29).sample([(i, k) for i, k in cells if euler_phi(i) * k <= 600], 60)


def range_reports(out: Path, cells: list) -> list:
    """The reports of ``cells`` in ``out``, once its summary counts every
    cell of RANGE Consistent and it holds their report files and no other."""
    summary = json.loads((out / "summary.json").read_text())
    assert (summary["cells"], summary["Consistent"]) == (len(RANGE), len(RANGE)), summary
    assert sorted(p.name for p in out.glob("factor_i*_k*.json")) == sorted(map(_report_name, RANGE))
    return [json.loads((out / _report_name(c)).read_text()) for c in cells]


CHECKS = {  # name: (its full list, its predicate)
    "tower-foreign": (lambda: _pinned(tower_cells(), 163), tower_foreign),
    "tower-full": (lambda: _pinned(tower_cells(), 163), tower_full),
    "route-rule": (
        lambda: _pinned([(i, k) for i in range(3, 31) for k in range(1, 2 * split_index(i) + 1)], 1246),
        route_rule,
    ),
    "sqf-rule": (
        lambda: _pinned(sqf_samples([(i, k) for i in range(3, 31) for k in range(2, 301)]), 165048),
        sqf_rule,
    ),
    "band": (band_list, tower_foreign),
    "range-full": (range_list, range_full),
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Run one cross-check on its full list.")
    parser.add_argument("name", choices=CHECKS)
    parser.add_argument("dir", nargs="?", type=Path, help="the report directory range-full reads")
    args = parser.parse_args(argv)
    if (args.name == "range-full") != (args.dir is not None):
        parser.error("DIR is given to range-full, and only to it")
    start = time.perf_counter()
    build, check = CHECKS[args.name]
    items = build() if args.dir is None else range_reports(args.dir, build())
    bad = check(items)
    print(f"{args.name}: {len(items)} checked, {len(bad)} failed, {time.perf_counter() - start:.1f} s")
    if bad:
        print("failed:", bad)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
