"""Regenerate ``cells.json``: the pinned per-cell digests and the strata.

    python3 bench/make_reference.py          # from the repository root

Runs every cell of the three rectangles PASSES times, untraced, in one
fresh interpreter per workload and pass (about 16 minutes on a 2-vCPU VM),
checks that every pass gives the same digests, and records:

- ``digests``: the sha256 of each cell's decision record.  A later commit
  whose record differs fails that cell, so regenerate only at a commit whose
  outputs are known good, and say so when you do.
- ``strata``: groups of interchangeable units (a unit is a list of cells).
  A run draws one unit from every stratum, so each seed gets a different but
  equally heavy cell list.  ``grid`` and ``factor`` group cells of adjacent
  cost rank, by the fastest of the passes (the minimum filters out the
  machine's slow phases, which a single pass mistakes for cost); ``factor``
  first gives each of its ``VERIFY_TAIL`` cells with the slowest product
  check (fastest of the passes, at reference speed) a stratum of its own;
  ``certify`` keeps every column that holds a ConjectureElimination cell
  whole (they carry the cache reuse and the tail) and pairs the other cells
  of each degree by cost rank.

The cost ranks are a sampling design, not a reference: later commits change
the costs, and the draw stays the same.
"""
from __future__ import annotations

import json
import os
import sys

from run import run_round

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

PASSES = 3
# strata of like cost in grid and factor: grid needs 200 cells for ten
# samples beyond its p95; factor, with cells 3x as costly, fits 58 in a run
STRATA = {"grid": 200, "factor": 48}
# factor's cells with the slowest product check, a stratum each, so in every
# run: its verify_ms_p95 rests on the top few of 58 samples, and which of
# these a seed drew moved it by 0.10 to 0.12 (quartile distance over median)
VERIFY_TAIL = {"factor": 10}
# certify cells outside the ConjectureElimination columns: a run draws one
# per pair of like cost
PAIR = 2


def populations() -> dict[str, list[list[int]]]:
    from amdigraph.algebra import euler_phi

    return {
        "grid": [[i, k] for i in range(3, 15) for k in range(5, 101)],
        "factor": [
            [i, k]
            for i in range(2, 200)
            if euler_phi(i) <= 24
            for k in range(2, 49)
            if euler_phi(i) * k <= 48
        ],
        "certify": [[d, k] for d in range(2, 13) for k in range(2, 301)],
    }


def conjecture_columns() -> set[int]:
    from amdigraph.sieve import prime_witness

    return {
        k
        for k in range(5, 301)
        for d in range(4, 13)
        if prime_witness(d, k) is None
    }


def blocks(items: list, size: int) -> list[list]:
    return [items[j : j + size] for j in range(0, len(items), size)]


def split(items: list, n: int) -> list[list]:
    """n contiguous blocks whose sizes differ by at most one."""
    return [items[len(items) * j // n : len(items) * (j + 1) // n] for j in range(n)]


def main() -> int:
    sys.path.insert(0, SRC)
    out = {}
    conj = conjecture_columns()
    for workload, cells in populations().items():
        passes = [run_round(workload, cells, False, SRC, 86400)["rows"] for _ in range(PASSES)]
        rows = passes[0]
        bad = [r for r in rows if "error" in r or r["problems"]]
        if bad:
            print(f"{workload}: {len(bad)} cells fail the gate, first {bad[0]}", file=sys.stderr)
            return 1
        if any([r["digest"] for r in p] != [r["digest"] for r in rows] for p in passes):
            print(f"{workload}: passes disagree on some digest", file=sys.stderr)
            return 1
        cost = {tuple(r["cell"]): min(p[n]["s"] for p in passes) for n, r in enumerate(rows)}
        ranked = sorted(cost, key=lambda c: -cost[c])
        if workload == "certify":
            strata = [
                [[[d, k] for d in range(2, 13)]] for k in sorted(conj)
            ]
            for d in range(2, 13):
                rest = [c for c in ranked if c[0] == d and c[1] not in conj]
                strata += [[[list(c)] for c in b] for b in blocks(rest, PAIR)]
        else:
            verify = {
                tuple(r["cell"]): min(p[n]["verify_s"] * p[n]["verify_scale"] for p in passes)
                for n, r in enumerate(rows)
            }
            tail = sorted(verify, key=lambda c: -verify[c])[: VERIFY_TAIL.get(workload, 0)]
            rest = [c for c in ranked if c not in tail]
            strata = [[[list(c)]] for c in tail]
            strata += [[[list(c)] for c in b] for b in split(rest, STRATA[workload])]
        out[workload] = {
            "strata": strata,
            "digests": {f"{r['cell'][0]},{r['cell'][1]}": r["digest"] for r in rows},
        }
        print(f"{workload}: {len(rows)} cells, {sum(cost.values()):.1f} s, "
              f"{len(strata)} strata", file=sys.stderr)
    with open(os.path.join(HERE, "cells.json"), "w") as fh:
        json.dump(out, fh, separators=(",", ":"))
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
