"""Permutation cycle structures of the repeat map.

A repeat permutation with m_j cycles of length j is stored by its cycle
type, so candidate structures can be enumerated without ever constructing a
digraph.  The self-repeat case pins m_1 = k, and 2-criticality (every longer
cycle length of the form 2^t * alpha for one alpha > 1) is what the subdigraph
machinery needs.  With alpha | d'-1 and lengths capped at d'-1, each such
structure lies in the family alpha, 2*alpha, 4*alpha, ... of its least
longer length alpha, so the families are enumerated one at a time.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Mapping

__all__ = [
    "CycleStructure",
    "enumerate_structures",
]


@dataclass(frozen=True)
class CycleStructure:
    """Sparse cycle type of a permutation on N vertices: entries (j, m_j)."""

    N: int
    entries: tuple[tuple[int, int], ...]

    def __post_init__(self):
        seen = set()
        total = 0
        for j, m in self.entries:
            if j < 1 or m < 1:
                raise ValueError("entries must store j >= 1 with m_j >= 1")
            if j in seen:
                raise ValueError(f"duplicate cycle length {j}")
            seen.add(j)
            total += j * m
        if total != self.N:
            raise ValueError(f"cycle lengths sum to {total}, expected N={self.N}")
        if tuple(sorted(self.entries)) != self.entries:
            raise ValueError("entries must be sorted by cycle length")

    @classmethod
    def from_map(cls, N: int, mapping: Mapping[int, int]) -> "CycleStructure":
        return cls(N, tuple(sorted((j, m) for j, m in mapping.items() if m)))

    def serialize(self) -> str:
        return " ".join(f"{j}:{m}" for j, m in self.entries)


def _vectors(lengths: list[int], total: int) -> Iterator[dict[int, int]]:
    # all m-vectors over the given lengths with sum j*m_j = total
    j, rest = lengths[0], lengths[1:]
    if not rest:
        if total % j == 0:
            yield {j: total // j}
        return
    for m in range(total // j + 1):
        for tail in _vectors(rest, total - j * m):
            yield {j: m, **tail}


def enumerate_structures(d_prime: int, k: int) -> list[CycleStructure]:
    """All self-repeat cycle structures on N = d' + ... + d'^k vertices that
    are 2-critical with witness alpha | d'-1 (alpha the least length above 1)
    and lengths capped at d'-1, in ascending order of (m_2, ..., m_{d'-1})."""
    if d_prime < 2 or k < 2:
        raise ValueError("enumerate_structures expects d_prime >= 2 and k >= 2")
    N = sum(d_prime**t for t in range(1, k + 1))
    out: list[CycleStructure] = []
    for alpha in range(2, d_prime):
        if (d_prime - 1) % alpha:
            continue
        family = [alpha << t for t in range(((d_prime - 1) // alpha).bit_length())]
        # m_1 = k is pinned and one alpha-cycle is reserved, so m_alpha >= 1
        for vec in _vectors(family, N - k - alpha):
            vec[alpha] += 1
            out.append(CycleStructure.from_map(N, {1: k, **vec}))
    out.sort(key=lambda s: [dict(s.entries).get(j, 0) for j in range(2, d_prime)])
    return out
