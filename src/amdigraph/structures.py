"""Permutation cycle structures of the repeat map.

A repeat permutation with m_j cycles of length j is stored by its cycle
type, so candidate structures can be enumerated without ever constructing a
digraph.  The self-repeat case pins m_1 = k, and 2-criticality (every longer
cycle length of the form 2^t * alpha) is what the subdigraph machinery
needs.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping

__all__ = [
    "CycleStructure",
    "is_two_critical",
    "enumerate_structures",
]


@dataclass(frozen=True)
class CycleStructure:
    """Sparse cycle type of a permutation on N vertices: entries (j, m_j)."""

    N: int
    k: int
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
    def from_map(cls, N: int, k: int, mapping: Mapping[int, int]) -> "CycleStructure":
        return cls(N, k, tuple(sorted((j, m) for j, m in mapping.items() if m)))

    def lengths(self) -> tuple[int, ...]:
        return tuple(j for j, _ in self.entries)

    def serialize(self) -> str:
        return " ".join(f"{j}:{m}" for j, m in self.entries)


def _normal_alpha(lengths: Iterable[int]) -> int | None:
    """Witness normal form: least odd part over the stored lengths > 1 when
    any stored length is odd, otherwise the least stored length > 1."""
    longer = sorted(j for j in lengths if j > 1)
    if not longer:
        return None
    if any(j % 2 for j in longer):
        alpha = min(j >> ((j & -j).bit_length() - 1) for j in longer)
        return alpha if alpha > 1 else None
    return longer[0]


def is_two_critical(s: CycleStructure) -> tuple[bool, int | None]:
    """True iff one alpha > 1 has every stored length j > 1 of the form
    2^t * alpha; returns (flag, alpha) with alpha in witness normal form."""
    alpha = _normal_alpha(s.lengths())
    if alpha is None or alpha == 1:
        return False, None
    for j in s.lengths():
        if j == 1:
            continue
        while j % 2 == 0 and j > alpha:
            j //= 2
        if j != alpha:
            return False, None
    return True, alpha


def _spectrum_feasible(available: frozenset[int], d_prime: int) -> bool:
    # is d' - 1 a sum of available orders (with repetition)?
    target = d_prime - 1
    reach = 1  # bitmask of attainable sums
    for s in sorted(available):
        if s > target:
            continue
        for _ in range(target // s):
            reach |= reach << s
    return bool((reach >> target) & 1)


def _vectors(indices: list[int], total: int) -> Iterator[dict[int, int]]:
    # all m-vectors over the given lengths with sum j*m_j = total, lexicographic
    if not indices:
        if total == 0:
            yield {}
        return
    j, rest = indices[0], indices[1:]
    for m in range(total // j + 1):
        for tail in _vectors(rest, total - j * m):
            out = {j: m} if m else {}
            out.update(tail)
            yield out


def enumerate_structures(d_prime: int, k: int) -> list[CycleStructure]:
    """All self-repeat cycle structures on N = d' + ... + d'^k vertices that
    are 2-critical with witness alpha | d'-1, lengths capped at d'-1, and a
    feasible out-neighbour order spectrum."""
    if d_prime < 2 or k < 2:
        raise ValueError("enumerate_structures expects d_prime >= 2 and k >= 2")
    N = sum(d_prime**t for t in range(1, k + 1))
    rest = N - k  # m_1 = k is pinned
    out: list[CycleStructure] = []
    indices = [j for j in range(2, d_prime)]
    for vec in _vectors(indices, rest):
        if not vec:
            continue
        entries = {1: k}
        entries.update(vec)
        s = CycleStructure.from_map(N, k, entries)
        ok, alpha = is_two_critical(s)
        if not ok or alpha is None or (d_prime - 1) % alpha != 0:
            continue
        if not _spectrum_feasible(frozenset(entries), d_prime):
            continue
        out.append(s)
    return out

