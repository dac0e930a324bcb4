"""Exact construction and machine verification of small almost Moore digraphs.

A (d,k)-digraph on n = d + d^2 + ... + d^k vertices satisfies

    I + A + ... + A^k = J + P

for a permutation matrix P; the permutation r behind P (the repeat map) is a
digraph automorphism.  Everything here is exact integer arithmetic on dense
matrices; instances are desk-scale (n <= 156 = 12 * 13, the largest that
the CLI admits), so n x n powers are cheap.

Structural checks verified on instances: (r,k)-closure and diregularity of
the fixed-point subdigraphs H_alpha, the in-neighbourhood case analysis
around a vertex, walk-fixing under squared automorphisms, and the R-set /
trace correspondence.
"""
from __future__ import annotations

from collections import Counter
from collections.abc import Collection, Iterable
from dataclasses import dataclass
from functools import cached_property
from math import lcm

import numpy as np

from .structures import CycleStructure

__all__ = [
    "Digraph",
    "MooreCheck",
    "NotDiregular",
    "OrderMismatch",
    "NotAlmostMoore",
    "StructuralViolation",
    "gen_line_digraph_complete",
    "verify_moore",
    "build_H_alpha",
    "check_rk_closed",
    "check_subdigraph_theorem",
    "profile_in_neighborhood",
    "check_fixed_walks",
    "r_set_sizes",
    "run_battery",
]

_WALK_CAP = 8  # walk enumeration is exponential in length; instances are tiny


class NotDiregular(ValueError):
    """In- or out-degree differs from d somewhere."""


class OrderMismatch(ValueError):
    """Vertex count is not d + d^2 + ... + d^k."""


class NotAlmostMoore(ValueError):
    """I + A + ... + A^k minus J is not a permutation matrix."""


class StructuralViolation(AssertionError):
    """A verified structural property failed on a concrete instance."""


@dataclass(frozen=True)
class Digraph:
    """Digraph on vertices 0..n-1 with ascending out-neighbour lists."""

    n: int
    out: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if self.n < 0 or len(self.out) != self.n:
            raise ValueError("out-list count must equal n")
        for v, nbrs in enumerate(self.out):
            if any(w < 0 or w >= self.n for w in nbrs):
                raise ValueError(f"vertex {v}: neighbour index out of range")
            if any(nbrs[t] >= nbrs[t + 1] for t in range(len(nbrs) - 1)):
                raise ValueError(f"vertex {v}: out-list not strictly ascending")
            if v in nbrs:
                raise ValueError(f"vertex {v}: self-loop")

    def adjacency(self) -> np.ndarray:
        A = np.zeros((self.n, self.n), dtype=np.int64)
        for v, nbrs in enumerate(self.out):
            A[v, list(nbrs)] = 1
        return A

    @cached_property
    def _distances(self) -> tuple[list[int], ...]:
        """Row s: BFS distances from s, -1 where unreachable; one BFS per
        source, run once per digraph."""
        return tuple(_bfs_dist(self, s) for s in range(self.n))

    def in_lists(self) -> tuple[tuple[int, ...], ...]:
        ins: list[list[int]] = [[] for _ in range(self.n)]
        for v, nbrs in enumerate(self.out):
            for w in nbrs:
                ins[w].append(v)
        return tuple(tuple(sorted(zs)) for zs in ins)

    def serialize(self, d: int, k: int) -> str:
        lines = [f"{self.n} {d} {k}"]
        lines += [" ".join(str(w) for w in nbrs) for nbrs in self.out]
        return "\n".join(lines) + "\n"

    @classmethod
    def parse(cls, text: str) -> tuple["Digraph", int, int]:
        """Inverse of serialize; '#' comments and blank lines are ignored."""
        data = []
        for raw in text.splitlines():
            line = raw.split("#", 1)[0].strip()
            if line:
                data.append(line)
        if not data:
            raise ValueError("empty digraph file")
        head = data[0].split()
        if len(head) != 3:
            raise ValueError("header must be 'n d k'")
        n, d, k = (int(x) for x in head)
        if d < 2 or k < 2:
            raise ValueError(f"header needs d >= 2 and k >= 2, got d={d} k={k}")
        if len(data) != n + 1:
            raise ValueError(f"expected {n} out-lists, found {len(data) - 1}")
        out = tuple(tuple(int(w) for w in line.split()) for line in data[1:])
        return cls(n, out), d, k


def gen_line_digraph_complete(d: int) -> Digraph:
    """Line digraph of the complete digraph on d+1 vertices: a (d,2)-digraph.

    Vertices are the ordered pairs (a,b), a != b, over d+1 symbols, numbered
    lexicographically; (a,b) -> (b,c) for every c != b.
    """
    if d < 2:
        raise ValueError("gen_line_digraph_complete expects d >= 2")
    pairs = [(a, b) for a in range(d + 1) for b in range(d + 1) if a != b]
    index = {p: i for i, p in enumerate(pairs)}
    out = tuple(
        tuple(sorted(index[(b, c)] for c in range(d + 1) if c != b))
        for (_, b) in pairs
    )
    return Digraph(len(pairs), out)


@dataclass(frozen=True)
class MooreCheck:
    """Verified witness data for one (d,k)-digraph instance."""

    d: int
    k: int
    P: tuple[int, ...]  # repeat permutation, P[v] = r(v)

    @cached_property
    def cycles(self) -> list[tuple[int, ...]]:
        """The cycles of r, decomposed once per check."""
        return _cycles(self.P)

    @property
    def orders(self) -> tuple[int, ...]:
        """ord_r(v) per vertex: the length of the cycle through v."""
        order = {v: len(c) for c in self.cycles for v in c}
        return tuple(order[v] for v in range(len(self.P)))

    @property
    def self_repeats(self) -> tuple[int, ...]:
        """The vertices r fixes, ascending."""
        return tuple(c[0] for c in self.cycles if len(c) == 1)

    @property
    def period(self) -> int:
        """Order of r: the least m >= 1 with r^m the identity."""
        return lcm(*(len(c) for c in self.cycles))

    def r_power(self, j: int) -> tuple[int, ...]:
        image = {v: c[(i + j) % len(c)] for c in self.cycles for i, v in enumerate(c)}
        return tuple(image[v] for v in range(len(self.P)))

    def cycle_structure(self) -> CycleStructure:
        counts = Counter(len(c) for c in self.cycles)
        return CycleStructure.from_map(len(self.P), counts)


def _cycles(perm: tuple[int, ...]) -> list[tuple[int, ...]]:
    """Cycles of a permutation, each listed v, perm[v], perm[perm[v]], ...
    from its least vertex; ValueError when perm maps two vertices to one."""
    seen = [False] * len(perm)
    cycles = []
    for v in range(len(perm)):
        if seen[v]:
            continue
        cycle, w = [], v
        while not seen[w]:
            seen[w] = True
            cycle.append(w)
            w = perm[w]
        if w != v:
            raise ValueError(f"not a permutation: {w} has two preimages")
        cycles.append(tuple(cycle))
    return cycles


def verify_moore(g: Digraph, d: int, k: int) -> MooreCheck:
    """Check I + A + ... + A^k = J + P exactly and extract the repeat map.

    Raises NotDiregular / OrderMismatch / NotAlmostMoore, then asserts that
    P commutes with adjacency (r is an automorphism) and the trace identities
    Tr(A^ell) = 0 for ell < k, Tr(A^k) = Tr(P).
    """
    if d < 2 or k < 2:
        raise ValueError("verify_moore expects d >= 2 and k >= 2")
    for v, nbrs in enumerate(g.out):
        if len(nbrs) != d:
            raise NotDiregular(f"vertex {v}: out-degree {len(nbrs)} != {d}")
    for v, ins in enumerate(g.in_lists()):
        if len(ins) != d:
            raise NotDiregular(f"vertex {v}: in-degree {len(ins)} != {d}")
    # d + d^2 + ... + d^k, cut short once past n: k comes from the file header
    order = 0
    for t in range(1, k + 1):
        order += d**t
        if order > g.n:
            break
    if g.n != order:
        total = str(order) if t == k else f"{d} + ... + {d}^{k} > {order}"
        raise OrderMismatch(f"{g.n} != {total}")

    A = g.adjacency()
    M = np.eye(g.n, dtype=np.int64)
    power = np.eye(g.n, dtype=np.int64)
    traces = []
    for _ in range(k):
        power = power @ A
        traces.append(int(np.trace(power)))
        M = M + power
    R = M - np.ones((g.n, g.n), dtype=np.int64)
    if R.min() < 0 or R.max() > 1:
        raise NotAlmostMoore("residual entries outside {0,1}")
    if (R.sum(axis=1) != 1).any() or (R.sum(axis=0) != 1).any():
        raise NotAlmostMoore("residual is not a permutation matrix")
    check = MooreCheck(d, k, tuple(int(np.argmax(R[v])) for v in range(g.n)))
    P = check.P

    arcs = {(v, w) for v, nbrs in enumerate(g.out) for w in nbrs}
    for v, w in arcs:
        if (P[v], P[w]) not in arcs:
            raise StructuralViolation(f"r is not an automorphism at arc ({v},{w})")
    for ell, tr in enumerate(traces[:-1], start=1):
        if tr != 0:
            raise StructuralViolation(f"Tr(A^{ell}) = {tr} != 0")
    fixed = len(check.self_repeats)
    if traces[-1] != fixed:
        raise StructuralViolation(f"Tr(A^{k}) = {traces[-1]} != {fixed}")
    return check


# ---------------------------------------------------------------------------
# Fixed-point subdigraphs H_alpha
# ---------------------------------------------------------------------------


def _induce(g: Digraph, vertices: tuple[int, ...]) -> Digraph:
    """The subdigraph induced on ascending vertices, relabelled 0, 1, ..."""
    pos = {v: i for i, v in enumerate(vertices)}
    return Digraph(
        len(vertices), tuple(tuple(pos[w] for w in g.out[v] if w in pos) for v in vertices)
    )


def _odd_part(x: int) -> int:
    while x % 2 == 0:
        x //= 2
    return x


def build_H_alpha(g: Digraph, check: MooreCheck, alpha: int) -> tuple[int, ...]:
    """The ascending vertex set of H_alpha: {v : ord_r(v) | 2^t * alpha for
    some t >= 0}, the vertices whose order has odd part dividing alpha's."""
    if alpha < 2:
        raise ValueError("build_H_alpha expects alpha > 1")
    target = _odd_part(alpha)
    orders = check.orders
    return tuple(v for v in range(g.n) if target % _odd_part(orders[v]) == 0)


def _walk_sums(A: np.ndarray, k: int) -> np.ndarray:
    """A + A^2 + ... + A^k: entry (u, v) counts the walks u -> v of length 1..k."""
    total = power = A
    for _ in range(k - 1):
        power = power @ A
        total = total + power
    return total


def _leaving_walk(
    g: Digraph, k: int, inside: tuple[int, ...], ends: Collection[int]
) -> tuple[int, int] | None:
    """The first distinct u, v among ends (a subset of the ascending inside)
    joined by a walk of length 1..k that leaves inside, or None.  The walks
    inside a set are some of all walks, so equal counts mean none leaves."""
    A = g.adjacency()
    ix = np.ix_(inside, inside)
    gap = _walk_sums(A, k)[ix] - _walk_sums(A[ix], k)
    for i, j in zip(*np.nonzero(gap)):
        if i != j and inside[i] in ends and inside[j] in ends:
            return inside[i], inside[j]
    return None


def check_rk_closed(g: Digraph, h: tuple[int, ...], check: MooreCheck, k: int) -> bool:
    """True iff r(h) is inside the vertex set h and, for distinct u,v in h,
    every walk of length <= k from u to v has all its vertices inside h."""
    hset = set(h)
    if any(check.P[v] not in hset for v in h):
        return False
    return _leaving_walk(g, k, h, hset) is None


@dataclass(frozen=True)
class SubdigraphReport:
    """Assertion record for one H_alpha against the subdigraph theorem."""

    vertices: tuple[int, ...]
    is_cycle_case: bool
    d_prime: int | None
    diameter: int | None
    failures: tuple[str, ...]

    @property
    def passed(self) -> bool:
        return not self.failures


def _diameter(g: Digraph) -> int | None:
    """Exact diameter from the BFS distance rows; None when not strongly
    connected."""
    rows = g._distances
    if any(min(row) < 0 for row in rows):
        return None
    return max((max(row) for row in rows), default=0)


def check_subdigraph_theorem(
    g: Digraph, check: MooreCheck, alpha: int
) -> SubdigraphReport:
    """H_alpha is either the self-repeat cycle C_k, or a (d',k)-digraph with
    d' <= d: diregular, of order d' + ... + d'^k, with diameter exactly k."""
    h = build_H_alpha(g, check, alpha)
    failures = [] if check_rk_closed(g, h, check, check.k) else ["rk_closed"]
    sub = _induce(g, h)
    cycle_case = (
        bool(h)
        and set(h) == set(check.self_repeats)
        and all(len(nbrs) == 1 for nbrs in sub.out)
    )
    d_prime: int | None = None
    diameter = None
    if not h:
        # possible only when the instance has no self-repeats at all
        # (otherwise the self-repeat cycle sits inside every H_alpha)
        if check.self_repeats:
            failures.append("empty_despite_self_repeats")
    elif cycle_case:
        if len(h) != check.k:
            failures.append("self_repeat_cycle_order")
        try:
            shape = [len(c) for c in _cycles(tuple(nbrs[0] for nbrs in sub.out))]
        except ValueError:
            shape = None
        if shape != [check.k]:
            failures.append("self_repeat_cycle_shape")
    else:
        degs = {len(nbrs) for nbrs in sub.out}
        if len(degs) != 1 or {len(ins) for ins in sub.in_lists()} != degs:
            failures.append("diregular")
        else:
            d_prime = degs.pop()
            if d_prime > check.d or d_prime < 2:
                failures.append("degree_range")
            if sub.n != sum(d_prime**t for t in range(1, check.k + 1)):
                failures.append("order")
            diameter = _diameter(sub)
            if diameter != check.k:
                failures.append("diameter")
    return SubdigraphReport(h, cycle_case, d_prime, diameter, tuple(failures))


# ---------------------------------------------------------------------------
# In-neighbourhood case analysis
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class InNeighborhoodProfile:
    """Case classification of a vertex by how arcs re-enter it."""

    v: int
    out_neighbors: tuple[int, ...]  # v_1 .. v_d, ascending
    T_sets: tuple[frozenset[int], ...]
    n_counts: tuple[int, ...]
    case: str  # "I_i" | "I_ii" | "II_i" | "II_ii"
    back_vertices: tuple[tuple[int, ...], ...]  # per j: the z with (z,v) arcs
    W1_sets: tuple[frozenset[int], ...]


def _bfs_dist(g: Digraph, s: int) -> list[int]:
    dist = [-1] * g.n
    dist[s] = 0
    queue = [s]
    for u in queue:
        for w in g.out[u]:
            if dist[w] < 0:
                dist[w] = dist[u] + 1
                queue.append(w)
    return dist


def profile_in_neighborhood(
    g: Digraph, check: MooreCheck, v: int
) -> InNeighborhoodProfile:
    """Compute T(v_j), n(j), W_1(j) and classify v into case I.i/I.ii/II.i/II.ii.

    T(v_j) is the set of vertices reached by some shortest walk from v whose
    second vertex is v_j; since dist(v, v_j) = 1, "passes through v_j" is the
    same as "starts v -> v_j".  Verified side conditions: the T-sets overlap
    in at most one pair, and there only in {r(v)}; 1 <= n(j) <= 2 with
    n(j) = 2 iff v = r(v_j); |W_1(j)| <= 2 with the degenerate values forcing
    the repeat coincidences from the regularity proof.
    """

    def fail(msg: str):
        raise StructuralViolation(f"vertex {v}: {msg}")

    outs = g.out[v]
    dist = g._distances
    T_sets = [
        frozenset(w for w in range(g.n) if w != v and dist[v][w] == 1 + dist[vj][w])
        for vj in outs
    ]
    r_v = check.P[v]
    overlaps = [
        (a, b)
        for a in range(len(outs))
        for b in range(a + 1, len(outs))
        if T_sets[a] & T_sets[b]
    ]
    if len(overlaps) > 1:
        fail(f"T-sets overlap at {len(overlaps)} pairs")
    if overlaps and T_sets[overlaps[0][0]] & T_sets[overlaps[0][1]] != {r_v}:
        fail(f"T-set overlap at pair {overlaps[0]} is not {{r(v)}}")

    ins = {z for z in range(g.n) if v in g.out[z]}
    backs = tuple(tuple(sorted(T & ins)) for T in T_sets)
    n_counts = tuple(len(b) for b in backs)
    for j, nj in enumerate(n_counts):
        if nj < 1 or nj > 2:
            fail(f"n({j + 1}) = {nj} outside {{1,2}}")
        if (nj == 2) != (check.P[outs[j]] == v):
            fail(f"n({j + 1}) = {nj} but v = r(v_{j + 1}) is {check.P[outs[j]] == v}")

    doubled = [j for j, nj in enumerate(n_counts) if nj == 2]
    if not doubled:
        singles = [b[0] for b in backs]
        if len(set(singles)) != len(singles):
            fail("case I with coinciding back vertices")
        case = "I_i" if r_v == v else "I_ii"
    else:
        h = doubled[0]
        pair_eq = [
            (a, b)
            for a in range(len(outs))
            for b in range(a + 1, len(outs))
            if a != h and b != h and backs[a][0] == backs[b][0]
        ]
        shared = [
            a for a in range(len(outs)) if a != h and backs[a][0] in backs[h]
        ]
        if len(pair_eq) == 1 and not shared:
            case = "II_i"
        elif len(shared) == 1 and not pair_eq:
            case = "II_ii"
        else:
            fail(f"case II scenario counts pair_eq={len(pair_eq)} shared={len(shared)}")

    v1 = outs[0]
    W1 = tuple(frozenset(w for w in T if v1 in g.out[w]) for T in T_sets)
    for j in range(1, len(outs)):
        size = len(W1[j])
        if size > 2:
            fail(f"|W_1({j + 1})| = {size} > 2")
        if size == 2 and check.P[outs[j]] != v1:
            fail(f"|W_1({j + 1})| = 2 but v_1 != r(v_{j + 1})")
        if size == 0 and not (r_v == v and check.P[outs[j]] == outs[j]):
            fail(f"|W_1({j + 1})| = 0 without the forced self-repeats")
    return InNeighborhoodProfile(v, outs, tuple(T_sets), n_counts, case, backs, W1)


# ---------------------------------------------------------------------------
# Walk fixing and R-sets
# ---------------------------------------------------------------------------


def check_fixed_walks(g: Digraph, check: MooreCheck) -> bool:
    """For every automorphism phi = r^m and every pair of distinct phi-fixed
    vertices u, v: each walk of length <= k from u to v is fixed by phi^2,
    that is, lies inside the phi^2-fixed vertices."""
    for m in range(1, check.period + 1):
        phi = check.r_power(m)
        fixed2 = tuple(v for v in range(g.n) if phi[phi[v]] == v)
        pair = _leaving_walk(g, check.k, fixed2, {v for v in fixed2 if phi[v] == v})
        if pair is not None:
            raise StructuralViolation(
                f"a walk of length <= {check.k} from {pair[0]} to {pair[1]} joins"
                f" r^{m}-fixed vertices but moves under the square"
            )
    return True


def _walk_ends(g: Digraph, u: int, length: int) -> Counter:
    """End vertex -> number of walks of exactly `length` arcs from u, found by
    extending every walk one arc at a time along the out-lists."""
    ends = Counter({u: 1})
    for _ in range(length):
        step = Counter()
        for v, walks in ends.items():
            for w in g.out[v]:
                step[w] += walks
        ends = step
    return ends


def r_set_sizes(g: Digraph, check: MooreCheck, ell: int, js: Iterable[int]) -> list[int]:
    """|R_{ell,j}| for each j in js: vertices v with a walk r^j(v) -> v of
    length exactly ell.

    Per-vertex walk counts are found twice: by extending walks arc by arc
    along the out-lists and as the diagonal entries of P^j A^ell; the two
    must agree entrywise (so the walk total equals the trace).  A size
    counts vertices, which matches the trace exactly when no vertex carries
    two such walks.  The walk counts and A^ell depend on ell alone, so each
    is found once for all j.
    """
    if ell < 1 or ell > _WALK_CAP:
        raise ValueError(f"ell must be in 1..{_WALK_CAP}")
    js = tuple(js)
    if any(j < 1 for j in js):
        raise ValueError("j must be >= 1")
    Apow = np.linalg.matrix_power(g.adjacency(), ell)
    ends = [_walk_ends(g, u, ell) for u in range(g.n)]
    sizes = []
    for j in js:
        rj = check.r_power(j)
        size = 0
        for v in range(g.n):
            count = ends[rj[v]][v]
            algebraic = int(Apow[rj[v], v])
            if count != algebraic:
                raise StructuralViolation(
                    f"walk count {count} != matrix count {algebraic} at v={v},"
                    f" ell={ell}, j={j}"
                )
            size += count > 0
        sizes.append(size)
    return sizes


# ---------------------------------------------------------------------------
# Full verification battery
# ---------------------------------------------------------------------------


def run_battery(g: Digraph, d: int, k: int) -> list[tuple[str, bool, str]]:
    """Run every structural check on one instance; (name, ok, detail) rows.

    verify_moore failures raise; the battery rows cover the structural
    theorems on top of a verified instance.
    """
    check = verify_moore(g, d, k)
    rows: list[tuple[str, bool, str]] = [
        ("eq1_permutation_residual", True, f"|self-repeats| = {len(check.self_repeats)}"),
        ("repeat_is_automorphism", True, ""),
        ("trace_identities", True, ""),
    ]

    def attempt(name: str, fn) -> None:
        try:
            detail = fn()
            rows.append((name, True, detail if isinstance(detail, str) else ""))
        except StructuralViolation as exc:
            rows.append((name, False, str(exc)))

    attempt("fixed_walks_square", lambda: check_fixed_walks(g, check))

    seen_vertex_sets = set()
    for alpha in range(2, g.n + 1):
        h = build_H_alpha(g, check, alpha)
        if h in seen_vertex_sets:
            continue
        seen_vertex_sets.add(h)
        report = check_subdigraph_theorem(g, check, alpha)
        shape = "C_k" if report.is_cycle_case else f"d'={report.d_prime}"
        rows.append(
            (
                f"H_alpha[{alpha}]",
                report.passed,
                f"{len(report.vertices)} vertices, {shape}"
                + ("" if report.passed else f", failed: {','.join(report.failures)}"),
            )
        )

    def profiles() -> str:
        cases = {}
        for v in range(g.n):
            profile = profile_in_neighborhood(g, check, v)
            cases[profile.case] = cases.get(profile.case, 0) + 1
        return " ".join(f"{c}:{cases[c]}" for c in sorted(cases))

    attempt("in_neighborhood_cases", profiles)

    def rsets() -> str:
        total = sum(sum(r_set_sizes(g, check, ell, range(1, g.n + 1))) for ell in range(1, 4 + 1))
        return f"sum over ell<=4, j<=n: {total}"

    attempt("r_set_trace_agreement", rsets)
    return rows
