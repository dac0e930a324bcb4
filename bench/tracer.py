"""Layer spans for the traced benchmark run, installed from outside the package.

The tracer wraps named functions of the ``amdigraph`` modules and rebinds
each wrapped name in every ``amdigraph.*`` module that holds it, so that
``factorization.build_F``, ``sieve.conjecture_verdict`` and ``cli.decide``
go through the same span as the defining module's own name.  Spans are not
stored one by one: every call adds to a counter keyed by (parent span,
span), which keeps millions of ``gf_divmod`` calls cheap and still gives
parent-scoped counts such as recombination trials.

A name that a refactor removes is reported in ``absent`` instead of failing.
"""
from __future__ import annotations

import contextlib
import sys
import time
import weakref

PACKAGE = "amdigraph"

# (module, qualified name) of every span; the metric prefix of a module is
# its name without the leading underscore (metric names start with a letter).
SPANS: tuple[tuple[str, str], ...] = (
    ("_gf", "PolyMod.mul"),
    ("_gf", "gf_divmod"),
    ("_gf", "gf_gcd"),
    ("_gf", "gf_gcdext"),
    ("_gf", "PolyMod.pow"),
    ("_gf", "PolyMod.frobenius_matrix"),
    ("_gf", "gf_distinct_degree_list"),
    ("_gf", "gf_equal_degree_split"),
    ("_gf", "gf_squarefree_list"),
    ("_gf", "gf_is_squarefree"),
    ("_gf", "gf_factor"),
    ("algebra", "poly_mul"),
    ("algebra", "poly_divmod"),
    ("algebra", "poly_compose"),
    ("cyclotomic", "ramanujan_sum"),
    ("cyclotomic", "build_F"),
    ("factorization", "_certify_tower"),
    ("factorization", "_hensel_lift_monic"),
    ("factorization", "_factor_over_Q"),
    ("factorization", "certify_irreducible"),
    ("factorization", "conjecture_verdict"),
    ("sieve", "build_trace_system"),
    ("sieve", "check_infeasible"),
    ("sieve", "decide"),
    ("sieve", "validate_certificate"),
    ("cli", "serialize_certificate"),
    ("cli", "parse_certificate"),
)

# spans that call no other span: they report self time, the others total time
LEAVES = frozenset({
    "gf.gf_divmod",
    "algebra.poly_mul",
    "algebra.poly_divmod",
    "cyclotomic.ramanujan_sum",
    "sieve.check_infeasible",
    "cli.serialize_certificate",
    "cli.parse_certificate",
})

LAYERS = ("_gf", "algebra", "cyclotomic", "factorization", "sieve", "cli")

_PAUSED = [0]  # above 0 while the benchmark runs checks of its own


@contextlib.contextmanager
def untraced():
    """Calls made inside are the benchmark's own checks: spans pass them through."""
    _PAUSED[0] += 1
    try:
        yield
    finally:
        _PAUSED[0] -= 1


def layer_prefix(module: str) -> str:
    return module.lstrip("_")


def span_name(module: str, qualname: str) -> str:
    return f"{layer_prefix(module)}.{qualname}"


class Tracer:
    """Aggregating span recorder; one per traced interpreter."""

    def __init__(self) -> None:
        self._stack: list[list] = []  # frames: [span name, child seconds]
        self._depth: dict[str, int] = {}
        # (parent, span) -> [calls, wall_s, outer_s, child_s]; outer_s counts
        # only the outermost activation of a recursive span
        self.stats: dict[tuple[str | None, str], list] = {}
        # (parent, span) -> calls whose outcome hook said "yes"
        self.hits: dict[tuple[str | None, str], int] = {}
        self.absent: list[str] = []
        self.frobenius_builds = 0
        self.serialized_bytes = 0
        self._frobenius_seen: weakref.WeakSet = weakref.WeakSet()
        self._restore: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def wrap(self, name: str, fn, outcome=None):
        stack, depth, stats, hits = self._stack, self._depth, self.stats, self.hits
        clock = time.perf_counter
        paused = _PAUSED

        def span(*args, **kwargs):
            if paused[0]:
                return fn(*args, **kwargs)
            parent = stack[-1] if stack else None
            frame = [name, 0.0]
            stack.append(frame)
            depth[name] = depth.get(name, 0) + 1
            result = None
            raised = True
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                raised = False
                return result
            finally:
                dt = clock() - t0
                stack.pop()
                depth[name] -= 1
                key = (parent[0] if parent else None, name)
                s = stats.get(key)
                if s is None:
                    s = stats[key] = [0, 0.0, 0.0, 0.0]
                s[0] += 1
                s[1] += dt
                if depth[name] == 0:
                    s[2] += dt
                s[3] += frame[1]
                if parent is not None:
                    parent[1] += dt
                if outcome is not None and outcome(args, result, raised):
                    hits[key] = hits.get(key, 0) + 1

        span.__wrapped__ = fn
        span.__name__ = getattr(fn, "__name__", name)
        span.__doc__ = getattr(fn, "__doc__", None)
        # lru_cache statistics stay readable through the span
        for attr in ("cache_info", "cache_clear"):
            if hasattr(fn, attr):
                setattr(span, attr, getattr(fn, attr))
        return span

    def _frobenius_outcome(self, args, result, raised) -> bool:
        ctx = args[0]
        try:
            if ctx in self._frobenius_seen:
                return False
            self._frobenius_seen.add(ctx)
        except TypeError:  # context type without weak references
            pass
        self.frobenius_builds += 1
        return False

    def _serialize_outcome(self, args, result, raised) -> bool:
        if not raised:
            self.serialized_bytes += len(result.encode())
        return False

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Wrap every span found in the already imported package modules."""
        modules = [
            m for n, m in list(sys.modules.items())
            if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))
        ]
        outcomes = {
            "gf.gf_is_squarefree": lambda a, r, raised: not raised and not r,
            # an exact division: the recombination trial found a factor
            "algebra.poly_divmod": lambda a, r, raised: (
                not raised and getattr(r[1], "is_zero", False)
            ),
            "gf.PolyMod.frobenius_matrix": self._frobenius_outcome,
            "cli.serialize_certificate": self._serialize_outcome,
        }
        for module, qualname in SPANS:
            name = span_name(module, qualname)
            owner = sys.modules.get(f"{PACKAGE}.{module}")
            *path, attr = qualname.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            original = getattr(owner, attr, None) if owner is not None else None
            if original is None or not callable(original):
                self.absent.append(name)
                continue
            wrapped = self.wrap(name, original, outcomes.get(name))
            if path:  # a method: patch the class once
                self._rebind(owner, attr, wrapped)
                continue
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        self._rebind(m, key, wrapped)

    def _rebind(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    # -- export ------------------------------------------------------------

    def export(self) -> dict:
        """JSON-ready aggregates: one row per (parent, span) edge."""
        return {
            "edges": [
                {
                    "parent": parent,
                    "span": name,
                    "calls": s[0],
                    "wall_s": s[1],
                    "total_s": s[2],
                    "child_s": s[3],
                    "hits": self.hits.get((parent, name), 0),
                }
                for (parent, name), s in self.stats.items()
            ],
            "absent": list(self.absent),
            "frobenius_builds": self.frobenius_builds,
            "serialized_bytes": self.serialized_bytes,
        }
