"""Command-line surface: decisions, sweeps, factor reports, digraph oracle.

Exit codes: 0 definite verdict / success, 1 usage error, 2 Unknown or
Unresolved verdict, 3 failed oracle assertion.  All output files are
byte-deterministic under --deterministic, which zeroes the wall-clock
fields (generated_at, runtime_ms).
"""
from __future__ import annotations

import argparse
import json
import os
import sys
import time
from datetime import datetime, timezone
from pathlib import Path

from . import __version__
from .algebra import divisors as all_divisors
from .digraphs import (
    Digraph,
    NotAlmostMoore,
    NotDiregular,
    OrderMismatch,
    StructuralViolation,
    gen_line_digraph_complete,
    run_battery,
    verify_moore,
)
from .factorization import conjecture_verdict
from .sieve import Certificate, CheckedCell, decide, validate_certificate

__all__ = ["main", "serialize_certificate", "parse_certificate"]

SCHEMA_VERSION = 1

_MAX_D = 12
_MAX_K = 300
_MAX_I = 30
# inclusive (lowest, highest) value of d, i and k on the command line
_BOUNDS = {"d": (2, _MAX_D), "i": (3, _MAX_I), "k": (2, _MAX_K)}


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad arguments; the contract reserves 2 for Unknown
    def error(self, message):
        raise _UsageError(message)


# ---------------------------------------------------------------------------
# Certificate serialization
# ---------------------------------------------------------------------------


def serialize_certificate(cert: Certificate, deterministic: bool = False) -> str:
    doc = {
        "schema_version": SCHEMA_VERSION,
        "d": cert.d,
        "k": cert.k,
        "verdict": cert.verdict,
        "method": cert.method,
        "witness": cert.witness,
        "ell_max": cert.ell_max,
        "trace_rows": [
            [ell, dpow, list(svals)] for ell, dpow, svals in cert.trace_rows
        ],
        "checked_i": [
            {
                "i": cell.i,
                "predicted": {
                    "A": cell.predicted_reducible_a,
                    "B": cell.predicted_reducible_b,
                },
                "observed_degrees": list(cell.observed_degrees),
                "primes_used": list(cell.primes_used),
            }
            for cell in cert.checked_i
        ],
        "assumptions": list(cert.assumptions),
        "tool_version": __version__,
    }
    if not deterministic:
        doc["generated_at"] = datetime.now(timezone.utc).isoformat()
    return json.dumps(doc, indent=2) + "\n"


def parse_certificate(text: str) -> Certificate:
    doc = json.loads(text)
    if doc.get("schema_version") != SCHEMA_VERSION:
        raise ValueError(f"unsupported schema_version {doc.get('schema_version')}")
    k = doc["k"]
    return Certificate(
        d=doc["d"],
        k=k,
        verdict=doc["verdict"],
        method=doc["method"],
        witness=doc["witness"],
        ell_max=doc["ell_max"],
        divisors=tuple(n for n in all_divisors(k) if n > 1),
        trace_rows=tuple(
            (ell, dpow, tuple(svals)) for ell, dpow, svals in doc["trace_rows"]
        ),
        checked_i=tuple(
            CheckedCell(
                i=cell["i"],
                predicted_reducible_a=cell["predicted"]["A"],
                predicted_reducible_b=cell["predicted"]["B"],
                observed_degrees=tuple(cell["observed_degrees"]),
                primes_used=tuple(cell["primes_used"]),
            )
            for cell in doc["checked_i"]
        ),
        assumptions=tuple(doc["assumptions"]),
    )


# ---------------------------------------------------------------------------
# Shared helpers
# ---------------------------------------------------------------------------


def _parse_range(spec: str) -> tuple[int, int]:
    """'LO..HI' inclusive; a bare integer means a single value."""
    if ".." in spec:
        lo_s, hi_s = spec.split("..", 1)
    else:
        lo_s = hi_s = spec
    try:
        lo, hi = int(lo_s), int(hi_s)
    except ValueError:
        raise _UsageError(f"bad range {spec!r}, expected LO..HI") from None
    if lo > hi:
        raise _UsageError(f"empty range {spec!r}: LO must not exceed HI")
    return lo, hi


def _check_bounds(cmd: str, **ranges: tuple[int, int]) -> None:
    # bounded work and output: a certificate holds every d^ell row exactly,
    # and json refuses to print an int of more than 4300 digits; factoring
    # F_{i,k} slows fast in i and k; an oracle instance has d(d+1) vertices
    if any(lo < _BOUNDS[n][0] or hi > _BOUNDS[n][1] for n, (lo, hi) in ranges.items()):
        caps = " and ".join(f"{_BOUNDS[n][0]} <= {n} <= {_BOUNDS[n][1]}" for n in ranges)
        raise _UsageError(f"{cmd} requires {caps}")


def _write_or_print(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text)


def _map_cells(fn, cells, jobs: int):
    if jobs < 1:
        raise _UsageError("--jobs must be at least 1")
    workers = min(jobs, len(cells), os.cpu_count() or 1)
    if workers > 1:
        from multiprocessing import Pool

        with Pool(workers) as pool:
            return pool.map(fn, cells)
    return [fn(cell) for cell in cells]


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _cmd_decide(args) -> int:
    _check_bounds("decide", d=(args.d, args.d), k=(args.k, args.k))
    cert = decide(args.d, args.k)
    validate_certificate(cert)
    text = serialize_certificate(cert, deterministic=args.deterministic)
    _write_or_print(text, args.out)
    if args.out is not None:
        witness = f" witness={cert.witness}" if cert.witness is not None else ""
        print(f"({args.d},{args.k}): {cert.verdict} [{cert.method}{witness}]")
    return 0 if cert.verdict != "Unknown" else 2


def _conjecture_cell(cell: tuple[int, int]) -> dict:
    i, k = cell
    v = conjecture_verdict(i, k)
    return {
        "i": i,
        "k": k,
        "degree": v.observed.degree,
        "verdict": v.observed.verdict,
        "factor_degrees": list(v.observed.factor_degrees),
        "certificate_kind": v.observed.certificate_kind,
        "primes_used": list(v.observed.primes_used),
        "predicted": {
            "A": v.predicted_reducible_reading_A,
            "B": v.predicted_reducible_reading_B,
        },
        "match": v.match,
        "match_by_reading": dict(v.match_by_reading),
    }


def _cmd_conjecture(args) -> int:
    ilo, ihi = _parse_range(args.i)
    klo, khi = _parse_range(args.k)
    _check_bounds("conjecture", i=(ilo, ihi), k=(klo, khi))
    cells = [(i, k) for i in range(ilo, ihi + 1) for k in range(klo, khi + 1)]
    rows = _map_cells(_conjecture_cell, cells, args.jobs)
    counts = {"Consistent": 0, "Inconsistent": 0, "Unresolved": 0}
    for row in rows:
        counts[row["match"]] += 1
    if args.out is not None:
        outdir = Path(args.out)
        outdir.mkdir(parents=True, exist_ok=True)
        for row in rows:
            path = outdir / f"factor_i{row['i']}_k{row['k']}.json"
            path.write_text(json.dumps(row, indent=2) + "\n")
        summary = {
            "i_range": [ilo, ihi],
            "k_range": [klo, khi],
            "cells": len(rows),
            **counts,
        }
        if not args.deterministic:
            summary["generated_at"] = datetime.now(timezone.utc).isoformat()
        (outdir / "summary.json").write_text(json.dumps(summary, indent=2) + "\n")
    print(
        f"i={ilo}..{ihi} k={klo}..{khi}: {len(rows)} cells,"
        f" {counts['Consistent']} Consistent,"
        f" {counts['Inconsistent']} Inconsistent,"
        f" {counts['Unresolved']} Unresolved"
    )
    return 0 if counts["Inconsistent"] == 0 else 2


def _sweep_cell(cell: tuple[int, int]) -> tuple[int, int, str, str, int | None, int]:
    d, k = cell
    t0 = time.perf_counter()
    cert = decide(d, k)
    ms = int((time.perf_counter() - t0) * 1000)
    return d, k, cert.verdict, cert.method, cert.witness, ms


def _cmd_sweep(args) -> int:
    dlo, dhi = _parse_range(args.d)
    klo, khi = _parse_range(args.k)
    _check_bounds("sweep", d=(dlo, dhi), k=(klo, khi))
    cells = [(d, k) for d in range(dlo, dhi + 1) for k in range(klo, khi + 1)]
    rows = _map_cells(_sweep_cell, cells, args.jobs)
    lines = ["d,k,verdict,method,witness,runtime_ms"]
    for d, k, verdict, method, witness, ms in sorted(rows):
        w = "" if witness is None else str(witness)
        lines.append(f"{d},{k},{verdict},{method},{w},{0 if args.deterministic else ms}")
    _write_or_print("\n".join(lines) + "\n", args.out)
    if args.out is not None:
        print(f"{len(rows)} cells -> {args.out}")
    return 0


def _cmd_factor(args) -> int:
    _check_bounds("factor", i=(args.i, args.i), k=(args.k, args.k))
    v = conjecture_verdict(args.i, args.k)
    rep = v.observed
    print(f"F_{{{args.i},{args.k}}}: degree {rep.degree}")
    print(f"verdict: {rep.verdict}")
    if rep.factor_degrees:
        print(f"factor degrees: {' '.join(str(x) for x in rep.factor_degrees)}")
    print(f"certificate: {rep.certificate_kind}")
    print(f"primes used: {' '.join(str(p) for p in rep.primes_used)}")
    print(
        f"conjecture: predicted A={v.predicted_reducible_reading_A}"
        f" B={v.predicted_reducible_reading_B} -> {v.match}"
    )
    return 0 if rep.verdict != "Unresolved" else 2


def _cmd_oracle(args) -> int:
    if args.oracle_cmd == "gen":
        _check_bounds("oracle gen", d=(args.d, args.d))
        g = gen_line_digraph_complete(args.d)
        _write_or_print(g.serialize(args.d, 2), args.out)
        if args.out is not None:
            print(f"(d,k)=({args.d},2) instance with {g.n} vertices -> {args.out}")
        return 0

    try:
        text = Path(args.file).read_text()
    except OSError as exc:
        raise _UsageError(f"cannot read {args.file}: {exc}") from None
    try:
        g, d, k = Digraph.parse(text)
    except ValueError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 1

    if args.oracle_cmd == "check":
        try:
            check = verify_moore(g, d, k)
        except (NotDiregular, OrderMismatch, NotAlmostMoore, StructuralViolation) as exc:
            print(f"FAIL {type(exc).__name__}: {exc}")
            return 3
        structure = check.cycle_structure()
        print(f"OK ({d},{k})-digraph on {g.n} vertices")
        print(f"self-repeats: {len(check.self_repeats)}")
        print(f"repeat cycle structure: {structure.serialize()}")
        return 0

    # report: the full structural battery
    try:
        rows = run_battery(g, d, k)
    except (NotDiregular, OrderMismatch, NotAlmostMoore, StructuralViolation) as exc:
        print(f"FAIL {type(exc).__name__}: {exc}")
        return 3
    failed = [name for name, ok, _ in rows if not ok]
    for name, ok, detail in rows:
        suffix = f"  {detail}" if detail else ""
        print(f"{'PASS' if ok else 'FAIL'} {name}{suffix}")
    if failed:
        print(f"failed assertions: {', '.join(failed)}", file=sys.stderr)
        return 3
    return 0


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def _build_parser() -> _Parser:
    parser = _Parser(prog="amd", description=__doc__)
    sub = parser.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("decide", help="decide one (d,k) cell, emit a certificate")
    p.add_argument("d", type=int, help=f"degree (2..{_MAX_D})")
    p.add_argument("k", type=int, help=f"diameter (2..{_MAX_K})")
    p.add_argument("--out", default=None)
    p.add_argument("--deterministic", action="store_true")
    p.set_defaults(fn=_cmd_decide)

    p = sub.add_parser("conjecture", help="factor F_{i,k} over a rectangle")
    p.add_argument("--i", required=True, help=f"i range LO..HI (3..{_MAX_I})")
    p.add_argument("--k", required=True, help=f"k range LO..HI (2..{_MAX_K})")
    p.add_argument("--out", default=None, help="directory for per-cell reports")
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--deterministic", action="store_true")
    p.set_defaults(fn=_cmd_conjecture)

    p = sub.add_parser("sweep", help="decide a (d,k) rectangle, emit CSV")
    p.add_argument("--d", required=True, help=f"d range LO..HI (2..{_MAX_D})")
    p.add_argument("--k", required=True, help=f"k range LO..HI (2..{_MAX_K})")
    p.add_argument("--out", default=None)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--deterministic", action="store_true")
    p.set_defaults(fn=_cmd_sweep)

    p = sub.add_parser("factor", help="factor a single F_{i,k}")
    p.add_argument("--i", type=int, required=True, help=f"3..{_MAX_I}")
    p.add_argument("--k", type=int, required=True, help=f"2..{_MAX_K}")
    p.set_defaults(fn=_cmd_factor)

    p = sub.add_parser("oracle", help="generate and verify digraph instances")
    osub = p.add_subparsers(dest="oracle_cmd", required=True)
    pg = osub.add_parser("gen", help="write a generated (d,2) instance")
    pg.add_argument("--d", type=int, required=True, help=f"2..{_MAX_D}")
    pg.add_argument("--out", default=None)
    pc = osub.add_parser("check", help="verify a digraph file")
    pc.add_argument("file")
    pr = osub.add_parser("report", help="run the full structural battery")
    pr.add_argument("file")
    p.set_defaults(fn=_cmd_oracle)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.fn(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
