"""Command-line surface: decisions, sweeps, factor reports, digraph oracle.

Exit codes: 0 definite verdict / success, 1 usage error, 2 a verdict left
open (an Unknown decide or sweep row, a conjecture cell that is not Consistent,
an Unresolved factor report), 3 failed oracle assertion.  All output files are
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
from typing import Callable

from . import __version__
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
from .sieve import MAX_D, Certificate, CheckedCell, decide, validate_certificate

__all__ = ["main", "serialize_certificate", "parse_certificate"]

SCHEMA_VERSION = 2

_MAX_K = 300
_MAX_I = 30
# inclusive (lowest, highest) value of d, i and k on the command line
_BOUNDS = {"d": (2, MAX_D), "i": (3, _MAX_I), "k": (2, _MAX_K)}


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad arguments; the contract reserves 2 for Unknown
    def error(self, message):
        raise _UsageError(message)


# ---------------------------------------------------------------------------
# Certificate serialization
# ---------------------------------------------------------------------------


def _array(items, pad: str) -> str:
    # a JSON array of encoded items, laid out as json.dumps(indent=2) lays
    # it out at the indentation pad; an encoded item is never empty
    body = (",\n" + pad + "  ").join(items)
    return f"[\n{pad}  {body}\n{pad}]" if body else "[]"


def _checked_cell(cell: CheckedCell) -> str:
    a = "true" if cell.predicted_reducible_a else "false"
    b = "true" if cell.predicted_reducible_b else "false"
    return (
        "{\n"
        f'      "i": {cell.i},\n'
        '      "predicted": {\n'
        f'        "A": {a},\n'
        f'        "B": {b}\n'
        "      },\n"
        f'      "observed_degrees": {_array(map(str, cell.observed_degrees), "      ")},\n'
        f'      "primes_used": {_array(map(str, cell.primes_used), "      ")}\n'
        "    }"
    )


def serialize_certificate(cert: Certificate, deterministic: bool = False) -> str:
    """The certificate as the text json.dumps(doc, indent=2) + "\\n" gives,
    byte for byte, written from the fixed schema: ints print as literals and
    each string is escaped by json.dumps on its own."""
    witness = "null" if cert.witness is None else cert.witness
    stamp = ""
    if not deterministic:
        stamp = f',\n  "generated_at": {json.dumps(datetime.now(timezone.utc).isoformat())}'
    return (
        "{\n"
        f'  "schema_version": {SCHEMA_VERSION},\n'
        f'  "d": {cert.d},\n'
        f'  "k": {cert.k},\n'
        f'  "verdict": {json.dumps(cert.verdict)},\n'
        f'  "method": {json.dumps(cert.method)},\n'
        f'  "witness": {witness},\n'
        f'  "checked_i": {_array(map(_checked_cell, cert.checked_i), "  ")},\n'
        f'  "assumptions": {_array(map(json.dumps, cert.assumptions), "  ")},\n'
        f'  "tool_version": {json.dumps(__version__)}{stamp}\n'
        "}\n"
    )


def _field(obj: dict, key: str, *kinds: type, at: str = ""):
    # json.loads yields exact types, so a bool never passes for an int here
    if key not in obj:
        raise ValueError(f"certificate field {at}{key} is missing")
    if type(obj[key]) not in kinds:
        names = " or ".join(t.__name__ for t in kinds)
        raise ValueError(f"certificate field {at}{key} must be {names}")
    return obj[key]


def _items(obj: dict, key: str, kind: type, at: str = "") -> tuple:
    values = _field(obj, key, list, at=at)
    if any(type(v) is not kind for v in values):
        raise ValueError(f"certificate field {at}{key} must hold only {kind.__name__}")
    return tuple(values)


def parse_certificate(text: str) -> Certificate:
    """Inverse of serialize_certificate; a malformed document raises
    ValueError naming the field at fault."""
    doc = json.loads(text)
    if type(doc) is not dict:
        raise ValueError("certificate must be a JSON object")
    version = _field(doc, "schema_version", int)
    if version != SCHEMA_VERSION:
        raise ValueError(f"unsupported schema_version {version}")
    cells = []
    for n, cell in enumerate(_items(doc, "checked_i", dict)):
        at = f"checked_i[{n}]."
        predicted = _field(cell, "predicted", dict, at=at)
        cells.append(
            CheckedCell(
                i=_field(cell, "i", int, at=at),
                predicted_reducible_a=_field(predicted, "A", bool, at=at + "predicted."),
                predicted_reducible_b=_field(predicted, "B", bool, at=at + "predicted."),
                observed_degrees=_items(cell, "observed_degrees", int, at),
                primes_used=_items(cell, "primes_used", int, at),
            )
        )
    return Certificate(
        d=_field(doc, "d", int),
        k=_field(doc, "k", int),
        verdict=_field(doc, "verdict", str),
        method=_field(doc, "method", str),
        witness=_field(doc, "witness", int, type(None)),
        checked_i=tuple(cells),
        assumptions=_items(doc, "assumptions", str),
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
    # bounded work: factoring F_{i,k} (factor, conjecture, and decide's
    # conjecture elimination over i < d) slows fast in i and k; an oracle
    # instance has d(d+1) vertices
    if any(lo < _BOUNDS[n][0] or hi > _BOUNDS[n][1] for n, (lo, hi) in ranges.items()):
        caps = " and ".join(f"{_BOUNDS[n][0]} <= {n} <= {_BOUNDS[n][1]}" for n in ranges)
        raise _UsageError(f"{cmd} requires {caps}")


def _output(out: str | Path | None) -> Callable[[str], None]:
    """The writer for a command's text: stdout, or the --out file, opened
    here so that a bad path fails before any cell is computed."""
    if out is None:
        return sys.stdout.write
    try:
        f = open(out, "w")
    except OSError as exc:
        raise _UsageError(f"cannot write {out}: {exc}") from None

    def write(text: str) -> None:
        try:
            with f:
                f.write(text)
        except OSError as exc:
            raise _UsageError(f"cannot write {out}: {exc}") from None

    return write


def _map_cells(fn, cells, jobs: int):
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
    write = _output(args.out)
    cert = decide(args.d, args.k)
    validate_certificate(cert)
    write(serialize_certificate(cert, deterministic=args.deterministic))
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
    outdir = None if args.out is None else Path(args.out)
    if outdir is not None:  # made before any cell is computed
        try:
            outdir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise _UsageError(f"cannot write {outdir}: {exc}") from None
    rows = _map_cells(_conjecture_cell, cells, args.jobs)
    counts = {"Consistent": 0, "Inconsistent": 0, "Unresolved": 0}
    for row in rows:
        counts[row["match"]] += 1
    if outdir is not None:
        for row in rows:
            _output(outdir / f"factor_i{row['i']}_k{row['k']}.json")(json.dumps(row, indent=2) + "\n")
        summary = {
            "i_range": [ilo, ihi],
            "k_range": [klo, khi],
            "cells": len(rows),
            **counts,
        }
        if not args.deterministic:
            summary["generated_at"] = datetime.now(timezone.utc).isoformat()
        _output(outdir / "summary.json")(json.dumps(summary, indent=2) + "\n")
    print(
        f"i={ilo}..{ihi} k={klo}..{khi}: {len(rows)} cells,"
        f" {counts['Consistent']} Consistent,"
        f" {counts['Inconsistent']} Inconsistent,"
        f" {counts['Unresolved']} Unresolved"
    )
    return 0 if counts["Consistent"] == len(rows) else 2


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
    write = _output(args.out)
    rows = _map_cells(_sweep_cell, cells, args.jobs)
    lines = ["d,k,verdict,method,witness,runtime_ms"]
    for d, k, verdict, method, witness, ms in sorted(rows):
        w = "" if witness is None else str(witness)
        lines.append(f"{d},{k},{verdict},{method},{w},{0 if args.deterministic else ms}")
    write("\n".join(lines) + "\n")
    if args.out is not None:
        print(f"{len(rows)} cells -> {args.out}")
    return 0 if all(row[2] != "Unknown" for row in rows) else 2


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
        write = _output(args.out)
        g = gen_line_digraph_complete(args.d)
        write(g.serialize(args.d, 2))
        if args.out is not None:
            print(f"(d,k)=({args.d},2) instance with {g.n} vertices -> {args.out}")
        return 0

    try:
        text = Path(args.file).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise _UsageError(f"cannot read {args.file}: {exc}") from None
    try:
        g, d, k = Digraph.parse(text)
    except ValueError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 1
    if g.n > MAX_D * (MAX_D + 1):  # verify_moore takes k dense n x n products
        raise _UsageError(f"{g.n} vertices, above the largest oracle gen instance ({MAX_D * (MAX_D + 1)})")

    # check: verification alone; report: the full structural battery
    try:
        result = (verify_moore if args.oracle_cmd == "check" else run_battery)(g, d, k)
    except (NotDiregular, OrderMismatch, NotAlmostMoore, StructuralViolation) as exc:
        print(f"FAIL {type(exc).__name__}: {exc}")
        return 3
    if args.oracle_cmd == "check":
        print(f"OK ({d},{k})-digraph on {g.n} vertices")
        print(f"self-repeats: {len(result.self_repeats)}")
        print(f"repeat cycle structure: {result.cycle_structure().serialize()}")
        return 0
    failed = [name for name, ok, _ in result if not ok]
    for name, ok, detail in result:
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
    p.add_argument("d", type=int, help=f"degree (2..{MAX_D})")
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
    p.add_argument("--d", required=True, help=f"d range LO..HI (2..{MAX_D})")
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
    pg.add_argument("--d", type=int, required=True, help=f"2..{MAX_D}")
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
        # before any --out file is opened
        if getattr(args, "jobs", 1) < 1:
            raise _UsageError("--jobs must be at least 1")
        return args.fn(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
