from __future__ import annotations

import functools
import json
import multiprocessing
import os
from dataclasses import replace
from datetime import datetime, timezone
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import amdigraph.cli as cli
import amdigraph.digraphs as digraphs
import amdigraph.factorization as factorization
import amdigraph.sieve as sieve
from amdigraph.cli import main, parse_certificate, serialize_certificate
from amdigraph.digraphs import Digraph, gen_line_digraph_complete
from amdigraph.factorization import conjecture_verdict
from amdigraph.sieve import Certificate, CheckedCell, decide
from oracles import certificate_json


def test_decide_definite_exits_zero(capsys: pytest.CaptureFixture[str]) -> None:
    assert main(["decide", "6", "11", "--deterministic"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["schema_version"] == 2
    assert set(doc) == {
        "schema_version", "d", "k", "verdict", "method", "witness",
        "checked_i", "assumptions", "tool_version",
    }
    assert (doc["d"], doc["k"]) == (6, 11)
    assert doc["verdict"] == "NotExistSelfRepeat"
    assert doc["method"] == "PrimeWitness"
    assert doc["witness"] == 2
    assert "generated_at" not in doc


def test_decide_exists_row(capsys: pytest.CaptureFixture[str]) -> None:
    assert main(["decide", "5", "2"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["verdict"] == "Exists"
    assert doc["method"] == "Known_k2"
    assert "generated_at" in doc


def test_decide_usage_errors_exit_one(capsys: pytest.CaptureFixture[str]) -> None:
    assert main(["decide", "1", "5"]) == 1
    assert "usage error" in capsys.readouterr().err
    assert main(["decide", "4"]) == 1
    assert main(["nonsense"]) == 1
    assert main(["sweep", "--d", "6..5", "--k", "3..4"]) == 1
    assert main(["sweep", "--d", "2..13", "--k", "3..4"]) == 1


def test_decide_outside_caps_exits_one(capsys: pytest.CaptureFixture[str]) -> None:
    # the caps bound the work: d and k set how many F_{i,k} decide may factor
    for d, k in (("2", "20000"), ("13", "5"), ("6", "301")):
        assert main(["decide", d, k]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "usage error: decide requires 2 <= d <= 12 and 2 <= k <= 300" in captured.err


@pytest.mark.parametrize(
    "argv, message",
    [
        ("factor --i 3 --k 301", "factor requires 3 <= i <= 30 and 2 <= k <= 300"),
        ("factor --i 31 --k 5", "factor requires 3 <= i <= 30 and 2 <= k <= 300"),
        ("conjecture --i 3..31 --k 5..5", "conjecture requires 3 <= i <= 30 and 2 <= k <= 300"),
        ("oracle gen --d 13", "oracle gen requires 2 <= d <= 12"),
    ],
)
def test_factor_conjecture_and_gen_caps_exit_one(
    argv: str, message: str, monkeypatch: pytest.MonkeyPatch, capsys: pytest.CaptureFixture[str]
) -> None:
    def refuse(*args):
        raise AssertionError("work started outside the caps")

    monkeypatch.setattr(cli, "conjecture_verdict", refuse)
    monkeypatch.setattr(cli, "gen_line_digraph_complete", refuse)
    assert main(argv.split()) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"usage error: {message}\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        ("decide 6 11 --out {missing}/c.json", "cannot write"),
        ("sweep --d 6 --k 5 --out {missing}/s.csv", "cannot write"),
        ("oracle gen --d 3 --out {tmp}", "cannot write"),
        ("conjecture --i 3 --k 5 --out {file}", "cannot write"),
        ("oracle check {binary}", "cannot read"),
    ],
)
def test_file_errors_exit_one_with_one_line(
    argv: str, message: str, tmp_path: Path, monkeypatch: pytest.MonkeyPatch,
    capsys: pytest.CaptureFixture[str],
) -> None:
    def refuse(*args):
        raise AssertionError("work started before --out was opened")

    # the destination is opened before anything is computed
    monkeypatch.setattr(cli, "decide", refuse)
    monkeypatch.setattr(cli, "conjecture_verdict", refuse)
    monkeypatch.setattr(cli, "gen_line_digraph_complete", refuse)
    (tmp_path / "file").write_text("")
    (tmp_path / "binary").write_bytes(b"\xff\xfe")  # not UTF-8
    paths = {"missing": tmp_path / "missing", "tmp": tmp_path,
             "file": tmp_path / "file", "binary": tmp_path / "binary"}
    assert main(argv.format(**paths).split()) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"usage error: {message} ")
    assert err.count("\n") == 1


def test_decide_unknown_exits_two(
    monkeypatch: pytest.MonkeyPatch, capsys: pytest.CaptureFixture[str]
) -> None:
    fabricated = replace(decide(4, 6), verdict="Unknown", assumptions=())

    # the validator decides the cell again, so it must see the same decision
    monkeypatch.setattr(cli, "decide", lambda d, k: fabricated)
    monkeypatch.setattr(sieve, "decide", lambda d, k: fabricated)
    assert main(["decide", "4", "6"]) == 2
    doc = json.loads(capsys.readouterr().out)
    assert doc["verdict"] == "Unknown"


def test_sweep_with_an_unknown_row_exits_two(
    monkeypatch: pytest.MonkeyPatch, capsys: pytest.CaptureFixture[str]
) -> None:
    fabricated = replace(decide(4, 6), verdict="Unknown", assumptions=())
    monkeypatch.setattr(cli, "decide", lambda d, k: fabricated if (d, k) == (4, 6) else decide(d, k))
    assert main(["sweep", "--d", "4", "--k", "5..7", "--deterministic"]) == 2
    rows = capsys.readouterr().out.splitlines()[1:]
    assert [row.split(",")[2] for row in rows] == [decide(4, 5).verdict, "Unknown", decide(4, 7).verdict]


def test_conjecture_with_an_unresolved_cell_exits_two(
    monkeypatch: pytest.MonkeyPatch, capsys: pytest.CaptureFixture[str]
) -> None:
    # (5, 12) is factored in full; (5, 13) and (5, 14) take the tower, which
    # here certifies nothing
    monkeypatch.setattr(factorization, "_certify_tower", lambda i, k: (False, (101, 131)))
    monkeypatch.setattr(cli, "conjecture_verdict", conjecture_verdict.__wrapped__)  # past the cache
    assert main(["conjecture", "--i", "5", "--k", "12..14"]) == 2
    out = capsys.readouterr().out
    assert out == "i=5..5 k=12..14: 3 cells, 1 Consistent, 0 Inconsistent, 2 Unresolved\n"


def test_decide_out_file_and_round_trip(tmp_path: Path) -> None:
    out = tmp_path / "cert.json"
    assert main(["decide", "12", "200", "--deterministic", "--out", str(out)]) == 0
    cert = parse_certificate(out.read_text())
    assert cert == decide(12, 200)
    assert cert.witness == 3


def test_serialize_parse_round_trip_matrix() -> None:
    for d, k in ((7, 2), (9, 3), (2, 9), (6, 11), (4, 6), (6, 5)):
        cert = decide(d, k)
        for deterministic in (False, True):
            text = serialize_certificate(cert, deterministic=deterministic)
            assert parse_certificate(text) == cert


def test_serialize_deterministic_is_byte_stable() -> None:
    cert = decide(6, 11)
    a = serialize_certificate(cert, deterministic=True)
    b = serialize_certificate(cert, deterministic=True)
    assert a == b
    assert "generated_at" not in a


def test_serialize_certificate_is_json_dumps_on_every_cell(monkeypatch: pytest.MonkeyPatch) -> None:
    # byte for byte the indent-2 layout of the stdlib encoder, with and
    # without the timestamp, on every cell that sweep accepts
    stamp = datetime(2024, 5, 6, 7, 8, 9, 123456, tzinfo=timezone.utc)
    monkeypatch.setattr(cli, "datetime", SimpleNamespace(now=lambda tz: stamp))
    methods = set()
    for d in range(2, 13):
        for k in range(2, 301):
            cert = decide(d, k)
            methods.add(cert.method)
            assert serialize_certificate(cert, deterministic=True) == certificate_json(cert)
            assert serialize_certificate(cert) == certificate_json(cert, stamp.isoformat())
    assert methods == {
        "Known_k2", "Literature_k34", "Literature_d23", "PrimeWitness", "ConjectureElimination",
    }


def test_serialize_certificate_escapes_strings_as_json_dumps() -> None:
    cert = Certificate(
        d=5, k=7, verdict="NotExistSelfRepeat", method="PrimeWitness", witness=None,
        checked_i=(
            CheckedCell(i=3, predicted_reducible_a=True, predicted_reducible_b=False,
                        observed_degrees=(), primes_used=(101,)),
            CheckedCell(i=4, predicted_reducible_a=False, predicted_reducible_b=True,
                        observed_degrees=(2, 6), primes_used=()),
        ),
        assumptions=('a "quoted" claim', "back\\slash", "two\nlines", "tab\there", "Erdős–π"),
    )
    text = serialize_certificate(cert, deterministic=True)
    assert text == certificate_json(cert)
    assert text.isascii()
    assert parse_certificate(text) == cert


def test_certificate_size_is_bounded() -> None:
    # a certificate stores the decision, not the trace rows it rests on
    text = serialize_certificate(decide(2, 300), deterministic=True)
    assert len(text.encode()) < 1024


# decide(6, 11) as schema version 1 wrote it, trace rows included
_V1_DOCUMENT = {
    "schema_version": 1, "d": 6, "k": 11, "verdict": "NotExistSelfRepeat",
    "method": "PrimeWitness", "witness": 2, "ell_max": 2,
    "trace_rows": [[1, 6, [-1]], [2, 36, [-1]]], "checked_i": [], "assumptions": [],
    "tool_version": "0.1.0",
}


def _mutated(cert: Certificate, change) -> str:
    doc = json.loads(serialize_certificate(cert, deterministic=True))
    change(doc)
    return json.dumps(doc)


# one change to the document of decide(6, 5), and the error that names it
_BAD_DOCUMENTS = [
    (lambda doc: doc.update(schema_version=9), "unsupported schema_version 9"),
    (lambda doc: doc.update(schema_version=2.0), "field schema_version must be int"),
    (lambda doc: doc.update(schema_version="2"), "field schema_version must be int"),
    (lambda doc: doc.update(schema_version=True), "field schema_version must be int"),
    (lambda doc: doc.pop("schema_version"), "field schema_version is missing"),
    (lambda doc: doc.pop("verdict"), "field verdict is missing"),
    (lambda doc: doc.update(d="6"), "field d must be int"),
    (lambda doc: doc.update(k=True), "field k must be int"),
    (lambda doc: doc.update(witness=2.0), "field witness must be int or NoneType"),
    (lambda doc: doc.update(checked_i={}), "field checked_i must be list"),
    (lambda doc: doc.update(checked_i=[3]), "field checked_i must hold only dict"),
    (lambda doc: doc.update(assumptions=[1]), "field assumptions must hold only str"),
    (lambda doc: doc["checked_i"][0].update(i=3.0), r"field checked_i\[0\]\.i must be int"),
    (lambda doc: doc["checked_i"][1]["predicted"].update(A=1),
     r"field checked_i\[1\]\.predicted\.A must be bool"),
    (lambda doc: doc["checked_i"][2].pop("primes_used"),
     r"field checked_i\[2\]\.primes_used is missing"),
    (lambda doc: doc["checked_i"][0].update(observed_degrees=[None]),
     r"field checked_i\[0\]\.observed_degrees must hold only int"),
]


def test_parse_certificate_rejects_bad_documents() -> None:
    cert = decide(6, 5)
    for change, message in _BAD_DOCUMENTS:
        with pytest.raises(ValueError, match=message):
            parse_certificate(_mutated(cert, change))


def test_parse_certificate_rejects_v1_and_non_documents() -> None:
    with pytest.raises(ValueError, match="unsupported schema_version 1"):
        parse_certificate(json.dumps(_V1_DOCUMENT))
    for text in ("{", "", "[]", "2", '"certificate"'):
        with pytest.raises(ValueError):
            parse_certificate(text)


_FUZZ_CELLS = ((6, 5), (6, 11), (7, 2))
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)


@functools.cache
def _certificate_text(cell: tuple[int, int]) -> str:
    return serialize_certificate(decide(*cell), deterministic=True)


def _slots(node, path: tuple = ()):
    """The path to every key and list entry of a JSON document."""
    if isinstance(node, dict):
        entries = node.items()
    elif isinstance(node, list):
        entries = enumerate(node)
    else:
        return
    for key, child in entries:
        yield path + (key,)
        yield from _slots(child, path + (key,))


@given(st.sampled_from(_FUZZ_CELLS), st.data())
@settings(max_examples=300, deadline=None)
def test_parse_certificate_fuzz_raises_only_value_error(cell, data) -> None:
    doc = json.loads(_certificate_text(cell))
    path = data.draw(st.sampled_from(list(_slots(doc))))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    key = path[-1]
    action = data.draw(st.sampled_from(("delete", "replace", "rename")))
    if action == "delete":
        del parent[key]
    elif action == "rename" and isinstance(parent, dict):
        parent[data.draw(st.text(max_size=4))] = parent.pop(key)
    else:
        parent[key] = data.draw(_JSON_VALUES)
    try:
        cert = parse_certificate(json.dumps(doc, indent=2))
    except ValueError:
        return
    assert isinstance(cert, Certificate)


def test_sweep_writes_sorted_deterministic_csv(tmp_path: Path, capsys: pytest.CaptureFixture[str]) -> None:
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["sweep", "--d", "6..7", "--k", "3..12", "--deterministic", "--out", str(out1)]) == 0
    assert main(["sweep", "--d", "6..7", "--k", "3..12", "--deterministic", "--out", str(out2)]) == 0
    capsys.readouterr()
    text = out1.read_text()
    assert text == out2.read_text()
    lines = text.strip().split("\n")
    assert lines[0] == "d,k,verdict,method,witness,runtime_ms"
    cells = [tuple(map(int, ln.split(",")[:2])) for ln in lines[1:]]
    assert cells == sorted(cells)
    assert len(cells) == 20
    assert "6,11,NotExistSelfRepeat,PrimeWitness,2,0" in lines
    assert "6,5,NotExistSelfRepeat,ConjectureElimination,,0" in lines
    assert all(ln.endswith(",0") for ln in lines[1:])


def test_sweep_parallel_jobs_matches_serial(tmp_path: Path, capsys: pytest.CaptureFixture[str]) -> None:
    serial, parallel = tmp_path / "s.csv", tmp_path / "p.csv"
    assert main(["sweep", "--d", "4..5", "--k", "5..9", "--deterministic", "--out", str(serial)]) == 0
    assert main(["sweep", "--d", "4..5", "--k", "5..9", "--deterministic", "--jobs", "2", "--out", str(parallel)]) == 0
    capsys.readouterr()
    assert serial.read_text() == parallel.read_text()


def test_conjecture_parallel_jobs_matches_serial(tmp_path: Path, capsys: pytest.CaptureFixture[str]) -> None:
    serial, parallel = tmp_path / "s", tmp_path / "p"
    for jobs, out in (("1", serial), ("2", parallel)):
        assert main(["conjecture", "--i", "3..5", "--k", "5..12", "--deterministic",
                     "--jobs", jobs, "--out", str(out)]) == 0
    capsys.readouterr()
    names = sorted(p.name for p in serial.iterdir())
    assert len(names) == 3 * 8 + 1 and "summary.json" in names
    assert sorted(p.name for p in parallel.iterdir()) == names
    for name in names:
        assert (serial / name).read_bytes() == (parallel / name).read_bytes()


def test_jobs_below_one_exits_one(tmp_path: Path, capsys: pytest.CaptureFixture[str]) -> None:
    kept = tmp_path / "kept.csv"
    kept.write_text("kept\n")
    for jobs in ("0", "-3"):
        assert main(["conjecture", "--i", "3..4", "--k", "5..8", f"--jobs={jobs}"]) == 1
        assert main(["sweep", "--d", "6..6", "--k", "5..6", f"--jobs={jobs}", "--out", str(kept)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("--jobs must be at least 1") == 2
    assert kept.read_text() == "kept\n"  # refused before the file is opened


def test_jobs_start_at_most_one_worker_per_cell_and_cpu(
    monkeypatch: pytest.MonkeyPatch, capsys: pytest.CaptureFixture[str]
) -> None:
    started: list[int] = []

    class FakePool:
        # records the process count and maps in this process
        def __init__(self, processes: int) -> None:
            started.append(processes)

        def __enter__(self) -> "FakePool":
            return self

        def __exit__(self, *exc) -> None:
            return None

        def map(self, fn, cells):
            return [fn(cell) for cell in cells]

    monkeypatch.setattr(multiprocessing, "Pool", FakePool)
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    assert main(["conjecture", "--i", "3..4", "--k", "5..8", "--jobs", "100000"]) == 0  # 8 cells
    assert main(["conjecture", "--i", "3..3", "--k", "5..7", "--jobs", "100000"]) == 0  # 3 cells
    assert main(["sweep", "--d", "6..6", "--k", "5..9", "--jobs", "2"]) == 0
    monkeypatch.setattr(os, "cpu_count", lambda: None)  # unknown: run serially
    assert main(["conjecture", "--i", "3..4", "--k", "5..8", "--jobs", "100000"]) == 0
    capsys.readouterr()
    assert started == [4, 3, 2]


def test_conjecture_summary_and_cell_files(tmp_path: Path, capsys: pytest.CaptureFixture[str]) -> None:
    cells = tmp_path / "cells"
    assert main(["conjecture", "--i", "3..4", "--k", "5..7", "--out", str(cells)]) == 0
    out = capsys.readouterr().out
    assert out == "i=3..4 k=5..7: 6 cells, 6 Consistent, 0 Inconsistent, 0 Unresolved\n"
    names = sorted(p.name for p in cells.iterdir())
    assert names == [
        "factor_i3_k5.json",
        "factor_i3_k6.json",
        "factor_i3_k7.json",
        "factor_i4_k5.json",
        "factor_i4_k6.json",
        "factor_i4_k7.json",
        "summary.json",
    ]
    cell = json.loads((cells / "factor_i3_k6.json").read_text())
    assert cell["verdict"] == "Irreducible"
    assert cell["match"] == "Consistent"
    summary = json.loads((cells / "summary.json").read_text())
    assert summary["cells"] == 6
    assert summary["Consistent"] == 6
    assert summary["Inconsistent"] == 0


@pytest.mark.parametrize(
    "i, k, lines",
    [
        (3, 4, ["F_{3,4}: degree 8", "verdict: Reducible", "factor degrees: 2 6",
                "conjecture: predicted A=True B=True -> Consistent"]),
        (5, 8, ["factor degrees: 4 28", "certificate: FullFactorization"]),
        (7, 10, ["factor degrees: 60", "certificate: DegreeSetIntersection", "primes used: 113"]),
        (5, 18, ["factor degrees: 4 68", "certificate: FullFactorization", "primes used: 101"]),
    ],
    ids=["3-4", "5-8", "7-10", "5-18"],
)
def test_factor_prints_degrees(
    i: int, k: int, lines: list[str], capsys: pytest.CaptureFixture[str]
) -> None:
    assert main(["factor", "--i", str(i), "--k", str(k)]) == 0
    out = capsys.readouterr().out.splitlines()
    for line in lines:
        assert line in out


def test_oracle_gen_check_report_flow(tmp_path: Path, capsys: pytest.CaptureFixture[str]) -> None:
    path = tmp_path / "d3.dig"
    assert main(["oracle", "gen", "--d", "3", "--out", str(path)]) == 0
    capsys.readouterr()
    assert main(["oracle", "check", str(path)]) == 0
    out = capsys.readouterr().out
    assert "OK (3,2)-digraph on 12 vertices" in out
    assert "repeat cycle structure: 1:12" in out
    assert main(["oracle", "report", str(path)]) == 0
    report = capsys.readouterr().out
    assert "r_set_trace_agreement" in report
    assert "FAIL" not in report


def test_oracle_report_failed_row_exits_three(
    tmp_path: Path, capsys: pytest.CaptureFixture[str], monkeypatch: pytest.MonkeyPatch
) -> None:
    def planted(g: Digraph, check: digraphs.MooreCheck) -> bool:
        raise digraphs.StructuralViolation("planted failure")

    path = tmp_path / "d2.dig"
    path.write_text(gen_line_digraph_complete(2).serialize(2, 2))
    monkeypatch.setattr(digraphs, "check_fixed_walks", planted)
    assert main(["oracle", "report", str(path)]) == 3
    captured = capsys.readouterr()
    assert "FAIL fixed_walks_square  planted failure\n" in captured.out
    assert captured.out.count("PASS ") == 6
    assert captured.err == "failed assertions: fixed_walks_square\n"


def test_oracle_check_corrupted_file_exits_three(tmp_path: Path, capsys: pytest.CaptureFixture[str]) -> None:
    g = gen_line_digraph_complete(2)
    # degree-preserving rewire that destroys the walk partition
    broken = Digraph(6, tuple(tuple(sorted(((v + 1) % 6, (v + 2) % 6))) for v in range(6)))
    path = tmp_path / "bad.dig"
    path.write_text(broken.serialize(2, 2))
    assert main(["oracle", "check", str(path)]) == 3
    out = capsys.readouterr().out
    assert "FAIL NotAlmostMoore: residual entries outside {0,1}" in out

    short = tmp_path / "short.dig"
    short.write_text(g.serialize(2, 2).replace("6 2 2", "6 2 3"))
    assert main(["oracle", "check", str(short)]) == 3
    assert "FAIL OrderMismatch: 6 != 14" in capsys.readouterr().out


@pytest.mark.parametrize("cmd", ["check", "report"])
@pytest.mark.parametrize("header", ["6 2 1", "6 1 2", "6 2 -5"])
def test_oracle_header_below_two_exits_one(
    tmp_path: Path, capsys: pytest.CaptureFixture[str], cmd: str, header: str
) -> None:
    path = tmp_path / "low.dig"
    path.write_text(gen_line_digraph_complete(2).serialize(2, 2).replace("6 2 2", header))
    assert main(["oracle", cmd, str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "parse error: header needs d >= 2 and k >= 2" in captured.err


@pytest.mark.parametrize("k", [20000, 100000000])
def test_oracle_check_huge_k_header_exits_three(
    tmp_path: Path, capsys: pytest.CaptureFixture[str], k: int
) -> None:
    # a valid (2,2) instance under a header whose order d + ... + d^k has
    # thousands of digits: the check stops the sum once it passes n
    path = tmp_path / "huge.dig"
    path.write_text(gen_line_digraph_complete(2).serialize(2, 2).replace("6 2 2", f"6 2 {k}"))
    assert main(["oracle", "check", str(path)]) == 3
    assert f"FAIL OrderMismatch: 6 != 2 + ... + 2^{k} > 14" in capsys.readouterr().out


@pytest.mark.parametrize("cmd", ["check", "report"])
def test_oracle_refuses_more_vertices_than_gen_writes(
    tmp_path: Path, capsys: pytest.CaptureFixture[str], cmd: str, monkeypatch: pytest.MonkeyPatch
) -> None:
    # a 2-regular circulant (v -> v+1, v+2) on 2046 = 2 + ... + 2^10 vertices
    # passes the degree and order checks, and its k = 10 dense n x n products
    # ran past 300 s; it exits 1 before any matrix is built
    n = 2046
    path = tmp_path / "circulant.dig"
    circulant = Digraph(n, tuple(tuple(sorted(((v + 1) % n, (v + 2) % n))) for v in range(n)))
    path.write_text(circulant.serialize(2, 10))
    monkeypatch.setattr(Digraph, "adjacency", lambda self: pytest.fail("a matrix was built"))
    assert main(["oracle", cmd, str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "usage error: 2046 vertices, above the largest oracle gen instance (156)\n"
