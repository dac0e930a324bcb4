from __future__ import annotations

import json
import multiprocessing
import os
from dataclasses import replace
from pathlib import Path

import pytest

import amdigraph.cli as cli
from amdigraph.cli import main, parse_certificate, serialize_certificate
from amdigraph.digraphs import Digraph, gen_line_digraph_complete
from amdigraph.sieve import decide


def test_decide_definite_exits_zero(capsys: pytest.CaptureFixture[str]) -> None:
    assert main(["decide", "6", "11", "--deterministic"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["schema_version"] == 1
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
    # the caps keep certificates printable: json cannot print 2^20000
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


def test_decide_unknown_exits_two(
    monkeypatch: pytest.MonkeyPatch, capsys: pytest.CaptureFixture[str]
) -> None:
    fabricated = replace(decide(4, 6), verdict="Unknown", assumptions=())

    monkeypatch.setattr(cli, "decide", lambda d, k: fabricated)
    assert main(["decide", "4", "6"]) == 2
    doc = json.loads(capsys.readouterr().out)
    assert doc["verdict"] == "Unknown"


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


def test_parse_certificate_rejects_bad_documents() -> None:
    good = serialize_certificate(decide(6, 11), deterministic=True)
    doc = json.loads(good)
    doc["schema_version"] = 9
    with pytest.raises(ValueError, match="schema_version"):
        parse_certificate(json.dumps(doc))
    doc = json.loads(good)
    del doc["verdict"]
    with pytest.raises((KeyError, ValueError)):
        parse_certificate(json.dumps(doc))


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


def test_jobs_below_one_exits_one(capsys: pytest.CaptureFixture[str]) -> None:
    for jobs in ("0", "-3"):
        assert main(["conjecture", "--i", "3..4", "--k", "5..8", f"--jobs={jobs}"]) == 1
        assert main(["sweep", "--d", "6..6", "--k", "5..6", f"--jobs={jobs}"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("--jobs must be at least 1") == 2


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


def test_factor_prints_degrees(capsys: pytest.CaptureFixture[str]) -> None:
    assert main(["factor", "--i", "3", "--k", "4"]) == 0
    out = capsys.readouterr().out
    assert "degree 8" in out
    assert "verdict: Reducible" in out
    assert "factor degrees: 2 6" in out
    assert "predicted A=True B=True -> Consistent" in out


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
