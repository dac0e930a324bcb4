"""Self-tests of the benchmark; run from the repository root:

    python3 -m pytest bench/test_bench.py -q

They check that a tiny run of every workload prints every metric named in
BENCHMARK.json with its unit and no failed cell, that every span fires and
nests, and that the output gate is not vacuous.
"""
from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402
import workloads  # noqa: E402
from tracer import SPANS, Tracer, span_name  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)
with open(os.path.join(HERE, "cells.json")) as _fh:
    CELLS = json.load(_fh)


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run_prints_every_metric(workload, trace, monkeypatch, capsys) -> None:
    # the first four drawn cells; the workers are still fresh interpreters
    draw = run.draw
    monkeypatch.setattr(run, "draw", lambda w, s, t: draw(w, s, t)[:4])
    monkeypatch.chdir(ROOT)
    code = run.main(["--workload", workload, "--seed", "3", "--seconds", "1",
                     "--trace", str(trace)])
    out = capsys.readouterr().out
    assert code == 0, out
    record_line, result_line = out.strip().splitlines()[-2:]
    record, result = json.loads(record_line), json.loads(result_line)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 4
    assert record["failed_frac"] == {"value": 0.0, "unit": "ratio"}
    expected = SPEC["per_layer" if trace else "end_to_end"]
    got = result["metrics"]
    assert set(got) == {m["name"] for m in expected}
    for m in expected:
        assert got[m["name"]]["unit"] == m["unit"], m["name"]
        assert isinstance(got[m["name"]]["value"], (int, float)), m["name"]


def test_cut_round_counts_unrun_cells_as_failed() -> None:
    row = {"cell": [6, 5], "s": 0.0, "verify_s": 0.0, "bytes": 1,
           "digest": CELLS["certify"]["digests"]["6,5"], "problems": []}
    attempted, failed, problems = run.gate([{"rows": [row]}], 3, CELLS["certify"]["digests"])
    assert (attempted, failed) == (3, 2), problems


@pytest.mark.parametrize("cell", [(5, 8), (3, 60)])  # reducible; irreducible by tower
def test_grid_report_is_the_cli_report(cell) -> None:
    from amdigraph import cli

    expected = json.dumps(cli._conjecture_cell(cell), indent=2) + "\n"
    assert workloads.grid_cell(*cell).text == expected


def test_draw_depends_on_seed_only() -> None:
    for workload in workloads.PIPELINES:
        table = CELLS[workload]
        first = run.draw(workload, 7, table)
        assert first == run.draw(workload, 7, table)
        assert first != run.draw(workload, 8, table)
        assert len(first) == len(table["strata"]) or workload == "certify"
        assert all(f"{a},{b}" in table["digests"] for a, b in first)


# cells that together reach every span: the tower path, the full-factor path
# with Hensel lifting, criterion-6 factoring, and each decide method
TRACE_CELLS = {
    "grid": [(3, 60), (5, 8)],
    "factor": [(5, 8), (12, 10)],
    "certify": [(6, 5), (6, 11), (2, 7)],
}


@pytest.fixture()
def tracer():
    import amdigraph.cli  # noqa: F401 - the tracer rebinds names it holds

    t = Tracer()
    t.install()
    yield t
    t.uninstall()


def test_every_span_fires_and_children_fit_in_parents(tracer: Tracer) -> None:
    from amdigraph import factorization

    factorization.conjecture_verdict.cache_clear()  # cold, so the tower path runs
    for workload, cells in TRACE_CELLS.items():
        for cell in cells:
            assert not workloads.PIPELINES[workload](*cell).problems
    data = tracer.export()
    assert data["absent"] == []
    calls = {}
    wall = {}
    child_wall = {}
    for e in data["edges"]:
        calls[e["span"]] = calls.get(e["span"], 0) + e["calls"]
        wall[e["span"]] = wall.get(e["span"], 0.0) + e["wall_s"]
        assert e["child_s"] <= e["wall_s"] + 1e-9, e
        if e["parent"] is not None:
            child_wall[e["parent"]] = child_wall.get(e["parent"], 0.0) + e["wall_s"]
    for module, qualname in SPANS:
        assert calls.get(span_name(module, qualname), 0) > 0, qualname
    for parent, seconds in child_wall.items():
        assert seconds <= wall[parent] + 1e-9, parent


def test_tracer_rebinds_imported_names_and_keeps_cache_info(tracer: Tracer) -> None:
    import amdigraph
    from amdigraph import cli, factorization, sieve

    cyclotomic = sys.modules["amdigraph.cyclotomic"]
    assert factorization.build_F is cyclotomic.build_F
    assert getattr(factorization.build_F, "__wrapped__", None) is not None
    assert sieve.conjecture_verdict is factorization.conjecture_verdict
    assert cli.decide is sieve.decide is amdigraph.decide
    assert hasattr(sieve.decide, "__wrapped__")
    assert factorization.conjecture_verdict.cache_info().maxsize is None
    tracer.uninstall()
    assert not hasattr(sieve.decide, "__wrapped__")


def test_removed_boundary_is_reported_absent(monkeypatch) -> None:
    import tracer as tracer_module

    monkeypatch.setattr(tracer_module, "SPANS", SPANS + (("factorization", "_no_such_helper"),))
    t = tracer_module.Tracer()
    t.install()
    try:
        assert t.export()["absent"] == ["factorization._no_such_helper"]
    finally:
        t.uninstall()


def test_changed_primes_used_counts_as_failed() -> None:
    from amdigraph import cli, sieve

    cert = sieve.decide(6, 5)
    assert cert.method == "ConjectureElimination"
    doc = json.loads(cli.serialize_certificate(cert, deterministic=True))
    doc["checked_i"][0]["primes_used"][0] += 2
    text = json.dumps(doc, indent=2) + "\n"
    forged = cli.parse_certificate(text)
    # a program that consistently emits the changed entry: it round-trips
    cell = workloads.check_certificate(forged, text)
    row = {"cell": [6, 5], "s": 0.0, "verify_s": cell.verify_s, "bytes": len(text),
           "digest": cell.digest, "problems": cell.problems}
    attempted, failed, problems = run.gate([{"rows": [row]}], 1, CELLS["certify"]["digests"])
    assert (attempted, failed) == (1, 1), problems

    honest = workloads.certify_cell(6, 5)
    row.update(digest=honest.digest, problems=honest.problems)
    assert run.gate([{"rows": [row]}], 1, CELLS["certify"]["digests"])[1] == 0


def test_run_refuses_a_directory_without_sources(tmp_path) -> None:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", "grid",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""
