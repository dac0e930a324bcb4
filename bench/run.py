"""amdigraph benchmark: one workload, one seed, timed or traced.

    python3 bench/run.py --workload grid --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; ``amdigraph`` is imported from ``./src``.
The seed draws the cell list from ``bench/cells.json`` (one unit per
stratum).  Every round runs that list in a fresh single-threaded
interpreter, so the ``lru_cache`` and the cyclotomic cache start cold, as
they do for a CLI user.

``--trace 0`` measures set-up (fresh interpreter to ``import amdigraph``
done, several times, median), then runs rounds while another round still
fits in ``--seconds``, at least one.  ``--trace 1`` runs the list once
untraced and once with the layer tracer (``bench/tracer.py``), reports the
per-layer metrics and the tracing overhead, and requires both rounds to
produce identical output bytes.

End-to-end timings are scaled to the reference machine speed, measured by
a fixed loop timed beside the cells (``bench/speed.py``); the run record
keeps the scale.

Every cell's output passes the workload's gate (``bench/workloads.py``) and
its decision digest must equal the pinned one in ``cells.json``; a cell that
raises or fails either check counts as failed.  The line before the last is
the run record (versions, machine, seed, cells, load, output_sha256,
failed_frac); the last line is the result as one JSON object.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from tracer import LAYERS, LEAVES, SPANS, layer_prefix, span_name  # noqa: E402
from workloads import PIPELINES  # noqa: E402
import speed  # noqa: E402

SETUP_SAMPLES = 25
RUN_LIMIT_S = 150  # no cell starts later than this; a run must end within 180 s
# one thread per process: numpy's BLAS must not fan out over the two cores
THREAD_ENV = {
    name: "1"
    for name in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "BLIS_NUM_THREADS",
        "NUMEXPR_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS",
    )
}


class BenchError(RuntimeError):
    """The benchmark cannot run here; no result is printed."""


def draw(workload: str, seed: int, table: dict) -> list[list[int]]:
    """One unit from every stratum; certify keeps sweep order (d, then k)
    so that cache reuse follows ``amd sweep``, the others are shuffled."""
    rng = random.Random(f"{workload}:{seed}")
    cells = [cell for stratum in table["strata"] for cell in rng.choice(stratum)]
    if workload == "certify":
        cells.sort()
    else:
        rng.shuffle(cells)
    return cells


def child_env() -> dict:
    env = dict(os.environ)
    env.update(THREAD_ENV)
    # import from ./src only, and keep its bytecode caches as a CLI user has them
    for name in ("PYTHONPATH", "PYTHONDONTWRITEBYTECODE"):
        env.pop(name, None)
    return env


def measure_setup(src: str, samples: int) -> tuple[list[float], float]:
    """Wall seconds from spawning a fresh interpreter to ``import amdigraph``
    done, and the machine-speed scale taken between the spawns; the first,
    untimed spawn writes the bytecode caches."""
    code = f"import sys; sys.path.insert(0, {src!r}); import amdigraph"
    out = []
    calibration = []
    for n in range(samples + 1):
        calibration.append(speed.sample())
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], env=child_env(), check=True)
        if n:
            out.append(time.perf_counter() - t0)
    return out, speed.REFERENCE_S / statistics.median(calibration)


def run_round(workload: str, cells, trace: bool, src: str, budget_s: float) -> dict:
    job = {"workload": workload, "cells": cells, "trace": trace, "src": src,
           "stop_after_s": max(budget_s, 1.0)}
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "worker.py")],
            input=json.dumps(job), capture_output=True, text=True,
            env=child_env(), timeout=budget_s + 10,
        )
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped it
        raise BenchError(f"{workload} round overran its budget") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout)


def gate(rounds: list[dict], drawn: int, digests: dict) -> tuple[int, int, list[str]]:
    """(attempted, failed, first problems) over every cell of every round.

    A cell that a round did not start before its time limit counts as
    attempted and failed, so a cut round cannot shrink the totals unnoticed.
    """
    attempted = failed = 0
    problems: list[str] = []
    for rnd in rounds:
        unrun = drawn - len(rnd["rows"])
        if unrun:
            attempted += unrun
            failed += unrun
            problems.append(f"{unrun} of {drawn} cells not started before the time limit")
        for row in rnd["rows"]:
            attempted += 1
            key = f"{row['cell'][0]},{row['cell'][1]}"
            why = row.get("error") or "; ".join(row["problems"])
            if not why and row["digest"] != digests.get(key):
                why = "decision digest differs from the pinned reference"
            if why:
                failed += 1
                if len(problems) < 5:
                    problems.append(f"{key}: {why}")
    return attempted, failed, problems


def percentile(values: list[float], q: float) -> float:
    """Harrell-Davis estimate of the q-quantile: a mean of all order statistics,
    weighted by the Beta((n+1)q, (n+1)(1-q)) mass of each rank's interval.

    Cell costs have gaps (the factor cells near the median step from 65 ms
    to 150 ms within a few ranks), so a nearest-rank quantile jumps between
    neighbours with noise that a weighted mean of them averages out.
    """
    s = np.sort(np.asarray(values, dtype=float))
    n = len(s)
    a, b = (n + 1) * q, (n + 1) * (1 - q)
    steps = 64  # midpoints per rank interval
    x = (np.arange(n * steps) + 0.5) / (n * steps)
    log_pdf = (a - 1) * np.log(x) + (b - 1) * np.log1p(-x)
    mass = np.exp(log_pdf - log_pdf.max()).reshape(n, steps).sum(axis=1)
    return float(mass @ s / mass.sum())


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(rounds: list[dict], setup: list[float], setup_scale: float) -> dict:
    """Timings are scaled to the reference machine speed (``bench/speed.py``)."""
    secs = []
    verify = []
    for rnd in rounds:
        for r in rnd["rows"]:
            if "s" in r:
                secs.append(r["s"] * r["scale"])
                verify.append(r["verify_s"] * (r.get("verify_scale") or r["scale"]))
    return {
        "setup_s": metric(statistics.median(setup) * setup_scale, "s"),
        "cells_per_s": metric(len(secs) / sum(secs), "1/s"),
        "cell_ms_p50": metric(1e3 * percentile(secs, 0.50), "ms"),
        "cell_ms_p95": metric(1e3 * percentile(secs, 0.95), "ms"),
        "verify_ms_p50": metric(1e3 * percentile(verify, 0.50), "ms"),
        "verify_ms_p95": metric(1e3 * percentile(verify, 0.95), "ms"),
        "output_bytes": metric(sum(r["bytes"] for r in rounds[0]["rows"] if "s" in r), "B"),
        "peak_rss_mb": metric(max(rnd["peak_rss_mb"] for rnd in rounds), "MB"),
    }


def per_layer(plain: dict, traced: dict) -> dict:
    """Per-layer metrics of one traced round; ``plain`` is the same list
    untraced, for the overhead."""
    trace = traced["trace"]
    edges = trace["edges"]
    out = {}

    def agg(name: str, field: str) -> float:
        return sum(e[field] for e in edges if e["span"] == name)

    module_self = {layer_prefix(m): 0.0 for m in LAYERS}
    for module, qualname in SPANS:
        name = span_name(module, qualname)
        self_s = agg(name, "wall_s") - agg(name, "child_s")
        module_self[layer_prefix(module)] += self_s
        out[f"{name}.calls"] = metric(agg(name, "calls"), "count")
        if name in LEAVES:
            out[f"{name}.self_s"] = metric(self_s, "s")
        else:
            out[f"{name}.total_s"] = metric(agg(name, "total_s"), "s")
    for prefix, value in module_self.items():
        out[f"{prefix}.self_s"] = metric(value, "s")

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    trials = [e for e in edges
              if e["span"] == "algebra.poly_divmod" and e["parent"] == "factorization._factor_over_Q"]
    n_trials = sum(e["calls"] for e in trials)
    cells = sum(1 for r in traced["rows"] if "s" in r)
    cache = traced["cache"]
    out.update({
        "gf.PolyMod.frobenius_matrix.builds": metric(trace["frobenius_builds"], "count"),
        "gf.gf_is_squarefree.false_ratio": metric(
            ratio(agg("gf.gf_is_squarefree", "hits"), agg("gf.gf_is_squarefree", "calls")), "ratio"),
        "factorization.recombination.trials": metric(n_trials, "count"),
        "factorization.recombination.hit_ratio": metric(
            ratio(sum(e["hits"] for e in trials), n_trials), "ratio"),
        "factorization.ddf_per_cell": metric(
            ratio(agg("gf.gf_distinct_degree_list", "calls"), cells), "calls/cell"),
        "factorization.conjecture_verdict.hit_ratio": metric(
            ratio(cache["hits"], cache["hits"] + cache["misses"]), "ratio"),
        "cli.serialize_certificate.bytes": metric(trace["serialized_bytes"], "B"),
        "trace.overhead_frac": metric(
            ratio(busy_seconds(traced), busy_seconds(plain)) - 1.0, "ratio"),
    })
    return out


def busy_seconds(rnd: dict) -> float:
    """Seconds spent in cells, at reference machine speed."""
    return sum(r["s"] * r["scale"] for r in rnd["rows"] if "s" in r)


def source_identity(root: str) -> dict:
    """Git SHA and dirty flag when the checkout is a repository, else null;
    always a sha256 over the files under src/, which identifies the code."""
    import hashlib

    h = hashlib.sha256()
    src = os.path.join(root, "src")
    for base, dirs, files in sorted(os.walk(src)):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            if name.endswith(".pyc"):
                continue
            path = os.path.join(base, name)
            h.update(os.path.relpath(path, root).encode() + b"\0")
            with open(path, "rb") as fh:
                h.update(fh.read())
    ident = {"git_sha": None, "git_dirty": None, "src_sha256": h.hexdigest()}
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                             text=True, timeout=10)
        if sha.returncode == 0:
            dirty = subprocess.run(["git", "status", "--porcelain", "--", "src"], cwd=root,
                                   capture_output=True, text=True, timeout=10)
            ident.update(git_sha=sha.stdout.strip(), git_dirty=bool(dirty.stdout.strip()))
    except (OSError, subprocess.TimeoutExpired):
        pass
    return ident


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(PIPELINES))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "amdigraph", "__init__.py")):
        print(f"no amdigraph sources under {src}; run from the repository root",
              file=sys.stderr)
        return 2
    with open(os.path.join(HERE, "cells.json")) as fh:
        table = json.load(fh)[args.workload]
    cells = draw(args.workload, args.seed, table)

    started = time.monotonic()
    load_start = os.getloadavg()
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "cells_drawn": len(cells),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "thread_env": THREAD_ENV,
        **source_identity(root),
        "loadavg_start": load_start,
    }
    try:
        if args.trace:
            plain = run_round(args.workload, cells, False, src, RUN_LIMIT_S / 2.5)
            left = RUN_LIMIT_S - (time.monotonic() - started)
            traced = run_round(args.workload, cells, True, src, left)
            rounds = [plain, traced]
            metrics = per_layer(plain, traced)
            same = plain["output_sha256"] == traced["output_sha256"] and (
                len(plain["rows"]) == len(traced["rows"]))
            record["absent_spans"] = traced["trace"]["absent"]
        else:
            setup, setup_scale = measure_setup(src, SETUP_SAMPLES)
            record["speed_scale_setup"] = setup_scale
            rounds = []
            t0 = time.monotonic()
            while True:
                left = RUN_LIMIT_S - (time.monotonic() - started)
                t_round = time.monotonic()
                rounds.append(run_round(args.workload, cells, False, src, left))
                spent = time.monotonic() - t_round
                if time.monotonic() - t0 + spent > args.seconds or len(rounds[-1]["rows"]) < len(cells):
                    break
            metrics = end_to_end(rounds, setup, setup_scale)
            same = len({rnd["output_sha256"] for rnd in rounds}) == 1
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    attempted, failed, problems = gate(rounds, len(cells), table["digests"])
    correct = failed == 0 and same and attempted > 0
    if not same:
        problems.append("rounds of the same cells produced different output bytes")
    record.update({
        "numpy": rounds[0]["versions"]["numpy"],
        "rounds": len(rounds),
        "cells_per_round": [len(rnd["rows"]) for rnd in rounds],
        "speed_scale": [rnd["speed_scale"] for rnd in rounds],
        "output_sha256": rounds[0]["output_sha256"],
        "failed_frac": {"value": failed / attempted if attempted else 1.0, "unit": "ratio"},
        "problems": problems,
        "loadavg_end": os.getloadavg(),
        "wall_s": time.monotonic() - started,
    })
    print(json.dumps(record))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
