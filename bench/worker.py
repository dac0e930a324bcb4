"""One round of a workload, run in a fresh single-threaded interpreter.

Reads a job from stdin as JSON:

    {"workload": "grid", "cells": [[3, 5], ...], "trace": false,
     "src": "/path/to/src", "stop_after_s": 150}

imports ``amdigraph`` from ``src``, runs the workload's pipeline on each
cell in order and writes one JSON object to stdout: a row per cell (seconds,
verify seconds and, where the pipeline measured it, their scale, output
bytes, digest, gate problems, machine-speed scale), the sha256 of all
output bytes in order, peak RSS, the ``conjecture_verdict`` cache counters,
the median machine-speed scale of the round (``bench/speed.py``; the
times in the rows are left unscaled) and, in traced rounds, the tracer's aggregates.  Cells
not started before ``stop_after_s`` are left out, so a much slower program
still ends in time.
"""
from __future__ import annotations

import hashlib
import json
import os
import resource
import sys
import time


def main() -> int:
    job = json.load(sys.stdin)
    src = os.path.abspath(job["src"])
    sys.path.insert(0, src)
    import amdigraph
    import amdigraph.cli  # the package does not import it; the tracer must see it
    from amdigraph import factorization

    if not os.path.abspath(amdigraph.__file__).startswith(src + os.sep):
        print(f"amdigraph imported from {amdigraph.__file__}, not {src}", file=sys.stderr)
        return 2

    import workloads
    from speed import Sampler

    tracer = None
    if job["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    pipeline = workloads.PIPELINES[job["workload"]]
    start = time.perf_counter()
    out_hash = hashlib.sha256()
    rows = []
    sampler = Sampler()
    starts = []
    for cell in job["cells"]:
        if time.perf_counter() - start > job["stop_after_s"]:
            break
        sampler.tick()
        t0 = time.perf_counter()
        starts.append(t0)
        try:
            res = pipeline(*cell)
        except Exception as exc:  # a raising cell is a failed cell, not a crash
            rows.append({"cell": cell, "error": f"{type(exc).__name__}: {exc}"})
            continue
        seconds = time.perf_counter() - t0 - res.gate_s
        data = res.text.encode()
        out_hash.update(data)
        rows.append(
            {
                "cell": cell,
                "s": seconds,
                "verify_s": res.verify_s,
                "verify_scale": res.verify_scale,
                "bytes": len(data),
                "digest": res.digest,
                "problems": res.problems,
            }
        )
    sampler.tick()  # a sample after the last cell too
    for row, t0 in zip(rows, starts):
        row["scale"] = sampler.scale_at(t0 + row.get("s", 0.0) / 2)
    info = factorization.conjecture_verdict.cache_info()
    result = {
        "rows": rows,
        "output_sha256": out_hash.hexdigest(),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "cache": {"hits": info.hits, "misses": info.misses},
        "speed_scale": sampler.scale(),
        "versions": {"python": sys.version.split()[0], "numpy": _numpy_version()},
    }
    if tracer is not None:
        result["trace"] = tracer.export()
    json.dump(result, sys.stdout)
    return 0


def _numpy_version() -> str:
    import numpy

    return numpy.__version__


if __name__ == "__main__":
    sys.exit(main())
