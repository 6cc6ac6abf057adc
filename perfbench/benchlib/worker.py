"""Workload process: runs one workload's requests in-process through ``pnc.cli.run``.

Started by ``run.py`` in a fresh interpreter with ``src`` on the path and
the BLAS thread count pinned.  It takes one JSON argument:

    {"workload": str, "seed": int, "seconds": float | null,
     "requests": int | null, "warmup_s": float, "refs_path": str,
     "trace_path": str | null}

After spinning the CPU for ``warmup_s`` it runs the request stream as a
closed loop with one client: the first ``requests`` requests of the seed's
stream or, without a count, until the time spent inside requests reaches
``seconds``.  Each output is checked against ``refs_path`` right after its
request, outside the timed region, and then dropped.  With ``trace_path``
the tracer is installed for the whole run, its per-span cost is calibrated
afterwards, and the spans are written to ``trace_path``.  The result is one
JSON object on stdout.
"""

from __future__ import annotations

import io
import itertools
import json
import platform
import resource
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import pnc.cli

from . import checker, workloads
from .tracer import Tracer, calibrate


def spin(seconds: float) -> float:
    """Keep one core busy without touching pnc; returns probe loops per second.

    On the shared machines this benchmark was tuned on, the first seconds
    of load after a pause ran 30-50% slower; spinning first keeps that ramp
    out of the measurement without warming any program cache.  The loop
    rate over the last second is a probe of the machine's speed.
    """
    end = time.perf_counter() + seconds
    loops, probe_start = 0, end - min(seconds, 1.0)
    while (now := time.perf_counter()) < end:
        sum(i * i for i in range(10_000))
        if now >= probe_start:
            loops += 1
    return loops / min(seconds, 1.0) if seconds > 0 else 0.0


def call(argv: tuple[str, ...]) -> tuple[int, float, str, str]:
    """Exit code, latency in s, stdout and stderr of one in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    try:
        rc = pnc.cli.run(list(argv), out=out, err=err)
    except Exception:  # a crashing request is a failed request; the loop goes on
        rc = -1
        err.write(traceback.format_exc())
    return rc, time.perf_counter() - t0, out.getvalue(), err.getvalue()


def checked_call(req: workloads.Request, refs: dict) -> tuple[float, str | None]:
    """Latency and failure reason (None on success); the output is dropped here."""
    rc, latency, out, err = call(req.argv)
    reason = f"exit {rc}: {err.strip()[-300:]}" if rc != 0 else checker.check(req, out, refs)
    return latency, reason


def run_requests(workload: str, seed: int, seconds: float | None, count: int | None,
                 refs: dict, tracer: Tracer | None) -> dict:
    """Rows [latency, failure reason, class, units, repeated] per request."""
    rows, seen = [], set()
    busy = 0.0
    wall0 = time.perf_counter()
    for i, req in enumerate(itertools.islice(workloads.generate(workload, seed), count)):
        if count is None and busy >= seconds:
            break
        if tracer is not None:
            tracer.request = i
        latency, reason = checked_call(req, refs)
        busy += latency
        key = hash(req.argv)
        rows.append([latency, reason, req.cls, req.units, key in seen])
        seen.add(key)
    return {
        "rows": rows,
        "busy_s": busy,
        "wall_s": time.perf_counter() - wall0,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }


def main() -> None:
    cfg = json.loads(sys.argv[1])
    tracer = Tracer() if cfg["trace_path"] else None
    probe = spin(cfg["warmup_s"])
    refs = json.loads(Path(cfg["refs_path"]).read_text())
    if tracer is not None:
        tracer.install()
    payload = run_requests(cfg["workload"], cfg["seed"], cfg["seconds"], cfg["requests"], refs, tracer)
    payload.update(python=platform.python_version(), numpy=np.__version__, probe_loops_per_s=probe)
    if tracer is not None:
        tracer.restore()
        cost = calibrate()
        payload["trace"] = {**tracer.summary(cost), "span_cost_ns": cost}
        tracer.write(cfg["trace_path"])
    json.dump(payload, sys.stdout)


if __name__ == "__main__":
    main()
