"""Benchmark of the ``pnc`` CLI.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from ``src``.
Each workload runs in a fresh worker process (``benchlib/worker.py``) that
drives ``pnc.cli.run`` in-process as a closed loop with one client, with the
BLAS thread count pinned to one.  Requests are generated from ``--seed``.
Every output is checked (``benchlib/checker.py``) against the references in
``refs/`` or, for ``encode``, against the generated symbols.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs the first
``workloads.TRACE_REQUESTS[workload]`` requests of the seed's stream twice,
each time in a fresh worker: untraced, then traced.  It reports the
per-layer metrics of the traced pass and the tracing overhead from the two
passes' ``work_per_s``, and writes the spans to
``.bench_build/perfbench/trace-<workload>-seed<N>.jsonl.gz``.

A provenance block and a metric table precede the last line of stdout,
which is one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from benchlib import stats, workloads  # noqa: E402

BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
BLAS_THREADS = "1"
SETUP_STARTS = 9
WARMUP_S = 3.0  # CPU spin in the worker before timing; see benchlib.worker.spin
TIME_LIMIT_S = 170.0  # a run must end within 180 s, set-up measurement included
OUT_DIR = ROOT / ".bench_build" / "perfbench"

# Per-layer span names reported as <name>.calls and <name>.self_s.
LAYER_FUNCTIONS = {
    "cli": ("run", "build_parser"),
    "mimo": (
        "ergodic_capacity_mc", "optimize_precoders", "capacity",
        "capacity_gradient", "zf_precoders", "nullspace_basis",
    ),
    "sync": ("sync_sweep", "ub_with_sync", "alpha_beta"),
    "encoders": ("audit_leakage", "build_partition", "encode_stream", "encode_coop", "coop_level", "gaps"),
    "bounds": ("guaranteed_entropy_pam", "ub_pam", "ub_nocoop", "compute_bounds"),
    "constellation": (
        "make_pam", "PamConstellation.label", "PamConstellation.rank",
        "PamConstellation.unlabel", "pam_sum_profile",
    ),
}
# Per-layer counters: (name, unit, better).  The traced pass runs a fixed
# request list, so a count that falls means less work for the same requests.
LAYER_COUNTERS = (
    ("mimo.opt.runs", "count", "lower"),
    ("mimo.opt.iterations", "count", "lower"),
    ("mimo.opt.converged", "count", "higher"),
    ("mimo.opt.converged_frac", "frac", "higher"),
    ("mimo.opt.accepted_steps", "count", "lower"),
    ("mimo.opt.capacity_calls", "count", "lower"),
    ("mimo.opt.accept_ratio", "frac", "higher"),
    ("mimo.linalg_s", "s", "lower"),
    ("sync.argsort_s", "s", "lower"),
    ("sync.tuples", "count", "lower"),
    ("sync.bytes_computed", "bytes", "lower"),
    ("encoders.audit.pairs", "count", "lower"),
    ("trace.overhead_frac", "frac", "lower"),
    ("trace.untraced_work_per_s", "1/s", "higher"),
    ("trace.traced_work_per_s", "1/s", "higher"),
)


def per_layer_spec() -> list[tuple[str, str, str]]:
    """Every per-layer metric as (name, unit, better), in report order."""
    spec = []
    for module, functions in LAYER_FUNCTIONS.items():
        spec.append((f"{module}.self_s", "s", "lower"))
        for fn in functions:
            spec += [(f"{module}.{fn}.calls", "count", "lower"), (f"{module}.{fn}.self_s", "s", "lower")]
    return spec + list(LAYER_COUNTERS)


END_TO_END = (
    ("setup_s", "s"),
    ("work_per_s", "1/s"),
    ("req_p50_ms", "ms"),
    ("req_tail_ms", "ms"),
    ("peak_rss_mb", "MiB"),
    ("ok_frac", "frac"),
)


class BenchError(RuntimeError):
    pass


def _child(cmd: list[str], env: dict, deadline: float) -> str:
    """stdout of `cmd`; the child is killed and reaped if it outlives `deadline`."""
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=max(deadline - time.monotonic(), 1.0),
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{cmd[1:3]} did not finish before the run's time limit") from exc
    if proc.returncode != 0:
        raise BenchError(f"{cmd[1:3]} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return proc.stdout


def child_env(*paths: Path) -> dict:
    env = dict(os.environ)
    env.update({var: BLAS_THREADS for var in BLAS_VARS})
    env["PYTHONPATH"] = os.pathsep.join(str(p) for p in paths)
    env["PYTHONHASHSEED"] = "0"
    return env


def measure_setup(deadline: float) -> list[float]:
    """Seconds a fresh interpreter takes to import pnc.cli, over SETUP_STARTS starts.

    One extra start goes first and is not counted: it may compile bytecode.
    """
    code = "import time; t = time.perf_counter(); import pnc.cli; print(time.perf_counter() - t)"
    env = child_env(ROOT / "src")
    return [float(_child([sys.executable, "-c", code], env, deadline)) for _ in range(SETUP_STARTS + 1)][1:]


def run_worker(workload: str, seed: int, seconds: float | None, requests: int | None,
               trace_path, deadline: float) -> dict:
    cfg = {"workload": workload, "seed": seed, "seconds": seconds, "requests": requests, "warmup_s": WARMUP_S,
           "refs_path": str(HERE / "refs" / f"{workload}.json"),
           "trace_path": str(trace_path) if trace_path else None}
    cmd = [sys.executable, "-m", "benchlib.worker", json.dumps(cfg)]
    return json.loads(_child(cmd, child_env(ROOT / "src", HERE), deadline))


def source_provenance() -> dict:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
            commit = proc.stdout.strip() or None
        except OSError:  # no git on this machine
            pass
    return {"git_commit": commit or "unavailable (not a git checkout)", "src_sha256": digest.hexdigest()}


def passing_units(rows) -> int:
    return sum(units for _, reason, _, units, _ in rows if reason is None)


def end_to_end(run: dict, setup: list[float]) -> tuple[dict, dict]:
    rows = run["rows"]
    latencies = [row[0] for row in rows]
    tail = stats.tail(latencies)
    if tail is None:  # too few requests for 10 beyond: report the maximum
        tail = (max(latencies), 100.0, len(latencies))
    failed = sum(row[1] is not None for row in rows)
    values = {
        "setup_s": statistics.median(setup),
        "work_per_s": work_per_s(run),
        "req_p50_ms": statistics.median(latencies) * 1e3,
        "req_tail_ms": tail[0] * 1e3,
        "peak_rss_mb": run["maxrss_kb"] / 1024,
        "ok_frac": 1 - failed / len(rows),
    }
    info = {
        "req_tail": {"percentile": round(tail[1], 2), "samples": tail[2], "beyond": min(stats.TAIL_BEYOND, tail[2] - 1)},
        "setup_starts_s": setup,
    }
    return values, info


def work_per_s(run: dict) -> float:
    return passing_units(run["rows"]) / run["busy_s"]


def per_layer(run: dict, base: dict) -> dict:
    """Per-layer metrics of the traced pass `run`; `base` is the untraced pass."""
    summary = run["trace"]
    calls, self_s, counters = summary["calls"], summary["self_s"], summary["counters"]
    values = {}
    for module, functions in LAYER_FUNCTIONS.items():
        values[f"{module}.self_s"] = sum(t for name, t in self_s.items() if name.startswith(module + "."))
        for fn in functions:
            values[f"{module}.{fn}.calls"] = calls.get(f"{module}.{fn}", 0)
            values[f"{module}.{fn}.self_s"] = self_s.get(f"{module}.{fn}", 0.0)
    for name in ("runs", "iterations", "converged", "accepted_steps", "capacity_calls"):
        values[f"mimo.opt.{name}"] = counters.get(f"mimo.opt.{name}", 0)
    runs, cap_calls = values["mimo.opt.runs"], values["mimo.opt.capacity_calls"]
    values["mimo.opt.converged_frac"] = values["mimo.opt.converged"] / runs if runs else 0.0
    values["mimo.opt.accept_ratio"] = values["mimo.opt.accepted_steps"] / cap_calls if cap_calls else 0.0
    values["mimo.linalg_s"] = sum(t for name, t in self_s.items() if name.startswith("numpy.linalg."))
    values["sync.argsort_s"] = self_s.get("numpy.argsort", 0.0)
    for name in ("sync.tuples", "sync.bytes_computed", "encoders.audit.pairs"):
        values[name] = counters.get(name, 0)
    untraced, traced = work_per_s(base), work_per_s(run)
    values.update({
        "trace.overhead_frac": untraced / traced - 1,
        "trace.untraced_work_per_s": untraced,
        "trace.traced_work_per_s": traced,
    })
    return values


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "pnc" / "cli.py").is_file():
        print(f"perfbench: no pnc sources under {ROOT / 'src'}; run it from a full checkout", file=sys.stderr)
        return 2
    deadline = time.monotonic() + TIME_LIMIT_S
    w, seed = args.workload, args.seed
    trace_path = OUT_DIR / f"trace-{w}-seed{seed}.jsonl.gz" if args.trace else None
    try:
        if trace_path:
            OUT_DIR.mkdir(parents=True, exist_ok=True)
            count = workloads.TRACE_REQUESTS[w]
            base = run_worker(w, seed, None, count, None, deadline)
            run = run_worker(w, seed, None, count, trace_path, deadline)
            passes = [base, run]
        else:
            run = run_worker(w, seed, args.seconds, None, None, deadline)
            setup = measure_setup(deadline)  # after the workload, on a warm CPU
            passes = [run]
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    rows = run["rows"]
    reasons = [row[1] for p in passes for row in p["rows"]]
    failed = [r for r in reasons if r is not None]
    for reason in failed[:5]:
        print(f"perfbench: FAILED {reason}", file=sys.stderr)
    repeats = sum(row[4] for row in rows)
    provenance = {
        "workload": w, "seed": seed, "seconds": args.seconds, "trace": args.trace,
        "machine": {
            "nproc": os.cpu_count(), "usable_cpus": len(os.sched_getaffinity(0)),
            "python": run["python"], "numpy": run["numpy"], "platform": platform.platform(),
            "blas_threads": {var: BLAS_THREADS for var in BLAS_VARS},
            "probe_loops_per_s": run["probe_loops_per_s"],
        },
        "source": source_provenance(),
        "load": "closed loop, one client, one process, in-process pnc.cli.run",
        "work_unit": workloads.UNITS[w], "main_class": workloads.MAIN_CLASS[w],
        "requests": {
            "attempted": len(reasons), "failed": len(failed), "failed_frac": len(failed) / len(reasons),
            "by_class": dict(sorted(Counter(row[2] for row in rows).items())),
            "repeat_share": repeats / len(rows), "repeats": repeats,
        },
        "busy_s": run["busy_s"], "wall_s": run["wall_s"],
    }
    if trace_path:
        metrics = per_layer(run, base)
        spec = per_layer_spec()
        summary = run["trace"]
        provenance["trace"] = {
            "spans_file": trace_path.relative_to(ROOT).as_posix(),
            "requests_per_pass": count, "spans": summary["spans"],
            "span_cost_ns": summary["span_cost_ns"],
            # self times net of the calibrated span cost, against the untraced pass
            "self_sum_s": summary["self_sum_s"], "untraced_busy_s": base["busy_s"],
            "traced_busy_s": run["busy_s"],
        }
    else:
        metrics, info = end_to_end(run, setup)
        provenance.update(info)
        spec = [(name, unit, None) for name, unit in END_TO_END]

    print("provenance " + json.dumps(provenance, sort_keys=True))
    for name, unit, _ in spec:
        print(f"  {name:<48} {metrics[name]:>16.6g} {unit}")
    if not trace_path:
        tail = provenance["req_tail"]
        print(f"  failed_frac {provenance['requests']['failed_frac']:g}; "
              f"req_tail_ms is p{tail['percentile']} of {tail['samples']} requests")
    print(json.dumps({
        "correct": not failed,
        "attempted": len(reasons),
        "failed": len(failed),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit, _ in spec},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
