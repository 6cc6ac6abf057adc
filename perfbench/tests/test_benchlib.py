"""Tests of the benchmark itself: generator, checker, percentile helper, tracer.

Run from the repository root:  python3 -m pytest perfbench/tests
"""

from __future__ import annotations

import importlib.util
import io
import itertools
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

from benchlib import checker, stats, workloads  # noqa: E402
from benchlib.tracer import Tracer, calibrate  # noqa: E402


def _refs(workload):
    return json.loads((BENCH / "refs" / f"{workload}.json").read_text())


def _first(workload, seed, n):
    return list(itertools.islice(workloads.generate(workload, seed), n))


def _run(argv):
    from pnc import cli

    out = io.StringIO()
    assert cli.run(list(argv), out=out, err=io.StringIO()) == 0
    return out.getvalue()


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generator_is_deterministic_for_a_seed(workload):
    assert _first(workload, 7, 60) == _first(workload, 7, 60)
    assert _first(workload, 7, 60) != _first(workload, 8, 60)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_generated_request_is_checkable(workload):
    refs = _refs(workload)
    for seed in (1, 2, 3):
        for req in _first(workload, seed, 200):
            assert req.expect is not None or req.key in refs, req.key
            assert req.units >= 1


def test_mc_seeds_are_drawn_without_replacement():
    keys = [r.argv[-1] for r in _first("mc-capacity", 5, len(workloads.MC_SEED_POOL))]
    assert len(set(keys)) == len(keys)


def test_zf_share_is_at_most_a_quarter():
    classes = [r.cls for r in _first("mc-capacity", 3, 600)]
    assert classes.count("zf") <= len(classes) / 4


@pytest.mark.parametrize("seed", [1, 2])
def test_encode_requests_reproduce_their_symbols(seed):
    encodes = [r for r in _first("cli-mix", seed, 80) if r.cls == "encode"][:12]
    assert {r.argv[r.argv.index("--scheme") + 1] for r in encodes} == {"nocoop", "coop"}
    for req in encodes:
        assert checker.check(req, _run(req.argv), {}) is None


def test_checker_accepts_reference_outputs():
    for workload in ("audit", "cli-mix", "sync-grid"):
        refs = _refs(workload)
        for req in _first(workload, 1, 30):
            if req.expect is None:
                assert checker.check(req, refs[req.key], refs) is None


def _request(argv):
    return workloads.Request("x", tuple(argv.split()), 1)


def test_checker_rejects_a_perturbed_number():
    refs = _refs("cli-mix")
    req = _request("bounds --ma 8 --mb 32")
    report = json.loads(refs[req.key])
    report["ub_shared"] *= 1 + 1e-7
    assert "differs" in checker.check(req, json.dumps(report), refs)
    report["ub_shared"] /= 1 + 1e-7
    assert checker.check(req, json.dumps(report), refs) is None


def test_checker_rejects_a_perturbed_csv_number():
    refs = _refs("sync-grid")
    req = _request("sync-sweep --ma 8 --mb 32 --step 0.25")
    lines = refs[req.key].splitlines()
    dta, dtb, ub = lines[3].split(",")
    lines[3] = f"{dta},{dtb},{float(ub) * (1 + 1e-8):.12g}"
    assert "differs" in checker.check(req, "\n".join(lines) + "\n", refs)


def test_checker_rejects_a_lost_exact_zero():
    refs = _refs("audit")
    req = _request("audit --ma 64 --mb 256 --scheme nocoop --side bob")
    report = json.loads(refs[req.key])
    assert report["flat_suffix_mi"][0] == 0.0
    report["flat_suffix_mi"][0] = 1e-17
    assert "exact zero" in checker.check(req, json.dumps(report), refs)


def test_checker_rejects_a_lost_exact_zero_in_csv():
    refs = _refs("sync-grid")
    req = _request("sync-sweep --ma 32 --mb 64 --step 0.5")
    text = refs[req.key]
    assert text.endswith("1,1,0\n")
    assert "exact zero" in checker.check(req, text[:-2] + "1e-15\n", refs)


def _mc_refs():
    return _refs("mc-capacity")


def _scale_last_column(text, factor):
    lines = text.splitlines()
    rows = [lines[0]]
    for line in lines[1:]:
        snr, cap = line.split(",")
        rows.append(f"{snr},{float(cap) * factor:.12g}")
    return "\n".join(rows) + "\n"


def test_checker_rejects_a_lowered_opt_capacity():
    refs = _mc_refs()
    req = _request(" ".join(workloads.mc_argv("opt", 4, 3, 17)))
    assert checker.check(req, refs[req.key], refs) is None
    assert checker.check(req, _scale_last_column(refs[req.key], 1 + 1e-6), refs) is None
    assert "differs" in checker.check(req, _scale_last_column(refs[req.key], 1 - 1e-6), refs)


def test_checker_rejects_an_opt_row_below_its_zf_twin():
    refs = dict(_mc_refs())
    req = _request(" ".join(workloads.mc_argv("opt", 4, 3, 17)))
    twin = " ".join(workloads.mc_argv("zf", 4, 3, 17))
    refs[twin] = _scale_last_column(refs[req.key], 2.0)
    assert "zf twin" in checker.check(req, refs[req.key], refs)


def test_checker_rejects_a_lowered_zf_capacity():
    refs = _mc_refs()
    req = _request(" ".join(workloads.mc_argv("zf", 3, 2, 17)))
    assert "differs" in checker.check(req, _scale_last_column(refs[req.key], 1 + 1e-6), refs)


def test_checker_rejects_a_wrong_encode_symbol():
    req = next(r for r in _first("cli-mix", 4, 40) if r.cls == "encode")
    symbols = req.expect.strip().split(",")
    symbols[len(symbols) // 2] = str(-int(symbols[len(symbols) // 2]))
    wrong = ",".join(symbols) + "\n"
    assert wrong != req.expect
    assert checker.check(req, wrong, {}) is not None
    assert checker.check(req, req.expect, {}) is None


def test_tail_picks_highest_percentile_with_ten_beyond():
    samples = [float(v) for v in range(1, 101)]
    value, percentile, n = stats.tail(samples[::-1])
    assert (value, percentile, n) == (90.0, 90.0, 100)
    assert sum(s > value for s in samples) == 10
    value, percentile, n = stats.tail(samples[:11])
    assert (value, n) == (1.0, 11) and percentile == pytest.approx(100 / 11)
    assert stats.tail(samples[:10]) is None
    value, percentile, _ = stats.tail([float(v) for v in range(1000)])
    assert (value, percentile) == (989.0, 99.0)


def test_tracer_spans_nest_and_leave_output_unchanged():
    argv = ("audit", "--ma", "4", "--mb", "16", "--scheme", "coop")
    plain = _run(argv)
    tracer = Tracer()
    tracer.install()
    try:
        from pnc import cli

        tracer.request = 0
        traced = io.StringIO()
        assert cli.run(list(argv), out=traced, err=io.StringIO()) == 0
    finally:
        tracer.restore()
    assert traced.getvalue() == plain
    summary = tracer.summary()
    assert summary["calls"]["cli.run"] == 1
    assert summary["calls"]["encoders.audit_leakage"] == 1
    assert summary["calls"]["encoders.coop_level"] == 4 * 16
    # make_pam is reached through the bounds namespace inside coop_level
    assert summary["calls"]["constellation.make_pam"] >= 4 * 16
    assert summary["counters"]["encoders.audit.pairs"] == 4 * 16
    run_span = tracer.names.index("cli.run")
    assert tracer.name[0] == run_span and tracer.parent[0] == -1
    assert all(p < i for i, p in enumerate(tracer.parent))
    total = (tracer.end[0] - tracer.start[0]) / 1e9
    assert summary["self_sum_s"] == pytest.approx(total, rel=1e-9)
    # restore() puts every original back
    from pnc import constellation, mimo

    assert mimo.np.__name__ == "numpy"
    assert not hasattr(constellation.PamConstellation.label, "__wrapped__")


def test_tracer_subtracts_the_calibrated_span_cost():
    tracer = Tracer()
    tracer.install()
    try:
        _run(("audit", "--ma", "4", "--mb", "16", "--scheme", "nocoop", "--side", "bob"))
    finally:
        tracer.restore()
    gross, cost = tracer.summary(), {"inside": 100.0, "outside": 40.0}
    net = tracer.summary(cost)
    spans = gross["spans"]
    # every span pays `inside` once; every span but the root is a direct child once
    expected = gross["self_sum_s"] - (100.0 * spans + 40.0 * (spans - 1)) / 1e9
    assert net["self_sum_s"] == pytest.approx(expected, rel=1e-9)
    assert net["calls"] == gross["calls"]
    measured = calibrate(calls=2_000, repeats=2)
    assert set(measured) == {"inside", "outside"} and min(measured.values()) >= 0


def test_tracer_counts_optimizer_outcomes():
    tracer = Tracer()
    tracer.install()
    try:
        _run(workloads.mc_argv("opt", 4, 3, 3)[:-4] + ("--trials", "1", "--snr-db", "10"))
    finally:
        tracer.restore()
    summary = tracer.summary()
    counters = summary["counters"]
    assert counters["mimo.opt.runs"] == summary["calls"]["mimo.optimize_precoders"] == 1
    assert counters["mimo.opt.capacity_calls"] >= counters["mimo.opt.accepted_steps"] + 1
    assert summary["calls"]["numpy.linalg.slogdet"] == summary["calls"]["mimo.capacity"]


def test_benchmark_json_declares_what_the_run_reports():
    spec = importlib.util.spec_from_file_location("bench_run", BENCH / "run.py")
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in declared["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in declared["per_layer"]] == run.per_layer_spec()
    assert [w["name"] for w in declared["workloads"]] == list(workloads.WORKLOADS)
