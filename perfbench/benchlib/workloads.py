"""Seeded request generators for the four benchmark workloads.

Every workload is an endless stream of ``pnc`` argv lists drawn from finite
pools, so each request except ``encode`` has a recorded reference output
(see ``make_refs.py``).  ``encode`` requests are built backwards from a
random symbol sequence, and that sequence is the expected output.

Requests come in *rounds*: each round holds a fixed multiset of request
classes in seeded order.  The class mix of a run therefore does not drift
with the seed, which keeps throughput and the latency percentiles steady
from run to run; the seed still varies every per-request parameter.
"""

from __future__ import annotations

import functools
import math
import random
from dataclasses import dataclass
from typing import Iterator

WORKLOADS = ("mc-capacity", "sync-grid", "audit", "cli-mix")

# What one unit of `work_per_s` is on each workload.
UNITS = {
    "mc-capacity": "trial x SNR solves",
    "sync-grid": "enumerated four-tuples (M_A^2 * M_B^2 per grid point)",
    "audit": "symbol pairs (M_A * M_B)",
    "cli-mix": "requests",
}

# The request class each workload is built around.
MAIN_CLASS = {
    "mc-capacity": "opt",
    "sync-grid": "sweep",
    "audit": "audit-64/256",
    "cli-mix": "encode",
}

# Length of the traced run's fixed request list: the first requests of the
# seed's stream, whole rounds after the once-per-run requests.  Each pass
# took about 6 s untraced on the 2-core VM the benchmark was tuned on, so a
# traced run, two passes in fresh workers, stays near a --trace 0 run.
TRACE_REQUESTS = {
    "mc-capacity": 6 * 8,
    "sync-grid": 2 + 6 * 2,
    "audit": 3 + 3 * 3,
    "cli-mix": 8 * 100,
}


@dataclass(frozen=True)
class Request:
    """One CLI invocation, its request class and the work units it completes."""

    cls: str
    argv: tuple[str, ...]
    units: int
    expect: str | None = None  # exact stdout, for requests built from their output

    @property
    def key(self) -> str:
        return " ".join(self.argv)


# ---------------------------------------------------------------------------
# mc-capacity: Monte Carlo MIMO capacity
# ---------------------------------------------------------------------------

MC_OPT_SHAPES = ((2, 2), (3, 3), (4, 3))
MC_ZF_SHAPES = ((2, 2), (3, 3), (4, 3), (3, 2))
MC_TRIALS = 5
MC_SNRS = 5  # the CLI's default --snr-db list
MC_SEED_POOL = range(1, 513)


def mc_argv(method: str, m: int, n: int, seed: int) -> tuple[str, ...]:
    return (
        "mimo", "--m", str(m), "--n", str(n), "--method", method,
        "--trials", str(MC_TRIALS), "--seed", str(seed),
    )


def _mc_capacity(rng: random.Random) -> Iterator[Request]:
    # Per round: opt twice on (2,2) and (3,3), once on (4,3), and one zf
    # request; zf is 1/6 of the requests and the median falls inside the
    # slow opt block rather than on a class boundary.
    seeds: list[int] = []
    while True:
        plan = [("opt", s) for s in MC_OPT_SHAPES + MC_OPT_SHAPES[:2]]
        plan.append(("zf", rng.choice(MC_ZF_SHAPES)))
        rng.shuffle(plan)
        for method, (m, n) in plan:
            if not seeds:  # without replacement; a new pass reshuffles the pool
                seeds = list(MC_SEED_POOL)
                rng.shuffle(seeds)
            yield Request(method, mc_argv(method, m, n, seeds.pop()), MC_TRIALS * MC_SNRS)


# ---------------------------------------------------------------------------
# sync-grid: misaligned-sync sweeps
# ---------------------------------------------------------------------------

SYNC_ORDERS = ((8, 32), (4, 64))  # both enumerate 65,536 four-tuples per point
SYNC_STEPS = ("0.15", "0.2", "0.25")
SYNC_FIGURE = ("figure", "sync_err")  # 4/16 at step 0.05: 441 points
SYNC_DEGENERATE = ("sync-sweep", "--ma", "32", "--mb", "64", "--step", "0.5")


def sync_points(step: str) -> int:
    n = math.floor(1 / float(step)) + 1  # as sync.sync_sweep lays out its grid
    return n * n


def sync_argv(ma: int, mb: int, step: str) -> tuple[str, ...]:
    return ("sync-sweep", "--ma", str(ma), "--mb", str(mb), "--step", step)


def _sync_grid(rng: random.Random) -> Iterator[Request]:
    once = [
        Request("figure-sync_err", SYNC_FIGURE, sync_points("0.05") * 4**2 * 16**2),
        Request("degenerate-32/64", SYNC_DEGENERATE, sync_points("0.5") * 32**2 * 64**2),
    ]
    rng.shuffle(once)
    yield from once
    while True:
        plan = [(o, s) for o in SYNC_ORDERS for s in SYNC_STEPS]
        rng.shuffle(plan)
        for (ma, mb), step in plan:
            yield Request("sweep", sync_argv(ma, mb, step), sync_points(step) * ma**2 * mb**2)


# ---------------------------------------------------------------------------
# audit: exact leakage audits
# ---------------------------------------------------------------------------

AUDIT_SCHEMES = (("nocoop", "alice"), ("nocoop", "bob"), ("coop", None))
AUDIT_MAIN = (64, 256)
AUDIT_SINGLES = ((16, 64, ("coop", None)), (32, 128, ("nocoop", "alice")), (128, 512, ("nocoop", "bob")))


def audit_argv(ma: int, mb: int, scheme: tuple[str, str | None]) -> tuple[str, ...]:
    argv = ("audit", "--ma", str(ma), "--mb", str(mb), "--scheme", scheme[0])
    return argv + ("--side", scheme[1]) if scheme[1] else argv


def _audit(rng: random.Random) -> Iterator[Request]:
    singles = [Request(f"audit-{ma}/{mb}", audit_argv(ma, mb, sc), ma * mb) for ma, mb, sc in AUDIT_SINGLES]
    rng.shuffle(singles)
    yield from singles
    ma, mb = AUDIT_MAIN
    while True:
        plan = list(AUDIT_SCHEMES)
        rng.shuffle(plan)
        for scheme in plan:
            yield Request(f"audit-{ma}/{mb}", audit_argv(ma, mb, scheme), ma * mb)


# ---------------------------------------------------------------------------
# cli-mix: short requests of every other command
# ---------------------------------------------------------------------------

MIX_ORDERS = ((4, 8), (4, 16), (8, 32), (16, 64), (32, 128), (64, 256))
MIX_SHAPES = ((2, 2), (3, 2), (3, 3), (4, 2), (4, 3), (5, 3), (6, 4))
MIX_FIGURES = ("gaps", "rays_pmf")
MIX_SYMBOLS = (100, 2000)


def _pam_points(M: int) -> range:
    return range(-(M - 1), M, 2)


@functools.lru_cache(maxsize=None)
def secret_depths(M_A: int, M_B: int, side: str) -> tuple[tuple[bool, ...], ...]:
    """Per point rank, which label depths the non-cooperative encoder reads as secret.

    Levels follow the guaranteed-entropy partition of the paper; the
    encoder reads a secret bit at depth d when every leaf below the current
    node has level >= m - d.
    """
    m_a = M_A.bit_length() - 1
    M = M_A if side == "alice" else M_B
    m = M.bit_length() - 1
    points = _pam_points(M)
    level = [0] * M
    for k in range(1, m_a - 1 if side == "alice" else m_a):
        lo, hi = M - 1 - 2 ** (k + 2), M - 1 - 2 ** (k + 1)
        for r, x in enumerate(points):
            if lo < abs(x) <= hi:
                level[r] = k
    if side == "bob":
        for r, x in enumerate(points):
            if abs(x) <= M - 2 * M_A - 1:
                level[r] = m_a
    depths = []
    for r in range(M):
        lo, hi, row = 0, M, []
        for d in range(m):
            row.append(min(level[lo:hi]) >= m - d)
            mid = (lo + hi) // 2
            lo, hi = (lo, mid) if r < mid else (mid, hi)
        depths.append(tuple(row))
    return tuple(depths)


def coop_level(x_b: int, M_A: int, M_B: int) -> int:
    """floor of Bob's guaranteed entropy at x_b, in integer arithmetic."""
    if abs(x_b) <= M_B - 2 * M_A + 1:
        return M_A.bit_length() - 1
    return ((M_B + 1 - abs(x_b)) // 2).bit_length() - 1


def _encode_nocoop(rng: random.Random, side: str) -> Request:
    ma, mb = rng.choice(MIX_ORDERS)
    M = ma if side == "alice" else mb
    m = M.bit_length() - 1
    depths = secret_depths(ma, mb, side)
    ranks = [rng.randrange(M) for _ in range(rng.randint(*MIX_SYMBOLS))]
    public, secret = [], []
    for r in ranks:
        for bit, is_secret in zip(format(r, f"0{m}b"), depths[r]):
            (secret if is_secret else public).append(bit)
    argv = (
        "encode", "--ma", str(ma), "--mb", str(mb), "--scheme", "nocoop", "--side", side,
        "--public", "".join(public), "--secret", "".join(secret),
    )
    expect = ",".join(str(2 * r - (M - 1)) for r in ranks) + "\n"
    return Request("encode", argv, 1, expect)


def _encode_coop(rng: random.Random) -> Request:
    ma, mb = rng.choice(MIX_ORDERS)
    m = ma.bit_length() - 1
    count = rng.randint(*MIX_SYMBOLS)
    levels = [coop_level(rng.choice(_pam_points(mb)), ma, mb) for _ in range(count)]
    ranks = [rng.randrange(ma) for _ in range(count)]
    labels = [format(r, f"0{m}b") for r in ranks]
    argv = (
        "encode", "--ma", str(ma), "--mb", str(mb), "--scheme", "coop",
        "--levels", ",".join(map(str, levels)),
        "--public", "".join(lab[: m - k] for lab, k in zip(labels, levels)),
        "--secret", "".join(lab[m - k :] for lab, k in zip(labels, levels)),
    )
    expect = ",".join(str(2 * r - (ma - 1)) for r in ranks) + "\n"
    return Request("encode", argv, 1, expect)


def orders_argv(cmd: str, ma: int, mb: int) -> tuple[str, ...]:
    return (cmd, "--ma", str(ma), "--mb", str(mb))


def dim_argv(m: int, n: int) -> tuple[str, ...]:
    return ("mimo", "--m", str(m), "--n", str(n), "--dim")


def _cli_mix(rng: random.Random) -> Iterator[Request]:
    kinds = ("alice", "bob", "coop", "profile", "bounds", "gaps", "rays_pmf", "dim")
    while True:
        plan = list(kinds)
        rng.shuffle(plan)
        for kind in plan:
            if kind in ("alice", "bob"):
                yield _encode_nocoop(rng, kind)
            elif kind == "coop":
                yield _encode_coop(rng)
            elif kind in ("profile", "bounds"):
                yield Request(kind, orders_argv(kind, *rng.choice(MIX_ORDERS)), 1)
            elif kind in MIX_FIGURES:
                yield Request(f"figure-{kind}", ("figure", kind), 1)
            else:
                yield Request("mimo-dim", dim_argv(*rng.choice(MIX_SHAPES)), 1)


_GENERATORS = {
    "mc-capacity": _mc_capacity,
    "sync-grid": _sync_grid,
    "audit": _audit,
    "cli-mix": _cli_mix,
}


def generate(workload: str, seed: int) -> Iterator[Request]:
    """The endless request stream of `workload` for `seed`; equal seeds give equal streams."""
    return _GENERATORS[workload](random.Random(f"{workload}:{seed}"))


def reference_argvs(workload: str) -> list[tuple[str, ...]]:
    """Every argv the workload's pools can emit that is checked against a recorded reference."""
    if workload == "mc-capacity":
        return [mc_argv("opt", m, n, s) for m, n in MC_OPT_SHAPES for s in MC_SEED_POOL] + [
            mc_argv("zf", m, n, s) for m, n in MC_ZF_SHAPES for s in MC_SEED_POOL
        ]
    if workload == "sync-grid":
        return [SYNC_FIGURE, SYNC_DEGENERATE] + [
            sync_argv(ma, mb, s) for ma, mb in SYNC_ORDERS for s in SYNC_STEPS
        ]
    if workload == "audit":
        return [audit_argv(ma, mb, sc) for ma, mb, sc in AUDIT_SINGLES] + [
            audit_argv(*AUDIT_MAIN, sc) for sc in AUDIT_SCHEMES
        ]
    return (
        [orders_argv(c, ma, mb) for c in ("profile", "bounds") for ma, mb in MIX_ORDERS]
        + [("figure", f) for f in MIX_FIGURES]
        + [dim_argv(m, n) for m, n in MIX_SHAPES]
    )
