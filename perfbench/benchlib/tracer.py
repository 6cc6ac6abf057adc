"""Span tracer that instruments ``pnc`` from outside the package.

Every public function of a ``pnc`` module is replaced, in every ``pnc``
namespace that binds it, by a wrapper that records a span; so is every
``PamConstellation`` method named in PAM_METHODS, on the class.  Calls from
``mimo`` into ``np.linalg`` and from ``sync`` into ``np.argsort`` are spanned
through a proxy of ``np`` installed in those two modules only.

Spans live in flat in-memory arrays (name id, start, end, parent, request
id) and are written as JSON lines when the run ends.  A span's self time
is its duration minus the durations of its direct children, less the
wrapper's own cost as measured by :func:`calibrate`: the part inside each
span, and the part each direct child adds outside its span.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import statistics
import time
from array import array
from collections import Counter

import numpy as np

MODULES = ("constellation", "bounds", "encoders", "sync", "mimo", "cli")
PAM_METHODS = ("rank", "label", "unlabel")
LINALG = ("svd", "slogdet", "solve", "inv")


def _arguments(fn, args, kwargs) -> dict:
    return inspect.signature(fn).bind(*args, **kwargs).arguments


def _optimizer_outcome(counters, fn, args, kwargs, result):
    counters["mimo.opt.runs"] += 1
    counters["mimo.opt.iterations"] += result.iterations
    counters["mimo.opt.converged"] += int(result.converged)
    counters["mimo.opt.accepted_steps"] += len(result.trace) - 1


def _sync_tuples(counters, fn, args, kwargs, result):
    a = _arguments(fn, args, kwargs)
    tuples = a["M_A"] ** 2 * a["M_B"] ** 2
    counters["sync.tuples"] += tuples
    counters["sync.bytes_computed"] += 8 * tuples  # the float64 observation table


def _audit_pairs(counters, fn, args, kwargs, result):
    a = _arguments(fn, args, kwargs)
    counters["encoders.audit.pairs"] += a["M_A"] * a["M_B"]


# Counters read from arguments or results at the end of a span.
HOOKS = {
    "mimo.optimize_precoders": _optimizer_outcome,
    "sync.ub_with_sync": _sync_tuples,
    "encoders.audit_leakage": _audit_pairs,
}


class _Namespace:
    """Attribute proxy: the given overrides, everything else from `target`."""

    def __init__(self, target, overrides: dict):
        self.__dict__.update(overrides)
        self._target = target

    def __getattr__(self, name):
        return getattr(self._target, name)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("q")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.req = array("q")
        self.request = -1  # id stamped on spans opened from now on
        self.counters: Counter = Counter()
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn):
        """`fn` with a span named `name` around every call."""
        nid = self._ids.setdefault(name, len(self._ids))
        if nid == len(self.names):
            self.names.append(name)
        names, starts, ends, parents, reqs = self.name, self.start, self.end, self.parent, self.req
        stack, clock, hook, tracer = self._stack, time.perf_counter_ns, HOOKS.get(name), self

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            reqs.append(tracer.request)
            ends.append(0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if hook is not None:
                hook(tracer.counters, fn, args, kwargs, result)
            return result

        return spanned

    def _patch(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap the pnc functions and numpy entry points; undo with :meth:`restore`."""
        pkg = importlib.import_module("pnc")
        mods = {m: importlib.import_module(f"pnc.{m}") for m in MODULES}
        wrapped: dict = {}
        for ns in (pkg, *mods.values()):
            for attr, obj in list(vars(ns).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if not obj.__module__.startswith("pnc."):
                    continue
                if obj not in wrapped:
                    wrapped[obj] = self.wrap(f"{obj.__module__[4:]}.{obj.__name__}", obj)
                self._patch(ns, attr, wrapped[obj])
        cls = mods["constellation"].PamConstellation
        for meth in PAM_METHODS:
            self._patch(cls, meth, self.wrap(f"constellation.PamConstellation.{meth}", getattr(cls, meth)))
        linalg = _Namespace(np.linalg, {f: self.wrap(f"numpy.linalg.{f}", getattr(np.linalg, f)) for f in LINALG})
        self._patch(mods["mimo"], "np", _Namespace(np, {"linalg": linalg}))
        self._patch(mods["sync"], "np", _Namespace(np, {"argsort": self.wrap("numpy.argsort", np.argsort)}))

    def restore(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def summary(self, cost: dict | None = None) -> dict:
        """Calls and self time per span name, plus the hook counters.

        With `cost` (from :func:`calibrate`), each span's self time loses
        ``cost["inside"]`` and ``cost["outside"]`` per direct child.
        """
        names = np.frombuffer(self.name, dtype=np.int64)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        dur = (np.frombuffer(self.end, dtype=np.int64) - np.frombuffer(self.start, dtype=np.int64)).astype(float)
        child = parent >= 0
        self_ns = dur - np.bincount(parent[child], weights=dur[child], minlength=len(dur))
        if cost is not None:
            self_ns -= cost["inside"] + cost["outside"] * np.bincount(parent[child], minlength=len(dur))
        k = len(self.names)
        calls = np.bincount(names, minlength=k)
        self_by_name = np.bincount(names, weights=self_ns, minlength=k)
        counters = dict(self.counters)
        cap, opt = self._ids.get("mimo.capacity"), self._ids.get("mimo.optimize_precoders")
        in_opt = 0
        if cap is not None and opt is not None:
            capacity_spans = child & (names == cap)
            in_opt = int(np.sum(names[parent[capacity_spans]] == opt))
        counters["mimo.opt.capacity_calls"] = in_opt
        return {
            "spans": len(dur),
            "calls": {n: int(calls[i]) for i, n in enumerate(self.names)},
            "self_s": {n: float(self_by_name[i]) / 1e9 for i, n in enumerate(self.names)},
            "self_sum_s": float(self_ns.sum()) / 1e9,
            "counters": counters,
        }

    def write(self, path) -> None:
        """All spans as gzipped JSON lines, times in ns from the first span."""
        t0 = self.start[0] if self.start else 0
        line = '{{"id":{},"name":"{}","start_ns":{},"end_ns":{},"parent":{},"req":{}}}\n'
        with gzip.open(path, "wt", compresslevel=1) as fh:
            for lo in range(0, len(self.start), 65536):
                fh.writelines(
                    line.format(i, self.names[self.name[i]], self.start[i] - t0, self.end[i] - t0, self.parent[i], self.req[i])
                    for i in range(lo, min(lo + 65536, len(self.start)))
                )


def calibrate(calls: int = 20_000, repeats: int = 7) -> dict:
    """Wrapper cost per span in ns, measured on a no-op function.

    ``inside`` is what the wrapper adds to a span's own duration; ``outside``
    is what a call pays before its span starts and after it ends, which
    lands in the caller's span.  Each is the best of `repeats` loops.
    """

    def noop():
        return None

    clock = time.perf_counter_ns
    bare, wrapped, inside = [], [], []
    for _ in range(repeats):
        probe = Tracer()
        spanned = probe.wrap("noop", noop)
        t0 = clock()
        for _ in range(calls):
            noop()
        t1 = clock()
        for _ in range(calls):
            spanned()
        t2 = clock()
        bare.append((t1 - t0) / calls)
        wrapped.append((t2 - t1) / calls)
        durations = np.frombuffer(probe.end, dtype=np.int64) - np.frombuffer(probe.start, dtype=np.int64)
        inside.append(float(statistics.median(durations.tolist())))
    call_ns = min(bare)
    inside_ns = max(min(inside) - call_ns, 0.0)
    return {"inside": inside_ns, "outside": max(min(wrapped) - call_ns - inside_ns, 0.0)}
