"""Output checks that feed the benchmark's failure count.

The rules follow the repository's output gates, so that a kernel rewrite
that keeps the math does not count as a failure:

* numbers agree with the recorded reference to 1e-9 relative;
* a reference value of exactly 0.0 must stay exactly 0.0 (secrecy claims
  are exact zeros, not tolerances);
* ``mimo --method opt`` mean capacities may rise but not fall, and each
  row must be at least the row of its zf twin (same shape, trials, seed);
* ``encode`` output must equal the generated symbol sequence exactly.
"""

from __future__ import annotations

import json

from .workloads import Request

REL_TOL = 1e-9


def _number(token: str) -> float | None:
    try:
        return float(token)
    except ValueError:
        return None


def _num_error(ref: float, new: float, may_rise: bool) -> str | None:
    if ref == 0.0:
        return None if new == 0.0 else f"exact zero became {new!r}"
    if may_rise and new >= ref:
        return None
    if abs(new - ref) <= REL_TOL * abs(ref):
        return None
    return f"{new!r} differs from reference {ref!r}"


def _compare_json(ref, new, path: str) -> str | None:
    if isinstance(ref, dict):
        if not isinstance(new, dict) or ref.keys() != new.keys():
            return f"{path}: keys differ"
        for key in ref:
            error = _compare_json(ref[key], new[key], f"{path}.{key}")
            if error:
                return error
        return None
    if isinstance(ref, list):
        if not isinstance(new, list) or len(ref) != len(new):
            return f"{path}: length differs"
        for i, (r, n) in enumerate(zip(ref, new)):
            error = _compare_json(r, n, f"{path}[{i}]")
            if error:
                return error
        return None
    numeric = (int, float)
    if isinstance(ref, numeric) and not isinstance(ref, bool):
        if not isinstance(new, numeric) or isinstance(new, bool):
            return f"{path}: not a number"
        error = _num_error(float(ref), float(new), False)
        return f"{path}: {error}" if error else None
    return None if ref == new else f"{path}: {new!r} != {ref!r}"


def _csv_rows(text: str) -> list[list[str]]:
    return [line.split(",") for line in text.splitlines()]


def _compare_csv(ref: str, new: str, may_rise: bool) -> str | None:
    ref_rows, new_rows = _csv_rows(ref), _csv_rows(new)
    if len(ref_rows) != len(new_rows):
        return f"{len(new_rows)} lines, reference has {len(ref_rows)}"
    if ref_rows[0] != new_rows[0]:
        return f"header {new_rows[0]} != {ref_rows[0]}"
    for line, (r_row, n_row) in enumerate(zip(ref_rows[1:], new_rows[1:]), start=2):
        if len(r_row) != len(n_row):
            return f"line {line}: {len(n_row)} fields, reference has {len(r_row)}"
        for col, (r, n) in enumerate(zip(r_row, n_row)):
            r_num, n_num = _number(r), _number(n)
            if r_num is None or n_num is None:
                error = None if r == n else f"{n!r} != {r!r}"
            else:
                # only the capacity column of an opt request may rise
                error = _num_error(r_num, n_num, may_rise and col == len(r_row) - 1)
            if error:
                return f"line {line}: {error}"
    return None


def _zf_twin(argv: tuple[str, ...]) -> str:
    return " ".join("zf" if prev == "--method" else a for prev, a in zip(("",) + argv, argv))


def check(req: Request, output: str, refs: dict[str, str]) -> str | None:
    """Why `output` is wrong for `req`, or None when it passes."""
    if req.expect is not None:
        return None if output == req.expect else "symbols differ from the generated sequence"
    ref = refs.get(req.key)
    if ref is None:
        return "no recorded reference for this request"
    if ref.startswith("{"):
        try:
            new = json.loads(output)
        except ValueError:
            return "output is not JSON"
        return _compare_json(json.loads(ref), new, "$")
    opt = req.argv[0] == "mimo" and "opt" in req.argv
    error = _compare_csv(ref, output, may_rise=opt)
    if error or not opt:
        return error
    twin = refs.get(_zf_twin(req.argv))
    if twin is None:
        return "no recorded zf twin for this opt request"
    for line, (o_row, z_row) in enumerate(zip(_csv_rows(output)[1:], _csv_rows(twin)[1:]), start=2):
        o, z = float(o_row[-1]), float(z_row[-1])
        if o < z - REL_TOL * abs(z):
            return f"line {line}: opt capacity {o!r} below its zf twin {z!r}"
    return None
