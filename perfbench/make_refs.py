"""Record the reference output of every request the workload pools can emit.

Run from the repository root, once per program version that defines the
expected outputs:

    python3 perfbench/make_refs.py [workload ...]

Each workload gets ``perfbench/refs/<workload>.json``, a map from the
space-joined argv to the CLI's stdout.  The BLAS thread count is pinned to
one, as in the benchmark itself.
"""

from __future__ import annotations

import io
import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

sys.path[:0] = [str(ROOT / "src"), str(HERE)]

from benchlib import workloads  # noqa: E402


def record(workload: str) -> dict[str, str]:
    from pnc import cli

    refs = {}
    for argv in workloads.reference_argvs(workload):
        out, err = io.StringIO(), io.StringIO()
        rc = cli.run(list(argv), out=out, err=err)
        if rc != 0:
            raise SystemExit(f"{' '.join(argv)}: exit {rc}: {err.getvalue()}")
        refs[" ".join(argv)] = out.getvalue()
    return refs


def main(names: list[str]) -> None:
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"  # before pnc imports numpy
    for workload in names or workloads.WORKLOADS:
        refs = record(workload)
        path = HERE / "refs" / f"{workload}.json"
        path.parent.mkdir(exist_ok=True)
        path.write_text(json.dumps(refs, indent=0, sort_keys=True) + "\n")
        print(f"{workload}: {len(refs)} references -> {path.relative_to(ROOT)}")


if __name__ == "__main__":
    main(sys.argv[1:])
