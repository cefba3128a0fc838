"""Record the reference outcomes that bench/run.py checks every run against.

    python3 bench/make_reference.py

Writes bench/reference.json for both sizes.  The committed file was taken
from the package as it stood when the benchmark was defined; rerun this only
for a change that is meant to alter verdicts or minima, and say so.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH]

import workloads  # noqa: E402


def main() -> int:
    work = tempfile.mkdtemp(dir=ROOT, prefix=".bench_ref-")
    out = {}
    try:
        for size in ("full", "smoke"):
            out[size] = {}
            for name, cls in workloads.WORKLOADS.items():
                wl = cls(size)
                summary = wl.summarize(wl.run(wl.reference_state(work)))
                out[size][name] = summary
                print(size, name, json.dumps(summary)[:160], flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    with open(os.path.join(BENCH, "reference.json"), "w") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
