"""Reduced-size self-test of the benchmark itself.

    python3 bench/smoke.py

For every workload, at the smoke size: runs bench/run.py in both modes and
checks that its last line reports every check passed and names exactly the
metrics of BENCHMARK.json, each with its unit; then perturbs one reference
value and checks that the gate rejects the run.  Finally checks that a
copy holding only BENCHMARK.json and bench/ exits nonzero without a result.
Takes about a minute on two cores; exits nonzero if any check failed.
"""

from __future__ import annotations

import copy
import json
import os
import shutil
import subprocess
import sys
import tempfile

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
WORK = os.path.join(ROOT, ".bench_work")


def perturb(reference: dict) -> dict:
    """One deliberately wrong reference item per workload."""
    ref = copy.deepcopy(reference)
    limiti = ref["limiti-square"]["limiti"]["upper"]
    limiti["lam=200"] -= 1e-6 * abs(limiti["lam=200"])
    system2 = ref["system2-wedge"]["system2"]["exact"]
    system2["status"] = "PASS" if system2["status"] != "PASS" else "FAIL"
    point = next(v for k, v in ref["sweep-disc"].items() if k != "resume")
    point["exact"]["verdict"] = "extinct" if point["exact"]["verdict"] == "coexist" \
        else "coexist"
    square = ref["eig-fine"]["square"]["upper"]
    square["lambda1"] -= 1e-6 * square["lambda1"]
    return ref


def run(workload: str, trace: int, reference: str | None = None, cwd=ROOT):
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", "0",
           "--seconds", "1", "--trace", str(trace), "--size", "smoke"]
    if reference:
        cmd += ["--reference", reference]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=cwd, timeout=300)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, lines, proc.stderr


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    with open(os.path.join(BENCH, "reference.json")) as fh:
        reference = json.load(fh)
    os.makedirs(WORK, exist_ok=True)
    tmp = tempfile.mkdtemp(dir=WORK, prefix="smoke-")
    bad_ref = os.path.join(tmp, "perturbed.json")
    with open(bad_ref, "w") as fh:
        json.dump({"smoke": perturb(reference["smoke"])}, fh)
    problems = []
    try:
        for wl in spec["workloads"]:
            name = wl["name"]
            for trace, key in ((0, "end_to_end"), (1, "per_layer")):
                code, lines, err = run(name, trace)
                result = json.loads(lines[-1]) if lines else {}
                want = {m["name"]: m["unit"] for m in spec[key]}
                got = {k: v.get("unit") for k, v in result.get("metrics", {}).items()}
                if code != 0 or not result.get("correct") or result.get("failed"):
                    problems.append(f"{name} trace={trace}: exit {code}, "
                                    f"{lines[-3:]} {err[-500:]}")
                if got != want:
                    problems.append(f"{name} trace={trace}: metrics {sorted(got)} "
                                    f"differ from BENCHMARK.json {key}")
                print(f"{name} trace={trace}: exit {code}, {len(got)} metrics",
                      flush=True)
            code, lines, err = run(name, 0, bad_ref)
            result = json.loads(lines[-1]) if lines else {}
            if code == 0 or result.get("correct") is not False \
                    or not result.get("failed"):
                problems.append(f"{name}: perturbed reference was not rejected "
                                f"(exit {code})")
            print(f"{name} perturbed reference: exit {code}, "
                  f"failed {result.get('failed')}", flush=True)

        bare = os.path.join(tmp, "bare")
        shutil.copytree(BENCH, os.path.join(bare, "bench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        code, lines, err = run(spec["workloads"][0]["name"], 0, cwd=bare)
        if code == 0 or any(line.startswith("{") for line in lines):
            problems.append(f"without src/ the run exited {code} with {lines[-1:]}")
        print(f"without the package: exit {code}, {err.strip()}", flush=True)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    for problem in problems:
        print(f"FAIL {problem}")
    print("smoke: ok" if not problems else f"smoke: {len(problems)} problem(s)")
    return 0 if not problems else 1


if __name__ == "__main__":
    raise SystemExit(main())
