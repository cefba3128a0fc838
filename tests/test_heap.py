"""Importing the package keeps freed heap memory in the process, so a
repeated solve reuses the pages of the last one instead of faulting fresh
zeroed pages in."""

import os
import platform
import subprocess
import sys
from pathlib import Path

import pytest

import competelab

SRC = Path(__file__).resolve().parent.parent / "src"


def run_python(code: str) -> str:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH")
                      else [])))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                    reason="the heap thresholds are glibc's")
def test_repeated_solve_takes_no_fresh_pages():
    # Without the thresholds the second call took about 1,200 minor
    # faults: glibc trimmed the heap top, and the call faulted it back.
    code = (
        "import resource\n"
        "from competelab import build_rectangle, lab, SolverConfig\n"
        "mask = build_rectangle(1.0, 1.0, 1 / 64)\n"
        "def run():\n"
        "    lab.verify_limiti_asymptotics(mask, [200.0, 400.0],\n"
        "                                  SolverConfig(restarts=0))\n"
        "run()\n"
        "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
        "run()\n"
        "print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)\n")
    assert int(run_python(code)) < 50


def test_without_mallopt_it_does_nothing(monkeypatch):
    monkeypatch.setattr(competelab.ctypes, "CDLL", lambda name: object())
    assert competelab._keep_freed_memory() is False


def test_import_works_without_mallopt():
    code = ("import ctypes, numpy\n"
            "ctypes.CDLL = lambda *a, **k: object()\n"
            "import competelab\n"
            "mask = competelab.build_rectangle(1.0, 1.0, 1 / 8)\n"
            "print(competelab._keep_freed_memory(), "
            "competelab.lambda1(mask) > 0)")
    assert run_python(code) == "False True"
