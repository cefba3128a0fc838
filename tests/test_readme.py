"""The README's library example and minimize config run as written."""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BLOCKS = re.findall(r"^```(\w+)\n(.*?)^```$",
                    (ROOT / "README.md").read_text(), re.M | re.S)


def block(lang):
    """The README's only fenced block in ``lang``."""
    found = [text for tag, text in BLOCKS if tag == lang]
    assert len(found) == 1, f"expected one {lang} block, found {len(found)}"
    return found[0]


def run(args, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return subprocess.run([sys.executable, *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=300)


def test_library_example_runs(tmp_path):
    proc = run(["-c", block("python")], tmp_path)
    assert proc.returncode == 0, proc.stderr[-2000:]


def test_minimize_config_runs(tmp_path):
    config = tmp_path / "run.json"
    config.write_text(block("json"))
    out = tmp_path / "out"
    proc = run(["-m", "competelab", "minimize", "--config", str(config),
                "--out", str(out), "--quiet"], tmp_path)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert (out / "results.csv").exists()
