"""The benchmark's workloads still run against the package: its self-check
sets up every workload from ``src/`` and shows that each output check fails
on a perturbed output.

A change in ``src/`` that breaks ``benchmark/workloads.py`` would otherwise
surface only when the benchmark itself runs.  The harness runs without
writing bytecode beside it.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_self_check_passes():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-B", "benchmark/run.py", "--self-check"],
                          cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout + done.stderr
    assert "self-check: all checks behave" in done.stdout.splitlines(), done.stdout
