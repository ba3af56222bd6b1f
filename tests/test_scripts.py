"""The scripts under scripts/ run from a plain checkout."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

SCRIPTS = Path(__file__).parents[1] / "scripts"


def test_build_all_tables_runs_without_pythonpath(tmp_path):
    # The script puts the checkout's src/ on the path itself.  make_golden.py
    # does the same but is never run here: it rewrites tests/golden/.
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env["OPENBLAS_NUM_THREADS"] = "1"
    done = subprocess.run([sys.executable, str(SCRIPTS / "build_all_tables.py")], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stderr == ""
