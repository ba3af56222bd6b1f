#!/usr/bin/env python3
"""Regenerate the golden table files used by the regression tests.

Run from the repository root:  python scripts/make_golden.py
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# The package is imported from this checkout's src/, so no install is needed.
sys.path.insert(0, str(ROOT / "src"))

from chevbasis.cli import main

GOLDEN = ROOT / "tests" / "golden"


def run() -> int:
    GOLDEN.mkdir(parents=True, exist_ok=True)
    jobs = [
        ["gen", "--type", "A2", "--out", str(GOLDEN / "a2.json")],
        ["gen", "--type", "D4", "--out", str(GOLDEN / "d4.json"),
         "--csv", str(GOLDEN / "d4.csv")],
        ["gen", "--type", "G2", "--out", str(GOLDEN / "g2.json")],
    ]
    for argv in jobs:
        code = main(argv)
        if code != 0:
            return code
    return 0


if __name__ == "__main__":
    sys.exit(run())
