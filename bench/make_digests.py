"""Regenerate bench/digests.json, the reference SHA-256 of every output file.

    python3 bench/make_digests.py

Run from the repository root, only on a commit whose output bytes are
known to be right: every benchmark run is checked against these digests.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

import harness


def main() -> int:
    sys.path.insert(0, str(harness.SRC))
    from chevbasis.cli import main as cli_main

    labels = sorted(set(harness.GEN + harness.VERIFY_LARGE + harness.SMALL_ROUNDTRIP))
    digests: dict[str, str] = {}
    with tempfile.TemporaryDirectory(dir=harness.ROOT) as tmp:
        for label in labels:
            for eps in harness.EPSILONS:
                cmd = harness.gen_command(label, eps, Path(tmp), csv=True)
                with contextlib.redirect_stdout(io.StringIO()):
                    code = cli_main(list(cmd.argv))
                if code != 0:
                    print(f"make_digests: {' '.join(cmd.argv)} failed", file=sys.stderr)
                    return 1
                for path, key in cmd.outputs:
                    digests[key] = harness.sha256(path.read_bytes())
    harness.DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(digests)} digests to {harness.DIGESTS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
