"""Byte-level regression against the committed golden files."""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
from pathlib import Path

from chevbasis.cli import main
from chevbasis.serialize import from_json_bytes

GOLDEN = Path(__file__).parent / "golden"
# SHA-256 of every `gen --csv` output the benchmark checks, keyed "<type>/<epsilon>.<json|csv>".
DIGESTS = Path(__file__).parents[1] / "bench" / "digests.json"


def test_golden_files_regenerate_identically(tmp_path):
    jobs = {
        "a2.json": ["gen", "--type", "A2"],
        "d4.json": ["gen", "--type", "D4"],
        "g2.json": ["gen", "--type", "G2"],
    }
    for name, argv in jobs.items():
        out = tmp_path / name
        assert main(argv + ["--out", str(out)]) == 0
        assert out.read_bytes() == (GOLDEN / name).read_bytes(), name


def test_golden_csv_regenerates_identically(tmp_path):
    out = tmp_path / "d4.json"
    csv = tmp_path / "d4.csv"
    assert main(["gen", "--type", "D4", "--out", str(out), "--csv", str(csv)]) == 0
    assert csv.read_bytes() == (GOLDEN / "d4.csv").read_bytes()


def test_golden_contents():
    g2 = from_json_bytes((GOLDEN / "g2.json").read_bytes())
    assert g2["type"] == "G2"
    assert g2["provenance"] == {"method": "folded", "parent": "D4", "orbits": [[3], [1, 2, 4]]}
    d4 = from_json_bytes((GOLDEN / "d4.json").read_bytes())
    assert d4["provenance"]["method"] == "closed"
    assert len(d4["roots"]) == 24
    a2 = from_json_bytes((GOLDEN / "a2.json").read_bytes())
    assert len(a2["constants"]) == 6


def test_golden_verify_clean():
    for name in ("a2.json", "d4.json", "g2.json"):
        assert main(["verify", "--in", str(GOLDEN / name)]) == 0


def test_gen_outputs_match_the_benchmark_digests(tmp_path):
    digests = json.loads(DIGESTS.read_text())
    labels = sorted({key.split("/")[0] for key in digests})
    assert len(digests) == 4 * len(labels)
    out, csv = tmp_path / "table.json", tmp_path / "table.csv"
    for label in labels:
        for eps in ("default", "flipped"):
            with contextlib.redirect_stdout(io.StringIO()):
                assert main(["gen", "--type", label, "--epsilon", eps, "--out", str(out), "--csv", str(csv)]) == 0
            for path, ext in ((out, "json"), (csv, "csv")):
                key = f"{label}/{eps}.{ext}"
                assert hashlib.sha256(path.read_bytes()).hexdigest() == digests[key], key
