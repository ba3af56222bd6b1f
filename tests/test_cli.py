"""Command-line interface: subcommands, exit codes, determinism."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from chevbasis import folding
from chevbasis.cli import main
from chevbasis.errors import InternalInconsistency
from chevbasis.serialize import from_json_bytes


GOLDEN = Path(__file__).parent / "golden"


def run(*argv):
    return main(list(argv))


def test_gen_inductive_and_verify(tmp_path):
    out = tmp_path / "b3.json"
    assert run("gen", "--type", "B3", "--method", "inductive", "--out", str(out)) == 0
    assert run("verify", "--in", str(out)) == 0
    doc = from_json_bytes(out.read_bytes())
    assert doc["type"] == "B3"
    assert doc["provenance"]["method"] == "inductive"


def test_gen_fold_records_parent(tmp_path):
    out = tmp_path / "g2.json"
    assert run("gen", "--type", "G2", "--method", "fold", "--out", str(out)) == 0
    doc = from_json_bytes(out.read_bytes())
    assert doc["provenance"]["method"] == "folded"
    assert doc["provenance"]["parent"] == "D4"
    assert doc["provenance"]["orbits"] == [[3], [1, 2, 4]]
    assert run("verify", "--in", str(out)) == 0


def test_default_methods(tmp_path):
    ade = tmp_path / "a3.json"
    assert run("gen", "--type", "A3", "--out", str(ade)) == 0
    assert from_json_bytes(ade.read_bytes())["provenance"]["method"] == "closed"
    bcfg = tmp_path / "c3.json"
    assert run("gen", "--type", "C3", "--out", str(bcfg)) == 0
    assert from_json_bytes(bcfg.read_bytes())["provenance"]["method"] == "folded"


def test_usage_errors(tmp_path):
    out = tmp_path / "x.json"
    assert run("gen", "--type", "B1", "--out", str(out)) == 2
    assert run("gen", "--type", "H4", "--out", str(out)) == 2
    assert run("gen", "--type", "B3", "--method", "closed", "--out", str(out)) == 2
    assert run("gen", "--type", "E7", "--method", "fold", "--out", str(out)) == 2
    assert run("verify", "--in", str(tmp_path / "missing.json")) == 2


def test_internal_inconsistency_exits_3(tmp_path, monkeypatch, capsys):
    def broken(fs):
        raise InternalInconsistency("injected")

    monkeypatch.setattr(folding, "folded_table", broken)
    out = tmp_path / "g2.json"
    assert run("gen", "--type", "G2", "--out", str(out)) == 3
    assert capsys.readouterr().err == "error: internal inconsistency: injected\n"
    assert not out.exists()


def test_e7_closed_then_jacobi(tmp_path):
    out = tmp_path / "e7.json"
    assert run("gen", "--type", "E7", "--method", "closed", "--out", str(out)) == 0
    assert run("verify", "--in", str(out), "--suite", "jacobi") == 0


def test_epsilon_flipped(tmp_path):
    out = tmp_path / "a2f.json"
    assert run("gen", "--type", "A2", "--epsilon", "flipped", "--method",
               "inductive", "--out", str(out)) == 0
    doc = from_json_bytes(out.read_bytes())
    assert doc["epsilon"] == [-1, 1]
    assert run("verify", "--in", str(out)) == 0


def test_flipped_bcfg_differential_path(tmp_path):
    # An inductive B3 table with flipped epsilon is compared against the
    # fold of D4 with the matching parent sign.
    out = tmp_path / "b3f.json"
    assert run("gen", "--type", "B3", "--epsilon", "flipped", "--method",
               "inductive", "--out", str(out)) == 0
    assert run("verify", "--in", str(out), "--suite", "differential") == 0


def test_fold_subcommand(tmp_path):
    out = tmp_path / "folded.json"
    assert run("fold", "--type", "E6", "--out", str(out)) == 0
    doc = from_json_bytes(out.read_bytes())
    assert doc["type"] == "F4"
    assert doc["provenance"]["parent"] == "E6"
    assert run("fold", "--type", "A4", "--out", str(out)) == 2


def test_verify_flags_corrupted_file(tmp_path):
    out = tmp_path / "a2.json"
    assert run("gen", "--type", "A2", "--method", "inductive", "--out", str(out)) == 0
    doc = from_json_bytes(out.read_bytes())
    doc["constants"][0][3] = -doc["constants"][0][3]
    out.write_text(json.dumps(doc))
    assert run("verify", "--in", str(out)) == 1


def test_verify_json_output(tmp_path, capsys):
    out = tmp_path / "a2.json"
    run("gen", "--type", "A2", "--method", "inductive", "--out", str(out))
    capsys.readouterr()
    assert run("verify", "--in", str(out), "--json") == 0
    reports = json.loads(capsys.readouterr().out)
    assert all(r["passed"] for r in reports)
    suites = {r["suite"] for r in reports}
    assert {"jacobi", "chevalley", "differential", "sl_n"} <= suites


def test_verify_suite_selection(tmp_path):
    out = tmp_path / "g2.json"
    run("gen", "--type", "G2", "--out", str(out))
    assert run("verify", "--in", str(out), "--suite", "jacobi,chevalley") == 0
    assert run("verify", "--in", str(out), "--suite", "slN") == 2
    assert run("verify", "--in", str(out), "--suite", "bogus") == 2


def test_show(tmp_path, capsys):
    out = tmp_path / "g2.json"
    run("gen", "--type", "G2", "--out", str(out))
    assert run("show", "--in", str(out), "--alpha", "0,1", "--beta", "1,1") == 0
    printed = capsys.readouterr().out
    assert "N[01, 11] =" in printed
    assert "string" in printed
    assert run("show", "--in", str(out), "--alpha", "5,5", "--beta", "1,1") == 2


@pytest.mark.parametrize("beta", ["1,0", "-1,0"])
def test_show_rejects_beta_plus_minus_alpha(capsys, beta):
    # The string through beta = +-alpha is undefined; nothing may reach stdout first.
    assert run("show", "--in", str(GOLDEN / "a2.json"), "--alpha", "1,0", f"--beta={beta}") == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_gen_csv(tmp_path):
    out = tmp_path / "d4.json"
    csv = tmp_path / "d4.csv"
    assert run("gen", "--type", "D4", "--out", str(out), "--csv", str(csv)) == 0
    lines = csv.read_text().splitlines()
    assert lines[0] == "alpha,beta,sum,N"
    assert "1110,-0110,1000,1" in lines


def test_byte_determinism(tmp_path):
    a = tmp_path / "one.json"
    b = tmp_path / "two.json"
    for path in (a, b):
        assert run("gen", "--type", "F4", "--out", str(path)) == 0
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize("epsilon", ["default", "flipped"])
@pytest.mark.parametrize("parent,target", [
    ("A3", "C2"), ("A5", "C3"), ("A7", "C4"), ("D4", "G2"), ("D5", "B4"), ("D7", "B6"), ("E6", "F4"),
])
def test_fold_equals_gen_fold(tmp_path, parent, target, epsilon):
    paths = {name: (tmp_path / f"{name}.json", tmp_path / f"{name}.csv") for name in ("fold", "gen")}
    assert run("fold", "--type", parent, "--epsilon", epsilon,
               "--out", str(paths["fold"][0]), "--csv", str(paths["fold"][1])) == 0
    assert run("gen", "--type", target, "--method", "fold", "--epsilon", epsilon,
               "--out", str(paths["gen"][0]), "--csv", str(paths["gen"][1])) == 0
    for folded, generated in zip(paths["fold"], paths["gen"]):
        assert folded.read_bytes() == generated.read_bytes()
    assert from_json_bytes(paths["fold"][0].read_bytes())["provenance"]["parent"] == parent
