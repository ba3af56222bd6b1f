"""Command-line interface: subcommands, exit codes, determinism."""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import resource
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import chevbasis.roots
from chevbasis import cli, folding
from chevbasis.cartan import MAX_ROOTS, root_count
from chevbasis.cli import main
from chevbasis.errors import InternalInconsistency
from chevbasis.serialize import from_json_bytes, to_json_bytes
from conftest import constants, system, table
from reference import render_root, string_lengths


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


@pytest.mark.parametrize("label,method,takes", [("A3", "fold", "closed"), ("E7", "fold", "closed"),
                                                ("B3", "closed", "fold")])
def test_a_method_the_type_does_not_take_is_refused_before_building(tmp_path, monkeypatch, capsys,
                                                                    label, method, takes):
    def refused(cm):
        raise AssertionError(f"built {cm.label}")

    monkeypatch.setattr(cli, "generate_roots", refused)
    out = tmp_path / "x.json"
    assert run("gen", "--type", label, "--method", method, "--out", str(out)) == 2
    assert capsys.readouterr().err == f"error: --method {method} does not apply to {label}, which takes --method {takes}\n"
    assert not out.exists()


def test_default_verify_of_an_inductive_b3_file_builds_b3_roots_once(tmp_path, monkeypatch):
    # The differential suite folds D4 onto the file's own B3 root system.
    out = tmp_path / "b3.json"
    assert run("gen", "--type", "B3", "--method", "inductive", "--out", str(out)) == 0
    built = []
    real = chevbasis.roots.generate_roots

    def counted(cm):
        built.append(cm.label)
        return real(cm)

    for name, module in list(sys.modules.items()):
        if name.startswith("chevbasis") and getattr(module, "generate_roots", None) is real:
            monkeypatch.setattr(module, "generate_roots", counted)
    assert run("verify", "--in", str(out)) == 0
    assert sorted(built) == ["B3", "D4"]


def test_internal_inconsistency_exits_3(tmp_path, monkeypatch, capsys):
    def broken(fs):
        raise InternalInconsistency("injected")

    monkeypatch.setattr(folding, "folded_table", broken)
    out = tmp_path / "g2.json"
    assert run("gen", "--type", "G2", "--out", str(out)) == 3
    assert capsys.readouterr().err == "error: internal inconsistency: injected\n"
    assert not out.exists()


def test_fold_consistency_faults_exit_3(tmp_path, monkeypatch, capsys):
    # A B4 root system with its highest root doubled, as gen builds it and
    # fold sees it: the restriction of a D5 root is then no folded root, a
    # package defect.
    real = cli.generate_roots

    def altered(cm):
        rs = real(cm)
        if cm.label != "B4":
            return rs
        coeffs = rs.coeffs.copy()
        coeffs[rs.positive_count - 1] *= 2
        return dataclasses.replace(rs, coeffs=coeffs)

    monkeypatch.setattr(cli, "generate_roots", altered)
    out = tmp_path / "b4.json"
    assert run("gen", "--type", "B4", "--out", str(out)) == 3
    assert capsys.readouterr().err == (
        "error: internal inconsistency: restriction (2, 2, 2, 1) of (1, 1, 2, 2, 1) is not a root of B4\n"
    )
    assert not out.exists()


def test_missing_fold_representative_exits_3(tmp_path, monkeypatch, capsys):
    # G2's (0, 1) orbit restricted as its negative and back: the folded pair
    # (0, 1), (1, 0) then has no parent representative, a package defect.
    real = folding.fold

    def swapped(rs, eps, auto, folded_rs):
        fs = real(rs, eps, auto, folded_rs)
        x = fs.folded_rs.roots.index((0, 1))
        y = int(fs.folded_rs.neg[x])
        swap = np.arange(len(fs.folded_rs.roots))
        swap[[x, y]] = y, x
        return dataclasses.replace(fs, orbits=fs.orbits[swap], restriction=swap[fs.restriction])

    monkeypatch.setattr(folding, "fold", swapped)
    out = tmp_path / "g2.json"
    assert run("gen", "--type", "G2", "--out", str(out)) == 3
    assert capsys.readouterr().err == (
        "error: internal inconsistency: no representative pair for folded (0, 1) + (1, 0)\n"
    )
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
    doc = json.loads(out.read_bytes())
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


def test_verify_suite_selection(tmp_path, capsys):
    out = tmp_path / "g2.json"
    run("gen", "--type", "G2", "--out", str(out))
    assert run("verify", "--in", str(out), "--suite", "jacobi,chevalley") == 0
    assert run("verify", "--in", str(out), "--suite", "slN") == 2
    assert run("verify", "--in", str(out), "--suite", "bogus") == 2
    assert run("verify", "--in", str(out), "--suite", "") == 2
    assert capsys.readouterr().err.endswith("error: unknown suite ''\n")


def test_verify_checks_suite_names_before_running_any(tmp_path, capsys, monkeypatch):
    # An unknown name is refused before the file is read or any suite runs.
    calls = []
    monkeypatch.setattr(cli, "jacobi_sweep", lambda t: calls.append(t))
    capsys.readouterr()
    assert run("verify", "--in", str(GOLDEN / "g2.json"), "--suite", "jacobi,bogus") == 2
    captured = capsys.readouterr()
    assert calls == []
    assert captured.out == ""
    assert captured.err == "error: unknown suite 'bogus'\n"


def test_default_verify_of_an_inductive_c33_file_folds_from_above_the_root_cap(tmp_path, capsys):
    # C33 folds from A65, which has more roots than MAX_ROOTS: the
    # differential suite of an inductive C33 file still takes the fold route.
    assert root_count("A", 65) > MAX_ROOTS >= root_count("C", 33)
    out = tmp_path / "c33.json"
    assert run("gen", "--type", "C33", "--method", "inductive", "--out", str(out)) == 0
    capsys.readouterr()
    assert run("verify", "--json", "--in", str(out)) == 0
    reports = {r["suite"]: r for r in json.loads(capsys.readouterr().out)}
    assert sorted(reports) == ["chevalley", "differential", "jacobi"]
    assert all(r["passed"] for r in reports.values())
    # Every stored constant, both orders, is compared with the folded table.
    assert reports["differential"]["checked"] > 2 * len(from_json_bytes(out.read_bytes())["constants"])


@pytest.fixture(scope="module", params=["G2", "B3"])
def shown(request, tmp_path_factory):
    """A default ``gen`` file of the type and its label."""
    path = tmp_path_factory.mktemp("show") / f"{request.param}.json"
    assert main(["gen", "--type", request.param, "--out", str(path)]) == 0
    return request.param, path


def test_show_every_pair(shown, capsys):
    # G2 and B3 have strings with q up to 2 (G2 up to 3); N, (p, q) and the
    # printed string must be those of the table and of the tuple walk.
    label, path = shown
    rs = system(label)
    n = constants(table(label))
    capsys.readouterr()
    for a, alpha in enumerate(rs.roots):
        for b, beta in enumerate(rs.roots):
            if b in (a, rs.neg[a]):
                continue
            argv = ["show", "--in", str(path), f"--alpha={','.join(map(str, alpha))}",
                    f"--beta={','.join(map(str, beta))}"]
            assert run(*argv) == 0
            p, q = string_lengths(rs, alpha, beta)
            chain = [render_root(tuple(y + k * x for x, y in zip(alpha, beta))) for k in range(-q, p + 1)]
            assert capsys.readouterr().out.splitlines() == [
                f"N[{render_root(alpha)}, {render_root(beta)}] = {n.get((a, b), 0)}",
                f"string (p={p}, q={q}): " + " , ".join(chain),
            ]


def test_show_refuses_non_roots_and_degenerate_pairs(shown, capsys):
    label, path = shown
    rs = system(label)
    alpha = rs.roots[0]
    zero = (0,) * rs.rank
    doubled = tuple(2 * x for x in alpha)
    bad = [(alpha, alpha), (alpha, tuple(-x for x in alpha)), (zero, alpha), (alpha, zero),
           (doubled, alpha), (alpha, doubled), (alpha, alpha + (0,)), (alpha[:-1], alpha)]
    capsys.readouterr()
    for x, y in bad:
        assert run("show", "--in", str(path), f"--alpha={','.join(map(str, x))}",
                   f"--beta={','.join(map(str, y))}") == 2, (x, y)
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def _limited_main(tmp_path, *argv: str) -> subprocess.CompletedProcess:
    """``main(argv)`` in a fresh process with 1 GiB of address space and a 60 s timeout."""
    code = f"import sys; from chevbasis.cli import main; sys.exit(main({list(argv)!r}))"
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).parents[1] / "src"), "OPENBLAS_NUM_THREADS": "1"}

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))

    return subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=env, preexec_fn=limit,
                          capture_output=True, text=True, timeout=60)


def test_oversized_types_are_refused_before_building(tmp_path):
    # A300 would need 30 GiB for sum_index alone.  A file that names A300 is
    # refused by its lengths.  C45 is built: its fold parent, A89 with 8010
    # roots, is not capped and never builds its sum_index.
    assert root_count("A", 300) > MAX_ROOTS >= root_count("A", 63)
    big = tmp_path / "a300.json"
    big.write_text(json.dumps({"schema_version": 1, "type": "A300", "rank": 300, "cartan_matrix": [],
                               "epsilon": [], "roots": [], "positive_count": 45150, "constants": [],
                               "cartan_action": [], "opposite": [], "provenance": {"method": "closed"}}))
    for argv in (["gen", "--type", "A300", "--out", "x.json"],
                 ["gen", "--type", "A2000", "--method", "inductive", "--out", "x.json"],
                 ["fold", "--type", "A301", "--out", "x.json"],
                 ["verify", "--in", str(big)],
                 ["show", "--in", str(big), "--alpha", "1", "--beta", "1"]):
        done = _limited_main(tmp_path, *argv)
        assert (done.returncode, done.stdout) == (2, ""), (argv, done.stderr)
        assert done.stderr.startswith("error: ") and done.stderr.count("\n") == 1, argv
    assert not (tmp_path / "x.json").exists()
    done = _limited_main(tmp_path, "gen", "--type", "A60", "--out", "x.json")
    assert done.returncode == 0, done.stderr
    assert from_json_bytes((tmp_path / "x.json").read_bytes())["positive_count"] == 1830
    done = _limited_main(tmp_path, "gen", "--type", "C45", "--out", "c45.json")
    assert done.returncode == 0, done.stderr
    doc = from_json_bytes((tmp_path / "c45.json").read_bytes())
    assert (doc["positive_count"], doc["provenance"]["parent"]) == (2025, "A89")


def test_show(tmp_path, capsys):
    out = tmp_path / "g2.json"
    run("gen", "--type", "G2", "--out", str(out))
    assert run("show", "--in", str(out), "--alpha", "0,1", "--beta", "1,1") == 0
    printed = capsys.readouterr().out
    assert "N[01, 11] =" in printed
    assert "string" in printed
    assert run("show", "--in", str(out), "--alpha", "5,5", "--beta", "1,1") == 2


def test_show_prints_a_string_of_length_three(capsys):
    assert run("show", "--in", str(GOLDEN / "g2.json"), "--alpha", "0,1", "--beta", "1,0") == 0
    assert capsys.readouterr().out == "N[01, 10] = 1\nstring (p=3, q=0): 10 , 11 , 12 , 13\n"


@pytest.mark.parametrize("alpha, beta, refused", [
    ("1000000000000000000000,0", "1,1", "(1000000000000000000000, 0)"),
    ("1,0", "1000000000000000000000,0", "(1000000000000000000000, 0)"),
    ("1,0", "9223372036854775808,0", "(9223372036854775808, 0)"),
])
def test_show_refuses_coefficients_beyond_int64(capsys, alpha, beta, refused):
    # alpha is checked first; a root alpha does not hide a huge beta.
    assert run("show", "--in", str(GOLDEN / "g2.json"), f"--alpha={alpha}", f"--beta={beta}") == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {refused} is not a root\n"


def test_show_negative_root(capsys):
    # "--alpha -1,0" reads -1,0 as a flag; the "=" form passes it as a value.
    assert run("show", "--in", str(GOLDEN / "a2.json"), "--alpha=-1,0", "--beta", "1,1") == 0
    assert capsys.readouterr().out.splitlines()[0] == "N[-10, 11] = -1"


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
    ("A3", "C2"), ("A5", "C3"), ("A7", "C4"), ("D3", "B2"), ("D4", "G2"), ("D5", "B4"), ("D7", "B6"), ("E6", "F4"),
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


@pytest.mark.parametrize("command", ["verify", "show"])
def test_deeply_nested_json_is_refused(tmp_path, capsys, command):
    path = tmp_path / "nested.json"
    path.write_text("[" * 100_000)
    extra = ["--alpha", "1,0", "--beta", "0,1"] if command == "show" else []
    assert run(command, "--in", str(path), *extra) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("field", ["type", "rank", "roots", "positive_count", "epsilon", "constants",
                                   "cartan_action", "opposite"])
@pytest.mark.parametrize("command", ["verify", "show"])
def test_a_missing_field_is_named(tmp_path, capsys, command, field):
    # A default B3 file without one required field: one line naming it, not a bare key.
    path = tmp_path / "b3.json"
    assert run("gen", "--type", "B3", "--out", str(path)) == 0
    doc = json.loads(path.read_bytes())
    del doc[field]
    path.write_text(json.dumps(doc))
    extra = ["--alpha", "1,0,0", "--beta", "0,1,0"] if command == "show" else []
    capsys.readouterr()
    assert run(command, "--in", str(path), *extra) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: document has no '{field}' field\n")


def test_chevalley_checks_cartan_action(tmp_path, capsys):
    doc = json.loads((GOLDEN / "g2.json").read_bytes())
    doc["cartan_action"][0][2] += 1
    path = tmp_path / "g2-action.json"
    path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert run("verify", "--in", str(path), "--suite", "chevalley", "--json") == 1
    (report,) = json.loads(capsys.readouterr().out)
    assert report["violation_count"] == 1
    assert report["violations"] == [{"site": ["action", 1, [1, 1]], "expected": "1", "got": "2"}]


def _negate_constant(doc):
    doc["constants"][0][3] *= -1


def _double_constant(doc):
    doc["constants"][0][3] *= 2


def _drop_constant(doc):
    doc["constants"].pop(0)


def _bump_action(doc):
    doc["cartan_action"][0][-1] += 1


def _negate_first_coroot(doc):
    doc["opposite"][0] = [-c for c in doc["opposite"][0]]


def _negate_last_coroot(doc):
    doc["opposite"][-1] = [-c for c in doc["opposite"][-1]]


def _flip_epsilon(doc):
    doc["epsilon"] = [-e for e in doc["epsilon"]]


CORRUPTIONS = {
    "negated": _negate_constant,
    "doubled": _double_constant,
    "dropped": _drop_constant,
    "action": _bump_action,
    "first-coroot": _negate_first_coroot,
    "last-coroot": _negate_last_coroot,
    "epsilon": _flip_epsilon,
}

# SHA-256 of the `verify --json` output on each corrupted golden file,
# recorded from the per-root tuple code that the co-root and Cartan action
# arrays replaced.  Report values must stay plain ints and tuples: numpy
# renders an array scalar as "np.int64(1)", which only these bytes show.
# The three "epsilon" tables pass Jacobi on the fast path, so their bytes
# follow its counts; they were taken again when it moved to the r positive
# simple generators, with only evaluated, zero_by_grading and
# implied_by_generation changed, and again when it evaluated each unordered
# generator triple once, with only evaluated and implied_by_generation
# changed.
PINNED_VERIFY_REPORTS = {
    ("a2", "negated"): "9179a9e255f445f1739ebd2129a1ed61e7e5239c82aa9e4ee526f910a2cff2af",
    ("a2", "doubled"): "2d4dfc50b38a425029c3eccc86bf981ee56b8ea244f13624a7b8b0a709fcd430",
    ("a2", "dropped"): "fd9e46b6b9e369604b9021450db79de4884723b5f09db45c15173f5db5f58945",
    ("a2", "action"): "c31be244f1babf189f9b32ed880d1cd746738f801fb81bc466a3fc8371ea1cb2",
    ("a2", "first-coroot"): "e03a4a7f6d37aad3f2d347face92e04c33ebb244c25925821526609521bd2c63",
    ("a2", "last-coroot"): "bfccb11359dd28d6327a5e6429b252784e04f549ccbd6c04a90387a025dad34e",
    ("a2", "epsilon"): "d6f12e5a2c9c2719d207127abcb855cd6a3b1694430c4c32192df130fb8bb373",
    ("d4", "negated"): "7d5e6f6827e489977f9f8d022f941b5204746523100943082a48057a4d8e040b",
    ("d4", "doubled"): "d120b51ca102acf1524e1fb10637f932ae3d430a0f2962b862067be08140de7c",
    ("d4", "dropped"): "aa843e388f97e8dab5e6c8e4616c88c571ffd3e33bac1c43a0cd118d53077e9b",
    ("d4", "action"): "655c518b20c8a02e521caeba3840b9a0d982a2d125a0c0221f531fa15a0026b1",
    ("d4", "first-coroot"): "d9a9f4b2ead88bddc0a9ed20154d49c5ab06eb38f1731e8882210e84c0812fd4",
    ("d4", "last-coroot"): "ea96e0ad541953f0e2dd68912e6b7caa70deaa9277d327750c784169b682b606",
    ("d4", "epsilon"): "45496660c756f396848b2589bad2638f2dd394e95eaadfcf7e22825414b8bb4e",
    ("g2", "negated"): "f85367815a8e13fb3254bd6ad0e7455819ddbc6359aab779440dab3bfb24379c",
    ("g2", "doubled"): "7af44078d0a70a9ee5f822224dba9ae7374b14521eadd22fb9ca9d699664c300",
    ("g2", "dropped"): "2bff7841b69e6098a410d213bfec633e4e1e8487d3e54aad18f552e2a4180d5c",
    ("g2", "action"): "8f116e86925bc81601e8bd375290dc5bb758b156cb841bd70570ea17798433b9",
    ("g2", "first-coroot"): "666dd4983bc882a38bbe6cba0003668db19f3a5e3c4a244221175ed0cf26ca8a",
    ("g2", "last-coroot"): "473c5dea68579b290c8d53337bf3236382f65fa87dc0825b7ed8f5fbbdada841",
    ("g2", "epsilon"): "62d3f53111c4b1fa7852fc61f368647043f9f4210a529481355fa03975156ec2",
}


def _corrupted_files(tmp_path, name, corruption):
    """A corrupted golden file as ``json.dumps`` writes it, then in canonical form.

    The canonical bytes must read back as arrays, so the pinned digests
    hold on both read paths.
    """
    doc = json.loads((GOLDEN / f"{name}.json").read_bytes())
    CORRUPTIONS[corruption](doc)
    canonical = to_json_bytes(doc)
    assert isinstance(from_json_bytes(canonical)["constants"], np.ndarray)
    for write, data in (("dumps", json.dumps(doc).encode("ascii")), ("canonical", canonical)):
        path = tmp_path / f"{name}-{corruption}-{write}.json"
        path.write_bytes(data)
        yield path


@pytest.mark.parametrize("name,corruption", sorted(PINNED_VERIFY_REPORTS))
def test_verify_reports_pinned(tmp_path, capsys, name, corruption):
    suites = "jacobi,differential" + (",slN" if name == "a2" else "")
    for path in _corrupted_files(tmp_path, name, corruption):
        capsys.readouterr()
        assert run("verify", "--json", "--in", str(path), "--suite", suites) == 1
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == PINNED_VERIFY_REPORTS[(name, corruption)], path.name


# SHA-256 of `verify --json --suite chevalley` on the same corrupted files,
# recorded from the dict-of-constants table code.  The audit lists stored
# pairs and generator rows in table order, so these bytes pin that order.
PINNED_CHEVALLEY_REPORTS = {
    ("a2", "negated"): "a46074bda091be9b017766f77cd467534a5ace590fee27cf0e9e5dc750c6f316",
    ("a2", "doubled"): "fff9cd0faafdbb753ad087915ec062943b89af471c9c44afc4fe42ef9a1c3a3c",
    ("a2", "dropped"): "fb2d4bd1f8add691574049891a74bec8dd36378d3a1d0ee4d649ca564ba742e4",
    ("a2", "action"): "156b7a8865960d08cef8d0987de099f84276cec9cf24421d741797e3f100f94f",
    ("a2", "first-coroot"): "eb77da92f31d974c4f761f4eb6e0e96b9bc450f4f3c928161e1a5f634fc44128",
    ("a2", "last-coroot"): "813a1d036102785b456fd711e41c0d0fc2f4f214c8a42f1467dd3f76da789a80",
    ("a2", "epsilon"): "521fcb09b8d0d0f7081598a355d85cb25ed14a907633f1e002637cecd1ab07a9",
    ("d4", "negated"): "105687fbac49c8f933c6ebd59aaaf9551486bf5f910b34dc6c5161414d30d30b",
    ("d4", "doubled"): "e9892f417d823760bc841330a6173bbc4f621e62d9a4dc4c95609c99cecdd3b9",
    ("d4", "dropped"): "a67fc3206c67ed291c394588344f71be9cd2d415fd439de9af636bbd8e9852b2",
    ("d4", "action"): "6a049037d28484003a569bd758aa38a558f9844c5e45bd653cf765ce3e23cc8a",
    ("d4", "first-coroot"): "7b0346b523abdf9b0d48775bfec70f4e17576d0edd3a41c6a3a85b3e49f443c7",
    ("d4", "last-coroot"): "fa59d0988f4bd36a4359591776ca4ef4acfcaf20b11193fd1986dcc80ce08c0f",
    ("d4", "epsilon"): "f587b229616bb2f040488e74827aac60c5e85d71dd133a875c539df2523b8212",
    ("g2", "negated"): "91d293ec9c48e0353bb0439600278acee4a7b029c6ff7522359838f424ff2e91",
    ("g2", "doubled"): "086109e98113cb39f7317971353fcfd3890cdee281fc04fdac8073e86440a1db",
    ("g2", "dropped"): "4b0265cc849416400b35da7a495b0cdde4ef7afd0c64e00f41a6465da3e1c2da",
    ("g2", "action"): "5650a6576f0533655d0033c08a12124b9df169fef18aab540047d39471fcd01b",
    ("g2", "first-coroot"): "c2daa7fbadc84700c9bd1cb8dc943ac0addde330b191a066f68a2bd2b4253ae3",
    ("g2", "last-coroot"): "eac98532bb3fa465fe2ebc1621b677b5ec720596874bee5cf3f0f6712e00000d",
    ("g2", "epsilon"): "3753ea0214fc6439285b1efafcf001dcccc5fd9681c34f75f7cc83699dcfc4df",
}


@pytest.mark.parametrize("name,corruption", sorted(PINNED_CHEVALLEY_REPORTS))
def test_chevalley_reports_pinned(tmp_path, capsys, name, corruption):
    for path in _corrupted_files(tmp_path, name, corruption):
        capsys.readouterr()
        assert run("verify", "--json", "--in", str(path), "--suite", "chevalley") == 1
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == PINNED_CHEVALLEY_REPORTS[(name, corruption)], path.name


def test_cached_parser_keeps_no_state_between_commands(tmp_path, capsys, monkeypatch):
    # main builds its parser once per process; one command's options must
    # not leak into the next, and bad arguments still exit 2.
    first, second = tmp_path / "one.json", tmp_path / "two.json"
    csv = tmp_path / "one.csv"
    assert run("gen", "--type", "A2", "--out", str(first), "--csv", str(csv)) == 0
    csv.unlink()
    assert run("gen", "--type", "A2", "--out", str(second)) == 0
    assert not csv.exists()
    assert first.read_bytes() == second.read_bytes()
    capsys.readouterr()
    assert run("verify", "--in", str(first), "--suite", "jacobi", "--json") == 0
    assert [r["suite"] for r in json.loads(capsys.readouterr().out)] == ["jacobi"]
    assert run("verify", "--in", str(first), "--json") == 0
    assert [r["suite"] for r in json.loads(capsys.readouterr().out)] == ["jacobi", "chevalley", "differential", "sl_n"]
    for argv in (["gen", "--type", "A2"], ["verify", "--in", str(first), "--bogus"], ["nonsense"]):
        with pytest.raises(SystemExit) as exc:
            run(*argv)
        assert exc.value.code == 2
    # Handlers are looked up when a command runs, so a replaced one is used.
    monkeypatch.setattr(cli, "_cmd_show", lambda args: 7)
    assert run("show", "--in", str(first), "--alpha", "1,0", "--beta", "0,1") == 7
