"""Document round-trips, canonical bytes and CSV export."""

from __future__ import annotations

import contextlib
import copy
import dataclasses
import io
import json
import re
import tempfile
import time
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import chevbasis as cb
from chevbasis import serialize
from chevbasis.cli import main
from chevbasis.closedform import closed_table
from chevbasis.errors import ChevBasisError
from chevbasis.serialize import (
    ENTRY_BOUND,
    csv_export,
    document_from_table,
    from_json_bytes,
    parse_coeffs,
    root_names,
    table_from_document,
    to_json_bytes,
)
from chevbasis.folding import independent_table
from conftest import DESK_TYPES, at_the_bound, constants, folded, table, with_flipped_constant
from reference import list_csv, list_document, list_json_bytes


def test_a2_document_shape():
    doc = document_from_table(table("A2"), "inductive")
    assert len(doc["roots"]) == 6
    assert len(doc["constants"]) == 6
    assert doc["type"] == "A2"
    assert doc["provenance"] == {"method": "inductive"}


def test_round_trip_identity():
    for label in ("A2", "B3", "G2", "D4"):
        t = table(label)
        doc = document_from_table(t, "inductive")
        rebuilt = table_from_document(from_json_bytes(to_json_bytes(doc)))
        assert constants(rebuilt) == constants(t)
        assert rebuilt.eps.values == t.eps.values
        assert np.array_equal(rebuilt.cartan_action, t.cartan_action)
        assert np.array_equal(rebuilt.opposite, t.opposite)
        doc2 = document_from_table(rebuilt, "inductive")
        assert to_json_bytes(doc) == to_json_bytes(doc2)


def test_serialisation_is_deterministic():
    t = table("F4")
    assert to_json_bytes(document_from_table(t, "inductive")) == to_json_bytes(
        document_from_table(t, "inductive")
    )


def test_folded_provenance():
    fs, tf = folded("D4")
    doc = document_from_table(
        tf, "folded", {"parent": "D4", "orbits": [[3], [1, 2, 4]]}
    )
    assert doc["provenance"]["method"] == "folded"
    assert doc["provenance"]["parent"] == "D4"
    rebuilt = table_from_document(doc)
    assert constants(rebuilt) == constants(tf)


def test_non_antisymmetric_table_is_rejected():
    bad = with_flipped_constant(table("A2"))
    with pytest.raises(ChevBasisError):
        document_from_table(bad, "inductive")


def test_document_memory_on_a24():
    # The antisymmetry check looks each mirror pair up by key: no nr x nr view.
    rs = cb.generate_roots(cb.build_cartan("A", 24))
    t = closed_table(rs, cb.default_epsilon(rs.cartan))
    tracemalloc.start()
    try:
        document_from_table(t, "closed")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    nr = len(rs.roots)
    assert peak < nr * nr * 8, f"document_from_table peak {peak / 2 ** 20:.2f} MB on A24"


def test_malformed_documents_rejected():
    doc = document_from_table(table("A2"), "inductive")
    wrong_version = {**doc, "schema_version": 99}
    with pytest.raises(ChevBasisError, match="unsupported schema version 99"):
        table_from_document(wrong_version)
    wrong_sum = {**doc, "constants": [[0, 1, 0, 1]]}
    with pytest.raises(ChevBasisError, match=re.escape("constant entry (0, 1, 0) has a wrong sum index")):
        table_from_document(wrong_sum)
    wrong_roots = {**doc, "roots": doc["roots"][::-1]}
    with pytest.raises(ChevBasisError, match="does not match the generated ordering"):
        table_from_document(wrong_roots)


def _assert_writes_like_the_list_writer(t, method, provenance=None):
    doc = document_from_table(t, method, provenance)
    ref = list_document(t, method, provenance)
    assert to_json_bytes(doc) == list_json_bytes(ref)
    assert csv_export(doc) == list_csv(ref)


@pytest.mark.parametrize("label", DESK_TYPES)
def test_writer_matches_the_list_writer(label):
    # Inductive, and closed (A, D, E) or folded (B, C, F4, G2), at both
    # epsilons; A1 stores no constants.
    for flipped in (False, True):
        t = table(label, flipped)
        _assert_writes_like_the_list_writer(t, "inductive")
        other, meta = independent_table(t.rs, t.eps)
        _assert_writes_like_the_list_writer(other, "folded" if meta else "closed", meta)


@pytest.mark.parametrize("label", ("A1", "A2", "B2", "G2", "B3"))
def test_writer_matches_the_list_writer_at_the_entry_bound(label):
    for v in at_the_bound(table(label)).values():
        _assert_writes_like_the_list_writer(v, "inductive")


def test_writer_renders_wide_ranges_exactly():
    # Constants near +-2^62 and int64 extremes in the Cartan actions span
    # more values than the arrays hold, so their text comes from the
    # distinct values; the co-roots sit in a short range far from zero.
    for label in ("G2", "B3", "E6"):
        t = table(label)
        nr = len(t.rs.roots)
        a, b = t.pairs.T
        n = np.sign(t.n) * (2**62 - np.minimum(a, b) * nr - np.maximum(a, b))
        k = np.arange(t.cartan_action.size).reshape(t.cartan_action.shape)
        action = np.where(k % 2, 2**63 - 1 - (k - 1), -2**63 + k)
        opposite = 2**62 + np.sign(t.opposite)
        wide = dataclasses.replace(t, n=n, cartan_action=action, opposite=opposite)
        doc = document_from_table(wide, "inductive")
        assert doc["cartan_action"].min() == -2**63 and doc["cartan_action"].max() == 2**63 - 1
        _assert_writes_like_the_list_writer(wide, "inductive")


def test_document_holds_read_only_int64_arrays():
    # The document freezes views, not the table's own arrays.
    t = dataclasses.replace(table("B3"), cartan_action=table("B3").cartan_action.copy())
    doc = document_from_table(t, "inductive")
    ref = list_document(t, "inductive")
    assert doc.keys() == ref.keys()
    for field, value in doc.items():
        if field in ("roots", "constants", "cartan_action", "opposite"):
            assert value.dtype == np.int64 and not value.flags.writeable, field
            assert value.tolist() == ref[field], field
        else:
            assert value == ref[field], field
    assert t.cartan_action.flags.writeable
    with pytest.raises(TypeError):
        json.dumps(doc)


def _as_float(a):
    return a.astype(float)


def _as_bool(a):
    return a != 0


def _short(a):
    return a[:, :-1]


def _above_bound(a):
    a = a.copy()
    a[0, -1] = ENTRY_BOUND + 1
    return a


def _swapped(a):
    a = a.copy()
    a[0, :2] = a[0, 1::-1]
    return a


ARRAY_FAULTS = {
    "float": (_as_float, "has an entry that is not an integer"),
    "bool": (_as_bool, "has an entry that is not an integer"),
    "short": (_short, "must be"),
    "above-bound": (_above_bound, "has an entry whose absolute value is above 1048576"),
    "swapped": (_swapped, "needs 0 <= a < b"),
}
ARRAY_CASES = [(field, fault) for field in ("roots", "constants", "cartan_action", "opposite")
               for fault in sorted(ARRAY_FAULTS) if fault != "swapped" or field == "constants"]


@pytest.mark.parametrize("field,fault", ARRAY_CASES)
def test_in_memory_arrays_are_checked_like_lists(field, fault):
    # A document's int64 arrays pass the reader's shape, type and bound
    # checks with the message a list of the same entries gets.
    doc = document_from_table(table("G2"), "inductive")
    assert constants(table_from_document(doc)) == constants(table("G2"))
    mutate, message = ARRAY_FAULTS[fault]
    bad = mutate(doc[field])
    messages = []
    for value in (bad, bad.tolist()):
        with pytest.raises(ChevBasisError, match=message) as caught:
            table_from_document({**doc, field: value})
        messages.append(str(caught.value))
    assert messages[0] == messages[1]


def test_render_root():
    names = root_names(np.array([(1, 1, 1, 0), (0, -1, -1, 0), (1, 1, 2, 1)]))
    assert [row.tobytes().replace(b"\0", b"") for row in names] == [b"1110", b"-0110", b"1121"]


def test_parse_coeffs():
    assert parse_coeffs("1,0,-1", 3) == (1, 0, -1)
    with pytest.raises(ChevBasisError):
        parse_coeffs("1,0", 3)
    with pytest.raises(ChevBasisError):
        parse_coeffs("a,b", 2)


def test_csv_export_d4():
    from chevbasis.closedform import closed_table
    from conftest import system

    rs = system("D4")
    t = closed_table(rs, cb.default_epsilon(rs.cartan))
    data = csv_export(document_from_table(t, "closed")).decode()
    lines = data.splitlines()
    assert lines[0] == "alpha,beta,sum,N"
    assert "1110,-0110,1000,1" in lines
    assert all(line.count(",") == 3 for line in lines)
    assert data.endswith("\n") and "\r" not in data


GOLDEN_G2 = Path(__file__).parent / "golden" / "g2.json"

BAD_CONSTANTS = {
    "not-a-list": lambda c: 5,
    "entry-not-a-list": lambda c: ["0,1,2,1"] + c[1:],
    "three-fields": lambda c: [[0, 1, 2]] + c[1:],
    "float-value": lambda c: [[0, 1, 2, 1.0]] + c[1:],
    "bool-value": lambda c: [[0, 1, 2, True]] + c[1:],
    "string-index": lambda c: [["0", 1, 2, 1]] + c[1:],
    "b-out-of-range": lambda c: [[0, 12, 2, 1]] + c[1:],
    "negative-a": lambda c: [[-1, 1, 2, 1]] + c[1:],
    "negative-sum": lambda c: [[0, 1, -10, 1]] + c[1:],
    "swapped-order": lambda c: [[1, 0, 2, 1]] + c[1:],
    "duplicate": lambda c: c + c[:1],
    "outside-int64": lambda c: [[0, 1, 2, 2**70]] + c[1:],
}


@pytest.mark.parametrize("mutation", sorted(BAD_CONSTANTS))
def test_malformed_constant_entries_rejected(mutation, tmp_path):
    doc = json.loads(GOLDEN_G2.read_bytes())
    assert doc["constants"][0] == [0, 1, 2, 1]
    doc["constants"] = BAD_CONSTANTS[mutation](doc["constants"])
    with pytest.raises(ChevBasisError):
        table_from_document(doc)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert main(["verify", "--in", str(path)]) == 2


def _set(field, row, col, value):
    def mutate(doc):
        doc[field][row][col] = value
        return doc
    return mutate


def _update(**fields):
    return lambda doc: {**doc, **fields}


# Each changes one field's type or value, or the document's shape, in a way
# that only the file check can catch.
BAD_FIELDS = {
    "opposite-float": (_set("opposite", 0, 1, 1.0), "opposite has an entry"),
    "action-float": (_set("cartan_action", 0, 2, 1.0), "cartan_action has an entry"),
    "action-outside-int64": (_set("cartan_action", 0, 2, 2**70), "cartan_action has an entry whose absolute value is above 1048576"),
    "cartan-float": (_set("cartan_matrix", 0, 0, 2.0), "cartan_matrix has an entry"),
    "roots-bool": (_set("roots", 0, 1, True), "roots has an entry"),
    "epsilon-bool": (_update(epsilon=[-1, True]), "not the integer 1 or -1"),
    "epsilon-length": (_update(epsilon=[-1, 1, -1]), "list of 2 signs"),
    "epsilon-not-colouring": (_update(epsilon=[1, 1]), "not a 2-colouring of the G2 diagram"),
    "document-list": (lambda doc: [], "must be a JSON object"),
    "type-int": (_update(type=5), "type 5 is not a string"),
    "schema-version-bool": (_update(schema_version=True), "unsupported schema version True"),
    "positive-count-float": (_update(positive_count=6.0), "positive_count mismatch"),
    "rank-wrong": (_update(rank=99), "rank 99 does not match the type G2"),
    "provenance-list": (_update(provenance=[]), "provenance must be an object"),
    "provenance-method": (_update(provenance={"method": "guessed"}), "provenance must be an object"),
    "provenance-orbit-float": (_update(provenance={"method": "folded", "parent": "D4", "orbits": [[3.0], [1, 2, 4]]}),
                               "orbits lists of integer nodes"),
}


@pytest.mark.parametrize("mutation", sorted(BAD_FIELDS))
def test_malformed_fields_rejected(mutation, tmp_path, capsys):
    doc = json.loads(GOLDEN_G2.read_bytes())
    assert doc["epsilon"] == [-1, 1] and doc["positive_count"] == 6
    assert doc["opposite"][0][1] == 1 and doc["cartan_action"][0][2] == 1
    assert doc["cartan_matrix"][0][0] == 2 and doc["roots"][0] == [0, 1]
    mutate, message = BAD_FIELDS[mutation]
    doc = mutate(doc)
    with pytest.raises(ChevBasisError, match=message):
        table_from_document(doc)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert main(["verify", "--in", str(path)]) == 2
    assert main(["verify", "--in", str(path), "--suite", "jacobi"]) == 2
    assert message in capsys.readouterr().err


# Each gives one length that does not fit the type's closed-form root count.
LENGTH_FAULTS = {
    "cartan-rows": (_update(cartan_matrix=[[2, -1]]), "cartan_matrix must be 2 lists of 2 integers"),
    "roots-rows": (lambda doc: {**doc, "roots": doc["roots"][:-1]}, "roots must be 12 lists of 2 integers"),
    "positive-count": (_update(positive_count=7), "positive_count mismatch"),
    "epsilon-length": (_update(epsilon=[-1, 1, -1]), "list of 2 signs"),
}


@pytest.mark.parametrize("mutation", sorted(LENGTH_FAULTS))
def test_lengths_are_checked_before_the_root_system_is_built(mutation, monkeypatch):
    def refuse(*args):
        raise AssertionError("built before the document's lengths were checked")

    monkeypatch.setattr(serialize, "build_cartan", refuse)
    monkeypatch.setattr(serialize, "generate_roots", refuse)
    mutate, message = LENGTH_FAULTS[mutation]
    with pytest.raises(ChevBasisError, match=message):
        table_from_document(mutate(from_json_bytes(GOLDEN_G2.read_bytes())))


def test_oversized_document_is_refused_early(tmp_path, capsys):
    # A 191-byte A1500 file with empty fields made the reader build and
    # validate the 1500 x 1500 Cartan matrix, about 0.8 s and 63 MB, before
    # it compared the file's first length.
    doc = {"schema_version": 1, "provenance": {"method": "closed"}, "type": "A1500", "rank": 1500,
           "cartan_matrix": [], "roots": [], "positive_count": 0, "epsilon": [],
           "constants": [], "cartan_action": [], "opposite": []}
    path = tmp_path / "a1500.json"
    path.write_text(json.dumps(doc))
    start = time.perf_counter()
    assert main(["verify", "--in", str(path)]) == 2
    assert time.perf_counter() - start < 0.5
    assert capsys.readouterr().err == "error: cartan_matrix must be 1500 lists of 1500 integers\n"


def test_entries_beyond_the_bound_are_refused(tmp_path):
    # An A1 file with cartan_action [[-2**63, -2**63]] made the band term of
    # the Jacobi sweep wrap to 0 in int64 and passed; entries are now bounded
    # so that no sum a verifier forms can overflow.
    a1 = document_from_table(table("A1"), "inductive")
    g2 = json.loads(GOLDEN_G2.read_bytes())
    g2["constants"][0][3] = ENTRY_BOUND + 1
    bad = {"action": {**a1, "cartan_action": [[-2**63, -2**63]]},
           "opposite": {**a1, "opposite": [[ENTRY_BOUND + 1], [-1]]},
           "constant": g2}
    for name, doc in bad.items():
        path = tmp_path / f"{name}.json"
        path.write_bytes(to_json_bytes(doc))
        assert main(["verify", "--in", str(path), "--suite", "jacobi"]) == 2, name
        assert main(["verify", "--in", str(path), "--suite", "jacobi,chevalley"]) == 2, name
    at_bound = table_from_document({**a1, "cartan_action": [[ENTRY_BOUND, -ENTRY_BOUND]]})
    assert at_bound.cartan_action.tolist() == [[ENTRY_BOUND, -ENTRY_BOUND]]
    assert not at_bound.cartan_action.flags.writeable and not at_bound.opposite.flags.writeable


# Mutation corpus: one scalar of a golden file replaced, or one top-level
# field dropped, per example.  Default verify must end in 0, 1 or 2 without
# an exception escaping main, and an int replaced by a value of another
# JSON type must be refused with exit 2 and one line on stderr.  Each
# mutant is written by ``json.dumps`` and in canonical form, which reaches
# the array reader, and both files must give the same outcome.
GOLDEN = Path(__file__).parent / "golden"
MUTATED_FILES = {name: json.loads((GOLDEN / name).read_text()) for name in ("a2.json", "g2.json")}


def _scalar_paths(value, path=()):
    if isinstance(value, dict):
        for key, item in value.items():
            yield from _scalar_paths(item, path + (key,))
    elif isinstance(value, list):
        for k, item in enumerate(value):
            yield from _scalar_paths(item, path + (k,))
    else:
        yield path


SCALAR_PATHS = [(name, path) for name, doc in MUTATED_FILES.items() for path in _scalar_paths(doc)]
NON_INTS = st.floats() | st.booleans() | st.text(max_size=3) | st.none()
REPLACEMENTS = st.integers(-4, 4) | st.integers(-2**70, 2**70) | NON_INTS


def _verify_document(doc) -> tuple[int, str]:
    outcomes = []
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "mutant.json"
        for data in (json.dumps(doc).encode("ascii"), to_json_bytes(doc)):
            path.write_bytes(data)
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                outcomes.append((main(["verify", "--in", str(path)]), err.getvalue()))
    assert outcomes[0] == outcomes[1]
    return outcomes[0]


@settings(derandomize=True, max_examples=500, deadline=None, database=None)
@given(site=st.sampled_from(SCALAR_PATHS), value=REPLACEMENTS)
def test_mutated_scalar_is_refused_or_judged(site, value):
    name, path = site
    doc = copy.deepcopy(MUTATED_FILES[name])
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    old = parent[path[-1]]
    parent[path[-1]] = value
    code, err = _verify_document(doc)
    assert code in (0, 1, 2)
    if type(old) is int and type(value) is not int:
        assert code == 2 and err.startswith("error: ") and err.count("\n") == 1


@settings(derandomize=True, deadline=None, database=None)
@given(name=st.sampled_from(sorted(MUTATED_FILES)), field=st.sampled_from(sorted(MUTATED_FILES["g2.json"])))
def test_dropped_field_is_refused(name, field):
    doc = {k: v for k, v in MUTATED_FILES[name].items() if k != field}
    code, err = _verify_document(doc)
    assert code == 2 and err.startswith("error: ") and err.count("\n") == 1


def test_reader_keeps_file_order(tmp_path, capsys):
    # Constants need not come sorted: a reversed list loads to the same
    # constants, each (a, b) followed by (b, a) in file order, and the
    # audit lists violations in that order.
    doc = json.loads(GOLDEN_G2.read_bytes())
    reversed_doc = {**doc, "constants": doc["constants"][::-1]}
    loaded = table_from_document(reversed_doc)
    assert constants(loaded) == constants(table_from_document(doc))
    assert loaded.pairs[:2].tolist() == [[8, 9], [9, 8]]
    path = tmp_path / "reversed.json"
    path.write_text(json.dumps(reversed_doc))
    assert main(["verify", "--in", str(path)]) == 0
    negated = copy.deepcopy(reversed_doc)
    for entry in negated["constants"]:
        if entry[:2] in ([7, 10], [0, 1]):
            entry[3] *= -1
    path.write_text(json.dumps(negated))
    capsys.readouterr()
    assert main(["verify", "--json", "--in", str(path), "--suite", "chevalley"]) == 1
    (report,) = json.loads(capsys.readouterr().out)
    roots = doc["roots"]
    assert [v["site"] for v in report["violations"]] == [[roots[7], roots[10]], [roots[0], roots[1]], [roots[1], roots[0]]]


# The array reader: canonical bytes parse to arrays equal to json.loads;
# any other bytes fall back to json.loads with its exceptions and messages.
ARRAY_FIELDS = {"cartan_action", "constants", "opposite", "roots"}
CANONICAL_SOURCES = [f"golden-{name}" for name in ("a2", "d4", "g2")] + [
    f"{label}-{eps}" for label in ("E8", "D4", "B3", "G2", "F4", "A1") for eps in ("default", "flipped")]


def _canonical_bytes(source: str) -> bytes:
    kind, name = source.split("-")
    if kind == "golden":
        return (GOLDEN / f"{name}.json").read_bytes()
    return to_json_bytes(document_from_table(table(kind, name == "flipped"), "inductive"))


def _as_lists(doc):
    return {k: v.tolist() if isinstance(v, np.ndarray) else v for k, v in doc.items()}


@pytest.mark.parametrize("source", CANONICAL_SOURCES)
def test_canonical_bytes_read_as_arrays(source):
    data = _canonical_bytes(source)
    fast, slow = from_json_bytes(data), json.loads(data)
    arrays = {k for k, v in fast.items() if isinstance(v, np.ndarray)}
    # A1 has no constants, and "[]" gives no column count: it may fall back.
    assert arrays == (set() if source.startswith("A1-") else ARRAY_FIELDS)
    for key in arrays:
        assert fast[key].dtype == np.int64 and not fast[key].flags.writeable
    assert _as_lists(fast) == slow
    a, b = table_from_document(fast), table_from_document(slow)
    for field in ("pairs", "n", "cartan_action", "opposite"):
        assert np.array_equal(getattr(a, field), getattr(b, field)), field


def _spliced(old: bytes, new: bytes):
    def variant(data: bytes) -> bytes:
        assert data.count(old) == 1
        return data.replace(old, new)
    return variant


# Hand-made departures from the canonical g2.json; the array reader must
# decline each one.
DECLINED = {
    "leading-zero": _spliced(b'"constants":[[0,1,2,1]', b'"constants":[[00,1,2,1]'),
    "minus-zero": _spliced(b'"opposite":[[0,1]', b'"opposite":[[-0,1]'),
    "bare-minus": _spliced(b'"opposite":[[0,1]', b'"opposite":[[-,1]'),
    "minus-inside-token": _spliced(b'"opposite":[[0,1]', b'"opposite":[[0-1,1]'),
    "empty-token": _spliced(b'"opposite":[[0,1]', b'"opposite":[[0,,1]'),
    "space-in-array": _spliced(b'"constants":[[0,1,2,1]', b'"constants":[[0, 1,2,1]'),
    "space-between-fields": _spliced(b',"rank":2', b', "rank":2'),
    "reordered-keys": lambda data: b'{"type":"G2",' + data[1:].replace(b',"type":"G2"', b""),
    "duplicate-scalar-key": _spliced(b'"rank":2', b'"rank":3,"rank":2'),
    "duplicate-array-key": _spliced(b'"roots":', b'"roots":[[0,1]],"roots":'),
    "above-int64": _spliced(b'[[0,1,2,1]', b'[[0,1,2,99999999999999999999]'),
    "below-int64": _spliced(b'[[0,1,2,1]', b'[[0,1,2,-9223372036854775809]'),
    "ragged-rows": _spliced(b'"opposite":[[0,1],', b'"opposite":[[0,1,5],'),
    "ragged-rows-same-count": _spliced(b'"opposite":[[0,1],[1,0],', b'"opposite":[[0,1,1],[0],'),
    "float": _spliced(b'[[0,1,2,1]', b'[[0,1,2,1.0]'),
    "bool": _spliced(b'[[0,1,2,1]', b'[[0,1,2,true]'),
    "field-name-in-provenance": _spliced(b'"parent":"D4"}', b'"parent":"D4","roots":[[0,1]]}'),
    "document-in-a-list": lambda data: b"[" + data[:-1] + b"]\n",
    "trailing-space": lambda data: data + b" ",
    "trailing-brace": lambda data: data + b"}",
    "no-final-lf": lambda data: data[:-1],
    "non-ascii-string": _spliced(b'"parent":"D4"', b'"parent":"D\xc3\xa94"'),
    "non-ascii-in-array": _spliced(b'[[0,1,2,1]', b'[[0,1,2,\xd9]'),
}


def _read(reader, data):
    try:
        return _as_lists(reader(data))
    except Exception as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("variant", sorted(DECLINED))
def test_non_canonical_bytes_take_the_json_path(variant, tmp_path, capsys, monkeypatch):
    data = DECLINED[variant](GOLDEN_G2.read_bytes())
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert serialize._canonical_document(data) is None
    assert not caught
    assert _read(from_json_bytes, data) == _read(lambda d: json.loads(d.decode("ascii")), data)
    path = tmp_path / "variant.json"
    path.write_bytes(data)
    outcomes = []
    for array_reader in (serialize._canonical_document, lambda data: None):
        monkeypatch.setattr(serialize, "_canonical_document", array_reader)
        capsys.readouterr()
        outcomes.append((main(["verify", "--in", str(path)]), capsys.readouterr().err))
    assert outcomes[0] == outcomes[1]
