"""Canonical JSON documents and CSV export for bracket tables.

A table document is a dict with a fixed field set, so serialisation is
byte-stable across runs: same table, same bytes.  Four fields are
read-only int64 arrays: ``roots`` (coefficient rows in root-system
order), ``constants`` ((a, b, sum, N) index quadruples sorted by (a, b)),
``cartan_action`` and ``opposite``; the rest are plain JSON values.
``json.dumps`` does not encode an array, so :func:`to_json_bytes` is the
one encoder: it writes each array field by one gather from a text table
of its values, and the bytes equal ``json.dumps`` with sorted keys and
no whitespace on the same document held as lists.  A file in that
canonical form reads back as the arrays that wrote it, each array field
parsed by one numpy call (:func:`from_json_bytes`); any other file is
read by ``json.loads`` and holds lists.  :func:`table_from_document`
accepts both.
"""

from __future__ import annotations

import json
import warnings
from itertools import chain
from typing import Any

import numpy as np

from .bracket import ENTRY_BOUND, BracketTable, check_entry_bound
from .cartan import SignFunction, build_cartan, parse_type_label, root_count
from .errors import ChevBasisError, InvalidEpsilon, NotARoot
from .roots import Root, _first, _read_only, generate_roots

SCHEMA_VERSION = 1
METHODS = ("inductive", "closed", "folded")
_REQUIRED_FIELDS = ("type", "rank", "roots", "positive_count", "epsilon", "constants", "cartan_action", "opposite")


def document_from_table(t: BracketTable, method: str, provenance: dict[str, Any] | None = None) -> dict[str, Any]:
    """A table as a document with provenance metadata; see the module docstring for its fields.

    Each unordered constant pair is stored once, under its (a < b) index
    order; the mirror entry is implied by antisymmetry, which is checked
    here so nothing is lost.
    """
    rs = t.rs
    a, b = t.pairs.T
    mirror = t.find(b, a)
    bad = (mirror < 0) | (t.n[mirror] != -t.n)
    if bad.any():
        k = int(bad.argmax())
        raise ChevBasisError(f"table is not antisymmetric at {(int(a[k]), int(b[k]))}; refusing to serialise")
    upper = np.flatnonzero(a < b)
    upper = upper[np.lexsort((b[upper], a[upper]))]
    constants = np.column_stack([a[upper], b[upper], rs.sum_index[a[upper], b[upper]], t.n[upper]])
    if np.any(constants[:, 2] < 0):
        raise NotARoot("a stored pair does not sum to a root; refusing to serialise")
    doc: dict[str, Any] = {
        "schema_version": SCHEMA_VERSION,
        "type": rs.cartan.label,
        "rank": rs.cartan.rank,
        "cartan_matrix": rs.cartan.to_json_rows(),
        "epsilon": list(t.eps.values),
        "positive_count": rs.positive_count,
        "roots": _read_only(rs.coeffs),
        "constants": _read_only(constants),
        "cartan_action": _read_only(t.cartan_action),
        "opposite": _read_only(t.opposite),
        "provenance": {"method": method, **(provenance or {})},
    }
    return doc


def table_from_document(doc: dict[str, Any]) -> BracketTable:
    """Rebuild a table, validating the document against a fresh root system."""
    if not isinstance(doc, dict):
        raise ChevBasisError("a table document must be a JSON object")
    if missing := [f for f in _REQUIRED_FIELDS if f not in doc]:
        raise ChevBasisError(f"document has no {missing[0]!r} field")
    version = doc.get("schema_version")
    if type(version) is not int or version != SCHEMA_VERSION:
        raise ChevBasisError(f"unsupported schema version {version!r}")
    provenance = doc.get("provenance")
    if not (isinstance(provenance, dict) and provenance.get("method") in METHODS):
        raise ChevBasisError(f"provenance must be an object whose method is one of {', '.join(METHODS)}")
    parent, orbits = provenance.get("parent", ""), provenance.get("orbits", [])
    if not (isinstance(parent, str) and isinstance(orbits, list)
            and all(isinstance(orbit, list) and all(type(i) is int for i in orbit) for orbit in orbits)):
        raise ChevBasisError("provenance parent must be a type label and its orbits lists of integer nodes")
    if not isinstance(doc["type"], str):
        raise ChevBasisError(f"type {doc['type']!r} is not a string")
    family, rank = parse_type_label(doc["type"])
    if type(doc["rank"]) is not int or doc["rank"] != rank:
        raise ChevBasisError(f"rank {doc['rank']!r} does not match the type {doc['type']}")
    # Every length is checked against the closed-form root count before
    # anything of the type's size is built, so that a short file naming a
    # large type is refused at once.
    nr = root_count(family, rank)
    matrix = _int_rows(doc.get("cartan_matrix"), rank, rank, "cartan_matrix")
    roots = _int_rows(doc["roots"], nr, rank, "roots")
    if type(doc["positive_count"]) is not int or 2 * doc["positive_count"] != nr:
        raise ChevBasisError("positive_count mismatch")
    epsilon = doc["epsilon"]
    if not (isinstance(epsilon, list) and len(epsilon) == rank):
        raise ChevBasisError(f"epsilon must be a list of {rank} signs, one per node")
    cm = build_cartan(family, rank)
    if not np.array_equal(matrix, cm.entries):
        raise ChevBasisError("document Cartan matrix does not match the type label")
    rs = generate_roots(cm)
    if not np.array_equal(roots, rs.coeffs):
        raise ChevBasisError("document root list does not match the generated ordering")
    if any(type(v) is not int or v not in (1, -1) for v in epsilon):
        raise ChevBasisError(f"epsilon {epsilon!r} has a value that is not the integer 1 or -1")
    eps = SignFunction(tuple(epsilon))
    if not eps.is_coloring_of(cm):
        raise InvalidEpsilon(f"epsilon {epsilon} is not a 2-colouring of the {cm.label} diagram")
    entries = doc["constants"]
    if not (isinstance(entries, list) or isinstance(entries, np.ndarray) and entries.ndim == 2):
        raise ChevBasisError("constants must be a list")
    a, b, s, value = _int_rows(entries, len(entries), 4, "constants").T
    if (k := _first(~((0 <= a) & (a < b) & (b < nr) & (0 <= s) & (s < nr)))) is not None:
        entry = [int(a[k]), int(b[k]), int(s[k]), int(value[k])]
        raise ChevBasisError(f"constant entry {entry} needs 0 <= a < b < {nr} and 0 <= sum < {nr}")
    key = a * nr + b
    first = np.zeros(len(key), dtype=bool)
    first[np.unique(key, return_index=True)[1]] = True
    if (k := _first(~first)) is not None:
        raise ChevBasisError(f"constant entry {(int(a[k]), int(b[k]))} appears twice")
    if (k := _first(rs.sum_index[a, b] != s)) is not None:
        raise ChevBasisError(f"constant entry {(int(a[k]), int(b[k]), int(s[k]))} has a wrong sum index")
    # File order, each (a, b) followed by its mirror (b, a).
    pairs = np.stack([a, b, b, a], axis=1).reshape(-1, 2)
    n = np.stack([value, -value], axis=1).reshape(-1)
    action = _int_rows(doc["cartan_action"], rank, nr, "cartan_action")
    opposite = _int_rows(doc["opposite"], nr, rank, "opposite")
    return BracketTable(rs=rs, eps=eps, pairs=pairs, n=n, cartan_action=action, opposite=opposite)


def _int_rows(value: Any, rows: int, cols: int, name: str) -> np.ndarray:
    """A document matrix, lists or an array, as a read-only rows x cols int64 array.

    Entries must be integers (no bools or floats) up to ENTRY_BOUND.
    """
    if isinstance(value, np.ndarray):
        if value.shape != (rows, cols):
            raise ChevBasisError(f"{name} must be {rows} lists of {cols} integers")
        if value.dtype.kind not in "iu":
            raise ChevBasisError(f"{name} has an entry that is not an integer")
        check_entry_bound(name, value)
        return _read_only(value.astype(np.int64))
    if not (isinstance(value, list) and len(value) == rows
            and set(map(type, value)) <= {list} and set(map(len, value)) <= {cols}):
        raise ChevBasisError(f"{name} must be {rows} lists of {cols} integers")
    flat = list(chain.from_iterable(value))
    if not set(map(type, flat)) <= {int}:
        raise ChevBasisError(f"{name} has an entry that is not an integer")
    if flat and max(max(flat), -min(flat)) > ENTRY_BOUND:
        raise ChevBasisError(f"{name} has an entry whose absolute value is above {ENTRY_BOUND}")
    return _read_only(np.array(flat, dtype=np.int64).reshape(rows, cols))


def to_json_bytes(doc: dict[str, Any]) -> bytes:
    """Canonical encoding: sorted keys, no whitespace, one trailing LF.

    An array field is written by :func:`_json_rows`, any other value by
    ``json.dumps``; the bytes are those of ``json.dumps`` on the document
    with its arrays as nested lists.
    """
    fields = []
    for key, value in sorted(doc.items()):
        if isinstance(value, np.ndarray):
            text = _json_rows(value)
        else:
            text = json.dumps(value, sort_keys=True, separators=(",", ":")).encode("ascii")
        fields.append(json.dumps(key).encode("ascii") + b":" + text)
    return b"{" + b",".join(fields) + b"}\n"


# The text after a cell of a matrix, NUL-padded: within a row, at a row's end, at the end.
_SEPARATORS = np.frombuffer(b",\0\0],[]]\0", dtype=np.uint8).reshape(3, 3)


def _json_rows(a: np.ndarray) -> bytes:
    """A 2-D integer array as JSON nested lists.

    Each cell's text is gathered from :func:`_text_table` and followed by
    its separator; one pass then drops the NUL padding.
    """
    rows, cols = a.shape
    if not a.size:
        return ("[" + ",".join(["[]"] * rows) + "]").encode("ascii")
    text, index = _text_table(a.reshape(-1))
    cells = np.concatenate([np.take(text, index, axis=0).reshape(rows, cols, -1),
                            np.broadcast_to(_SEPARATORS[0], (rows, cols, 3))], axis=2)
    cells[:, -1, -3:] = _SEPARATORS[1]
    cells[-1, -1, -3:] = _SEPARATORS[2]
    return b"[[" + _drop_nul(cells)


def _drop_nul(cells: np.ndarray) -> bytes:
    # bytes.translate deletes in one pass, about twice as fast as a boolean mask.
    return cells.tobytes().translate(None, b"\0")


def _text_table(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(text, index): NUL-padded ASCII rows of decimal integers, and the row of each value.

    The rows cover [min, max] when that range is no longer than ``values``,
    and the distinct values otherwise, so time and memory stay linear in
    ``values`` whatever their spread.
    """
    lo, hi = int(values.min()), int(values.max())
    if hi - lo < len(values):
        cells, index = lo + np.arange(hi - lo + 1), values - lo
    else:
        cells, index = np.unique(values, return_inverse=True)
    width = max(len(str(lo)), len(str(hi)))
    return cells.astype(f"S{width}").view(np.uint8).reshape(len(cells), width), index


def from_json_bytes(data: bytes) -> dict[str, Any]:
    """The document in a file's bytes.

    Bytes in the canonical form of :func:`to_json_bytes` read back as the
    document that wrote them, with read-only int64 arrays in the four
    array fields; any other bytes go through ``json.loads`` and hold
    lists.  Both give equal documents, so the bytes alone pick the path.
    """
    doc = _canonical_document(data)
    if doc is not None:
        return doc
    try:
        return json.loads(data.decode("ascii"))
    except RecursionError:
        raise ChevBasisError("JSON nesting is too deep") from None


_ARRAY_FIELDS = (b"cartan_action", b"constants", b"opposite", b"roots")
_MATRIX_BYTES = b"0123456789-,[]"


def _canonical_document(data: bytes) -> dict[str, Any] | None:
    """The document of canonical bytes, each array field parsed by one numpy call; None otherwise.

    The fields are cut out in the sorted-key order that
    :func:`to_json_bytes` writes, and the rest of the file goes through
    ``json.loads``.  The document is returned only if it encodes back to
    ``data``: the encoding is injective, so it then equals ``json.loads``
    of ``data`` field by field.  Leading zeros, ``-0``, whitespace, tokens
    beyond int64 (which ``fromstring`` saturates), ragged rows and any
    other departure fail that test or raise here, and return None, so
    malformed files keep the messages of the ``json.loads`` path.
    """
    try:
        with warnings.catch_warnings():
            # numpy 1.x warns on text it cannot read, where 2.x raises.
            warnings.simplefilter("error")
            rest, arrays, at = [], {}, 0
            for name in _ARRAY_FIELDS:
                start = data.index(b'"' + name + b'":[[', at) + len(name) + 3
                end = data.index(b"]]", start) + 2
                text = data[start + 2:end - 2]
                if text.translate(None, _MATRIX_BYTES):
                    return None
                flat = np.fromstring(text.replace(b"],[", b","), dtype=np.int64, sep=",")
                arrays[name.decode("ascii")] = _read_only(flat.reshape(text.count(b"],[") + 1, -1))
                rest += [data[at:start], b"0"]
                at = end
            doc = json.loads(b"".join(rest + [data[at:]]).decode("ascii"))
            doc.update(arrays)
            return doc if to_json_bytes(doc) == data else None
    # A field not found, unreadable text or JSON, a document that is not an
    # object, or (numpy 1.x) a warning from fromstring.
    except (ValueError, AttributeError, RecursionError, Warning):
        return None


def parse_coeffs(text: str, rank: int) -> Root:
    """Parse a comma-separated coefficient vector."""
    try:
        coeffs = tuple(int(x) for x in text.split(","))
    except ValueError as exc:
        raise NotARoot(f"cannot parse coefficients {text!r}") from exc
    if len(coeffs) != rank:
        raise NotARoot(f"expected {rank} coefficients, got {len(coeffs)}")
    return coeffs


def root_names(coeffs: np.ndarray) -> np.ndarray:
    """Compact names of root rows, e.g. (1,1,1,0) -> "1110" and (0,-1,-1,0) -> "-0110", as uint8 rows.

    Each row is a sign slot, "-" for a negative root and NUL otherwise,
    then one digit per coefficient (root coefficients are at most 6);
    dropping the NULs gives the name.
    """
    names = np.zeros((len(coeffs), 1 + coeffs.shape[1]), dtype=np.uint8)
    names[(coeffs < 0).any(axis=1), 0] = ord("-")
    names[:, 1:] = ord("0") + np.abs(coeffs)
    return names


def csv_export(doc: dict[str, Any]) -> bytes:
    """Flat `alpha,beta,sum,N` rows with compact root names (see :func:`root_names`).

    Each root name is rendered once, and each row gathers its three names
    and its N text.
    """
    roots, constants = doc["roots"], doc["constants"]
    header = b"alpha,beta,sum,N\n"
    if not len(constants):
        return header
    names = root_names(roots)
    text, index = _text_table(constants[:, 3])
    comma = np.full((len(constants), 1), ord(","), dtype=np.uint8)
    a, b, s, _ = constants.T
    rows = np.concatenate([np.take(names, a, axis=0), comma, np.take(names, b, axis=0), comma,
                           np.take(names, s, axis=0), comma, np.take(text, index, axis=0),
                           np.full_like(comma, ord("\n"))], axis=1)
    return header + _drop_nul(rows)
