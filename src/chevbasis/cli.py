"""Command-line interface: generate, fold, verify and inspect tables.

Exit codes: 0 on success (all verifications passing), 1 when a
verification suite reports violations, 2 on usage errors and malformed
files, 3 when a construction cross-check disagrees with itself
(``InternalInconsistency``, a defect in the package, not in the input).
Every command is deterministic; there is no randomness anywhere in the
package.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

import numpy as np

from .bracket import BracketTable, build_inductive
from .cartan import build_cartan, default_epsilon, parse_type_label
from .closedform import closed_table
from .errors import ChevBasisError, DegeneratePair, IllegalType, InternalInconsistency, NotARoot, NotSimplyLaced
from .folding import fold_onto, folded_type, independent_table, standard_automorphism
from .report import VerificationReport
from .roots import generate_roots
from .serialize import (
    csv_export,
    document_from_table,
    from_json_bytes,
    parse_coeffs,
    root_names,
    table_from_document,
    to_json_bytes,
)
from .verify import chevalley_audit, differential, jacobi_sweep, sl_n_oracle

USAGE_ERROR = 2
INTERNAL_ERROR = 3


def _build(family: str, rank: int, eps_choice: str, method: str) -> tuple[BracketTable, dict]:
    """Build a table for the requested type by the requested route: inductive, closed or fold."""
    cm = build_cartan(family, rank)
    eps = default_epsilon(cm).flipped() if eps_choice == "flipped" else default_epsilon(cm)
    if method == "inductive":
        return build_inductive(generate_roots(cm), eps), {}
    if method == "closed":
        if not cm.simply_laced:
            raise NotSimplyLaced(f"--method closed needs a simply-laced type, not {cm.label}")
        return closed_table(generate_roots(cm), eps), {}
    return fold_onto(cm, eps)


def _write_outputs(table: BracketTable, method: str, meta: dict, out: str, csv: str | None) -> None:
    doc = document_from_table(table, method, meta)
    Path(out).write_bytes(to_json_bytes(doc))
    if csv:
        Path(csv).write_bytes(csv_export(doc))


def _cmd_gen(args) -> int:
    family, rank = parse_type_label(args.type)
    method = args.method or ("closed" if family in ("A", "D", "E") else "fold")
    table, meta = _build(family, rank, args.epsilon, method)
    _write_outputs(table, "folded" if method == "fold" else method, meta, args.out, args.csv)
    print(f"wrote {table.rs.cartan.label} table ({method}) to {args.out}")
    return 0


def _cmd_fold(args) -> int:
    family, rank = parse_type_label(args.type)
    cm = build_cartan(family, rank)
    table, meta = _build(*folded_type(cm, standard_automorphism(cm).order), args.epsilon, "fold")
    _write_outputs(table, "folded", meta, args.out, args.csv)
    print(f"folded {cm.label} onto {table.rs.cartan.label}, wrote {args.out}")
    return 0


SUITES = ("jacobi", "chevalley", "differential", "slN")


def _cmd_verify(args) -> int:
    suites = args.suite.split(",") if args.suite is not None else None
    for suite in suites or ():
        if suite not in SUITES:
            raise IllegalType(f"unknown suite {suite!r}")
    doc = from_json_bytes(Path(args.infile).read_bytes())
    table, method = table_from_document(doc), doc["provenance"]["method"]
    del doc  # released before any suite runs
    cm = table.rs.cartan
    if suites is None:
        suites = ["jacobi", "chevalley", "differential"] + (["slN"] if cm.type_label == "A" and cm.rank <= 7 else [])
    reports: list[VerificationReport] = []
    for suite in suites:
        if suite == "jacobi":
            reports.append(jacobi_sweep(table))
        elif suite == "chevalley":
            reports.append(chevalley_audit(table))
        elif suite == "differential":
            if method in ("closed", "folded"):
                other = build_inductive(table.rs, table.eps)
            else:
                other, _ = independent_table(table.rs, table.eps)
            reports.append(differential(table, other))
        else:
            reports.append(sl_n_oracle(table))
    if args.json:
        print(json.dumps([r.to_json() for r in reports], indent=2, sort_keys=True))
    else:
        for r in reports:
            print(r.summary())
    return 0 if all(r.passed for r in reports) else 1


def _cmd_show(args) -> int:
    doc = from_json_bytes(Path(args.infile).read_bytes())
    table = table_from_document(doc)
    rs = table.rs
    alpha = parse_coeffs(args.alpha, rs.rank)
    beta = parse_coeffs(args.beta, rs.rank)
    # No root has a coefficient beyond 6, so clipping keeps every non-root
    # one, and keeps coefficients beyond int64 out of the integer lookup.
    a, b = rs.find(np.array([alpha, beta], dtype=object).clip(-7, 7).astype(np.int64)).tolist()
    for vector, k in ((alpha, a), (beta, b)):
        if k < 0:
            raise NotARoot(f"{vector} is not a root")
    if b in (a, rs.neg[a]):
        raise DegeneratePair("string through beta = +/- alpha is undefined")
    p, q = rs.backward_lengths([rs.neg[a], a], [b, b]).tolist()
    k = table.find([a], [b])[0]
    chain = rs.find(rs.coeffs[b] + np.arange(-q, p + 1)[:, None] * rs.coeffs[a])
    names = [row.tobytes().lstrip(b"\0").decode("ascii") for row in root_names(rs.coeffs[np.r_[a, b, chain]])]
    print(f"N[{names[0]}, {names[1]}] = {table.n[k] if k >= 0 else 0}")
    print(f"string (p={p}, q={q}): " + " , ".join(names[2:]))
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; it holds no state between parses."""
    parser = argparse.ArgumentParser(
        prog="chevbasis",
        description="Exact canonical Chevalley basis structure constants.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a table and write it as JSON")
    gen.add_argument("--type", required=True, help="type label, e.g. A3, E8, G2")
    gen.add_argument("--epsilon", choices=["default", "flipped"], default="default")
    gen.add_argument("--method", choices=["inductive", "closed", "fold"], default=None)
    gen.add_argument("--out", required=True)
    gen.add_argument("--csv", default=None, help="also write a CSV rendering")

    fold_p = sub.add_parser("fold", help="fold a simply-laced type by its standard symmetry")
    fold_p.add_argument("--type", required=True, help="simply-laced parent, e.g. D4, E6, A5")
    fold_p.add_argument("--epsilon", choices=["default", "flipped"], default="default")
    fold_p.add_argument("--out", required=True)
    fold_p.add_argument("--csv", default=None)

    ver = sub.add_parser("verify", help="run verification suites on a table file")
    ver.add_argument("--in", dest="infile", required=True)
    ver.add_argument("--suite", default=None, help="comma list: " + ",".join(SUITES))
    ver.add_argument("--json", action="store_true", help="emit reports as JSON")

    show = sub.add_parser("show", help="print one constant and its root string")
    show.add_argument("--in", dest="infile", required=True)
    show.add_argument("--alpha", required=True, help="comma-separated coefficients; a negative root as --alpha=-1,0")
    show.add_argument("--beta", required=True, help="comma-separated coefficients; a negative root as --beta=-1,0")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    # Looked up on each call rather than stored in the cached parser, so
    # that a handler replaced on the module (a wrapper, say) is the one run.
    command = {"gen": _cmd_gen, "fold": _cmd_fold, "verify": _cmd_verify, "show": _cmd_show}[args.command]
    try:
        return command(args)
    except InternalInconsistency as exc:
        print(f"error: internal inconsistency: {exc}", file=sys.stderr)
        return INTERNAL_ERROR
    except (ChevBasisError, OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
