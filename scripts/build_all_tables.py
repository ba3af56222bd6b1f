#!/usr/bin/env python3
"""Build and fully verify the tables of every desk-rank type.

For each type the inductive table is built for both sign functions, run
through the Jacobi sweep and the Chevalley audit, compared against the
independent route (closed formula or folding), and written to JSON and
read back: the loaded table must match the built one under
``differential``.  Prints one line per type with the seconds spent in
``generate_roots`` for the type and, for B, C, F4 and G2, in ``fold`` of
its simply-laced parent (both outside the build-and-verify seconds), and
with the Jacobi route
(``generators`` when the unordered triples with a positive simple
generator settled it, each evaluated once, ``graded`` when it fell back
to the full graded sweep over the ordered triples) and its evaluated and
implied-by-generation counts, the latter including the orderings that
alternation settles; exits non-zero on any failure, including
a clean table that falls back, since that means a precondition of the
generator route is wrong.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

# The package is imported from this checkout's src/, so no install is needed.
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import chevbasis as cb
from chevbasis.folding import independent_table
from chevbasis.serialize import document_from_table, from_json_bytes, table_from_document, to_json_bytes
from chevbasis.verify import chevalley_audit, differential, jacobi_sweep

TYPES = [
    "A1", "A2", "A3", "A4", "A5", "A6", "A7",
    "B2", "B3", "B4",
    "C2", "C3", "C4",
    "D3", "D4", "D5", "D6",
    "E6", "E7", "E8",
    "F4", "G2",
]


def run() -> int:
    failures = 0
    for label in TYPES:
        family, rank = cb.parse_type_label(label)
        start = time.perf_counter()
        rs = cb.generate_roots(cb.build_cartan(family, rank))
        timings = f"roots {time.perf_counter() - start:6.4f}s  "
        if not rs.cartan.simply_laced:
            parent_cm, auto = cb.fold_source(family, rank)
            parent = cb.generate_roots(parent_cm)
            start = time.perf_counter()
            cb.fold(parent, cb.default_epsilon(parent_cm), auto)
            timings += f"fold {time.perf_counter() - start:6.4f}s  "
        else:
            timings += " " * 14
        start = time.perf_counter()
        status = []
        for eps in (cb.default_epsilon(rs.cartan), cb.default_epsilon(rs.cartan).flipped()):
            t = cb.build_inductive(rs, eps)
            other, meta = independent_table(rs, eps)
            route = f"fold({meta['parent']})" if meta else "closed"
            jacobi = jacobi_sweep(t)
            if not jacobi.implied_by_generation:
                failures += 1
                status.append("jacobi fell back to the graded sweep on a clean table")
            loaded = table_from_document(from_json_bytes(to_json_bytes(document_from_table(t, "inductive"))))
            for report in (jacobi, chevalley_audit(t), differential(t, other), differential(loaded, t)):
                if not report.passed:
                    failures += 1
                    status.append(report.summary())
        elapsed = time.perf_counter() - start
        verdict = "; ".join(status) if status else f"ok ({route})"
        counts = f"{jacobi.evaluated:7d} evaluated, {jacobi.implied_by_generation:9d} implied"
        jacobi_route = "generators" if jacobi.implied_by_generation else "graded"
        print(f"{label:3s} dim {rs.rank + len(rs.roots):3d}  {timings}{elapsed:6.2f}s  "
              f"jacobi {jacobi_route} ({counts})  {verdict}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(run())
