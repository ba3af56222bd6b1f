"""Shared builders for the test suite, cached so expensive systems build once.

Cached objects are shared across tests and must never be mutated; tests
that need a corrupted table use :func:`with_flipped_constant` or
:func:`with_constants`.
"""

from __future__ import annotations

import dataclasses
from functools import lru_cache

import numpy as np

import chevbasis as cb
from chevbasis.bracket import BracketTable
from chevbasis.errors import DegeneratePair, NotARoot
from chevbasis.folding import folded_type
from chevbasis.serialize import ENTRY_BOUND

DESK_TYPES = (
    "A1", "A2", "A3", "A4", "A5", "A6", "A7",
    "B2", "B3", "B4",
    "C2", "C3", "C4",
    "D3", "D4", "D5", "D6",
    "E6", "E7", "E8",
    "F4", "G2",
)

SIMPLY_LACED_TYPES = tuple(t for t in DESK_TYPES if t[0] in "ADE")

FOLDS = (("A3", "C2"), ("A5", "C3"), ("D4", "G2"), ("D5", "B4"), ("E6", "F4"))


@lru_cache(maxsize=None)
def system(label: str) -> cb.RootSystem:
    family, rank = cb.parse_type_label(label)
    return cb.generate_roots(cb.build_cartan(family, rank))


@lru_cache(maxsize=None)
def table(label: str, flipped: bool = False) -> BracketTable:
    rs = system(label)
    eps = cb.default_epsilon(rs.cartan)
    if flipped:
        eps = eps.flipped()
    return cb.build_inductive(rs, eps)


def fold(rs: cb.RootSystem, eps: cb.SignFunction, auto: cb.DiagramAutomorphism) -> cb.FoldedSystem:
    """``cb.fold`` onto the cached system of the type that ``folded_type`` names for (rs, auto)."""
    family, rank = folded_type(rs.cartan, auto.order)
    return cb.fold(rs, eps, auto, system(f"{family}{rank}"))


@lru_cache(maxsize=None)
def folded(parent_label: str) -> tuple[cb.FoldedSystem, BracketTable]:
    rs = system(parent_label)
    eps = cb.default_epsilon(rs.cartan)
    auto = cb.standard_automorphism(rs.cartan)
    fs = fold(rs, eps, auto)
    return fs, cb.folded_table(fs)


@lru_cache(maxsize=None)
def tuple_index(rs: cb.RootSystem) -> dict[tuple[int, ...], int]:
    """Root tuple -> root index, built from ``rs.roots``: the membership reference of the scalar test loops."""
    return {r: k for k, r in enumerate(rs.roots)}


def coroot(rs: cb.RootSystem, alpha: tuple[int, ...]) -> tuple[int, ...]:
    """The co-root coordinates of a root, read from ``rs.coroots``."""
    return tuple(rs.coroots[tuple_index(rs)[alpha]].tolist())


def found_string_lengths(rs: cb.RootSystem, alpha: tuple[int, ...], beta: tuple[int, ...]) -> tuple[int, int]:
    """(p, q) of the alpha-string through beta, read the way ``show`` reads it.

    Both roots are looked up by one ``rs.find``, and p and q are
    ``backward_lengths`` at (-alpha, beta) and (alpha, beta).
    """
    a, b = rs.find(np.array([alpha, beta])).tolist()
    if a < 0 or b < 0:
        raise NotARoot("both arguments must be roots")
    if b in (a, rs.neg[a]):
        raise DegeneratePair("string through beta = +/- alpha is undefined")
    p, q = rs.backward_lengths([rs.neg[a], a], [b, b]).tolist()
    return p, q


def constant(t: BracketTable, alpha: tuple[int, ...], beta: tuple[int, ...]) -> int:
    """N_{alpha,beta} read by ``t.find`` at the roots' indices in :func:`tuple_index`; 0 where not stored."""
    index = tuple_index(t.rs)
    k = int(t.find([index[alpha]], [index[beta]])[0])
    return int(t.n[k]) if k >= 0 else 0


def constants(t: BracketTable) -> dict[tuple[int, int], int]:
    """The stored constants as a dict {(a, b): N}, in table order."""
    return dict(zip(map(tuple, t.pairs.tolist()), t.n.tolist()))


def with_constants(t: BracketTable, n: dict[tuple[int, int], int] | None = None, **fields) -> BracketTable:
    """A copy of a table with other ``fields``, and with the constants of ``n``, in its order, if given."""
    if n is not None:
        fields["pairs"] = np.array(list(n), dtype=np.intp).reshape(-1, 2)
        fields["n"] = np.array(list(n.values()), dtype=np.int64)
    return dataclasses.replace(t, **fields)


def with_flipped_constant(t: BracketTable, which: int = 0) -> BracketTable:
    """A copy of a table with one stored constant's sign flipped."""
    n = constants(t)
    key = sorted(n)[which]
    return with_constants(t, {**n, key: -n[key]})


def with_flipped_opposite(t: BracketTable, which: int = 0) -> BracketTable:
    """A copy of a table with one co-root vector negated."""
    opposite = t.opposite.copy()
    opposite[which] *= -1
    return with_constants(t, opposite=opposite)


def with_flipped_vectors(t: BracketTable, flipped: set[int]) -> BracketTable:
    """The same algebra in the basis with e_k negated for every root index k in ``flipped``.

    N(a, b) changes sign once for each of a, b and a + b in the set.  For a
    set closed under negation the Cartan vectors [e_k, e_{-k}] are unchanged.
    """
    sign = [-1 if k in flipped else 1 for k in range(len(t.rs.roots))]
    si = t.rs.sum_index
    n = {(a, b): v * sign[a] * sign[b] * sign[int(si[a, b])] for (a, b), v in constants(t).items()}
    return with_constants(t, n)


def at_the_bound(t: BracketTable) -> dict[str, BracketTable]:
    """Tables whose constants, Cartan actions and co-root entries sit at +-ENTRY_BOUND.

    ``signs`` keeps every sign and zero, so the bracket stays antisymmetric
    and generated, and the generator triples are evaluated at the bound;
    ``full`` also puts every zero action and co-root entry at the bound.
    """
    full = np.full_like(t.opposite, ENTRY_BOUND)
    full[t.rs.positive_count:] = -ENTRY_BOUND
    n = np.sign(t.n) * ENTRY_BOUND
    return {"signs": dataclasses.replace(t, n=n, cartan_action=np.sign(t.cartan_action) * ENTRY_BOUND,
                                         opposite=np.sign(t.opposite) * ENTRY_BOUND),
            "full": dataclasses.replace(t, n=n, cartan_action=np.full_like(t.cartan_action, -ENTRY_BOUND),
                                        opposite=full)}
