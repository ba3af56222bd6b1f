"""Folding a simply-laced system along a diagram automorphism.

The fixed-point subalgebra of the induced automorphism is again simple;
its Chevalley generators are orbit sums, its Cartan matrix scales the
rows of moving orbits, and its roots are the restrictions of the parent
roots, two parents restricting equally iff they lie in one orbit.  The
canonical basis passes through the construction: orbit sums of parent
basis vectors form the canonical basis of the folded algebra, and each
folded constant is (parent sign) * (q+1) with q the folded backward
string length.  This is how the non-symmetric types B, C, F4 and G2 get
closed-form constants.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .bracket import BracketTable
from .cartan import (
    MAX_ROOTS,
    CartanMatrix,
    DiagramAutomorphism,
    SignFunction,
    build_cartan,
    default_epsilon,
    root_count,
)
from .closedform import closed_table, pair_signs
from .errors import (
    FoldingPreconditionViolated,
    IllegalType,
    InternalInconsistency,
    NoFoldableSymmetry,
    RepresentativeNotFound,
)
from .roots import RootSystem, _first, generate_roots


# (parent family, parent rank, order) -> folded (family, rank)
_FOLDED_TYPE = {
    ("D", 4, 3): ("G", 2),
    ("E", 6, 2): ("F", 4),
}


def folded_type(cm: CartanMatrix, order: int) -> tuple[str, int]:
    """The (family, rank) that folding cm by an automorphism of this order gives."""
    key = (cm.type_label, cm.rank, order)
    if key in _FOLDED_TYPE:
        return _FOLDED_TYPE[key]
    if order == 1:
        return cm.type_label, cm.rank
    if cm.type_label == "A" and order == 2 and cm.rank >= 3 and cm.rank % 2 == 1:
        return "C", (cm.rank + 1) // 2
    if cm.type_label == "D" and order == 2:
        return "B", cm.rank - 1
    raise FoldingPreconditionViolated(f"no folded type for {cm.label} with order {order}")


@dataclass(eq=False)
class FoldedSystem:
    """A simply-laced root system together with its folded image.

    Three read-only intp arrays, computed once in :func:`fold`, hold the
    orbit structure: ``perm[k]`` is the image of parent root k under the
    induced root permutation, ``restriction[k]`` the folded root that
    parent root k restricts to, and row x of ``orbits`` (folded roots x
    automorphism order) the parent orbit restricting to folded root x, in
    cycle order from its smallest index and padded with -1.  Parents
    restrict equally exactly when they share an orbit.  Instances are
    never mutated and compare by identity.
    """

    parent: RootSystem
    eps: SignFunction
    auto: DiagramAutomorphism
    folded_eps: SignFunction
    folded_rs: RootSystem
    perm: np.ndarray = field(repr=False)
    restriction: np.ndarray = field(repr=False)
    orbits: np.ndarray = field(repr=False)


def fold(rs: RootSystem, eps: SignFunction, auto: DiagramAutomorphism) -> FoldedSystem:
    """Fold a simply-laced root system by a diagram automorphism.

    Raises FoldingPreconditionViolated unless the parent is simply laced,
    the automorphism is a genuine diagram symmetry with unconnected
    orbits, and epsilon is constant on every node orbit.
    """
    cm = rs.cartan
    if not cm.simply_laced:
        raise FoldingPreconditionViolated("folding needs a simply-laced parent")
    try:
        auto.validate(cm)
    except NoFoldableSymmetry as exc:
        raise FoldingPreconditionViolated(str(exc)) from exc
    for orbit in auto.orbits:
        if len({eps.value(i) for i in orbit}) != 1:
            raise FoldingPreconditionViolated("epsilon must be constant on node orbits")

    reps = auto.reps
    sizes = [len(orbit) for orbit in auto.orbits]
    ent = tuple(tuple(cm.a(i, j) * (si if si > sj == 1 else 1) for j, sj in zip(reps, sizes))
                for i, si in zip(reps, sizes))
    family, rank = folded_type(cm, auto.order)
    reference = build_cartan(family, rank)
    if ent != reference.entries:
        raise InternalInconsistency(f"folded matrix of {cm.label} does not match {family}{rank}")
    folded_eps = SignFunction(tuple(eps.value(i) for i in reps))
    folded_rs = generate_roots(reference)
    if eps.is_coloring_of(cm) and not folded_eps.is_coloring_of(reference):
        raise InternalInconsistency("restricted epsilon lost the coloring property")

    # The induced root permutation, by one lookup of the permuted roots; its
    # cycles, each listed from its smallest index, are the root orbits.
    perm = rs.find(rs.coeffs[:, np.argsort(auto.perm)])
    if (k := _first(perm < 0)) is not None:
        raise InternalInconsistency(f"the image of {rs.roots[k]} is not a root of {cm.label}")
    powers = [np.arange(len(perm))]
    while len(powers) <= auto.order:
        powers.append(perm[powers[-1]])
    powers = np.stack(powers)  # powers[t, k] = perm^t(k); the last row is the identity
    low = powers.min(axis=0)
    lengths = (powers[1:] == powers[0]).argmax(axis=0) + 1
    # cycles[t, k] = perm^t(k) for t below the length of k's orbit, -1 from there on
    cycles = np.where(np.arange(auto.order)[:, None] < lengths, powers[:-1], -1)
    # The restrictions, by one lookup of the node-orbit sums in the folded system.
    coords = rs.coeffs @ np.array([[i in orbit for orbit in auto.orbits] for i in cm.nodes], dtype=np.int64)
    restriction = folded_rs.find(coords)
    if (k := _first(restriction < 0)) is not None:
        raise InternalInconsistency(
            f"restriction {tuple(coords[k].tolist())} of {rs.roots[k]} is not a root of {reference.label}"
        )
    # Restrictions must separate orbits and exhaust the folded system; then
    # owner[x] is the smallest member of the orbit restricting to x.
    owner = np.full(len(folded_rs.coeffs), -1)
    owner[restriction] = low
    if (owner[restriction] != low).any():
        raise InternalInconsistency("two distinct orbits share a restriction")
    if (owner < 0).any():
        raise InternalInconsistency("restrictions do not cover the folded root system")
    orbits = cycles.T[owner]
    for a in (perm, restriction, orbits):
        a.flags.writeable = False

    return FoldedSystem(parent=rs, eps=eps, auto=auto, folded_eps=folded_eps, folded_rs=folded_rs,
                        perm=perm, restriction=restriction, orbits=orbits)


def _q_routes(fs: FoldedSystem) -> tuple[np.ndarray, ...]:
    """Folded pairs, parent representatives and their q by all three routes.

    Returns (xs, ys, ka, kb, found, q): the folded pairs (xs[i], ys[i])
    with a root sum, in row-major order; ka the first parent of x and kb
    the first member of y's parent orbit with ka + kb a root (valid where
    ``found``); and q, a 3 x P array of the folded backward string length
    by string walk, orbit pair count and orbit case analysis.  The orbits
    are the rows xs and ys of ``fs.orbits``, and the case analysis moves
    ka and kb by ``fs.perm``, all in whole-array gathers.  The tests
    hold each route to its statement on coefficient tuples, pair by pair,
    in ``tests/reference.py``.
    """
    rs, rs_f, orbits, perm = fs.parent, fs.folded_rs, fs.orbits, fs.perm
    xs, ys = rs_f.pairs.T
    oa, ob = orbits[xs], orbits[ys]
    ka = oa[:, 0]
    hit = (ob >= 0) & (rs.sum_index[ka[:, None], ob] >= 0)
    kb = ob[np.arange(len(ys)), hit.argmax(axis=1)]
    s = rs.sum_index[ka, kb]
    q_string = rs_f.backward_lengths(xs, ys)
    pairs = (oa[:, :, None] >= 0) & (ob[:, None, :] >= 0)
    same = pairs & (rs.sum_index[oa[:, :, None], ob[:, None, :]] == s[:, None, None])
    q_count = same.sum(axis=(1, 2)) - 1
    d = fs.auto.order
    q_case = np.where((perm[ka] == ka) | (perm[kb] == kb), 0,
                      np.where(rs.sum_index[perm[ka], perm[kb]] == s, d - 1, 0 if d == 2 else 1))
    return xs, ys, ka, kb, hit.any(axis=1), np.stack([q_string, q_count, q_case])


def folded_table(fs: FoldedSystem) -> BracketTable:
    """The canonical bracket table of the folded algebra.

    For each folded pair, a parent representative pair with a root sum is
    located by cycling beta through its orbit; the constant is then the
    parent closed-form sign times (q+1).  The backward length q is
    computed three independent ways (folded string walk, orbit pair
    count, orbit case analysis) which must agree exactly.  Co-roots of
    folded roots are orbit sums of parent co-roots, re-expressed over the
    folded Cartan generators and checked against the folded root system's
    own co-root construction.  All of it runs on index arrays; the first
    failing pair or root, in index order, is the one reported.
    """
    rs = fs.parent
    rs_f = fs.folded_rs
    xs, ys, ka, kb, found, q = _q_routes(fs)
    bad = ~found | (q != q[0]).any(axis=0)
    if bad.any():
        i = int(bad.argmax())
        x, y = rs_f.roots[xs[i]], rs_f.roots[ys[i]]
        if not found[i]:
            raise RepresentativeNotFound(f"no representative pair for folded {x} + {y}")
        raise InternalInconsistency(
            f"q disagreement at {x},{y}: string {q[0, i]}, count {q[1, i]}, case {q[2, i]}"
        )
    n = pair_signs(rs, fs.eps, ka, kb) * (q[0] + 1)
    del xs, ys, ka, kb, found, q, bad  # released before the co-root orbit sums

    totals = np.zeros((len(rs_f.roots), rs.rank), dtype=np.int64)
    np.add.at(totals, fs.restriction, rs.coroots)
    columns = [np.array(orbit) - 1 for orbit in fs.auto.orbits]
    coords = totals[:, [c[0] for c in columns]]
    expected = rs_f.coroots
    uneven = np.any([(totals[:, c] != totals[:, c[:1]]).any(axis=1) for c in columns], axis=0)
    bad = uneven | (coords != expected).any(axis=1)
    if bad.any():
        fa = int(bad.argmax())
        fra = rs_f.roots[fa]
        if uneven[fa]:
            raise InternalInconsistency(f"orbit co-root sum not constant on node orbit at {fra}")
        raise InternalInconsistency(
            f"folded co-root mismatch at {fra}: {tuple(coords[fa].tolist())} vs {tuple(expected[fa].tolist())}"
        )

    return BracketTable(
        rs=rs_f,
        eps=fs.folded_eps,
        pairs=rs_f.pairs,
        n=n,
        cartan_action=rs_f.cartan_action,
        opposite=rs_f.coroots,
    )


def fold_source(family: str, rank: int) -> tuple[CartanMatrix, DiagramAutomorphism]:
    """The simply-laced parent and automorphism that fold onto a given type.

    The one table of the four folds, each as its parent and node orbits:
    B_n from D_{n+1} by the fork swap, C_n from A_{2n-1} by i <-> 2n-i, G2
    from triality on D4 and F4 from the E6 symmetry.  A parent with more
    than ``MAX_ROOTS`` roots is refused, naming the type it would fold onto.
    """
    family = family.upper()
    if family == "B" and rank >= 2:
        parent, orbits = ("D", rank + 1), ((1, 2),) + tuple((i,) for i in range(3, rank + 2))
    elif family == "C" and rank >= 2:
        parent, orbits = ("A", 2 * rank - 1), ((rank,),) + tuple((rank - k, rank + k) for k in range(1, rank))
    elif (family, rank) == ("G", 2):
        parent, orbits = ("D", 4), ((3,), (1, 2, 4))
    elif (family, rank) == ("F", 4):
        parent, orbits = ("E", 6), ((2,), (4,), (3, 5), (1, 6))
    else:
        raise IllegalType(f"{family}{rank} is not a folded type")
    if (nr := root_count(*parent)) > MAX_ROOTS:
        raise IllegalType(f"{family}{rank} folds from {parent[0]}{parent[1]}, which has {nr} roots, "
                          f"above the limit of {MAX_ROOTS}")
    cm = build_cartan(*parent)
    auto = DiagramAutomorphism(orbits)
    auto.validate(cm)
    return cm, auto


def standard_automorphism(cm: CartanMatrix) -> DiagramAutomorphism:
    """The fold of largest order in :func:`fold_source` whose parent is ``cm``.

    Triality on D4, the fork swap on D_{>=3}, i <-> 2n-i on A_{2n-1} and
    the E6 symmetry; any other type raises NoFoldableSymmetry.
    """
    for order in (3, 2):
        try:
            target = folded_type(cm, order)
        except FoldingPreconditionViolated:
            continue
        return fold_source(*target)[1]
    raise NoFoldableSymmetry(f"type {cm.label} has no foldable symmetry")


def fold_onto(cm: CartanMatrix, eps: SignFunction) -> tuple[BracketTable, dict]:
    """The folded table of a B, C, F4 or G2 type with sign function ``eps``.

    The parent comes from :func:`fold_source`; its epsilon is the parent
    default when ``eps`` is the default of ``cm`` (the parent default
    restricts to it, see ``default_epsilon``) and its flip otherwise.  The
    second value is the provenance: parent label and node orbits.
    """
    parent_cm, auto = fold_source(cm.type_label, cm.rank)
    parent_eps = default_epsilon(parent_cm)
    if eps != default_epsilon(cm):
        parent_eps = parent_eps.flipped()
    fs = fold(generate_roots(parent_cm), parent_eps, auto)
    return folded_table(fs), {"parent": parent_cm.label, "orbits": [list(o) for o in auto.orbits]}


def independent_table(rs: RootSystem, eps: SignFunction) -> tuple[BracketTable, dict]:
    """The table of (rs, eps) by the route independent of build_inductive.

    The closed formula for A, D and E; folding for B, C, F4 and G2.  The
    second value is the provenance, empty for closed tables.
    """
    if rs.cartan.simply_laced:
        return closed_table(rs, eps), {}
    return fold_onto(rs.cartan, eps)
