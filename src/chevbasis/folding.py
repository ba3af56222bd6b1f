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
    CartanMatrix,
    DiagramAutomorphism,
    SignFunction,
    default_epsilon,
    uncapped_cartan,
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

    Two read-only intp arrays, computed once in :func:`fold`, hold the
    orbit structure: ``restriction[k]`` is the folded root that parent
    root k restricts to, and row x of ``orbits`` (folded roots x
    automorphism order) the parent orbit restricting to folded root x, in
    cycle order of the induced root permutation from its smallest index
    and padded with -1.  Parents restrict equally exactly when they share
    an orbit.  Instances are never mutated and compare by identity.
    """

    parent: RootSystem
    eps: SignFunction
    auto: DiagramAutomorphism
    folded_eps: SignFunction
    folded_rs: RootSystem
    restriction: np.ndarray = field(repr=False)
    orbits: np.ndarray = field(repr=False)


def fold(rs: RootSystem, eps: SignFunction, auto: DiagramAutomorphism, folded_rs: RootSystem) -> FoldedSystem:
    """Fold a simply-laced root system by a diagram automorphism onto ``folded_rs``.

    The caller supplies the folded root system, and the returned
    ``FoldedSystem`` holds that very object.  Raises
    FoldingPreconditionViolated unless the parent is simply laced, the
    automorphism is a genuine diagram symmetry with unconnected orbits,
    epsilon is constant on every node orbit, and the folded Cartan matrix
    is the one of ``folded_rs``.
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
    if ent != folded_rs.cartan.entries:
        raise FoldingPreconditionViolated(f"this fold of {cm.label} does not give {folded_rs.cartan.label}")
    folded_eps = SignFunction(tuple(eps.value(i) for i in reps))
    if eps.is_coloring_of(cm) and not folded_eps.is_coloring_of(folded_rs.cartan):
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
            f"restriction {tuple(coords[k].tolist())} of {rs.roots[k]} is not a root of {folded_rs.cartan.label}"
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
    for a in (restriction, orbits):
        a.flags.writeable = False

    return FoldedSystem(parent=rs, eps=eps, auto=auto, folded_eps=folded_eps, folded_rs=folded_rs,
                        restriction=restriction, orbits=orbits)


def folded_table(fs: FoldedSystem) -> BracketTable:
    """The canonical bracket table of the folded algebra.

    For each folded pair (x, y) with a root sum, ka is the first parent of
    x and kb the first member of y's parent orbit whose sum with ka is a
    root; the constant is the parent closed-form sign of (ka, kb) times
    (q+1), with q the folded backward string length.  The co-roots are
    the folded root system's own.  All of it runs on index arrays and
    reads only the parent's coefficients, never its ``sum_index``; the
    first pair without a representative, in row-major order, is the one
    reported.
    """
    rs, rs_f = fs.parent, fs.folded_rs
    xs, ys = rs_f.pairs.T
    ka = fs.orbits[xs, 0]
    ob = fs.orbits[ys]
    # In the simply-laced parent ka + m is a root exactly when (ka, m) =
    # coeffs[m] . cartan_action[:, ka] is -1.  Each result, alpha(h_i) or
    # (ka, m), lies in [-2, 2], so the int8 sums, exact mod 2^8, cannot wrap.
    # The -1 orbit padding is masked; blocks of 2^14 pairs keep memory small.
    small, action = rs.coeffs.astype(np.int8), rs.cartan_action.T.astype(np.int8)
    hit = ob >= 0
    for lo in range(0, len(ys), 2**14):
        hit[lo:lo + 2**14] &= np.einsum("kdr,kr->kd", small[ob[lo:lo + 2**14]], action[ka[lo:lo + 2**14]]) == -1
    if (i := _first(~hit.any(axis=1))) is not None:
        raise RepresentativeNotFound(
            f"no representative pair for folded {rs_f.roots[xs[i]]} + {rs_f.roots[ys[i]]}"
        )
    kb = ob[np.arange(len(ys)), hit.argmax(axis=1)]
    n = pair_signs(rs, fs.eps, ka, kb) * (rs_f.backward_lengths(xs, ys) + 1)
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
    from triality on D4 and F4 from the E6 symmetry.  The parent is not
    capped by ``MAX_ROOTS``: the fold reads only its coefficients.
    :func:`independent_table` builds the parent's root system from it and
    folds it onto the caller's folded one.
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
    cm = uncapped_cartan(*parent)
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


def independent_table(rs: RootSystem, eps: SignFunction) -> tuple[BracketTable, dict]:
    """The table of (rs, eps) by the route independent of build_inductive.

    The one place that picks that route: the closed formula for A, D and
    E, and for B, C, F4 and G2 the fold of the :func:`fold_source` parent
    onto ``rs`` itself, so the table's ``rs`` is the one passed in.  The
    parent epsilon is the parent default when ``eps`` is the default of
    ``rs`` (the parent default restricts to it, see ``default_epsilon``)
    and its flip otherwise.  The second value is the provenance: empty for
    closed tables, parent label and node orbits for folded ones.
    """
    cm = rs.cartan
    if cm.simply_laced:
        return closed_table(rs, eps), {}
    parent_cm, auto = fold_source(cm.type_label, cm.rank)
    parent = generate_roots(parent_cm)
    parent_eps = default_epsilon(parent_cm)
    if eps != default_epsilon(cm):
        parent_eps = parent_eps.flipped()
    table = folded_table(fold(parent, parent_eps, auto, rs))
    return table, {"parent": parent_cm.label, "orbits": [list(o) for o in auto.orbits]}
