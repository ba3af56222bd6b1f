"""Cartan matrices of finite type, sign functions, and the diagram automorphism type.

Node numbering follows the convention in which the E-series is the chain
1-3-4-5-... with the branch node 2 attached to node 4, the D-series is the
fork 1,2 attached to 3 followed by the chain 3-4-...-n, and the double or
triple edge of B/C/F/G sits between the low-numbered nodes.  These choices
are pinned by the folding cross-checks in :mod:`chevbasis.folding`, whose
``fold_source`` states the four folds: D_{n+1} yields exactly
``build_cartan("B", n)``, A_{2n-1} yields ``build_cartan("C", n)``,
triality on D4 yields G2 and the E6 symmetry yields F4.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

from .errors import IllegalType, InvalidEpsilon, NoFoldableSymmetry

RANK_BOUNDS = {
    "A": (1, None),
    "B": (2, None),
    "C": (2, None),
    "D": (3, None),
    "E": (6, 8),
    "F": (4, 4),
    "G": (2, 2),
}


def parse_type_label(label: str) -> tuple[str, int]:
    """Split a label like "F4" or "a12" into (family, rank), case-insensitive."""
    label = label.strip()
    if len(label) < 2 or label[0].upper() not in RANK_BOUNDS or not label[1:].isdigit():
        raise IllegalType(f"cannot parse type label {label!r}")
    family = label[0].upper()
    rank = int(label[1:])
    lo, hi = RANK_BOUNDS[family]
    if rank < lo or (hi is not None and rank > hi):
        raise IllegalType(f"no simple type {family}{rank}")
    return family, rank


_EXCEPTIONAL_ROOTS = {("E", 6): 72, ("E", 7): 126, ("E", 8): 240, ("F", 4): 48, ("G", 2): 12}


def root_count(family: str, rank: int) -> int:
    """Number of roots of a type, in closed form, for (family, rank) as ``parse_type_label`` gives them."""
    if family == "A":
        return rank * (rank + 1)
    if family in ("B", "C"):
        return 2 * rank * rank
    if family == "D":
        return 2 * rank * (rank - 1)
    return _EXCEPTIONAL_ROOTS[family, rank]


# The cap on the root count nr of a requested type; fold parents are not
# capped.  It keeps every root index below 2^15, so the nr x nr sum_index is
# int16 (32 MiB at the cap, beside the verifiers' int32 nr x (nr + 1) dense
# view of the constants, 64 MiB).  A63 (4032 roots), B45 and C45 (4050) and
# D45 (3960) are built; A64 (4160) is refused.
MAX_ROOTS = 2**12


@dataclass(frozen=True)
class CartanMatrix:
    """An indecomposable Cartan matrix of finite type.

    ``entries[i-1][j-1]`` stores a_ij = alpha_j(h_i), so row i lists the
    values of all simple roots on the i-th simple co-root.  Immutable.
    """

    type_label: str
    rank: int
    entries: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        n = self.rank
        a = self.entries
        if len(a) != n or any(len(row) != n for row in a):
            raise IllegalType("entries must be a rank x rank matrix")
        for i in range(n):
            if a[i][i] != 2:
                raise IllegalType("diagonal entries must equal 2")
            for j in range(n):
                if i == j:
                    continue
                if a[i][j] > 0:
                    raise IllegalType("off-diagonal entries must be <= 0")
                if (a[i][j] == 0) != (a[j][i] == 0):
                    raise IllegalType("a_ij = 0 must imply a_ji = 0")
                if a[i][j] != 0 and {a[i][j], a[j][i]} - {-1, -2, -3}:
                    raise IllegalType("off-diagonal pairs must lie in {-1,-2,-3}")
                if a[i][j] != 0 and -1 not in (a[i][j], a[j][i]):
                    raise IllegalType("each edge needs a_ij = -1 on one side")
        if not self._connected():
            raise IllegalType("diagram must be connected")

    def _connected(self) -> bool:
        seen = {0}
        stack = [0]
        while stack:
            i = stack.pop()
            for j in range(self.rank):
                if j not in seen and self.entries[i][j] != 0:
                    seen.add(j)
                    stack.append(j)
        return len(seen) == self.rank

    @property
    def nodes(self) -> range:
        """Node ids 1..rank."""
        return range(1, self.rank + 1)

    def a(self, i: int, j: int) -> int:
        """Entry a_ij for 1-based node ids."""
        return self.entries[i - 1][j - 1]

    @cached_property
    def simply_laced(self) -> bool:
        return all(
            self.entries[i][j] in (0, -1)
            for i in range(self.rank)
            for j in range(self.rank)
            if i != j
        )

    @property
    def label(self) -> str:
        return f"{self.type_label}{self.rank}"

    def neighbors(self, i: int) -> list[int]:
        return [j for j in self.nodes if j != i and self.a(i, j) != 0]

    def to_json_rows(self) -> list[list[int]]:
        """Row-major integer rows, ready for JSON embedding."""
        return [list(row) for row in self.entries]


def _chain_entries(rank: int, edges: dict[tuple[int, int], int]) -> tuple[tuple[int, ...], ...]:
    """Build matrix entries from an edge dict {(i, j): a_ij} of 1-based pairs."""
    a = [[0] * rank for _ in range(rank)]
    for i in range(rank):
        a[i][i] = 2
    for (i, j), v in edges.items():
        a[i - 1][j - 1] = v
    return tuple(tuple(row) for row in a)


def build_cartan(type_label: str, rank: int) -> CartanMatrix:
    """Cartan matrix of the given finite type in this package's numbering.

    Types with more than ``MAX_ROOTS`` roots are refused before anything
    of their size is built.
    """
    family = type_label.upper()
    lo, hi = RANK_BOUNDS.get(family, (None, None))
    if lo is None or rank < lo or (hi is not None and rank > hi):
        raise IllegalType(f"no simple type {family}{rank}")
    if (nr := root_count(family, rank)) > MAX_ROOTS:
        raise IllegalType(f"{family}{rank} has {nr} roots, above the limit of {MAX_ROOTS}")
    return uncapped_cartan(family, rank)


def uncapped_cartan(family: str, rank: int) -> CartanMatrix:
    """Cartan matrix of a valid (upper-case family, rank) of any size, as fold_source builds parents."""
    edges: dict[tuple[int, int], int] = {}

    def single(i: int, j: int) -> None:
        edges[(i, j)] = -1
        edges[(j, i)] = -1

    if family == "A":
        for i in range(1, rank):
            single(i, i + 1)
    elif family == "B":
        # Double edge between nodes 1 and 2, node 1 short: a_12 = -2.
        edges[(1, 2)] = -2
        edges[(2, 1)] = -1
        for i in range(2, rank):
            single(i, i + 1)
    elif family == "C":
        # Mirror of B: node 1 long, a_21 = -2.
        edges[(1, 2)] = -1
        edges[(2, 1)] = -2
        for i in range(2, rank):
            single(i, i + 1)
    elif family == "D":
        single(1, 3)
        single(2, 3)
        for i in range(3, rank):
            single(i, i + 1)
    elif family == "E":
        single(1, 3)
        single(2, 4)
        single(3, 4)
        for i in range(4, rank):
            single(i, i + 1)
    elif family == "F":
        single(1, 2)
        edges[(2, 3)] = -1
        edges[(3, 2)] = -2
        single(3, 4)
    elif family == "G":
        edges[(1, 2)] = -1
        edges[(2, 1)] = -3
    return CartanMatrix(family, rank, _chain_entries(rank, edges))


@dataclass(frozen=True)
class SignFunction:
    """A map epsilon: nodes -> {+1, -1}, stored as a tuple over nodes 1..n."""

    values: tuple[int, ...]

    def __post_init__(self) -> None:
        if any(v not in (1, -1) for v in self.values):
            raise InvalidEpsilon("sign values must be +1 or -1")

    def value(self, i: int) -> int:
        """Value at 1-based node id i."""
        return self.values[i - 1]

    def flipped(self) -> "SignFunction":
        return SignFunction(tuple(-v for v in self.values))

    def is_coloring_of(self, cm: CartanMatrix) -> bool:
        """Whether adjacent nodes always carry opposite signs."""
        if len(self.values) != cm.rank:
            return False
        return all(
            self.value(i) == -self.value(j)
            for i in cm.nodes
            for j in cm.neighbors(i)
        )


# Anchor node and value fixing which of the two colorings is the default.
_EPSILON_ANCHOR = {
    "A": (1, 1),
    "B": (1, 1),
    "C": (-1, 1),  # node -1 means "last node"
    "D": (1, 1),
    "E": (1, 1),
    "F": (1, -1),
    "G": (1, -1),
}


def default_epsilon(cm: CartanMatrix) -> SignFunction:
    """The distinguished 2-coloring for each type.

    A/B/D/E start with +1 at node 1, C with +1 at the last node, F4 and G2
    with -1 at node 1; the rest is forced by propagation along edges.  For
    the foldable simply-laced types this choice restricts, orbitwise, to the
    default of the folded type.
    """
    anchor, value = _EPSILON_ANCHOR[cm.type_label]
    if anchor == -1:
        anchor = cm.rank
    colors: dict[int, int] = {anchor: value}
    stack = [anchor]
    while stack:
        i = stack.pop()
        for j in cm.neighbors(i):
            if j not in colors:
                colors[j] = -colors[i]
                stack.append(j)
    return SignFunction(tuple(colors[i] for i in cm.nodes))


@dataclass(frozen=True)
class DiagramAutomorphism:
    """A diagram symmetry i -> i' with unconnected orbits, given by its node orbits.

    Each orbit is written in cycle order (i, i', i'', ...) and the orbits
    are listed in folded node order, so the first element of each orbit
    is the representative of that folded node.  ``perm`` (1-based images)
    and ``order`` are derived from the orbits.
    """

    orbits: tuple[tuple[int, ...], ...]

    @cached_property
    def perm(self) -> tuple[int, ...]:
        image = {i: j for orbit in self.orbits for i, j in zip(orbit, orbit[1:] + orbit[:1])}
        return tuple(image[i] for i in range(1, len(image) + 1))

    @property
    def order(self) -> int:
        return math.lcm(*map(len, self.orbits))

    def apply(self, i: int) -> int:
        return self.perm[i - 1]

    @property
    def reps(self) -> tuple[int, ...]:
        return tuple(orbit[0] for orbit in self.orbits)

    def validate(self, cm: CartanMatrix) -> None:
        """Check the orbits and the two folding conditions against a Cartan matrix.

        The orbits must partition the nodes and the order be 1, 2 or 3; then
        (a) a_ij = a_i'j' for all i, j and (b) a_ii' = 0 whenever i' != i.
        Raises NoFoldableSymmetry on any failure.
        """
        covered = sorted(i for orbit in self.orbits for i in orbit)
        if covered != list(cm.nodes):
            raise NoFoldableSymmetry("orbits must partition the node set")
        if (d := self.order) not in (1, 2, 3):
            raise NoFoldableSymmetry(f"order must be the permutation order in {{1,2,3}}, got {d}")
        for i in cm.nodes:
            for j in cm.nodes:
                if cm.a(i, j) != cm.a(self.apply(i), self.apply(j)):
                    raise NoFoldableSymmetry("condition (a) fails: not a diagram symmetry")
        for i in cm.nodes:
            if self.apply(i) != i and cm.a(i, self.apply(i)) != 0:
                raise NoFoldableSymmetry("condition (b) fails: orbit nodes are connected")
