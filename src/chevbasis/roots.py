"""Root systems generated from a Cartan matrix by height induction.

Roots are plain integer tuples over the simple roots, so the simple root
alpha_i is the i-th unit vector.  A root is added at height h+1 exactly
when the backward string length q and the pairing <alpha_i, beta> allow
it: beta + alpha_i is a root iff q - <alpha_i, beta> > 0.  Everything
here is exact integer arithmetic.

Every layer asks "is alpha + beta a root, and which one?" through one
table, ``RootSystem.sum_index``: an nr x nr int32 array whose entry
[a, b] is the index of roots[a] + roots[b], or -1 when the sum is not a
root (in particular when b is the negative of a).  Root strings are
walks over it.  The per-root data every table carries is computed once
as read-only int64 arrays beside it: the coefficients ``coeffs``, the
Cartan actions ``cartan_action[i - 1, k] = alpha_k(h_i)`` and the
co-root coordinates ``coroots``.  All four are built by
:func:`generate_roots` and read-only afterwards.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .cartan import CartanMatrix
from .errors import DegeneratePair, InternalInconsistency, NotARoot

Root = tuple[int, ...]


def root_height(alpha: Root) -> int:
    return sum(alpha)


def root_sign(alpha: Root) -> int:
    """+1 for positive roots, -1 for negative ones.

    Valid because every root has all coefficients of one sign.
    """
    for x in alpha:
        if x != 0:
            return 1 if x > 0 else -1
    raise NotARoot("zero vector has no sign")


def negate(alpha: Root) -> Root:
    return tuple(-x for x in alpha)


def add(alpha: Root, beta: Root) -> Root:
    return tuple(x + y for x, y in zip(alpha, beta))


def sub(alpha: Root, beta: Root) -> Root:
    return tuple(x - y for x, y in zip(alpha, beta))


@dataclass
class RootSystem:
    """The full root system of a Cartan matrix, with exact integer queries.

    ``roots`` lists the positive roots sorted by (height, coefficients)
    followed by their negatives in the same order, so index k and index
    k + positive_count are a root and its negative.  ``sum_index[a, b]``
    is the index of roots[a] + roots[b], or -1 when that is not a root.
    ``coeffs`` (nr x rank) holds the roots as rows, ``cartan_action``
    (rank x nr) the values alpha(h_i) = <alpha_i, alpha>, and ``coroots``
    (nr x rank) the coordinates c of h_alpha = sum c_i h_i, so that
    <alpha, beta> = beta(h_alpha) is ``coroots[a] @ cartan_action[:, b]``.
    Instances and their arrays are never mutated after construction and
    are safe to share between threads.
    """

    cartan: CartanMatrix
    roots: tuple[Root, ...]
    positive_count: int
    index: dict[Root, int] = field(repr=False)
    sum_index: np.ndarray = field(repr=False, compare=False)
    coeffs: np.ndarray = field(repr=False, compare=False)
    cartan_action: np.ndarray = field(repr=False, compare=False)
    coroots: np.ndarray = field(repr=False, compare=False)

    # -- lookups ------------------------------------------------------

    def contains(self, alpha: Root) -> bool:
        return alpha in self.index

    def index_of(self, alpha: Root) -> int:
        try:
            return self.index[alpha]
        except KeyError:
            raise NotARoot(f"{alpha} is not a root") from None

    def neg_index(self, k: int) -> int:
        p = self.positive_count
        return k + p if k < p else k - p

    def simple_root(self, i: int) -> Root:
        """The i-th simple root (1-based node id) as a unit vector."""
        return tuple(1 if j == i else 0 for j in self.cartan.nodes)

    @property
    def rank(self) -> int:
        return self.cartan.rank

    # -- strings ------------------------------------------------------

    def string_lengths(self, alpha: Root, beta: Root) -> tuple[int, int]:
        """(p, q) with p = max{i >= 0 : beta + i alpha root}, q backwards."""
        return self.string_lengths_at(self.index_of(alpha), self.index_of(beta))

    def string_lengths_at(self, a: int, b: int) -> tuple[int, int]:
        """(p, q) for root indices a, b, by walking ``sum_index``."""
        neg_a = self.neg_index(a)
        if b == a or b == neg_a:
            raise DegeneratePair("string through beta = +/- alpha is undefined")
        return tuple(self.backward_lengths([neg_a, a], [b, b]).tolist())

    def backward_lengths(self, a: int | np.ndarray, b: np.ndarray) -> np.ndarray:
        """Steps b -> b - a that stay roots, for root indices or index arrays of one shape.

        ``string_lengths_at(a, b)`` is (backward_lengths(-a, b),
        backward_lengths(a, b)).  Pairs are not checked for degeneracy;
        callers pass pairs with b != +-a.
        """
        neg_a = (np.asarray(a) + self.positive_count) % len(self.roots)
        b = np.asarray(b)
        q = np.zeros(b.shape, dtype=np.int64)
        while (live := b >= 0).any():
            b = np.where(live, self.sum_index[neg_a, b], -1)
            q += b >= 0
        return q

    # -- co-roots ------------------------------------------------------

    def symmetrizer(self) -> tuple[int, ...]:
        """Minimal positive integers s with s_i a_ij = s_j a_ji."""
        return _symmetrizer(self.cartan)


def _symmetrizer(cm: CartanMatrix) -> tuple[int, ...]:
    vals: dict[int, Fraction] = {1: Fraction(1)}
    stack = [1]
    while stack:
        i = stack.pop()
        for j in cm.neighbors(i):
            if j not in vals:
                vals[j] = vals[i] * Fraction(cm.a(i, j), cm.a(j, i))
                stack.append(j)
    lcm_den = math.lcm(*(v.denominator for v in vals.values()))
    ints = [int(vals[i] * lcm_den) for i in cm.nodes]
    g = math.gcd(*ints)
    s = tuple(v // g for v in ints)
    for i in cm.nodes:
        for j in cm.nodes:
            if s[i - 1] * cm.a(i, j) != s[j - 1] * cm.a(j, i):
                raise InternalInconsistency("symmetrizer does not symmetrize")
    return s


def _coroots(cm: CartanMatrix, roots: tuple[Root, ...], coeffs: np.ndarray, action: np.ndarray) -> np.ndarray:
    """Integer coordinates c of h_alpha = sum c_i h_i, one row per root.

    c_i = s_i n_i / s_alpha with s the symmetrizer and s_alpha the half
    square length sum_i s_i n_i alpha(h_i) / 2; simply laced systems get
    their coefficients back.  The square length must be positive and
    even, the division exact, and alpha(h_alpha) = 2 for every root.
    """
    num = coeffs * np.array(_symmetrizer(cm), dtype=np.int64)
    sq = (num * action.T).sum(axis=1)
    if (k := _first((sq <= 0) | (sq % 2 != 0))) is not None:
        raise InternalInconsistency(f"bad square length {sq[k]} for {roots[k]}")
    s_alpha = sq[:, None] // 2
    if (k := _first((num % s_alpha != 0).any(axis=1))) is not None:
        raise InternalInconsistency(f"non-integral co-root for {roots[k]}")
    c = num // s_alpha
    check = (c * action.T).sum(axis=1)
    if (k := _first(check != 2)) is not None:
        raise InternalInconsistency(f"alpha(h_alpha) = {check[k]} != 2 for {roots[k]}")
    return c


def _first(bad: np.ndarray) -> int | None:
    """Index of the first True entry, or None."""
    return int(bad.argmax()) if bad.any() else None


def generate_roots(cm: CartanMatrix) -> RootSystem:
    """Generate the whole root system by height induction.

    Starting from the simple roots, beta + alpha_i joins the positive
    system whenever the backward string length q_{alpha_i, beta} minus
    <alpha_i, beta> is positive; negatives are added by closure at the
    end.  Terminates for every finite type, and the result is independent
    of traversal order.
    """
    n = cm.rank
    simple = [tuple(1 if k == j else 0 for k in range(n)) for j in range(n)]
    positive: set[Root] = set(simple)
    frontier = list(simple)
    while frontier:
        new: list[Root] = []
        for beta in frontier:
            for i in range(n):
                q = 0
                gamma = tuple(b - s for b, s in zip(beta, simple[i]))
                while gamma in positive:
                    q += 1
                    gamma = tuple(g - s for g, s in zip(gamma, simple[i]))
                pair = sum(a * m for a, m in zip(cm.entries[i], beta))
                if q - pair > 0:
                    cand = tuple(b + s for b, s in zip(beta, simple[i]))
                    if cand not in positive:
                        positive.add(cand)
                        new.append(cand)
        frontier = new
    ordered = sorted(positive, key=lambda r: (root_height(r), r))
    roots = tuple(ordered) + tuple(negate(r) for r in ordered)
    index = {r: k for k, r in enumerate(roots)}
    coeffs = np.array(roots, dtype=np.int64)
    action = np.array(cm.entries, dtype=np.int64) @ coeffs.T
    coroots = _coroots(cm, roots, coeffs, action)
    for a in (coeffs, action, coroots):
        a.flags.writeable = False
    return RootSystem(cartan=cm, roots=roots, positive_count=len(ordered), index=index,
                      sum_index=_sum_index(coeffs), coeffs=coeffs, cartan_action=action, coroots=coroots)


def _sum_index(coeffs: np.ndarray) -> np.ndarray:
    """The read-only table of root-sum indices (-1 where a + b is not a root).

    Keys are linear mod 2^64 (key(a + b) = key(a) + key(b)), distinct on
    roots, and exact while base^rank < 2^63.  Key sums are looked up in the
    sorted keys by row blocks; every hit is confirmed on the coefficients.
    """
    nr, rank = coeffs.shape
    base = 4 * int(np.abs(coeffs).max()) + 1
    weights = np.array([pow(base, i, 2**64) for i in range(rank)], dtype=np.uint64)
    keys = (coeffs.astype(np.uint64) * weights).sum(axis=1, dtype=np.uint64)
    order = np.argsort(keys)
    sorted_keys = keys[order]
    if np.any(sorted_keys[1:] == sorted_keys[:-1]):
        raise InternalInconsistency("two roots share a sum-index key")
    out = np.full((nr, nr), -1, dtype=np.int32)
    step = max(1, 2**12 // nr)
    for lo in range(0, nr, step):
        block = keys[lo:lo + step, None] + keys[None, :]
        pos = np.minimum(np.searchsorted(sorted_keys, block), nr - 1)
        a, b = np.nonzero(sorted_keys[pos] == block)
        c = order[pos[a, b]]
        a += lo
        ok = np.all(coeffs[c] == coeffs[a] + coeffs[b], axis=1)
        out[a[ok], b[ok]] = c[ok]
    out.flags.writeable = False
    return out
