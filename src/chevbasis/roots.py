"""Root systems generated from a Cartan matrix by height induction.

Roots are plain integer tuples over the simple roots, so the simple root
alpha_i is the i-th unit vector.  A root is added at height h+1 exactly
when the backward string length q and the pairing <alpha_i, beta> allow
it: beta + alpha_i is a root iff q - <alpha_i, beta> > 0.  Everything
here is exact integer arithmetic.

Every layer asks "is alpha + beta a root, and which one?" through one
table, ``RootSystem.sum_index``: an nr x nr int32 array whose entry
[a, b] is the index of roots[a] + roots[b], or -1 when the sum is not a
root (in particular when b is the negative of a).  It is built once by
:func:`generate_roots` and read-only afterwards; root strings are walks
over it.
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
    Instances are never mutated after construction and are safe to share
    between threads.
    """

    cartan: CartanMatrix
    roots: tuple[Root, ...]
    positive_count: int
    index: dict[Root, int] = field(repr=False)
    sum_index: np.ndarray = field(repr=False, compare=False)

    def __post_init__(self) -> None:
        self._coroots: list[Root | None] = [None] * len(self.roots)
        self._symmetrizer: tuple[int, ...] | None = None

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

    # -- strings and pairings -----------------------------------------

    def string_lengths(self, alpha: Root, beta: Root) -> tuple[int, int]:
        """(p, q) with p = max{i >= 0 : beta + i alpha root}, q backwards."""
        return self.string_lengths_at(self.index_of(alpha), self.index_of(beta))

    def string_lengths_at(self, a: int, b: int) -> tuple[int, int]:
        """(p, q) for root indices a, b, by walking ``sum_index``."""
        neg_a = self.neg_index(a)
        if b == a or b == neg_a:
            raise DegeneratePair("string through beta = +/- alpha is undefined")
        return self._walk(a, b), self._walk(neg_a, b)

    def _walk(self, a: int, b: int) -> int:
        """Number of steps b -> b + a that stay roots; scalar reference of :meth:`backward_lengths`."""
        steps = 0
        while (b := int(self.sum_index[a, b])) >= 0:
            steps += 1
        return steps

    def backward_lengths(self, a: int | np.ndarray, b: np.ndarray) -> np.ndarray:
        """Array form of ``string_lengths_at(a, b)[1]``: steps b -> b - a that stay roots.

        ``a`` is a root index or an index array of b's shape.  Pairs are not
        checked for degeneracy; callers pass pairs whose sum is a root.
        """
        neg_a = (np.asarray(a) + self.positive_count) % len(self.roots)
        b = np.asarray(b)
        q = np.zeros(b.shape, dtype=np.int64)
        while (live := b >= 0).any():
            b = np.where(live, self.sum_index[neg_a, b], -1)
            q += b >= 0
        return q

    def pairing_simple(self, i: int, beta: Root) -> int:
        """<alpha_i, beta> = beta(h_i), the i-th Cartan row applied to beta."""
        row = self.cartan.entries[i - 1]
        return sum(a * m for a, m in zip(row, beta))

    def cartan_action(self) -> tuple[tuple[int, ...], ...]:
        """Row i - 1 lists alpha(h_i) for every root alpha, in root order."""
        return tuple(tuple(self.pairing_simple(i, beta) for beta in self.roots) for i in self.cartan.nodes)

    def pairing(self, alpha: Root, beta: Root) -> int:
        """<alpha, beta> = beta(h_alpha), via the co-root coordinates of alpha."""
        c = self.coroot(alpha)
        return sum(
            ci * self.pairing_simple(i, beta)
            for ci, i in zip(c, self.cartan.nodes)
        )

    # -- co-roots ------------------------------------------------------

    def symmetrizer(self) -> tuple[int, ...]:
        """Minimal positive integers s with s_i a_ij = s_j a_ji."""
        if self._symmetrizer is not None:
            return self._symmetrizer
        cm = self.cartan
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
        self._symmetrizer = s
        return s

    def coroot(self, alpha: Root) -> Root:
        """Integer coordinates c of h_alpha = sum c_i h_i.

        Simply laced systems return the coefficients of alpha unchanged.
        In general c_i = s_i n_i / s_alpha with s the symmetrizer and
        s_alpha the half square length; the division is always exact and
        the result satisfies alpha(h_alpha) = 2.
        """
        k = self.index_of(alpha)
        cached = self._coroots[k]
        if cached is not None:
            return cached
        if self.cartan.simply_laced:
            c = alpha
        else:
            s = self.symmetrizer()
            cm = self.cartan
            sq = sum(
                s[i] * cm.entries[i][j] * alpha[i] * alpha[j]
                for i in range(cm.rank)
                for j in range(cm.rank)
            )
            if sq <= 0 or sq % 2:
                raise InternalInconsistency(f"bad square length {sq} for {alpha}")
            s_alpha = sq // 2
            num = [s[i] * alpha[i] for i in range(cm.rank)]
            if any(v % s_alpha for v in num):
                raise InternalInconsistency(f"non-integral co-root for {alpha}")
            c = tuple(v // s_alpha for v in num)
        check = sum(
            ci * self.pairing_simple(i, alpha)
            for ci, i in zip(c, self.cartan.nodes)
        )
        if check != 2:
            raise InternalInconsistency(f"alpha(h_alpha) = {check} != 2 for {alpha}")
        self._coroots[k] = c
        return c


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
    return RootSystem(cartan=cm, roots=roots, positive_count=len(ordered), index=index,
                      sum_index=_sum_index(roots))


def _sum_index(roots: tuple[Root, ...]) -> np.ndarray:
    """The read-only table of root-sum indices (-1 where a + b is not a root).

    Keys are linear mod 2^64 (key(a + b) = key(a) + key(b)), distinct on
    roots, and exact while base^rank < 2^63.  Key sums are looked up in the
    sorted keys by row blocks; every hit is confirmed on the coefficients.
    """
    coeffs = np.array(roots, dtype=np.int64)
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
