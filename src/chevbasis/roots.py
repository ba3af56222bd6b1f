"""Root systems generated from a Cartan matrix by height induction.

The roots are the rows of one int64 array ``coeffs`` over the simple
roots, built one height at a time: beta + alpha_i is a root exactly when
q - <alpha_i, beta> > 0, with q the backward string length.  A
coefficient vector is found among the roots in one way only, by its
linear uint64 key with the hit confirmed on the coefficients
(``RootSystem._search``); ``sum_index`` and ``find`` both go through
it.  Every layer but the fold asks "is alpha + beta a root, and which
one?" through ``sum_index``, one nr x nr int16 array, and root strings
are walks over it; the pairs with a root or zero sum are in ``linked``.
``sum_index`` is searched only at the pairs of positive roots b < c whose
sum has a root's norm and, on B, C and F4, an integral co-root: exactly
the summing pairs.  Each root index in it is a key hit of such a pair,
confirmed on the coefficients, or one of its eleven images under
permuting and negating the zero-sum triple (b, c, -(b + c)).  Everything
here is exact: the one floating-point product, for the norms, holds
small integers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

import numpy as np

from .cartan import CartanMatrix
from .errors import InternalInconsistency

Root = tuple[int, ...]
# Over rows b, c, s = b + c, -b, -c, -s: each ordered pair (x, y) from one of the
# zero-sum triples (b, c, -s) and (-b, -c, s), and the row of x + y.
_TRIPLE_X, _TRIPLE_Y, _TRIPLE_SUM = np.array([(0, 1, 2), (1, 0, 2), (0, 5, 4), (5, 0, 4), (1, 5, 3), (5, 1, 3),
                                              (3, 4, 5), (4, 3, 5), (3, 2, 1), (2, 3, 1), (4, 2, 0), (2, 4, 0)]).T


@dataclass(eq=False)
class RootSystem:
    """The full root system of a Cartan matrix, with exact integer queries.

    ``coeffs`` (nr x rank) holds the positive roots sorted by (height,
    coefficients), then their negatives in the same order, so rows k and
    k + positive_count are a root and its negative, and ``neg[k]`` (nr
    intp, derived on construction) is the row of -roots[k]; ``roots`` is
    the same list as tuples, and ``simple[i - 1]`` the row of alpha_i.
    ``cartan_action`` (rank x nr) holds alpha(h_i) = <alpha_i, alpha> and
    ``coroots`` (nr x rank) the c with h_alpha = sum c_i h_i, so that
    <alpha, beta> = beta(h_alpha) is ``coroots[a] @ cartan_action[:, b]``.
    ``norms`` (nr) holds (alpha, alpha) / 2 under the invariant form
    (alpha_i, alpha_j) = s_i a_ij with s the minimal symmetrizer, so
    ``norms[simple[i - 1]]`` is s_i.  ``sum_index[a, b]`` (nr x nr int16,
    built on first use) is the index of roots[a] + roots[b], or -1; int16
    holds every index, as nr < 2^15 on every type built (at most 8010).
    Only positive pairs b < c are looked up, where the sum's norm norms[b]
    + norms[c] + (beta, gamma) is a root norm and, if it is 2, s_i beta_i =
    s_i gamma_i mod 2 at every node; each key hit s, confirmed on the
    coefficients, fills the twelve entries of (b, c, -s) and (-b, -c, s).
    ``linked`` ((K + nr) x 2 intp, built on first use) lists the K summing
    pairs in row-major order, then each (a, neg[a]); ``pairs`` is linked[:K].
    Instances and their arrays are never mutated after construction and
    are safe to share between threads; they compare by identity.
    """

    cartan: CartanMatrix
    positive_count: int
    coeffs: np.ndarray = field(repr=False)
    simple: np.ndarray = field(repr=False)
    cartan_action: np.ndarray = field(repr=False)
    coroots: np.ndarray = field(repr=False)
    norms: np.ndarray = field(repr=False)
    neg: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        keys = _key(self.coeffs)
        self._order = np.argsort(keys)
        self._sorted = keys[self._order]
        if (self._sorted[1:] == self._sorted[:-1]).any():
            raise InternalInconsistency("two roots share a lookup key")
        # Roots and sums of two roots have entries in [-12, 12].
        self._small = self.coeffs.astype(np.int8)
        self._small.flags.writeable = False
        self.neg = (np.arange(len(keys)) + self.positive_count) % len(keys)
        self.neg.flags.writeable = False

    @cached_property
    def roots(self) -> tuple[Root, ...]:
        return tuple(map(tuple, self.coeffs.tolist()))

    @cached_property
    def sum_index(self) -> np.ndarray:
        # roots[a] + roots[b] can be a root only if its norm, norms[a] + norms[b]
        # + (alpha, beta) with (alpha, beta) = sum_i alpha_i s_i beta(h_i), is one
        # of the at most two root norms; only the pairs that pass are looked up.
        # left @ right gives these norms: its entries and sums are integers far
        # below 2^24, so float32 holds them exactly.  Blocks of 2^14 entries keep
        # the working set small.
        nr, norms, p = len(self.neg), self.norms, self.positive_count
        keys = _key(self.coeffs[:p])
        left = np.concatenate([self.coeffs[:p], norms[:p, None], np.ones((p, 1))], axis=1, dtype=np.float32)
        right = np.concatenate([self.cartan_action[:, :p] * norms[self.simple, None], [np.ones(p), norms[:p]]], dtype=np.float32)
        short, long = int(norms.min()), int(norms.max())
        # A root gamma of norm 2 has the integral co-root s_i gamma_i / 2, so on
        # B, C and F4 a sum of the long norm must have s_i alpha_i = s_i beta_i
        # mod 2 at every node: equal parity words.  This drops the orthogonal
        # short pairs of C_n, such as e1 + e2 and e3 + e4, before the search.
        parity = packed_parity(self.coeffs[:p] * norms[self.simple]) if long == 2 else None
        # A zero-sum triple of roots has two members of one sign, so searching the
        # positive pairs b < c finds each triple once; its twelve entries go together.
        index = np.full((nr, nr), -1, dtype=np.int16)
        flat = index.reshape(-1)
        step = max(1, 2**14 // p)
        for lo in range(0, p, step):
            norm = left[lo:lo + step] @ right[:, lo:]
            admit = norm == long
            if parity is not None:
                admit &= (parity[lo:lo + step, None] == parity[lo:]).all(-1)
            b, c = divmod(np.flatnonzero(admit | (norm == short)), p - lo)
            b, c = b[b < c] + lo, c[b < c] + lo
            s = self._search(keys[b] + keys[c], lambda hits: self._small.take(b[hits], 0) + self._small.take(c[hits], 0))
            bcs = np.array([b, c, s]).compress(s >= 0, axis=1)
            u = np.concatenate([bcs, bcs + p])
            flat[u[_TRIPLE_X] * nr + u[_TRIPLE_Y]] = u[_TRIPLE_SUM].astype(np.int16)
        return _read_only(index)

    @cached_property
    def linked(self) -> np.ndarray:
        a, b = np.nonzero(self.sum_index >= 0)
        return _read_only(np.concatenate([a, np.arange(len(self.neg)), b, self.neg]).reshape(2, -1).T)

    @property
    def pairs(self) -> np.ndarray:
        return self.linked[:len(self.linked) - len(self.neg)]

    # -- lookups ------------------------------------------------------

    def _search(self, keys: np.ndarray, vectors: Callable[[tuple], np.ndarray]) -> np.ndarray:
        """The root index of each query key, or -1.

        ``vectors(hits)`` gives the query rows at the key hits (an ``np.nonzero``
        tuple); a hit counts only where they equal the root's coefficients.
        """
        pos = np.minimum(self._sorted.searchsorted(keys), len(self._sorted) - 1)
        hits = (self._sorted[pos] == keys).nonzero()
        found = self._order[pos[hits]]
        ok = (self._small.take(found, 0) == vectors(hits)).all(-1)
        out = np.full(keys.shape, -1, dtype=np.intp)
        out[tuple(h[ok] for h in hits)] = found[ok]
        return out

    def find(self, vectors: np.ndarray) -> np.ndarray:
        """The root index of each coefficient row of ``vectors`` (shape (..., rank)), or -1."""
        return self._search(_key(vectors), lambda hits: vectors[hits])

    @property
    def rank(self) -> int:
        return self.cartan.rank

    # -- strings ------------------------------------------------------

    def backward_lengths(self, a: int | np.ndarray, b: np.ndarray) -> np.ndarray:
        """Steps b -> b - a that stay roots, for root indices or index arrays of one shape.

        The alpha-string through beta, for roots at a, b, has lengths
        p = max{i >= 0 : beta + i alpha root} = backward_lengths(neg[a], b)
        and q = backward_lengths(a, b).  Pairs are not checked for
        degeneracy; callers pass pairs with b != +-a.
        """
        neg_a = self.neg[a]
        b = np.asarray(b)
        q = np.zeros(b.shape, dtype=np.int64)
        while (live := b >= 0).any():
            b = np.where(live, self.sum_index[neg_a, b], -1)
            q += b >= 0
        return q


def _symmetrizer(cm: CartanMatrix) -> tuple[int, ...]:
    """Minimal positive integers s with s_i a_ij = s_j a_ji, by propagation along the diagram.

    Each edge has a_ij or a_ji = -1, so scaling every s found so far by
    -a_ji makes s_j = s_i a_ij / a_ji integral.
    """
    a = cm.entries
    s = [1] + [0] * (cm.rank - 1)
    stack = [0]
    while stack:
        i = stack.pop()
        for j, a_ij in enumerate(a[i]):
            if a_ij and not s[j]:
                if s[i] * a_ij % a[j][i]:
                    s = [v * -a[j][i] for v in s]
                s[j] = s[i] * a_ij // a[j][i]
                stack.append(j)
    g = math.gcd(*s)
    s = [v // g for v in s]
    sym = np.array(s)[:, None] * np.array(a)
    if not (sym == sym.T).all():
        raise InternalInconsistency("symmetrizer does not symmetrize")
    return tuple(s)


def _coroots(cm: CartanMatrix, coeffs: np.ndarray, action: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Integer coordinates c of h_alpha = sum c_i h_i, one row per root, and the norms s_alpha.

    c_i = s_i n_i / s_alpha with s the symmetrizer and s_alpha the norm
    (half square length) sum_i s_i n_i alpha(h_i) / 2; simply laced
    systems get their coefficients back.  The square length must be
    positive and even, the division exact, and alpha(h_alpha) = 2 for
    every root.
    """
    num = coeffs * np.array(_symmetrizer(cm), dtype=np.int64)
    sq = (num * action.T).sum(axis=1)
    if (k := _first((sq <= 0) | (sq % 2 != 0))) is not None:
        raise InternalInconsistency(f"bad square length {sq[k]} for {tuple(coeffs[k].tolist())}")
    s_alpha = sq[:, None] // 2
    if (k := _first((num % s_alpha != 0).any(axis=1))) is not None:
        raise InternalInconsistency(f"non-integral co-root for {tuple(coeffs[k].tolist())}")
    c = num // s_alpha
    check = (c * action.T).sum(axis=1)
    if (k := _first(check != 2)) is not None:
        raise InternalInconsistency(f"alpha(h_alpha) = {check[k]} != 2 for {tuple(coeffs[k].tolist())}")
    return c, s_alpha[:, 0]


def _first(bad: np.ndarray) -> int | None:
    """Index of the first True entry, or None."""
    return int(bad.argmax()) if bad.any() else None


def _read_only(a: np.ndarray) -> np.ndarray:
    view = a.view()
    view.flags.writeable = False
    return view


def generate_roots(cm: CartanMatrix) -> RootSystem:
    """Generate the whole root system by height induction on arrays.

    Each step takes the roots beta of one height, with q[k, i] the backward
    length of the alpha_i-string through row k, and adds beta + alpha_i
    wherever q - <alpha_i, beta> > 0; it dedupes and sorts the new rows, so
    heights come out in (height, coefficients) order.  Negatives follow.
    """
    n = cm.rank
    entries = np.array(cm.entries, dtype=np.int64)
    unit = np.eye(n, dtype=np.int64)
    # Height 1 in coefficient order is alpha_n, ..., alpha_1.
    layers, q = [unit[::-1]], np.zeros((n, n), dtype=np.int64)
    while len(beta := layers[-1]):
        j, i = np.nonzero(q > beta @ entries.T)
        new = beta[j] + unit[i]
        order = np.lexsort(new.T[::-1])
        new, j, i = new[order], j[order], i[order]
        fresh = np.ones(len(new), dtype=bool)
        fresh[1:] = (new[1:] != new[:-1]).any(axis=1)
        # beta' + alpha_i is a root exactly when the test above holds for
        # (beta', i), so every root one alpha_i below a new root is among its
        # sources: q(beta' + alpha_i, i) = q(beta', i) + 1 there, 0 elsewhere.
        q_prev, q = q, np.zeros((int(fresh.sum()), n), dtype=np.int64)
        q[np.cumsum(fresh) - 1, i] = q_prev[j, i] + 1
        layers.append(new[fresh])
    positive = np.concatenate(layers)
    coeffs = np.concatenate([positive, -positive])
    action = entries @ coeffs.T
    coroots, norms = _coroots(cm, coeffs, action)
    simple = np.arange(n - 1, -1, -1)
    for a in (coeffs, action, coroots, norms, simple):
        a.flags.writeable = False
    return RootSystem(cartan=cm, positive_count=len(positive), coeffs=coeffs, simple=simple,
                      cartan_action=action, coroots=coroots, norms=norms)


def packed_parity(rows: np.ndarray) -> np.ndarray:
    """Each row's entries mod 2 as ceil(width / 64) uint64 words, entry j at bit j % 64 of word j // 64."""
    bits = (rows % 2).astype(np.uint64) << (np.arange(rows.shape[1], dtype=np.uint64) % np.uint64(64))
    return np.add.reduceat(bits, np.arange(0, rows.shape[1], 64), axis=1, dtype=np.uint64)


def _key(vectors: np.ndarray) -> np.ndarray:
    """Linear uint64 keys sum_i v_i 25^(i - 1) mod 2^64, so key(a + b) = key(a) + key(b).

    Exact on roots and sums of two roots (entries in [-12, 12]) while
    25^rank < 2^63, that is up to rank 13; past that they wrap, so root
    keys are checked distinct and every hit, of ``find`` or of a positive
    pair b < c admitted to ``sum_index``, is confirmed on the coefficients;
    the eleven other entries of its triple are written, not looked up.
    """
    return vectors.astype(np.uint64) @ np.uint64(25) ** np.arange(vectors.shape[-1], dtype=np.uint64)
