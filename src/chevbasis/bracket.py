"""The canonical bracket table, built inductively for any finite type.

Fixing a 2-coloring epsilon of the diagram singles out one basis vector
e_alpha in each root space (unique up to the global epsilon -> -epsilon
flip), normalised so that

    e_{alpha_i} = eps(i) e_i,      e_{-alpha_i} = -eps(i) f_i,
    [e_i, e_alpha] = (q + 1) e_{alpha + alpha_i},
    [f_i, e_alpha] = (p + 1) e_{alpha - alpha_i},

with p, q the string lengths through alpha.  This module computes every
structure constant N_{alpha,beta} of that basis, entirely in machine
integers, and checks that the same recursion gives each [e_alpha,
e_{-alpha}] over the h_i as the root system's co-roots state.  A table
holds its constants as two arrays in table order, ``pairs`` (the stored
ordered root-index pairs) and ``n`` (their constants): row-major for the
builders, file order for the reader.

The engine is the Jacobi identity applied to [[e_l, e_nu], e_beta] for a
split mu = alpha_l + nu of each positive root, l the lowest node with
mu - alpha_l a root: it expresses the row N_{mu,.} through rows of lower
height, dividing by the known non-zero N_{alpha_l,nu}, so all the rows of
one height are filled in one step.  The table does not depend on which l
is split off.  Rows with negative first argument follow from N_{-a,-b} =
-N_{a,b}.  The Cartan recursion is checked once, after the last height.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from .cartan import SignFunction
import numpy as np

from .errors import ChevBasisError, InternalInconsistency, InvalidEpsilon
from .roots import RootSystem

# Largest |entry| of a constant, Cartan action or Cartan vector: the reader
# refuses files past it, and the verifiers refuse in-memory tables past it
# before they narrow.  Constants, actions and Cartan vectors are then held
# in int32, and every product of two entries is taken in int64.  The
# largest sum, a Jacobi sum of three terms N N' - sum_i w_i act_i, is at
# most 3 (r + 1) B^2, which stays below 2^63 for every rank r below 2.8
# million.
ENTRY_BOUND = 2**20


def check_entry_bound(name: str, values: np.ndarray) -> None:
    """Raise a one-line ChevBasisError if an entry of ``values`` is beyond +-ENTRY_BOUND."""
    if values.size and (values.max() > ENTRY_BOUND or values.min() < -ENTRY_BOUND):
        raise ChevBasisError(f"{name} has an entry whose absolute value is above {ENTRY_BOUND}")


@dataclass(eq=False)
class BracketTable:
    """Complete multiplication table over the basis {h_i} u {e_alpha}.

    ``pairs`` (K x 2 intp) lists the stored ordered root-index pairs,
    each once, and ``n`` (K int64) their constants N_{a,b}; a pair not
    stored has N = 0.  Both are read-only and in table order: row-major
    for the builders, which store exactly the pairs with a root sum, and
    file order for a table read from a file, each (a, b) followed by
    (b, a).  An in-memory table may hold stray pairs or miss summing
    ones; the verifiers report both.  ``cartan_action`` is a rank x nr
    int64 array with ``cartan_action[i - 1, r]`` = alpha_r(h_i), and
    ``opposite`` an nr x rank int64 array whose row r holds the co-root
    coordinates c with [e_alpha, e_{-alpha}] = (-1)^{ht(alpha)} sum_i
    c_i h_i.  The builders share the root system's read-only ``pairs``,
    ``cartan_action`` and ``coroots``; a table read from a file holds
    read-only copies of its own.  The verifiers hold the constants,
    actions and co-roots in int32 (:meth:`dense`), so they refuse a table
    with an entry beyond +-ENTRY_BOUND.  Tables compare by identity;
    compare the arrays to compare contents.
    """

    rs: RootSystem
    eps: SignFunction
    pairs: np.ndarray = field(repr=False)
    n: np.ndarray = field(repr=False)
    cartan_action: np.ndarray = field(repr=False)
    opposite: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        self.pairs.flags.writeable = self.n.flags.writeable = False

    @property
    def dimension(self) -> int:
        return self.rs.rank + len(self.rs.roots)

    @functools.cached_property
    def _keys(self) -> tuple[np.ndarray, np.ndarray]:
        """The stored pairs' keys a * nr + b in ascending order, then nr * nr, and their table positions, then -1."""
        nr = len(self.rs.roots)
        keys = self.pairs[:, 0] * nr + self.pairs[:, 1]
        order = np.argsort(keys, kind="stable")
        return np.append(keys[order], nr * nr), np.append(order, -1)

    def find(self, a, b) -> np.ndarray:
        """Table positions of the pairs (a[j], b[j]): -1 where not stored, the first where stored twice."""
        keys, order = self._keys
        key = np.asarray(a) * len(self.rs.roots) + b
        # Searched in ascending order, each query narrows the next.
        up = np.argsort(key)
        k = np.empty_like(up)
        k[up] = keys.searchsorted(key[up])
        return np.where(keys[k] == key, order[k], -1)

    def dense(self) -> np.ndarray:
        """N_{a,b} as one nr x (nr + 1) int32 array: 0 where not stored, and a last column of 0s for a sum index of -1.

        int32 holds every constant within ENTRY_BOUND, half the bytes of
        int64; a table with a constant beyond it is refused, never wrapped.
        Products of two entries must be taken in int64.
        """
        check_entry_bound("constants", self.n)
        nr = len(self.rs.roots)
        nn = np.zeros((nr, nr + 1), dtype=np.int32)
        nn[self.pairs[:, 0], self.pairs[:, 1]] = self.n
        return nn

    def opposite_brackets(self) -> np.ndarray:
        """[e_alpha, e_{-alpha}] for every root alpha, as nr rows of h-coordinates."""
        return np.where(self.rs.coeffs.sum(axis=1, keepdims=True) % 2, -self.opposite, self.opposite)


def build_inductive(rs: RootSystem, eps: SignFunction) -> BracketTable:
    """Construct the full canonical bracket table by height recursion, one step per height.

    Each positive root of height above 1 splits off its lowest simple
    root that leaves a root.  The [e_mu, e_{-mu}] recursion over the same
    splits is checked against the co-roots after the loop.
    """
    if not eps.is_coloring_of(rs.cartan):
        raise InvalidEpsilon("epsilon must alternate along diagram edges")

    roots = rs.roots
    pos = rs.positive_count
    nr = len(roots)
    si = rs.sum_index
    neg = rs.neg
    simple = rs.simple
    # nn[a, b] = N_{a,b} for positive a, zero off the summing pairs, in the
    # layout of BracketTable.dense: the extra column stays 0 and is where a
    # sum index of -1 points.  Simple rows first: N_{alpha_i,beta} = eps(i)(q+1).
    nn = np.zeros((pos, nr + 1), dtype=np.int64)
    node, bs = np.nonzero(si[simple] >= 0)
    nn[simple[node], bs] = np.array(eps.values)[node] * (rs.backward_lengths(simple[node], bs) + 1)
    # Row m of height > 1 splits as mu = alpha_l + nu, with l = ls[m], alpha_l at row
    # sls[m], nu at row vs[m] and d[m] = N_{alpha_l,nu} != 0; simple rows get d = 1.
    ls = (si[:pos, neg[simple]] >= 0).argmax(axis=1)
    sls = simple[ls]
    vs = si[np.arange(pos), neg[sls]].astype(np.intp)
    d = nn[sls, vs]
    d[:rs.rank] = 1

    # Roots come by height, so each height is one row range that reads only lower
    # rows, and its summing pairs are one range of the row-major rs.pairs.
    height = rs.coeffs[:pos].sum(axis=1)
    starts = np.searchsorted(height, np.arange(2, height[-1] + 2))
    a, b = rs.pairs.T
    rows, at = starts.tolist(), a.searchsorted(starts).tolist()
    flat, width = nn.reshape(-1), nr + 1
    for lo, hi, plo, phi in zip(rows, rows[1:], at, at[1:]):
        m, c = a[plo:phi], b[plo:phi]
        sl, v, dm = sls[m], vs[m], d[m]
        # Jacobi on [[e_l, e_nu], e_beta] at every summing pair (mu, beta) of this
        # height; the special beta = nu, -nu, -alpha_l are written after it.  A sum
        # index of -1 reads the zero column that ends the row before.
        vw, sw = v * width, sl * width
        num = flat.take(vw + c) * flat.take(sw + si[v, c]) - flat.take(sw + c) * flat.take(vw + si[sl, c])
        quot = num // dm
        if (bad := (quot * dm != num) & (c != v) & (c != neg[v]) & (c != neg[sl])).any():
            k = int(bad.argmax())
            raise InternalInconsistency(f"non-exact division for N at {roots[m[k]]}, {roots[c[k]]}")
        nn[m, c] = quot
        r, v, sl = np.arange(lo, hi)[:, None], vs[lo:hi, None], sls[lo:hi, None]
        nn[r, np.hstack([v, neg[v], neg[sl]])] = np.hstack([-nn[v, r], nn[v, neg[r]], nn[sl, neg[r]]])

    # N_{-a,-b} = -N_{a,b}: a negative row is read at the negated pair.
    n = nn[a % pos, np.where(a < pos, b, neg[b])]
    n[a >= pos] *= -1
    t = BracketTable(rs=rs, eps=eps, pairs=rs.pairs, n=n,
                     cartan_action=rs.cartan_action, opposite=rs.coroots)
    # The same split gives w[mu] = [e_mu, e_{-mu}] over the h_i: w = -e_i at alpha_i
    # and d w[mu] = -N_{l,-mu} w[nu] - N_{nu,-mu} e_l.  These hold for the table's
    # w = (-1)^ht h_alpha exactly when the recursion reproduces it, and by induction
    # on height the lowest root that fails is where it would first differ.
    w = t.opposite_brackets()[:pos]
    rhs = -nn[sls, neg[:pos], None] * w[vs]
    rhs[np.arange(pos), ls] -= nn[vs, neg[:pos]]
    rhs[:rs.rank] = 0
    rhs[simple, np.arange(rs.rank)] = -1
    if (bad := (d[:, None] * w != rhs).any(axis=1)).any():
        k = int(bad.argmax())
        raise InternalInconsistency(f"Cartan bracket for {roots[k]} is {tuple(rhs[k].tolist())} / {d[k]}"
                                    f" by the recursion, expected {tuple(w[k].tolist())}")
    return t

