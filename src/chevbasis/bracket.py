"""The canonical bracket table, built inductively for any finite type.

Fixing a 2-coloring epsilon of the diagram singles out one basis vector
e_alpha in each root space (unique up to the global epsilon -> -epsilon
flip), normalised so that

    e_{alpha_i} = eps(i) e_i,      e_{-alpha_i} = -eps(i) f_i,
    [e_i, e_alpha] = (q + 1) e_{alpha + alpha_i},
    [f_i, e_alpha] = (p + 1) e_{alpha - alpha_i},

with p, q the string lengths through alpha.  This module computes every
structure constant N_{alpha,beta} of that basis and, by the same
recursion, the expansion of each [e_alpha, e_{-alpha}] over the h_i,
checked against the root system's co-roots, entirely in machine
integers.

The engine is the Jacobi identity applied to [[e_l, e_nu], e_beta] for a
split mu = alpha_l + nu of each positive root by height: it expresses
N_{mu,beta} through constants whose first argument is lower, dividing by
the known non-zero N_{alpha_l,nu}.  Constants with negative first
argument follow from N_{-a,-b} = -N_{a,b}.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from .cartan import SignFunction
import numpy as np

from .errors import InternalInconsistency, InvalidEpsilon
from .roots import Root, RootSystem, root_height


@dataclass(eq=False)
class BracketTable:
    """Complete multiplication table over the basis {h_i} u {e_alpha}.

    ``n`` maps ordered root-index pairs (a, b) with root sum to the
    integer N.  ``cartan_action`` is a rank x nr int64 array with
    ``cartan_action[i - 1, r]`` = alpha_r(h_i), and ``opposite`` an
    nr x rank int64 array whose row r holds the co-root coordinates c
    with [e_alpha, e_{-alpha}] = (-1)^{ht(alpha)} sum_i c_i h_i.  The
    builders share the root system's read-only ``cartan_action`` and
    ``coroots``; a table read from a file holds read-only copies of its
    own.  Immutable once built.  Tables compare by identity; compare
    ``n`` and the arrays to compare contents.
    """

    rs: RootSystem
    eps: SignFunction
    n: dict[tuple[int, int], int] = field(repr=False)
    cartan_action: np.ndarray = field(repr=False)
    opposite: np.ndarray = field(repr=False)

    @property
    def dimension(self) -> int:
        return self.rs.rank + len(self.rs.roots)

    def constant(self, alpha: Root, beta: Root) -> int:
        """N_{alpha,beta}; zero when alpha + beta is not a root."""
        a = self.rs.index_of(alpha)
        b = self.rs.index_of(beta)
        return self.n.get((a, b), 0)

    def opposite_brackets(self) -> np.ndarray:
        """[e_alpha, e_{-alpha}] for every root alpha, as nr rows of h-coordinates."""
        return np.where(self.rs.coeffs.sum(axis=1, keepdims=True) % 2, -self.opposite, self.opposite)


def _base_constants(rs: RootSystem, eps: SignFunction) -> dict[tuple[int, int], int]:
    """All N with a simple first argument: N_{alpha_i,beta} = eps(i)(q+1)."""
    n: dict[tuple[int, int], int] = {}
    for i in rs.cartan.nodes:
        a = rs.index_of(rs.simple_root(i))
        bs = np.flatnonzero(rs.sum_index[a] >= 0)
        for b, q in zip(bs.tolist(), rs.backward_lengths(a, bs).tolist()):
            n[(a, b)] = eps.value(i) * (q + 1)
    return n


def build_inductive(rs: RootSystem, eps: SignFunction, tie_break: str = "min") -> BracketTable:
    """Construct the full canonical bracket table by height recursion.

    ``tie_break`` picks which simple root is split off a positive root at
    each height step ("min" or "max" node id); the finished table is
    independent of this choice, which the test suite exercises.
    """
    if not eps.is_coloring_of(rs.cartan):
        raise InvalidEpsilon("epsilon must alternate along diagram edges")
    if tie_break not in ("min", "max"):
        raise ValueError("tie_break must be 'min' or 'max'")
    pick = min if tie_break == "min" else max

    roots = rs.roots
    pos = rs.positive_count
    si = rs.sum_index
    n = _base_constants(rs, eps)

    simple_idx = {i: rs.index_of(rs.simple_root(i)) for i in rs.cartan.nodes}
    # hvec[k] = [e_alpha, e_{-alpha}] as an h-coordinate vector, positive k only.
    hvec = np.zeros((pos, rs.rank), dtype=np.int64)
    for i in rs.cartan.nodes:
        hvec[simple_idx[i], i - 1] = -1

    by_height: dict[int, list[int]] = {}
    for k in range(pos):
        by_height.setdefault(root_height(roots[k]), []).append(k)

    for h in sorted(by_height):
        if h == 1:
            continue
        for m in by_height[h]:
            mu = roots[m]
            row_m = si[m].tolist()
            l = pick(i for i in rs.cartan.nodes if row_m[rs.neg_index(simple_idx[i])] >= 0)
            sl = simple_idx[l]
            neg_sl = rs.neg_index(sl)
            v = row_m[neg_sl]
            d = n[(sl, v)]
            neg_m = rs.neg_index(m)
            neg_v = rs.neg_index(v)
            row_v, row_sl = si[v].tolist(), si[sl].tolist()

            for b, total in enumerate(row_m):
                if total < 0:
                    continue
                if b == v:
                    n[(m, b)] = -n[(v, m)]
                elif b == neg_v:
                    n[(m, b)] = n[(v, neg_m)]
                elif b == neg_sl:
                    n[(m, b)] = n[(sl, neg_m)]
                else:
                    t1 = t2 = 0
                    if row_v[b] >= 0:
                        t1 = n[(v, b)] * n[(sl, row_v[b])]
                    if row_sl[b] >= 0:
                        t2 = n[(sl, b)] * n[(v, row_sl[b])]
                    num = t1 - t2
                    if num % d:
                        raise InternalInconsistency(
                            f"non-exact division for N at {mu}, {roots[b]}"
                        )
                    n[(m, b)] = num // d

            # Same Jacobi split applied to [e_mu, e_{-mu}], kept as a vector
            # over the h_i so no co-root formula is assumed here.
            combo = -n[(sl, neg_m)] * hvec[v]
            combo[l - 1] -= n[(v, neg_m)]
            if np.any(combo % d):
                raise InternalInconsistency(f"non-exact Cartan division at {mu}")
            hvec[m] = combo // d

    for (a, b), value in list(n.items()):
        if a < pos:
            n[(rs.neg_index(a), rs.neg_index(b))] = -value

    t = BracketTable(rs=rs, eps=eps, n=n, cartan_action=rs.cartan_action, opposite=rs.coroots)
    # The recursion must reproduce (-1)^ht h_alpha with h_alpha the co-root.
    expected = t.opposite_brackets()[:pos]
    bad = (hvec != expected).any(axis=1)
    if bad.any():
        k = int(bad.argmax())
        raise InternalInconsistency(
            f"Cartan bracket for {roots[k]} is {tuple(hvec[k].tolist())}, expected {tuple(expected[k].tolist())}"
        )
    return t


def flip_epsilon_table(t: BracketTable) -> BracketTable:
    """The table for -epsilon: every e_alpha negates, so every N negates.

    The Cartan part is unchanged since both factors of [e_alpha, e_{-alpha}]
    pick up the same sign.
    """
    return BracketTable(
        rs=t.rs,
        eps=t.eps.flipped(),
        n={key: -value for key, value in t.n.items()},
        cartan_action=t.cartan_action,
        opposite=t.opposite,
    )


def check_negation_symmetry(t: BracketTable):
    """Verify N_{-alpha,-beta} = -N_{alpha,beta} for every stored pair.

    This is the compatibility of the basis with the involution swapping
    e_i and f_i; the report must come back empty for a canonical table.
    """
    from .report import VerificationReport

    report = VerificationReport(suite="negation-symmetry")
    for (a, b), value in t.n.items():
        na, nb = t.rs.neg_index(a), t.rs.neg_index(b)
        got = t.n.get((na, nb))
        report.checked += 1
        if got != -value:
            report.record((t.rs.roots[a], t.rs.roots[b]), -value, got)
    return report
