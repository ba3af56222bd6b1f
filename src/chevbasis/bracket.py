"""The canonical bracket table, built inductively for any finite type.

Fixing a 2-coloring epsilon of the diagram singles out one basis vector
e_alpha in each root space (unique up to the global epsilon -> -epsilon
flip), normalised so that

    e_{alpha_i} = eps(i) e_i,      e_{-alpha_i} = -eps(i) f_i,
    [e_i, e_alpha] = (q + 1) e_{alpha + alpha_i},
    [f_i, e_alpha] = (p + 1) e_{alpha - alpha_i},

with p, q the string lengths through alpha.  This module computes every
structure constant N_{alpha,beta} of that basis, the Cartan actions
alpha(h_i), and the co-root expansion of each [e_alpha, e_{-alpha}],
entirely in machine integers.

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


@dataclass
class BracketTable:
    """Complete multiplication table over the basis {h_i} u {e_alpha}.

    ``n`` maps ordered root-index pairs (a, b) with root sum to the
    integer N; ``cartan_action[i-1][r]`` is alpha_r(h_i); ``opposite[r]``
    holds the co-root coordinates c with [e_alpha, e_{-alpha}] =
    (-1)^{ht(alpha)} sum_i c_i h_i.  Immutable once built.
    """

    rs: RootSystem
    eps: SignFunction
    n: dict[tuple[int, int], int] = field(repr=False)
    cartan_action: tuple[tuple[int, ...], ...] = field(repr=False)
    opposite: tuple[Root, ...] = field(repr=False)

    @property
    def dimension(self) -> int:
        return self.rs.rank + len(self.rs.roots)

    def constant(self, alpha: Root, beta: Root) -> int:
        """N_{alpha,beta}; zero when alpha + beta is not a root."""
        a = self.rs.index_of(alpha)
        b = self.rs.index_of(beta)
        return self.n.get((a, b), 0)

    def opposite_bracket(self, k: int) -> Root:
        """[e_alpha, e_{-alpha}] for root index k, as an h-coordinate vector."""
        sign = -1 if root_height(self.rs.roots[k]) % 2 else 1
        return tuple(sign * c for c in self.opposite[k])


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
    # H[k] = [e_alpha, e_{-alpha}] as an h-coordinate vector, positive k only.
    hvec: dict[int, Root] = {}
    for i in rs.cartan.nodes:
        hvec[simple_idx[i]] = tuple(-1 if j == i else 0 for j in rs.cartan.nodes)

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
            c1 = n[(v, neg_m)]
            c2 = n[(sl, neg_m)]
            prev = hvec[v]
            combo = tuple(
                -c1 * (1 if j == l else 0) - c2 * prev[j - 1]
                for j in rs.cartan.nodes
            )
            if any(x % d for x in combo):
                raise InternalInconsistency(f"non-exact Cartan division at {mu}")
            hvec[m] = tuple(x // d for x in combo)

    # The recursion must reproduce (-1)^ht h_alpha with h_alpha the co-root.
    for k in range(pos):
        sign = -1 if root_height(roots[k]) % 2 else 1
        expected = tuple(sign * c for c in rs.coroot(roots[k]))
        if hvec[k] != expected:
            raise InternalInconsistency(
                f"Cartan bracket for {roots[k]} is {hvec[k]}, expected {expected}"
            )

    for (a, b), value in list(n.items()):
        if a < pos:
            n[(rs.neg_index(a), rs.neg_index(b))] = -value

    opposite = tuple(rs.coroot(beta) for beta in roots)
    return BracketTable(rs=rs, eps=eps, n=n, cartan_action=rs.cartan_action(), opposite=opposite)


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
