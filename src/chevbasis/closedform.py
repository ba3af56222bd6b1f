"""Closed formula for the canonical structure constants, simply-laced case.

For a symmetric Cartan matrix the sign of N_{alpha,beta} is a product of
root signs and epsilon values:

    sign(alpha,beta) = sgn(alpha) sgn(beta) sgn(alpha+beta)
                       * prod_{i,j} eps(i)^(a_ij n_i m_j),

and since every exponent only matters mod 2 the product reduces to a bit
parity.  An equivalent single-index form replaces the double sum in the
exponent by n_i <alpha_i, beta>.  Together with q = 0 for simply-laced
string lengths this gives the whole table without any recursion.

:func:`pair_signs` evaluates the formula on arrays of root indices and is
what the table builders use; the scalar functions on coefficient tuples
are the reference implementations it is tested against.
"""

from __future__ import annotations

import numpy as np

from .bracket import BracketTable
from .cartan import SignFunction
from .errors import NotARoot, NotSimplyLaced
from .report import VerificationReport
from .roots import Root, RootSystem, add, negate, root_sign


def _require_summing_pair(rs: RootSystem, alpha: Root, beta: Root) -> None:
    if not rs.cartan.simply_laced:
        raise NotSimplyLaced("the closed sign formula needs a symmetric Cartan matrix")
    if not rs.contains(alpha) or not rs.contains(beta):
        raise NotARoot("both arguments must be roots")
    if not rs.contains(add(alpha, beta)):
        raise NotARoot(f"{alpha} + {beta} is not a root")


def constant_sign(rs: RootSystem, eps: SignFunction, alpha: Root, beta: Root) -> int:
    """The +-1 sign of the canonical constant, by the double-product formula."""
    _require_summing_pair(rs, alpha, beta)
    entries = rs.cartan.entries
    n = rs.cartan.rank
    parity = 0
    for i in range(n):
        if eps.values[i] == 1 or alpha[i] == 0:
            continue
        parity += alpha[i] * sum(entries[i][j] * beta[j] for j in range(n))
    sgn = root_sign(alpha) * root_sign(beta) * root_sign(add(alpha, beta))
    return -sgn if parity % 2 else sgn


def constant_sign_reduced(rs: RootSystem, eps: SignFunction, alpha: Root, beta: Root) -> int:
    """Same sign through the single-index exponent n_i <alpha_i, beta>."""
    _require_summing_pair(rs, alpha, beta)
    b = rs.index_of(beta)
    parity = 0
    for i in rs.cartan.nodes:
        if eps.value(i) == -1:
            parity += alpha[i - 1] * int(rs.cartan_action[i - 1, b])
    sgn = root_sign(alpha) * root_sign(beta) * root_sign(add(alpha, beta))
    return -sgn if parity % 2 else sgn


def closed_constant(rs: RootSystem, eps: SignFunction, alpha: Root, beta: Root) -> int:
    """N_{alpha,beta} = sign * (q+1); q is always 0 here, so the value is +-1."""
    sign = constant_sign(rs, eps, alpha, beta)
    _, q = rs.string_lengths(alpha, beta)
    return sign * (q + 1)


def pair_signs(rs: RootSystem, eps: SignFunction, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """constant_sign for index arrays a, b whose sums are roots, as int64 +-1.

    The exponent n diag[eps = -1] A m is read mod 2 from one nr x nr
    uint8 product of 0/1 matrices (uint8 sums wrap mod 256, which keeps
    the parity); root signs are read off the index, negative roots coming
    after positive_count.
    """
    odd = np.array(eps.values) == -1
    left = ((rs.coeffs[:, odd] @ np.array(rs.cartan.entries)[odd]) % 2).astype(np.uint8)
    right = (rs.coeffs % 2).astype(np.uint8)
    parity = (left @ right.T)[a, b] & 1
    s = rs.sum_index[a, b]
    pos = rs.positive_count
    bit = parity ^ (a >= pos) ^ (b >= pos) ^ (s >= pos)
    return 1 - 2 * bit.astype(np.int64)


def closed_table(rs: RootSystem, eps: SignFunction) -> BracketTable:
    """Assemble a complete bracket table from the closed formula alone.

    Independent of the inductive path: constants come from the sign
    formula, the Cartan actions from the matrix rows, and the co-root
    expansions from the root system.  Differential testing against
    ``build_inductive`` certifies that the sign formula really is the
    canonical sign, pair by pair.
    """
    if not rs.cartan.simply_laced:
        raise NotSimplyLaced("closed tables exist only for symmetric Cartan matrices")
    pairs = np.argwhere(rs.sum_index >= 0)
    # q = 0 for every simply-laced pair, so N is the sign alone.
    n = pair_signs(rs, eps, pairs[:, 0], pairs[:, 1])
    return BracketTable(rs=rs, eps=eps, pairs=pairs, n=n, cartan_action=rs.cartan_action, opposite=rs.coroots)


def check_split_identity(rs: RootSystem, eps: SignFunction) -> VerificationReport:
    """Exhaustively check the ladder-split behaviour of the sign formula.

    For every node l and roots alpha, beta with alpha_l + alpha and
    alpha_l + alpha + beta roots, alpha != +-beta, beta != +-alpha_l:
    exactly one of alpha + beta, alpha_l + beta is a root, and the sign
    transfers as sign(alpha_l+alpha, beta) = sign(alpha, beta) in the
    first case and -sign(alpha, alpha_l+beta) in the second.
    """
    report = VerificationReport(suite="ladder-split")
    if not rs.cartan.simply_laced:
        raise NotSimplyLaced("split identity is a simply-laced statement")
    for l in rs.cartan.nodes:
        al = rs.simple_root(l)
        neg_al = negate(al)
        for alpha in rs.roots:
            lifted = add(al, alpha)
            if not rs.contains(lifted):
                continue
            for beta in rs.roots:
                if beta in (alpha, negate(alpha), al, neg_al):
                    continue
                if not rs.contains(add(lifted, beta)):
                    continue
                first = rs.contains(add(alpha, beta))
                second = rs.contains(add(al, beta))
                report.checked += 1
                if first == second:
                    report.record((l, alpha, beta), "exactly one summand root", (first, second))
                    continue
                lhs = constant_sign(rs, eps, lifted, beta)
                if first:
                    rhs = constant_sign(rs, eps, alpha, beta)
                else:
                    rhs = -constant_sign(rs, eps, alpha, add(al, beta))
                if lhs != rhs:
                    report.record((l, alpha, beta), rhs, lhs)
    return report
