"""Closed formula for the canonical structure constants, simply-laced case.

For a symmetric Cartan matrix the sign of N_{alpha,beta} is a product of
root signs and epsilon values:

    sign(alpha,beta) = sgn(alpha) sgn(beta) sgn(alpha+beta)
                       * prod_{i,j} eps(i)^(a_ij n_i m_j),

and since every exponent only matters mod 2 the product reduces to a bit
parity.  Together with q = 0 for simply-laced string lengths this gives
the whole table without any recursion.

:func:`pair_signs` evaluates the formula on arrays of root indices for
the table builders; its statement on coefficient tuples, pair by pair,
is the reference in ``tests/reference.py`` that it is tested against.
"""

from __future__ import annotations

import numpy as np

from .bracket import BracketTable
from .cartan import SignFunction
from .errors import NotSimplyLaced
from .roots import RootSystem, packed_parity


def pair_signs(rs: RootSystem, eps: SignFunction, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The sign of N_{a,b} for index arrays a, b whose sums are roots, as int64 +-1.

    The exponent n diag[eps = -1] A m is read mod 2 as the parity of
    left[a] & right[b], each 0/1 row of rank bits packed once into uint64
    words and each pair's words folded by XOR.  Root signs are read off
    the index, negative roots coming after positive_count, and the sign
    of each sum off its height, so no ``sum_index`` is read.
    """
    odd = np.array(eps.values) == -1
    left = packed_parity(rs.coeffs[:, odd] @ np.array(rs.cartan.entries)[odd])
    right = packed_parity(rs.coeffs)
    parity = left[a]
    parity &= right[b]
    for k in (32, 16, 8, 4, 2, 1):
        parity ^= parity >> np.uint64(k)
    parity &= np.uint64(1)
    parity = np.bitwise_xor.reduce(parity, axis=1).astype(bool)
    # a + b is a root, of height in [-89, 89] on every type built (A89, the
    # largest fold parent, included), so the int8 sum cannot wrap.
    height = rs.coeffs.sum(axis=1).astype(np.int8)
    pos = rs.positive_count
    bit = parity ^ (a >= pos) ^ (b >= pos) ^ (height[a] + height[b] < 0)
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
    # q = 0 for every simply-laced pair, so N is the sign alone.
    n = pair_signs(rs, eps, *rs.pairs.T)
    return BracketTable(rs=rs, eps=eps, pairs=rs.pairs, n=n, cartan_action=rs.cartan_action, opposite=rs.coroots)

