"""Independent correctness oracles for bracket tables.

Everything here treats a table as opaque data and re-derives what it
claims from scratch: the Jacobi identity over the full adjoint basis
(evaluated once on each unordered triple with a positive simple
Chevalley generator wherever the root grading does not already force it,
and implied on the rest because the generators generate the table, the
Chevalley involution is an automorphism of it and the antisymmetric
bracket makes the Jacobi sum alternating; a graded sweep over every
ordered triple is the fallback), the |N| = q+1 bound with string lengths
walked in the root system, the canonical signs of the generator rows,
and the co-roots and Cartan actions against the root system's, a
differential comparison of two tables of the same root system (built
independently by the caller), and the trace-zero matrix model of type A
where brackets are literal integer matrix commutators.  All arithmetic
is exact; numpy is used only as an integer array engine.
"""

from __future__ import annotations

import numpy as np

from .bracket import BracketTable, check_entry_bound
from .cartan import SignFunction
from .errors import IllegalType, IncompatibleTables
from .report import VerificationReport
from .roots import RootSystem


# (Linked pair, member) positions expanded per step of the root-triple
# sweep, and summing pairs per step of the zero-sum check.  Big enough that
# numpy call overhead stays small, small enough that the block's few MB of
# working set do not raise the peak of small runs.
JACOBI_BLOCK = 1 << 13


def _table_arrays(t: BracketTable):
    """Dense integer views of a table: constants (:meth:`BracketTable.dense`), stray keys, actions, Cartan vectors.

    A stray key is a stored pair (a, b) whose roots do not sum to a root.
    A table with a constant, Cartan action or Cartan vector entry beyond
    +-ENTRY_BOUND is refused with a ChevBasisError before any int32 view
    is built, so no narrowing can wrap it.  The actions and Cartan vectors
    are returned as the table holds them, int64.
    """
    check_entry_bound("cartan_action", t.cartan_action)
    check_entry_bound("opposite", t.opposite)
    stray = t.pairs[t.rs.sum_index[t.pairs[:, 0], t.pairs[:, 1]] < 0]
    return t.dense(), stray, t.cartan_action, t.opposite_brackets()


def _root_terms(t: BracketTable, nn, act, w):
    """``linked(u, v)`` and ``term(x, y, z)`` on index arrays, for root triples with a root sum.

    Both read flat views with ``take``: ``sum_index`` at ``y * nr + z``, and
    the nr x (nr + 1) int32 ``nn`` at ``y * (nr + 1) + z`` and ``x * (nr +
    1) + sum``, where a sum index of -1 lands on the zero column.  The
    Cartan term of a band triple (z = -y) is gathered there alone, from
    int32 copies of ``w`` and ``act.T``, as the int64 sum over i of ``w[y,
    i] * act[i, x]``.  Entries are narrow, products wide: every product of
    two entries is taken in int64, and is at most 2^40 for entries within
    ``ENTRY_BOUND``, so no Jacobi sum can wrap.
    """
    neg = t.rs.neg
    nr = len(neg)
    si = t.rs.sum_index.ravel()
    flat = nn.ravel()
    w = w.astype(np.int32)
    act_t = np.ascontiguousarray(act.T, dtype=np.int32)

    def linked(u, v):
        return (si.take(u * nr + v) >= 0) | (v == neg.take(u))

    def term(x, y, z):
        """Coefficient of [e_x, [e_y, e_z]] on e_{x+y+z}."""
        yz = y * nr + z
        out = np.multiply(flat.take(yz + y), flat.take(x * (nr + 1) + si.take(yz)), dtype=np.int64)
        band = np.flatnonzero(z == neg.take(y))
        out[band] -= np.einsum("ki,ki->k", w.take(y[band], axis=0), act_t.take(x[band], axis=0), dtype=np.int64)
        return out

    return linked, term


def _generators(rs) -> np.ndarray:
    """Root indices of the Chevalley generators: alpha_1..alpha_r, then -alpha_1..-alpha_r."""
    return np.concatenate([rs.simple, rs.neg[rs.simple]])


def _invertible(m: np.ndarray) -> bool:
    """Whether a square integer matrix has non-zero determinant, by exact Bareiss elimination."""
    m = m.astype(object)
    prev = 1
    for k in range(len(m)):
        rows = np.flatnonzero(m[k:, k])
        if not len(rows):
            return False
        m[[k, k + rows[0]]] = m[[k + rows[0], k]]
        m[k + 1:, k + 1:] = (m[k + 1:, k + 1:] * m[k, k] - m[k + 1:, k:k + 1] * m[k, k + 1:]) // prev
        prev = m[k, k]
    return True


def _generation_holds(t: BracketTable, arrays: tuple) -> bool:
    """The preconditions under which Jacobi on the positive simple generators' triples implies it on all.

    No stored key off the grading; an antisymmetric bracket, N(b, a) =
    -N(a, b) and [e_{-alpha}, e_alpha] = -[e_alpha, e_{-alpha}], which also
    makes the Jacobi sum alternating, so that each unordered triple is
    evaluated once (:func:`_generator_sweep`); the
    Chevalley involution omega(e_alpha) = -e_{-alpha}, omega(h) = -h an
    automorphism of it, N(-a, -b) = -N(a, b) and (-alpha)(h_i) =
    -alpha(h_i) (on the Cartan vectors it asks what antisymmetry does);
    every root other than the 2r generators' reached by a ladder mu = g + nu
    with N(g, nu) != 0 and |ht nu| < |ht mu|; and r independent brackets
    [e_{alpha_i}, e_{-alpha_i}], so that the generators generate the table.
    The constants are read at the stored pairs only, as every other entry
    of ``nn`` is 0: O(K + rank * nr), with no dense transpose.
    ``arrays`` are the table's :func:`_table_arrays`.
    """
    (nn, stray, act, w), neg = arrays, t.rs.neg
    a, b = t.pairs.T
    ab = nn[a, b]
    if (len(stray) or np.any(nn[b, a] != -ab) or np.any(nn[neg[a], neg[b]] != -ab)
            or not np.array_equal(w[neg], -w) or not np.array_equal(act[:, neg], -act)):
        return False
    rs = t.rs
    p = rs.positive_count
    gens = _generators(rs)
    mu = rs.sum_index[gens]
    # g = +-alpha_i moves the height by +-1, so |ht nu| < |ht mu| exactly
    # when nu has the sign of g.
    ladder = (mu >= 0) & (nn[gens, :-1] != 0) & ((np.arange(len(rs.roots)) < p) == (gens[:, None] < p))
    reached = np.zeros(len(rs.roots), dtype=bool)
    reached[gens] = True
    reached[mu[ladder]] = True
    return bool(reached.all()) and _invertible(w[gens[:rs.rank]])


def _blocks(start: np.ndarray, group: np.ndarray):
    """Yield (item, position) arrays over the ranges [start[g], start[g + 1]) of the items' groups g.

    The items come in order, whole, about JACOBI_BLOCK positions at a time.
    """
    size = np.diff(start)
    ends = size[group]
    np.cumsum(ends, out=ends)
    lo = 0
    while lo < len(group):
        base = int(ends[lo - 1]) if lo else 0
        hi = max(lo + 1, int(np.searchsorted(ends, base + JACOBI_BLOCK, side="right")))
        g = group[lo:hi]
        count = size[g]
        yield (np.repeat(np.arange(lo, hi), count),
               np.repeat(start[g] - ends[lo:hi] + count, count) + np.arange(base, ends[hi - 1]))
        lo = hi


def _members(bs, cs, mine):
    """The roots x with ``mine[x]`` that meet each sum s, listed in ``members[start[s]:start[s + 1]]``.

    They are the x with x + s a root, for the sums s of the summing pairs
    (bs, cs), and all of them for the band, s = nr.
    """
    keep = mine[cs]
    members = np.concatenate([cs[keep], np.flatnonzero(mine)])
    return members, np.append(np.searchsorted(bs[keep], np.arange(len(mine) + 1)), len(members))


def _one_cartan_sites(t: BracketTable, arrays: tuple, hb: np.ndarray, hc: np.ndarray, rows: np.ndarray):
    """Sites of the non-zero Jacobi sums with one Cartan element h_i: (i, b, c) on pairs, (i, b, j) on the band.

    On a summing pair (b, c) of (hb, hc) the identity reduces to additivity
    of the action along b+c; on the band (b, -b), b in ``rows``, the two
    surviving terms are Cartan vectors read from the table, and j is an
    h-coordinate of their sum.  The layouts (h, b, c), (b, h, c) and (b, c,
    h) give the same values up to sign.  The nodes come a few at a time,
    about JACOBI_BLOCK entries of each check.
    """
    nn, _, act, w = arrays
    r, neg = t.rs.rank, t.rs.neg
    hs, hn = t.rs.sum_index[hb, hc], nn[hb, hc]
    wy, wn = w[rows], w[neg[rows]]
    pair_sites, band_sites = [], []
    step = max(1, JACOBI_BLOCK // (len(hb) + len(rows) * r))
    for lo in range(0, r, step):
        i = slice(lo, lo + step)
        node, k = np.nonzero(hn * (act[i, hs] - act[i, hb] - act[i, hc]))
        pair_sites.append(np.column_stack([node + lo, hb[k], hc[k]]))
        node, y, j = np.nonzero(act[i, neg[rows], None] * wy - act[i, rows, None] * wn)
        band_sites.append(np.column_stack([node + lo, rows[y], j]))
    return np.concatenate(pair_sites), np.concatenate(band_sites)


def _zero_sum_sites(t: BracketTable, arrays: tuple, k: np.ndarray) -> np.ndarray:
    """Sites (-(b+c), b, c) of the non-zero root triples with zero sum, over the summing pairs ``rs.pairs[k]``.

    All three terms are Cartan vectors; the pairs come JACOBI_BLOCK at a time.
    """
    nn, _, _, w = arrays
    neg, si = t.rs.neg, t.rs.sum_index
    bs, cs = t.rs.pairs.T

    def flagged(k):
        b, c = bs[k], cs[k]
        a = neg[si[b, c]]
        return k[np.any(nn[b, c, None] * w[a] + nn[c, a, None] * w[b] + nn[a, b, None] * w[c], axis=1)]

    k = np.concatenate([k[:0]] + [flagged(k[lo:lo + JACOBI_BLOCK]) for lo in range(0, len(k), JACOBI_BLOCK)])
    return np.column_stack([neg[si[bs[k], cs[k]]], bs[k], cs[k]])


def jacobi_sweep(t: BracketTable, max_recorded: int = 100) -> VerificationReport:
    """Check [x,[y,z]] + [y,[z,x]] + [z,[x,y]] = 0 on every ordered basis triple.

    For an antisymmetric bracket the x whose ``ad x`` is a derivation form
    a subalgebra, and ``ad x`` is one exactly when J(x, y, z) = 0 for all
    y, z.  So when the 2r Chevalley generators e_{+-alpha_i} generate the
    table, Jacobi on the 2r * dim**2 triples with a generator first implies
    it on all dim**3.  When the Chevalley involution omega(e_alpha) =
    -e_{-alpha}, omega(h) = -h is also an automorphism of the bracket,
    ad e_{-alpha_i} = -omega ad(e_{alpha_i}) omega^-1 is a derivation
    whenever ad e_{alpha_i} is, so the r * dim**2 triples with a positive
    simple generator first suffice (see :func:`_generation_holds`).  An
    antisymmetric bracket also makes J alternating, J(x, z, y) = -J(x, y,
    z) and J(x, y, y) = 0, so :func:`_generator_sweep` evaluates each
    unordered triple with a positive simple member once.  The ordered
    generator triples that grading settles are counted in
    ``zero_by_grading``, as the full sweep counts them, and every other
    triple not evaluated, the orderings that alternation settles among
    them, in ``implied_by_generation``.  If a precondition fails or a
    generator triple is non-zero, the graded sweep over all triples runs
    instead and its report, with its sites, is returned.  ``checked`` is
    always dim**3.
    """
    arrays = _table_arrays(t)
    if _generation_holds(t, arrays) and (counts := _generator_sweep(t, arrays)):
        evaluated, zero = counts
        checked = t.dimension ** 3
        return VerificationReport(suite="jacobi", checked=checked, zero_by_grading=zero,
                                  implied_by_generation=checked - zero - evaluated, max_recorded=max_recorded)
    return _graded_sweep(t, max_recorded, arrays)


def _generator_sweep(t: BracketTable, arrays: tuple) -> tuple[int, int] | None:
    """Jacobi once on each unordered basis triple with a positive simple root that grading leaves.

    Returns (evaluated, zero_by_grading) if every evaluated sum vanishes,
    and None at the first that does not.  J is alternating, as
    :func:`_generation_holds` has checked that the bracket is
    antisymmetric, so the r * dim**2 ordered triples with a positive simple
    root first are each zero by grading or an ordering of such a triple:
    of three distinct elements, 2 per positive simple member, all given by
    its one evaluation; or of a root triple (a, a, b), one per positive
    simple entry counted with multiplicity, all zero by alternation.
    ``zero_by_grading`` is the rest of the r * dim**2, as the full sweep
    counts it.  ``arrays`` are the table's :func:`_table_arrays`.
    """
    rs = t.rs
    r, nr, neg = rs.rank, len(rs.neg), rs.neg
    nn, _, act, w = arrays
    mine = np.zeros(nr, dtype=bool)
    mine[rs.simple] = True
    bs, cs = rs.pairs.T

    # One Cartan element: {h_i, b, c} with b + c a root and b positive simple,
    # once (c positive simple too only if c > b), and {h_i, b, -b}.  J(b, h,
    # c) = -J(b, c, h), so the two layouts with b first are one check.
    own = np.flatnonzero(mine[bs])
    ordered = 2 * r * (len(own) + r)
    hb, hc = bs[own], cs[own]
    once = ~(mine[hc] & (hc < hb))
    if any(map(len, _one_cartan_sites(t, arrays, hb[once], hc[once], rs.simple))):
        return None
    evaluated = r * (int(np.count_nonzero(once)) + r)

    # Zero-sum root triples {a, b, c}, a = -(b+c) positive simple, on one
    # orientation b < c of each pair, once (b or c positive simple too only
    # if it is above a).
    zero = np.flatnonzero((bs < cs) & mine[neg].take(rs.sum_index[bs, cs]))
    ordered += 2 * len(zero)
    b, c = bs[zero], cs[zero]
    a = neg[rs.sum_index[b, c]]
    zero = zero[~(mine[b] & (b < a)) & ~(mine[c] & (c < a))]
    if len(_zero_sum_sites(t, arrays, zero)):
        return None
    evaluated += len(zero)

    # Root triples {m, y, z} with m + y + z a root, from the linked pairs y <
    # z: the summing pairs in one orientation and the band (a, -a) with a
    # positive.  A pair with a positive simple root meets all its members,
    # any other pair only the positive simple ones.  A set is evaluated from
    # its least linked pair in sorted-pair order: (m, y) and (m, z) may be
    # linked only if they sort after (y, z), that is m > z and m > y.
    link_y, link_z = rs.linked.T
    members, start = _members(bs, cs, np.ones(nr, dtype=bool))
    few, few_start = _members(bs, cs, mine)
    # The groups: nr sums, the band (nr), an empty group nr + 1 (start[nr +
    # 1] = start[nr + 2] = len(members)) for the other orientation, then the
    # sums and the band of the few.
    group = np.concatenate([rs.sum_index[bs, cs], np.full(nr, nr)])
    group[~(mine[link_y] | mine[link_z])] += len(start)
    group[link_y > link_z] = nr + 1
    start = np.concatenate([start, few_start + len(members)])
    members = np.concatenate([members, few])
    linked, term = _root_terms(t, nn, act, w)
    for seg, at in _blocks(start, group):
        m = members[at]
        y, z = link_y[seg], link_z[seg]
        repeated = (m == y) | (m == z)
        keep = ~(repeated | (linked(m, y) & (m < z)) | (linked(m, z) & (m < y)))
        for u in (m, y, z):
            simple = mine.take(u)
            ordered += 2 * np.count_nonzero(simple & keep) + np.count_nonzero(simple & repeated)
        m, y, z = m[keep], y[keep], z[keep]
        evaluated += len(m)
        if np.any(term(m, y, z) + term(y, z, m) + term(z, m, y)):
            return None
    return evaluated, r * t.dimension ** 2 - int(ordered)


def _graded_sweep(t: BracketTable, max_recorded: int = 100, arrays: tuple | None = None) -> VerificationReport:
    """Check [x,[y,z]] + [y,[z,x]] + [z,[x,y]] = 0 on all dim**3 ordered basis triples.

    Basis order: h_1..h_rank then the roots in root-system order.  The
    algebra is graded by the root lattice, so the Jacobi sum of a triple
    lies in the space of weight x+y+z, and grading alone makes it zero for
    these triples, counted in ``zero_by_grading``:

    - two or three Cartan elements (the actions are scalars and commute);
    - one Cartan element and two roots that neither sum to a root nor are
      opposite (every inner bracket vanishes);
    - three roots whose sum is neither a root nor zero, or of which no
      two are linked (sum to a root, or are opposite).

    Every other triple is evaluated from the table's data, in vectorised
    batches, and each non-zero sum is recorded.  Grading holds only if
    every stored constant sits on a pair that sums to a root, so a stored
    key that does not is recorded as a violation too.  :func:`jacobi_sweep`
    falls back to this sweep, passing the :func:`_table_arrays` it built.
    """
    report = VerificationReport(suite="jacobi", max_recorded=max_recorded)
    r, nr = t.rs.rank, len(t.rs.neg)
    arrays = arrays or _table_arrays(t)
    nn, stray, act, w = arrays
    report.checked = t.dimension ** 3

    def note(kind, sites):
        room = max(0, max_recorded - len(report.violations))
        for s in sites[:room]:
            report.record((kind, *map(int, s)), 0, "nonzero")
        report.violation_count += max(0, len(sites) - room)

    note("grading", stray)

    # One Cartan element, in the three layouts, sites by node, then pair.
    bs, cs = t.rs.pairs.T
    pair_sites, band_sites = _one_cartan_sites(t, arrays, bs, cs, np.arange(nr))
    for kind in ("hee", "ehe", "eeh"):
        note(kind, pair_sites)
        note(kind + "-band", band_sites)
    evaluated = 3 * r * (len(bs) + nr)

    # Root-only triples whose coefficients sum to zero: (-(b+c), b, c) for
    # each summing pair.
    note("eee0", _zero_sum_sites(t, arrays, np.arange(len(bs))))
    evaluated += len(bs)

    # Remaining root-only triples (x, y, z) with x+y+z a root.  Every term
    # is a multiple of e_{x+y+z}; an inner bracket that lands on Cartan
    # (the band z = -y) feeds through the Cartan vector w[y].  A term can
    # be non-zero only if its inner pair is linked, so the triples are
    # enumerated from the linked pairs (y, z): the summing pairs, whose
    # members x run over the roots with x + (y+z) a root, and the band,
    # whose x run over all roots.  Each linked pair is placed at (1,2),
    # (2,0) and (0,1) of the triple, as (x, y, z), (z, x, y) and (y, z, x),
    # and a placement is kept only if no earlier position holds a linked
    # pair, so every triple is evaluated once.  Sites are recorded by
    # placement, in triple order within each, whatever the block size: up
    # to max_recorded of each placement are kept across blocks and the rest
    # only counted.
    link_y, link_z = t.rs.linked.T
    group = np.concatenate([t.rs.sum_index[bs, cs], np.full(nr, nr)])
    members, start = _members(bs, cs, np.ones(nr, dtype=bool))
    linked, term = _root_terms(t, nn, act, w)
    kept = [np.empty((0, 3), dtype=np.intp)] * 3
    for seg, at in _blocks(start, group):
        x = members[at]
        y, z = link_y[seg], link_z[seg]
        second = ~linked(x, y)
        third = second & ~linked(z, x)
        a = np.concatenate([x, z[second], y[third]])
        b = np.concatenate([y, x[second], z[third]])
        c = np.concatenate([z, y[second], x[third]])
        evaluated += len(a)
        bad = np.flatnonzero(term(a, b, c) + term(b, c, a) + term(c, a, b))
        if len(bad):
            cuts = np.searchsorted(bad, [len(x), len(x) + np.count_nonzero(second)])
            for k, part in enumerate(np.split(np.column_stack([a[bad], b[bad], c[bad]]), cuts)):
                sites = np.concatenate([kept[k], part])
                kept[k] = sites[:max_recorded]
                report.violation_count += len(sites) - len(kept[k])
    note("eee", np.concatenate(kept))
    report.zero_by_grading = report.checked - evaluated
    return report


def chevalley_audit(t: BracketTable) -> VerificationReport:
    """Check |N_{alpha,beta}| = q+1 for every pair, co-roots, generator rows and Cartan actions.

    Every pair whose roots sum to a root must be stored; a missing one is
    recorded with ``None`` as the value found.  A constant stored on a
    pair that does not sum to a root is recorded with ``None`` as the
    value expected.  The canonical basis also fixes the sign on the rows
    of the Chevalley generators: N_{alpha_i,beta} = eps(i)(q+1) and
    N_{-alpha_i,-beta} = -eps(i)(q+1), checked on every stored summing
    pair with first argument +-alpha_i.  The co-roots and the Cartan
    actions alpha(h_i) must equal the root system's.  Violations come in
    this order: stored pairs (in table order), missing pairs, co-roots,
    generator rows (in table order), Cartan actions (by node, then root).
    """
    report = VerificationReport(suite="chevalley")
    rs = t.rs
    a, b = t.pairs.T
    summing = rs.sum_index[a, b] >= 0
    got = t.n
    expected = rs.backward_lengths(a, b) + 1
    gens = _generators(rs)
    row_sign = np.zeros(len(rs.roots), dtype=np.int64)
    row_sign[gens] = np.concatenate([t.eps.values, np.negative(t.eps.values)])
    on_row = (row_sign[a] != 0) & summing
    # The summing pairs as row-major keys a * nr + b, which come out sorted.
    nr = len(rs.roots)
    sums = rs.pairs[:, 0] * nr + rs.pairs[:, 1]
    report.checked = (len(got) + len(sums) + nr
                      + int(np.count_nonzero(on_row)) + rs.cartan_action.size)
    bad = ~summing | (np.abs(got) != expected)
    for k in np.flatnonzero(bad).tolist():
        q1 = int(expected[k]) if summing[k] else None
        report.record((rs.roots[a[k]], rs.roots[b[k]]), q1, int(got[k]))
    present = np.zeros(len(sums), dtype=bool)
    present[sums.searchsorted(a[summing] * nr + b[summing])] = True
    ma, mb = rs.pairs[~present].T
    for x, y, q1 in zip(ma.tolist(), mb.tolist(), (rs.backward_lengths(ma, mb) + 1).tolist()):
        report.record((rs.roots[x], rs.roots[y]), q1, None)
    for k in np.flatnonzero((t.opposite != rs.coroots).any(axis=1)).tolist():
        report.record(rs.roots[k], tuple(rs.coroots[k].tolist()), tuple(t.opposite[k].tolist()))
    signed = row_sign[a] * expected
    for k in np.flatnonzero(on_row & (got != signed)).tolist():
        report.record((rs.roots[a[k]], rs.roots[b[k]]), int(signed[k]), int(got[k]))
    _record_actions(report, rs, rs.cartan_action, t.cartan_action)
    return report


def _record_actions(report: VerificationReport, rs, expected: np.ndarray, got: np.ndarray) -> None:
    """Record every entry where two rank x nr Cartan action arrays differ, by node, then root."""
    for i, k in np.argwhere(expected != got).tolist():
        report.record(("action", i + 1, rs.roots[k]), int(expected[i, k]), int(got[i, k]))


def differential(t1: BracketTable, t2: BracketTable) -> VerificationReport:
    """Compare two tables of the same root system, index to index.

    Every constant, every [e_alpha, e_{-alpha}] and every Cartan action
    must agree exactly.  The pairs t1 stores come in its table order, then
    the pairs only t2 stores in row-major order; each pair is looked up by
    :meth:`BracketTable.find`, with no dense view.  Raises IncompatibleTables
    unless both tables have the same Cartan matrix, which fixes the root
    order.
    """
    rs1, rs2 = t1.rs, t2.rs
    if rs1.cartan.entries != rs2.cartan.entries:
        raise IncompatibleTables(f"cannot compare a {rs1.cartan.label} table with a {rs2.cartan.label} table")
    report = VerificationReport(suite="differential")
    a, b = t1.pairs.T
    at = t2.find(a, b)
    got = np.append(t2.n, 0)[at]
    for k in np.flatnonzero((at < 0) | (got != t1.n)).tolist():
        report.record((rs1.roots[a[k]], rs1.roots[b[k]]), int(t1.n[k]), int(got[k]) if at[k] >= 0 else None)
    # The pairs only t2 stores, each once in key order: the first position
    # of each key that no pair of t1 hit (a miss marks the spare last slot).
    hit = np.zeros(len(t2.n) + 1, dtype=bool)
    hit[at] = True
    a, b = t2.pairs.T
    first = np.unique(a * len(rs2.roots) + b, return_index=True)[1]
    extra = first[~hit[first]]
    for k in extra.tolist():
        report.record((rs2.roots[a[k]], rs2.roots[b[k]]), None, int(t2.n[k]))
    report.checked = len(t1.n) + len(extra)
    w1, w2 = t1.opposite_brackets(), t2.opposite_brackets()
    report.checked += len(w1) + t1.cartan_action.size
    for k in np.flatnonzero((w1 != w2).any(axis=1)).tolist():
        report.record(rs1.roots[k], tuple(w1[k].tolist()), tuple(w2[k].tolist()))
    _record_actions(report, rs2, t1.cartan_action, t2.cartan_action)
    return report


def _sl_n_matrices(rs: RootSystem, eps: SignFunction) -> tuple[np.ndarray, np.ndarray]:
    """Trace-zero integer matrices realising type A_{n-1}: one per root, then one per h_k.

    A root +-(alpha_lo + ... + alpha_hi) is delta_i - delta_j with
    (i, j) = (lo, hi + 1), or (hi + 1, lo) for a negative root; its
    matrix is the unit E_ij times the model sign -(-1)^{j - i} eps(i),
    with eps continued to index n by alternation.  The matrix of h_k is
    E_kk - E_{k+1,k+1}.  Indices are 0-based below, where ``hi`` already
    stands for hi + 1.
    """
    n, nr = rs.rank + 1, len(rs.coeffs)
    support = rs.coeffs != 0
    lo, hi = support.argmax(axis=1), n - 1 - support[:, ::-1].argmax(axis=1)
    negative = np.arange(nr) >= rs.positive_count
    i, j = np.where(negative, hi, lo), np.where(negative, lo, hi)
    eps_ext = np.array(eps.values + (-eps.values[-1],))
    mats = np.zeros((nr, n, n), dtype=np.int64)
    mats[np.arange(nr), i, j] = np.where((j - i) % 2, 1, -1) * eps_ext[i]
    k = np.arange(n - 1)
    cartans = np.zeros((n - 1, n, n), dtype=np.int64)
    cartans[k, k, k], cartans[k, k + 1, k + 1] = 1, -1
    return mats, cartans


def sl_n_oracle(table: BracketTable) -> VerificationReport:
    """Match an A_{n-1} table against matrix commutators, 2 <= n <= 8.

    Every bracket of the model basis is computed as an integer matrix
    commutator and expanded; constants, Cartan actions and co-root
    expansions must all agree with the table exactly.  The commutators
    [e_a, e_b] are taken one root row a at a time, as one stacked product
    over all b, and [h_i, e_b] as one stacked product over all (i, b).
    Violations come in (a, b) order, then in (i, b) order.
    """
    rs = table.rs
    if rs.cartan.type_label != "A" or not 1 <= rs.rank <= 7:
        raise IllegalType(f"the matrix oracle needs a table of type A1..A7, not {rs.cartan.label}")
    n = rs.rank + 1
    nr = len(rs.roots)
    mats, cartans = _sl_n_matrices(rs, table.eps)
    # Row -1 is the zero matrix: the expected bracket of a pair whose sum is no root.
    targets = np.concatenate([mats, np.zeros((1, n, n), dtype=np.int64)])
    w = table.opposite_brackets()
    nn = table.dense()[:, :-1]
    report = VerificationReport(suite="sl_n", checked=nr * nr + rs.rank * nr)
    for a, alpha in enumerate(rs.roots):
        comm = mats[a] @ mats - mats @ mats[a]
        expected = nn[a, :, None, None] * targets[rs.sum_index[a]]
        expected[rs.neg[a]] = np.tensordot(w[a], cartans, axes=1)
        for (b,) in _mismatches(expected, comm):
            report.record((alpha, rs.roots[b]), expected[b].tolist(), comm[b].tolist())

    comm = cartans[:, None] @ mats - mats @ cartans[:, None]
    expected = table.cartan_action[:, :, None, None] * mats
    for i, b in _mismatches(expected, comm):
        report.record((i + 1, rs.roots[b]), expected[i, b].tolist(), comm[i, b].tolist())
    return report


def _mismatches(expected: np.ndarray, got: np.ndarray) -> list[list[int]]:
    """Index lists, in row-major order, of the matrices where two stacks of matrices differ."""
    return np.argwhere((expected != got).any(axis=(-2, -1))).tolist()
