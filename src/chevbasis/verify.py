"""Independent correctness oracles for bracket tables.

Everything here treats a table as opaque data and re-derives what it
claims from scratch: the Jacobi identity over the full adjoint basis
(evaluated wherever the root grading does not already force it), the
|N| = q+1 bound with string lengths walked in the root system, a
differential comparison of two tables of the same root system (built
independently by the caller), and the trace-zero matrix model of type A
where brackets are literal integer matrix commutators.  All arithmetic
is exact; numpy is used only as an integer array engine.
"""

from __future__ import annotations

import numpy as np

from .bracket import BracketTable
from .cartan import SignFunction
from .errors import IllegalType, IncompatibleTables
from .report import VerificationReport
from .roots import Root, root_sign


# Triples expanded per step of the root-triple sweep.  Big enough that numpy
# call overhead stays small, small enough that the block's few MB of
# working set do not raise the peak of small runs.
JACOBI_BLOCK = 1 << 13


def _table_arrays(t: BracketTable):
    """Dense integer views of a table: constants, stray keys, negation, actions, Cartan vectors.

    A stray key is a stored pair (a, b) whose roots do not sum to a root.
    """
    rs = t.rs
    nr = len(rs.roots)
    keys = np.array(list(t.n), dtype=np.intp).reshape(-1, 2)
    nn = np.zeros((nr, nr), dtype=np.int64)
    nn[keys[:, 0], keys[:, 1]] = np.fromiter(t.n.values(), dtype=np.int64, count=len(t.n))
    stray = keys[rs.sum_index[keys[:, 0], keys[:, 1]] < 0]
    neg = np.array([rs.neg_index(k) for k in range(nr)], dtype=np.intp)
    act = np.array(t.cartan_action, dtype=np.int64)
    w = np.array([t.opposite_bracket(k) for k in range(nr)], dtype=np.int64)
    return nn, stray, neg, act, w


def jacobi_sweep(t: BracketTable, max_recorded: int = 100) -> VerificationReport:
    """Check [x,[y,z]] + [y,[z,x]] + [z,[x,y]] = 0 on every ordered basis triple.

    Basis order: h_1..h_rank then the roots in root-system order.  The
    algebra is graded by the root lattice, so the Jacobi sum of a triple
    lies in the space of weight x+y+z, and grading alone makes it zero
    for these triples, counted in ``zero_by_grading``:

    - two or three Cartan elements (the actions are scalars and commute);
    - one Cartan element and two roots that neither sum to a root nor are
      opposite (every inner bracket vanishes);
    - three roots whose sum is neither a root nor zero, or of which no
      two are linked (sum to a root, or are opposite).

    Every other triple is evaluated from the table's data, in vectorised
    batches, and each non-zero sum is recorded.  Grading holds only if
    every stored constant sits on a pair that sums to a root, so a stored
    key that does not is recorded as a violation too.  ``checked`` is
    always dim**3.
    """
    report = VerificationReport(suite="jacobi", max_recorded=max_recorded)
    rs = t.rs
    r = rs.rank
    nr = len(rs.roots)
    si = rs.sum_index
    nn, stray, neg, act, w = _table_arrays(t)

    def note(kind, sites):
        room = max(0, max_recorded - len(report.violations))
        for s in sites[:room]:
            report.record((kind, *map(int, s)), 0, "nonzero")
        report.violation_count += max(0, len(sites) - room)

    def count(size, evaluated):
        report.checked += size
        report.zero_by_grading += size - evaluated

    note("grading", stray)

    # All-Cartan triples and two Cartan elements (three layouts).
    count(r ** 3 + 3 * r * r * nr, 0)

    # One Cartan element.  On a summing pair (b, c) the identity reduces to
    # additivity of the action along b+c; on the band c = -b the two
    # surviving terms are Cartan vectors read from the table.  The three
    # layouts give the same values up to sign.
    bs, cs = np.nonzero(si >= 0)
    ss = si[bs, cs]
    hee = nn[bs, cs] * (act[:, ss] - act[:, bs] - act[:, cs])
    bad = np.argwhere(hee)
    hee_sites = np.column_stack([bad[:, 0], bs[bad[:, 1]], cs[bad[:, 1]]])
    band_x = (act[:, neg][:, :, None] * w[None, :, :]
              - act[:, :, None] * w[neg][None, :, :])
    band_sites = np.argwhere(band_x)
    for kind in ("hee", "ehe", "eeh"):
        count(r * nr * nr, r * (len(bs) + nr))
        note(kind, hee_sites)
        note(kind + "-band", band_sites)

    # Root-only triples whose coefficients sum to zero: all three terms
    # are Cartan vectors.
    az = neg[ss]
    jz = (nn[bs, cs, None] * w[az]
          + nn[cs, az, None] * w[bs]
          + nn[az, bs, None] * w[cs])
    bad = np.flatnonzero(np.any(jz != 0, axis=1))
    note("eee0", np.column_stack([az[bad], bs[bad], cs[bad]]))

    # Remaining root-only triples (x, y, z) with x+y+z a root.  Every term
    # is a multiple of e_{x+y+z}; an inner bracket that lands on Cartan
    # feeds through wact.  A term can be non-zero only if its inner pair is
    # linked, so the triples are enumerated from the linked pairs (y, z):
    # the summing pairs, whose x run over the roots with x + (y+z) a root,
    # and the band z = -y, whose x run over all roots.  members[start[s]:
    # start[s+1]] lists those x, with s = nr standing for the band.  Each
    # linked pair is placed at (1,2), (2,0) and (0,1) of the triple, and a
    # placement is kept only if no earlier position holds a linked pair, so
    # every triple is evaluated once.
    wact = w @ act  # wact[b, a] = value of alpha_a on [e_b, e_{-b}]
    nn_ext = np.concatenate([nn, np.zeros((nr, 1), dtype=np.int64)], axis=1)  # [:, -1] = 0
    link_y = np.concatenate([bs, np.arange(nr)])
    link_z = np.concatenate([cs, neg])
    link_s = np.concatenate([ss, np.full(nr, nr)])
    members = np.concatenate([cs, np.arange(nr)])
    start = np.append(np.searchsorted(bs, np.arange(nr + 1)), len(bs) + nr)
    cum = np.concatenate([[0], np.cumsum(start[link_s + 1] - start[link_s])])

    def linked(u, v):
        return (si[u, v] >= 0) | (v == neg[u])

    def term(x, y, z):
        """Coefficient of [e_x, [e_y, e_z]] on e_{x+y+z}."""
        return nn[y, z] * nn_ext[x, si[y, z]] - (z == neg[y]) * wact[y, x]

    evaluated = 0
    total = int(cum[-1])
    for first in range(0, total, JACOBI_BLOCK):
        tid = np.arange(first, min(first + JACOBI_BLOCK, total))
        p = np.searchsorted(cum, tid, side="right") - 1
        x = members[start[link_s[p]] + tid - cum[p]]
        y, z = link_y[p], link_z[p]
        second = ~linked(x, y)
        third = second & ~linked(z, x)
        a = np.concatenate([x, z[second], y[third]])
        b = np.concatenate([y, x[second], z[third]])
        c = np.concatenate([z, y[second], x[third]])
        evaluated += len(a)
        bad = np.flatnonzero(term(a, b, c) + term(b, c, a) + term(c, a, b))
        note("eee", np.column_stack([a[bad], b[bad], c[bad]]))
    count(nr ** 3, len(bs) + evaluated)  # with the zero-sum triples
    return report


def chevalley_audit(t: BracketTable) -> VerificationReport:
    """Check |N_{alpha,beta}| = q+1 for every pair and co-roots for every root.

    Every pair whose roots sum to a root must be stored; a missing one is
    recorded with ``None`` as the value found.  A constant stored on a
    pair that does not sum to a root is recorded with ``None`` as the
    value expected.  Violations come in this order: stored pairs (in
    table order), missing pairs, co-roots.
    """
    report = VerificationReport(suite="chevalley")
    rs = t.rs
    summing = rs.sum_index >= 0
    keys = np.array(list(t.n), dtype=np.intp).reshape(-1, 2)
    a, b = keys[:, 0], keys[:, 1]
    values = list(t.n.values())
    report.checked = len(values) + int(np.count_nonzero(summing)) + len(rs.roots)
    expected = rs.backward_lengths(a, b) + 1
    bad = ~summing[a, b] | (np.abs(np.array(values, dtype=np.int64)) != expected)
    for k in np.flatnonzero(bad).tolist():
        q1 = int(expected[k]) if summing[a[k], b[k]] else None
        report.record((rs.roots[a[k]], rs.roots[b[k]]), q1, values[k])
    present = np.zeros_like(summing)
    present[a, b] = True
    ma, mb = np.nonzero(summing & ~present)
    for x, y, q1 in zip(ma.tolist(), mb.tolist(), (rs.backward_lengths(ma, mb) + 1).tolist()):
        report.record((rs.roots[x], rs.roots[y]), q1, None)
    for k, alpha in enumerate(rs.roots):
        if t.opposite[k] != rs.coroot(alpha):
            report.record(alpha, rs.coroot(alpha), t.opposite[k])
    return report


def differential(t1: BracketTable, t2: BracketTable) -> VerificationReport:
    """Compare two tables of the same root system, index to index.

    Every constant, every [e_alpha, e_{-alpha}] and every Cartan action
    must agree exactly.  Raises IncompatibleTables unless both tables
    have the same Cartan matrix, which fixes the root order.
    """
    rs1, rs2 = t1.rs, t2.rs
    if rs1.cartan.entries != rs2.cartan.entries:
        raise IncompatibleTables(f"cannot compare a {rs1.cartan.label} table with a {rs2.cartan.label} table")
    report = VerificationReport(suite="differential")
    for (a, b), value in t1.n.items():
        got = t2.n.get((a, b))
        report.checked += 1
        if got != value:
            report.record((rs1.roots[a], rs1.roots[b]), value, got)
    for a, b in t2.n.keys() - t1.n.keys():
        report.checked += 1
        report.record((rs2.roots[a], rs2.roots[b]), None, t2.n[(a, b)])
    for k, alpha in enumerate(rs1.roots):
        expected, got = t1.opposite_bracket(k), t2.opposite_bracket(k)
        report.checked += 1
        if got != expected:
            report.record(alpha, expected, got)
    for i, (row1, row2) in enumerate(zip(t1.cartan_action, t2.cartan_action)):
        for k, (expected, got) in enumerate(zip(row1, row2)):
            report.checked += 1
            if got != expected:
                report.record(("action", i + 1, rs2.roots[k]), expected, got)
    return report


class MatrixModel:
    """Trace-zero matrices realising type A_{n-1} concretely.

    The root delta_i - delta_j is the matrix unit E_ij up to the model
    sign -(-1)^{ht} eps(i), with eps continued to index n by alternation.
    All brackets are literal integer matrix commutators.
    """

    def __init__(self, n: int, eps: SignFunction):
        if n < 2:
            raise ValueError("need n >= 2")
        if len(eps.values) != n - 1:
            raise ValueError("eps must be a sign function of A_{n-1}")
        self.n = n
        self.eps_ext = eps.values + (-eps.values[-1],)

    def root_pair(self, alpha: Root) -> tuple[int, int]:
        """(i, j) with alpha = delta_i - delta_j, for a root of A_{n-1}."""
        support = [k for k, c in enumerate(alpha, start=1) if c != 0]
        if not support or any(abs(alpha[k - 1]) != 1 for k in support):
            raise ValueError(f"{alpha} is not a type A root")
        lo, hi = support[0], support[-1]
        if root_sign(alpha) > 0:
            return lo, hi + 1
        return hi + 1, lo

    def root_matrix(self, alpha: Root) -> np.ndarray:
        i, j = self.root_pair(alpha)
        m = np.zeros((self.n, self.n), dtype=np.int64)
        ht = j - i  # equals ht(alpha), negative for negative roots
        m[i - 1, j - 1] = -(-1) ** (ht % 2) * self.eps_ext[i - 1]
        return m

    def cartan_matrix(self, k: int) -> np.ndarray:
        m = np.zeros((self.n, self.n), dtype=np.int64)
        m[k - 1, k - 1] = 1
        m[k, k] = -1
        return m


def sl_n_oracle(table: BracketTable) -> VerificationReport:
    """Match an A_{n-1} table against matrix commutators, 2 <= n <= 8.

    Every bracket of the model basis is computed as an integer matrix
    commutator and expanded; constants, Cartan actions and co-root
    expansions must all agree with the table exactly.
    """
    rs = table.rs
    if rs.cartan.type_label != "A" or not 1 <= rs.rank <= 7:
        raise IllegalType(f"the matrix oracle needs a table of type A1..A7, not {rs.cartan.label}")
    n = rs.rank + 1
    model = MatrixModel(n, table.eps)
    mats = [model.root_matrix(alpha) for alpha in rs.roots]
    cartans = [model.cartan_matrix(k) for k in range(1, n)]
    report = VerificationReport(suite="sl_n")

    for a, alpha in enumerate(rs.roots):
        sums = rs.sum_index[a].tolist()
        for b, beta in enumerate(rs.roots):
            comm = mats[a] @ mats[b] - mats[b] @ mats[a]
            if b == rs.neg_index(a):
                coeffs = table.opposite_bracket(a)
                expected = sum(c * h for c, h in zip(coeffs, cartans))
            elif sums[b] >= 0:
                expected = table.n.get((a, b), 0) * mats[sums[b]]
            else:
                expected = np.zeros((n, n), dtype=np.int64)
            report.checked += 1
            if not np.array_equal(comm, expected):
                report.record((alpha, beta), expected.tolist(), comm.tolist())

    for i in range(1, n):
        for b, beta in enumerate(rs.roots):
            comm = cartans[i - 1] @ mats[b] - mats[b] @ cartans[i - 1]
            expected = table.cartan_action[i - 1][b] * mats[b]
            report.checked += 1
            if not np.array_equal(comm, expected):
                report.record((i, beta), expected.tolist(), comm.tolist())
    return report
