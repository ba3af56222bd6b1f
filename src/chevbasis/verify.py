"""Independent correctness oracles for bracket tables.

Everything here treats a table as opaque data and re-derives what it
claims from scratch: the Jacobi identity over the full adjoint basis,
the |N| = q+1 bound with string lengths walked in the root system, a
differential comparison between two independently built tables, and the
trace-zero matrix model of type A where brackets are literal integer
matrix commutators.  All arithmetic is exact; numpy is used only as an
integer array engine.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .bracket import BracketTable, build_inductive
from .cartan import SignFunction, build_cartan, default_epsilon
from .errors import IncompatibleTables
from .report import VerificationReport
from .roots import Root, add, generate_roots, root_sign


def _table_arrays(t: BracketTable):
    """Dense integer views of a table: constants, sums, actions, Cartan vectors."""
    rs = t.rs
    nr = len(rs.roots)
    nn = np.zeros((nr, nr), dtype=np.int64)
    for (a, b), value in t.n.items():
        nn[a, b] = value
    valid = rs.sum_index >= 0
    total = np.where(valid, rs.sum_index, nr)  # nr = sentinel "no root"
    neg = np.array([rs.neg_index(k) for k in range(nr)], dtype=np.intp)
    act = np.array(t.cartan_action, dtype=np.int64)
    w = np.array([t.opposite_bracket(k) for k in range(nr)], dtype=np.int64)
    return nn, total, valid, neg, act, w


def jacobi_sweep(t: BracketTable, max_recorded: int = 100) -> VerificationReport:
    """Evaluate [x,[y,z]] + [y,[z,x]] + [z,[x,y]] on every ordered basis triple.

    Basis order: h_1..h_rank then the roots in root-system order.  The
    triples are processed in vectorised batches grouped by how many
    Cartan elements they contain; each batch literally computes the three
    terms from the table's data and records every non-zero sum.
    """
    report = VerificationReport(suite="jacobi", max_recorded=max_recorded)
    rs = t.rs
    r = rs.rank
    nr = len(rs.roots)
    nn, total, valid, neg, act, w = _table_arrays(t)
    nn_ext = np.concatenate([nn, np.zeros((nr, 1), dtype=np.int64)], axis=1)
    arange = np.arange(nr)

    def note(kind, sites):
        for s in sites:
            report.record((kind, *map(int, s)), 0, "nonzero")

    # All-Cartan triples: every bracket is zero.
    report.checked += r ** 3

    # Two Cartan elements: the two surviving terms are products of scalar
    # actions in opposite order; the same grid covers all three layouts.
    prod = act[None, :, :] * act[:, None, :]
    j2 = prod - prod.swapaxes(0, 1)
    for kind in ("hhe", "heh", "ehh"):
        report.checked += r * r * nr
        if np.any(j2):
            note(kind, np.argwhere(j2)[:max_recorded])

    # One Cartan element.  Off the b = -a band the identity reduces to
    # additivity of the action along root sums; on the band the two
    # surviving terms are Cartan vectors read from the table.
    total_safe = np.where(valid, total, 0)
    act_sum = act[:, total_safe]          # (r, nr, nr): alpha_{b+c}(h_i)
    band_x = (act[:, neg][:, :, None] * w[None, :, :]
              - act[:, :, None] * w[neg][None, :, :])

    hee = nn[None, :, :] * (act_sum - act[:, None, :] - act[:, :, None])
    hee[:, arange, neg] = 0
    report.checked += r * nr * nr
    if np.any(hee):
        note("hee", np.argwhere(hee)[:max_recorded])
    if np.any(band_x):
        note("hee-band", np.argwhere(band_x)[:max_recorded])

    ehe = nn[None, :, :] * (act[:, :, None] + act[:, None, :] - act_sum)
    ehe[:, arange, neg] = 0
    report.checked += r * nr * nr
    if np.any(ehe):
        note("ehe", np.argwhere(ehe)[:max_recorded])
    if np.any(band_x):
        note("ehe-band", np.argwhere(band_x)[:max_recorded])

    eeh = nn[None, :, :] * (act_sum - act[:, :, None] - act[:, None, :])
    eeh[:, arange, neg] = 0
    report.checked += r * nr * nr
    if np.any(eeh):
        note("eeh", np.argwhere(eeh)[:max_recorded])
    if np.any(band_x):
        note("eeh-band", np.argwhere(band_x)[:max_recorded])

    # Root-only triples whose coefficients sum to zero: all three terms
    # are Cartan vectors.
    bs, cs = np.nonzero(valid)
    az = neg[total[bs, cs]]
    jz = (nn[bs, cs, None] * w[az]
          + nn[cs, az, None] * w[bs]
          + nn[az, bs, None] * w[cs])
    report.checked += len(bs)
    if np.any(jz):
        bad = np.nonzero(np.any(jz != 0, axis=1))[0]
        note("eee0", [(az[i], bs[i], cs[i]) for i in bad[:max_recorded]])

    # Remaining root-only triples, chunked over the first index a.  Every
    # non-zero term is a multiple of e_{a+b+c}; inner brackets that land
    # on e_{-x} feed through the Cartan vectors via wact.
    wact = w @ act  # wact[b, a] = value of alpha_a on [e_b, e_{-b}]
    report.checked += nr ** 3 - len(bs)
    for a in range(nr):
        f1 = nn * nn_ext[a][total]
        f1[arange, neg] = -wact[:, a]
        s2 = total[:, a]
        f2 = nn[:, s2 % nr] * (nn[:, a] * (s2 < nr))[None, :]
        f2[:, neg[a]] = -wact[neg[a], :]
        s3 = total[a, :]
        f3 = (nn[a, :] * (s3 < nr))[:, None] * nn[:, s3 % nr].T
        f3[neg[a], :] = -wact[a, :]
        j = f1 + f2 + f3
        j[total == neg[a]] = 0  # zero-sum triples were checked above
        if np.any(j):
            note("eee", [(a, b, c) for b, c in np.argwhere(j)[:max_recorded]])
    return report


def chevalley_audit(t: BracketTable) -> VerificationReport:
    """Check |N_{alpha,beta}| = q+1 for every pair and co-roots for every root."""
    report = VerificationReport(suite="chevalley")
    rs = t.rs
    for (a, b), value in t.n.items():
        _, q = rs.string_lengths_at(a, b)
        report.checked += 1
        if abs(value) != q + 1:
            report.record((rs.roots[a], rs.roots[b]), q + 1, value)
    for k, alpha in enumerate(rs.roots):
        report.checked += 1
        if t.opposite[k] != rs.coroot(alpha):
            report.record(alpha, rs.coroot(alpha), t.opposite[k])
    return report


def differential(
    t1: BracketTable,
    t2: BracketTable,
    root_map: Callable[[Root], Root] | None = None,
    sign: Callable[[Root], int] | None = None,
) -> VerificationReport:
    """Compare two tables claimed to present the same algebra.

    ``root_map`` carries t1 root coordinates to t2 root coordinates (the
    identity by default) and ``sign`` gives the per-root basis rescaling
    e_alpha -> sign(alpha) e_{map(alpha)}, so constants must satisfy
    N2(ma, mb) = N1(a, b) sign(a) sign(b) sign(a+b).  Cartan coordinates
    are matched index to index.
    """
    rmap = root_map or (lambda alpha: alpha)
    smap = sign or (lambda alpha: 1)
    rs1, rs2 = t1.rs, t2.rs
    if len(rs1.roots) != len(rs2.roots) or rs1.rank != rs2.rank:
        raise IncompatibleTables("tables have different dimensions")
    mapped: dict[int, int] = {}
    for k, alpha in enumerate(rs1.roots):
        image = rmap(alpha)
        if not rs2.contains(image):
            raise IncompatibleTables(f"{alpha} maps outside the target root system")
        mapped[k] = rs2.index_of(image)
    if len(set(mapped.values())) != len(mapped):
        raise IncompatibleTables("root map is not injective")
    for k in range(len(rs1.roots)):
        if mapped[rs1.neg_index(k)] != rs2.neg_index(mapped[k]):
            raise IncompatibleTables("root map does not commute with negation")

    report = VerificationReport(suite="differential")
    for (a, b), value in t1.n.items():
        alpha, beta = rs1.roots[a], rs1.roots[b]
        factor = smap(alpha) * smap(beta) * smap(add(alpha, beta))
        got = t2.n.get((mapped[a], mapped[b]))
        report.checked += 1
        if got != value * factor:
            report.record((alpha, beta), value * factor, got)
    image_pairs = {(mapped[a], mapped[b]) for a, b in t1.n}
    for (a2, b2) in t2.n.keys() - image_pairs:
        report.checked += 1
        report.record((rs2.roots[a2], rs2.roots[b2]), None, t2.n[(a2, b2)])
    inv = {v: k for k, v in mapped.items()}
    for k2 in range(len(rs2.roots)):
        k1 = inv[k2]
        factor = smap(rs1.roots[k1]) * smap(rs1.roots[rs1.neg_index(k1)])
        expected = tuple(factor * x for x in t1.opposite_bracket(k1))
        report.checked += 1
        if t2.opposite_bracket(k2) != expected:
            report.record(rs1.roots[k1], expected, t2.opposite_bracket(k2))
    for i in range(rs1.rank):
        for k2 in range(len(rs2.roots)):
            report.checked += 1
            if t2.cartan_action[i][k2] != t1.cartan_action[i][inv[k2]]:
                report.record(("action", i + 1, rs2.roots[k2]),
                              t1.cartan_action[i][inv[k2]],
                              t2.cartan_action[i][k2])
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


def sl_n_oracle(
    n: int,
    eps: SignFunction | None = None,
    table: BracketTable | None = None,
) -> VerificationReport:
    """Match an A_{n-1} table against matrix commutators, 2 <= n <= 8.

    Every bracket of the model basis is computed as an integer matrix
    commutator and expanded; constants, Cartan actions and co-root
    expansions must all agree with the table exactly.  By default the
    inductive table is built in place; passing ``table`` audits that
    table instead.
    """
    if not 2 <= n <= 8:
        raise ValueError("the matrix oracle is wired for 2 <= n <= 8")
    cm = build_cartan("A", n - 1)
    if table is None:
        table = build_inductive(generate_roots(cm), eps or default_epsilon(cm))
    elif table.rs.cartan.label != cm.label:
        raise IncompatibleTables(f"oracle for {cm.label} got a {table.rs.cartan.label} table")
    rs, eps = table.rs, table.eps
    model = MatrixModel(n, eps)
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
