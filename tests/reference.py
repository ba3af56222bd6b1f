"""Scalar references on coefficient tuples, which the array code of the package is tested against.

Each function states one property per root or per pair, the way the
paper does: the closed sign formula (``closedform.pair_signs`` evaluates
it on index arrays, and :func:`product_pair_signs` is its earlier dense
form), the folded backward string length by orbit pair count and by
orbit case analysis, the folded co-roots as orbit sums of parent
co-roots (``folding.folded_table`` reads the folded string length and
co-roots of the folded root system instead), root strings
(``RootSystem.backward_lengths``), root signs and names
(``serialize.root_names``), the induced root permutation and the
restriction (``folding.fold``), the split, negation, flip and invariance
statements about whole tables, the Jacobi sweep over the ordered triples
with a given root first (what ``verify.jacobi_sweep`` evaluated before it
used alternation), the trace-zero matrix model of type A
(``verify._sl_n_matrices``), and the list writer that ``serialize``
renders from arrays (a document of nested Python lists, encoded by
``json.dumps`` and one CSV line per row).  Roots are looked up in
:func:`conftest.tuple_index`, a dict built from ``rs.roots``, and never
through the key lookups or ``sum_index`` that are under test.
"""

from __future__ import annotations

import json
from typing import Any

import numpy as np

from chevbasis import verify
from chevbasis.bracket import BracketTable
from chevbasis.cartan import CartanMatrix, DiagramAutomorphism, SignFunction
from chevbasis.errors import DegeneratePair, NotARoot, NotSimplyLaced
from chevbasis.folding import FoldedSystem
from chevbasis.report import VerificationReport
from chevbasis.roots import Root, RootSystem
from conftest import tuple_index

# -- tuple arithmetic and membership ---------------------------------------


def root_height(alpha: Root) -> int:
    return sum(alpha)


def negate(alpha: Root) -> Root:
    return tuple(-x for x in alpha)


def add(alpha: Root, beta: Root) -> Root:
    return tuple(x + y for x, y in zip(alpha, beta))


def sub(alpha: Root, beta: Root) -> Root:
    return tuple(x - y for x, y in zip(alpha, beta))


def root_sign(alpha: Root) -> int:
    """+1 for positive roots, -1 for negative ones.

    Valid because every root has all coefficients of one sign.
    """
    for x in alpha:
        if x != 0:
            return 1 if x > 0 else -1
    raise NotARoot("zero vector has no sign")


def render_root(coeffs: Root) -> str:
    """Compact coefficient string, e.g. (1,1,1,0) -> "1110", negatives prefixed."""
    body = "".join(str(abs(c)) for c in coeffs)
    return "-" + body if root_sign(coeffs) < 0 else body


def contains(rs: RootSystem, alpha: Root) -> bool:
    return tuple(alpha) in tuple_index(rs)


def simple_root(rs: RootSystem, i: int) -> Root:
    """The i-th simple root (1-based node id) as a unit vector."""
    return tuple(1 if j == i else 0 for j in rs.cartan.nodes)


def string_lengths(rs: RootSystem, alpha: Root, beta: Root) -> tuple[int, int]:
    """(p, q) with p = max{i >= 0 : beta + i alpha root}, q backwards, walked on tuples."""
    if not contains(rs, alpha) or not contains(rs, beta):
        raise NotARoot("both arguments must be roots")
    if beta in (alpha, negate(alpha)):
        raise DegeneratePair("string through beta = +/- alpha is undefined")

    def length(step: int) -> int:
        k = 0
        while contains(rs, tuple(b + (k + 1) * step * a for a, b in zip(alpha, beta))):
            k += 1
        return k

    return length(1), length(-1)


# -- the closed sign formula -----------------------------------------------


def _require_summing_pair(rs: RootSystem, alpha: Root, beta: Root) -> None:
    if not rs.cartan.simply_laced:
        raise NotSimplyLaced("the closed sign formula needs a symmetric Cartan matrix")
    if not contains(rs, alpha) or not contains(rs, beta):
        raise NotARoot("both arguments must be roots")
    if not contains(rs, add(alpha, beta)):
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
    b = tuple_index(rs)[beta]
    parity = 0
    for i in rs.cartan.nodes:
        if eps.value(i) == -1:
            parity += alpha[i - 1] * int(rs.cartan_action[i - 1, b])
    sgn = root_sign(alpha) * root_sign(beta) * root_sign(add(alpha, beta))
    return -sgn if parity % 2 else sgn


def closed_constant(rs: RootSystem, eps: SignFunction, alpha: Root, beta: Root) -> int:
    """N_{alpha,beta} = sign * (q+1); q is always 0 here, so the value is +-1."""
    sign = constant_sign(rs, eps, alpha, beta)
    _, q = string_lengths(rs, alpha, beta)
    return sign * (q + 1)


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
        al = simple_root(rs, l)
        neg_al = negate(al)
        for alpha in rs.roots:
            lifted = add(al, alpha)
            if not contains(rs, lifted):
                continue
            for beta in rs.roots:
                if beta in (alpha, negate(alpha), al, neg_al):
                    continue
                if not contains(rs, add(lifted, beta)):
                    continue
                first = contains(rs, add(alpha, beta))
                second = contains(rs, add(al, beta))
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


# -- folding ---------------------------------------------------------------


def identity_automorphism(cm: CartanMatrix) -> DiagramAutomorphism:
    return DiagramAutomorphism(tuple((i,) for i in cm.nodes))


def permute_root(auto: DiagramAutomorphism, alpha: Root) -> Root:
    """The induced permutation of roots: coefficient of node i moves to i'."""
    out = [0] * len(alpha)
    for i, coeff in enumerate(alpha, start=1):
        out[auto.apply(i) - 1] = coeff
    return tuple(out)


def restrict_root(fs: FoldedSystem, alpha: Root) -> Root:
    """Coordinates of the restriction of a parent root over the folded nodes."""
    return fs.folded_rs.roots[fs.restriction[tuple_index(fs.parent)[alpha]]]


def root_orbits(fs: FoldedSystem) -> list[tuple[int, ...]]:
    """The parent root orbits: the rows of ``fs.orbits`` without padding, sorted by their smallest index."""
    return sorted(tuple(k for k in row if k >= 0) for row in fs.orbits.tolist())


def root_orbit(auto: DiagramAutomorphism, alpha: Root) -> list[Root]:
    """The orbit of a root under the induced coefficient permutation."""
    orbit = [alpha]
    beta = permute_root(auto, alpha)
    while beta != alpha:
        orbit.append(beta)
        beta = permute_root(auto, beta)
    return orbit


def summing_orbit_pairs(fs: FoldedSystem, alpha: Root, beta: Root) -> list[tuple[Root, Root]]:
    """All pairs (a0, b0) from the orbits of alpha, beta with a0 + b0 a root."""
    rs = fs.parent
    return [
        (a0, b0)
        for a0 in root_orbit(fs.auto, alpha)
        for b0 in root_orbit(fs.auto, beta)
        if contains(rs, add(a0, b0))
    ]


def q_tilde_by_count(fs: FoldedSystem, alpha: Root, beta: Root) -> int:
    """Folded backward string length as (orbit pairs summing to alpha+beta) - 1."""
    total = add(alpha, beta)
    if not contains(fs.parent, total):
        raise NotARoot("pair must sum to a parent root")
    pairs = summing_orbit_pairs(fs, alpha, beta)
    return sum(1 for a0, b0 in pairs if add(a0, b0) == total) - 1


def q_tilde_by_case(fs: FoldedSystem, alpha: Root, beta: Root) -> int:
    """Folded backward string length by orbit case analysis.

    For a pair with alpha + beta a parent root: 0 when either root is
    fixed; d-1 when both move and alpha+beta = alpha'+beta'; otherwise 0
    for order 2 and 1 for order 3 (the triality case, where all three
    orbits involved have size three).
    """
    if not contains(fs.parent, add(alpha, beta)):
        raise NotARoot("pair must sum to a parent root")
    a1 = permute_root(fs.auto, alpha)
    b1 = permute_root(fs.auto, beta)
    if a1 == alpha or b1 == beta:
        return 0
    if add(a1, b1) == add(alpha, beta):
        return fs.auto.order - 1
    return 0 if fs.auto.order == 2 else 1


def check_automorphism_invariance(rs: RootSystem, auto: DiagramAutomorphism, table: BracketTable) -> VerificationReport:
    """Verify N_{alpha',beta'} = N_{alpha,beta} for the induced permutation."""
    report = VerificationReport(suite="automorphism-invariance", checked=len(table.n))
    perm = np.array([tuple_index(rs)[permute_root(auto, alpha)] for alpha in rs.roots], dtype=np.intp)
    a, b = table.pairs.T
    at = table.find(perm[a], perm[b])
    for k in np.flatnonzero((at < 0) | (table.n[at] != table.n)).tolist():
        got = int(table.n[at[k]]) if at[k] >= 0 else None
        report.record((rs.roots[a[k]], rs.roots[b[k]]), int(table.n[k]), got)
    return report


def check_orbit_sign_constancy(rs: RootSystem, eps: SignFunction, auto: DiagramAutomorphism) -> VerificationReport:
    """Verify the closed-form sign is constant on every set of orbit pairs.

    For each (alpha, beta) with a root sum, every pair in the orbit-pair
    set must carry the same sign as (alpha, beta) itself; this is what
    makes the folded orbit-sum brackets cancellation-free.
    """
    report = VerificationReport(suite="orbit-sign-constancy")
    for alpha in rs.roots:
        orbit_a = root_orbit(auto, alpha)
        for beta in rs.roots:
            if not contains(rs, add(alpha, beta)):
                continue
            base = constant_sign(rs, eps, alpha, beta)
            for a0 in orbit_a:
                for b0 in root_orbit(auto, beta):
                    if not contains(rs, add(a0, b0)):
                        continue
                    report.checked += 1
                    got = constant_sign(rs, eps, a0, b0)
                    if got != base:
                        report.record((alpha, beta, a0, b0), base, got)
    return report


def check_coroot_orbit_sums(fs: FoldedSystem) -> VerificationReport:
    """Verify the folded co-roots are the orbit sums of parent co-roots.

    The parent co-roots of each root orbit, grouped by ``fs.restriction``,
    add up to a vector that must be constant across every node orbit; its
    entries at the first node of each orbit must be the folded root's own
    co-root.
    """
    rs, rs_f = fs.parent, fs.folded_rs
    report = VerificationReport(suite="coroot-orbit-sums", checked=len(rs_f.roots))
    totals = [(0,) * rs.rank for _ in rs_f.roots]
    for x, h in zip(fs.restriction.tolist(), rs.coroots.tolist()):
        totals[x] = add(totals[x], h)
    for x, total in enumerate(totals):
        for orbit in fs.auto.orbits:
            if len({total[i - 1] for i in orbit}) != 1:
                report.record((rs_f.roots[x], orbit), "constant", tuple(total[i - 1] for i in orbit))
        expected = tuple(rs_f.coroots[x].tolist())
        got = tuple(total[i - 1] for i in fs.auto.reps)
        if got != expected:
            report.record(rs_f.roots[x], expected, got)
    return report


# -- tables ----------------------------------------------------------------


def flip_epsilon_table(t: BracketTable) -> BracketTable:
    """The table for -epsilon: every e_alpha negates, so every N negates.

    The Cartan part is unchanged since both factors of [e_alpha, e_{-alpha}]
    pick up the same sign.
    """
    return BracketTable(
        rs=t.rs,
        eps=t.eps.flipped(),
        pairs=t.pairs,
        n=-t.n,
        cartan_action=t.cartan_action,
        opposite=t.opposite,
    )


def check_negation_symmetry(t: BracketTable) -> VerificationReport:
    """Verify N_{-alpha,-beta} = -N_{alpha,beta} for every stored pair.

    This is the compatibility of the basis with the involution swapping
    e_i and f_i; the report must come back empty for a canonical table.
    """
    report = VerificationReport(suite="negation-symmetry", checked=len(t.n))
    rs = t.rs
    a, b = t.pairs.T
    at = t.find(rs.neg[a], rs.neg[b])
    for k in np.flatnonzero((at < 0) | (t.n[at] != -t.n)).tolist():
        got = int(t.n[at[k]]) if at[k] >= 0 else None
        report.record((rs.roots[a[k]], rs.roots[b[k]]), -int(t.n[k]), got)
    return report


# -- Jacobi on the ordered triples with a given root first --------------------


def root_first_sweep(t: BracketTable, first: np.ndarray, max_recorded: int = 100) -> VerificationReport:
    """Jacobi on the len(first) * dim**2 ordered triples whose first element is e_x for a root x in ``first``.

    The ordered sweep that ``jacobi_sweep`` ran on the positive simple
    roots before it used alternation, kept as the reference on tables that
    are not antisymmetric, where J(x, z, y) = -J(x, y, z) fails.  Sites,
    kinds and grading as in ``verify._graded_sweep``, whose enumeration it
    restricts: the one-Cartan layouts (b, h, c) and (b, c, h) on the b in
    ``first``, the zero-sum triples with -(b+c) in ``first``, and each root
    triple from its linked pair placed at (1,2), (2,0) or (0,1), kept only
    if no earlier position holds a linked pair and its first root is in
    ``first``.  A linked pair with neither root in ``first`` keeps only the
    first placement, so it meets only the members in ``first``, listed
    after all members.
    """
    report = VerificationReport(suite="jacobi", max_recorded=max_recorded)
    rs = t.rs
    r, nr, neg = rs.rank, len(rs.neg), rs.neg
    arrays = verify._table_arrays(t)
    nn, stray, act, w = arrays
    mine = np.bincount(first, minlength=nr) > 0
    rows = np.flatnonzero(mine)
    report.checked = len(rows) * t.dimension ** 2

    def note(kind, sites):
        room = max(0, max_recorded - len(report.violations))
        for s in sites[:room]:
            report.record((kind, *map(int, s)), 0, "nonzero")
        report.violation_count += max(0, len(sites) - room)

    note("grading", stray)
    bs, cs = rs.pairs.T
    own = np.flatnonzero(mine[bs])
    pair_sites, band_sites = verify._one_cartan_sites(t, arrays, bs[own], cs[own], rows)
    for kind in ("ehe", "eeh"):
        note(kind, pair_sites)
        note(kind + "-band", band_sites)
    evaluated = 2 * r * (len(own) + len(rows))
    zero = np.flatnonzero(mine[neg[rs.sum_index[bs, cs]]])
    note("eee0", verify._zero_sum_sites(t, arrays, zero))
    evaluated += len(zero)

    link_y, link_z = rs.linked.T
    group = np.concatenate([rs.sum_index[bs, cs], np.full(nr, nr)])
    members, start = verify._members(bs, cs, np.ones(nr, dtype=bool))
    few, few_start = verify._members(bs, cs, mine)
    group = np.where(mine[link_y] | mine[link_z], group, group + len(start))
    start = np.concatenate([start, few_start + len(members)])
    members = np.concatenate([members, few])
    linked, term = verify._root_terms(t, nn, act, w)
    kept = [np.empty((0, 3), dtype=np.intp)] * 3
    for seg, at in verify._blocks(start, group):
        x = members[at]
        y, z = link_y[seg], link_z[seg]
        one = mine[x]
        second = ~linked(x, y)
        third = second & ~linked(z, x) & mine[y]
        second &= mine[z]
        a = np.concatenate([x[one], z[second], y[third]])
        b = np.concatenate([y[one], x[second], z[third]])
        c = np.concatenate([z[one], y[second], x[third]])
        evaluated += len(a)
        bad = np.flatnonzero(term(a, b, c) + term(b, c, a) + term(c, a, b))
        if len(bad):
            ones = np.count_nonzero(one)
            cuts = np.searchsorted(bad, [ones, ones + np.count_nonzero(second)])
            for k, part in enumerate(np.split(np.column_stack([a[bad], b[bad], c[bad]]), cuts)):
                sites = np.concatenate([kept[k], part])
                kept[k] = sites[:max_recorded]
                report.violation_count += len(sites) - len(kept[k])
    note("eee", np.concatenate(kept))
    report.zero_by_grading = report.checked - evaluated
    return report


# -- the closed sign formula as one dense product ----------------------------


def product_pair_signs(rs: RootSystem, eps: SignFunction, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``closedform.pair_signs`` by the uint8 product of the 0/1 exponent matrices.

    The product is taken at the rows of ``a`` only, all nr of them when
    ``a`` holds every root.  uint8 sums wrap mod 256, which keeps the
    parity; the signs of a and b are read off the index, negative roots
    coming after positive_count, and that of a + b off its int64 height.
    """
    odd = np.array(eps.values) == -1
    left = ((rs.coeffs[:, odd] @ np.array(rs.cartan.entries)[odd]) % 2).astype(np.uint8)
    right = (rs.coeffs % 2).astype(np.uint8)
    rows, inverse = np.unique(a, return_inverse=True)
    parity = (left[rows] @ right.T)[inverse.reshape(-1), b] & 1
    height = rs.coeffs.sum(axis=1)
    pos = rs.positive_count
    bit = parity ^ (a >= pos) ^ (b >= pos) ^ (height[a] + height[b] < 0)
    return 1 - 2 * bit.astype(np.int64)


# -- the list writer ---------------------------------------------------------


def list_document(t: BracketTable, method: str, provenance: dict[str, Any] | None = None) -> dict[str, Any]:
    """The table document with every field as Python lists: constants (a, b, sum, N) for a < b, sorted."""
    rs = t.rs
    index = tuple_index(rs)
    constants = sorted([a, b, index[add(rs.roots[a], rs.roots[b])], n]
                       for (a, b), n in zip(map(tuple, t.pairs.tolist()), t.n.tolist()) if a < b)
    return {
        "schema_version": 1,
        "type": rs.cartan.label,
        "rank": rs.cartan.rank,
        "cartan_matrix": rs.cartan.to_json_rows(),
        "epsilon": list(t.eps.values),
        "positive_count": rs.positive_count,
        "roots": [list(r) for r in rs.roots],
        "constants": constants,
        "cartan_action": t.cartan_action.tolist(),
        "opposite": t.opposite.tolist(),
        "provenance": {"method": method, **(provenance or {})},
    }


def list_json_bytes(doc: dict[str, Any]) -> bytes:
    return (json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n").encode("ascii")


def list_csv(doc: dict[str, Any]) -> bytes:
    """One `alpha,beta,sum,N` line per constant; a root is its digits, after "-" when negative."""
    names = [("-" if min(r) < 0 else "") + "".join(str(abs(c)) for c in r) for r in doc["roots"]]
    lines = ["alpha,beta,sum,N"] + [f"{names[a]},{names[b]},{names[s]},{n}" for a, b, s, n in doc["constants"]]
    return ("\n".join(lines) + "\n").encode("ascii")


# -- the matrix model of type A --------------------------------------------


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
        """(i, j) with alpha = delta_i - delta_j, for a root of A_{n-1}.

        Such a root is +-(alpha_lo + ... + alpha_hi): its non-zero entries
        are all 1 or all -1, on a contiguous run of nodes.
        """
        support = [k for k, c in enumerate(alpha, start=1) if c != 0]
        signs = {alpha[k - 1] for k in support}
        if signs not in ({1}, {-1}) or support[-1] - support[0] + 1 != len(support):
            raise ValueError(f"{alpha} is not a type A root")
        lo, hi = support[0], support[-1]
        if signs == {1}:
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
