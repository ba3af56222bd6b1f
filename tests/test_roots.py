"""Root system generation, strings, pairings, Cartan actions and co-roots."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import chevbasis as cb
from chevbasis.cartan import MAX_ROOTS, root_count
from chevbasis.errors import DegeneratePair, InternalInconsistency, NotARoot
from chevbasis.roots import Root, _coroots, packed_parity
from chevbasis.serialize import parse_coeffs
from conftest import DESK_TYPES, SIMPLY_LACED_TYPES, coroot, found_string_lengths, system, tuple_index
from reference import add, contains, negate, root_height, root_sign, simple_root, string_lengths, sub

def pairing(rs, alpha, beta) -> int:
    """<alpha, beta> = beta(h_alpha), read from the co-root and Cartan action arrays."""
    index = tuple_index(rs)
    return int(rs.coroots[index[alpha]] @ rs.cartan_action[:, index[beta]])


POSITIVE_COUNTS = {
    "A": lambda n: n * (n + 1) // 2,
    "B": lambda n: n * n,
    "C": lambda n: n * n,
    "D": lambda n: n * (n - 1),
    "E": lambda n: {6: 36, 7: 63, 8: 120}[n],
    "F": lambda n: 24,
    "G": lambda n: 6,
}


def test_a2_by_hand():
    rs = system("A2")
    assert set(rs.roots[: rs.positive_count]) == {(1, 0), (0, 1), (1, 1)}
    assert len(rs.roots) == 6


def test_d4_has_12_positive_roots():
    assert system("D4").positive_count == 12


def test_g2_positive_roots():
    rs = system("G2")
    assert set(rs.roots[: rs.positive_count]) == {
        (1, 0), (0, 1), (1, 1), (1, 2), (1, 3), (2, 3)
    }


def test_cardinalities_all_types():
    for label in DESK_TYPES:
        family, rank = cb.parse_type_label(label)
        rs = system(label)
        assert rs.positive_count == POSITIVE_COUNTS[family](rank), label
        assert len(rs.roots) == 2 * rs.positive_count == root_count(family, rank)


def test_ordering_and_negation_layout():
    for label in ("A3", "B3", "G2", "E6"):
        rs = system(label)
        p = rs.positive_count
        heights = [root_height(r) for r in rs.roots[:p]]
        assert heights == sorted(heights)
        for k in range(p):
            assert rs.roots[k + p] == negate(rs.roots[k])
        assert rs.neg.tolist() == list(range(p, 2 * p)) + list(range(p))
        assert not rs.neg.flags.writeable
        for r in rs.roots[:p]:
            assert root_sign(r) == 1
            assert all(c >= 0 for c in r)


def test_determinism():
    cm = cb.build_cartan("F", 4)
    assert cb.generate_roots(cm).roots == cb.generate_roots(cm).roots


def test_string_lengths_examples():
    rs = system("A2")
    assert found_string_lengths(rs, (1, 0), (0, 1)) == (1, 0)
    g2 = system("G2")
    # alpha the short simple root (node 2), beta the long one: string of
    # length 3 upward.
    assert found_string_lengths(g2, (0, 1), (1, 0)) == (3, 0)
    with pytest.raises(DegeneratePair):
        found_string_lengths(rs, (1, 0), (1, 0))
    with pytest.raises(DegeneratePair):
        found_string_lengths(rs, (1, 0), (-1, 0))
    with pytest.raises(NotARoot):
        found_string_lengths(rs, (1, 0), (2, 2))


def test_simply_laced_strings_are_short():
    for label in ("A3", "D4", "E6"):
        rs = system(label)
        for alpha in rs.roots:
            for beta in rs.roots:
                if beta in (alpha, negate(alpha)):
                    continue
                p, q = found_string_lengths(rs, alpha, beta)
                assert 0 <= p + q <= 1


def test_string_convexity_and_bounds():
    # The full chain is present, nothing beyond it, and lengths <= 3.
    for label in ("B3", "C3", "G2", "F4"):
        rs = system(label)
        for alpha in rs.roots:
            for beta in rs.roots:
                if beta in (alpha, negate(alpha)):
                    continue
                p, q = found_string_lengths(rs, alpha, beta)
                assert p <= 3 and q <= 3
                for k in range(-q, p + 1):
                    member = tuple(b + k * a for a, b in zip(alpha, beta))
                    assert contains(rs, member)
                beyond_p = tuple(b + (p + 1) * a for a, b in zip(alpha, beta))
                beyond_q = tuple(b - (q + 1) * a for a, b in zip(alpha, beta))
                assert not contains(rs, beyond_p)
                assert not contains(rs, beyond_q)


def test_pairing_on_simple_roots_recovers_cartan():
    for label in ("A3", "B3", "G2", "F4"):
        rs = system(label)
        cm = rs.cartan
        for i in cm.nodes:
            for j in cm.nodes:
                if i == j:
                    continue
                assert pairing(rs, simple_root(rs, i), simple_root(rs, j)) == cm.a(i, j)


def test_pairing_self_is_two():
    for label in ("A2", "B2", "G2", "F4", "D4"):
        rs = system(label)
        for alpha in rs.roots:
            assert pairing(rs, alpha, alpha) == 2


def test_reflection_closure():
    # beta - <alpha,beta> alpha is always a root.
    for label in ("A3", "B3", "C3", "D4", "G2", "F4"):
        rs = system(label)
        for alpha in rs.roots:
            for beta in rs.roots:
                m = pairing(rs, alpha, beta)
                image = tuple(b - m * a for a, b in zip(alpha, beta))
                assert contains(rs, image), (label, alpha, beta)


def test_pairing_sign_controls_string():
    # m > 0 forces beta - alpha to be a root, m < 0 forces beta + alpha.
    for label in ("B3", "G2"):
        rs = system(label)
        for alpha in rs.roots:
            for beta in rs.roots:
                if beta in (alpha, negate(alpha)):
                    continue
                m = pairing(rs, alpha, beta)
                if m > 0:
                    assert contains(rs, sub(beta, alpha))
                elif m < 0:
                    assert contains(rs, add(beta, alpha))


def test_simply_laced_pairing_dictionary():
    for label in ("A3", "D4", "E6"):
        rs = system(label)
        for alpha in rs.roots:
            for beta in rs.roots:
                if beta in (alpha, negate(alpha)):
                    continue
                m = pairing(rs, alpha, beta)
                assert m in (-1, 0, 1)
                assert (m == 1) == contains(rs, sub(alpha, beta))
                assert (m == -1) == contains(rs, add(alpha, beta))
                assert m == pairing(rs, beta, alpha)


def test_coroot_simply_laced_is_identity():
    rs = system("D4")
    for alpha in rs.roots:
        assert coroot(rs, alpha) == alpha
    assert coroot(rs, (1, 1, 1, 0)) == (1, 1, 1, 0)


def test_coroot_simple_roots_are_units():
    for label in ("A3", "B3", "C3", "G2", "F4"):
        rs = system(label)
        for i in rs.cartan.nodes:
            assert coroot(rs, simple_root(rs, i)) == simple_root(rs, i)


def test_coroot_g2_highest_root():
    rs = system("G2")
    c = coroot(rs, (2, 3))
    assert c == (2, 1)
    assert sum(ci * int(rs.cartan_action[i - 1, tuple_index(rs)[(2, 3)]]) for ci, i in zip(c, rs.cartan.nodes)) == 2


def test_coroot_integral_everywhere():
    for label in ("B4", "C4", "F4", "G2"):
        rs = system(label)
        for alpha in rs.roots:
            c = coroot(rs, alpha)
            assert all(isinstance(x, int) for x in c)
            assert coroot(rs, negate(alpha)) == tuple(-x for x in c)


# The per-root formulas the arrays replaced, kept as their reference.
def _scalar_cartan_action(rs) -> list[list[int]]:
    return [[sum(a * m for a, m in zip(row, beta)) for beta in rs.roots] for row in rs.cartan.entries]


def _scalar_coroot(rs, alpha) -> tuple[int, ...]:
    """c_i = s_i n_i / s_alpha, with s_alpha the half square length; identity if simply laced."""
    if rs.cartan.simply_laced:
        return alpha
    s, a, r = rs.norms[rs.simple].tolist(), rs.cartan.entries, rs.rank
    sq = sum(s[i] * a[i][j] * alpha[i] * alpha[j] for i in range(r) for j in range(r))
    assert sq > 0 and sq % 2 == 0
    num = [s[i] * alpha[i] for i in range(r)]
    assert all(v % (sq // 2) == 0 for v in num)
    return tuple(v // (sq // 2) for v in num)


@pytest.mark.parametrize("label", DESK_TYPES + ("B12", "C12", "D16", "A24"))
def test_root_arrays_match_scalar_formulas(label):
    rs = system(label)
    assert rs.coeffs.tolist() == [list(alpha) for alpha in rs.roots]
    assert rs.cartan_action.tolist() == _scalar_cartan_action(rs)
    assert rs.coroots.tolist() == [list(_scalar_coroot(rs, alpha)) for alpha in rs.roots]
    assert np.all((rs.coroots * rs.cartan_action.T).sum(axis=1) == 2)
    for a in (rs.coeffs, rs.cartan_action, rs.coroots):
        assert a.dtype == np.int64 and not a.flags.writeable


def test_symmetrizer_values():
    # The norms of the simple roots are the minimal symmetrizer s_i.
    for label, s in (("G2", [3, 1]), ("B3", [1, 2, 2]), ("C3", [2, 1, 1]), ("F4", [2, 2, 1, 1])):
        rs = system(label)
        assert rs.norms[rs.simple].tolist() == s


@settings(deadline=None)
@given(st.sampled_from(("A3", "B3", "C3", "D4", "G2", "F4")), st.data())
def test_reflection_closure_property(label, data):
    rs = system(label)
    alpha = data.draw(st.sampled_from(rs.roots))
    beta = data.draw(st.sampled_from(rs.roots))
    m = pairing(rs, alpha, beta)
    assert contains(rs, tuple(b - m * a for a, b in zip(alpha, beta)))


# B14, C14 and C20 are past rank 13, where the lookup keys wrap, and have two
# root lengths; C20 is large enough that many row blocks are searched.
@pytest.mark.parametrize("label", DESK_TYPES + ("D16", "A24", "B14", "C14", "C20"))
def test_sum_index_matches_tuple_sums(label):
    rs = system(label)
    expected = [[tuple_index(rs).get(add(alpha, beta), -1) for beta in rs.roots] for alpha in rs.roots]
    assert rs.sum_index.dtype == np.int16
    assert rs.sum_index.tolist() == expected
    assert all(rs.sum_index[k, rs.neg[k]] == -1 for k in range(len(rs.roots)))
    assert not rs.sum_index.flags.writeable


def test_root_count_cap_keeps_sum_index_in_int16():
    # Every root index, and -1 for no sum, fits the int16 sum_index.
    assert MAX_ROOTS < np.iinfo(np.int16).max


@pytest.mark.parametrize("label", DESK_TYPES + ("D16", "A24", "B14", "C14"))
def test_sum_index_is_negation_symmetric(label):
    # -alpha + -beta = -(alpha + beta), with -1 (no sum) kept.
    rs = system(label)
    negmap = np.append(rs.neg, -1)
    assert np.array_equal(rs.sum_index[rs.neg][:, rs.neg], negmap[rs.sum_index])


def _confirmed_sums(label, monkeypatch) -> tuple[cb.RootSystem, list[int]]:
    """A freshly generated root system and the root index of every key hit its search confirmed."""
    cm = cb.build_cartan(*cb.parse_type_label(label))
    search, found = cb.RootSystem._search, []

    def recording(self, keys, vectors):
        out = search(self, keys, vectors)
        found.extend(out[out >= 0].tolist())
        return out

    with monkeypatch.context() as patch:
        patch.setattr(cb.RootSystem, "_search", recording)
        rs = cb.generate_roots(cm)
        rs.sum_index  # built on first use, and searched here
    return rs, found


@pytest.mark.parametrize("label", DESK_TYPES + ("D16", "A24", "B14", "C14"))
def test_sum_index_is_filled_by_zero_sum_triples(label, monkeypatch):
    # A zero-sum triple of roots fills 12 entries: its six ordered pairs and
    # those of its negation.
    rs, found = _confirmed_sums(label, monkeypatch)
    si, neg = rs.sum_index, rs.neg
    a, b = np.nonzero(si >= 0)
    s = si[a, b]
    assert len(a) % 12 == 0
    assert np.array_equal(si[b, a], s)
    assert np.array_equal(si[s, neg[b]], a)
    assert np.array_equal(si[neg[a], neg[b]], neg[s])
    # The confirmed hits are the sums of the positive pairs x < y that have a
    # root sum, one hit per pair.
    p, index = rs.positive_count, tuple_index(rs)
    sums = (index.get(add(rs.roots[x], rs.roots[y]), -1) for x in range(p) for y in range(x + 1, p))
    assert sorted(found) == sorted(k for k in sums if k >= 0)


@pytest.mark.parametrize("label", ("E8", "A24", "C14"))
def test_generate_roots_confirms_one_search_per_triple(label, monkeypatch):
    # Six-fold searching (every summing pair of the positive rows) would confirm K / 2.
    rs, found = _confirmed_sums(label, monkeypatch)
    assert len(found) * 12 == int((rs.sum_index >= 0).sum())


def _sum_norms(rs) -> np.ndarray:
    """(alpha + beta, alpha + beta) / 2 for every pair, under the integer form s_i a_ij."""
    s = rs.norms[rs.simple]
    entries = np.array(rs.cartan.entries)
    assert (s[:, None] * entries == (s[:, None] * entries).T).all()
    gram = rs.coeffs @ (s[:, None] * entries) @ rs.coeffs.T
    norms = np.diag(gram) // 2
    assert rs.norms.tolist() == norms.tolist()
    return norms[:, None] + norms + gram


def _length_test(rs) -> np.ndarray:
    """The pairs whose sum has a root's norm."""
    return np.isin(_sum_norms(rs), np.unique(rs.norms))


@pytest.mark.parametrize("label", DESK_TYPES + ("B14", "C14", "D16", "A24"))
def test_length_test_admits_every_summing_pair(label):
    rs = system(label)
    admitted = _length_test(rs)
    assert len(np.unique(rs.norms)) <= 2
    summing = rs.sum_index >= 0
    assert not (summing & ~admitted).any()
    family, rank = cb.parse_type_label(label)
    if family != "C" or rank < 4:
        # Exact except on C_n, n >= 4, where orthogonal short roots such as
        # e1 + e2 and e3 + e4 have a sum of the long norm.
        assert (admitted == summing).all()
    if label == "C14":
        # The length test alone admits pairs that do not sum here.
        assert (int(admitted.sum()), int(summing.sum())) == (115_752, 19_656)


@pytest.mark.parametrize("label", ("C4", "C5", "C8", "C14", "B14", "F4"))
def test_length_and_parity_tests_admit_exactly_the_summing_pairs(label):
    # A sum gamma of norm 2 has the integral co-root s_i gamma_i / 2, so
    # s_i alpha_i and s_i beta_i have equal parity at every node.
    rs = system(label)
    sn = rs.coeffs * rs.norms[rs.simple]
    even = ((sn[:, None] + sn[None]) % 2 == 0).all(-1)
    words = packed_parity(sn)
    assert np.array_equal((words[:, None] == words).all(-1), even)
    admitted = _length_test(rs) & (even | (_sum_norms(rs) != 2))
    assert np.array_equal(admitted, rs.sum_index >= 0)


# C8 and C14 take the parity test of the root-sum search, and A63 is the
# largest type under MAX_ROOTS.
@pytest.mark.parametrize("label", DESK_TYPES + ("C8", "C14", "A63"))
def test_linked_lists_the_summing_pairs_then_the_band(label):
    rs = system(label) if label != "A63" else cb.generate_roots(cb.build_cartan("A", 63))
    summing = np.argwhere(rs.sum_index >= 0)
    band = np.column_stack([np.arange(len(rs.roots)), rs.neg])
    assert rs.linked.dtype == np.intp and not rs.linked.flags.writeable
    assert np.array_equal(rs.linked, np.concatenate([summing, band]))
    assert rs.linked is rs.linked
    # A view of linked; A1 has no summing pair, so it shares no element.
    assert rs.pairs.base is rs.linked.base and (label == "A1") != np.shares_memory(rs.pairs, rs.linked)
    assert np.array_equal(rs.pairs, rs.linked[:len(summing)]) and not rs.pairs.flags.writeable


def test_linked_is_built_on_first_use_and_never_for_a_fold_parent():
    rs = cb.generate_roots(cb.build_cartan("A", 5))
    assert "linked" not in vars(rs) and "sum_index" not in vars(rs)
    c3 = cb.generate_roots(cb.build_cartan("C", 3))
    fs = cb.fold(rs, cb.default_epsilon(rs.cartan), cb.standard_automorphism(rs.cartan), c3)
    cb.folded_table(fs)
    assert "linked" not in vars(rs) and "linked" in vars(fs.folded_rs)
    assert "sum_index" not in vars(rs) and "sum_index" in vars(fs.folded_rs)
    assert len(rs.pairs) == len(rs.linked) - len(rs.roots) and "linked" in vars(rs)


def test_packed_parity_packs_64_entries_per_word():
    # Entry j is bit j % 64 of word j // 64; even entries leave no bit.
    for width, words in ((64, 1), (65, 2), (66, 2), (128, 2)):
        for odd in (0, 63, 64, 65, 127):
            if odd >= width:
                continue
            row = np.zeros((1, width), dtype=np.int64)
            row[0, odd] = -3
            row[0, (odd + 1) % width] = 2
            expected = [0] * words
            expected[odd // 64] = 1 << odd % 64
            packed = packed_parity(row)
            assert packed.dtype == np.uint64 and packed.tolist() == [expected], (width, odd)


def test_generate_roots_memory_on_a40():
    cm = cb.build_cartan("A", 40)
    tracemalloc.start()
    try:
        rs = cb.generate_roots(cm)
        rs.sum_index  # built on first use, inside the traced region
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    over = (peak - rs.sum_index.nbytes) / 2**20
    assert over <= 4, f"generate_roots peak {over:.1f} MB above sum_index on A40"


def test_string_lengths_match_tuple_walk():
    for label in ("B3", "G2", "F4"):
        rs = system(label)
        backward = {}
        for a, alpha in enumerate(rs.roots):
            for b, beta in enumerate(rs.roots):
                if b in (a, rs.neg[a]):
                    with pytest.raises(DegeneratePair):
                        found_string_lengths(rs, alpha, beta)
                    continue
                p, q = string_lengths(rs, alpha, beta)
                assert found_string_lengths(rs, alpha, beta) == (p, q)
                if rs.sum_index[a, b] >= 0:
                    backward[(a, b)] = q
        xs, ys = np.nonzero(rs.sum_index >= 0)
        assert len(xs) == len(backward)
        assert rs.backward_lengths(xs, ys).tolist() == [backward[k] for k in zip(xs.tolist(), ys.tolist())]


def test_coroot_checks_raise():
    # Vectors that are not roots: a zero vector has square length 0, and
    # 2 alpha_1 of G2 has s_alpha = 12, which does not divide s_1 n_1 = 6.
    cm = system("G2").cartan
    for vector, message in (((0, 0), "bad square length 0"), ((2, 0), "non-integral co-root")):
        coeffs = np.array([vector], dtype=np.int64)
        action = np.array(cm.entries, dtype=np.int64) @ coeffs.T
        with pytest.raises(InternalInconsistency, match=message):
            _coroots(cm, coeffs, action)


def _reference_positive_roots(cm) -> list[Root]:
    """The tuple height induction that preceded the array one, kept verbatim as its reference.

    Returns the positive roots in (height, coefficients) order.
    """
    n = cm.rank
    simple = [tuple(1 if k == j else 0 for k in range(n)) for j in range(n)]
    positive: set[Root] = set(simple)
    frontier = list(simple)
    while frontier:
        new: list[Root] = []
        for beta in frontier:
            for i in range(n):
                q = 0
                gamma = tuple(b - s for b, s in zip(beta, simple[i]))
                while gamma in positive:
                    q += 1
                    gamma = tuple(g - s for g, s in zip(gamma, simple[i]))
                pair = sum(a * m for a, m in zip(cm.entries[i], beta))
                if q - pair > 0:
                    cand = tuple(b + s for b, s in zip(beta, simple[i]))
                    if cand not in positive:
                        positive.add(cand)
                        new.append(cand)
        frontier = new
    return sorted(positive, key=lambda r: (root_height(r), r))


@pytest.mark.parametrize("label", DESK_TYPES + ("B10", "C10", "D16", "A24", "B20", "C20", "A40", "D30"))
def test_generate_roots_matches_tuple_induction(label):
    rs = system(label)
    ordered = _reference_positive_roots(rs.cartan)
    assert rs.positive_count == len(ordered)
    assert rs.coeffs.tolist() == [list(r) for r in ordered] + [[-x for x in r] for r in ordered]
    assert rs.simple.tolist() == [ordered.index(simple_root(rs, i)) for i in rs.cartan.nodes]
    assert not rs.simple.flags.writeable


def test_index_of_refuses_non_roots():
    rs = system("B3")
    p = rs.positive_count
    positive = np.array(rs.roots[:p])
    assert rs.find(positive).tolist() == list(range(p))
    assert rs.find(-positive).tolist() == list(range(p, 2 * p))
    # Vectors of the wrong length are refused before any lookup.
    for vector in ((1, 0), (1, 0, 0, 0), ()):
        with pytest.raises(NotARoot):
            parse_coeffs(",".join(map(str, vector)), rs.rank)
    # The zero vector, 2 alpha_1, and vectors of mixed sign or large
    # coefficients, which collide with roots under a linear key of a small
    # base.
    refused = [(0, 0, 0), (2, 0, 0)]
    for m in range(1, 65):
        refused += [(m, -1, 0), (-m, 1, 0), (m + 1, 0, 0), (-m - 1, 0, 0), (0, 0, 2 * m + 1)]
    assert not [vector for vector in refused if contains(rs, vector)]
    assert (rs.find(np.array(refused)) == -1).all()
