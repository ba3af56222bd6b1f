"""Inductive construction of the canonical bracket table."""

from __future__ import annotations

import dataclasses
import re
import tracemalloc

import numpy as np
import pytest

import chevbasis as cb
from chevbasis.errors import InternalInconsistency, InvalidEpsilon
from chevbasis.closedform import closed_table
from chevbasis.serialize import document_from_table, from_json_bytes, table_from_document, to_json_bytes
from conftest import (
    DESK_TYPES,
    FOLDS,
    SIMPLY_LACED_TYPES,
    constant,
    constants,
    coroot,
    folded,
    found_string_lengths,
    system,
    table,
    tuple_index,
    with_flipped_constant,
)
from reference import (
    check_negation_symmetry,
    contains,
    flip_epsilon_table,
    negate,
    root_height,
    simple_root,
    string_lengths,
)


def test_a2_values():
    rs = system("A2")
    t = cb.build_inductive(rs, cb.SignFunction((1, -1)))
    assert constant(t, (1, 0), (0, 1)) == 1
    assert constant(t, (0, 1), (1, 0)) == -1
    assert constant(t, (1, 0), (1, 0)) == 0  # sum not a root


def test_base_relation_everywhere():
    # N_{alpha_i, beta} = eps(i) (q+1) for every simple first argument.
    for label in ("A3", "B3", "G2", "F4", "D4"):
        t = table(label)
        rs = t.rs
        for i in rs.cartan.nodes:
            si = simple_root(rs, i)
            for beta in rs.roots:
                if beta == negate(si) or not contains(rs, tuple(a + b for a, b in zip(si, beta))):
                    continue
                _, q = found_string_lengths(rs, si, beta)
                assert constant(t, si, beta) == t.eps.value(i) * (q + 1)


def test_ladder_relations_certificate():
    # [e_i, e_alpha] = (q+1) e_{alpha+alpha_i} and [f_i, e_alpha] =
    # (p+1) e_{alpha-alpha_i} written in terms of table constants.
    for label in ("A4", "C3", "F4", "G2"):
        t = table(label)
        rs = t.rs
        for i in rs.cartan.nodes:
            si = simple_root(rs, i)
            for alpha in rs.roots:
                if alpha in (si, negate(si)):
                    continue
                p, q = found_string_lengths(rs, si, alpha)
                if contains(rs, tuple(a + b for a, b in zip(si, alpha))):
                    assert t.eps.value(i) * constant(t, si, alpha) == q + 1
                if contains(rs, tuple(b - a for a, b in zip(si, alpha))):
                    assert -t.eps.value(i) * constant(t, negate(si), alpha) == p + 1


def test_antisymmetry_and_chevalley_bound():
    for label in ("A5", "B4", "C4", "D5", "F4", "G2"):
        t = table(label)
        rs = t.rs
        n = constants(t)
        for (a, b), value in n.items():
            assert n[(b, a)] == -value
            _, q = found_string_lengths(rs, rs.roots[a], rs.roots[b])
            assert abs(value) == q + 1


def _opposite_bracket(t, k):
    return tuple(t.opposite_brackets()[k].tolist())


def test_opposite_matches_coroot():
    for label in ("A3", "B3", "G2", "F4"):
        t = table(label)
        for k, alpha in enumerate(t.rs.roots):
            assert tuple(t.opposite[k].tolist()) == coroot(t.rs, alpha)
            sign = -1 if root_height(alpha) % 2 else 1
            assert _opposite_bracket(t, k) == tuple(sign * c for c in coroot(t.rs, alpha))


def test_simple_opposite_is_minus_h():
    # [e_{alpha_i}, e_{-alpha_i}] = -h_i regardless of epsilon.
    for label in ("A2", "G2"):
        t = table(label)
        rs = t.rs
        for i in rs.cartan.nodes:
            k = tuple_index(rs)[simple_root(rs, i)]
            assert _opposite_bracket(t, k) == tuple(
                -1 if j == i else 0 for j in rs.cartan.nodes
            )


def test_g2_double_constant():
    # The string from the long simple root up to height 4 forces |N| = 2.
    t = table("G2")
    assert abs(constant(t, (0, 1), (1, 1))) == 2


# The per-entry recursion, one positive root at a time with [e_mu, e_{-mu}]
# divided out inside the loop, that ``build_inductive`` replaced with one step
# per height and a Cartan check after the loop; kept as its reference.
def _scalar_inductive_reference(rs, eps, tie_break):
    """(constants, hvec): the dict {(a, b): N} and the positive roots' [e_mu, e_{-mu}] vectors."""
    pick = min if tie_break == "min" else max
    roots, pos, si = rs.roots, rs.positive_count, rs.sum_index
    simple_idx = {i: tuple_index(rs)[simple_root(rs, i)] for i in rs.cartan.nodes}
    n = {}
    for i, a in simple_idx.items():
        for b in np.flatnonzero(si[a] >= 0).tolist():
            n[(a, b)] = eps.value(i) * (string_lengths(rs, roots[a], roots[b])[1] + 1)
    hvec = np.zeros((pos, rs.rank), dtype=np.int64)
    for i, a in simple_idx.items():
        hvec[a, i - 1] = -1
    for m in sorted(range(pos), key=lambda k: root_height(roots[k])):
        if root_height(roots[m]) == 1:
            continue
        row_m = si[m].tolist()
        l = pick(i for i in rs.cartan.nodes if row_m[rs.neg[simple_idx[i]]] >= 0)
        sl = simple_idx[l]
        v = row_m[rs.neg[sl]]
        d = n[(sl, v)]
        neg_m, neg_v, neg_sl = rs.neg[m], rs.neg[v], rs.neg[sl]
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
                t1 = n[(v, b)] * n[(sl, row_v[b])] if row_v[b] >= 0 else 0
                t2 = n[(sl, b)] * n[(v, row_sl[b])] if row_sl[b] >= 0 else 0
                assert (t1 - t2) % d == 0
                n[(m, b)] = (t1 - t2) // d
        combo = -n[(sl, neg_m)] * hvec[v]
        combo[l - 1] -= n[(v, neg_m)]
        assert not np.any(combo % d)
        hvec[m] = combo // d
    for (a, b), value in list(n.items()):
        if a < pos:
            n[(rs.neg[a], rs.neg[b])] = -value
    return n, hvec


@pytest.mark.parametrize("label", DESK_TYPES + ("B10", "C10"))
def test_build_inductive_matches_scalar_reference(label):
    rs = system(label)
    for eps in (cb.default_epsilon(rs.cartan), cb.default_epsilon(rs.cartan).flipped()):
        t = cb.build_inductive(rs, eps)
        for tie_break in ("min", "max"):
            n, hvec = _scalar_inductive_reference(rs, eps, tie_break)
            assert constants(t) == n
            assert np.array_equal(t.opposite_brackets()[:rs.positive_count], hvec)


def test_tie_break_independence():
    for label in ("A4", "D4", "E6", "B3", "F4", "G2", "C4"):
        rs = system(label)
        eps = cb.default_epsilon(rs.cartan)
        t = cb.build_inductive(rs, eps)
        n_min, hvec_min = _scalar_inductive_reference(rs, eps, "min")
        n_max, hvec_max = _scalar_inductive_reference(rs, eps, "max")
        assert constants(t) == n_min == n_max
        assert np.array_equal(hvec_min, hvec_max)
        assert np.array_equal(t.opposite_brackets()[:rs.positive_count], hvec_max)


def test_flip_epsilon_table():
    t = table("D4")
    f = flip_epsilon_table(t)
    assert f.eps.values == t.eps.flipped().values
    assert all(constants(f)[k] == -v for k, v in constants(t).items())
    assert np.array_equal(f.cartan_action, t.cartan_action)
    assert np.array_equal(f.opposite, t.opposite)
    ff = flip_epsilon_table(f)
    assert constants(ff) == constants(t) and ff.eps.values == t.eps.values


def test_flip_equals_rebuild():
    # Building with -eps from scratch gives the flipped table.
    for label in ("A3", "B2", "G2"):
        rs = system(label)
        eps = cb.default_epsilon(rs.cartan)
        assert constants(cb.build_inductive(rs, eps.flipped())) == constants(flip_epsilon_table(table(label)))


def test_invalid_epsilon_rejected():
    rs = system("A2")
    with pytest.raises(InvalidEpsilon):
        cb.build_inductive(rs, cb.SignFunction((1, 1)))


def _with_coroot_moved(rs, k):
    """``rs`` with the h_1 coordinate of row k's co-root raised by 1: the Cartan check must fail there."""
    coroots = rs.coroots.copy()
    coroots[k, 0] += 1
    return dataclasses.replace(rs, coroots=coroots)


def _with_longer_string(rs, a, b):
    """``rs`` whose backward_lengths reads one step more at (a, b): N_{a,b} = eps (q + 2) if a is simple."""

    class LongerString(type(rs)):
        def backward_lengths(self, x, y):
            return super().backward_lengths(x, y) + ((np.asarray(x) == a) & (np.asarray(y) == b))

    return LongerString(**{f.name: getattr(rs, f.name) for f in dataclasses.fields(rs) if f.init})


def _raises_at(rs, k):
    """build_inductive(rs) refuses, naming roots[k]."""
    with pytest.raises(InternalInconsistency, match=rf"(at|for) {re.escape(str(rs.roots[k]))}"):
        cb.build_inductive(rs, cb.default_epsilon(rs.cartan))


@pytest.mark.parametrize("label", ("A3", "B3", "G2", "F4", "D4", "E6"))
def test_build_inductive_refuses_a_wrong_coroot_of_a_non_simple_root(label):
    # The Cartan recursion first breaks at the moved root, not at the higher
    # roots whose split reads it.
    rs = system(label)
    for k in (rs.rank, rs.positive_count // 2, rs.positive_count - 1):
        _raises_at(_with_coroot_moved(rs, k), k)


@pytest.mark.parametrize("label", ("A3", "B3", "G2", "F4", "D4", "E6"))
def test_build_inductive_refuses_a_wrong_coroot_of_a_simple_root(label):
    rs = system(label)
    for k in rs.simple.tolist():
        _raises_at(_with_coroot_moved(rs, k), k)


@pytest.mark.parametrize("label", ("A2", "A3", "B3", "G2", "F4", "D4", "E6"))
def test_build_inductive_refuses_a_wrong_simple_row_constant(label):
    # Doubling N_{alpha_l,nu} for the lowest non-simple root mu = alpha_l + nu
    # makes its row divide by the wrong constant; no lower row reads it.
    rs = system(label)
    m = rs.rank
    sl = next(int(s) for s in rs.simple if rs.sum_index[m, rs.neg[s]] >= 0)
    _raises_at(_with_longer_string(rs, sl, int(rs.sum_index[m, rs.neg[sl]])), m)


def test_negation_symmetry_report():
    t = table("E6")
    report = check_negation_symmetry(t)
    assert report.passed and report.checked == len(t.n)
    bad = with_flipped_constant(t)
    assert not check_negation_symmetry(bad).passed


def test_constant_lookup_validates():
    # A constant is looked up at root indices, and a non-root has none.
    rs = table("A2").rs
    assert rs.find(np.array([(2, 0), (0, 1)])).tolist() == [-1, tuple_index(rs)[(0, 1)]]


def _scanned_constant(t, a: int, b: int) -> int:
    """N at root indices (a, b) by a scan of every stored pair: the first hit, else 0."""
    hit = np.flatnonzero((t.pairs[:, 0] == a) & (t.pairs[:, 1] == b))
    return int(t.n[hit[0]]) if len(hit) else 0


@pytest.mark.parametrize("label", ("G2", "B3", "E6"))
def test_constant_lookup_matches_a_scan(label):
    # Every ordered pair, on the table, on its file-order copy, and on an
    # in-memory table with a stray key and a pair stored twice (the first wins).
    t = table(label)
    pairs = np.concatenate([t.pairs, [[0, 0]], t.pairs[-1:]])
    odd = dataclasses.replace(t, pairs=pairs, n=np.concatenate([t.n, [7], -t.n[-1:]]))
    for v in (t, _loaded(t), odd):
        rs = v.rs
        for a, alpha in enumerate(rs.roots):
            for b, beta in enumerate(rs.roots):
                assert constant(v, alpha, beta) == _scanned_constant(v, a, b), (label, a, b)


@pytest.mark.parametrize("label", ("A1", "G2", "B3"))
def test_find_matches_a_scan(label):
    # Every ordered pair at once, in key order and shuffled: the first
    # stored position, or -1.  The tables' keys come in key order (t, and
    # twice with two pairs stored twice, each copy next to the first), in
    # file order, and shuffled, with and without a pair stored twice.
    t = table(label)
    pairs = np.concatenate([t.pairs, [[0, 0]], t.pairs[-1:]])
    odd = dataclasses.replace(t, pairs=pairs, n=np.concatenate([t.n, [7], -t.n[-1:]]))
    nr = len(t.rs.roots)
    pairs = np.concatenate([odd.pairs, [[0, 0]]])
    up = np.argsort(pairs[:, 0] * nr + pairs[:, 1], kind="stable")
    twice = dataclasses.replace(t, pairs=pairs[up], n=np.append(odd.n, -7)[up])
    rng = np.random.default_rng(0)
    shuffle = rng.permutation(len(odd.n))
    mine = shuffle[shuffle < len(t.n)]
    shuffled = dataclasses.replace(t, pairs=t.pairs[mine], n=t.n[mine])
    shuffled_odd = dataclasses.replace(t, pairs=odd.pairs[shuffle], n=odd.n[shuffle])
    for query in (np.arange(nr * nr), rng.permutation(nr * nr)):
        a, b = np.divmod(query, nr)
        for v in (t, _loaded(t), odd, twice, shuffled, shuffled_odd):
            hits = [np.flatnonzero((v.pairs[:, 0] == x) & (v.pairs[:, 1] == y)) for x, y in zip(a, b)]
            assert v.find(a, b).tolist() == [int(h[0]) if len(h) else -1 for h in hits]


def _loaded(t):
    return table_from_document(from_json_bytes(to_json_bytes(document_from_table(t, "inductive"))))


def test_every_summing_pair_is_stored():
    # Closed, folded, inductive and file-loaded tables each store every
    # summing pair once, so len(t.n) counts the ordered summing pairs.  Their
    # dense view holds each constant at its pair, and a last column of zeros
    # where a sum index of -1 lands.
    tables = [closed_table(system(label), cb.default_epsilon(system(label).cartan)) for label in SIMPLY_LACED_TYPES]
    tables += [folded(parent)[1] for parent, _ in FOLDS]
    tables += [table(label) for label in DESK_TYPES]
    tables += [_loaded(table(label)) for label in DESK_TYPES]
    for t in tables:
        rs = t.rs
        expected = sum(
            1
            for alpha in rs.roots
            for beta in rs.roots
            if tuple(a + b for a, b in zip(alpha, beta)) in tuple_index(rs)
        )
        assert len(t.n) == len(t.pairs) == expected, rs.cartan.label
        assert len(np.unique(t.pairs, axis=0)) == len(t.pairs), rs.cartan.label
        nn = t.dense()
        assert nn.shape == (len(rs.roots), len(rs.roots) + 1) and nn.dtype == np.int32, rs.cartan.label
        assert not nn[:, -1].any() and np.array_equal(nn[t.pairs[:, 0], t.pairs[:, 1]], t.n), rs.cartan.label
        assert np.count_nonzero(nn) == len(t.n), rs.cartan.label


@pytest.mark.parametrize("label", DESK_TYPES[1:])
def test_builders_store_the_root_systems_pairs_without_a_copy(label):
    # A1, first in the list, has no summing pair to share.
    rs = system(label)
    eps = cb.default_epsilon(rs.cartan)
    tables = [cb.build_inductive(rs, eps)]
    if rs.cartan.simply_laced:
        tables.append(closed_table(rs, eps))
    for t in tables:
        assert np.shares_memory(t.pairs, rs.linked) and np.array_equal(t.pairs, rs.pairs)


def test_folded_tables_store_the_folded_systems_pairs_without_a_copy():
    for parent, _ in FOLDS:
        fs, t = folded(parent)
        assert np.shares_memory(t.pairs, fs.folded_rs.linked) and np.array_equal(t.pairs, fs.folded_rs.pairs)


def test_build_inductive_memory_on_a24():
    # The builder fills the positive rows only, and reads the negative
    # constants at the stored pairs: its traced peak stays below one and a
    # half nr x nr int64 arrays.
    rs = system("A24")
    eps = cb.default_epsilon(rs.cartan)
    tracemalloc.start()
    try:
        t = cb.build_inductive(rs, eps)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    nr = len(rs.roots)
    assert np.array_equal(t.n, closed_table(rs, eps).n)
    assert peak < 1.5 * 8 * nr * nr, f"build_inductive peak {peak / 2 ** 20:.1f} MB on A24"
