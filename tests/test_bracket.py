"""Inductive construction of the canonical bracket table."""

from __future__ import annotations

import numpy as np
import pytest

import chevbasis as cb
from chevbasis.bracket import check_negation_symmetry
from chevbasis.errors import InvalidEpsilon, NotARoot
from chevbasis.roots import negate, root_height
from conftest import DESK_TYPES, coroot, system, table, with_flipped_constant


def test_a2_values():
    rs = system("A2")
    t = cb.build_inductive(rs, cb.SignFunction((1, -1)))
    assert t.constant((1, 0), (0, 1)) == 1
    assert t.constant((0, 1), (1, 0)) == -1
    assert t.constant((1, 0), (1, 0)) == 0  # sum not a root


def test_base_relation_everywhere():
    # N_{alpha_i, beta} = eps(i) (q+1) for every simple first argument.
    for label in ("A3", "B3", "G2", "F4", "D4"):
        t = table(label)
        rs = t.rs
        for i in rs.cartan.nodes:
            si = rs.simple_root(i)
            for beta in rs.roots:
                if beta == negate(si) or not rs.contains(tuple(a + b for a, b in zip(si, beta))):
                    continue
                _, q = rs.string_lengths(si, beta)
                assert t.constant(si, beta) == t.eps.value(i) * (q + 1)


def test_ladder_relations_certificate():
    # [e_i, e_alpha] = (q+1) e_{alpha+alpha_i} and [f_i, e_alpha] =
    # (p+1) e_{alpha-alpha_i} written in terms of table constants.
    for label in ("A4", "C3", "F4", "G2"):
        t = table(label)
        rs = t.rs
        for i in rs.cartan.nodes:
            si = rs.simple_root(i)
            for alpha in rs.roots:
                if alpha in (si, negate(si)):
                    continue
                p, q = rs.string_lengths(si, alpha)
                if rs.contains(tuple(a + b for a, b in zip(si, alpha))):
                    assert t.eps.value(i) * t.constant(si, alpha) == q + 1
                if rs.contains(tuple(b - a for a, b in zip(si, alpha))):
                    assert -t.eps.value(i) * t.constant(negate(si), alpha) == p + 1


def test_antisymmetry_and_chevalley_bound():
    for label in ("A5", "B4", "C4", "D5", "F4", "G2"):
        t = table(label)
        rs = t.rs
        for (a, b), value in t.n.items():
            assert t.n[(b, a)] == -value
            _, q = rs.string_lengths(rs.roots[a], rs.roots[b])
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
            k = rs.index_of(rs.simple_root(i))
            assert _opposite_bracket(t, k) == tuple(
                -1 if j == i else 0 for j in rs.cartan.nodes
            )


def test_g2_double_constant():
    # The string from the long simple root up to height 4 forces |N| = 2.
    t = table("G2")
    assert abs(t.constant((0, 1), (1, 1))) == 2


def test_tie_break_independence():
    for label in ("A4", "D4", "E6", "B3", "F4", "G2", "C4"):
        rs = system(label)
        eps = cb.default_epsilon(rs.cartan)
        t_min = cb.build_inductive(rs, eps, tie_break="min")
        t_max = cb.build_inductive(rs, eps, tie_break="max")
        assert t_min.n == t_max.n
        assert np.array_equal(t_min.opposite, t_max.opposite)


def test_flip_epsilon_table():
    t = table("D4")
    f = cb.flip_epsilon_table(t)
    assert f.eps.values == t.eps.flipped().values
    assert all(f.n[k] == -v for k, v in t.n.items())
    assert np.array_equal(f.cartan_action, t.cartan_action)
    assert np.array_equal(f.opposite, t.opposite)
    ff = cb.flip_epsilon_table(f)
    assert ff.n == t.n and ff.eps.values == t.eps.values


def test_flip_equals_rebuild():
    # Building with -eps from scratch gives the flipped table.
    for label in ("A3", "B2", "G2"):
        rs = system(label)
        eps = cb.default_epsilon(rs.cartan)
        assert cb.build_inductive(rs, eps.flipped()).n == cb.flip_epsilon_table(table(label)).n


def test_invalid_epsilon_rejected():
    rs = system("A2")
    with pytest.raises(InvalidEpsilon):
        cb.build_inductive(rs, cb.SignFunction((1, 1)))


def test_negation_symmetry_report():
    t = table("E6")
    report = check_negation_symmetry(t)
    assert report.passed and report.checked == len(t.n)
    bad = with_flipped_constant(t)
    assert not check_negation_symmetry(bad).passed


def test_constant_lookup_validates():
    t = table("A2")
    with pytest.raises(NotARoot):
        t.constant((2, 0), (0, 1))


def test_every_summing_pair_is_stored():
    for label in DESK_TYPES:
        t = table(label)
        rs = t.rs
        expected = sum(
            1
            for alpha in rs.roots
            for beta in rs.roots
            if rs.contains(tuple(a + b for a, b in zip(alpha, beta)))
        )
        assert len(t.n) == expected
