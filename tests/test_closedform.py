"""The closed sign formula and its exhaustive properties."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import chevbasis as cb
from chevbasis.cartan import uncapped_cartan
from chevbasis.closedform import closed_table, pair_signs
from chevbasis.errors import NotARoot, NotSimplyLaced
from conftest import SIMPLY_LACED_TYPES, constants, system, table
from reference import (
    MatrixModel,
    add,
    check_split_identity,
    closed_constant,
    constant_sign,
    constant_sign_reduced,
    contains,
    negate,
    product_pair_signs,
    simple_root,
)


def summing_pairs(rs):
    for alpha in rs.roots:
        for beta in rs.roots:
            if contains(rs, add(alpha, beta)):
                yield alpha, beta


def test_simple_root_sign_is_epsilon():
    for label in ("A3", "D4", "E6"):
        rs = system(label)
        eps = cb.default_epsilon(rs.cartan)
        for i in rs.cartan.nodes:
            si = simple_root(rs, i)
            for beta in rs.roots:
                if beta != negate(si) and contains(rs, add(si, beta)):
                    assert constant_sign(rs, eps, si, beta) == eps.value(i)


def test_d4_pinned_value():
    rs = system("D4")
    eps = cb.default_epsilon(rs.cartan)
    assert constant_sign(rs, eps, (1, 1, 1, 0), (0, -1, -1, 0)) == 1
    assert closed_constant(rs, eps, (1, 1, 1, 0), (0, -1, -1, 0)) == 1


def test_swap_and_negation_of_sign():
    for label in ("A3", "D4"):
        rs = system(label)
        eps = cb.default_epsilon(rs.cartan)
        for alpha, beta in summing_pairs(rs):
            s = constant_sign(rs, eps, alpha, beta)
            assert constant_sign(rs, eps, beta, alpha) == -s
            assert constant_sign(rs, eps, negate(alpha), negate(beta)) == -s


def test_two_exponent_forms_agree():
    for label in ("A4", "D4", "E6"):
        rs = system(label)
        eps = cb.default_epsilon(rs.cartan)
        for alpha, beta in summing_pairs(rs):
            assert constant_sign(rs, eps, alpha, beta) == constant_sign_reduced(rs, eps, alpha, beta)


def test_flip_covariance():
    for label in ("A3", "D5"):
        rs = system(label)
        eps = cb.default_epsilon(rs.cartan)
        for alpha, beta in summing_pairs(rs):
            assert constant_sign(rs, eps.flipped(), alpha, beta) == -constant_sign(rs, eps, alpha, beta)


def test_type_a_model_pattern():
    # In the trace-zero matrix model, N(delta_i - delta_j, delta_j - delta_k)
    # is -eps(j) with eps continued by alternation.
    for n in (3, 4, 5):
        rs = system(f"A{n - 1}")
        eps = cb.default_epsilon(rs.cartan)
        model = MatrixModel(n, eps)
        for alpha, beta in summing_pairs(rs):
            i, j = model.root_pair(alpha)
            j2, k = model.root_pair(beta)
            if j != j2:
                continue
            assert closed_constant(rs, eps, alpha, beta) == -model.eps_ext[j - 1]


def test_closed_equals_inductive():
    for label in ("A5", "D4", "E6"):
        rs = system(label)
        eps = cb.default_epsilon(rs.cartan)
        assert constants(closed_table(rs, eps)) == constants(table(label))


def test_preconditions():
    rs = system("B2")
    eps = cb.default_epsilon(rs.cartan)
    with pytest.raises(NotSimplyLaced):
        constant_sign(rs, eps, (1, 0), (0, 1))
    with pytest.raises(NotSimplyLaced):
        closed_table(rs, eps)
    a2 = system("A2")
    with pytest.raises(NotARoot):
        constant_sign(a2, cb.SignFunction((1, -1)), (1, 1), (0, 1))


def test_split_identity_clean():
    for label in ("A3", "D4"):
        rs = system(label)
        eps = cb.default_epsilon(rs.cartan)
        report = check_split_identity(rs, eps)
        assert report.passed
        assert report.checked > 0


def test_split_identity_flags_bad_epsilon():
    rs = system("A3")
    report = check_split_identity(rs, cb.SignFunction((1, 1, 1)))
    assert not report.passed


@settings(deadline=None)
@given(st.sampled_from([t for t in SIMPLY_LACED_TYPES if t != "A1"]), st.data())
def test_sign_times_q_plus_one_matches_table(label, data):
    t = table(label)
    rs = t.rs
    n = constants(t)
    a, b = data.draw(st.sampled_from(sorted(n)))
    alpha, beta = rs.roots[a], rs.roots[b]
    assert closed_constant(rs, t.eps, alpha, beta) == n[(a, b)]


@pytest.mark.parametrize("label", ("A2", "A5", "D4", "D6", "E6", "E7"))
def test_pair_signs_match_scalar_formula(label):
    rs = system(label)
    a, b = np.nonzero(rs.sum_index >= 0)
    for eps in (cb.default_epsilon(rs.cartan), cb.default_epsilon(rs.cartan).flipped()):
        expected = [constant_sign(rs, eps, rs.roots[x], rs.roots[y]) for x, y in zip(a, b)]
        assert pair_signs(rs, eps, a, b).tolist() == expected


# A64, A65 and A89 are above MAX_ROOTS (A89 is the fold parent of C45) and
# pack 65 or more bits per row into two words.  Their summing pairs are
# found at a sample of rows by key lookups, so no sum_index is built.
@pytest.mark.parametrize("rank", (63, 64, 65, 89))
def test_pair_signs_match_the_product_across_word_boundaries(rank):
    rs = cb.generate_roots(uncapped_cartan("A", rank))
    rows = np.arange(0, len(rs.roots), 257)
    hits = np.stack([rs.find(rs.coeffs[x] + rs.coeffs) for x in rows]) >= 0
    k, b = np.nonzero(hits)
    a = rows[k]
    assert len(a) and (rank < 65 or rs.coeffs[a, 64:].any())
    for eps in (cb.default_epsilon(rs.cartan), cb.default_epsilon(rs.cartan).flipped()):
        assert np.array_equal(pair_signs(rs, eps, a, b), product_pair_signs(rs, eps, a, b))
    assert "sum_index" not in vars(rs)


@pytest.mark.parametrize("label", ("A33", "A63"))
def test_packed_parity_matches_the_dense_product(label):
    # Rank 33 is the first at which a uint32 packing would wrap, and A63,
    # the largest A type under MAX_ROOTS, fills 63 bits of the uint64 word.
    rs = cb.generate_roots(cb.build_cartan("A", int(label[1:])))
    a, b = np.nonzero(rs.sum_index >= 0)
    for eps in (cb.default_epsilon(rs.cartan), cb.default_epsilon(rs.cartan).flipped()):
        assert np.array_equal(pair_signs(rs, eps, a, b), product_pair_signs(rs, eps, a, b))
