"""Cartan matrices, sign functions and diagram automorphisms."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

import chevbasis as cb
from chevbasis.errors import IllegalType, InvalidEpsilon, NoFoldableSymmetry
from conftest import DESK_TYPES
from reference import identity_automorphism


def test_parse_type_label():
    assert cb.parse_type_label("A1") == ("A", 1)
    assert cb.parse_type_label("f4") == ("F", 4)
    assert cb.parse_type_label(" e8 ") == ("E", 8)
    assert cb.parse_type_label("A12") == ("A", 12)
    for bad in ("H3", "A0", "B1", "D2", "E9", "F5", "G3", "E5", "", "A", "4A"):
        with pytest.raises(IllegalType):
            cb.parse_type_label(bad)


def test_pinned_matrices():
    assert cb.build_cartan("A", 2).entries == ((2, -1), (-1, 2))
    assert cb.build_cartan("A", 1).entries == ((2,),)
    assert cb.build_cartan("G", 2).entries == ((2, -1), (-3, 2))
    assert cb.build_cartan("B", 2).entries == ((2, -2), (-1, 2))
    assert cb.build_cartan("C", 2).entries == ((2, -1), (-2, 2))
    assert cb.build_cartan("F", 4).entries == (
        (2, -1, 0, 0),
        (-1, 2, -1, 0),
        (0, -2, 2, -1),
        (0, 0, -1, 2),
    )
    # E-series: chain 1-3-4-..., branch node 2 on node 4.
    e6 = cb.build_cartan("E", 6)
    assert e6.a(1, 3) == e6.a(2, 4) == e6.a(4, 5) == -1
    assert e6.a(1, 2) == e6.a(2, 3) == e6.a(2, 5) == 0


def test_simply_laced_flag():
    for label in DESK_TYPES:
        family, rank = cb.parse_type_label(label)
        cm = cb.build_cartan(family, rank)
        assert cm.simply_laced == (family in "ADE")


def test_matrix_invariants_every_type():
    for label in DESK_TYPES:
        family, rank = cb.parse_type_label(label)
        cm = cb.build_cartan(family, rank)
        for i in cm.nodes:
            assert cm.a(i, i) == 2
            for j in cm.nodes:
                if i != j:
                    assert cm.a(i, j) <= 0
                    assert (cm.a(i, j) == 0) == (cm.a(j, i) == 0)
                    if cm.a(i, j) != 0:
                        assert -1 in (cm.a(i, j), cm.a(j, i))
                        assert {cm.a(i, j), cm.a(j, i)} <= {-1, -2, -3}


def test_default_epsilon_pinned_values():
    assert cb.default_epsilon(cb.build_cartan("F", 4)).values == (-1, 1, -1, 1)
    assert cb.default_epsilon(cb.build_cartan("G", 2)).values == (-1, 1)
    assert cb.default_epsilon(cb.build_cartan("A", 3)).values == (1, -1, 1)
    assert cb.default_epsilon(cb.build_cartan("B", 3)).values == (1, -1, 1)
    assert cb.default_epsilon(cb.build_cartan("C", 3)).values == (1, -1, 1)
    assert cb.default_epsilon(cb.build_cartan("C", 4)).values == (-1, 1, -1, 1)
    d5 = cb.default_epsilon(cb.build_cartan("D", 5))
    assert d5.values == (1, 1, -1, 1, -1)
    # E7 is anchored at node 1; the 2-coloring forces eps(7) = -1.
    assert cb.default_epsilon(cb.build_cartan("E", 7)).values == (1, -1, -1, 1, -1, 1, -1)
    assert cb.default_epsilon(cb.build_cartan("E", 8)).values == (1, -1, -1, 1, -1, 1, -1, 1)


def test_default_epsilon_is_coloring_everywhere():
    for label in DESK_TYPES:
        family, rank = cb.parse_type_label(label)
        cm = cb.build_cartan(family, rank)
        assert cb.default_epsilon(cm).is_coloring_of(cm)


def test_exactly_two_colorings():
    # Brute force over all sign vectors for small ranks.
    for label in ("A3", "B3", "D4", "G2"):
        family, rank = cb.parse_type_label(label)
        cm = cb.build_cartan(family, rank)
        valid = []
        for mask in range(2 ** rank):
            values = tuple(1 if mask & (1 << k) else -1 for k in range(rank))
            if cb.SignFunction(values).is_coloring_of(cm):
                valid.append(values)
        default = cb.default_epsilon(cm)
        assert sorted(valid) == sorted([default.values, default.flipped().values])


def test_flip():
    eps = cb.SignFunction((1, -1))
    assert eps.flipped().values == (-1, 1)
    assert eps.flipped().flipped().values == eps.values
    f4 = cb.default_epsilon(cb.build_cartan("F", 4))
    assert f4.flipped().values == (1, -1, 1, -1)


def test_sign_function_validation():
    with pytest.raises(InvalidEpsilon):
        cb.SignFunction((1, 0))


def test_standard_automorphism_d4_triality():
    cm = cb.build_cartan("D", 4)
    auto = cb.standard_automorphism(cm)
    assert auto.order == 3
    assert auto.orbits == ((3,), (1, 2, 4))
    assert auto.apply(1) == 2 and auto.apply(2) == 4 and auto.apply(4) == 1
    assert auto.apply(3) == 3


def test_standard_automorphism_e6():
    auto = cb.standard_automorphism(cb.build_cartan("E", 6))
    assert auto.order == 2
    assert auto.orbits == ((2,), (4,), (3, 5), (1, 6))


def test_standard_automorphism_a_odd():
    auto = cb.standard_automorphism(cb.build_cartan("A", 5))
    assert auto.order == 2
    assert auto.orbits == ((3,), (2, 4), (1, 5))
    assert auto.reps == (3, 2, 1)


def test_standard_automorphism_d5():
    auto = cb.standard_automorphism(cb.build_cartan("D", 5))
    assert auto.orbits == ((1, 2), (3,), (4,), (5,))


def test_even_chain_has_no_foldable_symmetry():
    # A1 and the even chains have no fold; neither has B3, which is no
    # parent, nor E7.
    for label in ("A1", "A2", "A4", "B3", "E7"):
        with pytest.raises(NoFoldableSymmetry, match=f"^type {label} has no foldable symmetry$"):
            cb.standard_automorphism(cb.build_cartan(*cb.parse_type_label(label)))


def test_automorphism_conditions_validate():
    for label in ("A3", "A5", "A7", "D4", "D5", "D6", "E6"):
        family, rank = cb.parse_type_label(label)
        cm = cb.build_cartan(family, rank)
        auto = cb.standard_automorphism(cm)
        auto.validate(cm)  # conditions (a) and (b)
        # epsilon constant on orbits for the default coloring
        eps = cb.default_epsilon(cm)
        for orbit in auto.orbits:
            assert len({eps.value(i) for i in orbit}) == 1


def test_validate_rejects_connected_orbit():
    cm = cb.build_cartan("A", 4)
    reflection = cb.DiagramAutomorphism(((2, 3), (1, 4)))
    with pytest.raises(NoFoldableSymmetry):
        reflection.validate(cm)


def test_validate_rejects_overlapping_orbits_and_orders_above_three():
    with pytest.raises(NoFoldableSymmetry, match="^orbits must partition the node set$"):
        cb.DiagramAutomorphism(((1,), (1, 2))).validate(cb.build_cartan("A", 2))
    with pytest.raises(NoFoldableSymmetry, match=r"^order must be the permutation order in \{1,2,3\}, got 6$"):
        cb.DiagramAutomorphism(((1, 3, 5), (2, 4))).validate(cb.build_cartan("A", 5))


def test_identity_and_fork_swap():
    cm = cb.build_cartan("D", 3)
    identity_automorphism(cm).validate(cm)
    swap = cb.standard_automorphism(cm)
    assert swap.orbits == ((1, 2), (3,))


# (orbits, perm) of each parent's standard automorphism, pinned from the
# per-type perm and orbit literals that the fold table replaced.
STANDARD_AUTOMORPHISMS = {
    "A3": (((2,), (1, 3)), (3, 2, 1)),
    "A5": (((3,), (2, 4), (1, 5)), (5, 4, 3, 2, 1)),
    "A7": (((4,), (3, 5), (2, 6), (1, 7)), (7, 6, 5, 4, 3, 2, 1)),
    "D4": (((3,), (1, 2, 4)), (2, 4, 3, 1)),
    "D5": (((1, 2), (3,), (4,), (5,)), (2, 1, 3, 4, 5)),
    "D6": (((1, 2), (3,), (4,), (5,), (6,)), (2, 1, 3, 4, 5, 6)),
    "D7": (((1, 2), (3,), (4,), (5,), (6,), (7,)), (2, 1, 3, 4, 5, 6, 7)),
    "E6": (((2,), (4,), (3, 5), (1, 6)), (6, 2, 5, 4, 3, 1)),
}


@pytest.mark.parametrize("label", sorted(STANDARD_AUTOMORPHISMS))
def test_standard_automorphism_orbits_and_perm_are_pinned(label):
    auto = cb.standard_automorphism(cb.build_cartan(*cb.parse_type_label(label)))
    assert (auto.orbits, auto.perm) == STANDARD_AUTOMORPHISMS[label]
    assert auto.order == (3 if label == "D4" else 2)


@given(st.sampled_from(DESK_TYPES), st.data())
def test_coloring_alternates_on_random_edge(label, data):
    family, rank = cb.parse_type_label(label)
    cm = cb.build_cartan(family, rank)
    eps = cb.default_epsilon(cm)
    i = data.draw(st.sampled_from(list(cm.nodes)))
    neighbors = cm.neighbors(i)
    if neighbors:
        j = data.draw(st.sampled_from(neighbors))
        assert eps.value(i) == -eps.value(j)
