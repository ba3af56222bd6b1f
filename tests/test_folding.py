"""Folding: orbit structure, restrictions, folded tables and q values."""

from __future__ import annotations

import dataclasses
import hashlib

import numpy as np
import pytest

import chevbasis as cb
from chevbasis import folding
from chevbasis.cartan import MAX_ROOTS, root_count
from chevbasis.errors import (
    FoldingPreconditionViolated,
    IllegalType,
    InternalInconsistency,
    RepresentativeNotFound,
)
from chevbasis.folding import independent_table
from chevbasis.serialize import document_from_table, to_json_bytes
from chevbasis.verify import differential
from conftest import FOLDS, constant, fold, folded, system, table, tuple_index, with_flipped_constant
from reference import (
    add,
    check_automorphism_invariance,
    check_coroot_orbit_sums,
    check_orbit_sign_constancy,
    constant_sign,
    contains,
    identity_automorphism,
    negate,
    permute_root,
    q_tilde_by_case,
    q_tilde_by_count,
    restrict_root,
    root_height,
    root_orbits,
    string_lengths,
    summing_orbit_pairs,
)


def test_d4_fold_is_g2():
    fs, _ = folded("D4")
    assert fs.folded_rs.cartan.entries == ((2, -1), (-3, 2))
    assert fs.folded_rs.cartan.label == "G2"
    assert fs.auto.reps == (3, 1)
    assert fs.folded_eps.values == (-1, 1)


def test_a3_fold_is_c2():
    fs, _ = folded("A3")
    assert fs.folded_rs.cartan.label == "C2"
    assert fs.auto.reps == (2, 1)
    assert fs.folded_rs.cartan.entries == ((2, -1), (-2, 2))


def test_e6_fold_is_f4():
    fs, _ = folded("E6")
    assert fs.folded_rs.cartan.label == "F4"
    assert fs.auto.reps == (2, 4, 3, 1)
    assert fs.folded_eps.values == (-1, 1, -1, 1)


def test_d5_fold_is_b4():
    fs, _ = folded("D5")
    assert fs.folded_rs.cartan.label == "B4"
    assert fs.auto.reps == (1, 3, 4, 5)


def test_d4_orbit_table():
    # The six positive-root orbits of triality and their restrictions.
    fs, _ = folded("D4")
    rs = fs.parent
    expected = [
        ({(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 0, 1)}, (0, 1)),   # tilde a1
        ({(0, 0, 1, 0)}, (1, 0)),                                # tilde a3
        ({(1, 0, 1, 0), (0, 1, 1, 0), (0, 0, 1, 1)}, (1, 1)),   # a1 + a3
        ({(1, 1, 1, 0), (1, 0, 1, 1), (0, 1, 1, 1)}, (1, 2)),   # 2 a1 + a3
        ({(1, 1, 1, 1)}, (1, 3)),                                # 3 a1 + a3
        ({(1, 1, 2, 1)}, (2, 3)),                                # 3 a1 + 2 a3
    ]
    for members, image in expected:
        indices = {tuple_index(rs)[m] for m in members}
        matching = [o for o in root_orbits(fs) if set(o) == indices]
        assert len(matching) == 1, members
        for m in members:
            assert restrict_root(fs, m) == image


def test_restriction_constant_on_orbits_and_injective_across():
    for parent, _ in FOLDS:
        fs, _ = folded(parent)
        orbits = root_orbits(fs)
        for orbit in orbits:
            images = {fs.restriction[k] for k in orbit}
            assert len(images) == 1
        assert len({fs.restriction[o[0]] for o in orbits}) == len(orbits)
        assert len(orbits) == len(fs.folded_rs.roots)


def test_orbit_heights_and_sizes():
    for parent, _ in FOLDS:
        fs, _ = folded(parent)
        rs = fs.parent
        d = fs.auto.order
        for orbit in root_orbits(fs):
            assert len(orbit) in (1, d)
            heights = {root_height(rs.roots[k]) for k in orbit}
            assert len(heights) == 1


def test_moving_roots_never_sum_with_their_images():
    for parent, _ in FOLDS:
        fs, _ = folded(parent)
        rs = fs.parent
        for alpha in rs.roots:
            image = permute_root(fs.auto, alpha)
            if image == alpha:
                continue
            for other in (image, permute_root(fs.auto, image)):
                if other == alpha:
                    continue
                assert not contains(rs, add(alpha, other))
                assert not contains(rs, add(alpha, negate(other)))


def test_folded_tables_match_direct_inductive():
    for parent, target in FOLDS:
        fs, tf = folded(parent)
        assert fs.folded_rs.cartan.label == target
        ti = cb.build_inductive(fs.folded_rs, fs.folded_eps)
        assert differential(tf, ti).passed


# C33 to C45 fold from A65 to A89, and B45 from D46: parents above
# MAX_ROOTS, which fold_source builds uncapped and which never build their
# sum_index; independent_table folds them onto the system passed in.
@pytest.mark.parametrize("label", ("C33", "C40", "C45", "B45"))
def test_folds_from_parents_above_the_root_cap_match_build_inductive(label):
    cm = cb.build_cartan(*cb.parse_type_label(label))
    rs = cb.generate_roots(cm)
    for eps in (cb.default_epsilon(cm), cb.default_epsilon(cm).flipped()):
        tf, meta = independent_table(rs, eps)
        assert root_count(*cb.parse_type_label(meta["parent"])) > MAX_ROOTS
        ti = cb.build_inductive(rs, eps)
        for name in ("pairs", "n", "cartan_action", "opposite"):
            assert np.array_equal(getattr(tf, name), getattr(ti, name)), (label, eps, name)


def test_folded_tables_pass_jacobi():
    for parent, _ in FOLDS:
        _, tf = folded(parent)
        report = cb.jacobi_sweep(tf)
        assert report.passed
        assert report.checked == tf.dimension ** 3


def test_folded_table_flipped_epsilon():
    rs = system("D4")
    eps = cb.default_epsilon(rs.cartan).flipped()
    auto = cb.standard_automorphism(rs.cartan)
    fs = fold(rs, eps, auto)
    assert fs.folded_eps.values == (1, -1)
    tf = cb.folded_table(fs)
    ti = cb.build_inductive(fs.folded_rs, fs.folded_eps)
    assert differential(tf, ti).passed


def test_q_methods_agree_on_all_parent_pairs():
    for parent in ("A3", "D4"):
        fs, _ = folded(parent)
        rs = fs.parent
        for alpha in rs.roots:
            for beta in rs.roots:
                if not contains(rs, add(alpha, beta)):
                    continue
                assert q_tilde_by_count(fs, alpha, beta) == q_tilde_by_case(fs, alpha, beta)


FOLD_CASES = [parent for parent, _ in FOLDS] + ["B2", "B3", "B4", "C2", "C3", "C4", "F4", "G2"]


def _fold_case(case: str) -> tuple[cb.RootSystem, cb.DiagramAutomorphism]:
    """(parent, automorphism): a FOLDS parent with its standard one, a target label by fold_source."""
    if case in dict(FOLDS):
        rs = system(case)
        return rs, cb.standard_automorphism(rs.cartan)
    cm, auto = cb.fold_source(*cb.parse_type_label(case))
    return system(cm.label), auto


def _representatives(fs: cb.FoldedSystem, x: int, y: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(alpha, beta): the first parent of x and the first member of y's orbit summing with it to a root."""
    rs = fs.parent
    alpha = rs.roots[fs.orbits[x][0]]
    beta = next(rs.roots[k] for k in fs.orbits[y] if k >= 0 and contains(rs, add(alpha, rs.roots[k])))
    return alpha, beta


@pytest.mark.parametrize("flipped", [False, True])
@pytest.mark.parametrize("case", FOLD_CASES)
def test_q_routes_match_scalar_references(case, flipped):
    # Every folded constant must be the parent sign of its representatives
    # times (q+1), and q by the string walk must be q by the orbit count
    # and by the orbit case analysis.
    rs, auto = _fold_case(case)
    eps = cb.default_epsilon(rs.cartan)
    fs = fold(rs, eps.flipped() if flipped else eps, auto)
    rs_f = fs.folded_rs
    tf = cb.folded_table(fs)
    assert np.array_equal(tf.pairs, np.argwhere(rs_f.sum_index >= 0))
    for (x, y), n in zip(tf.pairs.tolist(), tf.n.tolist()):
        alpha, beta = _representatives(fs, x, y)
        q = string_lengths(rs_f, rs_f.roots[x], rs_f.roots[y])[1]
        assert n == constant_sign(rs, fs.eps, alpha, beta) * (q + 1)
        assert q == q_tilde_by_count(fs, alpha, beta) == q_tilde_by_case(fs, alpha, beta)


def test_q_case_reference_flags_a_wrong_order():
    # Negative control of the case analysis: under an order-2 automorphism
    # of the triality system it must disagree with the string walk, which
    # the orbit count under triality matches.
    fs, _ = folded("D4")
    bad = dataclasses.replace(fs, auto=cb.fold_source("B", 3)[1])
    index = tuple_index(fs.folded_rs)
    alpha, beta = _representatives(fs, index[0, 1], index[1, 1])
    assert string_lengths(fs.folded_rs, (0, 1), (1, 1))[1] == q_tilde_by_count(fs, alpha, beta) == 1
    assert q_tilde_by_case(bad, alpha, beta) == 0


@pytest.mark.parametrize("root,error,message", [
    ((0, 1), RepresentativeNotFound, r"no representative pair for folded \(0, 1\) \+ \(1, 0\)"),
    ((1, 1), RepresentativeNotFound, r"no representative pair for folded \(1, 0\) \+ \(-1, -1\)"),
    ((2, 3), RepresentativeNotFound, r"no representative pair for folded \(1, 0\) \+ \(-2, -3\)"),
])
def test_folded_table_flags_swapped_restriction(root, error, message):
    # Restricting the parent orbit of a folded root to its negative and
    # back breaks the representative search; the first failing pair in
    # row-major order names the error (as the scalar loop that preceded
    # the array code did).
    fs, _ = folded("D4")
    x = tuple_index(fs.folded_rs)[root]
    y = int(fs.folded_rs.neg[x])
    swap = np.arange(len(fs.folded_rs.roots))
    swap[[x, y]] = y, x
    bad = dataclasses.replace(fs, orbits=fs.orbits[swap], restriction=swap[fs.restriction])
    with pytest.raises(error, match=f"^{message}$"):
        cb.folded_table(bad)


# SHA-256 of the independent_table JSON document, pinned from the per-pair scalar
# loop that the array code replaced; no golden file covers these ranks.
LARGE_FOLD_DIGESTS = {
    ("B16", "default"): "7f4db7cb4b49c68b5402f5e35dacc4690382bd25bea6209b3e930b15b0b43352",
    ("B16", "flipped"): "f8ec46fec4125d635702f1f73e76b457aca8031697af0e141a7d50adab043898",
    ("C16", "default"): "067cbe297261061fc43f5ac6b2ab3a989568f7478b9c85fd2e3b5b9ab040763f",
    ("C16", "flipped"): "e54d6e9480fb754ed12079a56b96df46f3e5fe1254d84ce81079e9355c3dc6df",
}


@pytest.mark.parametrize("label,epsilon", sorted(LARGE_FOLD_DIGESTS))
def test_large_folded_tables_are_byte_stable(label, epsilon):
    cm = cb.build_cartan(*cb.parse_type_label(label))
    eps = cb.default_epsilon(cm)
    table, meta = independent_table(cb.generate_roots(cm), eps.flipped() if epsilon == "flipped" else eps)
    data = to_json_bytes(document_from_table(table, "folded", meta))
    assert hashlib.sha256(data).hexdigest() == LARGE_FOLD_DIGESTS[label, epsilon]


# SHA-256 of repr((root_orbits, orbit_id, restriction)) from fold, pinned
# from the tuple orbit walk that the array lookups replaced: FOLDS parents
# by their standard automorphism, target labels by fold_source, both with
# the default epsilon.  The three tuples, the orbits sorted by their
# smallest index, the orbit number of each parent root and its folded
# root, are rebuilt from the arrays fold keeps.
FOLD_DIGESTS = {
    "A3": "dc88cf4511f56a7022977b6188f27fc5fbb4b7cc722aba9266005cd0c83fbf4d",
    "A5": "e1a79b549583f890d672e2490d6038236e9c2fb740262a201901f3abc5cdcf56",
    "D4": "93412c02143a6a4996bdb94cc1af5097cfa1b204cb6fd5439f8cf85eacadcbd4",
    "D5": "b42af8cd8535840dfb29691eb1a14af838d9fe53e7de939d538b699605b40d14",
    "E6": "e77b243ff6096d1c17b1e6ab0b7c2abbd2c74f6109bc3e74329a61e3ea649705",
    "B2": "8326d00d0bdb286019ce32736e7d51d1bb3f9e4f09d372e49662d9d3e5139271",
    "B3": "f0074ed966d12dc636e6c6a94cc8f702bb7214b0d7e33312626156eaccfd8078",
    "B4": "b42af8cd8535840dfb29691eb1a14af838d9fe53e7de939d538b699605b40d14",
    "C2": "dc88cf4511f56a7022977b6188f27fc5fbb4b7cc722aba9266005cd0c83fbf4d",
    "C3": "e1a79b549583f890d672e2490d6038236e9c2fb740262a201901f3abc5cdcf56",
    "C4": "b254f335dd2d8247ac9171db65dbb254142eb36b59823ab0165a695d3f434505",
    "B10": "f93f64b7ef6395194111d2f9cd3a48efa2c99da40fc0e5dc3db8b59e66a0bb85",
    "C10": "61a29836dc84ea62a1530931960c83d71bb7fb3e084a5aa795d74689ba2f0be9",
    "B16": "ce8663280c180f027b23ff0d5d3732f72be0278a8d06c1fc9694d03fbb4b5333",
    "C16": "cffb967d4805671227b11fc22ab626b92adeac3f67d01e41af4ee54a6fe01b8d",
}


@pytest.mark.parametrize("label", sorted(FOLD_DIGESTS))
def test_fold_orbits_and_restriction_are_pinned(label):
    if label in dict(FOLDS):
        fs, _ = folded(label)
    else:
        cm, auto = cb.fold_source(*cb.parse_type_label(label))
        fs = fold(system(cm.label), cb.default_epsilon(cm), auto)
    orbits = tuple(root_orbits(fs))
    orbit_id = np.searchsorted([o[0] for o in orbits], fs.orbits[fs.restriction, 0])
    data = repr((orbits, tuple(orbit_id.tolist()), tuple(fs.restriction.tolist()))).encode()
    assert hashlib.sha256(data).hexdigest() == FOLD_DIGESTS[label]


def _fold_case_or_identity(case: str) -> cb.FoldedSystem:
    """The default-epsilon fold of a FOLD_CASES entry, or of D4 under the identity for "identity"."""
    if case == "identity":
        rs = system("D4")
        auto = identity_automorphism(rs.cartan)
    else:
        rs, auto = _fold_case(case)
    return fold(rs, cb.default_epsilon(rs.cartan), auto)


@pytest.mark.parametrize("case", FOLD_CASES + ["identity"])
def test_fold_arrays_are_one_orbit_structure(case):
    fs = _fold_case_or_identity(case)
    rs, auto = fs.parent, fs.auto
    nr, nf = len(rs.roots), len(fs.folded_rs.roots)
    for a, shape in ((fs.restriction, (nr,)), (fs.orbits, (nf, auto.order))):
        assert a.dtype == np.intp and a.shape == shape and not a.flags.writeable
    members = fs.orbits[fs.orbits >= 0]
    assert np.array_equal(np.sort(members), np.arange(nr))
    for x, row in enumerate(fs.orbits.tolist()):
        cycle = [k for k in row if k >= 0]
        assert row == cycle + [-1] * (auto.order - len(cycle))
        assert cycle[0] == min(cycle)
        for t, k in enumerate(cycle):
            assert fs.restriction[k] == x
            assert permute_root(auto, rs.roots[k]) == rs.roots[cycle[(t + 1) % len(cycle)]]
    other = fold(rs, cb.default_epsilon(rs.cartan), auto)
    assert fs == fs and fs != other


@pytest.mark.parametrize("case", FOLD_CASES + ["identity"])
def test_coroot_orbit_sums_are_the_folded_coroots(case):
    report = check_coroot_orbit_sums(_fold_case_or_identity(case))
    assert report.passed and report.checked > 0


def test_coroot_orbit_sums_negative_controls():
    # Node orbits listed in swapped order read the orbit co-root sums in
    # the wrong folded coordinates.  A node orbit (3, 4, 2) next to
    # (1, 2, 4) keeps the representatives' columns and the order 3, so only
    # the sums differing across it fail.
    fs, _ = folded("D4")
    swapped = check_coroot_orbit_sums(dataclasses.replace(fs, auto=cb.DiagramAutomorphism(((1, 2, 4), (3,)))))
    assert swapped.violations[0] == ((0, 1), (0, 1), (1, 0))
    uneven = check_coroot_orbit_sums(dataclasses.replace(fs, auto=cb.DiagramAutomorphism(((3, 4, 2), (1, 2, 4)))))
    assert uneven.violations[0] == (((0, 1), (3, 4, 2)), "constant", (0, 1, 1))


def test_q_case_values():
    fs, _ = folded("D4")
    # fixed root involved: q = 0
    assert q_tilde_by_case(fs, (0, 0, 1, 0), (1, 0, 0, 0)) == 0
    # both orbits move, alpha+beta fixed by the automorphism: q = d-1 = 2
    assert add((1, 1, 1, 0), (0, 0, 0, 1)) == (1, 1, 1, 1)
    assert q_tilde_by_case(fs, (1, 1, 1, 0), (0, 0, 0, 1)) == 2
    assert q_tilde_by_count(fs, (1, 1, 1, 0), (0, 0, 0, 1)) == 2
    # both move, sum moves: q = 1 in the triality case
    assert q_tilde_by_case(fs, (1, 0, 0, 0), (0, 1, 1, 0)) == 1
    assert q_tilde_by_count(fs, (1, 0, 0, 0), (0, 1, 1, 0)) == 1
    # order 2: both move, sum moves: q = 0
    fs2, _ = folded("A3")
    assert q_tilde_by_case(fs2, (1, 0, 0), (0, 1, 0)) == 0


def test_triple_orbit_constant_has_magnitude_three():
    fs, tf = folded("D4")
    a = restrict_root(fs, (1, 1, 1, 0))
    b = restrict_root(fs, (0, 0, 0, 1))
    assert abs(constant(tf, a, b)) == 3


def test_orbit_pair_set_of_pinned_example():
    fs, _ = folded("D4")
    pairs = summing_orbit_pairs(fs, (1, 1, 1, 0), (0, -1, -1, 0))
    assert len(pairs) == 6
    eps = cb.default_epsilon(fs.parent.cartan)
    for a0, b0 in pairs:
        assert constant_sign(fs.parent, eps, a0, b0) == 1


def test_automorphism_invariance_of_parent_tables():
    for parent, _ in FOLDS:
        fs, _ = folded(parent)
        t = table(parent)
        assert check_automorphism_invariance(fs.parent, fs.auto, t).passed


def test_automorphism_invariance_negative_control():
    fs, _ = folded("D4")
    bad = with_flipped_constant(table("D4"))
    assert not check_automorphism_invariance(fs.parent, fs.auto, bad).passed


def test_orbit_sign_constancy():
    for parent in ("A5", "D4", "E6"):
        rs = system(parent)
        eps = cb.default_epsilon(rs.cartan)
        auto = cb.standard_automorphism(rs.cartan)
        assert check_orbit_sign_constancy(rs, eps, auto).passed


def test_orbit_sign_constancy_negative_control():
    # Constancy is driven by eps being constant on node orbits; breaking
    # that breaks the sign constancy on orbit pair sets.
    rs = system("A5")
    auto = cb.standard_automorphism(rs.cartan)
    bad_eps = cb.SignFunction((1, -1, 1, 1, -1))
    report = check_orbit_sign_constancy(rs, bad_eps, auto)
    assert not report.passed


def test_fold_preconditions():
    b2 = system("B2")
    with pytest.raises(FoldingPreconditionViolated):
        cb.fold(b2, cb.default_epsilon(b2.cartan), cb.DiagramAutomorphism(((1,), (2,))), system("B2"))
    a5 = system("A5")
    auto = cb.standard_automorphism(a5.cartan)
    with pytest.raises(FoldingPreconditionViolated):
        cb.fold(a5, cb.SignFunction((1, -1, 1, 1, -1)), auto, system("C3"))
    a4 = system("A4")
    reflection = cb.DiagramAutomorphism(((3,), (2, 4), (1, 5)))
    with pytest.raises(FoldingPreconditionViolated):
        cb.fold(a4, cb.default_epsilon(a4.cartan), reflection, system("C2"))


@pytest.mark.parametrize("label", ["B3", "C4", "F4", "G2"])
def test_independent_table_folds_onto_the_system_passed_in(label):
    rs = system(label)
    for eps in (cb.default_epsilon(rs.cartan), cb.default_epsilon(rs.cartan).flipped()):
        tf, meta = independent_table(rs, eps)
        assert tf.rs is rs and tf.eps == eps and meta["parent"] == cb.fold_source(*cb.parse_type_label(label))[0].label


def test_fold_onto_a_system_of_another_type_is_refused():
    # D4 by triality folds onto G2; B3 and G2 folded onto each other's
    # systems are the caller's error, named in one line.
    d4 = system("D4")
    for auto, wrong, right in ((cb.standard_automorphism(d4.cartan), "B3", "G2"),
                               (cb.fold_source("B", 3)[1], "G2", "B3")):
        with pytest.raises(FoldingPreconditionViolated, match=f"^this fold of D4 does not give {wrong}$"):
            cb.fold(d4, cb.default_epsilon(d4.cartan), auto, system(wrong))
        assert cb.fold(d4, cb.default_epsilon(d4.cartan), auto, system(right)).folded_rs is system(right)


def _with_rows(rs, rows: dict[int, tuple[int, ...]]):
    """A copy of a root system with the given coefficient rows replaced; its lookups and sum index follow."""
    coeffs = rs.coeffs.copy()
    for k, vector in rows.items():
        coeffs[k] = vector
    return dataclasses.replace(rs, coeffs=coeffs)


def _fold_onto_altered(target: str, make):
    """Fold the ``fold_source`` parent of ``target`` onto ``make(rs)``, rs the root system of ``target``."""
    cm, auto = cb.fold_source(*cb.parse_type_label(target))
    return cb.fold(system(cm.label), cb.default_epsilon(cm), auto, make(system(target)))


def test_fold_flags_a_restriction_that_is_not_a_folded_root():
    # The highest root of B4 doubled: its parent orbit restricts to nothing.
    def altered(rs):
        return _with_rows(rs, {rs.positive_count - 1: tuple(2 * rs.coeffs[rs.positive_count - 1])})

    with pytest.raises(InternalInconsistency,
                       match=r"^restriction \(2, 2, 2, 1\) of \(1, 1, 2, 2, 1\) is not a root of B4$"):
        _fold_onto_altered("B4", altered)


def test_fold_flags_restrictions_that_do_not_cover():
    # The roots of C2 are roots of G2 in the same coordinates, so every
    # restriction is found but half of G2's roots are never reached.  The
    # G2 roots carry C2's Cartan matrix, which the fold's matrix matches.
    with pytest.raises(InternalInconsistency, match="^restrictions do not cover the folded root system$"):
        _fold_onto_altered("C2", lambda rs: dataclasses.replace(system("G2"), cartan=rs.cartan))


def test_fold_flags_orbits_that_share_a_restriction():
    # In A3 the orbit {a1, a3} becomes {2a1 + a2 - a3, -a1 + a2 + 2a3}, with
    # negatives: still permuted by the symmetry, but restricting as a1 + a2.
    rs = system("A3")
    assert rs.roots[0] == (0, 0, 1) and rs.roots[2] == (1, 0, 0)
    bad = _with_rows(rs, {0: (-1, 1, 2), 2: (2, 1, -1), 6: (1, -1, -2), 8: (-2, -1, 1)})
    with pytest.raises(InternalInconsistency, match="^two distinct orbits share a restriction$"):
        cb.fold(bad, cb.default_epsilon(rs.cartan), cb.standard_automorphism(rs.cartan), system("C2"))


def test_fold_source_targets():
    for target, parent in (("B2", "D3"), ("B3", "D4"), ("B4", "D5"),
                           ("C2", "A3"), ("C3", "A5"), ("C4", "A7"),
                           ("G2", "D4"), ("F4", "E6")):
        family, rank = cb.parse_type_label(target)
        cm, auto = cb.fold_source(family, rank)
        assert cm.label == parent
    for bad in (("A", 3), ("D", 4), ("E", 6), ("G", 3)):
        with pytest.raises(IllegalType):
            cb.fold_source(*bad)


@pytest.mark.parametrize("target", ["B2", "B3", "B4", "B5", "B6", "C2", "C3", "C4", "C5", "C6", "F4", "G2"])
def test_fold_source_inverts_folded_type(target):
    family, rank = cb.parse_type_label(target)
    cm, auto = cb.fold_source(family, rank)
    assert folding.folded_type(cm, auto.order) == (family, rank)


def test_folded_type_needs_a_chain_of_rank_three():
    for label in ("A1", "A2", "A4"):
        with pytest.raises(FoldingPreconditionViolated, match=f"^no folded type for {label} with order 2$"):
            folding.folded_type(cb.build_cartan(*cb.parse_type_label(label)), 2)
    assert folding.folded_type(cb.build_cartan("A", 3), 2) == ("C", 2)


def test_identity_fold_round_trips():
    rs = system("A3")
    eps = cb.default_epsilon(rs.cartan)
    fs = fold(rs, eps, identity_automorphism(rs.cartan))
    assert fs.folded_rs.cartan.entries == rs.cartan.entries
    tf = cb.folded_table(fs)
    assert differential(tf, table("A3")).passed


def test_folded_coroot_example():
    # The highest folded root of G2 expands as 2 h~1 + h~2 over the
    # folded Cartan generators: the parent co-root of 1121 is (1,1,2,1)
    # and the node orbits are {3}, {1,2,4}.
    fs, tf = folded("D4")
    k = tuple_index(fs.folded_rs)[(2, 3)]
    assert tf.opposite[k].tolist() == [2, 1]
