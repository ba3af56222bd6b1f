"""Acceptance suite: one test per criterion, exact arithmetic throughout.

Every check is at tolerance zero.  Each test prints a single PASS line;
run with `pytest tests/test_acceptance.py -v -s` to see them.
"""

from __future__ import annotations

import time

import chevbasis as cb
from chevbasis.verify import differential, sl_n_oracle
from conftest import (
    DESK_TYPES,
    FOLDS,
    SIMPLY_LACED_TYPES,
    constant,
    constants,
    folded,
    found_string_lengths,
    system,
    table,
    tuple_index,
    with_flipped_constant,
    with_flipped_opposite,
)
from reference import (
    add,
    check_automorphism_invariance,
    check_negation_symmetry,
    closed_constant,
    constant_sign,
    negate,
    q_tilde_by_case,
    q_tilde_by_count,
    restrict_root,
    root_orbits,
    simple_root,
    sub,
    summing_orbit_pairs,
)


def test_criterion_1_canonical_relations():
    """Defining relations of the canonical basis hold for every table."""
    start = time.perf_counter()
    for label in DESK_TYPES:
        for flipped in (False, True):
            t = table(label, flipped)
            rs = t.rs
            eps = t.eps
            for i in rs.cartan.nodes:
                si = simple_root(rs, i)
                for alpha in rs.roots:
                    if alpha in (si, negate(si)):
                        continue
                    up = add(si, alpha)
                    down = sub(alpha, si)
                    p, q = found_string_lengths(rs, si, alpha)
                    if up in tuple_index(rs):
                        assert eps.value(i) * constant(t, si, alpha) == q + 1, (label, i, alpha)
                    if down in tuple_index(rs):
                        assert -eps.value(i) * constant(t, negate(si), alpha) == p + 1
            for k, alpha in enumerate(rs.roots):
                assert tuple(t.opposite[k].tolist()) == tuple(rs.coroots[k].tolist())
            for i in rs.cartan.nodes:
                for k, alpha in enumerate(rs.roots):
                    assert t.cartan_action[i - 1][k] == rs.cartan_action[i - 1, k]
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"canonical relations took {elapsed:.1f}s"
    print(f"\nACCEPTANCE 1 (canonical relations, {len(DESK_TYPES) * 2} tables, "
          f"{elapsed:.1f}s): PASS")


def test_criterion_2_jacobi_sweep():
    """Full Jacobi identity over the adjoint basis for every table."""
    e8_time = 0.0
    total = 0
    for label in DESK_TYPES:
        for flipped in (False, True):
            t = table(label, flipped)
            start = time.perf_counter()
            report = cb.jacobi_sweep(t)
            elapsed = time.perf_counter() - start
            if label == "E8":
                e8_time = max(e8_time, elapsed)
            assert report.passed, (label, flipped, report.violations[:3])
            assert report.checked == t.dimension ** 3
            total += report.checked
    assert e8_time < 60.0, f"E8 sweep took {e8_time:.1f}s"
    print(f"\nACCEPTANCE 2 (jacobi, {total} triples, E8 {e8_time:.1f}s): PASS")


def test_criterion_3_closed_formula_reproduction():
    """Closed-form constants equal inductive constants, simply laced."""
    mismatches = 0
    pairs = 0
    for label in SIMPLY_LACED_TYPES:
        rs = system(label)
        for flipped in (False, True):
            t = table(label, flipped)
            for (a, b), value in constants(t).items():
                pairs += 1
                if closed_constant(rs, t.eps, rs.roots[a], rs.roots[b]) != value:
                    mismatches += 1
    assert mismatches == 0
    print(f"\nACCEPTANCE 3 (closed formula, {pairs} pairs, 0 mismatches): PASS")


def test_criterion_4_folding_reproduction():
    """Folded tables equal direct inductive tables; q by count = q by case."""
    for parent, target in FOLDS:
        fs, tf = folded(parent)
        assert fs.folded_rs.cartan.label == target
        direct = cb.build_inductive(fs.folded_rs, fs.folded_eps)
        assert differential(tf, direct).passed, (parent, target)
        # flipped epsilon side
        rs = system(parent)
        eps_f = cb.default_epsilon(rs.cartan).flipped()
        fs_f = cb.fold(rs, eps_f, fs.auto, fs.folded_rs)
        tf_f = cb.folded_table(fs_f)
        direct_f = cb.build_inductive(fs_f.folded_rs, fs_f.folded_eps)
        assert differential(tf_f, direct_f).passed, (parent, target)
        # the two q computations agree on every summing parent pair
        prs = fs.parent
        for alpha in prs.roots:
            for beta in prs.roots:
                if add(alpha, beta) in tuple_index(rs):
                    assert q_tilde_by_count(fs, alpha, beta) == q_tilde_by_case(fs, alpha, beta)
    print(f"\nACCEPTANCE 4 (folding, {len(FOLDS)} maps, both signs): PASS")


def test_criterion_5_pinned_point_values():
    """Orbit table of triality, the pinned sign value, simple-root signs."""
    fs, _ = folded("D4")
    rows = {
        ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 0, 1)): (0, 1),
        ((0, 0, 1, 0),): (1, 0),
        ((1, 0, 1, 0), (0, 1, 1, 0), (0, 0, 1, 1)): (1, 1),
        ((1, 1, 1, 0), (1, 0, 1, 1), (0, 1, 1, 1)): (1, 2),
        ((1, 1, 1, 1),): (1, 3),
        ((1, 1, 2, 1),): (2, 3),
    }
    rs = fs.parent
    positive_orbits = [o for o in root_orbits(fs) if all(k < rs.positive_count for k in o)]
    assert len(positive_orbits) == 6
    for members, image in rows.items():
        indices = {tuple_index(rs)[m] for m in members}
        assert any(set(o) == indices for o in positive_orbits), members
        for m in members:
            assert restrict_root(fs, m) == image

    eps = cb.default_epsilon(rs.cartan)
    alpha, beta = (1, 1, 1, 0), (0, -1, -1, 0)
    assert constant_sign(rs, eps, alpha, beta) == 1
    pairs = summing_orbit_pairs(fs, alpha, beta)
    assert len(pairs) == 6
    assert all(constant_sign(rs, eps, a0, b0) == 1 for a0, b0 in pairs)

    checked = 0
    for label in SIMPLY_LACED_TYPES:
        srs = system(label)
        seps = cb.default_epsilon(srs.cartan)
        for i in srs.cartan.nodes:
            si = simple_root(srs, i)
            for b in srs.roots:
                if b != negate(si) and add(si, b) in tuple_index(srs):
                    assert constant_sign(srs, seps, si, b) == seps.value(i)
                    checked += 1
    print(f"\nACCEPTANCE 5 (pinned values; {checked} simple-root signs): PASS")


def test_criterion_6_matrix_oracle():
    """Trace-zero matrix commutators reproduce the tables for n = 2..8."""
    from reference import MatrixModel

    for n in range(2, 9):
        report = sl_n_oracle(table(f"A{n - 1}"))
        assert report.passed, (n, report.violations[:3])
    # the boxed pattern: N(delta_i - delta_j, delta_j - delta_k) = -eps(j)
    for n in (3, 5, 8):
        label = f"A{n - 1}"
        rs = system(label)
        t = table(label)
        model = MatrixModel(n, t.eps)
        for (a, b), value in constants(t).items():
            i, j = model.root_pair(rs.roots[a])
            j2, k = model.root_pair(rs.roots[b])
            if j == j2:
                assert value == -model.eps_ext[j - 1]
    print("\nACCEPTANCE 6 (matrix oracle n=2..8): PASS")


def test_criterion_7_symmetries():
    """Antisymmetry, opposition, automorphism equivariance, sign flip."""
    for label in DESK_TYPES:
        for flipped in (False, True):
            t = table(label, flipped)
            rs = t.rs
            n = constants(t)
            for (a, b), value in n.items():
                assert n[(b, a)] == -value
                assert n[(rs.neg[a], rs.neg[b])] == -value
            assert check_negation_symmetry(t).passed
        plain, other = table(label), table(label, True)
        assert constants(other) == {k: -v for k, v in constants(plain).items()}
    for parent, _ in FOLDS:
        fs, _ = folded(parent)
        assert check_automorphism_invariance(fs.parent, fs.auto, table(parent)).passed
    print("\nACCEPTANCE 7 (symmetry sweeps): PASS")


def test_criterion_8_negative_controls():
    """Each suite flags corrupted tables at three distinct injection sites."""
    base_jacobi = table("A2")
    for site in range(3):
        assert not cb.jacobi_sweep(with_flipped_constant(base_jacobi, site)).passed
    base_chev = table("D4")
    for site in range(3):
        assert not cb.chevalley_audit(with_flipped_opposite(base_chev, site)).passed
    base_diff = table("C3")
    for site in range(3):
        bad = with_flipped_constant(base_diff, site)
        assert not differential(base_diff, bad).passed
    base_sl = table("A3")
    for site in range(3):
        bad = with_flipped_constant(base_sl, site)
        assert not sl_n_oracle(bad).passed
    print("\nACCEPTANCE 8 (negative controls, 3 sites x 4 suites): PASS")
