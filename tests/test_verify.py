"""Verification oracles: jacobi sweep, audits, differentials, matrix model."""

from __future__ import annotations

import dataclasses
import itertools
import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import chevbasis as cb
from chevbasis.bracket import ENTRY_BOUND, BracketTable
from chevbasis.cartan import root_count
from chevbasis.cli import main
from chevbasis.closedform import closed_table
from chevbasis.folding import independent_table
from chevbasis.errors import ChevBasisError, IllegalType, IncompatibleTables
from chevbasis.report import VerificationReport
from chevbasis.serialize import document_from_table, from_json_bytes, table_from_document, to_json_bytes
from chevbasis.verify import (
    _generation_holds,
    _generator_sweep,
    _generators,
    _graded_sweep,
    _sl_n_matrices,
    _table_arrays,
    differential,
    sl_n_oracle,
)
from conftest import (
    DESK_TYPES,
    at_the_bound,
    constants,
    folded,
    system,
    table,
    tuple_index,
    with_constants,
    with_flipped_constant,
    with_flipped_opposite,
    with_flipped_vectors,
)
from reference import MatrixModel, add, flip_epsilon_table, root_first_sweep, simple_root

GOLDEN_G2 = Path(__file__).parent / "golden" / "g2.json"


# The dense sweep the graded ``jacobi_sweep`` replaced, kept as its reference:
# it evaluates all nr**3 root triples with r x nr x nr intermediates.
def _dense_table_arrays(t: BracketTable, dtype=np.int64):
    """Dense integer views of a table: constants, sums, actions, Cartan vectors.

    With ``dtype=object`` the views hold Python ints, and every sum the
    reference takes is exact.
    """
    rs = t.rs
    nr = len(rs.roots)
    nn = np.zeros((nr, nr), dtype=dtype)
    for (a, b), value in constants(t).items():
        nn[a, b] = value
    valid = rs.sum_index >= 0
    total = np.where(valid, rs.sum_index, nr)  # nr = sentinel "no root"
    neg = rs.neg
    act = np.array(t.cartan_action, dtype=dtype)
    w = t.opposite_brackets().astype(dtype)
    return nn, total, valid, neg, act, w


def _dense_jacobi_reference(t: BracketTable, max_recorded: int = 100, dtype=np.int64) -> VerificationReport:
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
    nn, total, valid, neg, act, w = _dense_table_arrays(t, dtype)
    nn_ext = np.concatenate([nn, np.zeros((nr, 1), dtype=dtype)], axis=1)
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



def _sites(report: VerificationReport) -> set:
    return {site for site, _, _ in report.violations}


@pytest.mark.parametrize("label", DESK_TYPES)
def test_graded_jacobi_matches_dense_reference(label):
    everything = 10 ** 9
    for flipped in (False, True):
        t = table(label, flipped)
        variants = [t, with_flipped_opposite(t), _with_action_bumped(t)]
        variants += [with_flipped_constant(t, site) for site in range(min(3, len(t.n)))]
        for v in variants:
            dense = _dense_jacobi_reference(v, max_recorded=everything)
            graded = _graded_sweep(v, max_recorded=everything)
            assert graded.violation_count == dense.violation_count
            assert len(_sites(graded)) == graded.violation_count
            assert _sites(graded) == _sites(dense)
            assert graded.checked == dense.checked == t.dimension ** 3


def test_jacobi_evaluates_exactly_the_triples_grading_leaves():
    # Count by brute force over root tuples the triples the sweep must
    # evaluate: one Cartan element with a linked root pair (sum a root or
    # zero), and root triples with a root or zero sum and a linked pair.
    for label in ("A1", "A3", "B3", "G2", "D4"):
        t = table(label)
        rs = t.rs
        zero = (0,) * rs.rank

        def linked(u, v):
            s = add(u, v)
            return s == zero or s in tuple_index(rs)

        pairs = sum(linked(u, v) for u in rs.roots for v in rs.roots)
        triples = 0
        for x in rs.roots:
            for y in rs.roots:
                for z in rs.roots:
                    s = add(add(x, y), z)
                    if (s == zero or s in tuple_index(rs)) and (
                            linked(y, z) or linked(z, x) or linked(x, y)):
                        triples += 1
        report = _graded_sweep(t)
        assert report.evaluated == 3 * rs.rank * pairs + triples, label
        assert report.evaluated + report.zero_by_grading == report.checked == t.dimension ** 3
        doc = report.to_json()
        assert (doc["evaluated"], doc["zero_by_grading"]) == (report.evaluated, report.zero_by_grading)
        assert f"{report.evaluated} evaluated, {report.zero_by_grading} zero by grading" in report.summary()


def _with_action_bumped(t: BracketTable) -> BracketTable:
    action = t.cartan_action.copy()
    action[0, -1] += 1
    return with_constants(t, cartan_action=action)


def _theta(rs) -> set[int]:
    """Indices of the highest root and its negative."""
    return {rs.positive_count - 1, 2 * rs.positive_count - 1}


def _antisymmetric_variants(t: BracketTable) -> list[BracketTable]:
    """Corruptions that keep the bracket antisymmetric, so the generator triples see them."""
    rs = t.rs
    variants = [_with_action_bumped(t), with_flipped_vectors(t, _theta(rs))]
    n = constants(t)
    keys = sorted(n)
    for a, b in sorted({keys[0], keys[len(keys) // 2]}) if keys else []:
        for factor in (-1, 2):
            variants.append(with_constants(t, {**n, (a, b): factor * n[(a, b)],
                                               (b, a): factor * n[(b, a)]}))
    for k in (0, rs.positive_count - 1):
        opposite = t.opposite.copy()
        opposite[[k, rs.neg[k]]] *= -1
        variants.append(with_constants(t, opposite=opposite))
    return variants


def _jacobi_variants(t: BracketTable) -> list[BracketTable]:
    """The clean table, the graded sweep's corruptions, stray keys, and antisymmetric corruptions."""
    neg0 = t.rs.neg[0]
    n = constants(t)
    variants = [t, with_flipped_opposite(t), _with_action_bumped(t),
                with_constants(t, {**n, (0, 0): 1}),
                with_constants(t, {**n, (0, neg0): 1, (neg0, 0): -1})]
    variants += [with_flipped_constant(t, site) for site in range(min(3, len(t.n)))]
    return variants + _antisymmetric_variants(t)


@pytest.mark.parametrize("label", DESK_TYPES)
def test_jacobi_fast_path_matches_graded_sweep(label):
    # Among these variants the fast path is taken exactly on the tables the
    # graded sweep passes; a table that keeps Jacobi but breaks the Chevalley
    # involution is refused too (test_jacobi_fast_path_needs_the_involution).
    for flipped in (False, True):
        for v in _jacobi_variants(table(label, flipped)):
            graded = _graded_sweep(v)
            holds, evaluated = _generator_parts(v)
            assert (holds and evaluated is not None) == graded.passed
            if graded.passed:
                report = cb.jacobi_sweep(v)
                assert report.passed and report.implied_by_generation > 0
                assert report.checked == report.evaluated + report.zero_by_grading + report.implied_by_generation


@pytest.mark.parametrize("label", ("A1", "A3", "B3", "G2", "D4", "F4"))
def test_jacobi_failing_reports_are_the_graded_sweeps(label):
    for flipped in (False, True):
        for v in _jacobi_variants(table(label, flipped)):
            report, graded = cb.jacobi_sweep(v), _graded_sweep(v)
            if not graded.passed:
                assert report.to_json() == graded.to_json()
                assert report.implied_by_generation == 0


@pytest.mark.parametrize("label", ("B3", "E6", "G2"))
def test_fallback_builds_the_dense_arrays_once(label, monkeypatch):
    # jacobi_sweep hands the arrays it built to the graded sweep it falls back to.
    calls = []
    dense = BracketTable.dense
    monkeypatch.setattr(BracketTable, "dense", lambda self: calls.append(self) or dense(self))
    bad = with_flipped_constant(table(label))
    report = cb.jacobi_sweep(bad)
    assert not report.passed and report.implied_by_generation == 0
    assert calls == [bad]


@pytest.mark.parametrize("label", ("E6", "F4", "A7", "D6"))
def test_graded_sweep_sites_do_not_depend_on_the_block(label, monkeypatch):
    # Sites are kept by placement across blocks, so the recorded ones, and
    # those left out under max_recorded, are those of a single block.
    for bad in (with_flipped_constant(table(label), 5), _with_action_bumped(table(label, True))):
        for max_recorded in (10, 100):
            reports = []
            for block in (1 << 4, 1 << 13, 1 << 20):
                monkeypatch.setattr(cb.verify, "JACOBI_BLOCK", block)
                reports.append(cb.jacobi_sweep(bad, max_recorded).to_json())
            assert reports[0]["violation_count"] > 10
            assert reports[0] == reports[1] == reports[2]


def _generator_parts(t: BracketTable):
    """Whether the fast path's preconditions hold, and the ordered positive simple generator triples evaluated, or None if one is non-zero."""
    arrays = _table_arrays(t)
    report = root_first_sweep(t, t.rs.simple, 10 ** 9)
    # A stray key is recorded once, and is no triple.
    vanish = report.violation_count == len(arrays[1])
    return _generation_holds(t, arrays), report.evaluated if vanish else None


def test_jacobi_needs_no_stray_key():
    # An antisymmetric pair of stray keys never enters a Jacobi sum, so the
    # generator triples all vanish; only the precondition keeps the graded
    # sweep's verdict.
    t = table("A3")
    neg0 = t.rs.neg[0]
    bad = with_constants(t, {**constants(t), (0, neg0): 1, (neg0, 0): -1})
    holds, evaluated = _generator_parts(bad)
    assert not holds and evaluated is not None
    assert not _graded_sweep(bad).passed
    report = cb.jacobi_sweep(bad)
    assert report.to_json() == _graded_sweep(bad).to_json() and report.implied_by_generation == 0


def test_jacobi_preconditions_each_detected():
    # One table per remaining precondition, failing it alone: the check
    # refuses it, and jacobi_sweep falls back to the graded sweep's report.
    # Unlike a stray key, each of these also makes a generator triple
    # non-zero, so no table here shows the precondition to be needed.
    t = table("A3")
    rs = t.rs
    gens = _generators(rs)
    n = constants(t)
    a, b = sorted(n)[0]
    asymmetric = with_constants(t, {**n, (a, b): -n[(a, b)]})
    # alpha_1 + alpha_2 is reached only through N(alpha_1, alpha_2) and N(alpha_2, alpha_1).
    ladder = {(gens[0], gens[1]), (gens[1], gens[0])}
    assert ladder <= n.keys()
    unreached = with_constants(t, {k: 0 if k in ladder else v for k, v in n.items()})
    opposite = t.opposite.copy()
    opposite[[gens[0], gens[rs.rank]]] = 0
    dependent = with_constants(t, opposite=opposite)
    for bad in (asymmetric, with_flipped_opposite(t), unreached, dependent):
        assert _generator_parts(bad) == (False, None)
        report = cb.jacobi_sweep(bad)
        assert report.implied_by_generation == 0
        assert report.to_json() == _graded_sweep(bad).to_json()
    # The ordered generator triples the fast path counts as settled by grading are the reference's.
    assert _generator_parts(t) == (True, rs.rank * t.dimension ** 2 - cb.jacobi_sweep(t).zero_by_grading)


def _with_vector_negated(t: BracketTable, k: int) -> BracketTable:
    """The same algebra in the basis with e_k negated alone, its Cartan vectors [e_{+-k}, e_{-+k}] with it.

    A basis change, so Jacobi still holds, but N(-a, -b) = -N(a, b) fails
    wherever one of a, b, a + b is k or -k and the others are not.
    """
    opposite = t.opposite.copy()
    opposite[[k, t.rs.neg[k]]] *= -1
    return with_constants(with_flipped_vectors(t, {k}), opposite=opposite)


@pytest.mark.parametrize("label", ("A3", "B3", "G2", "D4", "E6"))
def test_jacobi_fast_path_needs_the_involution(label):
    # With e_k negated alone the Chevalley involution is no automorphism, so
    # the triples of e_{alpha_i} do not give those of e_{-alpha_i}: the fast
    # path refuses, and the graded sweep over all triples passes the table.
    t = table(label)
    for k in (0, t.rs.positive_count - 1):
        v = _with_vector_negated(t, k)
        report = cb.jacobi_sweep(v)
        assert report.passed and report.implied_by_generation == 0, (label, k)
        assert report.to_json() == _graded_sweep(v).to_json()


def test_jacobi_pair_and_involution_checks_each_detected():
    # One table per check read at the stored pairs or the action columns,
    # failing it alone: N(a, b) and N(-a, -b) negated together break
    # antisymmetry only; e_0 negated alone breaks N(-a, -b) = -N(a, b) only;
    # one action bumped on the last (negative) root breaks alpha(h_i) =
    # -(-alpha)(h_i) only.  None moves a zero of the constants or changes a
    # Cartan vector beyond its sign, so the ladders and the rank check hold
    # as on the clean table.  The second keeps Jacobi, so its generator
    # triples all vanish; the others also make a generator triple non-zero.
    t = table("A3")
    clean, _, _, w_clean = _table_arrays(t)
    neg = t.rs.neg
    n = constants(t)
    a, b = sorted(n)[0]
    one_sided = with_constants(t, {**n, (a, b): -n[(a, b)], (neg[a], neg[b]): -n[(neg[a], neg[b])]})
    flipped, bumped = _with_vector_negated(t, 0), _with_action_bumped(t)
    for bad, kept in ((one_sided, (False, True, True)), (flipped, (True, False, True)),
                      (bumped, (True, True, False))):
        nn, stray, act, w = _table_arrays(bad)
        assert not len(stray) and np.array_equal(w[neg], -w)
        assert np.array_equal(nn != 0, clean != 0) and np.array_equal(np.abs(w), np.abs(w_clean))
        nn = nn[:, :-1]
        assert (np.array_equal(nn, -nn.T), np.array_equal(nn[np.ix_(neg, neg)], -nn),
                np.array_equal(act[:, neg], -act)) == kept
        report = cb.jacobi_sweep(bad)
        assert report.implied_by_generation == 0
        assert report.to_json() == _graded_sweep(bad).to_json()
    holds, evaluated = _generator_parts(flipped)
    assert not holds and evaluated is not None
    assert _generator_parts(one_sided) == _generator_parts(bumped) == (False, None)


def _evaluated_by_brute_force(t: BracketTable, firsts) -> int:
    """Count over root tuples the triples with a root of ``firsts`` first that grading leaves.

    They are (x, h_i, z) and (x, z, h_i) with z linked to x, and root
    triples (x, y, z) with a root or zero sum and a linked pair.
    """
    rs = t.rs
    zero = (0,) * rs.rank

    def linked(u, v):
        s = add(u, v)
        return s == zero or s in tuple_index(rs)

    evaluated = 0
    for x in firsts:
        evaluated += 2 * rs.rank * sum(linked(x, z) for z in rs.roots)
        for y in rs.roots:
            for z in rs.roots:
                s = add(add(x, y), z)
                if (s == zero or s in tuple_index(rs)) and (
                        linked(y, z) or linked(z, x) or linked(x, y)):
                    evaluated += 1
    return evaluated


def _unordered_by_brute_force(t: BracketTable) -> int:
    """Count over root tuples the unordered triples with a positive simple root that grading and alternation leave.

    They are {h_i, b, c} with b, c linked and one of them positive simple,
    and sets of three distinct roots with a root or zero sum, a linked pair
    and a positive simple member.  A triple with a repeated element is zero
    by grading or, as (a, a, b), by alternation.
    """
    rs = t.rs
    zero = (0,) * rs.rank
    simple = {simple_root(rs, i) for i in rs.cartan.nodes}

    def linked(u, v):
        s = add(u, v)
        return s == zero or s in tuple_index(rs)

    pairs = sum(linked(u, v) and bool({u, v} & simple) for u, v in itertools.combinations(rs.roots, 2))
    triples = 0
    for x, y, z in itertools.combinations(rs.roots, 3):
        s = add(add(x, y), z)
        if ((s == zero or s in tuple_index(rs)) and {x, y, z} & simple
                and (linked(y, z) or linked(z, x) or linked(x, y))):
            triples += 1
    return rs.rank * pairs + triples


def test_jacobi_fast_path_evaluates_exactly_the_generator_triples():
    # Each unordered triple with a positive simple generator e_{alpha_i} that
    # grading leaves is evaluated once; the ordered triples with e_{alpha_i}
    # first that grading settles are zero_by_grading, as the ordered sweep
    # counted them; the rest follow by the involution and by alternation.
    for label in ("A1", "A3", "B3", "G2", "D4"):
        t = table(label)
        rs = t.rs
        gens = [simple_root(rs, i) for i in rs.cartan.nodes]
        report = cb.jacobi_sweep(t)
        dim = t.dimension
        assert report.evaluated == _unordered_by_brute_force(t), label
        assert report.zero_by_grading == rs.rank * dim ** 2 - _evaluated_by_brute_force(t, gens), label
        assert report.checked == dim ** 3
        assert report.implied_by_generation == dim ** 3 - report.zero_by_grading - report.evaluated
        doc = report.to_json()
        assert doc["implied_by_generation"] == report.implied_by_generation
        assert f"{report.implied_by_generation} implied by generation" in report.summary()


# zero_by_grading of jacobi_sweep on the default tables of the verify_large
# benchmark types, as the ordered sweep on the positive simple generators
# counted it before the fast path used alternation.
PINNED_ZERO_BY_GRADING = {"E8": 442264, "A24": 9173784, "B10": 411124, "C10": 411124}


@pytest.mark.parametrize("label", sorted(PINNED_ZERO_BY_GRADING))
def test_jacobi_fast_path_zero_by_grading_is_the_ordered_count(label):
    rs = system(label)
    t = independent_table(rs, cb.default_epsilon(rs.cartan))[0]
    report = cb.jacobi_sweep(t)
    ordered = root_first_sweep(t, rs.simple)
    assert report.passed and ordered.passed
    assert report.zero_by_grading == ordered.zero_by_grading == PINNED_ZERO_BY_GRADING[label]
    assert report.evaluated < ordered.evaluated
    assert report.evaluated + report.implied_by_generation == t.dimension ** 3 - report.zero_by_grading


def _paired_corruptions(t: BracketTable, rng: np.random.Generator) -> BracketTable:
    """1 to 3 summing pairs (a, b), each with (b, a), (-a, -b) and (-b, -a), negated, doubled or zeroed together.

    The bracket stays antisymmetric and the Chevalley involution an
    automorphism of it, so J stays alternating.
    """
    neg = t.rs.neg
    original = constants(t)
    n = dict(original)
    keys = sorted(n)
    for k in rng.choice(len(keys), size=min(len(keys), int(rng.integers(1, 4))), replace=False):
        a, b = keys[k]
        factor = int(rng.choice([-1, 2, 0]))
        for key in ((a, b), (b, a), (neg[a], neg[b]), (neg[b], neg[a])):
            n[key] = factor * original[key]
    return with_constants(t, n)


@pytest.mark.parametrize("label", DESK_TYPES)
def test_jacobi_fast_path_verdict_is_the_ordered_sweeps(label):
    # On antisymmetric tables the unordered generator triples vanish exactly
    # when the ordered ones do, and jacobi_sweep passes on the fast path
    # exactly when the preconditions hold and they vanish, with the ordered
    # sweep's zero_by_grading; otherwise it returns the graded sweep's report.
    rng = np.random.default_rng(29)
    for flipped in (False, True):
        t = table(label, flipped)
        for v in [t] + [_paired_corruptions(t, rng) for _ in range(4)]:
            arrays = _table_arrays(v)
            holds, evaluated = _generator_parts(v)
            assert (_generator_sweep(v, arrays) is not None) == (evaluated is not None)
            report, graded = cb.jacobi_sweep(v), _graded_sweep(v)
            if holds and evaluated is not None:
                assert report.passed and report.implied_by_generation > 0
                assert report.zero_by_grading == v.rs.rank * v.dimension ** 2 - evaluated
            else:
                assert report.to_json() == graded.to_json()
            assert report.passed == graded.passed


def test_restricted_sweep_evaluates_exactly_the_triples_it_covers():
    # Every third root first: the ordered reference sweep covers len(first) *
    # dim**2 triples and evaluates those grading leaves, counted by brute force.
    for label in ("A1", "A3", "B3", "G2", "D4"):
        t = table(label)
        first = np.arange(0, len(t.rs.roots), 3)
        report = root_first_sweep(t, first)
        assert report.passed and report.implied_by_generation == 0
        assert report.checked == len(first) * t.dimension ** 2
        assert report.evaluated == _evaluated_by_brute_force(t, [t.rs.roots[k] for k in first]), label


def _first_root(site) -> int | None:
    """The root index that comes first in a Jacobi site's triple, None for a Cartan element or a stray key."""
    kind = site[0]
    if kind in ("eee", "eee0"):
        return site[1]
    return site[2] if kind[:3] in ("ehe", "eeh") else None


@pytest.mark.parametrize("label", ("A3", "B3", "G2", "D4"))
def test_restricted_sweeps_partition_the_root_first_triples(label):
    # Restricted to each residue class of the roots mod 3, the ordered
    # reference sweeps record only sites whose triple starts with a root of
    # the class; together they give the full sweep's root-first sites, and
    # their evaluated triples with those of (h_i, b, c) make up the full
    # sweep's.
    everything = 10 ** 9
    t = table(label)
    rs = t.rs
    linked = int(np.count_nonzero(rs.sum_index >= 0)) + len(rs.roots)
    for v in _jacobi_variants(t):
        full = _graded_sweep(v, everything)
        sites, evaluated = set(), rs.rank * linked
        for residue in range(3):
            first = np.arange(residue, len(rs.roots), 3)
            part = root_first_sweep(v, first, everything)
            triples = {site for site in _sites(part) if site[0] != "grading"}
            assert {_first_root(site) for site in triples} <= set(first.tolist())
            sites |= triples
            evaluated += part.evaluated
        assert sites == {site for site in _sites(full) if _first_root(site) is not None}
        assert evaluated == full.evaluated


def test_jacobi_fast_path_on_every_clean_table():
    tables = [table(label, flipped) for label in DESK_TYPES for flipped in (False, True)]
    tables += [folded(parent)[1] for parent in ("A3", "A5", "D4", "D5", "E6")]
    rs = system("E8")
    tables.append(closed_table(rs, cb.default_epsilon(rs.cartan)))
    for t in tables:
        report = cb.jacobi_sweep(t)
        assert report.passed and report.implied_by_generation > 0, t.rs.cartan.label
        assert report.checked == t.dimension ** 3


def test_jacobi_flags_constant_on_non_summing_pair():
    # Grading makes the sweep skip every pair whose roots do not sum to a
    # root, so a constant stored on such a pair must be flagged directly.
    t = table("A2")
    rs = t.rs
    a = 0
    for b in (a, rs.neg[a]):
        assert rs.sum_index[a, b] < 0
        bad = with_constants(t, {**constants(t), (a, b): 1})
        report = cb.jacobi_sweep(bad)
        assert not report.passed
        assert ("grading", a, b) in _sites(report)


def test_jacobi_sweep_memory_on_a24():
    # Beside the one nr x (nr + 1) dense view of the constants, the sweep's
    # working set stays small: below three and a half nr x nr int64 arrays
    # in all, well within the 64 MB bound.
    rs = system("A24")
    t = closed_table(rs, cb.default_epsilon(rs.cartan))
    tracemalloc.start()
    try:
        report = cb.jacobi_sweep(t)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.passed and report.checked == t.dimension ** 3
    assert peak < 64 * 2 ** 20, f"jacobi_sweep peak {peak / 2 ** 20:.1f} MB on A24"
    nr = len(rs.roots)
    assert peak < 3.5 * 8 * nr * nr, f"jacobi_sweep peak {peak / 2 ** 20:.1f} MB on A24"


def test_jacobi_fallback_memory_on_a24():
    # The fallback sweep takes the one-Cartan checks one node at a time and
    # the zero-sum triples JACOBI_BLOCK pairs at a time.
    rs = system("A24")
    bad = with_flipped_constant(closed_table(rs, cb.default_epsilon(rs.cartan)), 5)
    tracemalloc.start()
    try:
        report = cb.jacobi_sweep(bad)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert not report.passed and report.implied_by_generation == 0
    assert peak <= 20 * 2 ** 20, f"fallback jacobi_sweep peak {peak / 2 ** 20:.1f} MB on A24"


def test_default_verify_memory_on_a40(tmp_path, capsys):
    # Default verify of a default A40 file, parse included: sum_index is
    # int16 and the dense constants int32, so the traced peak stays below two
    # nr x nr int64 arrays (43 MB); an int32 sum_index with an int64 dense
    # view peaks at 52.5 MB.
    path = tmp_path / "a40.json"
    assert main(["gen", "--type", "A40", "--out", str(path)]) == 0
    tracemalloc.start()
    try:
        code = main(["verify", "--in", str(path)])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0, capsys.readouterr().out
    nr = root_count("A", 40)
    assert peak < 2 * 8 * nr * nr, f"verify peak {peak / 2 ** 20:.1f} MB on A40"


def test_entries_beyond_the_bound_are_refused_not_wrapped():
    # N + 2^32 reads as N in int32, so a table past ENTRY_BOUND must be
    # refused before any int32 view is built; the reader refuses such files.
    t = table("A2")
    n = constants(t)
    key = next(k for k in n if k[0] not in _generators(t.rs))
    wrapped = {**n, key: n[key] + 2 ** 32}
    assert np.array(list(wrapped.values())).astype(np.int32).tolist() == list(n.values())
    big = with_constants(t, wrapped)
    message = f"^constants has an entry whose absolute value is above {ENTRY_BOUND}$"
    for check in (cb.jacobi_sweep, sl_n_oracle, BracketTable.dense):
        with pytest.raises(ChevBasisError, match=message):
            check(big)
    # The audit reads the constants in int64 and reports the exact value.
    audit = cb.chevalley_audit(big)
    assert audit.violation_count == 1 and audit.violations[0][2] == n[key] + 2 ** 32
    for name in ("cartan_action", "opposite"):
        values = getattr(t, name).copy()
        values[0, 0] = -ENTRY_BOUND - 1
        with pytest.raises(ChevBasisError, match=f"^{name} has an entry whose absolute value is above"):
            cb.jacobi_sweep(with_constants(t, **{name: values}))


def test_jacobi_counts_every_ordered_triple():
    t = table("A1")
    report = cb.jacobi_sweep(t)
    assert report.passed
    assert report.checked == 3 ** 3


def test_jacobi_pass_various_types():
    for label in ("A2", "B2", "C3", "D4", "G2", "F4"):
        report = cb.jacobi_sweep(table(label))
        assert report.passed, (label, report.violations[:3])
        dim = table(label).dimension
        assert report.checked == dim ** 3


def test_jacobi_negative_controls():
    t = table("A2")
    for site in range(3):
        bad = with_flipped_constant(t, which=site)
        report = cb.jacobi_sweep(bad)
        assert not report.passed, site
        assert report.violations


def test_jacobi_flags_corrupted_cartan_vector():
    bad = with_flipped_opposite(table("A2"))
    assert not cb.jacobi_sweep(bad).passed


def _tuple_q(rs, a: int, b: int) -> int:
    """Backward string length q of roots[a] through roots[b], walked on coefficient tuples."""
    alpha, beta = rs.roots[a], rs.roots[b]
    return next(i for i in range(4) if tuple(y - (i + 1) * x for x, y in zip(alpha, beta)) not in tuple_index(rs))


# The per-pair audit that ``chevalley_audit`` replaced, kept as its reference:
# it walks each string on coefficient tuples.
def _scalar_chevalley_reference(t: BracketTable) -> VerificationReport:
    report = VerificationReport(suite="chevalley")
    rs = t.rs
    n = constants(t)
    for (a, b), value in n.items():
        report.checked += 1
        if rs.sum_index[a, b] < 0:
            report.record((rs.roots[a], rs.roots[b]), None, value)
            continue
        q = _tuple_q(rs, a, b)
        if abs(value) != q + 1:
            report.record((rs.roots[a], rs.roots[b]), q + 1, value)
    for a, b in np.argwhere(rs.sum_index >= 0).tolist():
        report.checked += 1
        if (a, b) not in n:
            report.record((rs.roots[a], rs.roots[b]), _tuple_q(rs, a, b) + 1, None)
    for k, alpha in enumerate(rs.roots):
        report.checked += 1
        coroot, got = tuple(rs.coroots[k].tolist()), tuple(t.opposite[k].tolist())
        if got != coroot:
            report.record(alpha, coroot, got)
    for (a, b), value in n.items():
        alpha = rs.roots[a]
        if sum(map(abs, alpha)) != 1 or rs.sum_index[a, b] < 0:
            continue
        report.checked += 1
        node = [abs(c) for c in alpha].index(1) + 1
        expected = sum(alpha) * t.eps.value(node) * (_tuple_q(rs, a, b) + 1)
        if value != expected:
            report.record((alpha, rs.roots[b]), expected, value)
    for i in rs.cartan.nodes:
        for k, alpha in enumerate(rs.roots):
            report.checked += 1
            expected = sum(a * m for a, m in zip(rs.cartan.entries[i - 1], alpha))
            if t.cartan_action[i - 1][k] != expected:
                report.record(("action", i, alpha), expected, int(t.cartan_action[i - 1][k]))
    return report


@pytest.mark.parametrize("label", DESK_TYPES)
def test_chevalley_audit_matches_scalar_reference(label):
    for flipped in (False, True):
        t = table(label, flipped)
        neg0 = t.rs.neg[0]
        n = constants(t)
        variants = [t, with_flipped_opposite(t),
                    with_constants(t, {**n, (0, 0): 1}),
                    with_constants(t, {**n, (0, neg0): 1})]
        variants += [with_flipped_constant(t, site) for site in range(min(3, len(n)))]
        if n:
            key = sorted(n)[0]
            variants.append(with_constants(t, {**n, key: 2 * n[key]}))
            variants.append(with_constants(t, {k: v for k, v in n.items() if k != key}))
        variants.append(with_flipped_vectors(t, _theta(t.rs)))
        variants.append(with_flipped_vectors(t, {0, neg0}))
        variants.append(with_constants(t, eps=t.eps.flipped()))
        variants.append(_with_action_bumped(t))
        for v in variants:
            new, old = cb.chevalley_audit(v), _scalar_chevalley_reference(v)
            assert (new.checked, new.violation_count) == (old.checked, old.violation_count)
            assert new.violations == old.violations
        assert cb.chevalley_audit(t).passed


@pytest.mark.parametrize("label", ("A3", "E6", "G2", "B4"))
def test_chevalley_audit_flags_non_canonical_generator_rows(tmp_path, label):
    # Negating e_theta and e_{-theta}, or e_{alpha_1} and e_{-alpha_1}, gives
    # another Chevalley basis of the same algebra: Jacobi and |N| = q+1 still
    # hold, but the generator rows lose their canonical signs.  So does a
    # file whose epsilon is flipped while its constants are not.
    t = table(label)
    rs = t.rs
    simple = _generators(rs)[0]
    variants = [with_flipped_vectors(t, _theta(rs)),
                with_flipped_vectors(t, {int(simple), rs.neg[int(simple)]})]
    docs = [document_from_table(v, "inductive") for v in variants]
    docs.append({**document_from_table(t, "inductive"), "epsilon": list(t.eps.flipped().values)})
    for k, doc in enumerate(docs):
        path = tmp_path / f"{label}-{k}.json"
        path.write_bytes(to_json_bytes(doc))
        assert main(["verify", "--in", str(path), "--suite", "jacobi"]) == 0
        assert main(["verify", "--in", str(path), "--suite", "chevalley"]) == 1
    assert all(constants(v) != constants(t) for v in variants)


def test_chevalley_audit_passes_closed_and_folded_tables():
    for label in ("A4", "D5", "E6", "E7"):
        rs = system(label)
        for eps in (cb.default_epsilon(rs.cartan), cb.default_epsilon(rs.cartan).flipped()):
            assert cb.chevalley_audit(closed_table(rs, eps)).passed, label
    for parent in ("A3", "A5", "D4", "D5", "E6"):
        assert cb.chevalley_audit(folded(parent)[1]).passed, parent


def test_chevalley_audit_pass():
    for label in ("A3", "B3", "G2", "E6"):
        report = cb.chevalley_audit(table(label))
        assert report.passed


def test_chevalley_audit_catches_dropped_pair(tmp_path):
    doc = json.loads(GOLDEN_G2.read_bytes())
    a, b, _, _ = doc["constants"].pop(0)
    report = cb.chevalley_audit(table_from_document(doc))
    assert not report.passed
    rs = system("G2")
    assert _sites(report) == {(rs.roots[a], rs.roots[b]), (rs.roots[b], rs.roots[a])}
    path = tmp_path / "dropped.json"
    path.write_text(json.dumps(doc))
    assert main(["verify", "--in", str(path), "--suite", "chevalley"]) == 1


def test_chevalley_audit_flags_constant_on_non_summing_pair():
    # A stored key (a, a) or (a, -a) has no root string; the audit must
    # record it, not raise from the string walk.
    rs = system("A2")
    t = closed_table(rs, cb.default_epsilon(rs.cartan))
    for b in (0, rs.neg[0]):
        bad = with_constants(t, {**constants(t), (0, b): 1})
        report = cb.chevalley_audit(bad)
        assert not report.passed
        assert report.violations == [((rs.roots[0], rs.roots[b]), None, 1)]


def test_chevalley_audit_catches_magnitude_and_coroot():
    t = table("D4")
    n = constants(t)
    key = sorted(n)[0]
    doubled = with_constants(t, {**n, key: 2 * n[key]})
    assert not cb.chevalley_audit(doubled).passed
    for site in range(3):
        assert not cb.chevalley_audit(with_flipped_opposite(t, which=site)).passed


def test_differential_identity():
    t = table("D4")
    report = differential(t, t)
    assert report.passed


def test_differential_flags_epsilon_flip():
    t = table("D4")
    assert not differential(t, flip_epsilon_table(t)).passed


def test_differential_negative_controls():
    t = table("C3")
    for site in range(3):
        bad = with_flipped_constant(t, which=site)
        report = differential(t, bad)
        assert not report.passed


# (checked, violations) of differential(t, bad) and differential(bad, t) for
# C3, as recorded from the root-map form of ``differential`` it replaced.
PINNED_C3_DIFFERENTIALS = {
    "constant": [(192, [(((0, 0, 1), (0, 1, 0)), 1, -1)]),
                 (192, [(((0, 0, 1), (0, 1, 0)), -1, 1)])],
    "opposite": [(192, [((0, 0, 1), (0, 0, -1), (0, 0, 1))]),
                 (192, [((0, 0, 1), (0, 0, 1), (0, 0, -1))])],
    "action": [(192, [(("action", 1, (-1, -2, -2)), 0, 1)]),
               (192, [(("action", 1, (-1, -2, -2)), 1, 0)])],
    "dropped": [(192, [(((0, 0, 1), (0, 1, 0)), 1, None)]),
                (192, [(((0, 0, 1), (0, 1, 0)), None, 1)])],
    "added": [(193, [(((0, 0, 1), (0, 0, 1)), None, 1)]),
              (193, [(((0, 0, 1), (0, 0, 1)), 1, None)])],
}


def test_differential_reports_pinned():
    t = table("C3")
    n = constants(t)
    first = sorted(n)[0]
    variants = {
        "constant": with_flipped_constant(t),
        "opposite": with_flipped_opposite(t),
        "action": _with_action_bumped(t),
        "dropped": with_constants(t, {k: v for k, v in n.items() if k != first}),
        "added": with_constants(t, {**n, (0, 0): 1}),
    }
    for name, bad in variants.items():
        got = [differential(t, bad), differential(bad, t)]
        assert [(r.checked, r.violations) for r in got] == PINNED_C3_DIFFERENTIALS[name], name


def test_differential_reports_a_pair_stored_twice_once():
    # A stray pair stored twice, and a summing pair stored twice, in t2: the
    # stray one is one pair only t2 stores, the summing one is not.
    t = table("B3")
    pairs = np.concatenate([t.pairs, [[0, 0], [0, 0]], t.pairs[:1]])
    odd = dataclasses.replace(t, pairs=pairs, n=np.concatenate([t.n, [7, 7], t.n[:1]]))
    alpha = t.rs.roots[0]
    report = differential(t, odd)
    assert report.violations == [((alpha, alpha), None, 7)]
    assert report.checked == differential(t, t).checked + 1


def test_differential_incompatible():
    with pytest.raises(IncompatibleTables):
        differential(table("A2"), table("A3"))
    with pytest.raises(IncompatibleTables):
        differential(table("B3"), table("C3"))  # same size, different roots


def _scalar_differential_reference(t1: BracketTable, t2: BracketTable) -> VerificationReport:
    """``differential`` on Python ints, pair by pair."""
    report = VerificationReport(suite="differential")
    rs = t1.rs
    n1, n2 = constants(t1), constants(t2)
    for (a, b), value in n1.items():
        if n2.get((a, b)) != value:
            report.record((rs.roots[a], rs.roots[b]), value, n2.get((a, b)))
    extra = sorted(n2.keys() - n1.keys())
    for a, b in extra:
        report.record((rs.roots[a], rs.roots[b]), None, n2[(a, b)])
    report.checked = len(n1) + len(extra) + len(rs.roots) + t1.cartan_action.size
    w1, w2 = ([tuple(-c if sum(alpha) % 2 else c for c in t.opposite[k].tolist()) for k, alpha in enumerate(rs.roots)]
              for t in (t1, t2))
    for k, alpha in enumerate(rs.roots):
        if w1[k] != w2[k]:
            report.record(alpha, w1[k], w2[k])
    for i, row in enumerate(t1.cartan_action.tolist()):
        for k, value in enumerate(row):
            if value != t2.cartan_action[i][k]:
                report.record(("action", i + 1, rs.roots[k]), value, int(t2.cartan_action[i][k]))
    return report


def _at_the_bound(t: BracketTable) -> dict[str, BracketTable]:
    """The tables of :func:`conftest.at_the_bound`, read back from their files."""
    return {name: table_from_document(from_json_bytes(to_json_bytes(document_from_table(v, "inductive"))))
            for name, v in at_the_bound(t).items()}


@pytest.mark.parametrize("label", ("A1", "A2", "B2", "G2", "B3"))
def test_reports_at_the_entry_bound_are_exact(label):
    # Products of two entries reach 2^40 and a Jacobi sum 3(r + 1) of them;
    # every report must equal its reference on Python ints.
    everything = 10 ** 9
    t = table(label)
    for name, v in _at_the_bound(t).items():
        assert max(np.abs(v.n).max(initial=0), np.abs(v.cartan_action).max(),
                   np.abs(v.opposite).max()) == cb.serialize.ENTRY_BOUND
        exact = _dense_jacobi_reference(v, everything, dtype=object)
        graded = _graded_sweep(v, everything)
        assert graded.violation_count == exact.violation_count
        assert _sites(graded) == _sites(exact) and len(_sites(graded)) == graded.violation_count
        # Only A1 with its signs kept stays a Lie algebra; elsewhere the fast
        # path must refuse, on "signs" by a non-zero generator triple.
        holds, evaluated = _generator_parts(v)
        assert holds or name == "full"
        assert (holds and evaluated is not None) == exact.passed == (v.rs.rank == 1 and name == "signs")
        report = cb.jacobi_sweep(v)
        if exact.passed:
            assert report.passed and report.zero_by_grading == v.rs.rank * v.dimension ** 2 - evaluated
        else:
            assert report.to_json() == _graded_sweep(v).to_json() and report.implied_by_generation == 0
        assert cb.chevalley_audit(v).to_json() == _scalar_chevalley_reference(v).to_json()
        for pair in ((t, v), (v, t)):
            assert differential(*pair).to_json() == _scalar_differential_reference(*pair).to_json()


def test_matrix_model_basics():
    rs = system("A2")
    eps = cb.default_epsilon(rs.cartan)
    model = MatrixModel(3, eps)
    assert model.eps_ext == (1, -1, 1)
    assert model.root_pair((1, 0)) == (1, 2)
    assert model.root_pair((1, 1)) == (1, 3)
    assert model.root_pair((-1, -1)) == (3, 1)
    m = model.root_matrix((1, 0))
    assert m[0, 1] == eps.value(1) and np.count_nonzero(m) == 1


@pytest.mark.parametrize("alpha", [(0, 0, 0), (1, 0, 1), (1, -1, 0), (2, 0, 0), (1, 1, -1)])
def test_matrix_model_rejects_non_roots(alpha):
    # A root of type A is +-(alpha_i + ... + alpha_j): one sign, a contiguous support of +-1.
    model = MatrixModel(4, cb.default_epsilon(system("A3").cartan))
    with pytest.raises(ValueError):
        model.root_pair(alpha)


@pytest.mark.parametrize("n", range(2, 9))
def test_sl_n_matrices_match_the_model(n):
    rs = system(f"A{n - 1}")
    for eps in (cb.default_epsilon(rs.cartan), cb.default_epsilon(rs.cartan).flipped()):
        model = MatrixModel(n, eps)
        mats, cartans = _sl_n_matrices(rs, eps)
        assert np.array_equal(mats, np.stack([model.root_matrix(alpha) for alpha in rs.roots]))
        assert np.array_equal(cartans, np.stack([model.cartan_matrix(k) for k in range(1, n)]))


def test_sl_n_oracle_all_sizes():
    for n in range(2, 9):
        report = sl_n_oracle(table(f"A{n - 1}"))
        assert report.passed, (n, report.violations[:3])


def test_sl_n_oracle_flipped_epsilon():
    assert sl_n_oracle(table("A3", True)).passed


def _scalar_sl_n_reference(table: BracketTable) -> VerificationReport:
    """The per-pair form of ``sl_n_oracle``: two matrix products and one comparison per basis pair."""
    rs = table.rs
    n = rs.rank + 1
    model = MatrixModel(n, table.eps)
    mats = [model.root_matrix(alpha) for alpha in rs.roots]
    cartans = [model.cartan_matrix(k) for k in range(1, n)]
    w = table.opposite_brackets()
    nn = table.dense()
    report = VerificationReport(suite="sl_n")
    for a, alpha in enumerate(rs.roots):
        sums = rs.sum_index[a].tolist()
        for b, beta in enumerate(rs.roots):
            comm = mats[a] @ mats[b] - mats[b] @ mats[a]
            if b == rs.neg[a]:
                expected = sum(c * h for c, h in zip(w[a].tolist(), cartans))
            elif sums[b] >= 0:
                expected = nn[a, b] * mats[sums[b]]
            else:
                expected = np.zeros((n, n), dtype=np.int64)
            report.checked += 1
            if not np.array_equal(comm, expected):
                report.record((alpha, beta), expected.tolist(), comm.tolist())
    for i in range(1, n):
        for b, beta in enumerate(rs.roots):
            comm = cartans[i - 1] @ mats[b] - mats[b] @ cartans[i - 1]
            expected = table.cartan_action[i - 1, b] * mats[b]
            report.checked += 1
            if not np.array_equal(comm, expected):
                report.record((i, beta), expected.tolist(), comm.tolist())
    return report


def _with_action_negated(t: BracketTable) -> BracketTable:
    """A copy of a table with the first non-zero entry of alpha(h_1) negated."""
    action = t.cartan_action.copy()
    action[0, np.flatnonzero(action[0])[0]] *= -1
    return with_constants(t, cartan_action=action)


def _sl_n_corruptions(t: BracketTable) -> dict[str, BracketTable]:
    """One corruption per branch of the oracle: a + b a root (if any), b = -a, and the Cartan block."""
    bad = {"constant": with_flipped_constant(t)} if len(t.n) else {}
    return {**bad, "opposite": with_flipped_opposite(t), "action": _with_action_negated(t)}


@pytest.mark.parametrize("rank", range(1, 8))
def test_sl_n_oracle_matches_scalar_reference(rank):
    for flipped in (False, True):
        t = table(f"A{rank}", flipped)
        for v in [t, *_sl_n_corruptions(t).values()]:
            assert sl_n_oracle(v).to_json() == _scalar_sl_n_reference(v).to_json()


def test_sl_n_oracle_negative_controls():
    t = table("A3")
    for site in range(3):
        bad = with_flipped_constant(t, which=site)
        assert not sl_n_oracle(bad).passed
    sites = {"constant": ((0, 0, 1), (0, 1, 0)),
             "opposite": ((0, 0, 1), (0, 0, -1)),
             "action": (1, (0, 1, 0))}
    for name, bad in _sl_n_corruptions(t).items():
        report = sl_n_oracle(bad)
        assert report.checked == 12 * 12 + 3 * 12
        assert (report.violation_count, report.violations[0][0]) == (1, sites[name]), name
    for label in ("B2", "A8"):
        with pytest.raises(IllegalType):
            sl_n_oracle(table(label))


def test_sl2_cartan_bracket():
    # [e_alpha, e_{-alpha}] = -h for the height-1 root of sl_2.
    t = table("A1")
    assert t.opposite_brackets()[0].tolist() == [-1]
    report = sl_n_oracle(t)
    assert report.passed
