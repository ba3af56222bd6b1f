"""The public surface: what ``chevbasis`` exports, and what it no longer holds."""

from __future__ import annotations

import dataclasses
import importlib
import inspect
import pkgutil

import chevbasis as cb

# The scalar references on coefficient tuples live in tests/reference.py;
# the package keeps one array path per job.
REFERENCE_NAMES = (
    "_require_summing_pair", "constant_sign", "constant_sign_reduced", "closed_constant", "check_split_identity",
    "permute_root", "root_orbit", "restrict_root", "summing_orbit_pairs", "q_tilde_by_count", "q_tilde_by_case",
    "check_automorphism_invariance", "check_orbit_sign_constancy", "flip_epsilon_table", "check_negation_symmetry",
    "identity_automorphism", "root_height", "add", "sub", "negate", "root_sign", "render_root", "MatrixModel",
)
REMOVED_METHODS = ("contains", "_index", "simple_root", "symmetrizer", "string_lengths_at", "neg_index", "index_of",
                   "string_lengths")


def test_public_names_are_pinned():
    assert sorted(cb.__all__) == [
        "BracketTable", "CartanMatrix", "ChevBasisError", "DiagramAutomorphism", "FoldedSystem", "Root",
        "RootSystem", "SignFunction", "VerificationReport", "build_cartan", "build_inductive", "chevalley_audit",
        "closed_table", "default_epsilon", "differential", "fold", "fold_source", "folded_table",
        "generate_roots", "jacobi_sweep", "parse_type_label", "sl_n_oracle", "standard_automorphism",
    ]
    assert all(hasattr(cb, name) for name in cb.__all__)


def test_test_references_stay_out_of_the_package():
    modules = [cb] + [importlib.import_module(f"chevbasis.{m.name}") for m in pkgutil.iter_modules(cb.__path__)]
    assert {"bracket", "cartan", "cli", "closedform", "folding", "roots", "verify"} <= {
        m.__name__.rpartition(".")[2] for m in modules}
    for module in modules:
        assert not [name for name in REFERENCE_NAMES if hasattr(module, name)], module.__name__
    assert not [name for name in REMOVED_METHODS if hasattr(cb.RootSystem, name)]
    assert not hasattr(cb.BracketTable, "constant")
    assert list(inspect.signature(cb.build_inductive).parameters) == ["rs", "eps"]


def test_diagram_symmetries_are_stated_by_their_orbits_alone():
    assert tuple(f.name for f in dataclasses.fields(cb.DiagramAutomorphism)) == ("orbits",)
    assert not hasattr(cb.DiagramAutomorphism, "orbit_of")
    assert "reps" not in {f.name for f in dataclasses.fields(cb.FoldedSystem)}
    modules = [cb] + [importlib.import_module(f"chevbasis.{m.name}") for m in pkgutil.iter_modules(cb.__path__)]
    assert not [m.__name__ for m in modules if hasattr(m, "swap_fork_automorphism")]
