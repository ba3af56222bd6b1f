"""Exact canonical Chevalley basis structure constants for simple Lie algebras.

Two independent construction routes are provided and cross-validated:
height recursion from the defining ladder relations (any finite type),
and a closed sign formula for the simply-laced types which transfers to
B, C, F4 and G2 by folding along diagram automorphisms.
"""

from .bracket import BracketTable, build_inductive
from .cartan import (
    CartanMatrix,
    DiagramAutomorphism,
    SignFunction,
    build_cartan,
    default_epsilon,
    parse_type_label,
)
from .closedform import closed_table
from .errors import ChevBasisError
from .folding import FoldedSystem, fold, fold_source, folded_table, standard_automorphism
from .report import VerificationReport
from .roots import Root, RootSystem, generate_roots
from .verify import chevalley_audit, differential, jacobi_sweep, sl_n_oracle

__all__ = [
    "BracketTable",
    "CartanMatrix",
    "ChevBasisError",
    "DiagramAutomorphism",
    "FoldedSystem",
    "Root",
    "RootSystem",
    "SignFunction",
    "VerificationReport",
    "build_cartan",
    "build_inductive",
    "chevalley_audit",
    "closed_table",
    "default_epsilon",
    "differential",
    "fold",
    "fold_source",
    "folded_table",
    "generate_roots",
    "jacobi_sweep",
    "parse_type_label",
    "sl_n_oracle",
    "standard_automorphism",
]

__version__ = "0.1.0"
