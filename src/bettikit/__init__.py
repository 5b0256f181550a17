"""Exact-arithmetic toolkit for graded betti tables.

Compute betti tables of polynomial-ring quotients from Koszul cohomology,
build normalized pure diagrams from degree sequences, decompose tables into
positive rational combinations of pure diagrams, and check tables against the
first-strand upper bounds.  Everything is exact rational or prime-field
arithmetic; there is no floating point anywhere.
"""

from .bounds import (Assumptions, ColumnComparison, StrandReport, check_first_strand,
                     check_Ndm, check_next_to_max, degree_bounds, first_nontrivial_strand)
from .decompose import (Decomposition, NotInConeError, bs_decompose,
                        multiplicity_from_decomposition)
from .koszul import (GradedPiece, betti_table, graded_piece, hilbert_consistency,
                     koszul_differential)
from .polyring import Ideal, parse_ideal
from .pure import family_deq, family_tilde, hk_diagram, kappa_max, kappa_next_max, multiplicity
from .tables import BettiTable, DegreeSequence, ParseError

__version__ = "0.1.0"

__all__ = [
    "Assumptions", "BettiTable", "ColumnComparison", "Decomposition", "DegreeSequence",
    "GradedPiece", "Ideal", "NotInConeError", "ParseError",
    "StrandReport", "betti_table", "bs_decompose", "check_Ndm",
    "check_first_strand", "check_next_to_max", "degree_bounds", "family_deq",
    "family_tilde", "first_nontrivial_strand", "graded_piece", "hilbert_consistency",
    "hk_diagram", "kappa_max", "kappa_next_max", "koszul_differential",
    "multiplicity", "multiplicity_from_decomposition", "parse_ideal",
]
