"""Toolkit for classes of (0,1)-matrices with prescribed row and column
sums: feasibility, structure tables, minimum t-term ranks, network-flow
rank computation, and cover-constrained constructions."""

from .binmat import BinaryMatrix, CoverSpec, apply_interchange, in_class, is_covered
from .construct import (
    canonical_column_submatrix,
    construct_uniform_minimizer,
    interchange_path,
    modified_ryser,
    ryser_canonical,
    two_cover_matrix,
    two_cover_parts,
)
from .flow import build_t_rank_network, feasible_bounded, multi_cover_feasible, t_term_rank, t_term_ranks
from .oracle import (
    brute_min_t_term_rank,
    brute_t_term_rank,
    enumerate_class,
    find_uniform_minimizer,
    min_cover_value,
)
from .partition import Partition, conjugate, is_nonempty, iter_partitions, majorized_by, margins_realizable
from .structure import (
    cover_exists,
    min_t_term_rank,
    nonempty_by_structure,
    phi_matrix,
    psi,
    structure_matrix,
    two_cover_exists,
    uniform_minimizer_hypotheses,
)

__version__ = "0.1.0"

__all__ = [
    "BinaryMatrix",
    "CoverSpec",
    "Partition",
    "apply_interchange",
    "brute_min_t_term_rank",
    "brute_t_term_rank",
    "build_t_rank_network",
    "canonical_column_submatrix",
    "conjugate",
    "construct_uniform_minimizer",
    "cover_exists",
    "enumerate_class",
    "feasible_bounded",
    "find_uniform_minimizer",
    "in_class",
    "interchange_path",
    "is_covered",
    "is_nonempty",
    "iter_partitions",
    "majorized_by",
    "margins_realizable",
    "min_cover_value",
    "min_t_term_rank",
    "modified_ryser",
    "multi_cover_feasible",
    "nonempty_by_structure",
    "phi_matrix",
    "psi",
    "ryser_canonical",
    "structure_matrix",
    "t_term_rank",
    "t_term_ranks",
    "two_cover_exists",
    "two_cover_matrix",
    "two_cover_parts",
    "uniform_minimizer_hypotheses",
]
