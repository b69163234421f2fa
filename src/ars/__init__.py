"""Toolkit for classes of (0,1)-matrices with prescribed row and column
sums: feasibility, structure tables, minimum t-term ranks, network-flow
rank computation, and cover-constrained constructions.

``import ars`` loads no submodule.  Each exported name and each submodule
is imported on first access through the module ``__getattr__`` (PEP 562),
so a caller pays only for the layers it reaches.
"""

import importlib

__version__ = "0.1.0"

# submodule -> the names exported from it
_EXPORTS = {
    "binmat": ("BinaryMatrix", "CoverSpec", "apply_interchange", "in_class", "is_covered"),
    "construct": (
        "canonical_column_submatrix",
        "construct_uniform_minimizer",
        "interchange_path",
        "modified_ryser",
        "ryser_canonical",
        "two_cover_matrix",
        "two_cover_parts",
    ),
    "flow": (
        "build_t_rank_network",
        "feasible_bounded",
        "multi_cover_feasible",
        "t_term_rank",
        "t_term_ranks",
    ),
    "oracle": (
        "brute_min_t_term_rank",
        "brute_t_term_rank",
        "enumerate_class",
        "find_uniform_minimizer",
        "min_cover_value",
    ),
    "partition": (
        "Partition",
        "conjugate",
        "is_nonempty",
        "iter_partitions",
        "majorized_by",
        "margins_realizable",
    ),
    "structure": (
        "cover_exists",
        "min_t_term_rank",
        "nonempty_by_structure",
        "phi_matrix",
        "psi",
        "structure_matrix",
        "two_cover_exists",
        "uniform_minimizer_hypotheses",
    ),
}
_SUBMODULES = frozenset(_EXPORTS) | {"cli", "cli_text", "counterexample", "errors"}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_OWNER)


def __getattr__(name: str):
    module_name = _OWNER.get(name, name)
    if module_name not in _SUBMODULES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # A submodule already bound on this package object wins over the
    # import system, so a package object that outlived a re-import of
    # ars keeps using its own modules.
    module = globals().get(module_name)
    if module is None:
        module = importlib.import_module(f"{__name__}.{module_name}")
    return module if module_name == name else getattr(module, name)


def __dir__() -> list[str]:
    return sorted(set(globals()) | _SUBMODULES | _OWNER.keys())
