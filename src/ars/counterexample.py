"""A reference class with no uniform minimizer.

For R = (6,5,4,3,3,2,2,1,1) and S = (7,3,3,2,2,1,...,1) (ten trailing
ones) the minimum t-term ranks for t = 1..6 are 6, 9, 11, 13, 14, 15,
but no single class member attains all six at once.  This module keeps
the reference tables and minima frozen and exposes a verification
routine that recomputes everything and, as supporting evidence for the
nonexistence, shows that no matrix carries any combination of the
minimizing prefix covers simultaneously.  Each combination is decided
in closed form by `structure.prefix_covers_feasible`, a Hall check over
the staircase mask the covers leave, with no flow.  That last search is
restricted to prefix covers; it supports but does not by itself prove
the nonexistence claim.
"""

from __future__ import annotations

from itertools import product
from typing import NamedTuple

from . import structure
from .partition import Partition, is_nonempty

ROW_SUMS = Partition((6, 5, 4, 3, 3, 2, 2, 1, 1))
COL_SUMS = Partition((7, 3, 3, 2, 2) + (1,) * 10)

STRUCTURE_TABLE = (
    (27, 20, 17, 14, 12, 10, 9, 8, 7, 6, 5, 4, 3, 2, 1, 0),
    (21, 15, 13, 11, 10, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9),
    (16, 11, 10, 9, 9, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19),
    (12, 8, 8, 8, 9, 10, 12, 14, 16, 18, 20, 22, 24, 26, 28, 30),
    (9, 6, 7, 8, 10, 12, 15, 18, 21, 24, 27, 30, 33, 36, 39, 42),
    (6, 4, 6, 8, 11, 14, 18, 22, 26, 30, 34, 38, 42, 46, 50, 54),
    (4, 3, 6, 9, 13, 17, 22, 27, 32, 37, 42, 47, 52, 57, 62, 67),
    (2, 2, 6, 10, 15, 20, 26, 32, 38, 44, 50, 56, 62, 68, 74, 80),
    (1, 2, 7, 12, 18, 24, 31, 38, 45, 52, 59, 66, 73, 80, 87, 94),
    (0, 2, 8, 14, 21, 28, 36, 44, 52, 60, 68, 76, 84, 92, 100, 108),
)

PHI_TABLE = (
    (0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0),
    (0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 9, 9, 9, 9, 9, 9),
    (0, 2, 4, 6, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19),
    (0, 2, 5, 8, 9, 10, 12, 14, 16, 18, 20, 22, 24, 26, 28, 30),
    (0, 2, 6, 8, 10, 12, 15, 18, 21, 24, 27, 30, 33, 36, 39, 42),
    (0, 2, 6, 8, 11, 14, 18, 22, 26, 30, 34, 38, 42, 46, 50, 54),
    (0, 2, 6, 9, 13, 17, 22, 27, 32, 37, 42, 47, 52, 57, 62, 67),
    (0, 2, 6, 10, 15, 20, 26, 32, 38, 44, 50, 56, 62, 68, 74, 80),
    (0, 2, 7, 12, 18, 24, 31, 38, 45, 52, 59, 66, 73, 80, 87, 94),
    (0, 2, 8, 14, 21, 28, 36, 44, 52, 60, 68, 76, 84, 92, 100, 108),
)

# minimum t-term ranks and the smallest-e witnesses
MINIMA = {1: 6, 2: 9, 3: 11, 4: 13, 5: 14, 6: 15}
WITNESSES = {1: (3, 3), 2: (2, 5), 3: (2, 5), 4: (1, 9), 5: (1, 9), 6: (0, 15)}


class Check(NamedTuple):
    name: str
    passed: bool
    detail: str


def witness_sets() -> dict[int, list[tuple[int, int]]]:
    """For each t = 1..6, every realizable prefix cover (e, f) whose cost
    t*e + f equals the minimum t-term rank, by increasing e.  (e, f) is
    realizable exactly when f >= front[e] on the cover frontier."""
    front = structure.cover_frontier(ROW_SUMS, COL_SUMS)
    n = len(COL_SUMS)
    return {
        t: [(e, target - t * e) for e, least in enumerate(front) if least <= target - t * e <= n]
        for t, target in MINIMA.items()
    }


def witness_combinations() -> list[tuple[list[tuple[int, int]], bool]]:
    """Every choice of one witness cover per t = 1..6, as its sorted list
    of distinct covers, with whether some class member carries all of
    them at once (prefix covers only, by `structure.prefix_covers_feasible`)."""
    sets = witness_sets()
    out = []
    for combo in product(*(sets[t] for t in range(1, 7))):
        covers = sorted(set(combo))
        out.append((covers, structure.prefix_covers_feasible(ROW_SUMS, COL_SUMS, covers)))
    return out


def verify() -> list[Check]:
    """Recompute every frozen fact about the reference class."""
    checks: list[Check] = []

    nonempty = is_nonempty(ROW_SUMS, COL_SUMS)
    by_table = structure.nonempty_by_structure(
        structure.structure_matrix(ROW_SUMS, COL_SUMS)
    )
    checks.append(
        Check(
            "class-nonempty",
            nonempty and by_table,
            f"gale-ryser={nonempty}, structure-nonnegative={by_table}",
        )
    )

    tv = structure.structure_matrix(ROW_SUMS, COL_SUMS).values
    checks.append(
        Check(
            "structure-table",
            tv == STRUCTURE_TABLE,
            "10x16 structure table matches the frozen reference",
        )
    )

    pv = structure.phi_matrix(ROW_SUMS, COL_SUMS).values
    checks.append(
        Check("phi-table", pv == PHI_TABLE, "10x16 phi table matches the frozen reference")
    )

    mismatches = []
    for t in range(1, 7):
        value, witness = structure.min_t_term_rank(ROW_SUMS, COL_SUMS, t)
        if value != MINIMA[t] or witness != WITNESSES[t]:
            mismatches.append((t, value, witness))
    checks.append(
        Check(
            "minimum-ranks",
            not mismatches,
            "minima (6, 9, 11, 13, 14, 15) with witnesses "
            "(3,3) (2,5) (2,5) (1,9) (1,9) (0,15)"
            if not mismatches
            else f"mismatches: {mismatches}",
        )
    )

    combos = witness_combinations()
    feasible = [covers for covers, realizable in combos if realizable]
    checks.append(
        Check(
            "witness-combinations-infeasible",
            not feasible,
            f"all {len(combos)} witness-cover combinations are simultaneously "
            "unrealizable (prefix covers only)"
            if not feasible
            else f"unexpectedly realizable: {feasible}",
        )
    )
    return checks
