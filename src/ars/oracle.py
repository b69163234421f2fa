"""Brute-force ground truth: exhaustive class enumeration, exhaustive
t-term ranks, the exhaustive minimum cover of a matrix and the cover
table phi by direct enumeration, independent of the flow machinery and
of the structure layer's suffix minima.  Only brute_phi and
find_uniform_minimizer reach the structure and flow layers, and they
import them when called, so enumeration and the exhaustive ranks load
neither."""

from __future__ import annotations

import itertools
from collections.abc import Iterator
from typing import NamedTuple

from .binmat import BinaryMatrix, CoverSpec
from .errors import EmptyClass
from .partition import Partition, is_nonempty, margins_realizable


def enumerate_class(r: Partition, s: Partition) -> Iterator[BinaryMatrix]:
    """Yield every matrix with row sums r and column sums s.

    Backtracks column by column, choosing the rows of each column among
    those with remaining capacity, pruning branches whose residual
    margins fail the Gale-Ryser test.  The open columns' combinations
    iterators sit on an explicit stack, so no recursion limit bounds n.
    Matrices come out in lexicographic order of their column row-sets.
    A caller that wants only a prefix takes it with itertools.islice.
    """
    m, n = len(r), len(s)
    if not is_nonempty(r, s):
        return
    rr = list(r.parts)
    chosen: list[tuple[int, ...]] = []
    # stack[j] yields the row sets of column j; chosen[j] is the current one
    stack: list[Iterator[tuple[int, ...]]] = []
    while True:
        if len(chosen) < n:
            live = [i for i in range(m) if rr[i] > 0]
            stack.append(itertools.combinations(live, s[len(chosen)]))
        else:
            grid = [[0] * n for _ in range(m)]
            for j, rows in enumerate(chosen):
                for i in rows:
                    grid[i][j] = 1
            yield BinaryMatrix(grid)
        # advance to the next choice that keeps the residual realizable
        while stack:
            if len(chosen) == len(stack):
                for i in chosen.pop():
                    rr[i] += 1
            combo = next(stack[-1], None)
            if combo is None:
                stack.pop()
                continue
            for i in combo:
                rr[i] -= 1
            chosen.append(combo)
            if margins_realizable(rr, s.parts[len(chosen):]):
                break
        else:
            return


def brute_phi(r: Partition, s: Partition) -> tuple[tuple[int, ...], ...]:
    """The cover table phi by direct enumeration of its defining minimum

        phi[k][l] = min{ t[i1][l+j2] + t[k+i2][j1] + (k-i1)(l-j1) }

    over 0 <= i1 <= k <= k+i2 <= m and 0 <= j1 <= l <= l+j2 <= n, where
    t is the structure matrix.  O(m^3 n^2); a reference for
    structure.phi_matrix and the cover frontier."""
    from . import structure
    t = structure.structure_matrix(r, s).values
    m, n = len(r), len(s)
    rows = []
    for k in range(m + 1):
        row = []
        for l in range(n + 1):
            best = None
            for i1 in range(k + 1):
                # t[i1][l+j2] depends on j2 only through this row slice
                a_min = min(t[i1][l:])
                for j1 in range(l + 1):
                    base = a_min + (k - i1) * (l - j1)
                    b_min = min(t[k + i2][j1] for i2 in range(m - k + 1))
                    cand = base + b_min
                    if best is None or cand < best:
                        best = cand
            row.append(best)
        rows.append(tuple(row))
    return tuple(rows)


def brute_t_term_rank(a: BinaryMatrix, t: int) -> int:
    """t-term rank by exhaustive assignment: each column is either left
    unselected or assigned to one of its 1-rows, respecting the per-row
    quota t.  Memoized on (column, per-row usage); no flow machinery."""
    if t < 1:
        raise ValueError("t must be a positive integer")
    col_rows = [tuple(i for i in range(a.m) if a.rows[i][j]) for j in range(a.n)]
    memo: dict[tuple[int, tuple[int, ...]], int] = {}

    def best(j: int, used: tuple[int, ...]) -> int:
        if j == a.n:
            return 0
        key = (j, used)
        cached = memo.get(key)
        if cached is not None:
            return cached
        value = best(j + 1, used)
        for i in col_rows[j]:
            if used[i] < t:
                bumped = used[:i] + (used[i] + 1,) + used[i + 1:]
                value = max(value, 1 + best(j + 1, bumped))
        memo[key] = value
        return value

    return best(0, (0,) * a.m)


def min_cover_value(a: BinaryMatrix, t: int) -> tuple[int, CoverSpec]:
    """Minimize t*e + f over all covers of a with e rows and f columns.

    Exhaustive over row subsets; for a fixed row subset the cheapest
    column set is forced (the columns still containing a 1).  Ties break
    toward the smallest e, then the lexicographically smallest row set.
    Intended for small matrices.
    """
    if t < 1:
        raise ValueError("t must be a positive integer")
    col_rows = [frozenset(i for i in range(a.m) if a.rows[i][j]) for j in range(a.n)]
    best_value: int | None = None
    best: CoverSpec | None = None
    for e in range(a.m + 1):
        if best_value is not None and t * e >= best_value:
            break  # every larger row set costs at least t*e
        for chosen in itertools.combinations(range(a.m), e):
            row_set = frozenset(chosen)
            residual_cols = tuple(j for j in range(a.n) if col_rows[j] - row_set)
            value = t * e + len(residual_cols)
            if best_value is None or value < best_value:
                best_value = value
                best = CoverSpec(e=e, f=len(residual_cols), rows=chosen, cols=residual_cols)
    assert best is not None and best_value is not None
    return best_value, best


def brute_min_t_term_rank(r: Partition, s: Partition, t: int) -> int:
    """Minimum t-term rank over the class, by full enumeration."""
    if not is_nonempty(r, s):
        raise EmptyClass(f"no matrix has row sums {r.parts} and column sums {s.parts}")
    return min(brute_t_term_rank(a, t) for a in enumerate_class(r, s))


class SearchOutcome(NamedTuple):
    """Result of an enumeration search.

    matrix is None when no witness was found; complete tells whether the
    whole class was scanned (False means the budget ran out, so absence
    is undetermined rather than proved).
    """

    matrix: BinaryMatrix | None
    complete: bool
    scanned: int


def find_uniform_minimizer(
    r: Partition, s: Partition, t_max: int | None = None, budget: int | None = None
) -> SearchOutcome:
    """Scan at most budget matrices of the class (None, the default: all)
    for one whose k-term rank meets the class minimum for every k = 1..t_max.

    Ranks and class minima stabilize once k reaches the largest row sum
    R_1, so t_max is clamped to R_1 (1 for an empty class), which is
    also its default: checking k <= R_1 certifies all k >= 1.
    """
    from . import flow, structure
    if t_max is not None and t_max < 1:
        raise ValueError("t_max must be a positive integer")
    if not is_nonempty(r, s):
        raise EmptyClass(f"no matrix has row sums {r.parts} and column sums {s.parts}")
    r1 = r.parts[0] if r.parts else 1
    t_max = r1 if t_max is None else min(t_max, r1)
    targets = [structure.min_t_term_rank(r, s, k)[0] for k in range(1, t_max + 1)]
    scanned = 0
    for a in enumerate_class(r, s):
        if budget is not None and scanned >= budget:
            return SearchOutcome(matrix=None, complete=False, scanned=scanned)
        scanned += 1
        if all(want == got for want, got in zip(targets, flow.t_term_ranks(a))):
            return SearchOutcome(matrix=a, complete=True, scanned=scanned)
    return SearchOutcome(matrix=None, complete=True, scanned=scanned)
