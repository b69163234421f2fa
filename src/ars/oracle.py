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
from .partition import Partition, exact_integers, is_nonempty, positive_integer, require_nonempty
from .partition import rows_fit


def enumerate_class(r: Partition, s: Partition) -> Iterator[BinaryMatrix]:
    """Yield every matrix with row sums r and column sums s.

    Backtracks over the columns 0..n-3, choosing the rows of each column
    among those with remaining capacity, pruning branches whose residual
    margins fail the Gale-Ryser test: from one table of the prefix sums
    of the column sums, built once per walk, a node of depth j only
    counts its rows by residual sum and compares the prefixes of the
    columns after j, in O(m + n) (`partition.rows_fit`; the weights
    always agree).  A column whose rows have the largest residual sums
    (their total is the most any s_j rows hold, so the least chosen sum
    is at least every unchosen one) skips that test: by Ryser's lemma
    such a step keeps a realizable residual realizable.  The open
    columns' combinations iterators sit on an explicit stack, so no
    recursion limit bounds n.

    The last two columns take a closed form.  Every step keeps the
    residual realizable, so after n-2 columns each row is short by at
    most 2, a row short by 2 takes both last columns, and the rows short
    by 1 split between them in every way that fills column n-2: a pick
    of s_{n-2} - #(rows short by 2) of them for column n-2, the rest for
    column n-1.  That level needs no Gale-Ryser test.  Its picks, taken
    in combinations order, give the row sets of column n-2 in
    combinations order too: of two k-subsets as sorted tuples the
    lexicographically smaller is the one holding the least element of
    their symmetric difference, and adding the rows short by 2 to both
    leaves that difference as it was.  So matrices come out in
    lexicographic order of their column row-sets.  One column (n = 1)
    takes every row.

    The walk keeps only the residual row sums and each row's column
    bitmask, updated as it chooses and undoes columns: at a node of depth
    n-2 each row's possible masks are found once, and each member picks
    among them.  A member is built from its masks alone, the form every
    `BinaryMatrix` stores, from which the rank kernel starts; its row
    tuples are built on the first read of ``rows``, so a sweep that only
    ranks members never builds them.  Nothing is checked, since the
    search makes every entry 0/1 and the margins exactly (r, s).  Memory
    is O(mn) whatever the class size.  A caller that wants only a prefix
    takes it with itertools.islice.
    """
    m, n = len(r), len(s)
    if not is_nonempty(r, s):
        return
    rp, sp = r.parts, s.parts
    if n < 2:
        # one column takes every row (n = 0 only in the 0x0 class)
        yield BinaryMatrix.__new__(BinaryMatrix)._store((1,) * m, rp, sp)
        return
    rr = list(rp)
    bits = [0] * m
    last = n - 2  # the first column of the closed form
    bit_a, bit_b = 1 << last, 1 << (n - 1)
    acc = (0, *itertools.accumulate(sp))  # acc[k]: the sum of columns 0..k-1
    chosen: list[tuple[int, ...]] = []
    # stack[j] holds the row sets of column j and the largest residual
    # total of any s_j rows; chosen[j] is the current row set
    stack: list[tuple[Iterator[tuple[int, ...]], int]] = []
    while True:
        if len(chosen) < last:
            k = sp[len(chosen)]
            live = [i for i in range(m) if rr[i] > 0]
            stack.append((itertools.combinations(live, k), sum(sorted(rr, reverse=True)[:k])))
        else:
            # base: every row short by 1 takes column n-1; alt: column n-2
            base, alt = [], [0] * m
            ones, twos = [], 0
            for i, (left, mask) in enumerate(zip(rr, bits)):
                if left == 1:
                    ones.append(i)
                    alt[i] = mask | bit_a
                    mask |= bit_b
                elif left:
                    twos += 1
                    mask |= bit_a | bit_b
                base.append(mask)
            for pick in itertools.combinations(ones, sp[last] - twos):
                row_bits = base[:]
                for i in pick:
                    row_bits[i] = alt[i]
                yield BinaryMatrix.__new__(BinaryMatrix)._store(tuple(row_bits), rp, sp)
        # advance to the next choice that keeps the residual realizable
        while stack:
            j = len(chosen)
            if j == len(stack):
                j -= 1
                for i in chosen.pop():
                    rr[i] += 1
                    bits[i] ^= 1 << j
            combos, most = stack[-1]
            combo = next(combos, None)
            if combo is None:
                stack.pop()
                continue
            # only a set of rows with the largest residual sums reaches most
            greedy = sum(map(rr.__getitem__, combo)) == most
            for i in combo:
                rr[i] -= 1
                bits[i] |= 1 << j
            chosen.append(combo)
            if greedy or rows_fit(rr, acc, j + 1):
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


def brute_t_term_ranks(a: BinaryMatrix, t_max: int) -> tuple[int, ...]:
    """The t-term ranks for t = 1..t_max by exhaustive assignment: each
    column is either left unselected or assigned to one of its 1-rows.
    One pass under the row quota t_max keeps, column by column, the set
    of per-row usage vectors some assignment of the columns so far
    reaches; no flow machinery.  Usage only grows along an assignment,
    so a reached vector whose largest entry is at most t is reached
    within quota t, and the t-term rank is the largest total among those
    vectors."""
    t_max = positive_integer(t_max, "t")
    reach = {(0,) * a.m}
    for col in zip(*a.rows):
        rows = [i for i, v in enumerate(col) if v]
        reach |= {u[:i] + (u[i] + 1,) + u[i + 1:] for u in reach for i in rows if u[i] < t_max}
    # most[q]: the largest total of a reached vector whose largest entry is q
    most = [0] * (t_max + 1)
    for u in reach:
        q, total = max(u, default=0), sum(u)
        if total > most[q]:
            most[q] = total
    return tuple(itertools.accumulate(most, max))[1:]


def brute_t_term_rank(a: BinaryMatrix, t: int) -> int:
    """The t-term rank by exhaustive assignment (see brute_t_term_ranks);
    a quota of the largest row sum already binds no row, so a larger t
    is read there."""
    return brute_t_term_ranks(a, min(positive_integer(t, "t"), max((1, *a.row_sums))))[-1]


def min_cover_values(a: BinaryMatrix, t_max: int) -> tuple[tuple[int, CoverSpec], ...]:
    """For t = 1..t_max, the least t*e + f over all covers of a with e
    rows and f columns, with a cover attaining it.

    Exhaustive over row subsets, in one pass for every t: for a fixed row
    subset the cheapest column set is forced (the columns still
    containing a 1), so each e keeps its fewest such columns and the
    first row set, in lexicographic order, leaving that few.  Ties break
    toward the smallest e, then the lexicographically smallest row set.
    Intended for small matrices.
    """
    t_max = positive_integer(t_max, "t")
    col_masks = [sum(1 << i for i, v in enumerate(col) if v) for col in zip(*a.rows)]
    row_bits = [1 << i for i in range(a.m)]
    # fewest[e]: the first row set of size e leaving the fewest columns,
    # and those columns
    fewest: list[tuple[tuple[int, ...], tuple[int, ...]]] = []
    for e in range(a.m + 1):
        # e rows cost at least t*e, and a cover with fewer rows costs at
        # most t*(e' + f') for every t
        if fewest and e >= min(k + len(cols) for k, (_, cols) in enumerate(fewest)):
            break
        best = None
        for chosen, covered in zip(
            itertools.combinations(range(a.m), e), map(sum, itertools.combinations(row_bits, e))
        ):
            residual = tuple(j for j, mask in enumerate(col_masks) if mask & ~covered)
            if best is None or len(residual) < len(best[1]):
                best = (chosen, residual)
        fewest.append(best)
    # only the covers returned are built (and checked) as CoverSpecs
    out, covers = [], {}
    for t in range(1, t_max + 1):
        value, e = min((t * k + len(cols), k) for k, (_, cols) in enumerate(fewest))
        if e not in covers:
            rows, cols = fewest[e]
            covers[e] = CoverSpec(e=e, f=len(cols), rows=rows, cols=cols)
        out.append((value, covers[e]))
    return tuple(out)


def min_cover_value(a: BinaryMatrix, t: int) -> tuple[int, CoverSpec]:
    """Minimize t*e + f over all covers of a with e rows and f columns
    (see min_cover_values, which gives the same value and cover).  From
    t = n on, no cover with a row beats the n or fewer nonzero columns,
    so a larger t is read there."""
    return min_cover_values(a, min(positive_integer(t, "t"), max(1, a.n)))[-1]


def brute_min_t_term_rank(r: Partition, s: Partition, t: int) -> int:
    """Minimum t-term rank over the class, by full enumeration."""
    t = positive_integer(t, "t")
    require_nonempty(r, s)
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
    also its default: checking k <= R_1 certifies all k >= 1.  t_max and
    budget follow `partition.exact_integers` (2.0 passes as 2; 1.5
    raises ValueError); t_max must be positive and budget nonnegative.
    """
    from . import flow, structure
    if t_max is not None:
        t_max = positive_integer(t_max, "t_max")
    if budget is not None:
        (budget,) = exact_integers((budget,), "budget")
        if budget < 0:
            raise ValueError("budget must be nonnegative")
    require_nonempty(r, s)
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
