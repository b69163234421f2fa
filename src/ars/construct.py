"""Constructive algorithms: the canonical matrix, interchange paths and
the zero-block construction by column shifting.

One assembler builds a class member carrying the prefix covers (e1, f1)
and (e2, f2): `two_cover_parts` calls it with two crossing covers and
`modified_ryser` with both covers equal to (e, f).  Each checks first
that some class member carries its covers (`structure.cover_exists`,
`structure.two_cover_exists`) and raises InfeasibleShift when none
does.  Every column shift, and the normal form behind interchange
paths, picks its rows by one rule: largest live sum, bottommost on
ties.  By Ryser's lemma that rule fills any realizable margins, so the
shift itself raises InfeasibleShift on unrealizable ones and the
residual core needs no Gale-Ryser test."""

from __future__ import annotations

from collections.abc import Sequence
from operator import gt
from typing import NamedTuple

from .binmat import BinaryMatrix
from .errors import (
    BadCoverOrder,
    BadRange,
    EmptyClass,
    InfeasibleShift,
    NotSameClass,
    VerificationFailed,
)
from .partition import Partition, is_nonempty
from . import flow, structure


def _descending_order(seq: Sequence[int]) -> list[int]:
    """Indices of seq by decreasing value; a stable sort, so equal values
    keep their original relative order."""
    return sorted(range(len(seq)), key=lambda i: -seq[i])


def _pick_rows(sums: Sequence[int], amount: int) -> list[int]:
    """The `amount` rows of largest current sum, bottommost on ties."""
    m = len(sums)
    # the key sums[i]*m + i orders rows by sum, then by index
    keys = sorted([v * m + i for i, v in enumerate(sums) if v > 0], reverse=True)
    if len(keys) < amount:
        raise InfeasibleShift(f"need {amount} rows with ones left, only {len(keys)} available")
    return [key % m for key in keys[:amount]]


def _shift_block(
    row_sums: Sequence[int], col_sums: Sequence[int], e: int, f: int
) -> list[list[int]]:
    """Run the column-shifting loop on the first e rows.

    Starting from rows of left-justified 1s with the given sums, columns
    n-1 down to f (0-based) each receive col_sums[k] ones, moved from the
    rows of largest remaining sum (bottommost preferred on ties).
    Returns the shifted e-by-(n-f) block.
    """
    n = len(col_sums)
    rr = [row_sums[i] for i in range(e)]
    block = [[0] * (n - f) for _ in range(e)]
    for k in range(n - 1, f - 1, -1):
        amount = col_sums[k]
        if amount:
            for i in _pick_rows(rr, amount):
                block[i][k - f] = 1
                rr[i] -= 1
        if rr and max(rr) > k:
            raise InfeasibleShift(
                f"a row holds more ones than the {k} live columns can carry"
            )
    return block


def canonical_column_submatrix(
    r: Partition, s: Partition, e: int, f: int
) -> tuple[BinaryMatrix, tuple[int, ...]]:
    """The canonical shifted block for a prefix cover with e rows.

    Keeps the first e rows of the left-justified start, shifts columns
    n-1 down to f, and returns the accumulated e-by-(n-f) block together
    with its row-sum sequence.  Raises InfeasibleShift when some column
    cannot collect its ones from the live rows, which signals that the
    requested cover shape is unreachable by this construction.
    """
    m, n = len(r), len(s)
    if not (0 <= e <= m and 0 <= f <= n):
        raise BadRange(f"need 0 <= e <= {m} and 0 <= f <= {n}, got e={e}, f={f}")
    block = BinaryMatrix(_shift_block(r.parts, s.parts, e, f))
    return block, block.row_sums


def ryser_canonical(r: Partition, s: Partition) -> BinaryMatrix:
    """The canonical matrix of the class: start from left-justified rows
    and shift each column's ones into place, rightmost column first,
    always drawing from the rows of largest remaining sum."""
    if not is_nonempty(r, s):
        raise EmptyClass(f"no matrix has row sums {r.parts} and column sums {s.parts}")
    return BinaryMatrix(_shift_block(r.parts, s.parts, len(r), 0))


def _residual_core(
    rbar: Sequence[int], sbar: Sequence[int]
) -> tuple[list[list[int]], BinaryMatrix]:
    """Canonical fill for residual margins that may hold zeros.

    Sorts both residual sequences (stable), builds the canonical matrix
    of the sorted pair, and un-permutes it back into the original row and
    column order.  Returns (unsorted grid, canonical matrix as built).
    Unrealizable margins make the shift raise InfeasibleShift; an empty
    sbar, which the shift cannot check, comes only with rbar all zero.
    """
    order_r = _descending_order(rbar)
    order_c = _descending_order(sbar)
    sorted_r = tuple(rbar[i] for i in order_r)
    sorted_c = tuple(sbar[j] for j in order_c)
    grid = _shift_block(sorted_r, sorted_c, len(rbar), 0)
    core = [[0] * len(sbar) for _ in rbar]
    for i, row in zip(order_r, grid):
        for j, v in zip(order_c, row):
            core[i][j] = v
    return core, BinaryMatrix(grid)


def modified_ryser(r: Partition, s: Partition, e: int, f: int) -> BinaryMatrix:
    """Build a class member whose 1s all lie in the union of the first e
    rows and first f columns.

    This is the zero-block assembly of two_cover_parts with both covers
    equal to (e, f): the top-right block comes from shifting columns
    n..f+1 within the first e rows, the bottom-left block from the
    transposed construction on the first f columns, and the top-left
    block is a canonical fill of the leftover margins.  Raises
    InfeasibleShift when no class member has this cover (see
    structure.cover_exists).
    """
    if not structure.cover_exists(r, s, e, f):
        raise InfeasibleShift(
            f"no class member is covered by its first {e} rows and first {f} columns"
        )
    return _assemble(r, s, (e, f), (e, f)).matrix


class TwoCoverParts(NamedTuple):
    """Intermediate pieces of the two-cover construction.

    cover_wide is the cover with fewer rows and more columns (e1, f1);
    cover_tall the other (e2, f2).  canonical_core is the residual
    canonical matrix in its sorted frame before un-permuting.
    """

    cover_wide: tuple[int, int]
    cover_tall: tuple[int, int]
    row_block: BinaryMatrix
    col_block: BinaryMatrix
    residual_row_sums: tuple[int, ...]
    residual_col_sums: tuple[int, ...]
    canonical_core: BinaryMatrix
    matrix: BinaryMatrix


def _normalize_covers(
    cover_a: tuple[int, int], cover_b: tuple[int, int], m: int, n: int
) -> tuple[tuple[int, int], tuple[int, int]]:
    for e, f in (cover_a, cover_b):
        if not (0 <= e <= m and 0 <= f <= n):
            raise BadRange(f"cover ({e},{f}) out of range for {m}x{n}")
    (ea, fa), (eb, fb) = cover_a, cover_b
    if ea == eb or fa == fb:
        raise BadCoverOrder(f"covers {cover_a} and {cover_b} do not cross")
    wide, tall = ((ea, fa), (eb, fb)) if ea < eb else ((eb, fb), (ea, fa))
    if wide[1] <= tall[1]:
        raise BadCoverOrder(
            f"cover {wide} dominates {tall}; use the single-cover construction"
        )
    return wide, tall


def _assemble(
    r: Partition, s: Partition, cover_wide: tuple[int, int], cover_tall: tuple[int, int]
) -> TwoCoverParts:
    """The zero-block assembly for covers (e1, f1) and (e2, f2) with
    e1 <= e2 and f1 >= f2; equal covers give the single-cover case.  Row
    i < e2 is core row i + row block row i (or zeros), row e2 + k is column
    k of the column block + zeros."""
    m, n = len(r), len(s)
    (e1, f1), (e2, f2) = cover_wide, cover_tall
    row_block, rhat = canonical_column_submatrix(r, s, e1, f1)
    col_block, shat = canonical_column_submatrix(s, r, f2, e2)
    rbar = [r[i] - (rhat[i] if i < e1 else 0) for i in range(e2)]
    sbar = [s[j] - (shat[j] if j < f2 else 0) for j in range(f1)]
    core, canonical_core = _residual_core(rbar, sbar)
    zeros = (0,) * (n - f1)
    grid = [core[i] + list(row_block[i] if i < e1 else zeros) for i in range(e2)]
    grid += [[row[k] for row in col_block.rows] + [0] * (n - f2) for k in range(m - e2)]
    return TwoCoverParts(
        cover_wide=cover_wide,
        cover_tall=cover_tall,
        row_block=row_block,
        col_block=col_block,
        residual_row_sums=tuple(rbar),
        residual_col_sums=tuple(sbar),
        canonical_core=canonical_core,
        matrix=BinaryMatrix(grid),
    )


def two_cover_parts(
    r: Partition, s: Partition, cover_a: tuple[int, int], cover_b: tuple[int, int]
) -> TwoCoverParts:
    """Build a class member carrying two crossing prefix covers at once.

    With covers normalized to (e1, f1) and (e2, f2), e1 < e2, f1 > f2:
      1. shift columns n..f1+1 within the first e1 rows (top-right block);
      2. shift, on the transposed margins, columns m..e2+1 within the
         first f2 rows (transposed into the bottom-left block);
      3. subtract the shifted row sums (zero-padded) from the leading
         margins to get the residual margins of the (e2 x f1) core;
      4. fill the core with the canonical matrix of the sorted residuals,
         un-permuted back into place.
    The result has zero blocks exactly where the two covers require them.
    Raises InfeasibleShift when no class member carries both covers (see
    structure.two_cover_exists).
    """
    wide, tall = _normalize_covers(cover_a, cover_b, len(r), len(s))
    (e1, f1), (e2, f2) = wide, tall
    if not structure.two_cover_exists(r, s, e1, e2, f2, f1):
        raise InfeasibleShift(
            f"no class member carries covers ({e1},{f1}) and ({e2},{f2}) simultaneously"
        )
    return _assemble(r, s, wide, tall)


def two_cover_matrix(
    r: Partition, s: Partition, cover_a: tuple[int, int], cover_b: tuple[int, int]
) -> BinaryMatrix:
    """The assembled matrix of two_cover_parts."""
    return two_cover_parts(r, s, cover_a, cover_b).matrix


Interchange = tuple[int, int, int, int]


def _reduce_to_normal(a: BinaryMatrix) -> tuple[list[Interchange], BinaryMatrix]:
    """Interchange a into the normal form fixed by the canonical column
    rule (rightmost column first, rows chosen by _pick_rows).  Matrices
    with equal margins reach the same normal form."""
    grid = [list(row) for row in a.rows]
    sums = list(a.row_sums)
    path: list[Interchange] = []
    for k in range(a.n - 1, -1, -1):
        want = _pick_rows(sums, a.col_sums[k])
        have = [i for i, row in enumerate(grid) if row[k]]
        want_set, have_set = set(want), set(have)
        # each wanted row without a 1 in column k, in pick order, takes
        # the 1 of the topmost unwanted row that has one
        extra = [ip for ip in have if ip not in want_set]
        for i, ip in zip((i for i in want if i not in have_set), extra):
            # row i owns strictly more live ones left of column k than
            # row ip, so a pivot column always exists
            j = list(map(gt, grid[i][:k], grid[ip])).index(True)
            grid[i][j] = 0
            grid[i][k] = 1
            grid[ip][j] = 1
            grid[ip][k] = 0
            path.append((i, ip, j, k))
        for i in want:
            sums[i] -= 1
    return path, BinaryMatrix(grid)


def interchange_path(a: BinaryMatrix, b: BinaryMatrix) -> tuple[Interchange, ...]:
    """A sequence of interchanges (i1, i2, j1, j2) carrying a onto b,
    found by reducing both to the shared normal form and splicing the
    second leg in reverse."""
    if (a.m, a.n) != (b.m, b.n) or a.row_sums != b.row_sums or a.col_sums != b.col_sums:
        raise NotSameClass("matrices differ in shape or margins")
    path_a, norm_a = _reduce_to_normal(a)
    path_b, norm_b = _reduce_to_normal(b)
    if norm_a != norm_b:
        raise VerificationFailed("the two matrices reduced to different normal forms")
    return tuple(path_a) + tuple(reversed(path_b))


def construct_uniform_minimizer(r: Partition, s: Partition, t: int) -> BinaryMatrix | None:
    """Build a class member realizing the minimum k-term rank for every
    k = 1..t, when the sufficient two-cover conditions hold.

    Returns None when the conditions fail.  The built matrix is verified
    rank by rank; a mismatch raises VerificationFailed since it would
    mean the construction itself is broken.
    """
    hyp = structure.uniform_minimizer_hypotheses(r, s, t)
    if not hyp.holds:
        return None
    a = two_cover_matrix(r, s, (1, hyp.f_prime), (2, hyp.f))
    for k, got in zip(range(1, t + 1), flow.t_term_ranks(a)):
        expected, _ = structure.min_t_term_rank(r, s, k)
        if got != expected:
            raise VerificationFailed(
                f"built matrix has {k}-term rank {got}, class minimum is {expected}"
            )
    return a
