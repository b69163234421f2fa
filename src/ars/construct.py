"""Constructive algorithms: the canonical matrix, interchange paths and
the zero-block construction by column shifting.

One assembler builds a class member carrying the prefix covers (e1, f1)
and (e2, f2): `two_cover_parts` calls it with two crossing covers and
`modified_ryser` with both covers equal to (e, f).  Each checks first
that some class member carries its covers (`structure.cover_exists`,
`structure.two_cover_exists`) and raises InfeasibleShift when none
does.  Cover sizes follow `partition.exact_integers`: 2.0 passes as 2,
and 2.5 raises ValueError.  One column shift, `_shift_columns`, picks
the rows of every column by one rule: largest live sum, bottommost on
ties.  By Ryser's lemma that rule fills any realizable margins, so the
shift itself raises InfeasibleShift on unrealizable ones and the
residual core needs no Gale-Ryser test.  Every matrix is assembled from the shift's column
row-lists, with margins known by construction.  The normal form of an
interchange path is the shift of the shared margins, made once."""

from __future__ import annotations

from collections.abc import Sequence
from itertools import compress
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
from .partition import Partition, exact_integers, is_nonempty
from . import structure


def _descending_order(seq: Sequence[int]) -> list[int]:
    """Indices of seq by decreasing value; a stable sort, so equal values
    keep their original relative order."""
    return sorted(range(len(seq)), key=seq.__getitem__, reverse=True)


def _shift_columns(
    row_sums: Sequence[int], col_sums: Sequence[int], e: int, f: int
) -> tuple[list[list[int]], list[int]]:
    """Shift columns n-1 down to f (0-based) into the first e rows.

    Starting from left-justified rows with the given sums, column k takes
    col_sums[k] ones from the rows of largest live sum, bottommost on
    ties: one key list v*e + i, sorted per column, orders the rows by
    live sum v, then by index.  Returns the row-lists of columns f..n-1,
    each in pick order, and the ones each row gave up.
    """
    keys = [v * e + i for i, v in enumerate(row_sums[:e])]
    cols = []
    for k in range(len(col_sums) - 1, f - 1, -1):
        keys.sort(reverse=True)
        amount = col_sums[k]
        top = keys[:amount]
        if amount and (len(top) < amount or top[-1] < e):
            live = sum(key >= e for key in keys)
            raise InfeasibleShift(f"need {amount} rows with ones left, only {live} available")
        keys[:amount] = [key - e for key in top]
        cols.append([key % e for key in top])
        if keys and max(keys[0], keys[min(amount, len(keys) - 1)]) // e > k:
            raise InfeasibleShift(f"a row holds more ones than the {k} live columns can carry")
    live = {key % e: key // e for key in keys}
    return cols[::-1], [v - live[i] for i, v in enumerate(row_sums[:e])]


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
    e, f = exact_integers((e, f), "cover sizes")
    if not (0 <= e <= m and 0 <= f <= n):
        raise BadRange(f"need 0 <= e <= {m} and 0 <= f <= {n}, got e={e}, f={f}")
    block = BinaryMatrix.from_column_sets(*_shift_columns(r.parts, s.parts, e, f), s.parts[f:])
    return block, block.row_sums


def ryser_canonical(r: Partition, s: Partition) -> BinaryMatrix:
    """The canonical matrix of the class: start from left-justified rows
    and shift each column's ones into place, rightmost column first,
    always drawing from the rows of largest remaining sum."""
    if not is_nonempty(r, s):
        raise EmptyClass(f"no matrix has row sums {r.parts} and column sums {s.parts}")
    cols, _ = _shift_columns(r.parts, s.parts, len(r), 0)
    return BinaryMatrix.from_column_sets(cols, r.parts, s.parts)


def _residual_core(
    rbar: Sequence[int], sbar: Sequence[int]
) -> tuple[list[list[int]], tuple[list[list[int]], list[int], list[int]]]:
    """Canonical fill for residual margins that may hold zeros.

    Sorts both residual sequences (stable), shifts the sorted pair into
    its canonical matrix, and un-permutes that back into the original row
    and column order.  Returns (unsorted column row-lists, the canonical
    matrix as built: its column row-lists, row sums and column sums).
    Unrealizable margins make the shift raise InfeasibleShift; an empty
    sbar, which the shift cannot check, comes with rbar all 0.
    """
    order_r = _descending_order(rbar)
    order_c = _descending_order(sbar)
    sorted_c = [sbar[j] for j in order_c]
    cols, shifted = _shift_columns([rbar[i] for i in order_r], sorted_c, len(rbar), 0)
    core = [[] for _ in sbar]
    for j, col in zip(order_c, cols):
        core[j] = [order_r[i] for i in col]
    return core, (cols, shifted, sorted_c)


def modified_ryser(r: Partition, s: Partition, e: int, f: int) -> BinaryMatrix:
    """Build a class member whose 1s all lie in the union of the first e
    rows and first f columns.

    This is the zero-block assembly of two_cover_parts with both covers
    equal to (e, f): the top-right block comes from shifting columns
    n..f+1 within the first e rows, the bottom-left block from the
    transposed construction on the first f columns, and the top-left
    block is a canonical fill of the leftover margins.  Raises
    InfeasibleShift when no class member has this cover (see
    structure.cover_exists).  e and f follow `partition.exact_integers`
    (2.0 passes as 2; 2.5 raises ValueError).
    """
    e, f = exact_integers((e, f), "cover sizes")
    if not structure.cover_exists(r, s, e, f):
        raise InfeasibleShift(
            f"no class member is covered by its first {e} rows and first {f} columns"
        )
    cols = _assemble(r, s, (e, f), (e, f))[0]
    return BinaryMatrix.from_column_sets(cols, r.parts, s.parts)


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
    cover_a, cover_b = (exact_integers(tuple(cover), "cover sizes") for cover in (cover_a, cover_b))
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
) -> tuple:
    """The zero-block assembly for covers (e1, f1) and (e2, f2) with
    e1 <= e2 and f1 >= f2; equal covers give the single-cover case.
    Column j < f1 is core column j plus each row e2 + k whose column-block
    column k holds j; column j >= f1 comes from the row block.  Returns
    the assembled matrix's column row-lists, then the pieces only
    two_cover_parts turns into matrices: the row block and the column
    block (column row-lists and row sums), the residual margins and the
    canonical core as `_residual_core` gives it."""
    (e1, f1), (e2, f2) = cover_wide, cover_tall
    row_cols, rhat = _shift_columns(r.parts, s.parts, e1, f1)
    col_cols, shat = _shift_columns(s.parts, r.parts, f2, e2)
    rbar = [r[i] - (rhat[i] if i < e1 else 0) for i in range(e2)]
    sbar = [s[j] - (shat[j] if j < f2 else 0) for j in range(f1)]
    cols, canonical_core = _residual_core(rbar, sbar)
    for i, row in enumerate(col_cols, e2):
        for j in row:
            cols[j].append(i)
    return cols + row_cols, (row_cols, rhat), (col_cols, shat), rbar, sbar, canonical_core


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
    cols, row_block, col_block, rbar, sbar, core = _assemble(r, s, wide, tall)
    return TwoCoverParts(
        cover_wide=wide,
        cover_tall=tall,
        row_block=BinaryMatrix.from_column_sets(*row_block, s.parts[f1:]),
        col_block=BinaryMatrix.from_column_sets(*col_block, r.parts[e2:]),
        residual_row_sums=tuple(rbar),
        residual_col_sums=tuple(sbar),
        canonical_core=BinaryMatrix.from_column_sets(*core),
        matrix=BinaryMatrix.from_column_sets(cols, r.parts, s.parts),
    )


def two_cover_matrix(
    r: Partition, s: Partition, cover_a: tuple[int, int], cover_b: tuple[int, int]
) -> BinaryMatrix:
    """The assembled matrix of two_cover_parts."""
    return two_cover_parts(r, s, cover_a, cover_b).matrix


Interchange = tuple[int, int, int, int]


def _reduce_to_normal(
    a: BinaryMatrix, normal: list[list[int]], masks: list[int]
) -> list[Interchange]:
    """Interchange a into the normal form whose column k holds the rows
    normal[k] (bit mask masks[k]), rightmost column first: each wanted
    row without a 1 in column k, in pick order, takes the 1 of the
    topmost unwanted row that has one.  A column in place costs O(1)."""
    powers = [1 << i for i in range(max(a.m, a.n))]
    rows = [sum(compress(powers, row)) for row in a.rows]
    cols = [sum(compress(powers, col)) for col in zip(*a.rows)]
    path: list[Interchange] = []
    for k in range(a.n - 1, -1, -1):
        have = cols[k]
        extra = have & ~masks[k]
        if not extra:
            continue
        for i in normal[k]:
            if have >> i & 1:
                continue
            low = extra & -extra
            extra ^= low
            ip = low.bit_length() - 1
            # row i owns strictly more live ones left of column k than
            # row ip, so a pivot column always exists; take the lowest
            pivot = rows[i] & ~rows[ip] & (powers[k] - 1)
            j = (pivot & -pivot).bit_length() - 1
            rows[i] ^= powers[j] | powers[k]
            rows[ip] ^= powers[j] | powers[k]
            cols[j] ^= powers[i] | low
            cols[k] ^= powers[i] | low
            path.append((i, ip, j, k))
    if cols != masks:
        raise VerificationFailed("the two matrices reduced to different normal forms")
    return path


def interchange_path(a: BinaryMatrix, b: BinaryMatrix) -> tuple[Interchange, ...]:
    """A sequence of interchanges (i1, i2, j1, j2) carrying a onto b,
    found by reducing both to the normal form of their shared margins,
    the canonical column shift, and splicing the second leg in reverse."""
    if (a.m, a.n) != (b.m, b.n) or a.row_sums != b.row_sums or a.col_sums != b.col_sums:
        raise NotSameClass("matrices differ in shape or margins")
    normal, _ = _shift_columns(a.row_sums, a.col_sums, a.m, 0)
    powers = [1 << i for i in range(a.m)]
    masks = [sum(map(powers.__getitem__, col)) for col in normal]
    path_b = _reduce_to_normal(b, normal, masks)
    return tuple(_reduce_to_normal(a, normal, masks)) + tuple(reversed(path_b))


def construct_uniform_minimizer(r: Partition, s: Partition, t: int) -> BinaryMatrix | None:
    """Build a class member realizing the minimum k-term rank for every
    k = 1..t, when the sufficient two-cover conditions hold.

    Returns None when the conditions fail.  The built matrix is verified
    rank by rank; a mismatch raises VerificationFailed since it would
    mean the construction itself is broken.  It alone imports the flow
    layer, when called, so the other constructions load none of it.
    """
    from . import flow

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
