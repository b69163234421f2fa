"""Constructive algorithms: the canonical matrix, interchange paths and
the zero-block construction by column shifting.

One column shift, `_shift_columns`, picks the rows of every column by
one rule: largest live sum, bottommost on ties.  By Ryser's lemma that
rule fills any realizable margins, so the shift itself raises
InfeasibleShift on unrealizable ones and the residual core needs no
Gale-Ryser test.  Every matrix is assembled from the shift's column
row-lists, with margins known by construction.

One assembler, `_assemble`, builds a class member carrying the prefix
covers (e1, f1) and (e2, f2), e1 <= e2 and f1 >= f2: `two_cover_parts`
calls it with two crossing covers and `modified_ryser` with both covers
equal to (e, f).  It shifts columns n-1 down to f1 into the first e1
rows, shifts the transposed margins alike for rows m-1 down to e2 into
the first f2 columns, and fills the core, rows < e2 by columns < f1,
with the canonical fill of the residual margins.  It decides its covers
itself, and raises InfeasibleShift iff no class member carries them:

- When no shift raises, the assembled matrix is a class member, as the
  weights of a nonempty class agree, with zero blocks where the covers
  put them.
- Take a member A that carries the covers.  For each column k >= f1,
  taken right to left, suppose row i should take k but does not, and
  row i' should not but does, with i, i' < e1.  The shift took row i
  over row i', so its live sum is at least that of i', which spends
  one of its live ones on column k.  Row i then has more live ones left
  of k than row i', so some column j < k has A[i][j] = 1 and
  A[i'][j] = 0.  Interchange (i, i'; j, k).  This stays inside rows
  < e1, which are unrestricted, so every zero block is kept, and A
  comes to agree with the shift on every column from k on.  So the
  shift finds its ones, and no row keeps more live ones than columns
  left to hold them.
- The transposed shift works the same way inside columns < f2.
- The core is a full rectangle, and A's core holds its residual
  margins, so Ryser's canonical fill realizes them.

Cover sizes are read by `partition.prefix_cover`: 2.0 passes as 2, 2.5
or anything but a pair raises ValueError, and an off-grid pair
BadRange.  The normal form of an interchange path is the shift of the
shared margins.  A `partition.KeptClass` slot keeps the most recent
margins' shift: its column row-lists, their bit masks and the canonical
matrix, built together.  `ryser_canonical` returns the kept matrix, and
a path leg from it is empty."""

from __future__ import annotations

from collections.abc import Sequence
from itertools import compress
from typing import NamedTuple

from .binmat import BinaryMatrix
from .errors import BadCoverOrder, InfeasibleShift, NotSameClass, VerificationFailed
from .partition import KeptClass, Partition, prefix_cover, require_nonempty


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
    requested cover shape is unreachable by this construction.  e and f
    are read by `partition.prefix_cover`.
    """
    e, f = prefix_cover((e, f), len(r), len(s))
    block = BinaryMatrix.from_column_sets(*_shift_columns(r.parts, s.parts, e, f), s.parts[f:])
    return block, block.row_sums


class _Shift:
    """The canonical column shift of one class's margins."""

    def __init__(self, row_sums: tuple[int, ...], col_sums: tuple[int, ...]):
        self.cols = _shift_columns(row_sums, col_sums, len(row_sums), 0)[0]
        powers = [1 << i for i in range(len(row_sums))]
        self.masks = [sum(map(powers.__getitem__, col)) for col in self.cols]
        self.matrix = BinaryMatrix.from_column_sets(self.cols, row_sums, col_sums)


_kept = KeptClass(_Shift)


def ryser_canonical(r: Partition, s: Partition) -> BinaryMatrix:
    """The canonical matrix of the class: start from left-justified rows
    and shift each column's ones into place, rightmost column first,
    always drawing from the rows of largest remaining sum.  It is kept
    with the shift until another class is asked about."""
    require_nonempty(r, s)
    return _kept.get(r.parts, s.parts).matrix


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
    EmptyClass for an empty class and InfeasibleShift when no class
    member has this cover (see the module docstring).  e and f are read
    by `partition.prefix_cover`.
    """
    e, f = prefix_cover((e, f), len(r), len(s))
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
    a, b = prefix_cover(cover_a, m, n), prefix_cover(cover_b, m, n)
    if a[0] == b[0] or a[1] == b[1]:
        raise BadCoverOrder(f"covers {a} and {b} do not cross")
    wide, tall = (a, b) if a[0] < b[0] else (b, a)
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
    Raises EmptyClass for an empty class, and InfeasibleShift iff no
    class member carries the covers (see the module docstring).
    Column j < f1 is core column j plus each row e2 + k whose column-block
    column k holds j; column j >= f1 comes from the row block.  Returns
    the assembled matrix's column row-lists, then the pieces only
    two_cover_parts turns into matrices: the row block and the column
    block (column row-lists and row sums), the residual margins and the
    canonical core as `_residual_core` gives it."""
    require_nonempty(r, s)
    (e1, f1), (e2, f2) = cover_wide, cover_tall
    try:
        row_cols, rhat = _shift_columns(r.parts, s.parts, e1, f1)
        col_cols, shat = _shift_columns(s.parts, r.parts, f2, e2)
        rbar = [r[i] - (rhat[i] if i < e1 else 0) for i in range(e2)]
        sbar = [s[j] - (shat[j] if j < f2 else 0) for j in range(f1)]
        cols, canonical_core = _residual_core(rbar, sbar)
    except InfeasibleShift:
        if cover_wide == cover_tall:
            raise InfeasibleShift(
                f"no class member is covered by its first {e1} rows and first {f1} columns"
            ) from None
        raise InfeasibleShift(
            f"no class member carries covers ({e1},{f1}) and ({e2},{f2}) simultaneously"
        ) from None
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
    Raises EmptyClass for an empty class and InfeasibleShift when no
    class member carries both covers (see the module docstring).  Each
    cover is read by `partition.prefix_cover`.
    """
    wide, tall = _normalize_covers(cover_a, cover_b, len(r), len(s))
    (e1, f1), (e2, f2) = wide, tall
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


def _reduce_to_normal(a: BinaryMatrix, shift: _Shift) -> list[Interchange]:
    """Interchange a into the normal form whose column k holds the rows
    shift.cols[k] (bit mask shift.masks[k]), rightmost column first: each
    wanted row without a 1 in column k, in pick order, takes the 1 of the
    topmost unwanted row that has one.  A column in place costs O(1), and
    the shift's own canonical matrix costs nothing."""
    if a is shift.matrix:
        return []
    normal, masks = shift.cols, shift.masks
    powers = [1 << i for i in range(max(a.m, a.n))]
    rows = list(a._row_bits)
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
    the canonical column shift, and splicing the second leg in reverse.
    The shift of the most recent margins is kept, and an endpoint that is
    its canonical matrix (see ryser_canonical) has an empty leg."""
    if (a.m, a.n) != (b.m, b.n) or a.row_sums != b.row_sums or a.col_sums != b.col_sums:
        raise NotSameClass("matrices differ in shape or margins")
    shift = _kept.get(a.row_sums, a.col_sums)
    return tuple(_reduce_to_normal(a, shift)) + tuple(reversed(_reduce_to_normal(b, shift)))


def construct_uniform_minimizer(r: Partition, s: Partition, t: int) -> BinaryMatrix | None:
    """Build a class member realizing the minimum k-term rank for every
    k = 1..t, when the sufficient two-cover conditions hold.

    Returns None when the conditions fail.  The built matrix is verified
    rank by rank; a mismatch raises VerificationFailed since it would
    mean the construction itself is broken.  It alone imports the flow
    and structure layers, when called, so the other constructions load
    neither.
    """
    from . import flow, structure

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
