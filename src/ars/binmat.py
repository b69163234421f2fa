"""The (0,1)-matrix value type, class membership, interchanges and
covers."""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence
from itertools import compress, product
from typing import NamedTuple

from .errors import BadRange, InvalidInterchange
from .partition import Partition, decimal_integer, exact_integers, prefix_cover, shown

# maps each entry equal to 0 or 1 (False, True, 1.0, ...) to that int
_BIT = {0: 0, 1: 1}.__getitem__
# maps each text entry, exactly "0" or "1", to its int; int() would also
# take "+1", "01" and other Unicode digits
_TEXT_BIT = {"0": 0, "1": 1}.__getitem__


# entry b: the entries of columns 0..7 of a row whose column bitmask has
# low byte b (bit j set iff column j holds a 1)
_BYTE_ROWS = tuple(bits[::-1] for bits in product((0, 1), repeat=8))


class BinaryMatrix:
    """An immutable dense m-by-n matrix over {0,1} with cached margins.

    Text format: first line ``m n``, then m lines of n space-separated
    0/1 digits; blank lines and ``#`` comment lines are ignored when
    parsing, so an m-by-0 matrix is its header alone.  JSON form:
    ``{"m":..,"n":..,"rows":[[..],..]}``.  Either form must declare the
    shape of its rows, and a matrix with no rows is 0x0.

    Each row is stored as a column bitmask in ``_row_bits`` (bit j set
    iff the row has a 1 in column j), whichever builder made the matrix;
    equality and hashing read the shape and these bitmasks, and the rank
    kernel of `ars.flow` starts from them.  ``_rows`` is a cache of the
    row tuples: the constructor stores the grid it checked, and every
    other builder leaves it None, so the first read of ``rows`` decodes
    the bitmasks, eight columns at a time from the constant table
    `_BYTE_ROWS`, and keeps the rows.
    ``_rank_state`` belongs to `ars.flow`: it holds the warm
    t-term-rank kernel of the matrix once the matrix is ranked (None
    before); matrices of one class that are row permutations of each
    other hold the same kernel, since their ranks are equal.  Repr, the
    JSON and text forms, pickling and copying read only the rows; a copy
    starts without the kernel.
    """

    __slots__ = ("_rows", "m", "n", "row_sums", "col_sums", "_row_bits", "_rank_state")

    def __init__(self, rows: Iterable[Iterable[int]]):
        try:
            # a lookup, unlike int(), rejects 0.5 and "1" instead of
            # truncating or parsing them
            grid = tuple(tuple(map(_BIT, row)) for row in rows)
        except KeyError as exc:
            raise ValueError(f"entries must be 0 or 1, got {exc.args[0]!r}") from None
        n = len(grid[0]) if grid else 0
        if any(len(row) != n for row in grid):
            raise ValueError("ragged rows")
        weights = [1 << j for j in range(n)]
        row_bits = tuple(sum(compress(weights, row)) for row in grid)
        self._store(row_bits, tuple(map(sum, grid)), tuple(map(sum, zip(*grid))), grid)

    def _store(
        self, row_bits: tuple, row_sums: tuple, col_sums: tuple, rows: tuple | None = None
    ) -> "BinaryMatrix":
        """Set every slot as given and return the matrix; the shape is
        len(row_sums) by len(col_sums).  Only the constructor checks its
        grid and margins first; the unchecked builders vouch for their own
        bitmasks and margins.  Without rows, they are decoded from
        row_bits on first read."""
        self._row_bits = row_bits
        self.m = len(row_sums)
        self.n = len(col_sums)
        self.row_sums = row_sums
        self.col_sums = col_sums
        self._rows = rows
        self._rank_state = None
        return self

    @property
    def rows(self) -> tuple[tuple[int, ...], ...]:
        rows = self._rows
        if rows is None:
            n = self.n
            chunks = range(8, n, 8)
            rows = []
            for mask in self._row_bits:
                row = _BYTE_ROWS[mask & 255][:n]
                for k in chunks:
                    row += _BYTE_ROWS[mask >> k & 255][:n - k]
                rows.append(row)
            rows = self._rows = tuple(rows)
        return rows

    @classmethod
    def from_column_sets(
        cls,
        col_rows: Sequence[Iterable[int]],
        row_sums: Sequence[int],
        col_sums: Sequence[int],
    ) -> "BinaryMatrix":
        """The matrix whose column j has its 1s in the rows col_rows[j],
        for a caller that already knows its margins: nothing is checked,
        and row_sums and col_sums are stored as given, so they must be
        the matrix's own.  The shape is len(row_sums) by len(col_sums),
        except that with no rows it is 0x0, as the constructor makes every
        row-less grid.  Input from outside goes through the constructor,
        which checks every entry."""
        if not row_sums:
            col_sums = ()
        row_bits = [0] * len(row_sums)
        for j, rows in enumerate(col_rows):
            for i in rows:
                row_bits[i] |= 1 << j
        return cls.__new__(cls)._store(tuple(row_bits), tuple(row_sums), tuple(col_sums))

    @classmethod
    def from_text(cls, text: str) -> "BinaryMatrix":
        lines = [
            ln for ln in text.splitlines() if ln.strip() and not ln.lstrip().startswith("#")
        ]
        if not lines:
            raise ValueError("empty matrix text")
        header = lines[0].split()
        if len(header) != 2:
            raise ValueError("first line must be 'm n'")
        m, n = (decimal_integer(v, "header entry") for v in header)
        if min(m, n) < 0:
            raise ValueError(f"header entry {min(m, n)} is negative")
        body = lines[1:]
        if n == 0 and not body:
            body = [""] * m  # the empty rows of an m-by-0 matrix are blank lines
        if len(body) != m:
            raise ValueError(f"expected {m} rows, got {len(body)}")
        try:
            rows = [[*map(_TEXT_BIT, ln.split())] for ln in body]
        except KeyError as exc:
            raise ValueError(f"entries must be 0 or 1, got {exc.args[0]!r}") from None
        if any(len(row) != n for row in rows):
            raise ValueError(f"expected {n} entries per row")
        a = cls(rows)
        if a.m != m or a.n != n:
            raise ValueError("declared dimensions disagree with rows")
        return a

    def to_text(self) -> str:
        out = [f"{self.m} {self.n}"]
        out.extend(" ".join(str(v) for v in row) for row in self.rows)
        return "\n".join(out)

    @classmethod
    def from_json_obj(cls, obj: dict) -> "BinaryMatrix":
        a = cls(obj["rows"])
        if a.m != obj["m"] or a.n != obj["n"]:
            raise ValueError("declared dimensions disagree with rows")
        return a

    def to_json_obj(self) -> dict:
        return {"m": self.m, "n": self.n, "rows": [list(row) for row in self.rows]}

    def ones(self) -> Iterator[tuple[int, int]]:
        """Positions (i, j) of the 1-entries, row-major."""
        for i, row in enumerate(self.rows):
            for j, v in enumerate(row):
                if v:
                    yield i, j

    def __getitem__(self, i: int) -> tuple[int, ...]:
        return self.rows[i]

    def __eq__(self, other: object) -> bool:
        return isinstance(other, BinaryMatrix) and self.n == other.n \
            and self._row_bits == other._row_bits

    def __hash__(self) -> int:
        return hash((self.n, self._row_bits))

    def __reduce__(self):
        # rebuild from the rows alone, without the rank kernel state; fresh row
        # tuples, as the constructor's, so equal rows sharing one tuple pickle alike
        return BinaryMatrix, (tuple((*row,) for row in self.rows),)

    def __repr__(self) -> str:
        return f"BinaryMatrix({list(map(list, self.rows))})"


def _cover_indices(idx: Iterable[int] | None, size: int, name: str) -> tuple[int, ...] | None:
    """The explicit index set of a cover as a tuple of distinct
    nonnegative ints, `size` of them, or None when there is none."""
    if idx is None:
        return None
    idx = exact_integers(tuple(idx), f"cover {name}")
    if len(set(idx)) != len(idx):
        raise ValueError(f"duplicate {name} in cover")
    if len(idx) != size:
        raise ValueError(f"{name} set size disagrees with declared count")
    if idx and min(idx) < 0:
        raise BadRange(f"negative index in {name}")
    return idx


class _CoverFields(NamedTuple):
    e: int
    f: int
    rows: tuple[int, ...] | None = None
    cols: tuple[int, ...] | None = None


class CoverSpec(_CoverFields):
    """A cover by e rows and f columns.  Without explicit index sets the
    prefix rows 0..e-1 and columns 0..f-1 are meant.  The sizes and the
    explicit indices follow `partition.exact_integers`: 2.0 passes and is
    stored as 2, 1.9 and "2" raise ValueError.  Explicit indices are
    stored as a tuple.  A negative size or index raises BadRange, as
    does an index off the grid when `cover_sets` reads the cover."""

    __slots__ = ()

    def __new__(
        cls,
        e: int,
        f: int,
        rows: tuple[int, ...] | None = None,
        cols: tuple[int, ...] | None = None,
    ) -> "CoverSpec":
        e, f = exact_integers((e, f), "cover sizes")
        if e < 0 or f < 0:
            raise BadRange("cover sizes must be nonnegative")
        rows = _cover_indices(rows, e, "rows")
        cols = _cover_indices(cols, f, "cols")
        return super().__new__(cls, e, f, rows, cols)

    @classmethod
    def prefix(cls, e: int, f: int) -> "CoverSpec":
        return cls(e=e, f=f)


def in_class(a: BinaryMatrix, r: Partition | Sequence[int], s: Partition | Sequence[int]) -> bool:
    """True iff a has row sums r and column sums s, entry for entry.

    Loose sequences are accepted so that candidate margins with zeros can
    be tested directly.
    """
    return a.row_sums == tuple(r) and a.col_sums == tuple(s)


def apply_interchange(a: BinaryMatrix, i1: int, i2: int, j1: int, j2: int) -> BinaryMatrix:
    """Swap the 2x2 submatrix on rows {i1,i2}, columns {j1,j2} between the
    patterns [[1,0],[0,1]] and [[0,1],[1,0]].  Row and column sums are
    preserved, so the result stays in the same class and keeps a's
    margins; only the bitmasks of rows i1 and i2 change.  The indices
    follow `partition.exact_integers` (2.0 passes as 2; 2.5 raises
    ValueError) and are grid positions, as in a cover: a negative index,
    or one at or past m or n, raises BadRange."""
    i1, i2, j1, j2 = exact_integers((i1, i2, j1, j2), "interchange indices")
    if not (0 <= i1 < a.m and 0 <= i2 < a.m and 0 <= j1 < a.n and 0 <= j2 < a.n):
        raise BadRange(f"interchange ({i1},{i2},{j1},{j2}) out of range for {a.m}x{a.n}")
    if i1 == i2 or j1 == j2:
        raise InvalidInterchange("interchange needs two distinct rows and columns")
    bits = list(a._row_bits)
    top, low = bits[i1], bits[i2]
    sub = (top >> j1 & 1, top >> j2 & 1, low >> j1 & 1, low >> j2 & 1)
    if sub not in ((1, 0, 0, 1), (0, 1, 1, 0)):
        raise InvalidInterchange(f"submatrix {sub} is not an interchangeable pattern")
    # each row trades its bit in j1 for its bit in j2
    bits[i1] ^= 1 << j1 | 1 << j2
    bits[i2] ^= 1 << j1 | 1 << j2
    return BinaryMatrix.__new__(BinaryMatrix)._store(tuple(bits), a.row_sums, a.col_sums)


def cover_sets(
    cover: CoverSpec | tuple[int, int], m: int, n: int
) -> tuple[frozenset[int], frozenset[int]]:
    """The covered rows and the covered columns of an m-by-n matrix:
    the one reader of both cover forms.  A CoverSpec gives its explicit
    index sets, or the prefix ranges where a set is None; anything else
    is an (e, f) pair, read by `partition.prefix_cover` (ValueError for
    anything but a pair), meaning the first e rows and first f columns.
    A cover off the grid, in either form, raises BadRange."""
    if not isinstance(cover, CoverSpec):
        e, f = prefix_cover(cover, m, n)
        return frozenset(range(e)), frozenset(range(f))
    e, f, rows, cols = cover
    rows = range(e) if rows is None else rows
    cols = range(f) if cols is None else cols
    if max(rows, default=-1) >= m or max(cols, default=-1) >= n:
        raise BadRange(f"cover {shown(cover)} out of range for {m}x{n}")
    return frozenset(rows), frozenset(cols)


def is_covered(a: BinaryMatrix, cover: CoverSpec | tuple[int, int]) -> bool:
    """True iff every 1 of a lies in a covered row or covered column;
    the cover is read by `cover_sets`."""
    rows, cols = cover_sets(cover, a.m, a.n)
    return all(i in rows or j in cols for i, j in a.ones())
