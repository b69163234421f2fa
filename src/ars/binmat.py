"""The (0,1)-matrix value type, class membership, interchanges and
covers."""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence
from itertools import product
from typing import NamedTuple

from .errors import DimensionMismatch, InvalidInterchange
from .partition import Partition, decimal_integer, exact_integers

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

    Two more slots are caches that no value behaviour sees.
    ``_row_bits`` holds each row as a column bitmask (bit j set iff the
    row has a 1 in column j), a tuple set only by a builder that already
    knows the bits, such as class enumeration, and None otherwise; the
    rank kernel starts from it instead of reading the rows.  Such a
    builder may leave the rows unbuilt (``_rows`` None): the first read
    of ``rows`` decodes them from the bitmasks, eight columns at a time
    from the constant table `_BYTE_ROWS`, and keeps them.  Every other
    builder stores its rows at once.
    ``_rank_state`` belongs to `ars.flow`: it holds the warm
    t-term-rank kernel of the matrix once the matrix is ranked (None
    before); enumerated members of one class that are row permutations
    of each other hold the same kernel, since their ranks are equal.
    Equality, hashing, repr, the JSON and text forms, pickling and
    copying ignore both; a copy starts without them.
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
        self._store(grid, tuple(map(sum, grid)), tuple(map(sum, zip(*grid))))

    def _store(
        self, rows: tuple | None, row_sums: tuple, col_sums: tuple, row_bits: tuple | None = None
    ) -> None:
        """Set every slot as given; the shape is len(row_sums) by
        len(col_sums).  Only the constructor checks rows and margins
        first; the unchecked builders vouch for their own, and for the
        row bitmasks when they pass them.  rows may be None only when
        row_bits is given: the rows are then decoded from it on first
        read."""
        self._rows = rows
        self.m = len(row_sums)
        self.n = len(col_sums)
        self.row_sums = row_sums
        self.col_sums = col_sums
        self._row_bits = row_bits
        self._rank_state = None

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
        n = len(col_sums)
        grid = [[0] * n for _ in row_sums]
        for j, rows in enumerate(col_rows):
            for i in rows:
                grid[i][j] = 1
        a = cls.__new__(cls)
        a._store(tuple(map(tuple, grid)), tuple(row_sums), tuple(col_sums))
        return a

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
        return isinstance(other, BinaryMatrix) and self.rows == other.rows \
            and self.m == other.m and self.n == other.n

    def __hash__(self) -> int:
        return hash((self.m, self.n, self.rows))

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
        raise ValueError(f"negative index in {name}")
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
    stored as a tuple."""

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
            raise ValueError("cover sizes must be nonnegative")
        rows = _cover_indices(rows, e, "rows")
        cols = _cover_indices(cols, f, "cols")
        return super().__new__(cls, e, f, rows, cols)

    @classmethod
    def prefix(cls, e: int, f: int) -> "CoverSpec":
        return cls(e=e, f=f)

    def row_set(self, m: int) -> frozenset[int]:
        if self.rows is None:
            if self.e > m:
                raise DimensionMismatch("cover has more rows than the matrix")
            return frozenset(range(self.e))
        if any(i >= m for i in self.rows):
            raise DimensionMismatch("row index out of range")
        return frozenset(self.rows)

    def col_set(self, n: int) -> frozenset[int]:
        if self.cols is None:
            if self.f > n:
                raise DimensionMismatch("cover has more columns than the matrix")
            return frozenset(range(self.f))
        if any(j >= n for j in self.cols):
            raise DimensionMismatch("column index out of range")
        return frozenset(self.cols)


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
    margins; only rows i1 and i2 are copied."""
    if i1 == i2 or j1 == j2:
        raise InvalidInterchange("interchange needs two distinct rows and columns")
    sub = (a.rows[i1][j1], a.rows[i1][j2], a.rows[i2][j1], a.rows[i2][j2])
    if sub not in ((1, 0, 0, 1), (0, 1, 1, 0)):
        raise InvalidInterchange(f"submatrix {sub} is not an interchangeable pattern")
    rows = list(a.rows)
    for i in (i1, i2):  # each row trades its bit in j1 for its bit in j2
        row = list(rows[i])
        row[j1] ^= 1
        row[j2] ^= 1
        rows[i] = tuple(row)
    b = BinaryMatrix.__new__(BinaryMatrix)
    b._store(tuple(rows), a.row_sums, a.col_sums)
    return b


def is_covered(a: BinaryMatrix, cover: CoverSpec) -> bool:
    """True iff every 1 of a lies in a covered row or covered column."""
    rows = cover.row_set(a.m)
    cols = cover.col_set(a.n)
    return all(i in rows or j in cols for i, j in a.ones())
