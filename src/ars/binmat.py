"""The (0,1)-matrix value type, class membership, interchanges and
covers."""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence
from typing import NamedTuple

from .errors import InvalidInterchange
from .partition import Partition


class BinaryMatrix:
    """An immutable dense m-by-n matrix over {0,1} with cached margins.

    Text format: first line ``m n``, then m lines of n space-separated
    0/1 digits; blank lines and ``#`` comment lines are ignored when
    parsing.  JSON form: ``{"m":..,"n":..,"rows":[[..],..]}``.
    """

    __slots__ = ("rows", "m", "n", "row_sums", "col_sums")

    def __init__(self, rows: Iterable[Iterable[int]]):
        grid = tuple(tuple(int(v) for v in row) for row in rows)
        m = len(grid)
        n = len(grid[0]) if m else 0
        for row in grid:
            if len(row) != n:
                raise ValueError("ragged rows")
            for v in row:
                if v not in (0, 1):
                    raise ValueError(f"entries must be 0 or 1, got {v}")
        self.rows = grid
        self.m = m
        self.n = n
        self.row_sums = tuple(sum(row) for row in grid)
        self.col_sums = tuple(sum(row[j] for row in grid) for j in range(n))

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
        m, n = int(header[0]), int(header[1])
        if len(lines) - 1 != m:
            raise ValueError(f"expected {m} rows, got {len(lines) - 1}")
        rows = []
        for ln in lines[1:]:
            vals = [int(v) for v in ln.split()]
            if len(vals) != n:
                raise ValueError(f"expected {n} entries per row")
            rows.append(vals)
        return cls(rows)

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

    def transpose(self) -> "BinaryMatrix":
        if self.m == 0 or self.n == 0:
            return BinaryMatrix([[] for _ in range(self.n)])
        return BinaryMatrix(zip(*self.rows))

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

    def __repr__(self) -> str:
        return f"BinaryMatrix({list(map(list, self.rows))})"


class _CoverFields(NamedTuple):
    e: int
    f: int
    rows: tuple[int, ...] | None = None
    cols: tuple[int, ...] | None = None


class CoverSpec(_CoverFields):
    """A cover by e rows and f columns.  Without explicit index sets the
    prefix rows 0..e-1 and columns 0..f-1 are meant."""

    __slots__ = ()

    def __new__(
        cls,
        e: int,
        f: int,
        rows: tuple[int, ...] | None = None,
        cols: tuple[int, ...] | None = None,
    ) -> "CoverSpec":
        if e < 0 or f < 0:
            raise ValueError("cover sizes must be nonnegative")
        for name, idx, size in (("rows", rows, e), ("cols", cols, f)):
            if idx is None:
                continue
            if len(set(idx)) != len(idx):
                raise ValueError(f"duplicate {name} in cover")
            if len(idx) != size:
                raise ValueError(f"{name} set size disagrees with declared count")
            if any(i < 0 for i in idx):
                raise ValueError(f"negative index in {name}")
        return super().__new__(cls, e, f, rows, cols)

    @classmethod
    def prefix(cls, e: int, f: int) -> "CoverSpec":
        return cls(e=e, f=f)

    def row_set(self, m: int) -> frozenset[int]:
        if self.rows is None:
            if self.e > m:
                raise ValueError("cover has more rows than the matrix")
            return frozenset(range(self.e))
        if any(i >= m for i in self.rows):
            raise ValueError("row index out of range")
        return frozenset(self.rows)

    def col_set(self, n: int) -> frozenset[int]:
        if self.cols is None:
            if self.f > n:
                raise ValueError("cover has more columns than the matrix")
            return frozenset(range(self.f))
        if any(j >= n for j in self.cols):
            raise ValueError("column index out of range")
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
    preserved, so the result stays in the same class."""
    if i1 == i2 or j1 == j2:
        raise InvalidInterchange("interchange needs two distinct rows and columns")
    sub = (a.rows[i1][j1], a.rows[i1][j2], a.rows[i2][j1], a.rows[i2][j2])
    if sub not in ((1, 0, 0, 1), (0, 1, 1, 0)):
        raise InvalidInterchange(f"submatrix {sub} is not an interchangeable pattern")
    grid = [list(row) for row in a.rows]
    for i, j in ((i1, j1), (i1, j2), (i2, j1), (i2, j2)):
        grid[i][j] ^= 1
    return BinaryMatrix(grid)


def is_covered(a: BinaryMatrix, cover: CoverSpec) -> bool:
    """True iff every 1 of a lies in a covered row or covered column."""
    rows = cover.row_set(a.m)
    cols = cover.col_set(a.n)
    return all(i in rows or j in cols for i, j in a.ones())
