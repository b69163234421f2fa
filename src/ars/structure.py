"""Structure tables for a class of (0,1)-matrices with fixed margins.

Everything here is derived from the structure matrix

    t[k][l] = k*l - (S_1 + ... + S_l) + (R_{k+1} + ... + R_m),

an (m+1)-by-(n+1) integer table indexed from 0.  The companion table phi
certifies prefix covers: some class member has all its 1s inside the
first e rows and first f columns exactly when phi[e][f] == t[e][f].  The
two-cover analogue psi plays the same role for a pair of prefix covers.

With the suffix minima

    A[i][l] = min_{l' >= l} t[i][l']      (along row i)
    B[k][j] = min_{k' >= k} t[k'][j]      (down column j)

phi[k][l] = min over i1 <= k, j1 <= l of A[i1][l] + B[k][j1] + (k-i1)(l-j1),
and phi <= t everywhere.  Cover feasibility is upward closed in both e
and f, so it is fully described by the frontier front[e], the least
feasible f for e rows; front is nonincreasing and one staircase walk
finds it in O(m+n) cell probes.  Every criterion except the full phi
table reads the frontier.  Per class, t, A, B, the Gale-Ryser verdict,
the frontier and phi are built once and kept in a bounded cache.
"""

from __future__ import annotations

from functools import cached_property, lru_cache
from typing import NamedTuple

from .errors import BadRange, DimensionTooSmall, EmptyClass, WeightMismatch
from .partition import Partition, is_nonempty


class StructureTable:
    """An immutable (m+1)-by-(n+1) integer table, kind "T" or "Phi"."""

    __slots__ = ("values", "kind")

    def __init__(self, values: tuple[tuple[int, ...], ...], kind: str):
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "kind", kind)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.values, self.kind) == (other.values, other.kind)

    def __hash__(self) -> int:
        return hash((self.values, self.kind))

    def __reduce__(self):
        # pickle and copy rebuild through __init__, not through __setattr__
        return StructureTable, (self.values, self.kind)

    def __repr__(self) -> str:
        return f"StructureTable(values={self.values!r}, kind={self.kind!r})"

    @property
    def m(self) -> int:
        return len(self.values) - 1

    @property
    def n(self) -> int:
        return len(self.values[0]) - 1

    def __getitem__(self, kl: tuple[int, int]) -> int:
        k, l = kl
        return self.values[k][l]

    def min_entry(self) -> int:
        return min(min(row) for row in self.values)

    def render(self) -> str:
        """Aligned grid with 0-based row and column headers."""
        width = max(
            max(len(str(v)) for row in self.values for v in row),
            len(str(self.n)),
        )
        header = "    " + " ".join(f"{j:>{width}}" for j in range(self.n + 1))
        lines = [header]
        for k, row in enumerate(self.values):
            lines.append(f"{k:>3} " + " ".join(f"{v:>{width}}" for v in row))
        return "\n".join(lines)

    def to_json_obj(self) -> dict:
        return {"kind": self.kind, "values": [list(row) for row in self.values]}


class _ClassTables:
    """Everything the structure layer derives from one pair (r, s).

    t, its suffix minima and the Gale-Ryser verdict are built at once in
    O(mn); the frontier and the full phi table are built on first use.
    """

    def __init__(self, r: Partition, s: Partition):
        if r.weight != s.weight:
            raise WeightMismatch(f"weights differ: {r.weight} vs {s.weight}")
        m, n = len(r), len(s)
        pref_s = [0] * (n + 1)
        for j, v in enumerate(s):
            pref_s[j + 1] = pref_s[j] + v
        suf_r = [0] * (m + 2)
        for i in range(m - 1, -1, -1):
            suf_r[i + 1] = suf_r[i + 2] + r[i]
        self.t = tuple(
            tuple(k * l - pref_s[l] + suf_r[k + 1] for l in range(n + 1))
            for k in range(m + 1)
        )
        self.nonempty = is_nonempty(r, s)
        row_min = []  # A
        for row in self.t:
            acc = list(row)
            for l in range(n - 1, -1, -1):
                acc[l] = min(acc[l], acc[l + 1])
            row_min.append(acc)
        col_min = [list(self.t[m])]  # B, built from the bottom row up
        for k in range(m - 1, -1, -1):
            col_min.append([min(v, w) for v, w in zip(self.t[k], col_min[-1])])
        col_min.reverse()
        self.row_min = row_min
        self.col_min = col_min

    def feasible(self, e: int, f: int) -> bool:
        """phi[e][f] == t[e][f], stopping at the first (i1, j1) candidate
        that falls below t[e][f]."""
        target = self.t[e][f]
        b = self.col_min[e]
        for i1 in range(e + 1):
            gap = target - self.row_min[i1][f]
            rows = e - i1
            if any(b[j1] + rows * (f - j1) < gap for j1 in range(f + 1)):
                return False
        return True

    @cached_property
    def frontier(self) -> tuple[int, ...]:
        # (0, n) is feasible, and so is (e, front[e-1]) by upward closure
        # in e, so each row starts where the previous one stopped
        f = len(self.t[0]) - 1
        front = []
        for e in range(len(self.t)):
            while f > 0 and self.feasible(e, f - 1):
                f -= 1
            front.append(f)
        return tuple(front)

    @cached_property
    def phi(self) -> tuple[tuple[int, ...], ...]:
        a, b = self.row_min, self.col_min
        return tuple(
            tuple(
                min(
                    a[i1][l] + b[k][j1] + (k - i1) * (l - j1)
                    for i1 in range(k + 1)
                    for j1 in range(l + 1)
                )
                for l in range(len(b[k]))
            )
            for k in range(len(b))
        )


@lru_cache(maxsize=32)
def _class_tables(r: Partition, s: Partition) -> _ClassTables:
    return _ClassTables(r, s)


def clear_table_cache() -> None:
    """Drop every cached per-class table, so the next call starts cold."""
    _class_tables.cache_clear()


def _nonempty_tables(r: Partition, s: Partition) -> _ClassTables:
    tables = _class_tables(r, s)
    if not tables.nonempty:
        raise EmptyClass(f"no matrix has row sums {r.parts} and column sums {s.parts}")
    return tables


def structure_matrix(r: Partition, s: Partition) -> StructureTable:
    """The structure matrix of the pair (r, s).

    Entry (k, l) counts k*l minus the first l column sums plus the last
    m-k row sums; every entry is nonnegative iff the class is nonempty.
    """
    return StructureTable(values=_class_tables(r, s).t, kind="T")


def nonempty_by_structure(table: StructureTable) -> bool:
    """Ford-Fulkerson criterion: the class is nonempty iff no entry of the
    structure matrix is negative."""
    if table.kind != "T":
        raise ValueError("nonnegativity criterion applies to the structure matrix")
    return table.min_entry() >= 0


def phi_matrix(r: Partition, s: Partition) -> StructureTable:
    """The cover-certificate table phi.

    phi[k][l] = min{ t[i1][l+j2] + t[k+i2][j1] + (k-i1)(l-j1) } over all
    0 <= i1 <= k <= k+i2 <= m and 0 <= j1 <= l <= l+j2 <= n.  The free
    j2 and i2 are taken out by the suffix minima A[i1][l] and B[k][j1]
    (see the module docstring), leaving a minimum over (i1, j1) per cell:
    O(m^2 n^2) for the whole table.  Requires a nonempty class.
    """
    return StructureTable(values=_nonempty_tables(r, s).phi, kind="Phi")


def cover_frontier(r: Partition, s: Partition) -> tuple[int, ...]:
    """front[e] = the least f such that some class member has all its 1s
    inside the first e rows and first f columns, for e = 0..m.

    Nonincreasing in e; found by one staircase walk over the cells of
    the frontier, O(m+n) probes of phi[e][f] == t[e][f], each stopping at
    the first candidate below t[e][f].  Requires a nonempty class.
    """
    return _nonempty_tables(r, s).frontier


def cover_exists(r: Partition, s: Partition, e: int, f: int) -> bool:
    """True iff some class member has all its 1s inside the first e rows
    and first f columns, i.e. phi[e][f] == t[e][f].  Feasibility is
    upward closed in e and f, so this is f >= cover_frontier(r, s)[e]."""
    m, n = len(r), len(s)
    if not (0 <= e <= m and 0 <= f <= n):
        raise BadRange(f"cover ({e},{f}) out of range for {m}x{n}")
    return f >= _nonempty_tables(r, s).frontier[e]


def min_t_term_rank(r: Partition, s: Partition, t: int) -> tuple[int, tuple[int, int]]:
    """Minimum t-term rank over the class, with one witness (e, f).

    The value is min{ t*e + f } over all cells where phi and the
    structure matrix agree; for each e the cheapest such cell is
    (e, front[e]) on the cover frontier, so this is an O(m) scan once
    the frontier is known.  Ties break toward the smallest e, then the
    smallest f.
    """
    if t < 1:
        raise ValueError("t must be a positive integer")
    front = cover_frontier(r, s)
    best, e = min((t * e + f, e) for e, f in enumerate(front))
    return best, (e, front[e])


def psi(r: Partition, s: Partition, a: int, b: int, c: int, d: int) -> int:
    """The two-cover quantity psi_{a,b;c,d}.

    Minimum of

        t[i1][d+j3] + t[a+i2][c+j2] + t[b+i3][j1]
          + (a-i1)(d-c-j2) + (b-a-i2)(c-j1) + (a-i1)(c-j1)

    over 0 <= i1 <= a <= a+i2 <= b <= b+i3 <= m and
    0 <= j1 <= c <= c+j2 <= d <= d+j3 <= n.  The free j3 and i3 are
    taken out by the suffix minima A[i1][d] and B[b][j1].  The two j1
    terms share the factor c-j1, so j1 is minimized once for each value
    of b-i1-i2, leaving O(bc + a(b-a)(d-c)) work.
    """
    tables = _class_tables(r, s)
    m, n = len(r), len(s)
    if not (0 <= a < b <= m):
        raise BadRange(f"need 0 <= a < b <= m, got a={a}, b={b}, m={m}")
    if not (0 <= c < d <= n):
        raise BadRange(f"need 0 <= c < d <= n, got c={c}, d={d}, n={n}")
    t, row_min = tables.t, tables.row_min
    col_b = tables.col_min[b]
    # (b-a-i2)(c-j1) + (a-i1)(c-j1) = (b-i1-i2)(c-j1)
    best_j1 = [min(col_b[j1] + z * (c - j1) for j1 in range(c + 1)) for z in range(b + 1)]
    return min(
        row_min[i1][d]
        + best_j1[b - i1 - i2]
        + min(t[a + i2][c + j2] + (a - i1) * (d - c - j2) for j2 in range(d - c + 1))
        for i1 in range(a + 1)
        for i2 in range(b - a + 1)
    )


def two_cover_exists(
    r: Partition, s: Partition, e_prime: int, e: int, f: int, f_prime: int
) -> bool:
    """True iff some class member is simultaneously covered by its first e
    rows plus f columns and by its first e' rows plus f' columns
    (e' < e, f < f').  Criterion: psi_{e',e;f,f'} >= t[e][f] + t[e'][f']."""
    t = _nonempty_tables(r, s).t
    value = psi(r, s, e_prime, e, f, f_prime)
    return value >= t[e][f] + t[e_prime][f_prime]


class UniformMinimizerHypotheses(NamedTuple):
    holds: bool
    f: int
    f_prime: int


def uniform_minimizer_hypotheses(
    r: Partition, s: Partition, t: int
) -> UniformMinimizerHypotheses:
    """Check the sufficient conditions under which a single class member
    realizing every minimum k-term rank for k = 1..t is guaranteed.

    Let f be the least column with phi[2][f] == t[2][f] and f' the least
    with phi[1][f'] == t[1][f'].  The conditions: 1 <= f < f' < n, the
    column sums from position f on are all 1, and each minimum k-term
    rank for k = 1..t equals k + f' or 2k + f.
    """
    if t < 1:
        raise ValueError("t must be a positive integer")
    m, n = len(r), len(s)
    if m <= 2 or n <= 2:
        raise DimensionTooSmall("needs more than two rows and two columns")
    front = cover_frontier(r, s)
    f, f_prime = front[2], front[1]
    holds = 1 <= f < f_prime < n and s.part(f - 1) == 1
    if holds:
        for k in range(1, t + 1):
            value, _ = min_t_term_rank(r, s, k)
            if value not in (k + f_prime, 2 * k + f):
                holds = False
                break
    return UniformMinimizerHypotheses(holds=holds, f=f, f_prime=f_prime)
