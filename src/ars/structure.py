"""Structure tables for a class of (0,1)-matrices with fixed margins.

Everything here is derived from the structure matrix

    t[k][l] = k*l - (S_1 + ... + S_l) + (R_{k+1} + ... + R_m),

an (m+1)-by-(n+1) integer table indexed from 0.  The companion table phi
certifies prefix covers: some class member has all its 1s inside the
first e rows and first f columns exactly when phi[e][f] == t[e][f].  The
two-cover analogue psi plays the same role for a pair of prefix covers.

t is convex along every row and every column.  A step right in row k
adds k - S_{l+1} and a step down column l adds l - R_{k+1}; both rise
because R and S are nonincreasing.  So row k falls until column
S*_k = #{j : S_j > k} and rises after it, column l falls until row
R*_l = #{i : R_i > l}, and the suffix minima are lookups:

    A[i][l] = min_{l' >= l} t[i][l'] = t[i][max(l, S*_i)]
    B[k][j] = min_{k' >= k} t[k'][j] = t[max(k, R*_j)][j]

phi[k][l] = min over i1 <= k, j1 <= l of A[i1][l] + B[k][j1] + (k-i1)(l-j1),
and phi <= t everywhere.  With x = k - i1 the minimum over j1 is a lower
envelope of lines in x, which the lower hull of the points (j1,
B[k][j1]) gives for every x at once, so one cell costs O(k + l) and the
whole table O(mn(m+n)).  Walking l down a row drops one point from the
hull at a time, so each row builds its hull once.  psi uses the same
envelope.

Cover feasibility is upward closed in both e and f, so it is fully
described by the frontier front[e], the least feasible f for e rows;
front is nonincreasing.  Row e of the frontier starts from a floor built
from necessary Gale-Ryser conditions on the two blocks a prefix cover
(e, f) leaves: lo is the least f >= max(S*_e, R_{e+1}) with

    R_{e+1} + ... + R_m <= sum over j <= f of min(S_j, m - e).

Each condition holds at every feasible (e, f):

- a column with S_j > e needs a 1 below row e, so it is covered:
  f >= S*_e;
- row e+1 is not covered, so its R_{e+1} ones lie in the first f
  columns;
- the rows below e put all their ones into the first f columns, and
  column j has room for min(S_j, m - e) of them.

So lo <= front[e] <= front[e-1], and each test is O(1) from the prefix
sums of S and the suffix sums of R.  When lo = front[e-1] the row needs
no probe of phi[e][f] == t[e][f].  Otherwise one probe at lo settles the
row when it holds, and only when it fails does the row walk down from
front[e-1], stopping above lo.  So a row costs no probe when its floor
is front[e-1], one when its floor is its frontier, and at most one more
than the unseeded walk when its floor lies below its frontier: about
one probe per row whose frontier moves, plus the fallbacks.  On 2,000
random classes of 12x12 to 27x25 that was 21,024 probes over 38,024
rows, where the unseeded walk took 71,737; 52 rows fell back.

A row of B is the column minima col_min[j] = t[R*_j][j] up to
column v = R_{e+1} <= lo, and row e of t after it.  That prefix is the
same for every row, so one lower hull over col_min serves them all: it
drops its last points as v falls, and each probed row pushes its tail
on top and the next row takes it back off by the undo log.

Every criterion except the full phi table reads the frontier.  The
tables of the most recent class (t, A, the column minima, the Gale-Ryser
verdict, the frontier and phi, each built once) live in a
`partition.KeptClass` slot.  They also hold the last psi quad with its
value, which two_cover_exists reads after psi of the same quad.

`prefix_covers_feasible` decides any family of prefix covers at once,
with no table and no flow: a Hall check over the staircase mask the
family leaves, whose worst column set one scan of the columns finds.
"""

from __future__ import annotations

from functools import cached_property
from itertools import accumulate
from operator import add
from typing import NamedTuple

from .errors import BadRange, DimensionTooSmall, EmptyClass, WeightMismatch
from .partition import KeptClass, Partition, conjugate_counts, exact_integers, is_nonempty
from .partition import positive_integer


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


_Hull = tuple[list[int], list[int], list[tuple[tuple[int, int], ...]]]


def _extend(hull: _Hull, j0: int, values) -> None:
    """Add the points (j0 + k, values[k]) to the right of the hull, in
    order.  log[j] records the vertices that point j removed, so
    `_drop_last` takes the last point back off in amortized O(1).  The
    last point is always a vertex."""
    js, vs, log = hull
    for j, v in enumerate(values, j0):
        gone = ()
        # drop the last vertex while it lies on or above the chord to (j, v)
        while len(js) > 1 and (vs[-1] - vs[-2]) * (j - js[-2]) >= (v - vs[-2]) * (js[-1] - js[-2]):
            gone = ((js.pop(), vs.pop()), *gone)
        log.append(gone)
        js.append(j)
        vs.append(v)


def _lower_hull(values, c: int) -> _Hull:
    """The lower convex hull of the points (j, values[j]), j = 0..c, as
    vertex lists js and vs plus the undo log of `_extend`, so a walk
    down c builds the hull once."""
    hull: _Hull = ([], [], [])
    _extend(hull, 0, values[: c + 1])
    return hull


def _drop_last(hull: _Hull) -> None:
    js, vs, log = hull
    js.pop()
    vs.pop()
    for j, v in log.pop():
        js.append(j)
        vs.append(v)


def _envelope(hull: _Hull, top: int) -> list[int]:
    """E[x] = min over j <= c of values[j] + x*(c-j), for x = 0..top,
    from the lower hull of values[0..c].

    The minimizing j for x is the hull vertex whose left edge is at most
    x steep and whose right edge is steeper.  Edge slopes rise along the
    hull, so the vertices take turns in order as x rises, each over a
    run of x on which E is an arithmetic progression.  O(top + hull
    size).
    """
    js, vs, _ = hull
    c = js[-1]
    out: list[int] = []
    x = 0
    for h in range(len(js) - 1):
        j, v = js[h], vs[h]
        # vertex h serves x up to the slope of its right edge, rounded up
        end = min(top + 1, -((v - vs[h + 1]) // (js[h + 1] - j)))
        if end > x:
            k = c - j
            out.extend(range(v + x * k, v + end * k, k))
            x = end
    out.extend([vs[-1]] * (top + 1 - x))
    return out


class _ClassTables:
    """Everything the structure layer derives from one pair (r, s).

    t, the prefix sums pref_s[l] = S_1 + ... + S_l, the suffix sums
    suf_r[k] = R_{k+1} + ... + R_m, s_star[k] = S*_k, the suffix minima
    A (stored by column, a_cols[l][i] = A[i][l]), the column minima
    col_min[j] = t[R*_j][j] and the Gale-Ryser verdict are built at once
    in O(mn), mostly by slicing; the frontier and the full phi table are
    built on first use.  A row of B is col_min up to column R_{k+1} and
    row k of t after it (see `b_row`), so B is never stored.  S* and R*
    are read from `partition.conjugate_counts`.
    """

    def __init__(self, r: Partition, s: Partition):
        if r.weight != s.weight:
            raise WeightMismatch(f"weights differ: {r.weight} vs {s.weight}")
        m, n = len(r), len(s)
        self.pref_s = list(accumulate(s, initial=0))
        self.suf_r = list(accumulate(reversed(r.parts), initial=0))[::-1]
        row = tuple(r.weight - p for p in self.pref_s)
        t = [row]
        for v in r:  # t[k][l] - t[k-1][l] = l - R_k
            row = tuple(map(add, row, range(-v, n + 1 - v)))
            t.append(row)
        self.t = tuple(t)
        self.nonempty = is_nonempty(r, s)
        self.s_star = conjugate_counts(s, m)
        # A[i][l] = t[i][max(l, S*_i)]
        self.a_cols = tuple(zip(*((row[p],) * p + row[p:] for row, p in zip(t, self.s_star))))
        self.col_min = tuple(t[k][l] for l, k in enumerate(conjugate_counts(r, n)))
        # next_r[k] = R_{k+1}, the sum of row k+1 (0 below the last row)
        self.next_r = (*r.parts, 0)
        # ((a, b, c, d), psi value) of the last psi query: callers ask psi
        # and then two_cover_exists of one quad, never an older quad again
        self.last_psi: tuple | None = None

    def b_row(self, k: int, c: int) -> tuple[int, ...]:
        """B[k][0..c].  B[k][j] = t[max(k, R*_j)][j], and R*_j > k exactly
        for j < R_{k+1}: there B[k][j] is the column minimum t[R*_j][j],
        and after it t[k][j]."""
        v = self.next_r[k]
        return self.col_min[: min(v, c + 1)] + self.t[k][v : c + 1]

    def phi_cell(self, k: int, c: int, hull: _Hull) -> int:
        """phi[k][c] = min over x of A[k-x][c] + E[x], where E[x] is the
        minimum over j1 <= c of B[k][j1] + x(c-j1), from the lower hull
        of B[k][0..c]: O(k + c).  Walking c down a row drops one point
        of the hull per cell, so the row builds its hull once."""
        return min(map(add, self.a_cols[c][k::-1], _envelope(hull, k)))

    @cached_property
    def frontier(self) -> tuple[int, ...]:
        # (0, n) is feasible, and so is (e, front[e-1]) by upward closure
        # in e; with no row covered every column is needed, as no S_j is
        # 0.  Each row is seeded by its floor lo (see the module
        # docstring), and the hull holds col_min[0..v-1], v = R_{e+1},
        # below whatever tail the last probed row pushed on it.
        t, pref_s, suf_r, s_star, next_r = self.t, self.pref_s, self.suf_r, self.s_star, self.next_r
        m = len(t) - 1
        f = len(t[0]) - 1
        front = [f]
        hull = _lower_hull(self.col_min, next_r[0] - 1)
        log = hull[2]
        for e in range(1, m + 1):
            v = next_r[e]
            while len(log) > v:
                _drop_last(hull)
            # the rows below e fit into the first lo columns: the first
            # k = S*_{m-e} columns take m - e each, a later column j S_j
            h = m - e
            k = s_star[h]
            need, spare = suf_r[e], h * k - pref_s[k]
            lo, base = f, max(s_star[e], v)
            while lo > base and need <= (h * (lo - 1) if lo <= k else spare + pref_s[lo - 1]):
                lo -= 1
            if lo < f:
                row = t[e]
                _extend(hull, v, row[v : lo + 1])
                if self.phi_cell(e, lo, hull) == row[lo]:
                    f = lo
                else:
                    _extend(hull, lo + 1, row[lo + 1 : f])
                    while f - 1 > lo and self.phi_cell(e, f - 1, hull) == row[f - 1]:
                        f -= 1
                        _drop_last(hull)
            front.append(f)
        return tuple(front)

    @cached_property
    def phi(self) -> tuple[tuple[int, ...], ...]:
        rows = []
        n = len(self.col_min) - 1
        for k in range(len(self.t)):
            b_row = self.b_row(k, n)
            hull = _lower_hull(b_row, len(b_row) - 1)
            cells = []
            for c in range(len(b_row) - 1, -1, -1):
                cells.append(self.phi_cell(k, c, hull))
                _drop_last(hull)
            rows.append(tuple(reversed(cells)))
        return tuple(rows)


_kept = KeptClass(_ClassTables)


def _nonempty_tables(r: Partition, s: Partition) -> _ClassTables:
    tables = _kept.get(r, s)
    if not tables.nonempty:
        raise EmptyClass(f"no matrix has row sums {r.parts} and column sums {s.parts}")
    return tables


def structure_matrix(r: Partition, s: Partition) -> StructureTable:
    """The structure matrix of the pair (r, s).

    Entry (k, l) counts k*l minus the first l column sums plus the last
    m-k row sums; every entry is nonnegative iff the class is nonempty.
    """
    return StructureTable(values=_kept.get(r, s).t, kind="T")


def nonempty_by_structure(table: StructureTable) -> bool:
    """Ford-Fulkerson criterion: the class is nonempty iff no entry of the
    structure matrix is negative."""
    if table.kind != "T":
        raise ValueError("nonnegativity criterion applies to the structure matrix")
    return min(min(row) for row in table.values) >= 0


def phi_matrix(r: Partition, s: Partition) -> StructureTable:
    """The cover-certificate table phi.

    phi[k][l] = min{ t[i1][l+j2] + t[k+i2][j1] + (k-i1)(l-j1) } over all
    0 <= i1 <= k <= k+i2 <= m and 0 <= j1 <= l <= l+j2 <= n.  The free
    j2 and i2 are taken out by the suffix minima A[i1][l] and B[k][j1],
    which convexity turns into lookups (see the module docstring).  With
    x = k - i1 the minimum over j1 is a lower envelope of lines in x,
    found for every x at once in O(k + l), so the whole table costs
    O(mn(m+n)).  Requires a nonempty class.
    """
    return StructureTable(values=_nonempty_tables(r, s).phi, kind="Phi")


def cover_frontier(r: Partition, s: Partition) -> tuple[int, ...]:
    """front[e] = the least f such that some class member has all its 1s
    inside the first e rows and first f columns, for e = 0..m.

    Nonincreasing in e.  Each row starts from a Gale-Ryser floor
    lo <= front[e], O(1) per candidate (see the module docstring): it
    probes phi[e][f] == t[e][f] not at all when lo is front[e-1], once
    at lo when that holds, and only otherwise walks down from
    front[e-1] as far as lo + 1.  So it makes one probe per row whose
    frontier moves plus any fallback walks, each probe one cell of phi
    in O(e + f), and O((m+n)^2) in all.  Requires a nonempty class.
    """
    return _nonempty_tables(r, s).frontier


def cover_exists(r: Partition, s: Partition, e: int, f: int) -> bool:
    """True iff some class member has all its 1s inside the first e rows
    and first f columns, i.e. phi[e][f] == t[e][f].  Feasibility is
    upward closed in e and f, so this is f >= cover_frontier(r, s)[e].
    e and f follow `partition.exact_integers` (2.0 passes as 2; 2.5
    raises ValueError)."""
    if e.__class__ is not int or f.__class__ is not int:
        e, f = exact_integers((e, f), "cover sizes")
    if not (0 <= e <= len(r.parts) and 0 <= f <= len(s.parts)):
        raise BadRange(f"cover ({e},{f}) out of range for {len(r)}x{len(s)}")
    last_r, last_s, tables = _kept.entry  # one read, see KeptClass
    if last_r is not r or last_s is not s or not tables.nonempty:
        tables = _nonempty_tables(r, s)  # a class change, or an empty class
    return f >= tables.frontier[e]


def min_t_term_rank(r: Partition, s: Partition, t: int) -> tuple[int, tuple[int, int]]:
    """Minimum t-term rank over the class, with one witness (e, f).

    The value is min{ t*e + f } over all cells where phi and the
    structure matrix agree; for each e the cheapest such cell is
    (e, front[e]) on the cover frontier, so this is an O(m) scan once
    the frontier is known.  Ties break toward the smallest e, then the
    smallest f.
    """
    t = positive_integer(t, "t")
    front = cover_frontier(r, s)
    costs = list(map(add, range(0, t * len(front), t), front))
    best = min(costs)
    e = costs.index(best)
    return best, (e, front[e])


def psi(r: Partition, s: Partition, a: int, b: int, c: int, d: int) -> int:
    """The two-cover quantity psi_{a,b;c,d}.

    Minimum of

        t[i1][d+j3] + t[a+i2][c+j2] + t[b+i3][j1]
          + (a-i1)(d-c-j2) + (b-a-i2)(c-j1) + (a-i1)(c-j1)

    over 0 <= i1 <= a <= a+i2 <= b <= b+i3 <= m and
    0 <= j1 <= c <= c+j2 <= d <= d+j3 <= n.  The free j3 and i3 are
    taken out by the suffix minima A[i1][d] and B[b][j1].  With
    z = i1 + i2:

    - the two j1 terms share the factor c-j1, so the j1 part is the
      lower envelope of B[b][j1] + x(c-j1) at x = b - z;
    - t[a+i2][c+j2] - (a-i1)j2 is convex in j2 with steps
      z - S_{c+j2+1}, so its minimum lies at c + j2 = clip(S*_z, c, d),
      which depends on z alone.

    That leaves psi = min over i1, i2 of u[i1] + w[i2] + h[i1+i2], with
    u[i1] = A[i1][d] + (a-i1)(d-c), w[i2] = (a+i2)c + R_{a+i2+1} + ...
    + R_m and h[z] the rest: O(a(b-a) + b + c) work.  The class keeps
    the last quad's value, so asking the same quad again is a lookup.
    a, b, c and d follow `partition.exact_integers`.  Requires a
    nonempty class.
    """
    if not (a.__class__ is b.__class__ is c.__class__ is d.__class__ is int):
        a, b, c, d = exact_integers((a, b, c, d), "psi indices")
    m, n = len(r), len(s)
    if not (0 <= a < b <= m):
        raise BadRange(f"need 0 <= a < b <= m, got a={a}, b={b}, m={m}")
    if not (0 <= c < d <= n):
        raise BadRange(f"need 0 <= c < d <= n, got c={c}, d={d}, n={n}")
    tables = _nonempty_tables(r, s)
    quad = (a, b, c, d)
    last = tables.last_psi
    if last is not None and last[0] == quad:
        return last[1]
    pref_s, s_star = tables.pref_s, tables.s_star
    u = [av + (a - i1) * (d - c) for i1, av in enumerate(tables.a_cols[d][: a + 1])]
    w = [k * c + q for k, q in enumerate(tables.suf_r[a : b + 1], a)]
    env = _envelope(_lower_hull(tables.b_row(b, c), c), b)
    h = [
        env[b - z] + z * (l - c) - pref_s[l]
        for z in range(b + 1)
        for l in (min(max(s_star[z], c), d),)  # the best c + j2
    ]
    value = min(ui + min(map(add, w, h[i1:])) for i1, ui in enumerate(u))
    tables.last_psi = (quad, value)
    return value


def two_cover_exists(
    r: Partition, s: Partition, e_prime: int, e: int, f: int, f_prime: int
) -> bool:
    """True iff some class member is simultaneously covered by its first e
    rows plus f columns and by its first e' rows plus f' columns
    (e' < e, f < f').  Criterion: psi_{e',e;f,f'} >= t[e][f] + t[e'][f'].
    The sizes follow `partition.exact_integers`, as in psi."""
    if not (e_prime.__class__ is e.__class__ is f.__class__ is f_prime.__class__ is int):
        e_prime, e, f, f_prime = exact_integers((e_prime, e, f, f_prime), "cover sizes")
    value = psi(r, s, e_prime, e, f, f_prime)
    t = _nonempty_tables(r, s).t
    return value >= t[e][f] + t[e_prime][f_prime]


def prefix_covers_feasible(r: Partition, s: Partition, covers) -> bool:
    """True iff some class member carries every prefix cover (e, f) of
    `covers` at once: all its 1s lie inside its first e rows and first f
    columns, for each pair.  This decides with no flow what
    `flow.multi_cover_feasible` decides for prefix covers, and it
    generalizes phi (one cover) and psi (two).

    Row i (0-based) lies outside the covers with e <= i, so it may hold
    1s only in the columns j < L(i), L(i) = the least of n and every f
    with e <= i.  L is a nonincreasing staircase.  A member carries
    the family iff its 1s lie inside that mask, so the family is
    feasible iff the transportation network source -> row i (capacity
    R_i) -> column j < L(i) (capacity 1) -> sink (capacity S_j) moves
    the whole weight W = sum R = sum S.

    Proof of the criterion.  A cut puts a row set X and a column set Y
    on the source side; let J be the columns not in Y.  Its capacity is
    the R_i of the rows not in X, plus one for each mask cell from X
    into J, plus the S_j of the columns not in J.  For a fixed J the
    least cut keeps row i in X iff its c_i = |J & [0, L(i))| mask cells
    into J are fewer than R_i, so it costs sum_i min(R_i, c_i) +
    sum_{j not in J} S_j.  By max-flow min-cut (Ford-Fulkerson, Flows
    in Networks, 1962) the flow moves W iff every such cut is at least
    W, that is iff for every column set J

        sum_i max(0, R_i - |J & [0, L(i))|) <= sum_{j not in J} S_j,

    or equivalently F(J) = sum_i max(0, R_i - |J & [0, L(i))|) +
    sum_{j in J} S_j <= W.

    The worst J.  The value of F depends on J only through its columns'
    sums and its counts |J & [0, v)| at the at most k + 1 values v that
    L takes for k covers, the edges of the column bands of L.  So a scan of the
    columns from left to right, whose state is c = |J & [0, j)| and
    whose best[c] is the largest part of F so far, finds max F: column j
    keeps c or adds S_j and raises c by one, and at the edge v = j the
    rows with L(i) = v add max(0, R_i - c).  (S is nonincreasing, so
    within a band the best J takes a leftmost block; the scan does not
    need that.)  O(n^2 + mn) in all.

    Each cover is an (e, f) pair with 0 <= e <= m and 0 <= f <= n
    (BadRange otherwise), following `partition.exact_integers`.  A
    class whose weights differ is empty, so it carries no family.
    """
    m, n = len(r), len(s)
    # least_f[e] = the least f among the covers of e rows
    least_f = [n] * (m + 1)
    for cover in covers:
        try:
            e, f = cover
        except (TypeError, ValueError):
            raise ValueError(f"a cover is an (e, f) pair, got {cover!r}") from None
        if e.__class__ is not int or f.__class__ is not int:
            e, f = exact_integers((e, f), "cover sizes")
        if not (0 <= e <= m and 0 <= f <= n):
            raise BadRange(f"cover ({e},{f}) out of range for {m}x{n}")
        least_f[e] = min(least_f[e], f)
    if r.weight != s.weight:
        return False
    settle: list[list[int]] = [[] for _ in range(n + 1)]  # the R_i with L(i) = v
    limit = n
    for ri, f in zip(r.parts, least_f):
        limit = min(limit, f)
        settle[limit].append(ri)
    # best[c] = the largest part of F so far over the J & [0, j) of size c
    best = [sum(settle[0])]
    for j, sj in enumerate(s.parts, 1):
        # keep c, or take column j into J and come from c - 1
        best = [best[0], *map(max, best[1:], [b + sj for b in best[:-1]]), best[-1] + sj]
        if settle[j]:
            best = [b + sum(ri - c for ri in settle[j] if ri > c) for c, b in enumerate(best)]
    return max(best) <= s.weight


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
    t = positive_integer(t, "t")
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
