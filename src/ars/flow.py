"""Network-flow computations: the t-term rank of a fixed matrix and
feasibility of margin problems whose 1s must lie inside a 0/1 mask.

The t-term rank is a bipartite b-matching (each column takes at most one
1, each row at most t), computed by a bitmask augmenting-path kernel
that warm-starts from t to t+1.  The kernel state lives on the matrix,
in the `_rank_state` slot `BinaryMatrix` keeps for this module, so each
step runs once per matrix however its ranks are read; once the rank
profile is final the kernel releases its arrays and keeps only the
ranks, and `t_term_rank` reads any t from them without a step.  The
kernel starts from the row bitmasks a matrix carries in its `_row_bits`
slot when its builder knew them (every member `enumerate_class` yields
does), and such a member builds its row tuples only when `rows` is
read, so a sweep of a class never builds rows.

Permuting the rows of a matrix changes none of its t-term ranks, and
members of a class with repeated row sums are often row permutations of
each other.  So enumerated members (those carrying `_row_bits`) share
one kernel per multiset of row bitmasks, the sorted tuple of their masks:
each step runs once per row multiset of the class.  The memo is the
dict of a `partition.KeptClass` slot, keyed by the margin tuples that
the members of one walk share, so a member's first read costs an
identity check and one lookup, and a rank another member has stepped
is read from the kernel's list with no further call.  A class at
`_SHARED_CAP` (4,096) kernels empties its dict before it adds one,
which frees the kernels no matrix holds.  Measured with tracemalloc, a
kernel and its key take about 0.3 KB once final and 0.75 KB partly
stepped at 6x9, so at such sizes the memo stays under about 3 MB; the
size of a kernel grows with m + n.  Matrices built by the constructor
never enter the memo and keep a kernel of their own.

`FlowNetwork` is the one transportation network over unit cells
(Edmonds-Karp): it serves `feasible_bounded`, and through
`build_t_rank_network` it is the independent oracle the rank kernel is
tested against.  Its searches stop once the sink is labelled: a label
is set only on first reach, so the augmenting path is fixed by then.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Iterable, Iterator, Sequence
from itertools import compress, count

from .binmat import BinaryMatrix, CoverSpec
from .errors import DimensionMismatch
from .partition import KeptClass, Partition, positive_integer, prefix_cover


class FlowNetwork:
    """The transportation network source -> rows -> columns -> sink over
    unit cells, solved by Edmonds-Karp.

    Node 0 is the source, row i is node 1+i, column j is node 1+m+j and
    the sink is node 1+m+n.  Edges go in as source->row i with capacity
    row_caps[i], then row i->column j with capacity 1 for each cell
    (i, j) in the order of cells, then column j->sink with capacity
    col_caps[j].  Augmentation uses breadth-first (shortest) augmenting
    paths over the residual graph, scanning edges in insertion order, so
    runs are deterministic.  A search stops once the sink is labelled;
    labels are never overwritten, so the path, and every flow and
    witness, is that of a search run to the end.  Every augmenting path
    crosses a unit cell edge, so each augmentation moves one unit.
    """

    def __init__(
        self, row_caps: Sequence[int], col_caps: Sequence[int], cells: Iterable[tuple[int, int]]
    ):
        m, n = len(row_caps), len(col_caps)
        self.num_nodes = m + n + 2
        self.source = 0
        self.sink = 1 + m + n
        self._to: list[int] = []  # heads; the twin eid ^ 1 of eid has eid's tail as head
        self._res: list[int] = []  # residual capacity
        self._adj: list[list[int]] = [[] for _ in range(self.num_nodes)]
        edges = [(self.source, 1 + i, cap) for i, cap in enumerate(row_caps)]
        edges += [(1 + i, 1 + m + j, 1) for i, j in cells]
        edges += [(1 + m + j, self.sink, cap) for j, cap in enumerate(col_caps)]
        for u, v, cap in edges:
            self._adj[u].append(len(self._to))
            self._adj[v].append(len(self._to) + 1)
            self._to += (v, u)
            self._res += (cap, 0)

    def edges(self) -> Iterator[tuple[int, int, int, int]]:
        """Forward edges as (from, to, capacity, flow), insertion order.
        Augmenting moves residual capacity between an edge and its twin,
        so the flow is the twin's residual and the capacity the sum."""
        for eid in range(0, len(self._to), 2):
            flow = self._res[eid + 1]
            yield self._to[eid + 1], self._to[eid], self._res[eid] + flow, flow

    def max_flow(self) -> int:
        """Augment until no path is left; returns the units moved."""
        total = 0
        while True:
            parent_edge = [-1] * self.num_nodes
            parent_edge[self.source] = -2
            queue = deque([self.source])
            while queue and parent_edge[self.sink] == -1:
                for eid in self._adj[queue.popleft()]:
                    v = self._to[eid]
                    if self._res[eid] > 0 and parent_edge[v] == -1:
                        parent_edge[v] = eid
                        queue.append(v)
            if parent_edge[self.sink] == -1:
                return total
            v = self.sink
            while v != self.source:
                eid = parent_edge[v]
                self._res[eid] -= 1
                self._res[eid ^ 1] += 1
                v = self._to[eid ^ 1]
            total += 1


def build_t_rank_network(a: BinaryMatrix, t: int) -> FlowNetwork:
    """Bipartite network whose max flow is the t-term rank of a.

    Source feeds each row with capacity t; a unit edge joins row i to
    column j exactly where a has a 1; each column drains to the sink with
    capacity 1.  `t_term_rank` does not use it; it is the reference the
    rank kernel is tested against.
    """
    t = positive_integer(t, "t")
    return FlowNetwork([t] * a.m, [1] * a.n, a.ones())


class _RankKernel:
    """The warm b-matching state of one matrix, kept in the matrix's
    `_rank_state` slot so that each kernel step runs once per matrix, or
    once per row multiset among enumerated members of one class (see
    `_kernel`): row permutations have equal ranks for every t, so only
    `ranks` is read from outside, and owner and load follow the row order
    of the member that created the kernel.

    A bipartite b-matching over bitmask rows: owner[j] is the row that
    selected column j (-1 while j is free) and load[i] counts the columns
    row i selected.  ranks[t-1] is the t-term rank, for the steps run so
    far.  Step t keeps the selection of step t-1, which stays feasible
    when the row quota grows, and only adds to it: a greedy pass hands
    free columns to rows below quota, then each row below quota grows by
    augmenting paths (Kuhn) found by an iterative depth-first search.
    Columns seen by a failed search stay marked until the next success,
    since no free column is reachable through them.  A search visits each
    column at most once and each step has one success per column it adds,
    so steps 1..t cost O((rank + t) * n + t * m) operations on n-bit
    masks.  Once no row is at quota, or t reaches the largest row sum
    `top` (beyond which the quota binds no row), or every nonzero column
    is selected (`free` meets none of `reach`, the OR of the rows), no
    later step can add a column: the profile is final, the last rank
    repeats from then on, and adj, owner and load are released (set to
    None).  For the same reason a step stops searching for augmenting
    paths as soon as `free & reach` is empty.

    The row masks come from the matrix's `_row_bits` slot when its
    builder set it (class enumeration does), and are computed from the
    rows otherwise; the kernel only reads adj, so it shares that tuple.
    """

    __slots__ = ("adj", "owner", "load", "free", "reach", "ranks", "top")

    def __init__(self, a: BinaryMatrix):
        adj = a._row_bits
        if adj is None:
            weights = [1 << j for j in range(a.n)]
            adj = [sum(compress(weights, row)) for row in a.rows]
        self.adj = adj
        self.owner = [-1] * a.n
        self.load = [0] * a.m
        self.free = (1 << a.n) - 1
        reach = 0
        for mask in adj:
            reach |= mask
        self.reach = reach
        self.ranks: list[int] = []
        self.top = max(a.row_sums, default=0)

    def rank(self, t: int) -> int:
        """The t-term rank (t >= 1), running the steps it still needs."""
        ranks = self.ranks
        while len(ranks) < t and self.adj is not None:
            self.step()
        return ranks[min(t, len(ranks)) - 1]

    def step(self) -> None:
        """Run step t = len(ranks) + 1 and append its rank."""
        adj, owner, load, free, reach, ranks = (
            self.adj, self.owner, self.load, self.free, self.reach, self.ranks
        )
        m = len(load)
        t = len(ranks) + 1
        rank = ranks[-1] if ranks else 0
        for i in range(m):
            take = adj[i] & free
            while take and load[i] < t:
                bit = take & -take
                take ^= bit
                free ^= bit
                owner[bit.bit_length() - 1] = i
                load[i] += 1
                rank += 1
        visited = 0
        for start in range(m):
            while load[start] < t and free & reach:
                # rows[k] takes cols[k] from rows[k+1]; the last column is
                # free.  A step into a column its row already holds just
                # re-enters that row, so the path stays valid.
                rows, cols = [start], []
                while rows:
                    i = rows[-1]
                    hit = adj[i] & free
                    if hit:
                        cols.append(hit & -hit)
                        break
                    cand = adj[i] & ~visited
                    if cand:
                        bit = cand & -cand
                        visited |= bit
                        cols.append(bit)
                        rows.append(owner[bit.bit_length() - 1])
                    else:
                        rows.pop()
                        if cols:
                            cols.pop()
                if not rows:
                    break
                for i, bit in zip(rows, cols):
                    owner[bit.bit_length() - 1] = i
                free ^= cols[-1]
                load[start] += 1
                rank += 1
                visited = 0
        self.free = free
        ranks.append(rank)
        if t >= self.top or t not in load or not free & reach:
            self.adj = self.owner = self.load = None


_kept = KeptClass(lambda row_sums, col_sums: {})
_SHARED_CAP = 4096


def _kernel(a: BinaryMatrix) -> _RankKernel:
    """The rank kernel of a matrix not ranked before, found or created.

    An enumerated member (`_row_bits` set) takes the kernel of any member
    of its class ranked before it with the same sorted row bitmasks, a
    row permutation of it, from the dict `_kept` holds for its margins;
    a class at `_SHARED_CAP` kernels empties its dict before it adds
    one.  Any other matrix gets its own.
    """
    if a._row_bits is None:
        kernel = a._rank_state = _RankKernel(a)
        return kernel
    r, s, kernels = _kept.entry  # one read, see KeptClass
    if r is not a.row_sums or s is not a.col_sums:
        kernels = _kept.get(a.row_sums, a.col_sums)
    key = tuple(sorted(a._row_bits))
    kernel = kernels.get(key)
    if kernel is None:
        if len(kernels) >= _SHARED_CAP:
            kernels.clear()
        kernel = kernels[key] = _RankKernel(a)
    a._rank_state = kernel
    return kernel


def t_term_ranks(a: BinaryMatrix) -> Iterator[int]:
    """Yield the t-term ranks of a for t = 1, 2, ... (without end).

    Computed by a bitmask b-matching kernel that warm-starts step t from
    step t-1 (see `_RankKernel`).  The kernel state lives on the matrix,
    so each step runs once per matrix however many generators and
    `t_term_rank` calls read it, and a value is computed only when it is
    taken.  Enumerated members of one class that are row permutations of
    each other share one kernel (see `_kernel`), so a class sweep steps
    once per row multiset.  Once no row is at quota, t reaches the
    largest row sum, or every nonzero column is selected, the rank
    repeats; the kernel then releases its arrays and keeps only the
    ranks.  Ranks already stepped are read from the kernel's list.
    """
    kernel = a._rank_state or _kernel(a)
    ranks = kernel.ranks
    for t in count(1):
        yield ranks[t - 1] if t <= len(ranks) else kernel.rank(t)


def t_term_rank(a: BinaryMatrix, t: int) -> int:
    """Maximum number of 1s of a selectable with at most one per column
    and at most t per row.

    Read from the rank kernel kept on a, which `t_term_ranks` shares:
    each step up to t runs once per matrix (once per row multiset among
    enumerated members of one class, whose row permutations share a
    kernel, see `_kernel`), and the profile is final by the step at the
    largest row sum, so any t costs at most that many steps (one for a
    zero matrix).  A rank whose step has run, or any rank once the
    profile is final, is read straight from the kernel's list, also on a
    member's first read (after one `_kernel` lookup).  t follows
    `partition.exact_integers` (2.0 passes as 2; 1.5 raises ValueError);
    an int t costs one class test and one comparison.
    """
    if t.__class__ is not int or t < 1:
        t = positive_integer(t, "t")
    kernel = a._rank_state or _kernel(a)
    ranks = kernel.ranks
    if t <= len(ranks):
        return ranks[t - 1]
    if kernel.adj is None:
        return ranks[-1]
    return kernel.rank(t)


def feasible_bounded(
    r: Partition, s: Partition, c: Sequence[Sequence[int]]
) -> BinaryMatrix | None:
    """Find a (0,1)-matrix with row sums r and column sums s whose 1s lie
    where the 0/1 mask c has a 1, or report that none exists.

    Solved as a transportation flow over the cells of the mask (see
    `FlowNetwork`): source->row i with capacity R_i, a unit edge for
    each cell, column j->sink with capacity S_j; a witness exists iff
    the max flow moves the full weight.
    """
    m, n = len(r), len(s)
    if len(c) != m or any(len(row) != n for row in c):
        raise DimensionMismatch(f"bounds must be {m}x{n}")
    if any(v not in (0, 1) for row in c for v in row):
        raise ValueError("bounds must be a 0/1 mask")
    if r.weight != s.weight:
        return None
    net = FlowNetwork(r.parts, s.parts, [(i, j) for i in range(m) for j in range(n) if c[i][j]])
    if net.max_flow() != r.weight:
        return None
    grid = [[0] * n for _ in range(m)]
    for u, v, _, flow in net.edges():
        if flow and u != net.source and v != net.sink:
            grid[u - 1][v - 1 - m] = 1
    return BinaryMatrix(grid)


def multi_cover_feasible(
    r: Partition, s: Partition, covers: Iterable[CoverSpec | tuple[int, int]]
) -> BinaryMatrix | None:
    """Search for a class member carrying every given cover at once.

    A cover is a CoverSpec, with explicit rows and columns or the prefix
    ones (DimensionMismatch outside the grid), or else an (e, f) pair
    meaning the prefix cover, read by `partition.prefix_cover`
    (ValueError for anything else, BadRange off the grid).  A row lying in
    every cover's row set is unrestricted; any other row may hold 1s only
    in the columns shared by the covers that miss it.  Feasibility then
    reduces to a margin problem inside that 0/1 mask, and a returned
    matrix certifies all the covers at once.  Absence says nothing about
    covers of the same sizes in other positions.
    """
    m, n = len(r), len(s)
    sets = []
    for cover in covers:
        if not isinstance(cover, CoverSpec):
            cover = CoverSpec(*prefix_cover(cover, m, n))
        sets.append((cover.row_set(m), cover.col_set(n)))
    every_col = frozenset(range(n))
    c = []
    for i in range(m):
        allowed = every_col
        for rows, cols in sets:
            if i not in rows:
                allowed &= cols
        c.append([1 if j in allowed else 0 for j in range(n)])
    return feasible_bounded(r, s, c)
