"""Network-flow computations: the t-term rank of a fixed matrix and
feasibility of margin problems with entrywise capacity bounds."""

from __future__ import annotations

from collections import deque
from collections.abc import Iterable, Iterator, Sequence

from .binmat import BinaryMatrix, CoverSpec
from .errors import DimensionMismatch
from .partition import Partition


class FlowNetwork:
    """A small max-flow network over integer capacities.

    Augmentation uses breadth-first (shortest) augmenting paths over the
    residual graph, scanning edges in insertion order, so runs are
    deterministic.  All arithmetic is exact integer arithmetic.
    """

    def __init__(self, num_nodes: int, source: int, sink: int):
        self.num_nodes = num_nodes
        self.source = source
        self.sink = sink
        self._frm: list[int] = []
        self._to: list[int] = []
        self._res: list[int] = []   # residual capacity
        self._base: list[int] = []  # original capacity (reverse edges: 0)
        self._adj: list[list[int]] = [[] for _ in range(num_nodes)]

    def add_edge(self, u: int, v: int, cap: int) -> int:
        """Insert a directed edge and its residual twin; returns the
        forward edge id."""
        if cap < 0:
            raise ValueError("capacity must be nonnegative")
        eid = len(self._to)
        self._frm.append(u)
        self._to.append(v)
        self._res.append(cap)
        self._base.append(cap)
        self._adj[u].append(eid)
        self._frm.append(v)
        self._to.append(u)
        self._res.append(0)
        self._base.append(0)
        self._adj[v].append(eid + 1)
        return eid

    def flow_on(self, eid: int) -> int:
        """Current flow on a forward edge."""
        return self._res[eid ^ 1]

    def edges(self) -> Iterator[tuple[int, int, int, int]]:
        """Forward edges as (from, to, capacity, flow), insertion order."""
        for eid in range(0, len(self._to), 2):
            yield self._frm[eid], self._to[eid], self._base[eid], self.flow_on(eid)

    def _augment_once(self) -> int:
        parent_edge = [-1] * self.num_nodes
        parent_edge[self.source] = -2
        queue = deque([self.source])
        while queue:
            u = queue.popleft()
            if u == self.sink:
                break
            for eid in self._adj[u]:
                v = self._to[eid]
                if self._res[eid] > 0 and parent_edge[v] == -1:
                    parent_edge[v] = eid
                    queue.append(v)
        if parent_edge[self.sink] == -1:
            return 0
        # bottleneck along the recorded path
        bottleneck = None
        v = self.sink
        while v != self.source:
            eid = parent_edge[v]
            res = self._res[eid]
            bottleneck = res if bottleneck is None else min(bottleneck, res)
            v = self._frm[eid]
        assert bottleneck is not None and bottleneck > 0
        v = self.sink
        while v != self.source:
            eid = parent_edge[v]
            self._res[eid] -= bottleneck
            self._res[eid ^ 1] += bottleneck
            v = self._frm[eid]
        return bottleneck

    def max_flow(self) -> int:
        total = 0
        while True:
            pushed = self._augment_once()
            if pushed == 0:
                return total
            total += pushed


def _transport_network(
    row_caps: Sequence[int], col_caps: Sequence[int], cells: Iterable[tuple[int, int, int]]
) -> tuple[FlowNetwork, list[int]]:
    """The transportation network source -> rows -> columns -> sink.

    Node 0 is the source, row i is node 1+i, column j is node 1+m+j and
    the sink is node 1+m+n.  Edges go in as source->row i with capacity
    row_caps[i], then row i->column j with capacity cap for each cell
    (i, j, cap), then column j->sink with capacity col_caps[j].  Returns
    the network and the ids of the cell edges, in the order of cells.
    """
    m, n = len(row_caps), len(col_caps)
    net = FlowNetwork(num_nodes=m + n + 2, source=0, sink=1 + m + n)
    for i, cap in enumerate(row_caps):
        net.add_edge(net.source, 1 + i, cap)
    cell_edges = [net.add_edge(1 + i, 1 + m + j, cap) for i, j, cap in cells]
    for j, cap in enumerate(col_caps):
        net.add_edge(1 + m + j, net.sink, cap)
    return net, cell_edges


def build_t_rank_network(a: BinaryMatrix, t: int) -> FlowNetwork:
    """Bipartite network whose max flow is the t-term rank of a.

    Source feeds each row with capacity t; a unit edge joins row i to
    column j exactly where a has a 1; each column drains to the sink with
    capacity 1.
    """
    if t < 1:
        raise ValueError("t must be a positive integer")
    net, _ = _transport_network([t] * a.m, [1] * a.n, ((i, j, 1) for i, j in a.ones()))
    return net


def t_term_rank(a: BinaryMatrix, t: int) -> int:
    """Maximum number of 1s of a selectable with at most one per column
    and at most t per row, computed as a max flow."""
    return build_t_rank_network(a, t).max_flow()


IntMatrix = tuple[tuple[int, ...], ...]


def feasible_bounded(
    r: Partition, s: Partition, c: Sequence[Sequence[int]]
) -> BinaryMatrix | IntMatrix | None:
    """Find a nonnegative integral matrix with row sums r, column sums s,
    and entrywise upper bounds c, or report that none exists.

    Solved as a transportation flow: source->row i with capacity R_i,
    row i->column j with capacity c[i][j], column j->sink with capacity
    S_j; a witness exists iff the max flow moves the full weight.  When
    every bound is at most 1 the witness comes back as a BinaryMatrix.
    """
    m, n = len(r), len(s)
    if len(c) != m or any(len(row) != n for row in c):
        raise DimensionMismatch(f"bounds must be {m}x{n}")
    if any(v < 0 for row in c for v in row):
        raise ValueError("bounds must be nonnegative")
    if r.weight != s.weight:
        return None
    cells = [(i, j, c[i][j]) for i in range(m) for j in range(n) if c[i][j] > 0]
    net, cell_edges = _transport_network(r.parts, s.parts, cells)
    if net.max_flow() != r.weight:
        return None
    grid = [[0] * n for _ in range(m)]
    for (i, j, _), eid in zip(cells, cell_edges):
        grid[i][j] = net.flow_on(eid)
    entries = tuple(map(tuple, grid))
    if all(v <= 1 for row in c for v in row):
        return BinaryMatrix(entries)
    return entries


def _prefix_pair(cover: CoverSpec | tuple[int, int]) -> tuple[int, int]:
    if isinstance(cover, CoverSpec):
        if cover.rows is not None or cover.cols is not None:
            raise ValueError("only prefix covers are supported here")
        return cover.e, cover.f
    e, f = cover
    return int(e), int(f)


def multi_cover_feasible(
    r: Partition, s: Partition, covers: Iterable[CoverSpec | tuple[int, int]]
) -> BinaryMatrix | None:
    """Search for a class member satisfying every given prefix cover.

    Entry (i, j) is permitted only if every cover (e, f) has i < e or
    j < f; feasibility then reduces to a bounded margin problem.  A
    returned matrix certifies all the covers at once.  Absence means no
    class member carries all the PREFIX covers simultaneously; it says
    nothing about non-prefix row/column selections.
    """
    m, n = len(r), len(s)
    pairs = [_prefix_pair(cv) for cv in covers]
    for e, f in pairs:
        if not (0 <= e <= m and 0 <= f <= n):
            raise DimensionMismatch(f"cover ({e},{f}) out of range for {m}x{n}")
    c = [
        [1 if all(i < e or j < f for e, f in pairs) else 0 for j in range(n)]
        for i in range(m)
    ]
    result = feasible_bounded(r, s, c)
    assert result is None or isinstance(result, BinaryMatrix)
    return result
