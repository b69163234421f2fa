"""Answer checks that do not go through the code under test.

Max flows come from scipy (imported only by the checks that need it, so
the package's own dependencies stay empty); class sizes come from a
counting recursion; structure-table cells come straight from their
defining formulas.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations


def structure_rows(r, s) -> list[list[int]]:
    """T[k][l] = k*l - (S_1 + ... + S_l) + (R_{k+1} + ... + R_m)."""
    return [[k * l - sum(s[:l]) + sum(r[k:]) for l in range(len(s) + 1)] for k in range(len(r) + 1)]


def phi_cell(t: list[list[int]], k: int, l: int) -> int:
    """phi[k][l] = min t[i1][l+j2] + t[k+i2][j1] + (k-i1)(l-j1) over
    i1 <= k <= k+i2 <= m and j1 <= l <= l+j2 <= n, with the free j2 and
    i2 minimised first."""
    m = len(t) - 1
    row_tail = [min(t[i1][l:]) for i1 in range(k + 1)]
    col_tail = [min(t[i][j1] for i in range(k, m + 1)) for j1 in range(l + 1)]
    return min(
        row_tail[i1] + col_tail[j1] + (k - i1) * (l - j1)
        for i1 in range(k + 1)
        for j1 in range(l + 1)
    )


def class_size(r, s) -> int:
    """Number of (0,1)-matrices with row sums r and column sums s,
    counted column by column over the remaining row sums."""
    r, s = tuple(r), tuple(s)
    if sum(r) != sum(s):
        return 0

    @lru_cache(maxsize=None)
    def count(j: int, left: tuple[int, ...]) -> int:
        if j == len(s):
            return int(not any(left))
        live = [i for i, v in enumerate(left) if v]
        total = 0
        for rows in combinations(live, s[j]):
            nxt = list(left)
            for i in rows:
                nxt[i] -= 1
            total += count(j + 1, tuple(nxt))
        return total

    return count(0, r)


def _max_flow(num_nodes: int, tails, heads, caps) -> int:
    """Max flow from node 0 to node num_nodes - 1 (scipy, Dinic)."""
    import numpy as np
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import maximum_flow

    graph = csr_matrix(
        (np.asarray(caps, dtype=np.int32), (np.asarray(tails), np.asarray(heads))),
        shape=(num_nodes, num_nodes),
    )
    return int(maximum_flow(graph, 0, num_nodes - 1, method="dinic").flow_value)


def _bipartite_flow(mask, row_caps, col_caps, inner_cap: int = 1) -> int:
    """Source -> row i (row_caps[i]) -> column j where mask[i][j]
    (inner_cap) -> sink (col_caps[j])."""
    import numpy as np

    m, n = mask.shape
    ii, jj = np.nonzero(mask)
    rows, cols = np.arange(m), np.arange(n)
    tails = np.concatenate([np.zeros(m, int), 1 + ii, 1 + m + cols])
    heads = np.concatenate([1 + rows, 1 + m + jj, np.full(n, 1 + m + n)])
    caps = np.concatenate([row_caps, np.full(len(ii), inner_cap), col_caps])
    return _max_flow(m + n + 2, tails, heads, caps)


def flow_t_term_ranks(n: int, bitmasks, ts) -> list[int]:
    """t-term ranks as max flows: source -> row (cap t) -> column of each
    1 (cap 1) -> sink (cap 1).  Row i has a 1 in column j when bit j of
    bitmasks[i] is set."""
    import numpy as np

    mask = np.array([[(bits >> j) & 1 for j in range(n)] for bits in bitmasks], dtype=bool)
    m = len(bitmasks)
    return [_bipartite_flow(mask, np.full(m, t), np.ones(n, int)) for t in ts]


def allowed(covers, i: int, j: int) -> bool:
    """Entry (i, j) may hold a 1 under every prefix cover (e, f)."""
    return all(i < e or j < f for e, f in covers)


def covers_feasible(r, s, covers) -> bool:
    """Some matrix with margins r, s has all its 1s inside every cover."""
    import numpy as np

    i, j = np.indices((len(r), len(s)))
    mask = np.ones((len(r), len(s)), dtype=bool)
    for e, f in covers:
        mask &= (i < e) | (j < f)
    return _bipartite_flow(mask, np.asarray(r), np.asarray(s)) == sum(r)


def answer(job):
    kind, *args = job
    if kind == "ranks":
        return flow_t_term_ranks(*args)
    return covers_feasible(*args)


if __name__ == "__main__":
    # answers a JSON list of jobs on stdin: ["ranks", n, bitmasks, ts] or
    # ["cover", r, s, covers]
    import json
    import sys

    json.dump([answer(job) for job in json.load(sys.stdin)], sys.stdout)
