import hashlib
import random
from itertools import islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ars import (
    BinaryMatrix,
    Partition,
    build_t_rank_network,
    feasible_bounded,
    in_class,
    is_covered,
    is_nonempty,
    min_cover_value,
    multi_cover_feasible,
    t_term_rank,
    t_term_ranks,
)
from ars.binmat import CoverSpec
from ars.errors import DimensionMismatch
from ars.flow import FlowNetwork
from ars.oracle import brute_t_term_rank, brute_t_term_ranks, min_cover_values

from helpers import matrices

FLOW_EXAMPLE = BinaryMatrix([[1, 1, 1, 1], [1, 0, 0, 0], [1, 0, 0, 0]])


def test_network_structure_worked_example():
    net = build_t_rank_network(FLOW_EXAMPLE, 2)
    edges = list(net.edges())
    # 3 source edges (capacity 2) + 6 interior unit edges + 4 sink edges
    assert len(edges) == 13
    source_edges = [(u, v, c) for u, v, c, _ in edges if u == net.source]
    assert source_edges == [(0, 1, 2), (0, 2, 2), (0, 3, 2)]
    interior = [(u - 1, v - 4) for u, v, c, _ in edges if 1 <= u <= 3 and v != net.sink]
    assert interior == sorted(FLOW_EXAMPLE.ones())
    sink_edges = [(u, c) for u, v, c, _ in edges if v == net.sink]
    assert sink_edges == [(4, 1), (5, 1), (6, 1), (7, 1)]


def test_network_zero_matrix_has_no_interior_edges():
    net = build_t_rank_network(BinaryMatrix([[0, 0], [0, 0]]), 3)
    assert all(u == net.source or v == net.sink for u, v, _, _ in net.edges())


def test_network_identity():
    net = build_t_rank_network(BinaryMatrix([[1, 0], [0, 1]]), 1)
    interior = [(u, v, c) for u, v, c, _ in net.edges() if u != net.source and v != net.sink]
    assert interior == [(1, 3, 1), (2, 4, 1)]


def test_flow_respects_capacities_and_conservation():
    net = build_t_rank_network(FLOW_EXAMPLE, 2)
    value = net.max_flow()
    assert value == 3
    in_flow = {}
    out_flow = {}
    for u, v, cap, flow in net.edges():
        assert 0 <= flow <= cap
        out_flow[u] = out_flow.get(u, 0) + flow
        in_flow[v] = in_flow.get(v, 0) + flow
    for node in range(1, net.sink):
        assert in_flow.get(node, 0) == out_flow.get(node, 0)
    assert out_flow[net.source] == value == in_flow[net.sink]


def test_rank_worked_example():
    assert t_term_rank(FLOW_EXAMPLE, 2) == 3
    assert t_term_rank(FLOW_EXAMPLE, 1) == 2


def test_rank_identity():
    for n in (1, 2, 3, 5):
        eye = BinaryMatrix([[1 if i == j else 0 for j in range(n)] for i in range(n)])
        assert t_term_rank(eye, 1) == n


def test_rank_rejects_bad_t():
    with pytest.raises(ValueError):
        t_term_rank(FLOW_EXAMPLE, 0)


def test_rank_t_follows_the_integer_rule():
    """2.0 is read as 2, before and after the matrix is ranked; a fraction
    or a string raises ValueError on every matrix, not only where a float
    list index happens to be reached."""
    for rows in ([[1, 1], [1, 0]], FLOW_EXAMPLE.rows, [[1] * 4] * 3):
        a, plain = BinaryMatrix(rows), BinaryMatrix(rows)
        for bad in (1.5, 0.5, "2", None, float("nan"), -2):
            with pytest.raises(ValueError):
                t_term_rank(a, bad)
            with pytest.raises(ValueError):
                build_t_rank_network(a, bad)
        assert t_term_rank(a, 2.0) == t_term_rank(plain, 2)
        assert t_term_rank(a, 10.0) == t_term_rank(plain, 10)
        assert build_t_rank_network(a, 2.0).max_flow() == t_term_rank(plain, 2)


def test_rank_huge_t_clamps_to_largest_row_sum():
    # in the last matrix a row is still at quota at t = its sum
    for a in (
        FLOW_EXAMPLE,
        BinaryMatrix([[0, 0], [0, 0]]),
        BinaryMatrix([[1] * 5] * 2),
        BinaryMatrix([[1, 1, 0], [0, 0, 1]]),
    ):
        top = max(1, max(a.row_sums))
        assert t_term_rank(a, 10**9) == t_term_rank(a, top)
        fresh, ranked = BinaryMatrix(a.rows), BinaryMatrix(a.rows)
        want = t_term_rank(ranked, top)
        assert t_term_rank(fresh, 10**9) == want == t_term_rank(ranked, 10**9)
        # the profile is final by step top, so a sweep up to the largest
        # row sum leaves the kernel with only its ranks
        for kernel in (fresh._rank_state, ranked._rank_state):
            assert len(kernel.ranks) <= top
            assert kernel.adj is kernel.owner is kernel.load is None


def test_rank_sequence_runs_one_step_per_value():
    """The kernel state is made on the first value taken, each value taken
    runs at most one step, and t_term_rank reuses the steps already run."""
    a = BinaryMatrix([[1] * 7] * 3)
    ranks = t_term_ranks(a)
    assert a._rank_state is None
    assert next(ranks) == 3
    assert len(a._rank_state.ranks) == 1
    assert next(ranks) == 6
    assert len(a._rank_state.ranks) == 2
    assert t_term_rank(a, 2) == 6 and len(a._rank_state.ranks) == 2
    # at t = 3 every column is selected (rank 7 = n), so the profile is
    # final after three steps
    assert t_term_rank(a, 4) == 7 and len(a._rank_state.ranks) == 3
    assert next(ranks) == 7 and len(a._rank_state.ranks) == 3


def test_rank_final_once_every_nonzero_column_is_selected():
    """Both rows are at quota after step 1 and t = 1 is below the largest
    row sum, yet the profile is final: the only free column is all zero."""
    a = BinaryMatrix([[1, 1, 0], [1, 1, 0]])
    assert t_term_rank(a, 1) == 2
    kernel = a._rank_state
    assert kernel.ranks == [2]
    assert kernel.adj is kernel.owner is kernel.load is None
    assert t_term_rank(a, 5) == 2 and kernel.ranks == [2]
    for t in (1, 2, 3):
        assert build_t_rank_network(a, t).max_flow() == 2


@st.composite
def sparse_matrices(draw, max_m=12, max_n=12):
    """Matrices up to max_m x max_n, 0x0 and m x 0 included, with some
    rows and columns forced empty."""
    m = draw(st.integers(0, max_m))
    n = draw(st.integers(0, max_n)) if m else 0
    dead_rows = draw(st.sets(st.integers(0, max(m - 1, 0)), max_size=m))
    dead_cols = draw(st.sets(st.integers(0, max(n - 1, 0)), max_size=n))
    rows = [
        [0 if i in dead_rows or j in dead_cols else draw(st.integers(0, 1)) for j in range(n)]
        for i in range(m)
    ]
    return BinaryMatrix(rows)


@given(sparse_matrices(), st.integers(1, 6))
@settings(max_examples=200, deadline=None)
def test_rank_kernel_matches_network_oracle(a, k):
    """The b-matching kernel against Edmonds-Karp on the t-rank network.
    The kernel state stays on the matrix, so each way of reading the
    ranks starts from a fresh copy: per t, one copy each; as one
    warm-started sequence; out of order (t = k, then 1..k); and through
    two generators that take turns running ahead of each other."""
    want = [build_t_rank_network(a, t).max_flow() for t in range(1, k + 1)]
    assert [t_term_rank(BinaryMatrix(a.rows), t) for t in range(1, k + 1)] == want
    assert list(islice(t_term_ranks(BinaryMatrix(a.rows)), k)) == want
    b = BinaryMatrix(a.rows)
    assert [t_term_rank(b, t) for t in (k, *range(1, k + 1))] == [want[-1], *want]
    c = BinaryMatrix(a.rows)
    gens, got = (t_term_ranks(c), t_term_ranks(c)), ([], [])
    for turn in range(2 * k):
        got[turn % 2].extend(islice(gens[turn % 2], turn + 1))
    assert got[0][:k] == want and got[1][:k] == want


def test_rank_kernel_matches_scipy_and_networkx():
    """Square matrices of side 50-300 against two external max-flow
    codes on the same transportation network."""
    np = pytest.importorskip("numpy")
    sparse = pytest.importorskip("scipy.sparse")
    csgraph = pytest.importorskip("scipy.sparse.csgraph")
    nx = pytest.importorskip("networkx")
    rng = random.Random(20261018)
    for side, density in ((50, 0.04), (120, 0.018), (200, 0.01), (300, 0.006)):
        a = BinaryMatrix(
            [[1 if rng.random() < density else 0 for _ in range(side)] for _ in range(side)]
        )
        ranks = list(islice(t_term_ranks(a), 3))
        for t, rank in zip((1, 2, 3), ranks):
            net = build_t_rank_network(a, t)
            edges = [(u, v, cap) for u, v, cap, _ in net.edges()]
            u, v, cap = (np.array(col, dtype=np.int32) for col in zip(*edges))
            graph = sparse.csr_matrix((cap, (u, v)), shape=(net.num_nodes, net.num_nodes))
            assert csgraph.maximum_flow(graph, net.source, net.sink, method="dinic").flow_value == rank
            g = nx.DiGraph()
            g.add_weighted_edges_from(edges, weight="capacity")
            assert nx.maximum_flow_value(g, net.source, net.sink) == rank


def test_rank_equalities_exhaustive_small():
    """flow == brute == cover duality over every matrix with m,n <= 4."""
    for m in range(1, 5):
        for n in range(1, 5):
            for bits in range(1 << (m * n)):
                rows = [[(bits >> (i * n + j)) & 1 for j in range(n)] for i in range(m)]
                a = BinaryMatrix(rows)
                ranks = tuple(islice(t_term_ranks(a), 5))
                assert ranks == brute_t_term_ranks(a, 5)
                assert ranks == tuple(value for value, _ in min_cover_values(a, 5))


def test_rank_equalities_random_6x6():
    rng = random.Random(20240811)
    for _ in range(50):
        density = rng.choice([0.2, 0.35, 0.5, 0.65, 0.8])
        a = BinaryMatrix(
            [[1 if rng.random() < density else 0 for _ in range(6)] for _ in range(6)]
        )
        for t in range(1, 6):
            value = t_term_rank(a, t)
            assert value == brute_t_term_rank(a, t)
            assert value == min_cover_value(a, t)[0]


@given(matrices(max_m=5, max_n=5), st.integers(1, 4), st.data())
@settings(max_examples=60)
def test_rank_permutation_invariant(a, t, data):
    rows = data.draw(st.permutations(range(a.m)))
    cols = data.draw(st.permutations(range(a.n)))
    b = BinaryMatrix([[a.rows[i][j] for j in cols] for i in rows])
    assert t_term_rank(a, t) == t_term_rank(b, t)


@given(matrices(max_m=5, max_n=5), st.integers(1, 4))
@settings(max_examples=60)
def test_rank_monotone_and_bounded(a, t):
    value = t_term_rank(a, t)
    assert value <= t_term_rank(a, t + 1)
    assert value <= min(a.n, sum(min(ri, t) for ri in a.row_sums))


def test_feasible_bounded_examples():
    assert feasible_bounded(Partition((1, 1)), Partition((2,)), [[1], [1]]) == BinaryMatrix(
        [[1], [1]]
    )
    assert feasible_bounded(Partition((1, 1)), Partition((2,)), [[1], [0]]) is None


def test_feasible_bounded_validates():
    with pytest.raises(DimensionMismatch):
        feasible_bounded(Partition((1, 1)), Partition((2,)), [[1]])
    with pytest.raises(ValueError):
        feasible_bounded(Partition((1,)), Partition((1,)), [[-1]])
    # the bounds are a 0/1 mask; integer capacities above 1 are rejected
    with pytest.raises(ValueError):
        feasible_bounded(Partition((2,)), Partition((2,)), [[2]])


def test_feasible_bounded_weight_mismatch_infeasible():
    assert feasible_bounded(Partition((2,)), Partition((1,)), [[1]]) is None


def test_feasible_bounded_all_ones_matches_gale_ryser(small_pairs):
    for r, s in small_pairs:
        ones = [[1] * len(s) for _ in range(len(r))]
        got = feasible_bounded(r, s, ones)
        assert (got is not None) == is_nonempty(r, s)
        if got is not None:
            assert in_class(got, r, s)


@given(matrices(max_m=5, max_n=5))
@settings(max_examples=60)
def test_feasible_bounded_recovers_margins(a):
    r = Partition.from_loose(a.row_sums)
    s = Partition.from_loose(a.col_sums)
    got = feasible_bounded(r, s, [[1] * len(s) for _ in range(len(r))])
    assert got is not None
    assert in_class(got, r, s)


def _seeded_member(rng, max_side):
    """A random matrix with its rows and columns sorted by nonincreasing
    sums and its empty lines dropped, so its margins are partitions."""
    m, n = rng.randint(1, max_side), rng.randint(1, max_side)
    density = rng.choice((0.05, 0.1, 0.2, 0.35))
    grid = [[int(rng.random() < density) for _ in range(n)] for _ in range(m)]
    grid = sorted((row for row in grid if any(row)), key=sum, reverse=True)
    cols = sorted((col for col in zip(*grid) if any(col)), key=sum, reverse=True)
    return [list(row) for row in zip(*cols)]


def test_bounded_witnesses_are_pinned():
    """The witnesses of 80 seeded queries up to 40x40, alternating
    feasible_bounded on a member's cells plus random others (a few of the
    member's cells sometimes dropped) and multi_cover_feasible on one to
    three covers, some of them covers of the member, hash to a fixed
    digest: the flow code may change only if each witness stays the
    same."""
    rng = random.Random(20261018)
    digest = hashlib.sha256()
    outcomes = ([], [])
    for q in range(80):
        grid = _seeded_member(rng, 40)
        m, n = len(grid), len(grid[0])
        r, s = Partition(map(sum, grid)), Partition(map(sum, zip(*grid)))
        if q % 2 == 0:
            mask = [[v or int(rng.random() < 0.3) for v in row] for row in grid]
            for _ in range(rng.choice((0, 0, 1, 3))):
                mask[rng.randrange(m)][rng.randrange(n)] = 0
            got = feasible_bounded(r, s, mask)
        else:
            covers = []
            for _ in range(rng.randint(1, 3)):
                rows = tuple(sorted(rng.sample(range(m), rng.randint(0, m))))
                if rng.random() < 0.5:
                    cols = tuple(
                        j for j in range(n) if any(grid[i][j] for i in range(m) if i not in rows)
                    )
                else:
                    cols = tuple(sorted(rng.sample(range(n), rng.randint(0, n))))
                if rng.random() < 0.3:
                    covers.append((len(rows), len(cols)))
                else:
                    covers.append(CoverSpec(len(rows), len(cols), rows=rows, cols=cols))
            got = multi_cover_feasible(r, s, covers)
        if got is not None:
            assert in_class(got, r, s)
        outcomes[q % 2].append(got is not None)
        digest.update(repr(None if got is None else got.rows).encode())
    # both query kinds see feasible and infeasible cases
    assert all(any(kind) and not all(kind) for kind in outcomes)
    assert digest.hexdigest() == "1975552dd29aa34e0952a1a16b5b9cfa90d93edd66fb31686a49d8d7af7946f0"


def test_prefix_covers_at_benchmark_sizes_match_scipy():
    """Prefix-cover queries drawn as the matrix_flow benchmark draws
    them: the sorted margins of a random 40x40 to 80x80 grid of weight
    near 200 with no empty line, the cover (e, f) with e half the rows
    and f on either side of a necessary bound.  On the query's network,
    whose row and column capacities exceed 1, `FlowNetwork` moves what
    scipy's max flow moves on the same network built afresh, the verdict
    is whether that is the full weight, each witness lies in its class
    and inside its cover, and the witnesses hash to a fixed digest."""
    np = pytest.importorskip("numpy")
    sparse = pytest.importorskip("scipy.sparse")
    csgraph = pytest.importorskip("scipy.sparse.csgraph")
    rng = random.Random(20261020)
    digest = hashlib.sha256()
    verdicts = []
    for q in range(20):
        m, n = ((40, 40), (45, 50), (55, 55), (70, 70), (80, 80))[q % 5]
        grid = [[int(rng.random() < 200 / (m * n)) for _ in range(n)] for _ in range(m)]
        for row in grid:
            if not any(row):
                row[rng.randrange(n)] = 1
        for j in range(n):
            if not any(row[j] for row in grid):
                grid[rng.randrange(m)][j] = 1
        r, s = Partition.from_loose(map(sum, grid)), Partition.from_loose(map(sum, zip(*grid)))
        # least f at which the rows from e on fit in the first f columns
        # and no column from f on holds more than e
        e, f, room = m // 2, 0, 0
        while f < n and (room < sum(r.parts[e:]) or s.parts[f] > e):
            room += min(s.parts[f], m - e)
            f += 1
        f = max(0, f - 1 - rng.randint(0, 1)) if q // 5 % 2 else min(n, f + rng.randint(0, 2))
        got = multi_cover_feasible(r, s, [(e, f)])
        # source 0, rows 1..m, columns m+1..m+n, sink
        cells = [(i, j) for i in range(m) for j in range(n) if i < e or j < f]
        sink = 1 + m + n
        u = [0] * m + [1 + i for i, _ in cells] + [1 + m + j for j in range(n)]
        v = [*range(1, m + 1), *(1 + m + j for _, j in cells), *[sink] * n]
        cap = np.array([*r.parts, *[1] * len(cells), *s.parts], dtype=np.int32)
        graph = sparse.csr_matrix((cap, (u, v)), shape=(sink + 1, sink + 1))
        value = csgraph.maximum_flow(graph, 0, sink, method="dinic").flow_value
        assert FlowNetwork(r.parts, s.parts, cells).max_flow() == value, q
        assert (got is not None) == (value == r.weight), q
        if got is not None:
            assert in_class(got, r, s) and is_covered(got, CoverSpec.prefix(e, f)), q
        verdicts.append(got is not None)
        digest.update(repr(None if got is None else got.rows).encode())
    assert any(verdicts) and not all(verdicts)
    assert digest.hexdigest() == "68e49792158cccbfb5c0d5d0e655090007b9561c5db0a168324a1cd41d15fb6f"


def test_multi_cover_worked_instance():
    r = Partition((4, 2, 2, 2, 1, 1, 1))
    s = Partition((2, 2, 2, 2, 1, 1, 1, 1, 1))
    got = multi_cover_feasible(r, s, [(2, 4), (3, 3)])
    assert got is not None
    assert in_class(got, r, s)
    assert is_covered(got, CoverSpec.prefix(2, 4))
    assert is_covered(got, CoverSpec.prefix(3, 3))


def test_multi_cover_whole_matrix(small_classes):
    for (r, s) in list(small_classes)[:40]:
        got = multi_cover_feasible(r, s, [(len(r), len(s))])
        assert got is not None and in_class(got, r, s)


def test_multi_cover_reference_infeasibility():
    r = Partition((6, 5, 4, 3, 3, 2, 2, 1, 1))
    s = Partition((7, 3, 3, 2, 2) + (1,) * 10)
    assert multi_cover_feasible(r, s, [(1, 9), (2, 5), (3, 3)]) is None


def test_multi_cover_accepts_cover_specs():
    r = s = Partition((1, 1))
    got = multi_cover_feasible(r, s, [CoverSpec.prefix(2, 2)])
    assert got is not None


def test_multi_cover_explicit_sets_match_enumeration(small_classes):
    rng = random.Random(7)
    for (r, s), mats in small_classes.items():
        m, n = len(r), len(s)
        for _ in range(4):
            covers = []
            for _ in range(rng.randint(1, 3)):
                rows = tuple(sorted(rng.sample(range(m), rng.randint(0, m))))
                cols = tuple(sorted(rng.sample(range(n), rng.randint(0, n))))
                covers.append(CoverSpec(len(rows), len(cols), rows=rows, cols=cols))
            got = multi_cover_feasible(r, s, covers)
            exists = any(all(is_covered(a, cv) for cv in covers) for a in mats)
            assert (got is not None) == exists
            if got is not None:
                assert in_class(got, r, s)
                assert all(is_covered(got, cv) for cv in covers)


def test_multi_cover_range_check():
    for cover in ((2, 0), (0, 2), CoverSpec(1, 0, rows=(1,)), CoverSpec(0, 1, cols=(3,))):
        with pytest.raises(DimensionMismatch):
            multi_cover_feasible(Partition((1,)), Partition((1,)), [cover])


def test_multi_cover_sizes_are_exact_pairs():
    """A cover that is not a CoverSpec is an (e, f) pair of integers;
    sizes are neither truncated nor parsed, and extra items are not
    dropped."""
    r = s = Partition((1, 1))
    for cover in ((1.9, 2), (2, 1.9), ("2", "2"), (2, 2, "junk"), (2,), 3, None, "22x"):
        with pytest.raises(ValueError):
            multi_cover_feasible(r, s, [cover])
        with pytest.raises(ValueError):
            multi_cover_feasible(r, s, [(2, 2), cover])
    # integral floats and lists are pairs like any other
    assert multi_cover_feasible(r, s, [(2.0, 2)]) == multi_cover_feasible(r, s, [[2, 2]])
    assert multi_cover_feasible(r, s, [(0.0, 1)]) is None
