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
from ars.oracle import brute_t_term_rank

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


def test_rank_huge_t_clamps_to_largest_row_sum():
    for a in (FLOW_EXAMPLE, BinaryMatrix([[0, 0], [0, 0]]), BinaryMatrix([[1] * 5] * 2)):
        top = max(1, max(a.row_sums))
        assert t_term_rank(a, 10**9) == t_term_rank(a, top)


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
    """The b-matching kernel against Edmonds-Karp on the t-rank network,
    per t and as one warm-started sequence."""
    want = [build_t_rank_network(a, t).max_flow() for t in range(1, k + 1)]
    assert [t_term_rank(a, t) for t in range(1, k + 1)] == want
    assert list(islice(t_term_ranks(a), k)) == want


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
                for t in range(1, 6):
                    value = t_term_rank(a, t)
                    assert value == brute_t_term_rank(a, t)
                    assert value == min_cover_value(a, t)[0]


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


def test_feasible_bounded_integer_capacities():
    # capacities above 1 produce a plain integer matrix
    got = feasible_bounded(Partition((2,)), Partition((2,)), [[2]])
    assert got == ((2,),)


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


def test_multi_cover_range_check():
    with pytest.raises(DimensionMismatch):
        multi_cover_feasible(Partition((1,)), Partition((1,)), [(2, 0)])
