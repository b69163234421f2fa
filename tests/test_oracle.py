import hashlib
import itertools
import pickle
import random
import tracemalloc
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ars import (
    BinaryMatrix,
    Partition,
    is_nonempty,
    margins_realizable,
    brute_min_t_term_rank,
    brute_t_term_rank,
    enumerate_class,
    find_uniform_minimizer,
    in_class,
    min_t_term_rank,
    t_term_rank,
    t_term_ranks,
)
from ars import flow, oracle
from ars.errors import EmptyClass
from ars.oracle import brute_t_term_ranks
from ars.partition import clear_kept_classes

from helpers import matrices


def test_enumerate_single_member_class():
    mats = list(enumerate_class(Partition((2, 1)), Partition((2, 1))))
    assert mats == [BinaryMatrix([[1, 1], [1, 0]])]


def test_enumerate_empty_class():
    assert list(enumerate_class(Partition((2, 2)), Partition((3, 1)))) == []
    assert list(enumerate_class(Partition((2,)), Partition((1,)))) == []


def test_enumerate_two_member_class():
    mats = list(enumerate_class(Partition((1, 1)), Partition((1, 1))))
    assert mats == [BinaryMatrix([[1, 0], [0, 1]]), BinaryMatrix([[0, 1], [1, 0]])]


def test_enumerate_more_columns_than_the_recursion_limit():
    mats = list(enumerate_class(Partition((1200,)), Partition((1,) * 1200)))
    assert mats == [BinaryMatrix([[1] * 1200])]


@pytest.mark.parametrize("k,expected", [(1, 1), (2, 2), (3, 6), (4, 24)])
def test_enumerate_permutation_matrices(k, expected):
    ones = Partition((1,) * k)
    assert sum(1 for _ in enumerate_class(ones, ones)) == expected


def test_enumerate_members_and_determinism(small_classes):
    for (r, s), mats in list(small_classes.items())[:40]:
        assert len(set(mats)) == len(mats)
        for a in mats:
            assert in_class(a, r, s)
        assert tuple(enumerate_class(r, s)) == mats


def test_enumerate_order_matches_product_of_column_sets(small_classes):
    # independent of the backtracking: every choice of one row set per
    # column, in itertools.product order, kept when its row sums match
    for (r, s), mats in small_classes.items():
        m, n = len(r), len(s)
        expected = []
        for cols in itertools.product(
            *(itertools.combinations(range(m), s[j]) for j in range(n))
        ):
            sums = [0] * m
            for rows in cols:
                for i in rows:
                    sums[i] += 1
            if tuple(sums) == r.parts:
                expected.append(
                    BinaryMatrix([[int(i in cols[j]) for j in range(n)] for i in range(m)])
                )
        assert list(mats) == expected, (r, s)


def test_enumerate_skips_gale_ryser_on_greedy_columns(monkeypatch):
    calls = []
    fit = oracle.rows_fit

    def counting(rows, acc, lo):
        calls.append(1)
        return fit(rows, acc, lo)

    monkeypatch.setattr(oracle, "rows_fit", counting)
    n = 3000
    first = next(enumerate_class(Partition((n,)), Partition((1,) * n)))
    assert first == BinaryMatrix([[1] * n])
    assert calls == []
    # the counter sees the calls the enumerator makes: in this class the
    # first column may take rows 1 and 2, which is not greedy
    assert len(list(enumerate_class(Partition((2, 1, 1)), Partition((2, 1, 1))))) == 5
    assert calls


@given(st.data())
@settings(max_examples=300)
def test_per_depth_prune_matches_gale_ryser(data):
    """The walk's test at depth j, `rows_fit` against the prefix sums of
    all the column sums read from column j + 1, agrees with
    margins_realizable on residuals of the weight of the columns after
    j, each unit of it in a random row: realizable or not, with rows
    longer than the columns left and rows too few for the largest
    column."""
    m = data.draw(st.integers(1, 7))
    sp = sorted(data.draw(st.lists(st.integers(1, m), min_size=3, max_size=8)), reverse=True)
    j = data.draw(st.integers(0, len(sp) - 3))
    rr = [0] * m
    for _ in range(sum(sp[j + 1:])):
        rr[data.draw(st.integers(0, m - 1))] += 1
    acc = (0, *itertools.accumulate(sp))
    assert oracle.rows_fit(rr, acc, j + 1) == margins_realizable(rr, sp[j + 1:])


def test_enumerated_members_match_the_constructor(small_classes):
    """Members are built without the constructor's checks; each must be
    indistinguishable from the same rows passed through it.  The fixture's
    members may have been ranked by other tests, so the classes are
    enumerated afresh."""
    empty = Partition(())
    assert list(enumerate_class(empty, empty)) == [BinaryMatrix([])]
    for r, s in [*small_classes, (empty, empty)]:
        for a in enumerate_class(r, s):
            b = BinaryMatrix([list(row) for row in a.rows])
            assert (a.rows, a.m, a.n, a.row_sums, a.col_sums) == (
                b.rows, b.m, b.n, b.row_sums, b.col_sums
            )
            assert all(type(v) is int for row in a.rows for v in row)
            assert type(a.rows) is tuple and all(type(row) is tuple for row in a.rows)
            assert type(a.row_sums) is tuple and type(a.col_sums) is tuple
            assert a == b and hash(a) == hash(b)
            assert pickle.loads(pickle.dumps(a)) == b
            assert pickle.dumps(a) == pickle.dumps(b)
            assert a._rank_state is None


def members_by_column_sets(r, s):
    """Every choice of one row set per column, in itertools.product order,
    whose row sums are r; no Gale-Ryser test and no closed form.  A
    partial choice that overfills a row, or leaves a row more short than
    the columns still open, is cut with everything after it, which keeps
    the product order of the rest."""
    m, n = len(r), len(s)
    sums, cols, out = [0] * m, [], []

    def extend(j):
        if j == n:
            out.append(BinaryMatrix([[int(i in rows) for rows in cols] for i in range(m)]))
            return
        for rows in itertools.combinations(range(m), s[j]):
            for i in rows:
                sums[i] += 1
            if all(sums[i] <= r[i] <= sums[i] + n - j - 1 for i in range(m)):
                cols.append(rows)
                extend(j + 1)
                cols.pop()
            for i in rows:
                sums[i] -= 1

    extend(0)
    return out


def row_masks(a):
    return tuple(sum(v << j for j, v in enumerate(row)) for row in a.rows)


def sampled_desk_classes(count, seed, most=2000):
    """Seeded classes from random 0/1 grids with m, n in 3..6 and no
    empty line, each with at most `most` members."""
    rng = random.Random(seed)
    classes = []
    while len(classes) < count:
        m, n = rng.randint(3, 6), rng.randint(3, 6)
        density = rng.uniform(0.2, 0.8)
        grid = [[int(rng.random() < density) for _ in range(n)] for _ in range(m)]
        if not all(map(any, grid)) or not all(map(any, zip(*grid))):
            continue
        r = Partition(sorted(map(sum, grid), reverse=True))
        s = Partition(sorted(map(sum, zip(*grid)), reverse=True))
        if sum(1 for _ in itertools.islice(enumerate_class(r, s), most + 1)) <= most:
            classes.append((r, s))
    return classes


# (r, s) with n = 1, 2, 3, and classes whose rows are all short by 2
# or all short by 1 (or 0) when the last two columns are reached
EDGE_CLASSES = [
    ((1, 1, 1), (3,)),
    ((1,), (1,)),
    ((2, 2, 2), (3, 3)),
    ((1, 1, 1, 1), (2, 2)),
    ((2, 1, 1), (2, 2)),
    ((1, 1), (1, 1)),
    ((3, 3), (2, 2, 2)),
    ((1, 1, 1), (1, 1, 1)),
    ((3, 2, 2, 1), (3, 3, 2)),
    ((3, 3, 3), (3, 3, 3)),
    ((2, 2, 2, 2, 2, 2), (4, 4, 4)),
    ((5,), (1, 1, 1, 1, 1)),
    ((1, 1, 1, 1, 1), (5,)),
]


def test_enumerate_order_matches_column_sets_on_desk_classes():
    pairs = [(Partition(r), Partition(s)) for r, s in EDGE_CLASSES]
    pairs += sampled_desk_classes(40, seed=2024)
    assert {len(s) for _, s in pairs} >= {1, 2, 3, 4, 5, 6}
    for r, s in pairs:
        mats = list(enumerate_class(r, s))
        assert mats and mats == members_by_column_sets(r, s), (r, s)


def test_enumerated_members_carry_their_row_bits():
    pairs = [(Partition(r), Partition(s)) for r, s in EDGE_CLASSES]
    for r, s in pairs + sampled_desk_classes(15, seed=7):
        for a in enumerate_class(r, s):
            assert a._row_bits == row_masks(a)
            assert len({id(row) for row in a.rows}) == a.m
            plain = BinaryMatrix(a.rows)
            assert plain._row_bits is None
            assert pickle.loads(pickle.dumps(a))._row_bits is None
            # a kernel started from the bits ranks as one started from rows
            top = max(a.row_sums) + 1
            assert list(itertools.islice(t_term_ranks(a), top)) == list(
                itertools.islice(t_term_ranks(plain), top)
            )
            assert a._rank_state.ranks == plain._rank_state.ranks


def test_a_desk_sweep_builds_no_rows(small_pairs):
    """Members are built from their row bitmasks alone, and nothing a
    sweep asks of them reads their rows: right after a member is yielded,
    and after every rank, the class minima and the uniform-minimizer
    search, no member holds row tuples."""
    pairs = [(r, s) for r, s in small_pairs if is_nonempty(r, s)]
    pairs += sampled_desk_classes(15, seed=31)
    assert max(len(s) for _, s in pairs) == 6 and max(len(r) for r, _ in pairs) == 6
    for r, s in pairs:
        members = []
        for a in enumerate_class(r, s):
            assert a._rows is None
            members.append(a)
        ts = range(1, r[0] + 1)
        sweep = [min(col) for col in zip(*([t_term_rank(a, t) for t in ts] for a in members))]
        assert sweep == [min_t_term_rank(r, s, t)[0] for t in ts]
        found = find_uniform_minimizer(r, s).matrix
        assert found is None or found._rows is None
        assert all(a._rows is None for a in members), (r, s)


def test_json_of_unread_members_builds_no_rows(small_classes):
    """The JSON form of a member whose rows were never read is that of the
    constructor's matrix, in fresh lists."""
    for r, s in small_classes:
        for a in enumerate_class(r, s):
            got = a.to_json_obj()
            want = dict(got, rows=[row[:] for row in got["rows"]])
            for row in got["rows"]:
                row.append(2)  # a caller's edit reaches no later output
            assert a.to_json_obj() == want
            assert want == BinaryMatrix(a.rows).to_json_obj()


def test_desk_sweep_answers_are_pinned():
    """Over 40 seeded desk classes up to 6x6, each member's row bitmasks
    in enumeration order, its t-term ranks for t = 1..R_1, and the
    uniform-minimizer search's (rows, complete, scanned) hash to a fixed
    digest: the walk and the rank reads may change only if every member,
    its order, its ranks and the search's witness stay the same."""
    pairs = sampled_desk_classes(40, seed=2210)
    assert max(len(s) for _, s in pairs) == 6 and max(len(r) for r, _ in pairs) == 6
    digest = hashlib.sha256()
    for r, s in pairs:
        ts = range(1, r[0] + 1)
        for a in enumerate_class(r, s):
            digest.update(repr((a._row_bits, [t_term_rank(a, t) for t in ts])).encode())
        got = find_uniform_minimizer(r, s)
        rows = None if got.matrix is None else got.matrix.rows
        digest.update(repr((rows, got.complete, got.scanned)).encode())
    assert digest.hexdigest() == "8f73a84223f285e4a90c0ff97dc22f6cee9d4800540bb67c7b5375377eb848fa"


def test_enumeration_memory_does_not_grow_with_members():
    r = s = Partition((3,) * 6)  # 297,200 members; the test reads 6,001
    members = enumerate_class(r, s)
    next(members)
    tracemalloc.start()
    try:
        for _ in itertools.islice(members, 1000):
            pass
        first = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        for _ in itertools.islice(members, 5000):
            pass
        later = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert later <= first + 4096


def test_wide_class_walk_memory_is_linear_in_columns():
    """The walk's tables for n columns take O(n) memory, not one table of
    the remaining column sums per depth, which is O(n^2) (about 150 MB
    here)."""
    n = 3000
    for r, s in [((n,), (1,) * n), ((n, n // 2), (2,) * (n // 2) + (1,) * (n // 2))]:
        tracemalloc.start()
        try:
            next(enumerate_class(Partition(r), Partition(s)))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1000 * n, (len(r), peak)


def test_final_rank_profile_runs_no_step(monkeypatch):
    a = next(enumerate_class(Partition((3, 2, 2, 1)), Partition((3, 3, 2))))
    profile = [t_term_rank(a, t) for t in range(1, 4)]
    assert a._rank_state.adj is None

    def no_step(self):
        raise AssertionError("a final profile ran a kernel step")

    monkeypatch.setattr(flow._RankKernel, "step", no_step)
    for t in (1, 2, 3, 4, 10**9, 2.0):
        assert t_term_rank(a, t) == profile[min(int(t), 3) - 1]
    for bad in (0, -1, 1.5, "2"):
        with pytest.raises(ValueError):
            t_term_rank(a, bad)


def test_shared_kernels_rank_every_member_exactly(cold_classes, small_classes):
    """Members that are row permutations of each other share one kernel.
    Ranked in enumeration order, and again in a shuffled order at mixed t
    (so one member's partly stepped kernel is extended by another's
    reads), every member's profile equals the exhaustive one and that of
    an unshared copy, and the uniform-minimizer search answers as it does
    from an empty memo."""
    rng = random.Random(1906)
    pairs = list(small_classes) + sampled_desk_classes(40, seed=1906)
    for r, s in pairs:
        top = max(r.parts)
        ts = range(1, top + 1)
        profiles = {}
        for a in enumerate_class(r, s):
            got = [t_term_rank(a, t) for t in ts]
            want = list(brute_t_term_ranks(a, top))
            assert got == want == [t_term_rank(BinaryMatrix(a.rows), t) for t in ts], a
            profiles[a] = want
        searched = find_uniform_minimizer(r, s)
        clear_kept_classes()
        members = list(enumerate_class(r, s))
        rng.shuffle(members)
        for a in members:
            t_term_rank(a, rng.randint(1, top + 1))
        for a in members:
            t = rng.randint(1, top + 1)
            assert t_term_rank(a, t) == profiles[a][min(t, top) - 1]
            assert list(itertools.islice(t_term_ranks(a), top)) == profiles[a]
        clear_kept_classes()
        cold = find_uniform_minimizer(r, s)
        assert tuple(searched) == tuple(cold), (r, s)


def test_row_permuted_members_share_one_kernel(cold_classes, monkeypatch):
    r, s = Partition((2, 2, 1, 1)), Partition((2, 2, 2))
    steps = []
    step = flow._RankKernel.step

    def counted(self):
        steps.append((tuple(sorted(self.adj)), len(self.ranks) + 1))
        step(self)

    monkeypatch.setattr(flow._RankKernel, "step", counted)
    members = list(enumerate_class(r, s))
    for a in members:
        assert [t_term_rank(a, t) for t in (1, 2)] == list(brute_t_term_ranks(a, 2))
    # each step of each row multiset runs once
    keys = {tuple(sorted(a._row_bits)) for a in members}
    assert len(steps) == len(set(steps)) and {key for key, _ in steps} == keys
    assert len(keys) < len(members)
    by_key = {}
    for a in members:
        kernel = by_key.setdefault(tuple(sorted(a._row_bits)), a._rank_state)
        assert a._rank_state is kernel
    assert len({id(k) for k in by_key.values()}) == len(keys)
    # matrices from the constructor keep a kernel each, even when equal
    # or row-permuted, and never enter the memo
    a = members[0]
    plain, same, flipped = (BinaryMatrix(rows) for rows in (a.rows, a.rows, a.rows[::-1]))
    for b in (plain, same, flipped):
        t_term_rank(b, 2)
    assert len({id(b._rank_state) for b in (a, plain, same, flipped)}) == 4
    assert len(flow._kept.entry[2]) == len(keys)


def test_members_with_one_row_set_in_other_multiplicities_share_nothing(cold_classes):
    """Two members of one 7x7 class with the same set of rows, taken
    three and two times or two and three times: the first ranks one less
    at t = 1, since its three rows (1,1,0,...) hold two columns between
    them.  A kernel keyed by the set of rows would give both one rank."""
    r, s = Partition((5, 5, 5, 2, 2, 2, 2)), Partition((4, 4, 3, 3, 3, 3, 3))
    wide, mid = (1, 1, 1, 1, 0, 0, 1), (0, 0, 1, 1, 1, 1, 1)
    pair, tail = (1, 1, 0, 0, 0, 0, 0), (0, 0, 0, 0, 1, 1, 0)
    ranked = []
    for rows, want in (
        ((wide, mid, mid, pair, pair, pair, tail), 6),
        ((wide, wide, mid, pair, pair, tail, tail), 7),
    ):
        # built as enumerate_class builds its members, row bitmasks included
        a = BinaryMatrix.__new__(BinaryMatrix)
        bits = tuple(sum(v << j for j, v in enumerate(row)) for row in rows)
        a._store(rows, r.parts, s.parts, bits)
        assert a.row_sums == r.parts and a.col_sums == s.parts
        assert t_term_rank(a, 1) == want == brute_t_term_ranks(a, 1)[0]
        ranked.append(a)
    assert set(ranked[0]._row_bits) == set(ranked[1]._row_bits)
    assert ranked[0]._rank_state is not ranked[1]._rank_state


def test_shared_kernels_of_a_class_are_freed_by_the_next(cold_classes, monkeypatch):
    class Kernel(flow._RankKernel):  # a kernel a weakref can point at
        __slots__ = ("__weakref__",)

    monkeypatch.setattr(flow, "_RankKernel", Kernel)
    a = next(enumerate_class(Partition((2, 2, 1)), Partition((2, 2, 1))))
    t_term_rank(a, 1)
    kernel = weakref.ref(a._rank_state)
    del a
    assert kernel() is not None  # the memo holds it
    t_term_rank(next(enumerate_class(Partition((2, 1)), Partition((2, 1)))), 1)
    assert kernel() is None


def test_shared_memo_knows_a_class_by_its_margins(cold_classes):
    """Members of two walks of one class, from equal but distinct
    partitions, share kernels; a class that differs only in its column
    sums starts a fresh dict."""
    r, s = Partition((2, 2, 1)), Partition((2, 2, 1))
    a = next(enumerate_class(r, s))
    t_term_rank(a, 1)
    b = next(enumerate_class(Partition((2, 2, 1)), Partition((2, 2, 1))))
    assert b.row_sums is not a.row_sums and b.col_sums is not a.col_sums
    t_term_rank(b, 1)
    assert b._rank_state is a._rank_state
    memo = flow._kept.entry[2]
    t_term_rank(next(enumerate_class(r, Partition((2, 1, 1, 1)))), 1)
    assert flow._kept.entry[2] is not memo and len(flow._kept.entry[2]) == 1


def test_shared_kernel_memo_stays_within_its_cap(cold_classes, monkeypatch):
    monkeypatch.setattr(flow, "_SHARED_CAP", 8)
    r = s = Partition((3,) * 6)
    keys = set()
    for a in itertools.islice(enumerate_class(r, s), 3000):
        keys.add(tuple(sorted(a._row_bits)))
        t = len(keys) % 3 + 1
        assert t_term_rank(a, t) == t_term_rank(BinaryMatrix(a.rows), t)
        assert len(flow._kept.entry[2]) <= 8
    assert len(keys) > 8


def test_oracle_rejects_fractional_t():
    a = BinaryMatrix([[1, 1, 0], [1, 0, 1]])
    r, s = Partition((2, 1, 1)), Partition((2, 1, 1))
    for bad in (1.5, "2", 0):
        for call in (
            lambda: brute_t_term_rank(a, bad),
            lambda: oracle.brute_t_term_ranks(a, bad),
            lambda: oracle.min_cover_value(a, bad),
            lambda: oracle.min_cover_values(a, bad),
            lambda: brute_min_t_term_rank(r, s, bad),
            lambda: find_uniform_minimizer(r, s, t_max=bad),
        ):
            with pytest.raises(ValueError):
                call()
    assert brute_t_term_rank(a, 2.0) == brute_t_term_rank(a, 2)
    assert brute_min_t_term_rank(r, s, 2.0) == brute_min_t_term_rank(r, s, 2)
    assert find_uniform_minimizer(r, s, t_max=2.0) == find_uniform_minimizer(r, s, t_max=2)


def test_find_uniform_minimizer_rejects_bad_budgets():
    r, s = Partition((2, 1, 1)), Partition((2, 1, 1))
    for bad in (-1, 1.5, "3"):
        with pytest.raises(ValueError):
            find_uniform_minimizer(r, s, budget=bad)
    assert find_uniform_minimizer(r, s, budget=0) == (None, False, 0)
    assert find_uniform_minimizer(r, s, budget=3.0) == find_uniform_minimizer(r, s, budget=3)


def test_brute_rank_worked_example():
    a = BinaryMatrix([[1, 1, 1, 1], [1, 0, 0, 0], [1, 0, 0, 0]])
    assert brute_t_term_rank(a, 2) == 3
    assert brute_t_term_rank(a, 1) == 2


def test_brute_rank_zero_matrix():
    assert brute_t_term_rank(BinaryMatrix([[0, 0], [0, 0]]), 3) == 0


def test_brute_rank_all_ones():
    a = BinaryMatrix([[1] * 3 for _ in range(3)])
    assert brute_t_term_rank(a, 1) == 3


@given(matrices(max_m=4, max_n=4), st.integers(1, 4))
@settings(max_examples=80)
def test_brute_rank_matches_flow(a, t):
    assert brute_t_term_rank(a, t) == t_term_rank(a, t)


def test_brute_min_single_member():
    assert brute_min_t_term_rank(Partition((2, 1)), Partition((2, 1)), 1) == 2


def test_brute_min_permutations():
    assert brute_min_t_term_rank(Partition((1, 1)), Partition((1, 1)), 2) == 2


def test_brute_min_empty_class():
    with pytest.raises(EmptyClass):
        brute_min_t_term_rank(Partition((2, 2)), Partition((3, 1)), 1)


def test_brute_min_matches_table_formula(small_classes):
    for (r, s) in list(small_classes)[:40]:
        for t in (1, 2, 3):
            assert brute_min_t_term_rank(r, s, t) == min_t_term_rank(r, s, t)[0]


def test_find_uniform_minimizer_single_member():
    out = find_uniform_minimizer(Partition((2, 1)), Partition((2, 1)), t_max=2)
    assert out.matrix == BinaryMatrix([[1, 1], [1, 0]])
    assert out.complete and out.scanned == 1


def test_find_uniform_minimizer_default_tmax():
    out = find_uniform_minimizer(Partition((2, 1, 1)), Partition((1, 1, 1, 1)))
    assert out.matrix is not None
    for k in (1, 2):  # t_max defaults to the largest row sum
        assert t_term_rank(out.matrix, k) == min_t_term_rank(
            Partition((2, 1, 1)), Partition((1, 1, 1, 1)), k
        )[0]


def test_find_uniform_minimizer_clamps_tmax(small_classes):
    # checked against ranks up to R_1 + 2: ranks and class minima are
    # constant for k >= R_1, so any larger t_max gives the same answer.
    # In the five-column classes the first member matching every k is
    # not the first matching k = 1.
    wide = [
        (Partition((3, 2, 1)), Partition((2, 1, 1, 1, 1))),
        (Partition((4, 2, 1)), Partition((2, 2, 1, 1, 1))),
        (Partition((3, 2, 1, 1)), Partition((3, 1, 1, 1, 1))),
    ]
    classes = dict(small_classes)
    classes.update((pair, tuple(enumerate_class(*pair))) for pair in wide)
    for (r, s), members in classes.items():
        ks = range(1, r[0] + 3)
        targets = [min_t_term_rank(r, s, k)[0] for k in ks]
        hits = [i for i, a in enumerate(members) if [t_term_rank(a, k) for k in ks] == targets]
        out = find_uniform_minimizer(r, s, t_max=10**9)
        assert out.complete
        if hits:
            assert out.matrix == members[hits[0]] and out.scanned == hits[0] + 1
        else:
            assert out.matrix is None and out.scanned == len(members)
        assert find_uniform_minimizer(r, s) == out


def test_find_uniform_minimizer_budget_exhaustion():
    r = Partition((6, 5, 4, 3, 3, 2, 2, 1, 1))
    s = Partition((7, 3, 3, 2, 2) + (1,) * 10)
    out = find_uniform_minimizer(r, s, budget=3)
    assert out.matrix is None and not out.complete and out.scanned == 3


def test_find_uniform_minimizer_empty_class():
    with pytest.raises(EmptyClass):
        find_uniform_minimizer(Partition((2, 2)), Partition((3, 1)))
