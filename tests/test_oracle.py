import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ars import (
    BinaryMatrix,
    Partition,
    brute_min_t_term_rank,
    brute_t_term_rank,
    enumerate_class,
    find_uniform_minimizer,
    in_class,
    min_t_term_rank,
    t_term_rank,
)
from ars.errors import EmptyClass

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
