import pytest
from hypothesis import given

import ars.partition
from ars import Partition, conjugate, is_nonempty, iter_partitions, majorized_by, margins_realizable

from helpers import partitions


def test_conjugate_worked_example():
    assert conjugate(Partition((4, 2, 2, 2, 1, 1, 1))).parts == (7, 4, 1, 1)


def test_conjugate_single_cell():
    assert conjugate(Partition((1,))).parts == (1,)


def test_conjugate_self_conjugate():
    # column counts of the Young diagram of (3,3,2) read (3,3,2) again
    assert conjugate(Partition((3, 3, 2))).parts == (3, 3, 2)


def test_conjugate_empty():
    assert conjugate(Partition(())).parts == ()


@given(partitions())
def test_conjugate_is_involution(p):
    q = conjugate(p)
    assert q.weight == p.weight
    assert conjugate(q) == p


def test_majorization_equality_case():
    assert majorized_by(Partition((2, 1)), Partition((2, 1)))


def test_majorization_fails_at_first_prefix():
    assert not majorized_by(Partition((3, 1)), Partition((2, 2)))


def test_majorization_reference_pair():
    s = Partition((7, 3, 3, 2, 2) + (1,) * 10)
    r_conj = conjugate(Partition((6, 5, 4, 3, 3, 2, 2, 1, 1)))
    assert majorized_by(s, r_conj)


def test_majorization_requires_equal_weight():
    assert not majorized_by(Partition((1,)), Partition((2,)))


@given(partitions())
def test_majorization_reflexive(p):
    assert majorized_by(p, p)


def test_nonempty_reference_pair():
    r = Partition((6, 5, 4, 3, 3, 2, 2, 1, 1))
    s = Partition((7, 3, 3, 2, 2) + (1,) * 10)
    assert is_nonempty(r, s)


def test_nonempty_trivial():
    assert is_nonempty(Partition((1,)), Partition((1,)))


def test_nonempty_fails_on_majorization():
    # conjugate((2,2)) = (2,2) and 3 > 2 at the first prefix
    assert not is_nonempty(Partition((2, 2)), Partition((3, 1)))


def test_nonempty_rejects_a_row_longer_than_the_columns(monkeypatch):
    def bounded_conjugate(p):
        assert p.part(0) <= 10_000, "conjugate asked for too many parts"
        return conjugate(p)

    monkeypatch.setattr(ars.partition, "conjugate", bounded_conjugate)
    assert is_nonempty(Partition((10**12,)), Partition((10**12,))) is False
    assert is_nonempty(Partition((2, 1)), Partition((2, 1))) is True


def test_partition_validation():
    with pytest.raises(ValueError):
        Partition((1, 2))
    with pytest.raises(ValueError):
        Partition((2, 0))
    with pytest.raises(ValueError):
        Partition((-1,))


def test_from_loose_sorts_and_strips():
    assert Partition.from_loose((1, 0, 2)).parts == (2, 1)
    assert Partition.from_loose((0, 0)).parts == ()


def test_text_round_trip():
    p = Partition((6, 5, 4, 3, 3, 2, 2, 1, 1))
    assert Partition.from_text(p.to_text()) == p
    assert Partition.from_text(" 2, 1 ").parts == (2, 1)


def test_margins_realizable_loose():
    assert margins_realizable((1, 0, 2), (2, 1, 0))
    assert not margins_realizable((2, 2), (3, 1))


def test_iter_partitions_counts():
    # partitions with at most 4 parts, weight 1..8
    expected = [1, 2, 3, 5, 6, 9, 11, 15]
    got = [sum(1 for _ in iter_partitions(4, w)) for w in range(1, 9)]
    assert got == expected


def test_iter_partitions_are_valid():
    for w in range(1, 7):
        ps = list(iter_partitions(3, w))
        assert len(set(ps)) == len(ps)
        for p in ps:
            assert p.weight == w and len(p) <= 3


def test_zero_padded_access():
    p = Partition((3, 1))
    assert p.part(0) == 3 and p.part(1) == 1 and p.part(5) == 0
